"""Every imported name is read: an import no code uses is an error.

A stdlib ``ast`` scan of each Python file under ``src/``, ``tests/`` and
``demos/``.  A name counts as read where it appears as a loaded name anywhere
in the file, including inside a quoted annotation; names listed in
``namelearn.__all__`` count as read in the package's ``__init__``.
"""

import ast
from pathlib import Path

import pytest

import namelearn

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(
    path.relative_to(ROOT).as_posix()
    for folder in ("src", "tests", "demos")
    for path in (ROOT / folder).rglob("*.py")
)


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line number."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def read_names(tree: ast.Module) -> set[str]:
    """Every name loaded in the file, quoted annotations parsed as code."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            read |= read_names(ast.parse(annotation.value, mode="eval"))
    return read


def unused_imports(source: str, exported=()) -> list[str]:
    tree = ast.parse(source)
    read = read_names(tree) | set(exported)
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported_names(tree).items(), key=lambda kv: kv[1])
        if name not in read
    ]


@pytest.mark.parametrize("path", FILES)
def test_every_imported_name_is_read(path):
    exported = namelearn.__all__ if path == "src/namelearn/__init__.py" else ()
    assert unused_imports((ROOT / path).read_text(), exported) == []


def test_the_scan_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from json import dumps, loads as parse\n"
        "from typing import Protocol\n"
        "def f(x: 'Protocol') -> None:\n"
        "    return dumps(os.sep)\n"
    )
    assert unused_imports(source) == ["line 3: np", "line 4: parse"]
    assert unused_imports(source, exported=("np", "parse")) == []
