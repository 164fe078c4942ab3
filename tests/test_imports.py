"""Every imported name is read, and every package-level name is mentioned.

A stdlib ``ast`` scan of each Python file under ``src/``, ``tests/`` and
``demos/``.  A name counts as read where it appears as a loaded name anywhere
in the file, including inside a quoted annotation; names listed in
``namelearn.__all__`` count as read in the package's ``__init__``.

A module-level function, class or constant of the package must be mentioned
somewhere under ``src/``, ``tests/``, ``demos/`` or ``bench/`` outside the
statement that defines it: as a loaded name, an attribute, an imported name
or a string that names it (a patch target, an ``__all__`` entry).  Prose in
docstrings and comments does not count.
"""

import ast
import re
from pathlib import Path

import pytest

import namelearn

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(
    path.relative_to(ROOT).as_posix()
    for folder in ("src", "tests", "demos")
    for path in (ROOT / folder).rglob("*.py")
)
PACKAGE = [path for path in FILES if path.startswith("src/namelearn/")]
SCANNED = FILES + sorted(path.relative_to(ROOT).as_posix() for path in (ROOT / "bench").rglob("*.py"))


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


def definitions(body: list[ast.stmt]) -> dict[str, ast.stmt]:
    """Each module-level function, class and constant (dunders aside), with
    the statement that defines it."""
    defs = {}
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    defs[target.id] = node
    return defs


def mentions(node: ast.AST) -> set[str]:
    """Every name a statement mentions: loaded names (quoted annotations
    included), attributes, imported names, and strings that are a dotted name."""
    found = read_names(node)
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.update(sub.name.split("."))
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if re.fullmatch(r"[A-Za-z_][\w.]*", sub.value):
                found.update(sub.value.split("."))
    return found


def unmentioned_definitions(sources: dict[str, str], package: list[str]) -> list[str]:
    """``path: name`` for each definition in a ``package`` file that no
    top-level statement of ``sources`` mentions, other than its own."""
    bodies = {path: ast.parse(source).body for path, source in sources.items()}
    mentioned = [(stmt, mentions(stmt)) for body in bodies.values() for stmt in body]
    return [
        f"{path}: {name}"
        for path in package
        for name, node in definitions(bodies[path]).items()
        if not any(name in names for stmt, names in mentioned if stmt is not node)
    ]


def test_every_package_level_name_is_mentioned():
    sources = {path: (ROOT / path).read_text() for path in SCANNED}
    assert unmentioned_definitions(sources, PACKAGE) == []


def test_the_scan_finds_an_unmentioned_definition():
    sources = {
        "src/pkg/a.py": (
            "import json\n"
            "LIMIT = 3\n"
            "_SCALE = LIMIT * 2\n"
            "class StaleError(RuntimeError):\n"
            "    \"\"\"Raised nowhere; ``LeftOver`` is prose.\"\"\"\n"
            "def recurse(n):\n"
            "    return recurse(n - 1) if n else json.dumps(n)\n"
            "def patched():\n"
            "    return 1\n"
            "def annotated(x: 'Kept') -> None:\n"
            "    pass\n"
            "class Kept:\n"
            "    pass\n"
        ),
        "tests/test_a.py": (
            "# StaleError is only a comment here\n"
            "from pkg.a import annotated\n"
            "def test_it(monkeypatch):\n"
            "    monkeypatch.setattr('pkg.a.patched', None)\n"
        ),
    }
    assert unmentioned_definitions(sources, ["src/pkg/a.py"]) == [
        "src/pkg/a.py: _SCALE",
        "src/pkg/a.py: StaleError",
        "src/pkg/a.py: recurse",
    ]
