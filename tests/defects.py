"""A catalogue of planted defects, each of which tier-1 must kill.

Run by hand from the repository root (pytest does not collect this file, as
its name does not match ``test_*.py``)::

    python tests/defects.py              # every entry
    python tests/defects.py relu Adam    # entries whose name holds a word

For each entry it copies the checkout (``src/``, ``tests/``, ``bench/`` and
the rest, without ``.git`` and caches) to a temporary directory, replaces
one exact string in one file of the copy's ``src/``, runs tier-1 with
``-x`` in the copy, and prints the first test that fails, or ``SURVIVED``.
The whole checkout is copied because the benchmark's own tests insist on
importing the package from the ``src/`` beside them.  The unchanged
copy runs first and must pass, so a failure is the defect's.  An entry whose
old string is not in its file exactly once stops the run, so the catalogue
cannot rot silently.  A survivor is a hole in tier-1: add the test that
kills it; never weaken the entry.

Each run takes up to one tier-1 run (about 30 s on a 2-vCPU machine), so the
full catalogue takes several minutes.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
LEFT_OUT = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_out", ".benchmarks", "results"
)


class Defect(NamedTuple):
    name: str
    file: str  # under src/namelearn/
    old: str
    new: str


CATALOGUE = [
    Defect(
        "template rotation off by one (build_batch)",
        "session.py",
        "pools[cid][(j + epoch) % len(pools[cid])]",
        "pools[cid][(j + epoch + 1) % len(pools[cid])]",
    ),
    Defect("EXCHANGE_K 2 -> 1", "session.py", "EXCHANGE_K = 2", "EXCHANGE_K = 1"),
    Defect(
        "Adam's first-moment bias correction one step ahead",
        "coordinator.py",
        "m_hat = m / (1 - b1**self.t)",
        "m_hat = m / (1 - b1 ** (self.t + 1))",
    ),
    Defect(
        "row_blocks takes in remainders under a quarter block, not a half",
        "autodiff.py",
        "range(0, n - (step - 1) // 2, step)",
        "range(0, n - (step - 1) // 4, step)",
    ),
    Defect(
        "relu masks skipped in _relu_mlp_backward",
        "text_agent.py",
        "g = g * (inputs[i // 2] > 0)",
        "g = g",
    ),
    Defect(
        "contrastive value 1e-7 too large, relatively",
        "coordinator.py",
        "- picked) / (2.0 * n)",
        "- picked) / (2.0 * n) * (1.0 + 1e-7)",
    ),
    Defect(
        "check_split_labels drops its label-in-space check",
        "world.py",
        "    if outside:\n        raise ValueError",
        "    if False:\n        raise ValueError",
    ),
    Defect(
        "the visual context leaves out the first image",
        "image_agent.py",
        "return ad.mean_rows(features)",
        "return ad.mean_rows(ad.Tensor(features.data[1:]))",
    ),
    Defect(
        "relu mask taken as >= 0",
        "text_agent.py",
        "g = g * (inputs[i // 2] > 0)",
        "g = g * (inputs[i // 2] >= 0)",
    ),
    Defect(
        "a leaf's .grad assigned without a copy",
        "autodiff.py",
        "np.array(grads[leaf], np.float64)",
        "grads[leaf]",
    ),
    Defect(
        "float labels truncated (check_labels)",
        "autodiff.py",
        "idx = np.asarray(labels)\n",
        "idx = np.asarray(labels, dtype=np.intp)\n",
    ),
    Defect(
        "float match indices truncated (check_matches)",
        "coordinator.py",
        "y = np.asarray(y)\n",
        "y = np.asarray(y, dtype=np.intp)\n",
    ),
    Defect(
        "config floats parsed in single precision",
        "harness.py",
        "    return float(value)\n",
        "    return float(np.float32(value))\n",
    ),
]


def check(defect: Defect) -> None:
    """Exit unless the entry's old string is in its file exactly once."""
    count = (ROOT / "src" / "namelearn" / defect.file).read_text().count(defect.old)
    if count != 1:
        sys.exit(f"{defect.name}: old string found {count} times in {defect.file}, not once")


def first_failure(checkout: Path) -> str | None:
    """The first test tier-1 fails (``-x``) in ``checkout``, or ``None`` if
    it passes."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    command = [
        sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
        "--continue-on-collection-errors",
    ]  # fmt: skip
    done = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode == 0:
        return None
    lines = done.stdout.splitlines()
    failed = [line for line in lines if line.startswith(("FAILED ", "ERROR "))]
    other = (lines + done.stderr.splitlines())[-1:]
    return (failed or other or [f"exit code {done.returncode}"])[0]


def run(defects: list[Defect | None]) -> None:
    for defect in defects:
        with tempfile.TemporaryDirectory(prefix="defect-") as tmp:
            checkout = Path(tmp) / "checkout"
            shutil.copytree(ROOT, checkout, ignore=LEFT_OUT)
            if defect:
                path = checkout / "src" / "namelearn" / defect.file
                path.write_text(path.read_text().replace(defect.old, defect.new))
            start = time.perf_counter()
            failure = first_failure(checkout)
            seconds = time.perf_counter() - start
        if defect is None:
            if failure:
                sys.exit(f"the unchanged copy fails tier-1: {failure}")
            print(f"unchanged copy: passes ({seconds:.0f} s)", flush=True)
        else:
            print(f"{defect.name}: {failure or 'SURVIVED'} ({seconds:.0f} s)", flush=True)


def main(words: list[str]) -> None:
    chosen = [d for d in CATALOGUE if not words or any(w in d.name for w in words)]
    if not chosen:
        sys.exit(f"no entry matches {words}")
    for defect in CATALOGUE:
        check(defect)
    start = time.perf_counter()
    run([None, *chosen])
    print(f"{len(chosen)} defects in {time.perf_counter() - start:.0f} s")


if __name__ == "__main__":
    main(sys.argv[1:])
