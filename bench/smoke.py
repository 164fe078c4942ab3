#!/usr/bin/env python3
"""Smoke check of the benchmark at a tiny size (a few epochs).

    python3 bench/smoke.py

For every workload in BENCHMARK.json, runs one plain and one traced
``--tiny`` run and checks that the last line is the result object with
exactly the keys ``correct``, ``attempted``, ``failed`` and ``metrics``, and
that it names every end-to-end (plain) or per-layer (traced) metric with its
unit and a finite value.  Then checks that the benchmark refuses to run, with
a nonzero exit and no result line, in a directory holding only
BENCHMARK.json and the benchmark's own files.  Exits 0 when all hold.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "0", "--seconds", "1",
                             "--trace", str(trace), "--tiny"]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(done, expected) -> list[str]:
    problems = []
    if done.returncode != 0:
        problems.append(f"exit code {done.returncode}: {done.stderr.strip()[-300:]}")
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return problems + ["last line is not a JSON object"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in expected}:
        problems.append(f"metric names differ: {sorted(set(metrics) ^ {m['name'] for m in expected})}")
    for m in expected:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r}, expected {m['unit']!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{m['name']}: value {value!r}")
        if not any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in lines[:-1]):
            problems.append(f"{m['name']}: not printed with its unit")
    return problems


def main() -> int:
    failures = 0
    for w in SPEC["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            problems = check_result(run(ROOT, w["name"], trace), SPEC[key])
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'PASS'} {w['name']} trace {trace}")
            for p in problems:
                print(f"    {p}")

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = run(bare, SPEC["workloads"][0]["name"], 0)
    refused = done.returncode != 0 and not done.stdout.strip()
    failures += not refused
    print(f"{'PASS' if refused else 'FAIL'} refuses to run without the package source "
          f"(exit {done.returncode})")
    shutil.rmtree(bare)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
