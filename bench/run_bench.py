#!/usr/bin/env python3
"""The namelearn benchmark: three workloads through the package's public API.

    python3 bench/run_bench.py --workload default16 --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` next to this directory, never from site-packages.  One process,
``jobs=1``.  A plain run (``--trace 0``) prints every end-to-end metric; a
traced run (``--trace 1``) prints the per-layer split and its own overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every output check passed.  Everything written goes under
``.bench_out/`` in the checkout.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("default16", "hard_grid", "gradcheck")
# ROADMAP item 4's discriminative world: the only one whose held-out
# accuracy is not saturated.
HARD_WORLD = dict(
    embed_dim=16, image_dim=32, n_seen=20, n_ood=20, noise_sigma=0.1, min_separation=0.2
)
EPOCHS = 200
TINY_EPOCHS = 3
LR = 1e-3
SETUP_PROBES = 9
# Thresholds of acceptance criteria 5 and 6, and criterion 1's error bound.
MIN_OOD_ACC = 0.90
MIN_SC_ACC = 0.98
MAX_GRAD_ERR = 1e-4

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(RuntimeError):
    """The benchmark cannot run here (e.g. the package source is missing)."""


def import_package():
    """Import namelearn from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "namelearn" / "__init__.py").is_file():
        raise BenchError(f"no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import namelearn

    if not Path(namelearn.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"namelearn imported from {namelearn.__file__}, not {SRC}")
    return namelearn


# ---------------------------------------------------------------------------
# Workload inputs


def experiment(workload: str, seed: int, tiny: bool):
    """The workload's ExperimentConfig, generated from the seed.

    The seed sets both the world seed and the cell seed of default16 and
    hard_grid.  gradcheck's inputs are fixed by acceptance criterion 1
    (``selfcheck.CHECK_WORLD``, batch seeds 0-19); its config only drives the
    set-up and the warm-up cell.
    """
    from namelearn.harness import ExperimentConfig
    from namelearn.selfcheck import CHECK_WORLD
    from namelearn.world import WorldConfig

    s = seed % 2**32
    epochs = TINY_EPOCHS if tiny else EPOCHS
    if workload == "default16":
        world, shots = WorldConfig(seed=s), (16,)
    elif workload == "hard_grid":
        world, shots = WorldConfig(seed=s, **HARD_WORLD), (0, 1, 4, 16)
    else:
        world, shots, s = CHECK_WORLD, (1,), 0
    return ExperimentConfig(world=world, shots=shots, seeds=(s,), lrs=(LR,), epochs=epochs)


def set_up(config):
    """What ``setup_s`` times after the import: the first world and session."""
    from namelearn.session import TrainingSession
    from namelearn.world import build_world

    world = build_world(config.world)
    return TrainingSession(world, config.settings(), seed=config.seeds[0])


def setup_probe(workload: str, seed: int, tiny: bool) -> None:
    """Child-process entry: time the import plus set-up, print seconds.

    numpy is imported before the clock starts: its import is most of the
    interpreter's start-up cost, and no change to this package can move it.
    """
    import numpy  # noqa: F401

    t0 = time.perf_counter()
    import_package()
    set_up(experiment(workload, seed, tiny))
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def measure_setup(workload: str, seed: int, tiny: bool) -> float:
    """Set up once in a fresh process, so the import is cold for the
    interpreter; returns seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise BenchError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# Passes and output checks


@dataclass
class Checks:
    results: list[tuple[str, bool, str]] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    @property
    def failed(self) -> int:
        return sum(not ok for _, ok, _ in self.results)


def warm_up(workload: str, config) -> None:
    """One 1-shot, 2-epoch cell plus its metric files through the harness,
    so lazy initialisation is done before timing and every layer has run
    once in every workload."""
    from namelearn import harness

    cell = harness.run_cell(replace(config, epochs=2), 1, config.seeds[0], LR)
    result = harness.RunResult("few_shot", harness.config_hash(config), [cell])
    harness.emit_metrics(result, OUT / f"{workload}-warmup")


def run_pass(workload: str, config, tiny: bool):
    """One unit of the workload; returns what the output checks read."""
    from namelearn import harness, selfcheck

    if workload == "gradcheck":
        return selfcheck.full_loss_grad_checks(n_batches=2 if tiny else 20)
    result = harness.run_few_shot(config, jobs=1)
    paths = harness.emit_metrics(result, OUT / workload)
    return result, paths["results"].read_text()


def outcome(workload: str, out) -> tuple:
    """A pass's observable result, compared exactly across passes."""
    if workload == "gradcheck":
        return (out.worst,)
    result, csv_text = out
    # results.csv is byte-reproducible apart from its last column, wall_time.
    rows = tuple(line.rsplit(",", 1)[0] for line in csv_text.splitlines())
    return tuple((c.shot, c.status, c.ood_acc, c.sc_acc) for c in result.cells), rows


def check_pass(workload: str, out, tiny: bool, checks: Checks) -> None:
    if workload == "gradcheck":
        checks.add(
            "gradcheck max relative error < 1e-4",
            out.worst < MAX_GRAD_ERR,
            f"worst {out.worst:.3g}",
        )
        return
    result, csv_text = out
    rows = [line.split(",") for line in csv_text.strip().splitlines()[1:]]
    checks.add(
        f"{workload} results.csv has one row per cell",
        len(rows) == len(result.cells),
        f"{len(rows)} rows, {len(result.cells)} cells",
    )
    by_shot = {int(r[0]): r for r in rows}
    for cell in result.cells:
        tag = f"{workload} {cell.shot}-shot cell"
        checks.add(f"{tag} status ok", cell.status == "ok", cell.error)
        if cell.status != "ok":
            continue
        row = by_shot.get(cell.shot)
        checks.add(
            f"{tag} results.csv row matches",
            row is not None
            and row[4] == format(cell.sc_acc, ".6f")
            and row[5] == format(cell.ood_acc, ".6f")
            and row[12] == "ok",
        )
        checks.add(f"{tag} never embeds a held-out name token", cell.mask_ok)
        if workload == "default16" and not tiny:
            checks.add(
                f"{tag} ood_acc >= {MIN_OOD_ACC}", cell.ood_acc >= MIN_OOD_ACC, f"{cell.ood_acc:.6f}"
            )
            checks.add(
                f"{tag} sc_acc >= {MIN_SC_ACC}", cell.sc_acc >= MIN_SC_ACC, f"{cell.sc_acc:.6f}"
            )


def accuracy(workload: str, out) -> tuple[dict, dict]:
    """Mean held-out and seen accuracy over the trained cells, and held-out
    accuracy by shot."""
    if workload == "gradcheck":
        return {}, {}
    result, _ = out
    trained = [c for c in result.ok_cells() if c.shot > 0]
    by_shot = {c.shot: c.ood_acc for c in result.ok_cells()}
    if not trained:
        return {}, by_shot
    means = {
        "ood_acc": statistics.fmean(c.ood_acc for c in trained),
        "sc_acc": statistics.fmean(c.sc_acc for c in trained),
    }
    return means, by_shot


# ---------------------------------------------------------------------------
# Statistics


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    s = sorted(values)
    return s[max(0, -(-len(s) * q // 100) - 1)] if s else float("nan")


def ms(ns_values) -> list[float]:
    return [v / 1e6 for v in ns_values]


def end_to_end(workload, pass_times, clock, setup_times, peak_rss_mb) -> tuple[dict, dict]:
    """The gated metrics, and the quantiles of every step and evaluation.

    The tails (p98 of steps, p99 of evaluations) are printed and kept in the
    report but not gated: on a shared machine whose speed moves in phases
    they follow the share of the run spent in a slow phase, and their spread
    between runs of the same code exceeds any allowed bound.
    """
    if workload == "gradcheck":
        steps = ms(clock.coordinate_steps())
    else:
        steps = ms(clock.train_steps)
    evals = ms(clock.loss_evals())
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(pass_times), "s"),
        "step_ms.mean": (statistics.fmean(steps), "ms"),
        "loss_eval_ms.mean": (statistics.fmean(evals), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }, {"steps": _quantiles(steps), "loss_evals": _quantiles(evals)}


def _quantiles(values) -> dict:
    qs = (10, 25, 50, 75, 90, 98, 99)
    return {"n": len(values), "mean": statistics.fmean(values),
            **{f"p{q}": percentile(values, q) for q in qs}}


# Per-layer time metrics: (metric, span name, statistic over its calls).
LAYER_TIMES = (
    ("image_agent.step_ms", "image_agent.step", "total"),
    ("name_agent.step_ms", "name_agent.step", "total"),
    ("text_agent.step_ms", "text_agent.step", "total"),
    ("session.coordinator_step_ms", "session.coordinator_step", "total"),
    ("coordinator.loss_ms", "coordinator.loss", "total"),
    ("coordinator.adam_ms", "coordinator.adam", "total"),
    ("autodiff.backward_ms", "autodiff.backward", "total"),
    ("bus.self_ms", "bus.run_round", "self"),
    ("world.build_ms", "world.build", "total"),
    ("world.sample_ms", "world.sample", "total"),
    ("session.init_ms", "session.init", "total"),
    ("session.evaluate_ms", "session.evaluate", "total"),
    ("session.build_batch_ms", "session.build_batch", "total"),
    ("harness.run_cell_ms", "harness.run_cell", "total"),
    ("harness.emit_ms", "harness.emit", "total"),
)


def span_table(spans, selfs, lo, hi) -> dict:
    """Per span name over spans[lo:hi]: calls, total and self ms, and the
    median per call of each."""
    acc: dict[str, tuple[list, list]] = {}
    for (name, _, t0, t1, _), s in zip(spans[lo:hi], selfs[lo:hi]):
        total, self_ = acc.setdefault(name, ([], []))
        total.append(t1 - t0)
        self_.append(s)
    return {
        name: {
            "calls": len(total),
            "total_ms": sum(total) / 1e6,
            "self_ms": sum(self_) / 1e6,
            "median_total_ms": statistics.median(total) / 1e6,
            "median_self_ms": statistics.median(self_) / 1e6,
        }
        for name, (total, self_) in sorted(acc.items())
    }


def per_layer(tracer, traced_marks, warm_mark, plain_times, traced_times):
    """Per-layer metrics from the traced passes.  A layer the passes never
    call (Adam, evaluation and the harness in gradcheck) reports its warm-up
    figure, and the report says so."""
    from spans import self_times

    spans = tracer.spans
    selfs = self_times(spans)
    first, last = traced_marks[0][0], traced_marks[-1][1]
    passes = span_table(spans, selfs, first["spans"], last["spans"])
    warm = span_table(spans, selfs, 0, warm_mark["spans"])
    metrics, from_warm_up = {}, []
    for metric, name, stat in LAYER_TIMES:
        row = passes.get(name)
        if row is None:
            row = warm[name]
            from_warm_up.append(metric)
        metrics[metric] = (row[f"median_{stat}_ms"], "ms")
    tape = tracer.tape_entries[first["tape"] : last["tape"]]
    coords = tracer.coords[first["coords"] : last["coords"]]
    cells = range(first["cells"] + 1, last["cells"] + 1)
    peaks = [tracer.log_peak[c] for c in cells if c in tracer.log_peak]
    metrics["autodiff.tape_entries"] = (statistics.fmean(tape) if tape else 0, "count")
    metrics["bus.log_records"] = (max((p[0] for p in peaks), default=0), "count")
    metrics["bus.log_mb"] = (max((p[1] for p in peaks), default=0) / 2**20, "MB")
    metrics["selfcheck.grad_check_coords"] = (statistics.median(coords) if coords else 0, "count")
    overhead = statistics.median(traced_times) - statistics.median(plain_times)
    metrics["trace.overhead_s"] = (overhead, "s")
    tables = {"passes": passes, "warm_up": warm, "from_warm_up": from_warm_up}
    return metrics, tables


def pass_counts(tracer, lo, hi) -> dict:
    """The exact counts of one traced pass, compared across passes."""
    cells = range(lo["cells"] + 1, hi["cells"] + 1)
    return {
        "tape_entries_per_backward": tracer.tape_entries[lo["tape"] : hi["tape"]],
        "log_records_per_cell": [tracer.log_peak.get(c, (0, 0))[0] for c in cells],
        "grad_check_coords": tracer.coords[lo["coords"] : hi["coords"]],
    }


# ---------------------------------------------------------------------------
# Environment


def environment(seed: int) -> dict:
    import numpy as np

    sha = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, AttributeError):
        blas = None
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
        "threads": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


# ---------------------------------------------------------------------------
# Main


def run(args) -> int:
    import_package()
    from spans import StepClock, Tracer

    OUT.mkdir(exist_ok=True)
    workload, tiny, traced = args.workload, args.tiny, args.trace == 1
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    config = experiment(workload, args.seed, tiny)
    probes = 0 if traced else 1 if tiny else SETUP_PROBES
    setup_times = []

    tracer = Tracer() if traced else None
    if traced:
        with tracer.patches():
            set_up(config)
            warm_up(workload, config)
        warm_mark = tracer.mark()
    else:
        set_up(config)
        warm_up(workload, config)

    clock = StepClock()
    checks = Checks()
    plain_times, traced_times, traced_marks, outcomes = [], [], [], []
    start = time.perf_counter()
    # A traced run alternates plain and traced passes, at least one plain and
    # two traced: the plain ones give the overhead, the two traced ones the
    # exact-count comparison.
    min_passes = 3 if traced else 1
    i = 0
    while True:
        # Set-up probes run between passes, two at a time, so that they
        # sample the machine across the run rather than in one moment.
        while len(setup_times) < min(probes, 2 * (i + 1)):
            setup_times.append(measure_setup(workload, args.seed, tiny))
        is_traced = traced and i % 3 != 0
        recorder = tracer if is_traced else clock
        mark = tracer.mark() if is_traced else None
        with recorder.patches():
            t0 = time.perf_counter()
            out = run_pass(workload, config, tiny)
            dt = time.perf_counter() - t0
        if is_traced:
            traced_times.append(dt)
            traced_marks.append((mark, tracer.mark()))
        else:
            plain_times.append(dt)
        check_pass(workload, out, tiny, checks)
        outcomes.append(outcome(workload, out))
        if i == 0:
            acc, acc_by_shot = accuracy(workload, out)
        i += 1
        elapsed = time.perf_counter() - start
        typical = statistics.median(plain_times + traced_times)
        if i >= min_passes and elapsed + typical > args.seconds:
            break

    # Read before the statistics below allocate their sample lists.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setup_times) < probes:
        setup_times.append(measure_setup(workload, args.seed, tiny))
    checks.add(
        f"{workload} every pass gives identical outputs",
        all(o == outcomes[0] for o in outcomes),
        f"{len(outcomes)} passes",
    )
    report = {"env": env, "workload": workload, "trace": args.trace, "tiny": tiny,
              "passes": {"plain_s": plain_times, "traced_s": traced_times}}
    if traced:
        counts = [pass_counts(tracer, lo, hi) for lo, hi in traced_marks]
        checks.add(
            f"{workload} exact counts repeat across traced passes",
            all(c == counts[0] for c in counts),
            f"{len(counts)} traced passes",
        )
        metrics, tables = per_layer(tracer, traced_marks, warm_mark, plain_times, traced_times)
        report.update(counts=counts[0], spans=tables)
    else:
        metrics, samples = end_to_end(workload, plain_times, clock, setup_times, peak_rss_mb)
        report.update(samples=samples, setup_s=setup_times)

    attempted, failed = len(checks.results), checks.failed
    extra = {"fail_ratio": (failed / attempted, "ratio")}
    extra.update((key, (value, "fraction")) for key, value in acc.items())
    print(f"workload {workload} seed {args.seed} trace {args.trace} "
          f"passes {len(plain_times)} plain + {len(traced_times)} traced")
    for name, (value, unit) in list(metrics.items()) + list(extra.items()):
        print(f"  {name:30s} {value:14.6f} {unit}")
    if acc_by_shot:
        print("  ood_acc by shot: " + json.dumps(acc_by_shot))
    if not traced:
        st, ev = samples["steps"], samples["loss_evals"]
        print(f"  tails, not gated: step p98 {st['p98']:.6f} ms of {st['n']} steps, "
              f"loss_eval p99 {ev['p99']:.6f} ms of {ev['n']} evaluations")
    else:
        for name, values in counts[0].items():
            tally = {v: values.count(v) for v in sorted(set(values))}
            print(f"  exact counts, {name} (value: times, one traced pass): {tally}")
        if tables["from_warm_up"]:
            print("  from the warm-up cell (not called by the passes): "
                  + ", ".join(tables["from_warm_up"]))
    for name, ok, detail in checks.results:
        if not ok:
            print(f"  CHECK FAILED {name}: {detail}")
    print(f"  checks {attempted - failed}/{attempted} passed")

    report.update(metrics=metrics, extra=extra, ood_acc_by_shot=acc_by_shot,
                  checks=[{"name": n, "ok": ok, "detail": d} for n, ok, d in checks.results])
    suffix = f"{workload}-trace{args.trace}{'-tiny' if tiny else ''}"
    (OUT / f"report-{suffix}.json").write_text(json.dumps(report, indent=1, default=str) + "\n")
    if traced:
        names = sorted({s[0] for s in tracer.spans})
        index = {n: k for k, n in enumerate(names)}
        with gzip.open(OUT / f"spans-{suffix}.json.gz", "wt") as fh:
            json.dump({"fields": ["name", "parent", "start_ns", "end_ns", "cell"],
                       "names": names,
                       "spans": [[index[n], p, t0, t1, c] for n, p, t0, t1, c in tracer.spans]},
                      fh)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help=f"smoke size: {TINY_EPOCHS} epochs, 2 grad-check batches, "
                             "accuracy thresholds not applied")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed, args.tiny)
            return 0
        return run(args)
    except BenchError as exc:
        print(f"run_bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
