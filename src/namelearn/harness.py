"""Experiment runner: few-shot sweeps, zero-shot runs, ablations, metrics.

Grid cells are pure functions of (config, shot, seed, lr) and may run in
parallel processes; results aggregate in grid order so output files are
byte-reproducible apart from wall time.  Failed cells (training divergence)
are first-class rows, never aborting the grid.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field, fields, replace
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from .autodiff import DomainError
from .coordinator import LR_BAND, LossBreakdown, NanGradientError
from .session import TrainingDivergedError, TrainingSession
from .settings import ConfigError, SessionSettings
from .world import World, WorldConfig, build_world

ABLATION_FLAGS = (
    "disable_image_agent_robust",
    "disable_text_context",
    "disable_name_agent",
    "disable_coordinator_dynamics",
    "disable_context_exchange",
    "simple_concat_fusion",
    "disable_difficulty",
    "disable_dynamic_balancing",
)

# Fixed streams: the test split is a dataset-level artifact shared by every
# cell; training shots vary with the cell seed.
TEST_STREAM = 0xE7A1
SHOT_STREAM = 7919

RECOVERABLE = (TrainingDivergedError, NanGradientError, DomainError, FloatingPointError)

RESULTS_COLUMNS = (
    "shot,seed,lr,split,sc_acc,ood_acc,harm_acc,"
    "l_con,l_cls,w_con,w_cls,tau,status,wall_time"
)


class AblationError(ValueError):
    """Ablation preconditions violated (e.g. several flags at once)."""


@dataclass(frozen=True)
class ExperimentConfig(SessionSettings):
    """The session settings plus the grid and the world they run on."""

    world: WorldConfig = WorldConfig()
    shots: tuple[int, ...] = (0, 1, 2, 4, 8, 16)
    seeds: tuple[int, ...] = (0, 1, 2)
    lrs: tuple[float, ...] = (1e-5, 1e-4, 1e-3)
    epochs: int = 200
    n_test_per_class: int = 200

    def __post_init__(self):
        super().__post_init__()
        for name in ("shots", "seeds", "lrs"):
            if len(getattr(self, name)) == 0:
                raise ConfigError(f"{name} must be nonempty")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.n_test_per_class < 1:
            raise ConfigError(f"n_test_per_class must be >= 1, got {self.n_test_per_class}")
        if any(s < 0 for s in self.shots):
            raise ConfigError("shots must be nonnegative")
        if list(self.shots) != sorted(self.shots):
            raise ConfigError("shots must be ascending")
        if any(s < 0 for s in self.seeds):
            raise ConfigError("seeds must be nonnegative")
        for lr in self.lrs:
            if not LR_BAND[0] <= lr <= LR_BAND[1]:
                raise ConfigError(f"lr {lr} outside [{LR_BAND[0]:g}, {LR_BAND[1]:g}]")

    def active_ablations(self) -> list[str]:
        return [name for name in ABLATION_FLAGS if getattr(self, name)]

    def settings(self) -> SessionSettings:
        return SessionSettings(**{f.name: getattr(self, f.name) for f in fields(SessionSettings)})


def config_hash(config: ExperimentConfig) -> str:
    blob = json.dumps(asdict(config), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class CellResult:
    shot: int
    seed: int
    lr: float
    split: str
    sc_acc: float | None = None
    ood_acc: float | None = None
    harm_acc: float | None = None
    breakdown: LossBreakdown | None = None
    wall_time: float = 0.0
    status: str = "ok"
    error: str = ""
    mask_ok: bool = True

    def key(self) -> tuple:
        return (self.shot, self.seed, self.lr, self.split)


@dataclass
class RunResult:
    kind: str
    config_hash: str
    cells: list[CellResult] = field(default_factory=list)

    def ok_cells(self) -> list[CellResult]:
        return [c for c in self.cells if c.status == "ok"]

    def failed_cells(self) -> list[CellResult]:
        return [c for c in self.cells if c.status != "ok"]

    def mean_ood(self, shot: int) -> float:
        values = [c.ood_acc for c in self.ok_cells() if c.shot == shot and c.ood_acc is not None]
        return float(np.mean(values)) if values else float("nan")

    def mean_sc(self, shot: int) -> float:
        values = [c.sc_acc for c in self.ok_cells() if c.shot == shot and c.sc_acc is not None]
        return float(np.mean(values)) if values else float("nan")


def harmonic_accuracy(sc: float, ood: float) -> float:
    if sc + ood == 0.0:
        return 0.0
    return 2.0 * sc * ood / (sc + ood)


def _test_split(world: World, ids: list[int], per_class: int):
    return world.sample_split(ids, per_class, seed=TEST_STREAM)


def _train_and_score(
    config: ExperimentConfig, world: World, shot: int, seed: int, lr: float, split: str, score
) -> CellResult:
    """Build a session, train it on ``shot`` images per held-out class (0:
    untrained), then ``score(session)`` gives the (seen, held-out) accuracies.
    Never raises on training divergence; the failure is recorded on the cell."""
    start = time.perf_counter()
    session = TrainingSession(world, config.settings(), seed=seed)
    cell = CellResult(shot=shot, seed=seed, lr=lr, split=split)
    try:
        if shot > 0:
            shots = {
                cid: world.sample_images(cid, shot, seed=SHOT_STREAM * seed + shot)
                for cid in world.ood_ids
            }
            session.train(shots, epochs=config.epochs, lr=lr)
        cell.sc_acc, cell.ood_acc = score(session)
        if cell.sc_acc is not None and cell.ood_acc is not None:
            cell.harm_acc = harmonic_accuracy(cell.sc_acc, cell.ood_acc)
        cell.breakdown = (
            session.step_records[-1].breakdown if session.step_records else None
        )
        ood_tokens = {world.concept(cid).name_token for cid in world.ood_ids}
        cell.mask_ok = not (session.training_token_audit() & ood_tokens)
    except RECOVERABLE as exc:
        cell.status = "failed"
        cell.error = f"{type(exc).__name__}: {exc}"
    cell.wall_time = time.perf_counter() - start
    return cell


def run_cell(config: ExperimentConfig, shot: int, seed: int, lr: float) -> CellResult:
    """One grid cell: build, optionally train, evaluate in the joint label
    space of seen and held-out concepts."""
    world = build_world(config.world)
    label_ids = world.seen_ids + world.ood_ids

    def score(session: TrainingSession) -> tuple[float | None, float | None]:
        images, labels = _test_split(world, label_ids, config.n_test_per_class)
        scores = session.evaluate(images, labels, label_ids)
        return scores.get("seen"), scores.get("ood")

    return _train_and_score(config, world, shot, seed, lr, "joint", score)


def _map(fn, tasks, jobs: int) -> list:
    """``fn(*task)`` for every task, in task order; at most ``jobs`` worker
    processes, and never more than there are tasks."""
    jobs = min(jobs, len(tasks))
    if jobs <= 1:
        return [fn(*t) for t in tasks]
    with get_context("fork").Pool(jobs) as pool:
        return pool.starmap(fn, tasks)


def run_few_shot(config: ExperimentConfig, jobs: int = 1) -> RunResult:
    """The shot x seed x lr grid on one world; 0-shot cells skip training."""
    tasks = [
        (config, shot, seed, lr)
        for shot in config.shots
        for seed in config.seeds
        for lr in config.lrs
    ]
    result = RunResult("few_shot", config_hash(config))
    result.cells = _map(run_cell, tasks, jobs)
    return result


def _zero_shot_split(config: ExperimentConfig, seed: int, lr: float) -> list[CellResult]:
    """One train-test split: the world is rebuilt with the split seed, the
    frozen baseline is the 0-shot row, the adapted model the 16-shot row."""
    world = build_world(replace(config.world, seed=seed))
    per_class = config.n_test_per_class
    seen_x, seen_y = _test_split(world, world.seen_ids, per_class)
    ood_x, ood_y = _test_split(world, world.ood_ids, per_class)

    def score(session: TrainingSession) -> tuple[float, float]:
        sc = session.evaluate(seen_x, seen_y, world.seen_ids)["seen"]
        ood = session.evaluate(ood_x, ood_y, world.ood_ids)["ood"]
        return sc, ood

    return [
        _train_and_score(config, world, 0, seed, 0.0, "per_split", score),
        _train_and_score(config, world, 16, seed, lr, "per_split", score),
    ]


def run_zero_shot(config: ExperimentConfig, jobs: int = 1) -> RunResult:
    """Name learning with masked labels across world-seed splits.

    Each configured seed doubles as a fresh world (the split), trained on 16
    masked shots per held-out class and evaluated on held-out images per
    split; the frozen model is the paired baseline arm.
    """
    lr = config.lrs[-1]
    tasks = [(config, seed, lr) for seed in config.seeds]
    result = RunResult("zero_shot", config_hash(config))
    for cells in _map(_zero_shot_split, tasks, jobs):
        result.cells.extend(cells)
    return result


@dataclass
class AblationResult:
    flag: str
    full: RunResult
    ablated: RunResult

    def delta_by_shot(self) -> dict[int, float]:
        """Mean paired OOD-accuracy drop (full minus ablated) per shot."""
        shots = sorted({c.shot for c in self.full.cells})
        return {s: self.full.mean_ood(s) - self.ablated.mean_ood(s) for s in shots}


def run_ablation(config: ExperimentConfig, jobs: int = 1) -> AblationResult:
    """Full model vs one ablated arm on identical seeds and splits."""
    active = config.active_ablations()
    if len(active) > 1:
        raise AblationError(f"one ablation flag per arm, got {active}")
    flag = active[0] if active else "none"
    full_config = replace(config, **{name: False for name in ABLATION_FLAGS})
    full = run_few_shot(full_config, jobs=jobs)
    ablated = run_few_shot(config, jobs=jobs) if active else full
    return AblationResult(flag, full, ablated)


def run_ablation_suite(
    config: ExperimentConfig, flags: tuple[str, ...] = ABLATION_FLAGS, jobs: int = 1
) -> dict[str, AblationResult]:
    """Every single-flag arm against one shared full-model run."""
    for flag in flags:
        if flag not in ABLATION_FLAGS:
            raise AblationError(f"unknown ablation flag {flag!r}")
    if config.active_ablations():
        raise AblationError("suite config must have no ablation flags set")
    full = run_few_shot(config, jobs=jobs)
    out = {}
    for flag in flags:
        ablated = run_few_shot(replace(config, **{flag: True}), jobs=jobs)
        out[flag] = AblationResult(flag, full, ablated)
    return out


# ---------------------------------------------------------------------------
# Metrics files

def _fmt(value, spec: str) -> str:
    return "" if value is None else format(value, spec)


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def emit_metrics(result: RunResult, out_dir) -> dict[str, Path]:
    """Write results.csv, summary.json and plotdata.csv under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    lines = [RESULTS_COLUMNS]
    for cell in sorted(result.cells, key=CellResult.key):
        b = cell.breakdown
        lines.append(
            ",".join(
                [
                    str(cell.shot),
                    str(cell.seed),
                    format(cell.lr, ".9g"),
                    cell.split,
                    _fmt(cell.sc_acc, ".6f"),
                    _fmt(cell.ood_acc, ".6f"),
                    _fmt(cell.harm_acc, ".6f"),
                    _fmt(b.l_con if b else None, ".6g"),
                    _fmt(b.l_cls if b else None, ".6g"),
                    _fmt(b.w_con if b else None, ".6g"),
                    _fmt(b.w_cls if b else None, ".6g"),
                    _fmt(b.tau if b else None, ".6g"),
                    cell.status,
                    format(cell.wall_time, ".3f"),
                ]
            )
        )
    results_path = out / "results.csv"
    _atomic_write(results_path, "\n".join(lines) + "\n")

    shots = sorted({c.shot for c in result.cells})
    per_shot = {}
    plot_lines = ["shot,ood_mean,ood_std,sc_mean,sc_std,harm_mean,harm_std"]
    for shot in shots:
        cells = [c for c in result.ok_cells() if c.shot == shot]
        stats = {}
        for name in ("ood_acc", "sc_acc", "harm_acc"):
            values = [getattr(c, name) for c in cells if getattr(c, name) is not None]
            short = name.split("_")[0]
            stats[f"{short}_mean"] = float(np.mean(values)) if values else None
            stats[f"{short}_std"] = float(np.std(values)) if values else None
        stats["n_ok"] = len(cells)
        per_shot[str(shot)] = stats
        plot_lines.append(
            ",".join(
                [str(shot)]
                + [
                    _fmt(stats[k], ".6f")
                    for k in ("ood_mean", "ood_std", "sc_mean", "sc_std", "harm_mean", "harm_std")
                ]
            )
        )
    summary = {
        "kind": result.kind,
        "config_hash": result.config_hash,
        "per_shot": per_shot,
        "n_cells": len(result.cells),
        "n_failed": len(result.failed_cells()),
        "failed_cells": [
            {"shot": c.shot, "seed": c.seed, "lr": c.lr, "error": c.error}
            for c in result.failed_cells()
        ],
    }
    summary_path = out / "summary.json"
    _atomic_write(summary_path, json.dumps(summary, indent=2, sort_keys=True) + "\n")
    plot_path = out / "plotdata.csv"
    _atomic_write(plot_path, "\n".join(plot_lines) + "\n")
    return {"results": results_path, "summary": summary_path, "plotdata": plot_path}


# ---------------------------------------------------------------------------
# Config file format: 'key = value' lines, '#' comments, 'world.' prefix for
# world fields, comma-separated lists for shots/seeds/lrs.

def parse_config_file(path) -> ExperimentConfig:
    mapping: dict[str, str] = {}
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        mapping[key] = value
    return config_from_mapping(mapping)


def config_from_mapping(mapping: dict[str, str]) -> ExperimentConfig:
    world_fields = {f.name: f.type for f in fields(WorldConfig)}
    exp_fields = {f.name: f for f in fields(ExperimentConfig)}
    world_kwargs = {}
    exp_kwargs = {}
    defaults = ExperimentConfig()
    for key, value in mapping.items():
        if key.startswith("world."):
            name = key[len("world.") :]
            if name not in world_fields:
                raise ConfigError(f"unknown world field {name!r}")
            current = getattr(WorldConfig(), name)
            world_kwargs[name] = _parse_scalar(value, current)
        elif key in ("shots", "seeds"):
            exp_kwargs[key] = tuple(int(v) for v in value.split(",") if v.strip())
        elif key == "lrs":
            exp_kwargs[key] = tuple(float(v) for v in value.split(",") if v.strip())
        elif key in exp_fields and key != "world":
            exp_kwargs[key] = _parse_scalar(value, getattr(defaults, key))
        else:
            raise ConfigError(f"unknown config key {key!r}")
    if world_kwargs:
        exp_kwargs["world"] = replace(WorldConfig(), **world_kwargs)
    return replace(defaults, **exp_kwargs)


def _parse_scalar(value: str, template):
    if isinstance(template, bool):
        lowered = value.lower()
        if lowered not in ("true", "false"):
            raise ConfigError(f"expected true/false, got {value!r}")
        return lowered == "true"
    if isinstance(template, int):
        return int(value)
    return float(value)
