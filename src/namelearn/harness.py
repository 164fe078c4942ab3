"""Experiment runner: few-shot sweeps, zero-shot runs, ablations, metrics.

Grid cells are pure functions of (config, shot, seed, lr) and may run in
parallel processes; results aggregate in grid order so output files are
byte-reproducible apart from wall time.  A few-shot run is one grid of arms,
configs that differ only in their ablation flags: a sweep is one arm, an
ablation the full model and each ablated arm.  The grid builds its world and
test split once, shares them with every cell of every arm, and maps all
cells in one call, so at most one worker pool.  Failed cells (training
divergence) are first-class rows, never aborting the grid.  The ablation
arms, ``ABLATION_FLAGS``, are read off the fields of ``SessionSettings``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .autodiff import DomainError
from .coordinator import LR_BAND, LossBreakdown, NanGradientError
from .session import TrainingDivergedError, TrainingSession
from .settings import ConfigError, SessionSettings
from .world import World, WorldBuildError, WorldConfig, build_world

# The paper's eight ablation arms: every session setting is one.
ABLATION_FLAGS = tuple(f.name for f in fields(SessionSettings))

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
    """Ablation preconditions violated (an unknown flag, or a full arm that
    sets one)."""


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
        for name in ("shots", "seeds", "lrs"):
            values = getattr(self, name)
            if len(values) == 0:
                raise ConfigError(f"{name} must be nonempty")
            if len(set(values)) < len(values):
                raise ConfigError(f"{name} must not repeat a value")
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

    def shot_stats(self, shot: int, name: str) -> tuple[float | None, float | None]:
        """Mean and std of the cell field ``name`` (``ood_acc``, ``sc_acc`` or
        ``harm_acc``) over the shot's ok cells that have one; ``(None, None)``
        where none has."""
        values = [getattr(c, name) for c in self.ok_cells() if c.shot == shot]
        values = [v for v in values if v is not None]
        if not values:
            return None, None
        return float(np.mean(values)), float(np.std(values))

    def mean_ood(self, shot: int) -> float | None:
        return self.shot_stats(shot, "ood_acc")[0]

    def mean_sc(self, shot: int) -> float | None:
        return self.shot_stats(shot, "sc_acc")[0]


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
    history = []
    try:
        if shot > 0:
            shots = {
                cid: world.sample_images(cid, shot, seed=SHOT_STREAM * seed + shot)
                for cid in world.ood_ids
            }
            history = session.train(shots, epochs=config.epochs, lr=lr)
        cell.sc_acc, cell.ood_acc = score(session)
        if cell.sc_acc is not None and cell.ood_acc is not None:
            cell.harm_acc = harmonic_accuracy(cell.sc_acc, cell.ood_acc)
        if history:
            cell.breakdown = history[-1]
            ood_tokens = {world.concept(cid).name_token for cid in world.ood_ids}
            cell.mask_ok = not (session.training_token_audit() & ood_tokens)
    except RECOVERABLE as exc:
        cell.status = "failed"
        cell.error = f"{type(exc).__name__}: {exc}"
    cell.wall_time = time.perf_counter() - start
    return cell


def run_cell(
    config: ExperimentConfig,
    shot: int,
    seed: int,
    lr: float,
    world: World | None = None,
    test: tuple[np.ndarray, np.ndarray] | None = None,
) -> CellResult:
    """One grid cell: build, optionally train, evaluate in the joint label
    space of seen and held-out concepts.  A grid (``_run_arms``) passes the
    world and its joint test split, shared by every cell; alone, the cell
    builds both."""
    if world is None:
        world = build_world(config.world)
    label_ids = world.seen_ids + world.ood_ids
    if test is None:
        test = _test_split(world, label_ids, config.n_test_per_class)

    def score(session: TrainingSession) -> tuple[float | None, float | None]:
        scores = session.evaluate(*test, label_ids)
        return scores.get("seen"), scores.get("ood")

    return _train_and_score(config, world, shot, seed, lr, "joint", score)


# What forked ``_map`` workers call: (fn, shared arguments).  Set only while
# ``_map`` runs, so the workers inherit it and nothing is pickled per task.
_FORKED: tuple | None = None


def _call_forked(*task):
    fn, shared = _FORKED
    return fn(*task, *shared)


def _map(fn, tasks, jobs: int, shared: tuple = ()) -> list:
    """``fn(*task, *shared)`` for every task, in task order; at most ``jobs``
    worker processes, and never more than there are tasks.  Workers are
    forked, so they inherit ``shared`` rather than receive it per task, and
    ``multiprocessing`` is imported only then.  ``ValueError`` unless
    ``jobs`` is at least 1."""
    global _FORKED
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    jobs = min(jobs, len(tasks))
    if jobs <= 1:
        return [fn(*t, *shared) for t in tasks]
    from multiprocessing import get_context
    _FORKED = (fn, shared)
    try:
        with get_context("fork").Pool(jobs) as pool:
            return pool.starmap(_call_forked, tasks)
    finally:
        _FORKED = None


def _run_arms(arms: list[ExperimentConfig], jobs: int) -> list[RunResult]:
    """One ``RunResult`` per arm, each over the shot x seed x lr grid; 0-shot
    cells skip training.  The arms differ only in their ablation flags, so
    the world and its joint test split are built once and shared by every
    cell (the world's arrays are read-only), and every cell goes through one
    ``_map`` call; nothing outlives the call."""
    base = arms[0]
    world = build_world(base.world)
    test = _test_split(world, world.seen_ids + world.ood_ids, base.n_test_per_class)
    grid = [(shot, seed, lr) for shot in base.shots for seed in base.seeds for lr in base.lrs]
    tasks = [(arm, *point) for arm in arms for point in grid]
    cells = _map(run_cell, tasks, jobs, (world, test))
    n = len(grid)
    return [
        RunResult("few_shot", config_hash(arm), cells[i * n : (i + 1) * n])
        for i, arm in enumerate(arms)
    ]


def run_few_shot(config: ExperimentConfig, jobs: int = 1) -> RunResult:
    """The shot x seed x lr grid on one world: a grid of one arm."""
    return _run_arms([config], jobs)[0]


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

    def delta_by_shot(self) -> dict[int, float | None]:
        """Mean paired OOD-accuracy drop (full minus ablated) per shot;
        ``None`` where either arm has no ok cell with an OOD accuracy."""
        drops = {}
        for shot in sorted({c.shot for c in self.full.cells}):
            full, ablated = self.full.mean_ood(shot), self.ablated.mean_ood(shot)
            drops[shot] = None if full is None or ablated is None else full - ablated
        return drops


def run_ablation(
    config: ExperimentConfig, flags: tuple[str, ...] = ABLATION_FLAGS, jobs: int = 1
) -> dict[str, AblationResult]:
    """Each flag's single-flag arm against one full-model arm, ``config``,
    which sets no flag; all arms run in one grid on identical seeds and
    splits.  ``AblationError``, before any world is built, for an unknown or
    repeated flag."""
    for i, flag in enumerate(flags):
        if flag not in ABLATION_FLAGS:
            raise AblationError(
                f"unknown ablation {flag!r}; choose from {', '.join(ABLATION_FLAGS)}"
            )
        if flag in flags[:i]:
            raise AblationError(f"ablation {flag!r} is listed twice")
    active = [flag for flag in ABLATION_FLAGS if getattr(config, flag)]
    if active:
        raise AblationError(f"the full arm must set no ablation flag, got {active}")
    arms = [config] + [replace(config, **{flag: True}) for flag in flags]
    full, *ablated = _run_arms(arms, jobs)
    return {flag: AblationResult(flag, full, arm) for flag, arm in zip(flags, ablated)}


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
        stats = {}
        for name in ("ood_acc", "sc_acc", "harm_acc"):
            short = name.split("_")[0]
            stats[f"{short}_mean"], stats[f"{short}_std"] = result.shot_stats(shot, name)
        stats["n_ok"] = sum(c.shot == shot for c in result.ok_cells())
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
    """An ``ExperimentConfig`` from a config file; a line that does not parse
    or repeats a key raises ``ConfigError`` naming ``path:line`` and its key,
    and a value out of range (the world's included) one naming ``path``."""
    entries: dict[str, object] = {}
    set_on: dict[str, int] = {}  # key -> the line that set it
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in set_on:
            raise ConfigError(f"{path}:{line_no}: {key}: already set on line {set_on[key]}")
        set_on[key] = line_no
        try:
            entries[key] = _parse_entry(key, value)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{line_no}: {exc}") from None
    try:
        return _config_from_entries(entries)
    except (ConfigError, WorldBuildError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _parse_entry(key: str, value: str):
    """One value, typed like the field its key sets; ``ConfigError`` names the
    key when the key is unknown or the value does not parse."""
    many = key in ("shots", "seeds", "lrs")
    if key.startswith("world."):
        name = key[len("world.") :]
        if name not in {f.name for f in fields(WorldConfig)}:
            raise ConfigError(f"unknown world field {name!r}")
        template = getattr(WorldConfig(), name)
    elif many:
        template = getattr(ExperimentConfig(), key)[0]
    elif key in {f.name for f in fields(ExperimentConfig)} and key != "world":
        template = getattr(ExperimentConfig(), key)
    else:
        raise ConfigError(f"unknown config key {key!r}")
    try:
        if many:
            return tuple(_parse_scalar(v.strip(), template) for v in value.split(",") if v.strip())
        return _parse_scalar(value, template)
    except ValueError:
        kind = {bool: "true or false", int: "an integer"}.get(type(template), "a number")
        kind += " (comma-separated)" if many else ""
        raise ConfigError(f"{key}: expected {kind}, got {value!r}") from None


def _config_from_entries(entries: dict[str, object]) -> ExperimentConfig:
    world = {key[len("world.") :]: v for key, v in entries.items() if key.startswith("world.")}
    exp = {key: v for key, v in entries.items() if not key.startswith("world.")}
    if world:
        exp["world"] = replace(WorldConfig(), **world)
        exp["world"].validate()
    return replace(ExperimentConfig(), **exp)


def _parse_scalar(value: str, template):
    if isinstance(template, bool):
        lowered = value.lower()
        if lowered not in ("true", "false"):
            raise ValueError(value)
        return lowered == "true"
    if isinstance(template, int):
        return int(value)
    return float(value)
