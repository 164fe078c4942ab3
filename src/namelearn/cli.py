"""Command-line experiment runner.

Subcommands: ``few-shot``, ``zero-shot``, ``ablate``, ``world build`` and
``selftest``.  Exit codes: 0 full success, 2 partial failures (some grid
cells failed but the run completed), 1 hard errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .harness import (
    AblationError,
    ConfigError,
    ExperimentConfig,
    _atomic_write,
    emit_metrics,
    parse_config_file,
    run_ablation,
    run_few_shot,
    run_zero_shot,
)
from .selfcheck import run_selftest
from .world import WorldBuildError, build_world

HARD_ERRORS = (ConfigError, AblationError, WorldBuildError, OSError, ValueError)


def _add_paths(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="key-value config file")
    parser.add_argument("--out", type=Path, default=Path("results"), help="output directory")


def _add_common(parser: argparse.ArgumentParser) -> None:
    _add_paths(parser)
    parser.add_argument("--seed", type=str, help="comma-separated seed list override")
    parser.add_argument("--jobs", type=int, default=1, help="parallel grid workers (>= 1)")


def _load_config(args) -> ExperimentConfig:
    if args.jobs < 1:
        raise ConfigError(f"--jobs: must be at least 1, got {args.jobs}")
    config = parse_config_file(args.config) if args.config else ExperimentConfig()
    if args.seed:
        try:
            seeds = tuple(int(s) for s in args.seed.split(",") if s.strip())
        except ValueError:
            raise ConfigError(
                f"--seed: expected an integer (comma-separated), got {args.seed!r}"
            ) from None
        config = replace(config, seeds=seeds)
    return config


def _mean_acc(value: float | None) -> str:
    """A shot's mean accuracy, ``n/a`` where it has no ok cell (``summary.json``
    writes ``null`` there)."""
    return "n/a" if value is None else f"{value:.4f}"


def _report(result, out_dir) -> int:
    paths = emit_metrics(result, out_dir)
    print(f"wrote {paths['results']}")
    for shot in sorted({c.shot for c in result.cells}):
        ood, sc = _mean_acc(result.mean_ood(shot)), _mean_acc(result.mean_sc(shot))
        print(f"  shot {shot:>3}: ood_acc={ood} sc_acc={sc}")
    return _exit_code(len(result.failed_cells()))


def _exit_code(n_failed: int) -> int:
    """0, or 2 with the failed-cell count on stderr where some cells failed."""
    if n_failed:
        print(f"  {n_failed} cell(s) failed", file=sys.stderr)
        return 2
    return 0


def cmd_few_shot(args) -> int:
    return _report(run_few_shot(_load_config(args), jobs=args.jobs), args.out)


def cmd_zero_shot(args) -> int:
    return _report(run_zero_shot(_load_config(args), jobs=args.jobs), args.out)


def cmd_ablate(args) -> int:
    config, flag, out = _load_config(args), args.ablation, Path(args.out)
    if getattr(config, flag, None) is True:  # the full arm clears the chosen flag
        config = replace(config, **{flag: False})
    (result,) = run_ablation(config, (flag,), args.jobs).values()
    emit_metrics(result.full, out / "full")
    emit_metrics(result.ablated, out / "ablated")
    drops = result.delta_by_shot()  # json writes the int shots as string keys
    delta_path = out / "deltas.json"
    _atomic_write(delta_path, json.dumps({"flag": flag, "ood_drop_by_shot": drops}, indent=2))
    print(f"wrote {delta_path}")
    for shot, drop in drops.items():
        print(f"  shot {shot:>3}: ood drop {'n/a' if drop is None else format(drop, '+.4f')}")
    return _exit_code(len(result.full.failed_cells()) + len(result.ablated.failed_cells()))


def cmd_world_build(args) -> int:
    config = parse_config_file(args.config) if args.config else ExperimentConfig()
    world = build_world(config.world)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "world_report.json"
    report_path.write_text(json.dumps(world.report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {report_path}")
    print(f"  seen-prompt cosine >= {world.report['sc_min_prompt_cosine']:.4f}")
    print(f"  blind-token spread = {world.report['ood_blindness_spread']:.3g}")
    return 0


def cmd_selftest(args) -> int:
    return 0 if run_selftest() else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="namelearn", description="few-shot name-embedding learning experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("few-shot", help="shot x seed x lr sweep on one world")
    _add_common(p)
    p.set_defaults(func=cmd_few_shot)

    p = sub.add_parser("zero-shot", help="masked-name runs across world-seed splits")
    _add_common(p)
    p.set_defaults(func=cmd_zero_shot)

    p = sub.add_parser("ablate", help="paired full-vs-ablated comparison")
    _add_common(p)
    p.add_argument("--ablation", required=True, help="ablation flag name")
    p.set_defaults(func=cmd_ablate)

    world_parser = sub.add_parser("world", help="world utilities")
    world_sub = world_parser.add_subparsers(dest="world_command", required=True)
    p = world_sub.add_parser(
        "build", help="build a world, check its invariants and write world_report.json"
    )
    _add_paths(p)
    p.set_defaults(func=cmd_world_build)

    p = sub.add_parser("selftest", help="gradient-check and loss-oracle suites")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except HARD_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
