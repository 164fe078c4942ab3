"""The program's outputs, pinned: a change that moves any of them fails here.

``pinned_outputs.txt`` holds one section per output, each a list of rows:

* ``sweep`` and ``ablation``: the ``results.csv`` rows of criterion 5's sweep
  and of criterion 7's ``run_ablation`` over every flag (one block per arm),
  without the ``wall_time`` column, and each run's ``config_hash``;
* ``hard_world``: the same rows for the hard world at 0/1/4/16 shots (seed 0,
  lr 1e-3);
* ``parameters``: every learnable of each arm after a short run on both
  worlds, as a digest of its values at 10 significant digits, so that a
  last-ulp change from another BLAS kernel passes and a real change does not;
* ``round_log``: a default round's ``serialize_log`` lines;
* ``criterion_1``: the gradient check's worst error.

A mismatch prints a diff of the section's rows.  A deliberate output change
rewrites the section (``python tests/test_pinned_outputs.py`` prints the
whole file) and quotes the old and new rows in CHANGES.md.
"""

import difflib
import hashlib
import platform
from pathlib import Path

import numpy as np
import pytest

from namelearn.bus import run_round
from namelearn.harness import (
    ABLATION_FLAGS,
    ExperimentConfig,
    emit_metrics,
    parse_config_file,
    run_few_shot,
)
from namelearn.session import SessionSettings, TrainingSession
from namelearn.world import WorldConfig, build_world

PIN_FILE = Path(__file__).with_name("pinned_outputs.txt")
HARD_WORLD = WorldConfig(
    embed_dim=16, image_dim=32, n_seen=20, n_ood=20, noise_sigma=0.1, min_separation=0.2
)


def results_rows(result, out_dir, tag=""):
    """``results.csv`` without ``wall_time``, then the run's ``config_hash``."""
    paths = emit_metrics(result, out_dir)
    rows = [tag + line.rsplit(",", 1)[0] for line in paths["results"].read_text().splitlines()]
    return rows + [f"{tag}config_hash={result.config_hash}"]


def parameter_rows():
    rows = []
    for world_name, config in (("default", WorldConfig()), ("hard", HARD_WORLD)):
        world = build_world(config)
        shots = {cid: world.sample_images(cid, 2, seed=5) for cid in world.ood_ids}
        for arm in ("full",) + ABLATION_FLAGS:
            flags = {} if arm == "full" else {arm: True}
            session = TrainingSession(world, SessionSettings(**flags), seed=0)
            session.train(shots, epochs=6, lr=1e-2)
            for p in session.trainable_parameters():
                text = " ".join(format(v, ".9e") for v in p.data.flat)
                digest = hashlib.sha256(text.encode()).hexdigest()[:16]
                rows.append(f"{world_name},{arm},{p.name},{p.data.shape},{digest}")
    return rows


def round_log_rows(tmp_path):
    world = build_world(WorldConfig())
    session = TrainingSession(world, SessionSettings(), seed=0)
    shots = {cid: world.sample_images(cid, 16, seed=11) for cid in world.ood_ids}
    run_round(session.bus, session.build_batch(session.prepare_shots(shots), 0))
    path = tmp_path / "log.jsonl"
    session.bus.serialize_log(path)
    return path.read_text().splitlines()


def current_sections(sweep, ablation_suite, criterion_1, tmp_path):
    """Every section's rows as the program computes them now."""
    full = next(iter(ablation_suite.values())).full
    ablation = results_rows(full, tmp_path / "full", "full,")
    for flag, arm in ablation_suite.items():
        ablation += results_rows(arm.ablated, tmp_path / flag, f"{flag},")
    hard = ExperimentConfig(world=HARD_WORLD, shots=(0, 1, 4, 16), seeds=(0,), lrs=(1e-3,))
    return {
        "sweep": results_rows(sweep[0], tmp_path / "sweep"),
        "ablation": ablation,
        "hard_world": results_rows(run_few_shot(hard), tmp_path / "hard"),
        "parameters": parameter_rows(),
        "round_log": round_log_rows(tmp_path),
        "criterion_1": [f"worst={float(criterion_1[0].worst)!r}"],
    }


def read_pins() -> dict[str, list[str]]:
    sections, rows = {}, None
    for line in PIN_FILE.read_text().splitlines():
        if line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            rows = sections[line[1:-1]] = []
        else:
            rows.append(line)
    return sections


def test_outputs_match_the_pins(sweep, ablation_suite, criterion_1, tmp_path):
    pins = read_pins()
    now = current_sections(sweep, ablation_suite, criterion_1, tmp_path)
    assert list(pins) == list(now)
    diffs = [
        "\n".join(difflib.unified_diff(pins[name], rows, f"pinned {name}", f"now {name}", lineterm=""))
        for name, rows in now.items()
        if rows != pins[name]
    ]
    if diffs:
        pytest.fail("outputs moved from pinned_outputs.txt:\n" + "\n".join(diffs))


def test_checked_in_hard_config_is_the_pinned_hard_world():
    """``configs/hard.cfg`` runs the world the ``hard_world`` pins run, over
    its full grid; parsing it runs nothing."""
    config = parse_config_file(PIN_FILE.parents[1] / "configs" / "hard.cfg")
    assert config.world == HARD_WORLD
    assert (config.shots, config.seeds, config.lrs) == ((0, 1, 4, 16), (0, 1, 2), (1e-3, 1e-2))
    assert config == ExperimentConfig(
        world=HARD_WORLD, shots=(0, 1, 4, 16), seeds=(0, 1, 2), lrs=(1e-3, 1e-2)
    )


if __name__ == "__main__":  # print the pin file for the current program
    import tempfile

    from conftest import run_criterion_1, run_suite, run_sweep

    with tempfile.TemporaryDirectory() as tmp:
        sections = current_sections(run_sweep(), run_suite(), run_criterion_1(), Path(tmp))
    print(f"# Python {platform.python_version()}, numpy {np.__version__}")
    for name, rows in sections.items():
        print(f"[{name}]")
        print("\n".join(rows))
