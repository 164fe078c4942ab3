import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import namelearn.harness as harness
from namelearn.cli import main
from namelearn.harness import (
    AblationError,
    ConfigError,
    ExperimentConfig,
    config_from_mapping,
    config_hash,
    emit_metrics,
    harmonic_accuracy,
    parse_config_file,
    run_ablation,
    run_few_shot,
    run_zero_shot,
)
from namelearn.session import TrainingDivergedError
from namelearn.world import WorldConfig

TINY_WORLD = WorldConfig(
    embed_dim=16, image_dim=24, n_seen=4, n_ood=3, vocab_size=64, seed=7
)
TINY = ExperimentConfig(
    world=TINY_WORLD,
    shots=(0, 2),
    seeds=(0, 1),
    lrs=(1e-3,),
    epochs=30,
    n_test_per_class=15,
)


def strip_wall_time(csv_text: str) -> str:
    lines = csv_text.splitlines()
    return "\n".join(",".join(line.split(",")[:-1]) for line in lines)


# ---------------------------------------------------------------------------
# Config

def test_config_validates_shots_and_seeds():
    for bad in (
        dict(shots=(2, 1)),
        dict(shots=(-1, 2)),
        dict(shots=()),
        dict(seeds=()),
        dict(lrs=()),
        dict(epochs=0),
        dict(n_test_per_class=0),
        dict(lrs=(0.5,)),
        dict(seeds=(-1,)),
        dict(alpha=1.5),
        dict(difficulty_threshold=0.0),
        dict(lambda_mix=1.5),
    ):
        with pytest.raises(ConfigError):
            ExperimentConfig(**bad)


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        """
        # comment line
        shots = 0,1,4
        seeds = 3,4
        lrs = 1e-4,1e-3
        epochs = 50          # trailing comment
        alpha = 0.2
        disable_name_agent = true
        world.embed_dim = 16
        world.image_dim = 24
        world.n_seen = 4
        world.n_ood = 3
        world.vocab_size = 64
        """
    )
    cfg = parse_config_file(path)
    assert cfg.shots == (0, 1, 4)
    assert cfg.seeds == (3, 4)
    assert cfg.lrs == (1e-4, 1e-3)
    assert cfg.epochs == 50
    assert cfg.alpha == 0.2
    assert cfg.disable_name_agent is True
    assert cfg.world.embed_dim == 16


@pytest.mark.parametrize(
    "line",
    [
        "not_a_field = 3",
        # Deleted knobs: one name vector, vocabulary-mean start, two exchanged
        # templates and joint evaluation are fixed.
        "n_name_vectors = 1",
        "name_init = vocab_mean",
        "exchange_k = 2",
        "exchange_weight = 1.0",
        "eval_label_space = joint",
        # Deleted variant switches: a fixed mixing ratio, the temperature
        # dividing inside the loss, one batch-mean difficulty score, one shared
        # blind token and a fixed zero-shot temperature.
        "learnable_lambda = true",
        "literal_tau_cancellation = true",
        "difficulty_mode = per_sample",
        "world.ood_token_mode = per_name",
        "world.gamma = 0.07",
    ],
    ids=lambda line: line.split(" ")[0],
)
def test_config_file_unknown_key(tmp_path, line):
    path = tmp_path / "bad.cfg"
    path.write_text(line + "\n")
    with pytest.raises(ConfigError):
        parse_config_file(path)
    assert main(["few-shot", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


def test_config_file_bad_bool():
    with pytest.raises(ConfigError):
        config_from_mapping({"disable_name_agent": "yes"})


def test_config_hash_stable_and_sensitive():
    a = config_hash(TINY)
    assert a == config_hash(replace(TINY, shots=(0, 2)))
    assert a != config_hash(replace(TINY, epochs=31))


def test_harmonic_accuracy():
    assert harmonic_accuracy(0.0, 0.0) == 0.0
    assert harmonic_accuracy(1.0, 1.0) == 1.0
    assert harmonic_accuracy(0.5, 1.0) == pytest.approx(2 / 3)


# ---------------------------------------------------------------------------
# Few-shot grid

@pytest.fixture(scope="module")
def tiny_result():
    return run_few_shot(TINY)


def test_grid_row_count(tiny_result):
    assert len(tiny_result.cells) == 2 * 2 * 1  # shots x seeds x lrs
    assert not tiny_result.failed_cells()


def test_zero_shot_cells_skip_training(tiny_result):
    for cell in tiny_result.cells:
        if cell.shot == 0:
            assert cell.breakdown is None
            assert abs(cell.ood_acc - 0.0) < 0.35  # joint space, broken alignment


def test_metrics_files(tiny_result, tmp_path):
    paths = emit_metrics(tiny_result, tmp_path)
    lines = paths["results"].read_text().splitlines()
    assert lines[0] == harness.RESULTS_COLUMNS
    assert len(lines) == 1 + 4
    summary = json.loads(paths["summary"].read_text())
    assert summary["n_cells"] == 4 and summary["n_failed"] == 0
    plot = paths["plotdata"].read_text().splitlines()
    assert plot[0].startswith("shot,ood_mean")
    assert len(plot) == 1 + 2  # one row per shot


def test_summary_means_match_hand_average(tiny_result, tmp_path):
    paths = emit_metrics(tiny_result, tmp_path)
    summary = json.loads(paths["summary"].read_text())
    for shot in (0, 2):
        cells = [c for c in tiny_result.cells if c.shot == shot]
        expected = sum(c.ood_acc for c in cells) / len(cells)
        assert summary["per_shot"][str(shot)]["ood_mean"] == pytest.approx(expected)


def test_determinism_byte_identical_results(tmp_path):
    texts = []
    for name in ("a", "b"):
        result = run_few_shot(TINY)
        paths = emit_metrics(result, tmp_path / name)
        texts.append(paths["results"].read_text())
    assert strip_wall_time(texts[0]) == strip_wall_time(texts[1])
    assert texts[0] != texts[1] or texts[0] == texts[1]  # wall_time may differ


def test_failed_cell_contract(monkeypatch, tmp_path):
    def explode(self, shots, epochs, lr):
        raise TrainingDivergedError("loss became nan")

    monkeypatch.setattr("namelearn.harness.TrainingSession.train", explode)
    result = run_few_shot(replace(TINY, shots=(0, 1)))
    failed = result.failed_cells()
    assert len(failed) == 2  # only the trained cells fail
    assert all("nan" in c.error for c in failed)
    paths = emit_metrics(result, tmp_path)
    rows = paths["results"].read_text().splitlines()[1:]
    failed_rows = [r for r in rows if ",failed," in r]
    assert len(failed_rows) == 2
    for row in failed_rows:
        parts = row.split(",")
        assert parts[4] == "" and parts[5] == ""  # accuracies empty


# ---------------------------------------------------------------------------
# Zero-shot

def test_zero_shot_run_shape_and_masking():
    cfg = replace(TINY, seeds=(0,), epochs=60, n_test_per_class=20)
    result = run_zero_shot(cfg)
    assert result.kind == "zero_shot"
    assert len(result.cells) == 2  # baseline + trained per split
    baseline = next(c for c in result.cells if c.shot == 0)
    trained = next(c for c in result.cells if c.shot == 16)
    chance = 1.0 / cfg.world.n_ood
    assert abs(baseline.ood_acc - chance) <= 0.05
    assert trained.ood_acc > baseline.ood_acc
    assert trained.mask_ok


def test_zero_shot_margin_over_baseline_on_default_world():
    # One default-scale split: adaptation must clear the frozen baseline by a
    # wide margin (the chance-to-ceiling band is ~90 points there).
    cfg = ExperimentConfig(seeds=(0,), lrs=(1e-3,), n_test_per_class=50)
    result = run_zero_shot(cfg)
    baseline = next(c for c in result.cells if c.shot == 0)
    trained = next(c for c in result.cells if c.shot == 16)
    assert trained.status == "ok"
    assert trained.ood_acc - baseline.ood_acc >= 0.20
    assert trained.mask_ok


# ---------------------------------------------------------------------------
# Ablations

def test_ablation_rejects_multiple_flags():
    cfg = replace(TINY, disable_name_agent=True, disable_difficulty=True)
    with pytest.raises(AblationError):
        run_ablation(cfg)


def test_ablation_no_flag_is_self_comparison():
    result = run_ablation(replace(TINY, shots=(0,), seeds=(0,)))
    assert result.flag == "none"
    assert result.delta_by_shot() == {0: 0.0}


def test_ablation_paired_delta():
    cfg = replace(
        TINY, shots=(2,), seeds=(0,), epochs=60, disable_name_agent=True
    )
    result = run_ablation(cfg)
    assert result.flag == "disable_name_agent"
    # removing name learning costs accuracy on the held-out split
    assert result.delta_by_shot()[2] > 0.0


# ---------------------------------------------------------------------------
# CLI

def write_tiny_config(path: Path, **extra) -> Path:
    lines = [
        "shots = 0,2",
        "seeds = 0",
        "lrs = 1e-3",
        "epochs = 30",
        "n_test_per_class = 10",
        "world.embed_dim = 16",
        "world.image_dim = 24",
        "world.n_seen = 4",
        "world.n_ood = 3",
        "world.vocab_size = 64",
        "world.seed = 7",
    ]
    lines += [f"{k} = {v}" for k, v in extra.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


def test_cli_few_shot(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path / "exp.cfg")
    rc = main(["few-shot", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "results.csv").exists()
    assert (tmp_path / "out" / "summary.json").exists()
    assert "shot" in capsys.readouterr().out


def test_cli_seed_override(tmp_path):
    cfg = write_tiny_config(tmp_path / "exp.cfg")
    rc = main(
        ["few-shot", "--config", str(cfg), "--seed", "5,6", "--out", str(tmp_path / "out")]
    )
    assert rc == 0
    rows = (tmp_path / "out" / "results.csv").read_text().splitlines()[1:]
    seeds = {row.split(",")[1] for row in rows}
    assert seeds == {"5", "6"}


def test_cli_zero_shot(tmp_path):
    cfg = write_tiny_config(tmp_path / "exp.cfg", epochs=60)
    rc = main(["zero-shot", "--config", str(cfg), "--out", str(tmp_path / "zs")])
    assert rc == 0
    assert (tmp_path / "zs" / "results.csv").exists()


def test_cli_ablate(tmp_path):
    cfg = write_tiny_config(tmp_path / "exp.cfg")
    rc = main(
        [
            "ablate",
            "--config",
            str(cfg),
            "--ablation",
            "disable_difficulty",
            "--out",
            str(tmp_path / "ab"),
        ]
    )
    assert rc == 0
    deltas = json.loads((tmp_path / "ab" / "deltas.json").read_text())
    assert deltas["flag"] == "disable_difficulty"
    assert (tmp_path / "ab" / "full" / "results.csv").exists()
    assert (tmp_path / "ab" / "ablated" / "results.csv").exists()


def test_cli_ablate_unknown_flag(tmp_path):
    cfg = write_tiny_config(tmp_path / "exp.cfg")
    rc = main(
        ["ablate", "--config", str(cfg), "--ablation", "nonsense", "--out", str(tmp_path)]
    )
    assert rc == 1


def test_cli_world_build(tmp_path):
    cfg = write_tiny_config(tmp_path / "exp.cfg")
    rc = main(["world", "build", "--config", str(cfg), "--out", str(tmp_path / "w")])
    assert rc == 0
    assert (tmp_path / "w" / "world.bin").exists()
    report = json.loads((tmp_path / "w" / "world_report.json").read_text())
    assert report["sc_min_prompt_cosine"] >= 0.9


def test_cli_bad_config_is_hard_error(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery = 1\n")
    rc = main(["few-shot", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == 1


@pytest.mark.parametrize("command", ["few-shot", "zero-shot"])
@pytest.mark.parametrize("setting", [{"lrs": ""}, {"epochs": "0"}, {"alpha": "1.5"}])
def test_cli_empty_or_zero_setting_is_hard_error(
    tmp_path, capsys, monkeypatch, command, setting
):
    built = []
    monkeypatch.setattr(harness, "build_world", lambda *a, **k: built.append(a))
    cfg = write_tiny_config(tmp_path / "exp.cfg", **setting)
    rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()
    assert built == []  # the config failed before any world was built


def test_cli_usage_error_returns_one():
    assert main(["unknown-subcommand"]) == 1


@pytest.mark.parametrize("sigma", ["nan", "inf", "-0.05"])
def test_cli_noise_sigma_not_finite_and_nonnegative_is_hard_error(tmp_path, capsys, sigma):
    cfg = write_tiny_config(tmp_path / "exp.cfg", **{"world.noise_sigma": sigma})
    rc = main(["few-shot", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "noise_sigma" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_module_entry_point_exit_codes(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}

    def run(*args):
        command = [sys.executable, "-m", "namelearn", *args]
        return subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)

    built = run("world", "build", "--out", str(tmp_path))
    assert built.returncode == 0, built.stderr
    assert (tmp_path / "world.bin").exists()
    assert run("bogus").returncode == 1


def test_cli_partial_failure_exit_code(monkeypatch, tmp_path):
    def explode(self, shots, epochs, lr):
        raise TrainingDivergedError("loss became nan")

    monkeypatch.setattr("namelearn.harness.TrainingSession.train", explode)
    cfg = write_tiny_config(tmp_path / "exp.cfg")
    rc = main(["few-shot", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2


def test_map_starts_no_more_workers_than_tasks(monkeypatch):
    pools = []

    class InProcessPool:
        def __init__(self, processes):
            pools.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, tasks):
            return [fn(*t) for t in tasks]

    class Context:
        Pool = InProcessPool

    monkeypatch.setattr(harness, "get_context", lambda method: Context)
    assert harness._map(pow, [(2, 3), (3, 2)], jobs=8) == [8, 9]
    assert pools == [2]
    assert harness._map(pow, [(2, 5)], jobs=8) == [32]
    assert pools == [2]  # one task runs in this process


def test_parallel_jobs_match_serial(tmp_path):
    serial = run_few_shot(TINY, jobs=1)
    parallel = run_few_shot(TINY, jobs=2)
    a = emit_metrics(serial, tmp_path / "s")["results"].read_text()
    b = emit_metrics(parallel, tmp_path / "p")["results"].read_text()
    assert strip_wall_time(a) == strip_wall_time(b)
