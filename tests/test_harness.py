import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import namelearn.harness as harness
from namelearn.autodiff import DomainError
from namelearn.cli import main
from namelearn.harness import (
    ABLATION_FLAGS,
    AblationError,
    ConfigError,
    ExperimentConfig,
    config_hash,
    emit_metrics,
    harmonic_accuracy,
    parse_config_file,
    run_ablation,
    run_few_shot,
    run_zero_shot,
)
from namelearn.session import TrainingDivergedError, TrainingSession
from namelearn.settings import SessionSettings
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
    for bad, field in (
        (dict(shots=(0, 0)), "shots"),
        (dict(seeds=(1, 1)), "seeds"),
        (dict(lrs=(1e-3, 1e-3)), "lrs"),
    ):
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig(**bad)
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
        n_test_per_class = 40
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
    assert cfg.n_test_per_class == 40
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
        # Fixed hyperparameters: the robust residual, the routing threshold
        # and the mixing ratio are module constants.
        "alpha = 0.1",
        "difficulty_threshold = 0.5",
        "lambda_mix = 0.7",
    ],
    ids=lambda line: line.split(" ")[0],
)
def test_config_file_unknown_key(tmp_path, line):
    path = tmp_path / "bad.cfg"
    path.write_text(line + "\n")
    name = line.split(" ")[0].split(".")[-1]
    message = re.escape(f"{path}:1: unknown ") + f"(config key|world field) '{name}'$"
    with pytest.raises(ConfigError, match=message):
        parse_config_file(path)
    assert main(["few-shot", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


def test_ablation_flags_are_the_settings_record():
    assert ABLATION_FLAGS == (
        "disable_image_agent_robust",
        "disable_text_context",
        "disable_name_agent",
        "disable_coordinator_dynamics",
        "disable_context_exchange",
        "simple_concat_fusion",
        "disable_difficulty",
        "disable_dynamic_balancing",
    )
    assert all(type(value) is bool for value in vars(SessionSettings()).values())


@pytest.mark.parametrize("key", ["epochs", "world.embed_dim"])
def test_config_file_key_set_twice_names_both_lines(tmp_path, capsys, key):
    path = tmp_path / "twice.cfg"
    path.write_text(f"{key} = 5\nseeds = 0\n\n# again\n{key} = 7\n")
    message = f"{path}:5: {key}: already set on line 1"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config_file(path)
    assert main(["few-shot", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_config_file_bad_bool(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("disable_name_agent = yes\n")
    with pytest.raises(ConfigError, match="disable_name_agent: expected true or false"):
        parse_config_file(path)


@pytest.mark.parametrize(
    "line, message",
    [
        ("epochs = 0", "epochs must be >= 1, got 0"),
        ("shots = 4,1", "shots must be ascending"),
        ("world.embed_dim = 0", "embed_dim must be >= 1, got 0"),
    ],
    ids=["epochs", "shots", "world.embed_dim"],
)
def test_cli_config_value_out_of_range_names_the_file(tmp_path, capsys, monkeypatch, line, message):
    # A value that parses but is out of range fails in ``parse_config_file``,
    # named by its file, before any world is built: the world's fields too.
    built = []
    monkeypatch.setattr(harness, "build_world", lambda *a, **k: built.append(a))
    path = tmp_path / "range.cfg"
    path.write_text(line + "\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}: {message}')}$"):
        parse_config_file(path)
    assert main(["few-shot", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not (tmp_path / "out").exists()
    assert built == []


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


def test_a_cell_whose_scoring_fails_keeps_empty_loss_columns(monkeypatch, tmp_path):
    # The breakdown is taken from the returned history only after scoring.
    def explode(self, images, labels, class_ids):
        raise DomainError("zero-norm row")

    monkeypatch.setattr("namelearn.harness.TrainingSession.evaluate", explode)
    result = run_few_shot(replace(TINY, shots=(1,), seeds=(0,)))
    (cell,) = result.cells
    assert (cell.status, cell.breakdown) == ("failed", None)
    row = emit_metrics(result, tmp_path)["results"].read_text().splitlines()[1]
    assert row.split(",")[7:12] == [""] * 5


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

@pytest.mark.parametrize(
    "set_flags", [("disable_difficulty",), ("disable_name_agent", "disable_difficulty")]
)
def test_ablation_rejects_a_config_with_any_flag_set(monkeypatch, set_flags):
    built = []
    monkeypatch.setattr(harness, "build_world", lambda *a, **k: built.append(a))
    cfg = replace(TINY, **{flag: True for flag in set_flags})
    with pytest.raises(AblationError, match="the full arm must set no ablation flag"):
        run_ablation(cfg, ("disable_difficulty",))
    assert built == []  # rejected before any world was built


def test_ablation_rejects_a_repeated_flag(monkeypatch):
    built = []
    monkeypatch.setattr(harness, "build_world", lambda *a, **k: built.append(a))
    flags = ("disable_difficulty", "disable_name_agent", "disable_difficulty")
    with pytest.raises(AblationError, match="ablation 'disable_difficulty' is listed twice"):
        run_ablation(TINY, flags)
    assert built == []  # rejected before any world was built


def test_a_shot_with_no_ok_cell_has_no_mean_in_any_reader(tmp_path, capsys):
    """Every reader takes a shot's mean from ``RunResult.shot_stats``: a shot
    whose cells all failed has none, so ``summary.json`` writes ``null``, the
    console ``n/a`` and the ablation delta ``None``."""
    from namelearn.cli import _report
    from namelearn.harness import AblationResult, CellResult, RunResult

    ok = [
        CellResult(1, seed, 1e-3, "joint", sc_acc=0.5, ood_acc=0.25 * seed, harm_acc=0.1 * seed)
        for seed in (1, 2)
    ]
    failed = [
        CellResult(4, seed, 1e-3, "joint", status="failed", error="TrainingDivergedError: x")
        for seed in (1, 2)
    ]
    result = RunResult("few_shot", "0" * 16, ok + failed)
    assert result.shot_stats(4, "ood_acc") == (None, None)
    assert result.mean_ood(4) is None and result.mean_sc(4) is None
    assert result.shot_stats(1, "ood_acc") == (0.375, 0.125)

    assert _report(result, tmp_path) == 2
    printed = capsys.readouterr().out
    assert "  shot   1: ood_acc=0.3750 sc_acc=0.5000\n" in printed
    assert "  shot   4: ood_acc=n/a sc_acc=n/a\n" in printed
    per_shot = json.loads((tmp_path / "summary.json").read_text())["per_shot"]
    assert per_shot["4"] == {
        "ood_mean": None, "ood_std": None, "sc_mean": None, "sc_std": None,
        "harm_mean": None, "harm_std": None, "n_ok": 0,
    }
    assert (per_shot["1"]["ood_mean"], per_shot["1"]["n_ok"]) == (0.375, 2)
    assert (tmp_path / "plotdata.csv").read_text().splitlines()[2] == "4,,,,,,"

    recovered = [replace(c, status="ok", error="", sc_acc=0.5, ood_acc=0.5) for c in failed]
    full = RunResult("few_shot", "0" * 16, ok + recovered)
    assert AblationResult("disable_difficulty", full, result).delta_by_shot() == {1: 0.0, 4: None}
    assert AblationResult("disable_difficulty", result, full).delta_by_shot() == {1: 0.0, 4: None}


def test_ablation_paired_delta():
    cfg = replace(TINY, shots=(2,), seeds=(0,), epochs=60)
    (result,) = run_ablation(cfg, ("disable_name_agent",)).values()
    assert result.flag == "disable_name_agent"
    # removing name learning costs accuracy on the held-out split
    assert result.delta_by_shot()[2] > 0.0


# ---------------------------------------------------------------------------
# CLI

def write_tiny_config(path: Path, **extra) -> Path:
    """The tiny config, each key set once: ``extra`` overrides or adds keys."""
    entries = {
        "shots": "0,2",
        "seeds": "0",
        "lrs": "1e-3",
        "epochs": "30",
        "n_test_per_class": "10",
        "world.embed_dim": "16",
        "world.image_dim": "24",
        "world.n_seen": "4",
        "world.n_ood": "3",
        "world.vocab_size": "64",
        "world.seed": "7",
        **extra,
    }
    path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
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


def test_cli_unparsable_seed_names_the_flag(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path / "exp.cfg")
    rc = main(["few-shot", "--config", str(cfg), "--seed", "abc", "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: --seed: expected an integer (comma-separated), got 'abc'\n"
    )
    assert not (tmp_path / "out").exists()


def test_cli_repeated_seed_is_hard_error(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path / "exp.cfg")
    rc = main(["few-shot", "--config", str(cfg), "--seed", "1,1", "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == "error: seeds must not repeat a value\n"
    assert not (tmp_path / "out").exists()


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


def test_cli_ablate_config_that_sets_the_chosen_flag_runs_the_same_arms(tmp_path):
    """The full arm clears the chosen flag, so a config file that sets it
    writes the files of one that does not, apart from ``wall_time``."""
    written = {}
    for name, extra in (("plain", {}), ("set", {"disable_difficulty": "true"})):
        cfg = write_tiny_config(tmp_path / f"{name}.cfg", **extra)
        out = tmp_path / name
        args = ["--config", str(cfg), "--ablation", "disable_difficulty", "--out", str(out)]
        assert main(["ablate", *args]) == 0
        files = sorted(out.rglob("*.*"))
        assert [f.relative_to(out).as_posix() for f in files] == [
            "ablated/plotdata.csv", "ablated/results.csv", "ablated/summary.json",
            "deltas.json",
            "full/plotdata.csv", "full/results.csv", "full/summary.json",
        ]
        written[name] = [
            strip_wall_time(f.read_text()) if f.name == "results.csv" else f.read_text()
            for f in files
        ]
    assert written["set"] == written["plain"]


def test_cli_ablate_config_that_sets_another_flag_is_hard_error(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path / "exp.cfg", disable_name_agent="true")
    out = tmp_path / "out"
    args = ["--config", str(cfg), "--ablation", "disable_difficulty", "--out", str(out)]
    assert main(["ablate", *args]) == 1
    assert capsys.readouterr().err == (
        "error: the full arm must set no ablation flag, got ['disable_name_agent']\n"
    )
    assert not out.exists()


def test_cli_ablate_writes_valid_json_when_an_arm_has_no_ok_cell(monkeypatch, tmp_path, capsys):
    """A shot whose ablated cells all failed has no drop: ``null`` in
    ``deltas.json`` (as in ``summary.json``), ``n/a`` on the console."""
    train = TrainingSession.train

    def diverge_when_ablated(self, shots, epochs, lr):
        if self.settings.disable_difficulty:
            raise TrainingDivergedError("loss became nan")
        return train(self, shots, epochs, lr)

    monkeypatch.setattr("namelearn.harness.TrainingSession.train", diverge_when_ablated)
    cfg = write_tiny_config(tmp_path / "exp.cfg")
    out = tmp_path / "ab"
    args = ["--config", str(cfg), "--ablation", "disable_difficulty", "--out", str(out)]
    rc = main(["ablate", *args])
    assert rc == 2

    def reject(name):
        raise ValueError(f"not JSON: {name}")

    deltas = json.loads((out / "deltas.json").read_text(), parse_constant=reject)
    drops = deltas["ood_drop_by_shot"]
    assert drops["2"] is None and isinstance(drops["0"], float)
    summary = json.loads((out / "ablated" / "summary.json").read_text(), parse_constant=reject)
    assert summary["per_shot"]["2"]["ood_mean"] is None
    assert "shot   2: ood drop n/a" in capsys.readouterr().out


@pytest.mark.parametrize("command, shot", [("few-shot", 2), ("zero-shot", 16)])
def test_cli_prints_n_a_for_a_shot_with_no_ok_cell(monkeypatch, tmp_path, capsys, command, shot):
    """A shot whose cells all failed has no mean accuracy: ``n/a`` on the
    console, as ``summary.json`` writes ``null``."""

    def diverge(self, shots, epochs, lr):
        raise TrainingDivergedError("loss became nan")

    monkeypatch.setattr("namelearn.harness.TrainingSession.train", diverge)
    cfg = write_tiny_config(tmp_path / "exp.cfg")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    printed = capsys.readouterr().out
    assert f"shot {shot:>3}: ood_acc=n/a sc_acc=n/a" in printed
    assert "nan" not in printed
    summary = json.loads((out / "summary.json").read_text())
    assert summary["per_shot"][str(shot)]["ood_mean"] is None


@pytest.mark.parametrize("command", ["few-shot", "zero-shot", "ablate"])
@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_cli_jobs_below_one_is_hard_error(tmp_path, capsys, command, jobs):
    cfg = write_tiny_config(tmp_path / "exp.cfg")
    extra = ["--ablation", "disable_difficulty"] if command == "ablate" else []
    out = tmp_path / "out"
    rc = main([command, "--config", str(cfg), *extra, "--jobs", jobs, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: --jobs: must be at least 1, got {jobs}\n"
    assert not out.exists()


@pytest.mark.parametrize("run", [run_few_shot, run_zero_shot, run_ablation])
@pytest.mark.parametrize("jobs", [0, -2])
def test_runs_reject_jobs_below_one(run, jobs):
    with pytest.raises(ValueError, match=f"jobs must be at least 1, got {jobs}"):
        run(replace(TINY, epochs=1), jobs=jobs)


def test_cli_ablate_unknown_flag(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path / "exp.cfg")
    out = tmp_path / "out"
    rc = main(["ablate", "--config", str(cfg), "--ablation", "nonsense", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: unknown ablation 'nonsense'; choose from ")
    assert not out.exists()


def test_cli_world_build(tmp_path):
    cfg = write_tiny_config(tmp_path / "exp.cfg")
    rc = main(["world", "build", "--config", str(cfg), "--out", str(tmp_path / "w")])
    assert rc == 0
    assert sorted(p.name for p in (tmp_path / "w").iterdir()) == ["world_report.json"]
    report = json.loads((tmp_path / "w" / "world_report.json").read_text())
    assert report["sc_min_prompt_cosine"] >= 0.9


@pytest.mark.parametrize("flag", [["--seed", "3"], ["--jobs", "4"]])
def test_cli_world_build_rejects_seed_and_jobs(tmp_path, flag):
    # A world is fixed by its config alone; neither flag would change it.
    cfg = write_tiny_config(tmp_path / "exp.cfg")
    out = tmp_path / "w"
    assert main(["world", "build", "--config", str(cfg), *flag, "--out", str(out)]) == 1
    assert not out.exists()


def test_cli_selftest_passes_all_four_suites(monkeypatch, capsys):
    # Criterion 1 runs the full-loss check on all 20 batches; two keep this fast.
    from namelearn import selfcheck

    full = selfcheck.full_loss_grad_checks
    monkeypatch.setattr(selfcheck, "full_loss_grad_checks", lambda: full(n_batches=2))
    assert main(["selftest"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 and all(line.startswith("PASS ") for line in lines)
    assert "grouped contrastive loss" in lines[2]


def test_cli_bad_config_is_hard_error(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery = 1\n")
    rc = main(["few-shot", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == 1


@pytest.mark.parametrize("command", ["few-shot", "zero-shot"])
@pytest.mark.parametrize("setting", [{"lrs": ""}, {"epochs": "0"}, {"n_test_per_class": "0"}])
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


@pytest.mark.parametrize("command", [["few-shot"], ["world", "build"]])
@pytest.mark.parametrize(
    "field, value", [("embed_dim", "0"), ("embed_dim", "-1"), ("seed", "-1")]
)
def test_cli_world_dimension_or_seed_below_range_is_hard_error(
    tmp_path, capsys, command, field, value
):
    cfg = write_tiny_config(tmp_path / "exp.cfg", **{f"world.{field}": value})
    rc = main([*command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {cfg}: {field} must be >= ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, value",
    [("epochs", "x"), ("world.noise_sigma", "abc"), ("shots", "1,a"), ("lrs", "1e-3,foo")],
)
def test_cli_unparsable_value_names_key_and_line(tmp_path, capsys, key, value):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"# one bad line\n{key} = {value}\n")
    rc = main(["few-shot", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert f"{cfg}:2: {key}: expected " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_module_entry_point_exit_codes(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}

    def run(*args):
        command = [sys.executable, "-m", "namelearn", *args]
        return subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)

    built = run("world", "build", "--out", str(tmp_path / "w"))
    assert built.returncode == 0, built.stderr
    assert sorted(p.name for p in (tmp_path / "w").iterdir()) == ["world_report.json"]
    assert run("bogus").returncode == 1


def test_every_exported_name_resolves():
    import namelearn

    missing = [name for name in namelearn.__all__ if not hasattr(namelearn, name)]
    assert missing == []


@pytest.mark.parametrize(
    "command, n_failed",
    [
        (["few-shot"], 1),  # the one 2-shot cell
        (["zero-shot"], 1),  # the one split's 16-shot cell
        (["ablate", "--ablation", "disable_difficulty"], 2),  # one 2-shot cell per arm
    ],
)
def test_cli_partial_failure_exit_code(monkeypatch, tmp_path, capsys, command, n_failed):
    def explode(self, shots, epochs, lr):
        raise TrainingDivergedError("loss became nan")

    monkeypatch.setattr("namelearn.harness.TrainingSession.train", explode)
    cfg = write_tiny_config(tmp_path / "exp.cfg")
    rc = main([*command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == f"  {n_failed} cell(s) failed\n"


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

    monkeypatch.setattr("multiprocessing.get_context", lambda method: Context)
    assert harness._map(pow, [(2, 3), (3, 2)], jobs=8) == [8, 9]
    assert pools == [2]
    assert harness._map(pow, [(2, 5)], jobs=8) == [32]
    assert pools == [2]  # one task runs in this process
    suite = run_ablation(replace(TINY, epochs=2), ("disable_difficulty",), jobs=2)
    assert pools == [2, 2]  # both arms' 8 cells share one pool
    assert len(suite["disable_difficulty"].ablated.cells) == 4


def run_arms(run, config, jobs=1):
    """Every arm's ``RunResult``: the sweep's one, or the full arm's and then
    each ablated arm's for two flags."""
    if run is run_few_shot:
        return [run_few_shot(config, jobs)]
    suite = run_ablation(config, ("disable_difficulty", "disable_name_agent"), jobs)
    return [suite["disable_difficulty"].full] + [r.ablated for r in suite.values()]


@pytest.mark.parametrize("run", [run_few_shot, run_ablation])
def test_parallel_jobs_match_serial(tmp_path, run):
    serial, parallel = run_arms(run, TINY, jobs=1), run_arms(run, TINY, jobs=2)
    assert len(serial) == len(parallel)
    for i, (s, p) in enumerate(zip(serial, parallel)):
        assert (s.config_hash, s.kind) == (p.config_hash, p.kind)
        a = emit_metrics(s, tmp_path / f"s{i}")["results"].read_text()
        b = emit_metrics(p, tmp_path / f"p{i}")["results"].read_text()
        assert strip_wall_time(a) == strip_wall_time(b)


@pytest.mark.parametrize("run, n_arms", [(run_few_shot, 1), (run_ablation, 3)])
def test_sweep_builds_its_world_and_test_split_once(monkeypatch, run, n_arms):
    builds, splits = [], []
    build_world, sample_split = harness.build_world, harness.World.sample_split

    def counting_build(config):
        builds.append(config)
        return build_world(config)

    def counting_split(self, *args, **kwargs):
        splits.append(args)
        return sample_split(self, *args, **kwargs)

    monkeypatch.setattr(harness, "build_world", counting_build)
    monkeypatch.setattr(harness.World, "sample_split", counting_split)
    arms = run_arms(run, replace(TINY, epochs=2))
    assert [len(arm.cells) for arm in arms] == [4] * n_arms
    assert len(builds) == 1 and len(splits) == 1


def test_sweep_cells_equal_standalone_cells(tiny_result):
    for cell in tiny_result.cells:
        alone = harness.run_cell(TINY, cell.shot, cell.seed, cell.lr)
        assert replace(alone, wall_time=0.0) == replace(cell, wall_time=0.0)


class Unpicklable:
    def __reduce__(self):
        raise AssertionError("pickled")


def test_forked_workers_inherit_shared_arguments_unpickled():
    shared = Unpicklable()
    out = harness._map(lambda x, s: (x * 2, s is shared), [(1,), (2,), (3,)], 2, (shared,))
    assert out == [(2, True), (4, True), (6, True)]
    assert harness._FORKED is None  # nothing outlives the call
