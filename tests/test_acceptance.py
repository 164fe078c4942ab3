"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  The few-shot sweep, the ablation
suite and criterion 1's gradient check run once per test session
(``conftest.py``) and feed several criteria and the pinned outputs.  Absolute large-scale benchmark numbers are out of reach at desk
scale; these criteria check the properties and the qualitative experiment
shapes instead.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from namelearn import autodiff as ad
from namelearn.autodiff import Tape, Tensor, backward
from namelearn.harness import ExperimentConfig, emit_metrics, run_few_shot
from namelearn.image_agent import ImageAgent
from namelearn.selfcheck import classification_oracle_suite, contrastive_oracle_suite
from namelearn.session import SessionSettings, TrainingSession, write_step_log
from namelearn.world import WorldConfig, build_world

SWEEP_CONFIG = ExperimentConfig()  # default world, shots 0..16, 3 seeds, 3 lrs


def _criterion(num: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {verdict} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def default_world():
    return build_world(WorldConfig())


def _best_lr(result) -> float:
    def mean_ood_at(lr, shot=16):
        cells = [
            c for c in result.ok_cells() if c.lr == lr and c.shot == shot
        ]
        return float(np.mean([c.ood_acc for c in cells])) if cells else float("-inf")

    return max(SWEEP_CONFIG.lrs, key=mean_ood_at)


def _shot_means(result, lr, metric="ood_acc"):
    means = {}
    for shot in SWEEP_CONFIG.shots:
        values = [
            getattr(c, metric)
            for c in result.ok_cells()
            if c.shot == shot and (shot == 0 or c.lr == lr)
        ]
        means[shot] = float(np.mean(values))
    return means


def test_criterion_1_gradient_integrity(criterion_1):
    report, elapsed = criterion_1
    ok = report.worst < 1e-4 and elapsed < 10.0
    _criterion(
        1,
        "gradient integrity",
        ok,
        f"max rel err {report.worst:.3g} (< 1e-4), {elapsed:.1f}s (< 10 s), 20 batches",
    )


def test_criterion_2_loss_oracle_equivalence():
    con = contrastive_oracle_suite(n_batches=100)
    cls = classification_oracle_suite(n_batches=100)
    ok = con.worst < 1e-9 and cls.worst < 1e-9
    _criterion(
        2,
        "loss oracle equivalence",
        ok,
        f"contrastive {con.worst:.3g}, classification {cls.worst:.3g} (both < 1e-9, 100 batches)",
    )


def test_criterion_3_clip_band_invariants(default_world, tmp_path):
    session = TrainingSession(default_world, SessionSettings(), seed=0)
    shots = {
        cid: default_world.sample_images(cid, 16, seed=77)
        for cid in default_world.ood_ids
    }
    history = session.train(shots, epochs=200, lr=1e-3)
    write_step_log(tmp_path / "steps.csv", history, 1e-3)
    violations = 0
    for b in history:
        if not 0.5 <= b.tau <= 2.0:
            violations += 1
        if not 0.5 <= b.w_con_num <= 2.0:
            violations += 1
        if not 0.1 <= b.w_cls_num <= 1.0:
            violations += 1
    for line in (tmp_path / "steps.csv").read_text().splitlines()[1:]:
        tau = float(line.split(",")[5])
        if not 0.5 <= tau <= 2.0:
            violations += 1
    ok = violations == 0 and len(history) == 200
    _criterion(
        3,
        "clip-band invariants",
        ok,
        f"{violations} violations over {len(history)} logged steps",
    )


def test_criterion_4_alignment_breakdown(default_world):
    start = time.perf_counter()
    w = default_world
    ood_images, ood_labels = w.sample_split(w.ood_ids, per_class=1000, seed=501)
    seen_images, seen_labels = w.sample_split(w.seen_ids, per_class=200, seed=502)
    # The frozen model: an untrained session with blind-token names, no fusion.
    frozen = TrainingSession(
        w, SessionSettings(disable_name_agent=True, disable_text_context=True)
    )
    ood_acc = frozen.evaluate(ood_images, ood_labels, w.ood_ids)["ood"]
    seen_acc = frozen.evaluate(seen_images, seen_labels, w.seen_ids)["seen"]
    bayes = w.bayes_oracle_accuracy(ood_images, ood_labels, w.ood_ids)
    elapsed = time.perf_counter() - start
    chance = 1.0 / len(w.ood_ids)
    ok = (
        abs(ood_acc - chance) <= 0.03
        and seen_acc >= 0.95
        and bayes >= 0.99
        and elapsed < 60.0
    )
    _criterion(
        4,
        "alignment-breakdown reproduction",
        ok,
        f"ood {ood_acc:.4f} (chance {chance:.2f} +/- 0.03), seen {seen_acc:.4f} (>= 0.95), "
        f"bayes {bayes:.4f} (>= 0.99), {len(ood_images)} ood images, {elapsed:.1f}s",
    )


def test_criterion_5_adaptation_effectiveness(sweep, default_world):
    result, elapsed = sweep
    lr = _best_lr(result)
    means = _shot_means(result, lr)
    adjacent_ok = all(
        means[b] >= means[a] - 0.01
        for a, b in zip(SWEEP_CONFIG.shots, SWEEP_CONFIG.shots[1:])
    )
    ids = default_world.ood_ids
    bayes_images, bayes_labels = default_world.sample_split(ids, per_class=200, seed=503)
    bayes = default_world.bayes_oracle_accuracy(bayes_images, bayes_labels, ids)
    ok = (
        means[16] >= 0.90
        and means[0] <= 0.13
        and adjacent_ok
        and bayes >= 0.99
        and not result.failed_cells()
        and elapsed < 600.0
    )
    trend = " -> ".join(f"{means[s]:.3f}" for s in SWEEP_CONFIG.shots)
    _criterion(
        5,
        "adaptation effectiveness",
        ok,
        f"lr {lr:g}, ood by shot {trend} (16-shot >= 0.90, nondecreasing within 1 pt), "
        f"bayes {bayes:.4f}, sweep {elapsed:.0f}s (< 600 s)",
    )


def test_criterion_6_seen_concept_retention(sweep):
    result, _ = sweep
    lr = _best_lr(result)
    sc = _shot_means(result, lr, metric="sc_acc")
    ok = sc[16] >= sc[0] - 0.02
    _criterion(
        6,
        "seen-concept retention",
        ok,
        f"seen accuracy frozen {sc[0]:.4f} vs adapted {sc[16]:.4f} (drop <= 2 pts)",
    )


def test_criterion_7_ablation_directionality(ablation_suite):
    drops = {flag: res.delta_by_shot()[16] for flag, res in ablation_suite.items()}
    name_drop = drops["disable_name_agent"]
    others = {k: v for k, v in drops.items() if k != "disable_name_agent"}
    worst_other = max(others.values())
    ok = name_drop > worst_other
    ranked = ", ".join(f"{k.replace('disable_', '')}={v:+.3f}" for k, v in sorted(drops.items(), key=lambda kv: -kv[1]))
    _criterion(
        7,
        "ablation directionality",
        ok,
        f"name-agent drop {name_drop:+.3f} vs next worst {worst_other:+.3f}; {ranked}",
    )


def test_criterion_8_determinism(tmp_path):
    config = replace(
        SWEEP_CONFIG, shots=(0, 4), seeds=(0, 1), lrs=(1e-3,), epochs=100,
        n_test_per_class=100,
    )
    texts = []
    for name in ("first", "second"):
        result = run_few_shot(config)
        paths = emit_metrics(result, tmp_path / name)
        texts.append(paths["results"].read_text())

    def drop_wall(text):
        return "\n".join(",".join(line.split(",")[:-1]) for line in text.splitlines())

    ok = drop_wall(texts[0]) == drop_wall(texts[1])
    _criterion(
        8,
        "determinism",
        ok,
        "results.csv byte-identical across reruns (wall_time column excluded)",
    )


def test_criterion_9_residual_detach_semantics(default_world):
    rng = np.random.default_rng(0)
    agent = ImageAgent(default_world.gen_map, SessionSettings(), np.random.default_rng(1))
    x = Tensor(rng.normal(size=(6, default_world.config.image_dim)), requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_all(agent.encode_robust(x))
    backward(tape, loss)
    grad_robust = x.grad.copy()
    with Tape() as tape:
        loss = ad.sum_all(ad.l2_normalize_rows(agent.encode_standard(x)))
    backward(tape, loss)
    residual_blocked = np.array_equal(grad_robust, x.grad)

    alpha_zero = agent.encode_robust(x, alpha=0.0)
    normalized = ad.l2_normalize_rows(agent.encode_standard(x))
    reduction = float(np.max(np.abs(alpha_zero.data - normalized.data)))
    ok = residual_blocked and reduction <= 1e-12
    _criterion(
        9,
        "residual detach semantics",
        ok,
        f"residual gradient exactly blocked: {residual_blocked}; "
        f"alpha=0 reduction max dev {reduction:.3g} (<= 1e-12)",
    )
