import numpy as np
import pytest

from namelearn import selfcheck
from namelearn.name_agent import load_name_table, save_name_table
from namelearn.session import SessionSettings, TrainingSession
from namelearn.world import WorldConfig, build_world

SMALL = WorldConfig(embed_dim=16, image_dim=24, n_seen=4, n_ood=3, vocab_size=64, seed=7)


@pytest.fixture(scope="module")
def world():
    return build_world(SMALL)


def shots_for(world, k=4, seed=31):
    return {cid: world.sample_images(cid, k, seed=seed) for cid in world.ood_ids}


def scorer_weights(session):
    est = session.image_agent.estimator
    return [est.w1, est.b1, est.w2, est.b2]


def test_frozen_parameters_bit_identical_after_training(world):
    session = TrainingSession(world, SessionSettings(), seed=0)
    vocab_before = world.vocab.tobytes()
    visual_before = session.image_agent.frozen_visual.data.tobytes()
    mixer_before = world.mixer_in.tobytes()
    session.train(shots_for(world), epochs=100, lr=1e-3)
    assert world.vocab.tobytes() == vocab_before
    assert session.image_agent.frozen_visual.data.tobytes() == visual_before
    assert world.mixer_in.tobytes() == mixer_before


def test_name_embeddings_receive_nonzero_gradient(world):
    session = TrainingSession(world, SessionSettings(), seed=0)
    from namelearn.autodiff import Tape, backward
    from namelearn.bus import run_round

    batch = session.build_batch(shots_for(world), epoch=0)
    with Tape() as tape:
        total = run_round(session.bus, batch).total
    backward(tape, total)
    grads = [
        np.abs(session.table.weight.grad[session.table.row(cid)]).max()
        for cid in world.ood_ids
    ]
    assert len(grads) == len(world.ood_ids)
    assert all(g > 0.0 for g in grads)


def test_default_step_is_batched():
    # One pooled-prompt block and one text-feature block per round, not one
    # small graph and two messages per prompt.
    from namelearn.autodiff import Tape
    from namelearn.bus import run_round

    world = build_world(WorldConfig())
    session = TrainingSession(world, SessionSettings(), seed=0)
    batch = session.build_batch(shots_for(world, k=16), epoch=0)
    with Tape() as tape:
        run_round(session.bus, batch)
    assert len(tape) <= 60
    assert len(session.bus.log) == 5


def test_training_moves_only_declared_learnables(world):
    session = TrainingSession(world, SessionSettings(), seed=1)
    before = {id(p): p.data.copy() for p in session.trainable_parameters()}
    scorer = {w.name: w.data.copy() for w in scorer_weights(session)}
    session.train(shots_for(world), epochs=30, lr=1e-3)
    moved = [
        not np.array_equal(p.data, before[id(p)]) for p in session.trainable_parameters()
    ]
    # Every name vector must move; the fixed difficulty scorer has no loss
    # path and is not handed to the optimizer.
    names = session.table.weight
    assert np.all(np.any(names.data != before[id(names)], axis=1))
    assert all(np.array_equal(w.data, scorer[w.name]) for w in scorer_weights(session))
    assert any(moved)


def test_difficulty_scorer_is_not_trainable(world):
    session = TrainingSession(world, SessionSettings(), seed=0)
    names = [p.name for p in session.trainable_parameters()]
    assert not [n for n in names if n and n.startswith("difficulty.")]
    assert not any(w.requires_grad for w in scorer_weights(session))


def test_criterion_1_perturbs_only_learnable_coordinates(monkeypatch):
    coords = []

    def counting_grad_check(f, params, eps):
        coords.append(sum(p.data.size for p in params))
        return 0.0

    monkeypatch.setattr(selfcheck, "grad_check", counting_grad_check)
    selfcheck.full_loss_grad_checks(n_batches=2)
    assert coords == [243, 243]


def test_training_is_deterministic(world):
    results = []
    for _ in range(2):
        session = TrainingSession(world, SessionSettings(), seed=3)
        history = session.train(shots_for(world), epochs=20, lr=1e-3)
        results.append([b.total for b in history])
    assert results[0] == results[1]


def test_step_log_format(world, tmp_path):
    session = TrainingSession(world, SessionSettings(), seed=0)
    session.train(shots_for(world), epochs=5, lr=1e-3)
    path = tmp_path / "steps.csv"
    session.write_step_log(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,l_con,l_cls,w_con,w_cls,tau,total,lr"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[-1]) == 1e-3


def test_tau_stays_in_band_for_a_full_run(world):
    session = TrainingSession(world, SessionSettings(), seed=0)
    session.train(shots_for(world), epochs=60, lr=1e-3)
    for rec in session.step_records:
        assert 0.5 <= rec.breakdown.tau <= 2.0
        assert 0.5 <= rec.breakdown.w_con_num <= 2.0
        assert 0.1 <= rec.breakdown.w_cls_num <= 1.0


def test_evaluate_reports_per_split_accuracy(world):
    session = TrainingSession(world, SessionSettings(), seed=0)
    ids = world.seen_ids + world.ood_ids
    images, labels = world.sample_split(ids, per_class=20, seed=40)
    out = session.evaluate(images, labels, ids)
    assert set(out) == {"overall", "seen", "ood"}
    assert out["seen"] >= 0.95  # frozen alignment intact before training
    assert out["ood"] <= 0.35  # broken alignment for held-out names


def test_untrained_ood_only_eval_is_chance(world):
    session = TrainingSession(world, SessionSettings(), seed=0)
    images, labels = world.sample_split(world.ood_ids, per_class=60, seed=41)
    out = session.evaluate(images, labels, world.ood_ids)
    assert abs(out["ood"] - 1.0 / len(world.ood_ids)) <= 0.03


def test_adaptation_learns_held_out_concepts(world):
    # At this tiny scale the in-batch repulsion cannot force text features all
    # the way past the seen-class prototypes, so adaptation is asserted on the
    # held-out label space; full joint-space mastery is a default-scale claim
    # covered by the acceptance suite.
    session = TrainingSession(world, SessionSettings(), seed=0)
    ids = world.seen_ids + world.ood_ids
    images, labels = world.sample_split(ids, per_class=30, seed=42)
    ood_images, ood_labels = world.sample_split(world.ood_ids, per_class=30, seed=46)
    before_joint = session.evaluate(images, labels, ids)
    before_ood = session.evaluate(ood_images, ood_labels, world.ood_ids)
    session.train(shots_for(world, k=8, seed=43), epochs=200, lr=1e-3)
    after_joint = session.evaluate(images, labels, ids)
    after_ood = session.evaluate(ood_images, ood_labels, world.ood_ids)
    assert before_ood["ood"] <= 0.4
    assert after_ood["ood"] >= 0.9
    assert after_joint["seen"] >= before_joint["seen"] - 0.02


def test_disable_name_agent_blocks_ood_learning(world):
    session = TrainingSession(world, SessionSettings(disable_name_agent=True), seed=0)
    names_before = session.table.weight.data.copy()
    session.train(shots_for(world, k=8, seed=44), epochs=100, lr=1e-3)
    # The table is built, but no prompt selects a row and Adam never sees it.
    assert all(p is not session.table.weight for p in session.trainable_parameters())
    assert np.array_equal(session.table.weight.data, names_before)
    images, labels = world.sample_split(world.ood_ids, per_class=40, seed=45)
    out = session.evaluate(images, labels, world.ood_ids)
    assert abs(out["ood"] - 1.0 / len(world.ood_ids)) <= 0.05


def test_disable_text_context_leaves_fusion_out_of_training(world):
    session = TrainingSession(world, SessionSettings(disable_text_context=True), seed=0)
    fusion = {id(p) for p in session.text_agent.parameters()}
    assert fusion
    assert not fusion & {id(p) for p in session.trainable_parameters()}


def test_disable_context_exchange_keeps_native_templates_only(world):
    session = TrainingSession(world, SessionSettings(disable_context_exchange=True), seed=0)
    by_id = {t.template_id: t for t in world.templates}
    assert sorted(session.prompt_pools) == world.ood_ids
    for cid, pool in session.prompt_pools.items():
        (tid,) = pool
        assert by_id[tid].category_affinity == world.concept(cid).family


def test_render_audit_never_uses_ood_frozen_tokens(world):
    session = TrainingSession(world, SessionSettings(), seed=0)
    assert session.training_token_audit() == set()  # nothing rendered yet
    session.train(shots_for(world), epochs=10, lr=1e-3)
    ood_tokens = {world.concept(cid).name_token for cid in world.ood_ids}
    assert session.training_token_audit() & ood_tokens == set()


def test_disable_difficulty_equals_full_model_where_scorer_routes_robust():
    # The neutral score 0.5 routes robust (the threshold is inclusive), so the
    # arm changes nothing on a world whose scorer already routes robust.
    world = build_world(WorldConfig(seed=0))
    shots = shots_for(world, k=16, seed=16)
    full = TrainingSession(world, SessionSettings(), seed=0)
    ablated = TrainingSession(world, SessionSettings(disable_difficulty=True), seed=0)
    _, difficulty, strategy = full.image_agent.encode(full.build_batch(shots, 0).images)
    assert strategy == "robust"
    assert difficulty == pytest.approx(0.5229, abs=1e-4)
    assert ablated.image_agent.encode(ablated.build_batch(shots, 0).images)[2] == "robust"
    full_totals = [b.total for b in full.train(shots, epochs=5, lr=1e-3)]
    ablated_totals = [b.total for b in ablated.train(shots, epochs=5, lr=1e-3)]
    assert full_totals == ablated_totals
    assert [p.data.tobytes() for p in full.trainable_parameters()] == [
        p.data.tobytes() for p in ablated.trainable_parameters()
    ]


def test_name_table_rows_are_the_class_labels(world):
    # One row per held-out concept, in ascending id; a pair's label is its
    # concept's row.
    session = TrainingSession(world, SessionSettings(), seed=0)
    assert session.table.concept_ids == world.ood_ids
    batch = session.build_batch(shots_for(world), epoch=1)
    assert len(batch.class_labels) == batch.size
    for label, (cid, _) in zip(batch.class_labels, batch.prompt_plan):
        assert label == session.table.row(cid)


def test_trained_name_table_checkpoint_roundtrip(world, tmp_path):
    session = TrainingSession(world, SessionSettings(), seed=0)
    session.train(shots_for(world), epochs=5, lr=1e-3)
    path = tmp_path / "names.bin"
    save_name_table(session.table, path, world_seed=world.config.seed)
    loaded, seed = load_name_table(path)
    assert seed == world.config.seed
    assert loaded.concept_ids == session.table.concept_ids
    assert loaded.weight.data.tobytes() == session.table.weight.data.tobytes()
