import re
import tracemalloc
from collections.abc import Mapping

import numpy as np
import pytest

from namelearn import selfcheck
from namelearn.autodiff import Tape, Tensor, backward
from namelearn.bus import AgentId, run_round
from namelearn.harness import ABLATION_FLAGS
from namelearn.name_agent import load_name_table, save_name_table
from namelearn.session import SessionSettings, TrainingSession, write_step_log
from namelearn.world import WorldConfig, build_world

SMALL = WorldConfig(embed_dim=16, image_dim=24, n_seen=4, n_ood=3, vocab_size=64, seed=7)


@pytest.fixture(scope="module")
def world():
    return build_world(SMALL)


def shots_for(world, k=4, seed=31):
    return {cid: world.sample_images(cid, k, seed=seed) for cid in world.ood_ids}


def built_batch(session, shots, epoch):
    """Epoch ``epoch``'s batch over freshly prepared shots."""
    return session.build_batch(session.prepare_shots(shots), epoch)


def delivered(session):
    """The current round's payloads in the coordinator's inbox."""
    return session.bus._inboxes[AgentId.COORDINATOR]


def scorer_weights(session):
    est = session.image_agent.estimator
    return [est.w1, est.b1, est.w2, est.b2]


def ungraded_after_one_round(session, shots):
    """Names of the learnables one taped training round gives no gradient."""
    with Tape() as tape:
        total, _ = run_round(session.bus, built_batch(session, shots, 0))
    backward(tape, total)
    names = [p.name for p in session.trainable_parameters() if p.grad is None]
    for p in session.trainable_parameters():
        p.grad = None
    return names


@pytest.mark.parametrize("flag", [None, *ABLATION_FLAGS], ids=lambda f: f or "default")
def test_no_tape_entry_lists_a_frozen_operand(world, flag):
    """Only what learns goes on the tape: in a taped round of every arm, no
    entry lists a frozen mixer layer, the image features or the visual
    context among its inputs."""
    session = TrainingSession(world, SessionSettings(**({flag: True} if flag else {})), seed=0)
    batch = built_batch(session, shots_for(world), 0)
    with Tape() as tape:
        run_round(session.bus, batch)
    sent = batch.run[session.image_agent]
    frozen = [*session.text_agent.mixer, sent["image_features"], sent["visual_context"]]
    assert delivered(session)["image_features"] is sent["image_features"]
    inputs = {id(t) for _, entry_inputs, _ in tape.entries for t in entry_inputs}
    assert len(tape) > 0 and not inputs & {id(t) for t in frozen}


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
    batch = built_batch(session, shots_for(world), 0)
    with Tape() as tape:
        total, _ = run_round(session.bus, batch)
    backward(tape, total)
    grads = [
        np.abs(session.table.weight.grad[session.table.index[cid]]).max()
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
    batch = built_batch(session, shots_for(world, k=16), 0)
    with Tape() as tape:
        run_round(session.bus, batch)
    assert len(tape) <= 60
    assert len(session.bus.log) == 4


def test_transpose_is_a_view_and_a_default_step_records_4_entries():
    # Transpose hands back a view, the form similarity_matrix multiplies by,
    # so a product with it is numpy's x @ y.T; a default step records 2 name
    # entries, 1 text entry and 1 coordinator entry, the total loss.
    from namelearn import autodiff as ad
    from namelearn.autodiff import Tape, Tensor
    from namelearn.bus import run_round

    a = Tensor(np.arange(6.0).reshape(2, 3))
    assert np.shares_memory(ad.transpose(a).data, a.data)
    world = build_world(WorldConfig())
    session = TrainingSession(world, SessionSettings(), seed=0)
    batch = built_batch(session, shots_for(world, k=16), 0)
    with Tape() as tape:
        run_round(session.bus, batch)
    assert (batch.size, len(tape)) == (160, 4)


def test_default_step_fixed_cost_in_python_calls():
    """Python-level calls per ``default16`` train step (round, backward and
    Adam), counted by cProfile over 30 steps on prepared batches.  With numpy
    fixed the count does not vary from run to run.  About 7 of the 172 counted
    calls run inside numpy's own Python code (``ones_like``, ``_all``, the
    ``concatenate`` dispatcher), so a numpy upgrade can move the count.  The
    count sums the profiler's own entries: ``pstats`` merges code that shares
    a file, line and name (the dataclass ``__init__``s generated in
    ``<string>``)."""
    import cProfile

    from namelearn.coordinator import Adam

    world = build_world(WorldConfig())
    session = TrainingSession(world, SessionSettings(), seed=0)
    shots = shots_for(world, k=16)
    prepared = session.prepare_shots(shots)
    batches = [session.build_batch(prepared, epoch) for epoch in range(3)]
    optimizer = Adam(session.trainable_parameters(), 1e-3)
    for batch in batches:  # first-call work inside numpy
        session.train_step(batch, optimizer)
    profile = cProfile.Profile()
    profile.enable()
    for step in range(30):
        session.train_step(batches[step % 3], optimizer)
    profile.disable()
    entries = profile.getstats()
    steps = sum(e.callcount for e in entries if getattr(e.code, "co_name", None) == "train_step")
    assert steps == 30
    calls = sum(e.callcount for e in entries)
    assert calls / steps <= 193, calls / steps


def test_default_round_scores_each_distinct_prompt_once():
    from namelearn.bus import run_round

    world = build_world(WorldConfig())
    session = TrainingSession(world, SessionSettings(), seed=0)
    batch = built_batch(session, shots_for(world, k=16), 0)
    run_round(session.bus, batch)
    d = world.config.embed_dim
    blocks = {r.label: r.shape for r in session.bus.log}
    assert batch.size == 160
    assert blocks["prompts"] == blocks["text_features"] == (30, d)
    assert delivered(session)["text_features"].shape == (30, d)
    assert len(set(batch.prompts)) == len(batch.prompts) == 30
    assert all(batch.prompts[batch.prompt_index[i]] == batch.prompt_plan[i] for i in range(160))


def test_hard_world_step_stays_batched():
    from namelearn.autodiff import Tape
    from namelearn.bus import run_round

    hard = WorldConfig(
        embed_dim=16, image_dim=32, n_seen=20, n_ood=20, noise_sigma=0.1, min_separation=0.2
    )
    world = build_world(hard)
    session = TrainingSession(world, SessionSettings(), seed=0)
    batch = built_batch(session, shots_for(world, k=16), 0)
    with Tape() as tape:
        run_round(session.bus, batch)
    assert (batch.size, len(batch.prompts)) == (320, 60)
    assert len(tape) <= 60


def test_image_side_is_encoded_once_per_prepared_batch(world, monkeypatch):
    from namelearn import image_agent
    from namelearn.bus import run_round

    session = TrainingSession(world, SessionSettings(), seed=0)
    calls = []
    encoder = image_agent.frozen_visual_features

    def counting(images, weights):
        calls.append(weights is session.image_agent.frozen_visual)
        return encoder(images, weights)

    monkeypatch.setattr(image_agent, "frozen_visual_features", counting)
    shots = shots_for(world)
    prepared = session.prepare_shots(shots)
    batch = session.build_batch(prepared, epoch=0)
    session.build_batch(prepared, epoch=1)  # a batch builds only its prompt side
    assert sum(calls) == 1
    run_round(session.bus, batch)
    first = delivered(session)["image_features"]
    run_round(session.bus, batch)
    assert sum(calls) == 1  # rounds send what the batch holds
    assert delivered(session)["image_features"] is first
    assert len(session.bus.log) == 4
    # Evaluation encodes its own images; the prepared batch keeps its payloads.
    images = np.concatenate([world.sample_images(cid, 3, seed=5) for cid in world.ood_ids])
    labels = np.repeat(world.ood_ids, 3)
    session.evaluate(images, labels, world.ood_ids)
    assert sum(calls) == 2
    run_round(session.bus, batch)
    assert delivered(session)["image_features"] is first
    run_round(session.bus, built_batch(session, shots_for(world, seed=32), 0))
    assert sum(calls) == 3
    # A training run encodes its shots once, for all its distinct batches.
    session.train(shots, epochs=7, lr=1e-3)
    assert sum(calls) == 3 + 1


def test_session_keeps_the_training_runs_context(world):
    from namelearn.image_agent import ImageAgent

    session = TrainingSession(world, SessionSettings(), seed=0)
    assert session.shots is None
    for seed in (31, 32):  # each run replaces the last one's
        shots = shots_for(world, seed=seed)
        session.train(shots, epochs=2, lr=1e-3)
        images = np.concatenate([shots[cid] for cid in sorted(shots)])
        features = session.image_agent.encode(images)[0]
        context = session.shots.image["visual_context"]
        assert np.array_equal(context.data, ImageAgent.emit_visual_context(features).data)
    batches = [session.build_batch(session.shots, epoch) for epoch in range(3)]
    assert all(b.run[session.image_agent] is session.shots.image for b in batches)


def test_training_on_a_concept_not_held_out_names_it(world):
    from namelearn.name_agent import MissingNameEmbeddingError

    session = TrainingSession(world, SessionSettings(), seed=0)
    seen = world.seen_ids[0]
    shots = {**shots_for(world), seen: world.sample_images(seen, 2, seed=1)}
    with pytest.raises(MissingNameEmbeddingError, match=f"no name embedding for concept {seen}"):
        session.train(shots, epochs=1, lr=1e-3)
    assert session.shots is None


def test_frozen_names_still_reject_a_concept_not_held_out(world):
    # No name table is built, but the class rows still name the concept.
    from namelearn.name_agent import MissingNameEmbeddingError

    session = TrainingSession(world, SessionSettings(disable_name_agent=True), seed=0)
    seen = world.seen_ids[0]
    with pytest.raises(MissingNameEmbeddingError, match=f"no name embedding for concept {seen}"):
        session.prepare_shots({seen: world.sample_images(seen, 2, seed=1)})


def test_training_on_no_shots_is_an_empty_batch(world):
    from namelearn.bus import EmptyBatchError

    session = TrainingSession(world, SessionSettings(), seed=0)
    with pytest.raises(EmptyBatchError, match="no shots"):
        session.train({}, epochs=1, lr=1e-3)
    with pytest.raises(EmptyBatchError, match="no shots"):
        session.prepare_shots({cid: np.zeros((0, world.config.image_dim)) for cid in world.ood_ids})
    assert session.shots is None


def test_a_round_needs_a_batch_its_own_session_prepared(world):
    from namelearn.bus import UnpreparedBatchError, run_round
    from namelearn.session import Batch

    session = TrainingSession(world, SessionSettings(), seed=0)
    built = built_batch(session, shots_for(world), 0)
    by_hand = Batch(built.prompt_plan)
    with pytest.raises(UnpreparedBatchError, match="Image agent"):
        run_round(session.bus, by_hand)
    other = TrainingSession(world, SessionSettings(), seed=0)
    with pytest.raises(UnpreparedBatchError, match="not its session's batch"):
        run_round(other.bus, built)
    total, _ = run_round(other.bus, built_batch(other, shots_for(world), 0))
    assert np.isfinite(total.item())


@pytest.mark.parametrize(
    "flag", [None, "disable_name_agent", "disable_text_context", "simple_concat_fusion"]
)
def test_prepared_values_depend_on_no_learnable(world, flag):
    # After every learnable moves, a round on the batch prepared before the
    # move gives the loss bits of a round on a batch built after it.
    from namelearn.bus import run_round

    settings = SessionSettings(**({flag: True} if flag else {}))
    session = TrainingSession(world, settings, seed=0)
    shots = shots_for(world)
    prepared = built_batch(session, shots, 1)
    before = run_round(session.bus, prepared)[0].item()
    rng = np.random.default_rng(9)
    for p in session.trainable_parameters():
        p.data += rng.normal(scale=0.05, size=p.data.shape)
    stale, stale_breakdown = run_round(session.bus, prepared)
    stale_text = delivered(session)["text_features"]
    fresh, fresh_breakdown = run_round(session.bus, built_batch(session, shots, 1))
    assert stale.item() != before
    assert stale.data.tobytes() == fresh.data.tobytes()
    assert stale_breakdown == fresh_breakdown
    assert stale_text.data.tobytes() == delivered(session)["text_features"].data.tobytes()


@pytest.mark.parametrize(
    "exchange_off, epochs, period", [(False, 7, 3), (True, 7, 1), (False, 2, 3)],
    ids=["exchange_period_3", "no_exchange_period_1", "fewer_epochs_than_period"],
)
def test_train_builds_each_distinct_batch_once(world, monkeypatch, exchange_off, epochs, period):
    from namelearn.coordinator import Adam

    settings = SessionSettings(disable_context_exchange=exchange_off)
    shots = shots_for(world)
    trained = TrainingSession(world, settings, seed=0)
    assert {len(pool) for pool in trained.prompt_pools.values()} == {period}
    built = []
    build_batch = TrainingSession.build_batch

    def counting(self, shots_by_class, epoch):
        built.append(epoch)
        return build_batch(self, shots_by_class, epoch)

    monkeypatch.setattr(TrainingSession, "build_batch", counting)
    history = trained.train(shots, epochs=epochs, lr=1e-3)
    monkeypatch.undo()
    assert built == list(range(min(period, epochs)))

    by_hand = TrainingSession(world, settings, seed=0)
    optimizer = Adam(by_hand.trainable_parameters(), 1e-3)
    by_hand_history = [
        by_hand.train_step(built_batch(by_hand, shots, epoch), optimizer)
        for epoch in range(epochs)
    ]
    assert history == by_hand_history
    assert len(history) == epochs
    for a, b in zip(trained.trainable_parameters(), by_hand.trainable_parameters()):
        assert a.data.tobytes() == b.data.tobytes(), a.name


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


def test_criterion_1_runs_one_round_per_loss_evaluation(monkeypatch):
    # One taped round, then two per perturbed coordinate: a speed-up may not
    # skip coordinates or evaluations.
    from namelearn import bus

    rounds = []
    run_round = bus.run_round

    def counting(*args):
        rounds.append(1)
        return run_round(*args)

    monkeypatch.setattr(bus, "run_round", counting)
    report = selfcheck.full_loss_grad_checks(n_batches=1)
    assert len(rounds) == 1 + 2 * 243
    assert report.passed


def test_training_is_deterministic(world):
    results = []
    for _ in range(2):
        session = TrainingSession(world, SessionSettings(), seed=3)
        history = session.train(shots_for(world), epochs=20, lr=1e-3)
        results.append([b.total for b in history])
    assert results[0] == results[1]


def test_step_log_format(world, tmp_path):
    session = TrainingSession(world, SessionSettings(), seed=0)
    history = session.train(shots_for(world), epochs=5, lr=1e-3)
    path = tmp_path / "steps.csv"
    write_step_log(path, history, 1e-3)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,l_con,l_cls,w_con,w_cls,tau,total,lr"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[-1]) == 1e-3


def test_tau_stays_in_band_for_a_full_run(world):
    session = TrainingSession(world, SessionSettings(), seed=0)
    for b in session.train(shots_for(world), epochs=60, lr=1e-3):
        assert 0.5 <= b.tau <= 2.0
        assert 0.5 <= b.w_con_num <= 2.0
        assert 0.1 <= b.w_cls_num <= 1.0


def test_session_memory_does_not_grow_with_epochs(world):
    # The session keeps no per-step history: what a run leaves allocated
    # after its returned history is dropped is the same at 200 and 2,000.
    # A long run also fills CPython's bounded free lists (up to 2,000 spare
    # 2-tuples, 0.1 MB), so they are filled before tracing starts.
    def retained(epochs):
        session = TrainingSession(world, SessionSettings(), seed=0)
        shots = shots_for(world)
        spare = [(i, i) for i in range(4000)]
        del spare
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            session.train(shots, epochs=epochs, lr=1e-3)
            return tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()

    assert abs(retained(2000) - retained(200)) <= 0.05 * 2**20


def test_evaluate_reports_per_split_accuracy(world):
    session = TrainingSession(world, SessionSettings(), seed=0)
    ids = world.seen_ids + world.ood_ids
    images, labels = world.sample_split(ids, per_class=20, seed=40)
    out = session.evaluate(images, labels, ids)
    assert set(out) == {"overall", "seen", "ood"}
    assert out["seen"] >= 0.95  # frozen alignment intact before training
    assert out["ood"] <= 0.35  # broken alignment for held-out names


def test_evaluate_rejects_a_label_outside_the_label_space(world):
    # Scoring held-out images against the seen classes would read 0.0.
    session = TrainingSession(world, SessionSettings(), seed=0)
    images, labels = world.sample_split(world.ood_ids, per_class=2, seed=42)
    expected = f"labels {world.ood_ids} are outside the label space {world.seen_ids}"
    with pytest.raises(ValueError, match=re.escape(expected)):
        session.evaluate(images, labels, world.seen_ids)


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
    shots = shots_for(world, k=8, seed=44)
    session.train(shots, epochs=100, lr=1e-3)
    # No name table is built: every prompt renders a frozen name token.
    assert session.table is None and session.name_agent.parameters() == []
    images, labels = world.sample_split(world.ood_ids, per_class=40, seed=45)
    out = session.evaluate(images, labels, world.ood_ids)
    assert abs(out["ood"] - 1.0 / len(world.ood_ids)) <= 0.05


FUSION = ["fusion.w3", "fusion.b3", "fusion.w4", "fusion.b4"]
SCALARS = ["tau_param", "w_con_param", "w_cls_param"]
FULL = ["name_embed", *FUSION, *SCALARS, "w_cls_head"]
# The learnables each arm builds and trains, in ``trainable_parameters`` order.
TRAINED_BY_ARM = {
    None: FULL,
    "disable_image_agent_robust": FULL,
    "disable_text_context": ["name_embed", *SCALARS, "w_cls_head"],
    "disable_name_agent": [*FUSION, *SCALARS, "w_cls_head"],
    "disable_coordinator_dynamics": ["name_embed", *FUSION, "w_cls_head"],
    "disable_context_exchange": FULL,
    "simple_concat_fusion": [
        "name_embed", "fusion.linear_w", "fusion.linear_b", *SCALARS, "w_cls_head"
    ],
    "disable_difficulty": FULL,
    "disable_dynamic_balancing": ["name_embed", *FUSION, "tau_param", "w_cls_head"],
}


@pytest.mark.parametrize("flag", [None, *ABLATION_FLAGS], ids=lambda f: f or "default")
def test_each_arm_lists_exactly_the_learnables_it_trains(world, flag):
    # Every tensor the optimizer would hold gets a gradient in a taped round.
    session = TrainingSession(world, SessionSettings(**({flag: True} if flag else {})), seed=0)
    assert [p.name for p in session.trainable_parameters()] == TRAINED_BY_ARM[flag]
    assert ungraded_after_one_round(session, shots_for(world)) == []


def held_tensors(root) -> list[Tensor]:
    """Every ``Tensor`` reachable from ``root`` through attributes and
    containers."""
    found, seen, stack = [], set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (np.ndarray, str, bytes, int, float)):
            continue
        seen.add(id(obj))
        if isinstance(obj, Tensor):
            found.append(obj)
        elif isinstance(obj, Mapping):
            stack.extend([*obj.keys(), *obj.values()])
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return found


@pytest.mark.parametrize("flag", [None, *ABLATION_FLAGS], ids=lambda f: f or "default")
def test_each_arm_holds_only_what_a_round_reads(world, flag):
    """A session, and a batch it prepared, hold no gradient-requiring tensor
    that the arm does not train, no name table where names are frozen and no
    difficulty scorer where estimation is ablated.  (A round's op outputs,
    which the bus's inboxes keep until the next round, are not learnables.)"""
    session = TrainingSession(world, SessionSettings(**({flag: True} if flag else {})), seed=0)
    batch = built_batch(session, shots_for(world), 0)
    held = held_tensors((session, batch))
    trained = {id(p) for p in session.trainable_parameters()}
    assert {id(t) for t in held if t.requires_grad} == trained
    names = {t.name for t in held if t.name}
    assert ("name_embed" in names) == (flag != "disable_name_agent")
    assert any(n.startswith("difficulty.") for n in names) == (flag != "disable_difficulty")
    assert (session.image_agent.estimator is None) == (flag == "disable_difficulty")


def test_disable_context_exchange_keeps_native_templates_only(world):
    session = TrainingSession(world, SessionSettings(disable_context_exchange=True), seed=0)
    by_id = {t.template_id: t for t in world.templates}
    assert sorted(session.prompt_pools) == world.ood_ids
    for cid, pool in session.prompt_pools.items():
        (tid,) = pool
        assert by_id[tid].category_affinity == world.concept(cid).family


def test_render_audit_never_uses_ood_frozen_tokens(world):
    session = TrainingSession(world, SessionSettings(), seed=0)
    audit = session.training_token_audit()
    assert audit  # the pools' prompts embed frozen template tokens
    session.train(shots_for(world), epochs=10, lr=1e-3)
    assert session.training_token_audit() == audit  # bounded by the fixed pools
    ood_tokens = {world.concept(cid).name_token for cid in world.ood_ids}
    assert audit & ood_tokens == set()


def test_disable_difficulty_equals_full_model_where_scorer_routes_robust():
    # The neutral score 0.5 routes robust (the threshold is inclusive), so the
    # arm changes nothing on a world whose scorer already routes robust.
    world = build_world(WorldConfig(seed=0))
    shots = shots_for(world, k=16, seed=16)
    full = TrainingSession(world, SessionSettings(), seed=0)
    ablated = TrainingSession(world, SessionSettings(disable_difficulty=True), seed=0)
    images = np.concatenate([shots[cid] for cid in sorted(shots)])
    _, difficulty, strategy = full.image_agent.encode(images)
    assert strategy == "robust"
    assert difficulty == pytest.approx(0.5229, abs=1e-4)
    assert ablated.image_agent.encode(images)[2] == "robust"
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
    assert session.table.index == session.class_rows
    shots = session.prepare_shots(shots_for(world))
    batch = session.build_batch(shots, epoch=1)
    assert len(shots.labels.index) == len(shots.pairs) == batch.size
    for label, (cid, _), (plan_cid, _) in zip(shots.labels.index, shots.pairs, batch.prompt_plan):
        assert label == session.class_rows[cid] and plan_cid == cid


def test_trained_name_table_checkpoint_roundtrip(world, tmp_path):
    session = TrainingSession(world, SessionSettings(), seed=0)
    session.train(shots_for(world), epochs=5, lr=1e-3)
    path = tmp_path / "names.bin"
    save_name_table(session.table, path, world_seed=world.config.seed)
    loaded, seed = load_name_table(path)
    assert seed == world.config.seed
    assert loaded.concept_ids == session.table.concept_ids
    assert loaded.weight.data.tobytes() == session.table.weight.data.tobytes()


def test_a_high_lr_run_ends_with_every_coordinator_scalar_outside_its_band():
    """The default world's 1-shot cell (seed 0, shots drawn as the harness
    draws them) at lr 1e-2 for 200 epochs drives all three scalars past a
    band edge: the raw temperature below its band, where its gradient is
    masked to zero, and both weight parameters outside theirs, so each
    numerator sits at an edge and the weights, in a fixed 1:2 ratio, sum to
    0.575 (ROADMAP item 12)."""
    from namelearn.coordinator import CLS_NUM_BAND, CON_NUM_BAND, TAU_BAND
    from namelearn.harness import SHOT_STREAM

    world = build_world(WorldConfig())
    session = TrainingSession(world, SessionSettings(), seed=0)
    shots = {cid: world.sample_images(cid, 1, seed=SHOT_STREAM * 0 + 1) for cid in world.ood_ids}
    last = session.train(shots, epochs=200, lr=1e-2)[-1]
    params = session.coordinator_params
    scalars = (params.tau_param, params.w_con_param, params.w_cls_param)
    raw_tau, p_con, p_cls = (p.item() for p in scalars)
    assert raw_tau == pytest.approx(0.35018409, rel=1e-6) and raw_tau < TAU_BAND[0]
    assert p_con == pytest.approx(0.49716370, rel=1e-6) and p_con < CON_NUM_BAND[0]
    assert p_cls == pytest.approx(2.11723794, rel=1e-6) and p_cls > CLS_NUM_BAND[1]
    edges = (TAU_BAND[0], CON_NUM_BAND[0], CLS_NUM_BAND[1])
    assert (last.tau, last.w_con_num, last.w_cls_num) == edges
    assert last.w_con + last.w_cls == pytest.approx(0.57517038, rel=1e-6)
    assert last.w_cls / last.w_con == pytest.approx(2.0, rel=1e-12)
