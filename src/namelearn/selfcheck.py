"""Verification suites: gradient checking and loss-oracle equivalence.

These run both under pytest (acceptance tests) and from the command line
(`selftest`).  The full-model gradient check exercises the complete training
loss — name embeddings through context fusion, temperature, balancing weights
and classification head — against central differences on a small world.  The
image agent's difficulty scorer is fixed, not learnable, so it is not
perturbed.  Each loss evaluation is one ``bus.run_round``, looked up on the
``bus`` module at call time, so a patch of ``namelearn.bus.run_round`` sees
every evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import bus
from .autodiff import Tensor, grad_check
from .coordinator import (
    classification_loss,
    contrastive_loss,
    similarity_matrix,
    weighted_total,
)
from .session import SessionSettings, TrainingSession
from .world import WorldConfig, build_world

CHECK_WORLD = WorldConfig(
    embed_dim=8, image_dim=12, n_seen=2, n_ood=2, vocab_size=48, seed=0
)


@dataclass
class SuiteReport:
    name: str
    worst: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.worst < self.bound

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"{verdict} {self.name}: worst={self.worst:.3g} bound={self.bound:g}"


def composite_grad_checks(n_seeds: int = 20, eps: float = 1e-5) -> SuiteReport:
    """Random composite expressions over the op set, fused ops included, vs
    central differences."""
    worst = 0.0
    for seed in range(n_seeds):
        rng = np.random.default_rng(seed)
        n, d, h = 3, 4, 5
        x = Tensor(rng.normal(size=(n, d)), requires_grad=True)
        w = Tensor(rng.normal(size=(d, h)), requires_grad=True)
        b = Tensor(rng.normal(size=h), requires_grad=True)
        idx = rng.integers(0, h, size=n)
        # Loss-weight parameters inside their clip bands, 0.05 from each edge.
        p_con = Tensor(np.asarray(rng.uniform(0.55, 1.95)), requires_grad=True)
        p_cls = Tensor(np.asarray(rng.uniform(0.15, 0.95)), requires_grad=True)

        def f(xp, wp, bp, pc, pk):
            m = ad.relu(ad.add(ad.matmul(xp, wp), bp))
            m = ad.l2_normalize_rows(ad.add(m, Tensor(np.full((n, h), 0.3))))
            ls = ad.log_softmax_rows(ad.mul(m, m))
            picked = ad.pick_per_row(ls, idx)
            pooled = ad.concat_cols(ad.mean_rows(m), ad.mean_rows(ad.transpose(ls)))
            # The fused ops: affine, blend, similarity_matrix, weighted_total.
            s = similarity_matrix(ad.blend(ad.affine(xp, wp, bp), m, 0.7), m)
            total, _ = weighted_total(
                ad.sum_all(ad.sigmoid(picked)), ad.sum_all(ad.mul(s, s)), (pc, pk)
            )
            return ad.add(total, ad.sum_all(ad.clip(pooled, -0.4, 0.4)))

        worst = max(worst, grad_check(f, [x, w, b, p_con, p_cls], eps=eps))
    return SuiteReport("composite-expression gradient check", worst, 1e-4)


def full_loss_grad_checks(n_batches: int = 20, eps: float = 1e-5) -> SuiteReport:
    """The complete training loss on 4-sample batches vs central differences.

    Every learnable participates: name vectors, fusion weights, temperature,
    balancing weights, classification head.
    """
    world = build_world(CHECK_WORLD)
    worst = 0.0
    for batch_seed in range(n_batches):
        session = TrainingSession(world, SessionSettings(), seed=batch_seed)
        shots = {
            cid: world.sample_images(cid, 2, seed=1000 + batch_seed)
            for cid in world.ood_ids
        }
        batch = session.build_batch(session.prepare_shots(shots), epoch=batch_seed)
        params = session.trainable_parameters()

        def f(*_params):
            return bus.run_round(session.bus, batch)[0]

        worst = max(worst, grad_check(f, params, eps=eps))
    return SuiteReport("full training-loss gradient check", worst, 1e-4)


def contrastive_oracle_suite(n_batches: int = 100) -> SuiteReport:
    """The grouped ``(N, U)`` contrastive loss vs a per-element double loop
    over its expanded definition: the ``(N, N)`` matrix whose column j is
    column ``y[j]`` of the scores, with the targets on its diagonal."""
    worst = 0.0
    for seed in range(n_batches):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 17))
        u = int(rng.integers(1, n + 1))
        # Every column used, some of them by several images.
        y = rng.permutation(np.concatenate([np.arange(u), rng.integers(0, u, size=n - u)]))
        s = rng.normal(scale=2.0, size=(n, u))
        tau = float(rng.uniform(0.5, 2.0))
        ours = contrastive_loss(Tensor(s), y, tau).item()
        naive = 0.0
        for i in range(n):
            den_row = sum(math.exp(s[i][y[j]] / tau) for j in range(n))
            den_col = sum(math.exp(s[j][y[i]] / tau) for j in range(n))
            target = math.exp(s[i][y[i]] / tau)
            naive += math.log(target / den_row) + math.log(target / den_col)
        naive = -naive / (2 * n)
        worst = max(worst, abs(ours - naive))
    return SuiteReport("grouped contrastive loss vs expanded double-loop oracle", worst, 1e-9)


def classification_oracle_suite(n_batches: int = 100) -> SuiteReport:
    """Batched cross-entropy vs a scalar-by-scalar oracle."""
    worst = 0.0
    for seed in range(n_batches):
        rng = np.random.default_rng(seed)
        n, d, c = int(rng.integers(1, 9)), 6, int(rng.integers(2, 7))
        feats = rng.normal(size=(n, d))
        w = rng.normal(size=(d, c))
        y = rng.integers(0, c, size=n)
        ours = classification_loss(Tensor(feats), Tensor(w), y).item()
        logits = feats @ w
        naive = 0.0
        for i in range(n):
            den = sum(math.exp(v) for v in logits[i])
            naive += math.log(math.exp(logits[i][y[i]]) / den)
        naive = -naive / n
        worst = max(worst, abs(ours - naive))
    return SuiteReport("classification loss vs scalar oracle", worst, 1e-9)


def run_selftest(verbose: bool = True) -> bool:
    reports = [
        composite_grad_checks(),
        full_loss_grad_checks(),
        contrastive_oracle_suite(),
        classification_oracle_suite(),
    ]
    for report in reports:
        if verbose:
            print(report.line())
    return all(r.passed for r in reports)
