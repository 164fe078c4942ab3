"""Session-scoped runs that several test modules read: the acceptance sweep,
the ablation suite and criterion 1's gradient check each run once per test
session, and both the acceptance criteria and the pinned outputs read them.
Each fixture returns what its ``run_`` function returns."""

import time
from dataclasses import replace

import pytest

from namelearn.harness import ExperimentConfig, run_ablation, run_few_shot
from namelearn.selfcheck import full_loss_grad_checks

SWEEP_CONFIG = ExperimentConfig()  # default world, shots 0..16, 3 seeds, 3 lrs


def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def run_sweep():
    """Criterion 5's sweep and its wall time in seconds."""
    return timed(run_few_shot, SWEEP_CONFIG)


def run_suite():
    """Criterion 7's suite: every arm at 16 shots against one full-model arm."""
    config = replace(SWEEP_CONFIG, shots=(16,), lrs=(1e-3,), n_test_per_class=100)
    return run_ablation(config)


def run_criterion_1():
    """Criterion 1's 20-batch gradient check and its wall time in seconds."""
    return timed(full_loss_grad_checks, 20)


@pytest.fixture(scope="session")
def sweep():
    return run_sweep()


@pytest.fixture(scope="session")
def ablation_suite():
    return run_suite()


@pytest.fixture(scope="session")
def criterion_1():
    return run_criterion_1()
