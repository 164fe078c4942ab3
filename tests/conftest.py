"""Session-scoped runs that several test modules read: the acceptance sweep,
the ablation suite and criterion 1's gradient check each run once per test
session, and both the acceptance criteria and the pinned outputs read them.
Each fixture returns what its ``run_`` function returns."""

import tempfile
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


def pytest_configure(config):
    """Generated cases (``test_properties``) are drawn from a fixed seed, and
    no example database is written.  The seed alone does not fix the cases:
    when it collects, Hypothesis also harvests the literals of the local
    modules under ``src/`` and ``tests/`` and draws them as candidate values,
    so editing a literal there (a planted defect too) can change the cases;
    with the source unchanged, every run draws the same ones.  That cache of
    literals goes to a directory removed when the session ends, not into the
    checkout."""
    try:
        from hypothesis import settings
        from hypothesis.configuration import set_hypothesis_home_dir
    except ImportError:  # ``test_properties`` then skips itself
        return
    settings.register_profile(
        "tier1", derandomize=True, max_examples=200, deadline=None, database=None
    )
    settings.load_profile("tier1")
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)
