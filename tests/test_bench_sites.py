"""Everything the benchmark calls in the package is where it looks for it.

``bench/spans.py`` wraps each ``SPAN_SITES`` entry by reading
``vars(owner)[attribute]``, and ``bench/run_bench.py`` builds each workload's
``ExperimentConfig`` and first session through ``settings()``.  A refactor
that moves or renames one of those would otherwise only fail when the
benchmark runs.  One traced tiny pass also covers what the tracer reads
inside the package (``bus.log``, ``LogRecord.values``, tape entries).
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from namelearn.session import TrainingSession

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


RUN_BENCH = load("run_bench")


def test_every_span_site_is_an_own_attribute_of_its_owner():
    spans = load("spans")
    missing = []
    for name, sites in spans.SPAN_SITES.items():
        for module, cls, attr in sites:
            try:
                found = callable(vars(spans._owner(module, cls)).get(attr))
            except (ImportError, AttributeError):
                found = False
            if not found:
                missing.append(f"{name}: {module}.{cls or ''}{'.' if cls else ''}{attr}")
    assert spans.SPAN_SITES
    assert not missing, missing


@pytest.mark.parametrize("workload", RUN_BENCH.WORKLOADS)
def test_every_workload_config_sets_up_a_session(workload):
    config = RUN_BENCH.experiment(workload, 0, tiny=True)
    assert isinstance(RUN_BENCH.set_up(config), TrainingSession)


def test_traced_tiny_bench_pass(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(str(BENCH))  # run_bench imports spans by name
    monkeypatch.setattr(RUN_BENCH, "OUT", tmp_path)
    argv = ["--workload", "default16", "--seed", "0", "--seconds", "1", "--trace", "1", "--tiny"]
    code = RUN_BENCH.main(argv)
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert last["correct"] is True
    assert last["failed"] == 0
