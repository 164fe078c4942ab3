"""Every function the benchmark's recorders patch is where they look for it.

``bench/spans.py`` wraps each ``SPAN_SITES`` entry by reading
``vars(owner)[attribute]``, so a refactor that moves or renames one of those
functions would otherwise only fail when the benchmark runs.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_site_is_an_own_attribute_of_its_owner():
    spans = load_spans()
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
