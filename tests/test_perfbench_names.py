"""The benchmark's layer instrumentation wraps library functions by name.

``perfbench/instrument.py`` patches each ``SPANS`` entry in place, so a
library function that is renamed or deleted would break ``--trace 1`` runs
only when the benchmark is run.  These tests read the file (they change
nothing in it) and check every name against the library now.
"""

import importlib.util
from pathlib import Path

import pytest

INSTRUMENT = Path(__file__).resolve().parents[1] / "perfbench" / "instrument.py"


@pytest.fixture(scope="module")
def instrument():
    spec = importlib.util.spec_from_file_location("perfbench_instrument", INSTRUMENT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_resolves(instrument):
    for (module, qualname), stem in instrument.SPANS.items():
        _, _, fn = instrument._resolve(module, qualname)
        assert callable(fn), f"{stem}: {module.__name__}.{qualname} is not callable"


def test_counted_stems_are_spans(instrument):
    assert instrument.COUNTED <= set(instrument.SPANS.values())
