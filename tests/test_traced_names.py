"""The benchmark traces package functions by name; every name must resolve.

``perfbench/spans.py`` wraps each function it lists in ``TRACED`` from the
outside.  A refactor that renames or drops one of them would only fail in
the benchmark, so this test makes it fail here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).parent.parent / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(layer, fn) for layer, fns in spans.TRACED.items() for fn in fns]


@pytest.mark.parametrize("layer,fn", _traced())
def test_traced_name_resolves_to_a_callable(layer, fn):
    module = importlib.import_module(f"fblearn.{layer}")
    owner = module.BasisSet if (layer, fn) == ("basis", "features") else module
    assert callable(getattr(owner, fn, None))
