"""The benchmark builds the ``disturbance`` inputs by calling the library directly.

``perfbench/child.py::_disturbance_records`` calls ``run_episode`` with
keywords and rebuilds ``AdaptRunRecord`` from the ``.npz`` file it saved.  A
signature change to either would only fail inside the benchmark, so this
test runs that code here: it builds the records, reloads them, and checks
that every saved array comes back unchanged.
"""

import importlib.util
from pathlib import Path

import numpy as np

from fblearn.config import load_config
from fblearn.scenarios import build_scenario

PERFBENCH = Path(__file__).parent.parent / "perfbench"


def test_disturbance_records_build_and_reload(tmp_path, monkeypatch):
    # child.py imports its siblings and puts src/ on sys.path; monkeypatch restores it
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_child", PERFBENCH / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    config = load_config(PERFBENCH.parent / child.WORKLOADS["disturbance"]["config"])
    scenario = build_scenario(config)
    inputs = tmp_path / "inputs.npz"

    built = child._disturbance_records(scenario, config, 1, inputs)
    assert inputs.exists()
    loaded = child._disturbance_records(scenario, config, 1, inputs)
    assert len(built) == len(loaded) == len(child.DISTURBANCE_DTS)
    for a, b in zip(built, loaded):
        assert not a.diverged and not b.diverged
        for name in child._RECORD_ARRAYS:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
