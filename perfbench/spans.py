"""Outside-in span tracing of the fblearn package modules.

The wrappers are installed from the benchmark's own files; nothing under
``src/`` knows about them.  Each wrapped call records one span (name,
start, end, parent) in flat in-memory arrays, and the spans are written to
disk once, when the run ends.  Self time is a span's duration minus the
durations of its direct children (the package is single-threaded, so child
spans never overlap).

Wrapping replaces every reference to the original function that any
``fblearn`` module holds, so ``from .plants import eval_dynamics`` in
another module is traced too.  Deferred imports inside functions resolve at
call time and pick the wrappers up.  Objects that capture a function when
they are built (the in-span plant captures ``eval_correction``) are traced
only if the wrappers are installed first, so install before
``build_scenario`` runs.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from pathlib import Path

# layer (package module) -> the public functions whose calls are traced
TRACED = {
    "config": ("load_config",),
    "scenarios": ("build_scenario",),
    "reference": ("sample_reference",),
    "plants": ("eval_dynamics", "linearizing_terms"),
    "basis": ("features", "eval_correction", "eval_learned_controller", "controller_jacobian"),
    "learning": ("step_rng", "draw_noise", "discrete_reward", "grad_log_policy",
                 "update_params", "run_episode", "run_ensemble"),
    "analysis": ("assemble_W", "ltv_matrix", "transition_matrix", "transition_norm_grid",
                 "pe_check", "fit_exponential_bound"),
    "studies": ("regressor_series", "measure_disturbances", "concentration_study",
                "bias_study"),
    "cli": ("write_steps_csv",),
}
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns)


class Tracer:
    """Span store plus the counters read from traced calls' arguments and results."""

    def __init__(self):
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._open = []
        self.counters = {"lanes": 0, "live_lanes": 0, "noise_draws": 0, "noise_clipped": 0,
                         "steps_csv_bytes": 0}

    def wrap(self, name: str, fn):
        idx = SPAN_NAMES.index(name)
        after = _AFTER.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name_id.append(idx)
            self.parent.append(self._open[-1] if self._open else -1)
            self.end.append(0.0)
            self._open.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self._open.pop()
            if after is not None:
                after(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function, everywhere the package refers to it."""
        layers = {layer: importlib.import_module(f"fblearn.{layer}") for layer in TRACED}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "fblearn" or n.startswith("fblearn."))]
        for layer, fns in TRACED.items():
            mod = layers[layer]
            for fn_name in fns:
                if layer == "basis" and fn_name == "features":
                    cls = mod.BasisSet
                    cls.features = self.wrap("basis.features", cls.features)
                    continue
                original = getattr(mod, fn_name)
                wrapped = self.wrap(f"{layer}.{fn_name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapped)

    def save(self, path: Path) -> None:
        """Write the spans out (called once, when the run ends)."""
        import numpy as np
        np.savez(path, name_id=np.frombuffer(self.name_id, dtype=np.uint16),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))


def _after_episode(counters, args, kwargs, record):
    import numpy as np
    cfg = args[7] if len(args) > 7 else kwargs["cfg"]
    counters["lanes"] += 1
    counters["live_lanes"] += 0 if record.diverged else 1
    counters["noise_draws"] += record.w.size
    if cfg.sigma2 > 0:
        bound = cfg.noise_clip * np.sqrt(cfg.sigma2)
        counters["noise_clipped"] += int(np.count_nonzero(np.abs(record.w) >= bound))


def _after_ensemble(counters, args, kwargs, record):
    counters["lanes"] += record.n_trials
    counters["live_lanes"] += int(record.n_trials - record.diverged.sum())


def _after_steps_csv(counters, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    counters["steps_csv_bytes"] += Path(path).stat().st_size


_AFTER = {
    "learning.run_episode": _after_episode,
    "learning.run_ensemble": _after_ensemble,
    "cli.write_steps_csv": _after_steps_csv,
}


def self_times(spans) -> tuple[dict, dict]:
    """Per-name call counts and self times (seconds) from a saved span file."""
    import numpy as np
    name_id, parent = spans["name_id"], spans["parent"]
    duration = spans["end"] - spans["start"]
    child_time = np.zeros(len(duration))
    has_parent = parent >= 0
    np.add.at(child_time, parent[has_parent], duration[has_parent])
    own = duration - child_time
    calls = np.bincount(name_id, minlength=len(SPAN_NAMES))
    self_s = np.bincount(name_id, weights=own, minlength=len(SPAN_NAMES))
    return ({name: int(calls[i]) for i, name in enumerate(SPAN_NAMES)},
            {name: float(self_s[i]) for i, name in enumerate(SPAN_NAMES)})
