"""The benchmark's four workloads: what each runs and how many repeats it needs.

Each workload runs in a fresh interpreter per repeat (``child.py``).  The
timed call of a CLI workload is ``fblearn.cli.main`` from argument parsing
until the artifacts are written; ``disturbance`` times the library call
``studies.measure_disturbances`` on records generated before timing starts.
"""

from __future__ import annotations

# Shortened Monte Carlo sweep for ``inspan_mc``, so that two repeats fit in
# one run.  It keeps the shipped 200 trials per cell (per-trial costs only
# dominate at that batch size) and the three-point dt sweep, but runs a 2 s
# horizon at a base dt of 0.01 with two noise levels: 4 concentration cells
# and 3 bias cells, 900 lockstep steps instead of 6600.  Every shape check
# still holds, on every seed tried.
MC_OVERRIDES = ("horizon_s=2.0", "dt=0.01", "sweep.dt=[0.04, 0.02, 0.01]",
                "sweep.sigma2=[0.0005, 0.001]")

# Noise-free ideal-update episodes feeding ``disturbance``: sampling
# intervals and horizon, 100 + 200 + 400 intervals.
DISTURBANCE_DTS = (0.04, 0.02, 0.01)
DISTURBANCE_HORIZON_S = 4.0

WORKLOADS = {
    "pendulum_compare": {
        "config": "configs/pendulum.yaml",
        "command": "compare",
        "overrides": (),
        "seed_enters": True,
        # learning.csv must repeat byte for byte, so every run has two repeats
        "min_repeats": 2,
    },
    "inspan_mc": {
        "config": "configs/inspan_mc.yaml",
        "command": "mc",
        "overrides": MC_OVERRIDES,
        "seed_enters": True,
        "min_repeats": 2,
    },
    "inspan_diag": {
        "config": "configs/inspan_diag.yaml",
        "command": "diag",
        "overrides": (),
        "seed_enters": False,
        "min_repeats": 1,
    },
    "disturbance": {
        "config": "configs/inspan_mc.yaml",
        "command": None,
        "overrides": (),
        "seed_enters": False,
        "min_repeats": 1,
    },
}

# Relative tolerance of the stored reference values (reference.json).  Loose
# enough for a reordered reduction or a batched propagator (round-off moves
# these numbers by ~1e-12 relative), tight enough to catch a changed result.
REFERENCE_RTOL = 1e-6
