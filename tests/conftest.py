"""Shared fixtures: plants, gain designs, and the two synthetic scenarios."""

import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from fblearn import (DoublePendulumParams, build_reference_model,
                     design_gain, make_chain_plant, make_double_pendulum,
                     make_inspan_plant, polynomial_basis, sample_reference,
                     two_tone_reference)
from fblearn.config import load_config
from fblearn.scenarios import Scenario, build_scenario

CONFIG_DIR = Path(__file__).parent.parent / "configs"

# every property test draws the same examples on every run, with no
# per-example deadline (a kernel call's time varies with the machine)
settings.register_profile("fblearn", derandomize=True, deadline=None)
settings.load_profile("fblearn")


def peak_traced_mb(fn) -> float:
    """Peak memory, in MB, that ``tracemalloc`` traces while ``fn()`` runs.

    numpy reports its array buffers to ``tracemalloc``, so they count.
    """
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def pendulum():
    return make_double_pendulum()


@pytest.fixture(scope="session")
def pendulum_nominal():
    return make_double_pendulum(DoublePendulumParams().scaled(1.3))


@pytest.fixture(scope="session")
def ref22():
    return build_reference_model((2, 2))


@pytest.fixture(scope="session")
def gains22(ref22):
    return design_gain(ref22, -1.5)


@pytest.fixture(scope="session")
def two_tone2():
    return two_tone_reference(2)


def _inspan_scenario_1d():
    """Single-channel synthetic plant with a representable controller.

    Degree-1 polynomial features at unit scale: the regressor along the
    two-tone reference is genuinely exciting, so this is the scenario for
    the excitation and stability diagnostics.
    """
    nominal = make_chain_plant((2,))
    ref_model = build_reference_model((2,))
    gains = design_gain(ref_model, -1.5)
    reference = two_tone_reference(1)
    bases = polynomial_basis(2, 1, io_dim=1)
    theta_star = 0.15 * np.random.default_rng(7).standard_normal(bases.size)
    plant = make_inspan_plant((2,), bases, theta_star)
    x0 = sample_reference(reference, (2,), 0.0).xi_d
    return Scenario(plant=plant, nominal=nominal, bases=bases,
                    reference=reference, ref_model=ref_model, gains=gains,
                    theta0=theta_star.copy(), theta_star=theta_star, x0=x0)


def _inspan_scenario_mc():
    """Two-channel synthetic scenario tuned for the Monte Carlo studies.

    Small basis scales with a large initial parameter error keep the reward
    dominated by the parameter-error signal rather than the probing-noise
    floor, which is the regime where the theoretical deviation shapes are
    visible.  Built from the shipped config so the study pipeline exercises
    the same path as the command line.
    """
    return build_scenario(load_config(CONFIG_DIR / "inspan_mc.yaml"))


@pytest.fixture(scope="session")
def inspan1():
    return _inspan_scenario_1d()


@pytest.fixture(scope="session")
def inspan_mc():
    return _inspan_scenario_mc()


@pytest.fixture(scope="session")
def pendulum_scenario():
    """The shipped pendulum experiment: 100 RBF centers, the 1.3x nominal."""
    return build_scenario(load_config(CONFIG_DIR / "pendulum.yaml"))


@pytest.fixture()
def rng():
    return np.random.default_rng(42)
