"""Turn a validated config into the component bundle an experiment needs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BasisSet, build_rbf_grid, polynomial_basis
from .config import BasisSection, ExperimentConfig
from .errors import ConfigError
from .learning import PolicyConfig
from .linearize import GainMatrix, ReferenceModel, build_reference_model, design_gain
from .plants import (DoublePendulumParams, PlantModel, make_chain_plant, make_double_pendulum,
                     make_inspan_plant)
from .reference import SinusoidSum, sample_reference, two_tone_reference

Array = np.ndarray

# Default bases per scenario.  The pendulum grid has 100 centers covering
# the reach of the default reference; its output scales act as the
# adaptation gain of the fixed-step update, and 0.1 keeps the
# policy-gradient loop inside its stability basin at the default noise
# level while still halving the tracking error within the 60 s horizon.
# The synthetic scenario defaults to degree-1 polynomial features, whose
# regressor is provably exciting under the incommensurate two-tone
# reference.
_PENDULUM_BASIS = BasisSection(
    kind="rbf_grid",
    box=((-1.2, 1.2), (-1.2, 1.2), (-1.5, 1.5), (-1.5, 1.5)),
    counts=(5, 5, 2, 2), width_rule=0.5, beta_scale=0.1, alpha_scale=0.1)
_INSPAN_BASIS = BasisSection(kind="polynomial", degree=1)


@dataclass(frozen=True)
class Scenario:
    """Everything a run needs besides the policy knobs."""

    plant: PlantModel
    nominal: PlantModel
    bases: BasisSet
    reference: SinusoidSum
    ref_model: ReferenceModel
    gains: GainMatrix
    theta0: Array
    theta_star: Array | None
    x0: Array


def _reference_for(config: ExperimentConfig, q: int) -> SinusoidSum:
    if config.reference is None:
        return two_tone_reference(q)
    # validated: a tuple of channels, each a tuple of number triples
    if len(config.reference) != q:
        raise ConfigError([f"reference: scenario has {q} output channels, "
                           f"config defines {len(config.reference)}"])
    return SinusoidSum(channels=config.reference)


def _basis_for(config: ExperimentConfig, default: BasisSection, io_dim: int,
               state_dim: int) -> BasisSet:
    section = config.basis if config.basis is not None else default
    if section.kind == "polynomial":
        return polynomial_basis(state_dim, section.degree, io_dim,
                                beta_scale=section.beta_scale,
                                alpha_scale=section.alpha_scale)
    if len(section.box) != state_dim:
        raise ConfigError([f"basis.box: needs {state_dim} intervals for this scenario, "
                           f"got {len(section.box)}"])
    return build_rbf_grid(section.box, section.counts, section.width_rule, io_dim,
                          beta_scale=section.beta_scale, alpha_scale=section.alpha_scale)


def _phi0(size: int, scale: float) -> Array:
    signs = np.where(np.arange(size) % 2 == 0, 1.0, -1.0)
    return scale * signs / np.linalg.norm(signs)


def chain_state_from_xi(plant: PlantModel, xi: Array) -> Array:
    """Invert the output-chain map for plants where it is a permutation."""
    xi = np.asarray(xi, dtype=float)
    perm = plant.output_chain(np.arange(plant.n, dtype=float)).astype(int)
    x = np.empty(plant.n)
    x[perm] = xi
    return x


def build_scenario(config: ExperimentConfig) -> Scenario:
    """Construct plant, nominal model, bases, reference, and gains."""
    if config.scenario == "double_pendulum":
        params = DoublePendulumParams(m1=config.pendulum.m1, m2=config.pendulum.m2,
                                      l1=config.pendulum.l1, l2=config.pendulum.l2,
                                      gravity=config.pendulum.gravity)
        plant = make_double_pendulum(params)
        nominal = make_double_pendulum(params.scaled(config.pendulum.nominal_scale))
        bases = _basis_for(config, _PENDULUM_BASIS, plant.q, plant.n)
        theta_star = None
        theta0 = np.zeros(bases.size)
    elif config.scenario == "inspan_synthetic":
        nominal = make_chain_plant(config.inspan.gamma)
        bases = _basis_for(config, _INSPAN_BASIS, nominal.q, nominal.n)
        rng = np.random.default_rng(config.inspan.theta_star_seed)
        theta_star = config.inspan.theta_star_scale * rng.standard_normal(bases.size)
        plant = make_inspan_plant(config.inspan.gamma, bases, theta_star)
        theta0 = theta_star + _phi0(bases.size, config.inspan.phi0_scale)
    else:
        raise ConfigError([f"scenario: unknown scenario {config.scenario!r}"])

    ref_model = build_reference_model(plant.gamma)
    gains = design_gain(ref_model, config.pole)
    reference = _reference_for(config, plant.q)
    if config.x0 is not None:
        x0 = np.asarray(config.x0, dtype=float)
        if x0.shape != (plant.n,):
            raise ConfigError([f"x0: needs {plant.n} entries, got {len(config.x0)}"])
    else:
        xi0 = sample_reference(reference, plant.gamma, 0.0).xi_d
        x0 = chain_state_from_xi(plant, xi0)
    return Scenario(plant=plant, nominal=nominal, bases=bases,
                    reference=reference, ref_model=ref_model, gains=gains,
                    theta0=theta0, theta_star=theta_star, x0=x0)


def policy_config(config: ExperimentConfig, sigma2: float | None = None) -> PolicyConfig:
    """Policy knobs from the config, with an optional noise-variance replacement."""
    return PolicyConfig(sigma2=config.sigma2 if sigma2 is None else sigma2, dt=config.dt,
                        noise_clip=config.noise_clip)
