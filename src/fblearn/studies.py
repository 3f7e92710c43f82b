"""Monte Carlo studies of the sampled-data loop against its idealization.

These routines quantify, empirically, how the stochastic sampled-data
process deviates from the idealized continuous flow: the per-interval
disturbance it accumulates, the bias and spread of the gradient estimator at
a frozen state, and the concentration of the stacked tracking/parameter
error across seeded trials.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .analysis import (assemble_W, interp_matrix_series, least_squares_gradient,
                       simulate_ideal)
from .basis import controller_jacobian, eval_learned_controller
from .learning import (AdaptRunRecord, EnsembleRecord, PolicyConfig, discrete_reward,
                       draw_noise, grad_log_policy, run_ensemble)
from .linearize import tracking_error
from .plants import integrate_zoh
from .reference import sample_reference
from .scenarios import Scenario

Array = np.ndarray


# ---------------------------------------------------------------------------
# Per-interval disturbance measurement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DisturbanceSamples:
    """Per-interval gaps between the recorded run and the ideal flow.

    ``delta_e[k]`` and ``delta_phi[k]`` are the components of
    ``X_{k+1} - Phi(t_{k+1}, t_k) X_k`` with ``X = (e, phi)`` and the
    transition matrix driven by the run's own regressor samples.
    """

    delta_e: Array
    delta_phi: Array

    @property
    def norms(self) -> Array:
        return np.linalg.norm(np.concatenate([self.delta_e, self.delta_phi], axis=1), axis=1)


def regressor_series(record: AdaptRunRecord, scenario: Scenario) -> Array:
    """Recompute ``W_k`` at every node of a recorded run, in one assembly."""
    y_dg = sample_reference(scenario.reference, scenario.ref_model.gamma, record.t).y_dgamma
    return assemble_W(scenario.plant, scenario.bases, record.x, y_dg, record.e, scenario.gains)


def measure_disturbances(record: AdaptRunRecord, scenario: Scenario,
                         step: float | None = None) -> DisturbanceSamples:
    """Measure the disturbance accumulated over every sampling interval.

    Needs the parameter error series, so the record must come from a run
    with a known true parameter vector.  The ideal flow over each interval
    uses the run's regressor, interpolated linearly between samples; every
    interval runs as one lane of a single :func:`simulate_ideal` call.
    """
    if record.phi is None:
        raise ValueError("disturbance measurement needs phi; record the run with theta_star")
    if record.steps < 1:
        raise ValueError("record has no completed steps")
    dt = float(record.t[1] - record.t[0])
    step = dt / 8.0 if step is None else step
    w_of_t = interp_matrix_series(record.t, regressor_series(record, scenario))
    X = np.concatenate([record.e, record.phi], axis=1)
    _, ideal = simulate_ideal(w_of_t, scenario.ref_model, scenario.gains, X[:-1], dt, step,
                              t0=record.t[:-1])
    delta = X[1:] - ideal[-1]
    n_e = scenario.ref_model.total_degree
    return DisturbanceSamples(delta_e=delta[:, :n_e], delta_phi=delta[:, n_e:])


# ---------------------------------------------------------------------------
# Gradient estimator at a frozen state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradientStudy:
    """Monte Carlo draws of the gradient estimate at one frozen state."""

    estimates: Array       # (draws, k1 + k2)
    scores: Array          # (draws, k1 + k2)
    rewards: Array         # (draws,)
    target: Array          # W.T W phi, the idealized mean
    u_hat: Array
    W: Array

    @property
    def mean(self) -> Array:
        return self.estimates.mean(axis=0)

    @property
    def stderr(self) -> Array:
        return self.estimates.std(axis=0, ddof=1) / np.sqrt(len(self.estimates))


def mc_gradient_samples(scenario: Scenario, theta: Array, cfg: PolicyConfig,
                        t_k: float, x_k: Array, n_draws: int, seed: int,
                        substeps: int = 8, baseline_value: float = 0.0) -> GradientStudy:
    """Draw the one-step gradient estimate many times at a frozen state.

    The state, parameters, and reference sample are held fixed while the
    exploration noise is redrawn, which is exactly the conditional law the
    estimator's bias and spread statements are about.  Integration over the
    interval is batched across draws.
    """
    if scenario.theta_star is None:
        raise ValueError("gradient study needs a scenario with a true parameter vector")
    plant, nominal, bases = scenario.plant, scenario.nominal, scenario.bases
    ref_model, gains = scenario.ref_model, scenario.gains
    x_k = np.asarray(x_k, dtype=float)
    theta = np.asarray(theta, dtype=float)

    ref_k = sample_reference(scenario.reference, ref_model.gamma, t_k)
    ref_next = sample_reference(scenario.reference, ref_model.gamma, t_k + cfg.dt)
    xi = plant.output_chain(x_k)
    e = tracking_error(xi, ref_k.xi_d)
    v = ref_k.y_dgamma + gains.K @ e
    u_hat = eval_learned_controller(bases, theta, nominal, x_k, v)
    jac = controller_jacobian(bases, x_k, v)
    W = assemble_W(plant, bases, x_k, ref_k.y_dgamma, e, gains)
    target = least_squares_gradient(W, theta - scenario.theta_star)

    w = draw_noise(cfg, (n_draws, plant.q),
                   np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3,))))
    u = u_hat + w

    x0_batch = np.broadcast_to(x_k, (n_draws, plant.n))
    x_next = integrate_zoh(plant, x0_batch, u, cfg.dt, substeps)
    e_next = plant.output_chain(x_next) - ref_next.xi_d

    rewards = discrete_reward(e, e_next, ref_model, gains, cfg.dt)
    scores = grad_log_policy(u, u_hat, cfg.sigma2, jac)
    estimates = (rewards - baseline_value)[:, None] * scores
    return GradientStudy(estimates=estimates, scores=scores, rewards=rewards,
                         target=target, u_hat=u_hat, W=W)


# ---------------------------------------------------------------------------
# Trial ensembles: concentration and bias
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellStats:
    """One (dt, sigma2) cell of a Monte Carlo sweep."""

    dt: float
    sigma2: float
    trials: int
    diverged: int
    quantiles: dict          # confidence level lambda -> pooled deviation quantile
    mean_offset: float       # steady-state norm of the trial-mean state


@dataclass(frozen=True)
class ConcentrationReport:
    """Deviation quantiles per cell plus the fitted scaling shapes."""

    cells: tuple
    lambdas: tuple
    base_dt: float
    base_sigma2: float
    dt_slope: float | None
    sigma_ratios: tuple | None
    lambda_slope: float | None


def _run_cell(scenario: Scenario, cfg: PolicyConfig, trials: int, horizon: int,
              seed: int, cell_key: int, substeps: int, baseline_kind: str) -> EnsembleRecord:
    return run_ensemble(
        scenario.plant, scenario.nominal, scenario.bases, scenario.theta0,
        scenario.reference, scenario.ref_model, scenario.gains, cfg,
        n_trials=trials, horizon=horizon, baseline_kind=baseline_kind,
        seed=seed, cell_key=cell_key, x0=scenario.x0,
        theta_star=scenario.theta_star, substeps=substeps)


def _stacked_states(ens: EnsembleRecord, steady_from: int):
    """Steady-state X = (e, phi) of the non-divergent trials."""
    kept = ~ens.diverged
    if not np.any(kept):
        raise RuntimeError("every trial diverged; nothing to aggregate")
    X = np.concatenate([ens.e[kept, steady_from:], ens.phi[kept, steady_from:]], axis=2)
    return X, int(np.sum(ens.diverged))


def concentration_study(scenario: Scenario, base_cfg: PolicyConfig, trials: int,
                        lambdas, dt_list=(), sigma2_list=(), horizon_s: float = 2.0,
                        seed: int = 0, substeps: int = 8,
                        baseline_kind: str = "none") -> ConcentrationReport:
    """Measure how trial-to-trial deviations scale with dt, sigma2 and lambda.

    Runs ``trials`` seeded episodes per cell and computes, at every step in
    the last three quarters of the horizon, the ``1 - lambda`` quantiles of
    ``||X_k - mean(X_k)||`` across trials (averaged over the steps).  The
    report carries the log-log fit of the 95th percentile against ``dt``
    and the per-doubling ratios against ``sigma2``.

    The horizon doubles as the measurement window and is deliberately short
    by default: over a short window the conditional regime (the size of the
    parameter error entering the rewards) is the same for every cell, which
    is the regime the per-step deviation bounds describe.  The raw,
    baseline-free estimator is the default because the high-probability
    deviation statement is about exactly that estimator.
    """
    if scenario.theta_star is None:
        raise ValueError("concentration study needs a scenario with a true parameter vector")
    lambdas = tuple(sorted(set(float(l) for l in lambdas) | {0.05}, reverse=True))
    cells_spec = [(float(dt), base_cfg.sigma2) for dt in dt_list]
    cells_spec += [(base_cfg.dt, float(s2)) for s2 in sigma2_list]
    if not cells_spec:
        cells_spec = [(base_cfg.dt, base_cfg.sigma2)]
    seen, ordered = set(), []
    for cell in cells_spec:
        if cell not in seen:
            seen.add(cell)
            ordered.append(cell)

    cells = []
    for idx, (dt, sigma2) in enumerate(ordered):
        cfg = PolicyConfig(sigma2=sigma2, dt=dt, noise_clip=base_cfg.noise_clip)
        horizon = int(round(horizon_s / dt))
        ens = _run_cell(scenario, cfg, trials, horizon, seed, idx, substeps, baseline_kind)
        X, n_diverged = _stacked_states(ens, steady_from=horizon // 4)
        deviations = np.linalg.norm(X - X.mean(axis=0, keepdims=True), axis=2)
        quantiles = {lam: float(np.mean(np.quantile(deviations, 1.0 - lam, axis=0)))
                     for lam in lambdas}
        offset = float(np.mean(np.linalg.norm(X.mean(axis=0), axis=1)))
        cells.append(CellStats(dt=dt, sigma2=sigma2, trials=trials, diverged=n_diverged,
                               quantiles=quantiles, mean_offset=offset))

    by_spec = {(c.dt, c.sigma2): c for c in cells}
    dt_cells = [by_spec[(float(dt), base_cfg.sigma2)] for dt in dt_list
                if (float(dt), base_cfg.sigma2) in by_spec]
    dt_slope = None
    if len(dt_cells) >= 2:
        dts = np.array([c.dt for c in dt_cells])
        q95 = np.array([c.quantiles[0.05] for c in dt_cells])
        dt_slope = float(np.polyfit(np.log(dts), np.log(q95), 1)[0])

    sigma_cells = sorted([by_spec[(base_cfg.dt, float(s2))] for s2 in sigma2_list
                          if (base_cfg.dt, float(s2)) in by_spec], key=lambda c: c.sigma2)
    sigma_ratios = None
    if len(sigma_cells) >= 2:
        sigma_ratios = tuple(
            float(b.quantiles[0.05] / a.quantiles[0.05])
            for a, b in zip(sigma_cells[:-1], sigma_cells[1:]))

    # the lambda shape is common to every cell, so average the per-cell fits
    lam_for_fit = [lam for lam in lambdas if lam != 0.05] or list(lambdas)
    lambda_slope = None
    if len(lam_for_fit) >= 2:
        logs = np.log([np.log(2.0 / lam) for lam in lam_for_fit])
        slopes = [float(np.polyfit(logs, np.log([c.quantiles[lam] for lam in lam_for_fit]),
                                   1)[0]) for c in cells]
        lambda_slope = float(np.mean(slopes))

    return ConcentrationReport(cells=tuple(cells), lambdas=lambdas, base_dt=base_cfg.dt,
                               base_sigma2=base_cfg.sigma2, dt_slope=dt_slope,
                               sigma_ratios=sigma_ratios, lambda_slope=lambda_slope)


@dataclass(frozen=True)
class BiasReport:
    """Steady-state mean offsets per dt and their log-log slope."""

    dts: tuple
    offsets: tuple
    slope: float | None


def bias_study(scenario: Scenario, base_cfg: PolicyConfig, trials: int, dt_list,
               horizon_s: float = 20.0, seed: int = 0, substeps: int = 8,
               baseline_kind: str = "none", from_manifold: bool = True) -> BiasReport:
    """Long-run mean offset of ``X_k`` versus the sampling interval.

    Averaging across trials cancels the zero-mean spread, leaving the
    sampling-induced bias, which shrinks linearly in ``dt``.  By default the
    trials start on the true parameters (``from_manifold``), which removes
    the initial-condition transient so the measured offset is purely the
    accumulated bias.
    """
    if scenario.theta_star is None:
        raise ValueError("bias study needs a scenario with a true parameter vector")
    if from_manifold:
        scenario = dataclasses.replace(scenario, theta0=scenario.theta_star)
    dts = tuple(float(dt) for dt in dt_list)
    if not dts:
        raise ValueError("bias study needs at least one dt")
    offsets = []
    for idx, dt in enumerate(dts):
        cfg = PolicyConfig(sigma2=base_cfg.sigma2, dt=dt, noise_clip=base_cfg.noise_clip)
        horizon = int(round(horizon_s / dt))
        ens = _run_cell(scenario, cfg, trials, horizon, seed, 1000 + idx, substeps,
                        baseline_kind)
        X, _ = _stacked_states(ens, steady_from=horizon // 2)
        offsets.append(float(np.mean(np.linalg.norm(X.mean(axis=0), axis=1))))
    slope = None
    if len(dts) >= 2:
        slope = float(np.polyfit(np.log(dts), np.log(offsets), 1)[0])
    return BiasReport(dts=dts, offsets=tuple(offsets), slope=slope)
