"""Monte Carlo studies of the sampled-data loop against its idealization.

These routines quantify, empirically, how the stochastic sampled-data
process deviates from the idealized continuous flow: the per-interval
disturbance it accumulates, the bias and spread of the gradient estimator at
a frozen state, and the concentration of the stacked tracking/parameter
error across seeded trials.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .analysis import (assemble_W, interp_matrix_series, least_squares_gradient,
                       simulate_ideal)
from .basis import controller_jacobian, eval_learned_controller
from .errors import DimensionError, DivergenceError
from .learning import (AdaptRunRecord, PolicyConfig, _lockstep, draw_noise, grad_log_policy,
                       run_ensemble)
from .linearize import tracking_error
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


def measure_disturbances(record: AdaptRunRecord, scenario: Scenario) -> DisturbanceSamples:
    """Measure the disturbance accumulated over every sampling interval.

    Needs the parameter error series, so the record must come from a run
    with a known true parameter vector.  The ideal flow over each interval
    uses the run's regressor, interpolated linearly between samples; every
    interval runs as one lane of a single :func:`simulate_ideal` call, in
    RK4 steps of ``dt / 8``.
    """
    if record.phi is None:
        raise ValueError("disturbance measurement needs phi; record the run with theta_star")
    if record.steps < 1:
        raise ValueError("record has no completed steps")
    dt = float(record.t[1] - record.t[0])
    w_of_t = interp_matrix_series(record.t, regressor_series(record, scenario))
    X = np.concatenate([record.e, record.phi], axis=1)
    delta = X[1:] - simulate_ideal(w_of_t, scenario.ref_model, scenario.gains, X[:-1], dt,
                                   dt / 8.0, t0=record.t[:-1])
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

    @property
    def mean(self) -> Array:
        return self.estimates.mean(axis=0)

    @property
    def stderr(self) -> Array:
        return self.estimates.std(axis=0, ddof=1) / np.sqrt(len(self.estimates))


def mc_gradient_samples(scenario: Scenario, theta: Array, cfg: PolicyConfig,
                        t_k: float, x_k: Array, n_draws: int, seed: int,
                        substeps: int = 8) -> GradientStudy:
    """Draw the one-step gradient estimate many times at a frozen state.

    The state, parameters, and reference sample are held fixed while the
    exploration noise is redrawn, which is exactly the conditional law the
    estimator's bias and spread statements are about.  Each draw is a frozen
    lane of the loop's kernel over the interval from ``t_k``; the estimate
    has no baseline (``(rewards - b)[:, None] * scores`` applies a constant
    one).  Raises ``DivergenceError`` if any draw fails.
    """
    if scenario.theta_star is None:
        raise ValueError("gradient study needs a scenario with a true parameter vector")
    if n_draws < 2:
        raise DimensionError(f"n_draws must be >= 2, got {n_draws}")
    plant, bases, gains = scenario.plant, scenario.bases, scenario.gains
    x_k = np.asarray(x_k, dtype=float)

    ref_k = sample_reference(scenario.reference, scenario.ref_model.gamma, t_k)
    e = tracking_error(plant.output_chain(x_k), ref_k.xi_d)
    v = ref_k.y_dgamma + gains @ e
    u_hat = eval_learned_controller(bases, theta, scenario.nominal, x_k, v)
    W = assemble_W(plant, bases, x_k, ref_k.y_dgamma, e, gains)
    target = least_squares_gradient(W, theta - scenario.theta_star)

    w = draw_noise(cfg, (n_draws, plant.q),
                   np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3,))))
    rec, failed = _lockstep(plant, scenario.nominal, bases, theta, scenario.reference,
                            scenario.ref_model, gains, cfg.dt, cfg.sigma2, "none", w[:, None],
                            x_k, t_k, False, None, "policy_gradient", substeps, ("u", "reward"))
    if np.any(failed >= 0):
        raise DivergenceError(f"{np.sum(failed >= 0)} of {n_draws} gradient draws failed", step=0)
    rewards = rec["reward"][:, 0]
    scores = grad_log_policy(rec["u"][:, 0], u_hat, cfg.sigma2,
                             controller_jacobian(bases, x_k, v))
    return GradientStudy(estimates=rewards[:, None] * scores, scores=scores, rewards=rewards,
                         target=target)


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
    dt_slope: float | None
    sigma_ratios: tuple | None
    lambda_slope: float | None


@dataclass(frozen=True)
class BiasReport:
    """Steady-state mean offsets per dt and their log-log slope."""

    dts: tuple
    offsets: tuple
    slope: float | None


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
    report, _ = mc_sweep(scenario, base_cfg, trials, lambdas, dt_list=dt_list,
                         sigma2_list=sigma2_list, horizon_s=horizon_s, seed=seed,
                         substeps=substeps, baseline_kind=baseline_kind)
    return report


def bias_study(scenario: Scenario, base_cfg: PolicyConfig, trials: int, dt_list,
               horizon_s: float = 20.0, seed: int = 0, substeps: int = 8,
               baseline_kind: str = "none") -> BiasReport:
    """Long-run mean offset of ``X_k`` versus the sampling interval.

    Averaging across trials cancels the zero-mean spread, leaving the
    sampling-induced bias, which shrinks linearly in ``dt``.  The trials
    start on the true parameters, not at ``scenario.theta0``: that removes
    the initial-condition transient, so the measured offset is purely the
    accumulated bias.
    """
    if scenario.theta_star is None:
        raise ValueError("bias study needs a scenario with a true parameter vector")
    _check_sweep(trials, dt_list=dt_list)
    cells = _bias_cells(scenario, base_cfg, dt_list)
    if not cells:
        raise ValueError("bias study needs at least one dt")
    return _bias_report(cells, _run_cells(scenario, cells, trials, horizon_s, seed, substeps,
                                          baseline_kind))


def mc_sweep(scenario: Scenario, base_cfg: PolicyConfig, trials: int, lambdas,
             dt_list=(), sigma2_list=(), bias_dts=(), horizon_s: float = 2.0, seed: int = 0,
             substeps: int = 8,
             baseline_kind: str = "none") -> tuple[ConcentrationReport, BiasReport | None]:
    """The concentration study and, over ``bias_dts``, the bias study, as one sweep.

    Returns what :func:`concentration_study` and :func:`bias_study` return
    for the same arguments, the bias study over the same ``horizon_s`` (and
    ``None`` for it when ``bias_dts`` is empty).  The cells of both studies
    that share a ``dt`` run as lane blocks of one ensemble.
    """
    if scenario.theta_star is None:
        raise ValueError("concentration study needs a scenario with a true parameter vector")
    _check_sweep(trials, dt_list=dt_list, sigma2_list=sigma2_list, bias_dts=bias_dts)
    lambdas = tuple(sorted(set(float(l) for l in lambdas) | {0.05}, reverse=True))
    specs = [(float(dt), base_cfg.sigma2) for dt in dt_list]
    specs += [(base_cfg.dt, float(s2)) for s2 in sigma2_list]
    if not specs:
        specs = [(base_cfg.dt, base_cfg.sigma2)]
    cells = [_Cell(replace(base_cfg, dt=dt, sigma2=sigma2), idx, scenario.theta0, 4, lambdas)
             for idx, (dt, sigma2) in enumerate(dict.fromkeys(specs))]
    bias_cells = _bias_cells(scenario, base_cfg, bias_dts)
    stats = _run_cells(scenario, cells + bias_cells, trials, horizon_s, seed, substeps,
                       baseline_kind)
    report = _concentration_report(cells, stats[:len(cells)], trials, base_cfg, lambdas,
                                   dt_list, sigma2_list)
    bias = _bias_report(bias_cells, stats[len(cells):]) if bias_cells else None
    return report, bias


@dataclass(frozen=True)
class _Cell:
    """One cell of a sweep: its policy, trial key and start, and what it measures."""

    cfg: PolicyConfig
    key: int
    theta0: Array
    steady_divisor: int   # the steady window starts at step horizon // steady_divisor
    lambdas: tuple = ()   # deviation quantile levels; none for a bias cell


def _check_sweep(trials: int, **lists) -> None:
    """Refuse one trial a cell (no spread to measure), or a list that repeats a value."""
    if trials < 2:
        raise DimensionError(f"trials must be >= 2, got {trials}")
    for name, values in lists.items():
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise ValueError(f"{name} repeats {repeated[0]!r}")


def _bias_cells(scenario: Scenario, base_cfg: PolicyConfig, dt_list) -> list:
    """One bias cell per dt, keyed ``1000 + index``, its trials starting on ``theta_star``."""
    return [_Cell(replace(base_cfg, dt=float(dt)), 1000 + idx, scenario.theta_star, 2)
            for idx, dt in enumerate(dt_list)]


def _run_cells(scenario: Scenario, cells: list, trials: int, horizon_s: float, seed: int,
               substeps: int, baseline_kind: str) -> list:
    """``_steady_stats`` of every cell, in order; cells that share a dt run as one ensemble.

    Each cell's trials are one block of lanes of that ensemble, bit for bit
    the cell's own run, so grouping changes no number.  The ensemble records
    only from the earliest steady step of its cells, the first node any of
    their statistics read, and the ensemble with the largest record runs
    first, while the heap is still small.
    """
    by_dt = {}
    for i, cell in enumerate(cells):
        by_dt.setdefault(cell.cfg.dt, []).append(i)
    runs = []
    for dt, members in by_dt.items():
        horizon = int(round(horizon_s / dt))
        record_from = min(horizon // cells[i].steady_divisor for i in members)
        runs.append((len(members) * (horizon + 1 - record_from), horizon, record_from,
                     members))
    stats = [None] * len(cells)
    for _, horizon, record_from, members in sorted(runs, key=lambda run: -run[0]):
        first, *rest = (cells[i] for i in members)
        ens = run_ensemble(
            scenario.plant, scenario.nominal, scenario.bases, first.theta0,
            scenario.reference, scenario.ref_model, scenario.gains, first.cfg,
            n_trials=trials, horizon=horizon, baseline_kind=baseline_kind,
            seed=seed, cell_key=first.key, x0=scenario.x0,
            theta_star=scenario.theta_star, substeps=substeps,
            more_cells=[(c.cfg, c.key, c.theta0) for c in rest], record_from=record_from)
        for j, i in enumerate(members):
            block = slice(j * trials, (j + 1) * trials)
            steady_from = horizon // cells[i].steady_divisor - ens.record_from
            stats[i] = _steady_stats(ens.e[block], ens.phi[block], ens.diverged[block],
                                     steady_from, cells[i].lambdas)
        del ens  # free this dt's records before the next ensemble is recorded
    return stats


#: Steps per block of the steady-window reductions, so that no reduction
#: holds a whole window of a cell's trials at once.
_STEADY_BLOCK = 25


def _steady_stats(e: Array, phi: Array, diverged: Array, steady_from: int,
                  lambdas: tuple) -> tuple[dict, float, int]:
    """Deviation quantiles, mean offset and divergence count of one cell's trials.

    Over the steady window (record nodes from ``steady_from``) of ``X = (e, phi)``
    of the non-divergent trials: at each step, the ``1 - lambda`` quantile
    of ``||X_k - mean(X_k)||`` across trials and the norm of ``mean(X_k)``,
    each averaged over the window.  The per-step values are formed a block
    of steps at a time.
    """
    n_diverged = int(np.sum(diverged))
    if len(diverged) - n_diverged < 2:
        dead = "all" if n_diverged == len(diverged) else f"{n_diverged} of"
        raise DivergenceError(f"{dead} {len(diverged)} trials of a cell diverged; too few left")
    # with no trial dropped, rows are sliced as views, not gathered as copies
    kept = ~diverged if n_diverged else slice(None)
    per_step = {lam: [] for lam in lambdas}
    offsets = []
    for lo in range(steady_from, e.shape[1], _STEADY_BLOCK):
        window = slice(lo, lo + _STEADY_BLOCK)
        X = np.concatenate([e[kept, window], phi[kept, window]], axis=2)
        mean = X.mean(axis=0)
        offsets.append(np.linalg.norm(mean, axis=1))
        if lambdas:
            deviations = np.linalg.norm(X - mean, axis=2)
            for lam in lambdas:
                per_step[lam].append(np.quantile(deviations, 1.0 - lam, axis=0))
    quantiles = {lam: float(np.mean(np.concatenate(parts))) for lam, parts in per_step.items()}
    return quantiles, float(np.mean(np.concatenate(offsets))), n_diverged


def _concentration_report(cells: list, stats: list, trials: int, base_cfg: PolicyConfig,
                          lambdas: tuple, dt_list, sigma2_list) -> ConcentrationReport:
    """The report of the concentration cells' stats, with its fitted shapes."""
    cell_stats = [CellStats(dt=c.cfg.dt, sigma2=c.cfg.sigma2, trials=trials,
                            diverged=n_diverged, quantiles=quantiles, mean_offset=offset)
                  for c, (quantiles, offset, n_diverged) in zip(cells, stats)]

    by_spec = {(c.dt, c.sigma2): c for c in cell_stats}
    dt_cells = [by_spec[(float(dt), base_cfg.sigma2)] for dt in dt_list]
    dt_slope = None
    if len(dt_cells) >= 2:
        dts = np.array([c.dt for c in dt_cells])
        q95 = np.array([c.quantiles[0.05] for c in dt_cells])
        dt_slope = float(np.polyfit(np.log(dts), np.log(q95), 1)[0])

    sigma_cells = sorted([by_spec[(base_cfg.dt, float(s2))] for s2 in sigma2_list],
                         key=lambda c: c.sigma2)
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
                                   1)[0]) for c in cell_stats]
        lambda_slope = float(np.mean(slopes))

    return ConcentrationReport(cells=tuple(cell_stats), lambdas=lambdas, dt_slope=dt_slope,
                               sigma_ratios=sigma_ratios, lambda_slope=lambda_slope)


def _bias_report(cells: list, stats: list) -> BiasReport:
    """The bias cells' mean offsets and their log-log slope against dt."""
    dts = tuple(c.cfg.dt for c in cells)
    offsets = tuple(offset for _, offset, _ in stats)
    slope = None
    if len(dts) >= 2:
        slope = float(np.polyfit(np.log(dts), np.log(offsets), 1)[0])
    return BiasReport(dts=dts, offsets=offsets, slope=slope)
