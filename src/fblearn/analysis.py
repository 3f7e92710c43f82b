"""Analysis machinery for the idealized continuous-time error dynamics.

The closed loop under the learned controller obeys, to first order,
``e' = (A + B K) e + B W(x, y_d^(g), e) phi`` where ``phi`` is the parameter
error.  Because the controller is linear in its parameters, the regressor is
``W = A_p(x) J`` with ``A_p = alpha^{-1}`` the plant's decoupling matrix and
``J = d u_hat / d theta`` the controller Jacobian at ``v = y_d^(g) + K e``;
both come from ``basis.layout_columns``, and ``W`` is assembled in bulk for
any stack of nodes and lanes.  Stacking ``X = (e, phi)`` and pairing the error
dynamics with the least-squares parameter flow ``phi' = -W.T W phi`` gives
the linear time-varying system

    X' = [[A + B K, B W(t)], [0, -W(t).T W(t)]] X

whose state-transition matrix, persistence-of-excitation window integrals,
and exponential-decay envelope this module computes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable

import numpy as np

from .basis import BasisSet, layout_columns
from .linearize import GainMatrix, ReferenceModel
from .plants import PlantModel, linearizing_terms, rk4_step

Array = np.ndarray


def assemble_W(plant: PlantModel, bases: BasisSet, x: Array, y_dgamma: Array, e: Array,
               gains: GainMatrix) -> Array:
    """Regressor ``W`` mapping parameter error to error-rate disturbance.

    Satisfies ``W @ phi = A_p(x) (u_hat(theta* + phi) - u_hat(theta*))`` for
    every ``phi``: the controller Jacobian with the plant's decoupling matrix
    ``A_p = alpha^{-1}`` on the left.  Broadcasts over nodes and lanes.
    """
    A_p = np.linalg.inv(linearizing_terms(plant, x)[1])
    e = np.asarray(e, dtype=float)
    v = np.asarray(y_dgamma, dtype=float) + (gains.K @ e[..., None])[..., 0]
    return layout_columns(bases, bases.features(x), A_p, v)


def continuous_reward(W: Array, phi: Array) -> float:
    """Instantaneous least-squares cost ``0.5 * ||W phi||^2``."""
    r = np.asarray(W) @ np.asarray(phi, dtype=float)
    return 0.5 * float(r @ r)


def least_squares_gradient(W: Array, phi: Array) -> Array:
    """Gradient ``W.T W phi`` of the continuous cost in ``phi``, broadcasting over lanes."""
    W, phi = np.asarray(W), np.asarray(phi, dtype=float)
    return (W.swapaxes(-1, -2) @ (W @ phi[..., None]))[..., 0]


def ltv_matrix(ref: ReferenceModel, gains: GainMatrix, W: Array) -> Array:
    """System matrix of the stacked ``(e, phi)`` dynamics for one ``W``."""
    W = np.asarray(W)
    n_e, n_phi = ref.total_degree, W.shape[1]
    out = np.zeros((n_e + n_phi, n_e + n_phi))
    out[:n_e, :n_e] = ref.A + ref.B @ gains.K
    out[:n_e, n_e:] = ref.B @ W
    out[n_e:, n_e:] = -W.T @ W
    return out


def interp_matrix_series(times: Array, values: Array) -> Callable[[float], Array]:
    """Entrywise linear interpolant of a matrix time series, clamped at the ends."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(times) != len(values):
        raise ValueError(f"{len(times)} sample times for {len(values)} matrices")

    def w_of_t(t: float) -> Array:
        i = np.searchsorted(times, t, side="right") - 1
        i = min(max(i, 0), len(times) - 2)
        frac = (t - times[i]) / (times[i + 1] - times[i])
        frac = min(max(frac, 0.0), 1.0)
        return (1.0 - frac) * values[i] + frac * values[i + 1]

    return w_of_t if len(times) > 1 else (lambda t: values[0])


def _rk4_ltv(rhs: Callable[[float, Array], Array], y0: Array, t0: float, t1: float,
             step: float) -> Array:
    n_steps = max(1, int(np.ceil((t1 - t0) / step - 1e-12)))
    h = (t1 - t0) / n_steps
    y, t = np.asarray(y0, dtype=float), t0
    for _ in range(n_steps):
        y = rk4_step(rhs, t, y, h)
        t += h
    return y


def simulate_ideal(w_of_t: Callable[[float], Array], ref: ReferenceModel, gains: GainMatrix,
                   X0: Array, horizon: float, step: float) -> tuple[Array, Array]:
    """Integrate the idealized stacked dynamics ``X' = A(t) X``.

    ``w_of_t`` supplies the regressor at any time.  Returns ``(times, X)``
    with one row per step node.
    """
    X0 = np.asarray(X0, dtype=float)
    n_steps = int(round(horizon / step))
    times = np.arange(n_steps + 1) * step
    out = np.empty((n_steps + 1, len(X0)))
    out[0] = X0
    rhs = lambda t, X: ltv_matrix(ref, gains, w_of_t(t)) @ X  # noqa: E731
    for i in range(n_steps):
        out[i + 1] = _rk4_ltv(rhs, out[i], times[i], times[i + 1], step)
        if not np.all(np.isfinite(out[i + 1])):
            raise RuntimeError(f"ideal-system integration diverged at t={times[i + 1]:.3f}")
    return times, out


def transition_matrix(w_of_t: Callable[[float], Array], ref: ReferenceModel,
                      gains: GainMatrix, t_start: float, t_end: float,
                      step: float) -> Array:
    """State-transition matrix of the stacked dynamics from ``t_start`` to ``t_end``.

    Integrates ``Phi' = A(t) Phi`` from the identity; ``t_end >= t_start``.
    """
    if t_end < t_start:
        raise ValueError(f"t_end ({t_end}) must be >= t_start ({t_start})")
    dim = ltv_matrix(ref, gains, w_of_t(t_start)).shape[0]
    if t_end == t_start:
        return np.eye(dim)
    rhs = lambda t, P: ltv_matrix(ref, gains, w_of_t(t)) @ P  # noqa: E731
    phi = _rk4_ltv(rhs, np.eye(dim), t_start, t_end, step)
    if not np.all(np.isfinite(phi)):
        raise RuntimeError("transition-matrix integration diverged")
    return phi


@dataclass(frozen=True)
class PEReport:
    """Worst-window eigenvalue bounds of the sliding integral of ``W.T W``."""

    delta: float
    c1: float
    c2: float
    satisfied: bool
    n_windows: int


def pe_check(times: Array, w_samples: Array, delta: float, stride: int = 1,
             rel_tol: float = 1e-9) -> PEReport:
    """Check persistence of excitation over sliding windows of length ``delta``.

    Integrates ``W.T W`` by the trapezoid rule over every window (start
    indices advancing by ``stride`` samples); ``c2`` is the smallest minimum
    eigenvalue over windows, ``c1`` the largest maximum.  ``satisfied`` uses
    a relative floor so rank-deficient integrals with eigenvalues at
    round-off scale count as failures.
    """
    times = np.asarray(times, dtype=float)
    w_samples = np.asarray(w_samples, dtype=float)
    if len(times) < 2:
        raise ValueError("need at least two regressor samples")
    if times[-1] - times[0] < delta * (1.0 - 1e-12):
        raise ValueError(f"series spans {times[-1] - times[0]:.6g} s, shorter than "
                         f"the window delta={delta:.6g} s")
    wtw = np.einsum("tqi,tqj->tij", w_samples, w_samples)
    seg = 0.5 * (wtw[1:] + wtw[:-1]) * (times[1:] - times[:-1])[:, None, None]
    cum = np.concatenate([np.zeros((1,) + wtw.shape[1:]), np.cumsum(seg, axis=0)])

    ends = np.searchsorted(times, times + delta * (1.0 - 1e-12), side="left")
    c1, c2, n_windows = -np.inf, np.inf, 0
    for i in range(0, len(times), max(1, int(stride))):
        j = ends[i]
        if j >= len(times):
            break
        evals = np.linalg.eigvalsh(cum[j] - cum[i])
        c1 = max(c1, float(evals[-1]))
        c2 = min(c2, float(evals[0]))
        n_windows += 1
    if n_windows == 0:
        raise ValueError("no complete window fits in the sample series")
    return PEReport(delta=float(delta), c1=c1, c2=c2,
                    satisfied=bool(c2 > rel_tol * max(1.0, c1)), n_windows=n_windows)


@dataclass(frozen=True)
class StabilityFit:
    """Exponential envelope ``||Phi(t1, t2)|| <= M exp(-zeta (t1 - t2))``.

    ``zeta`` is zero (and ``exponential`` false) when the fitted log-norm
    slope is not negative with confidence.  ``residual`` is the maximum
    log-scale violation of the envelope over the samples; it is <= 0 by
    construction of ``M``.
    """

    M: float
    zeta: float
    residual: float
    exponential: bool
    slope_stderr: float


def fit_exponential_bound(gaps: Array, norms: Array) -> StabilityFit:
    """Fit an upper exponential envelope to transition-matrix norms.

    ``gaps`` holds the elapsed times ``t1 - t2 >= 0`` and ``norms`` the
    spectral norms ``||Phi(t1, t2)||``.  Least squares on the log norms
    gives the decay rate; the overshoot constant is then the smallest value
    that makes the bound hold at every sample.
    """
    gaps = np.asarray(gaps, dtype=float)
    norms = np.asarray(norms, dtype=float)
    if gaps.shape != norms.shape or gaps.ndim != 1:
        raise ValueError("gaps and norms must be 1-d arrays of equal length")
    if len(gaps) < 3 or np.ptp(gaps) == 0:
        raise ValueError("need at least three samples spanning distinct gaps")
    if np.any(norms <= 0):
        raise ValueError("transition-matrix norms must be positive")
    log_norms = np.log(norms)
    design = np.stack([gaps, np.ones_like(gaps)], axis=1)
    coef, res, _, _ = np.linalg.lstsq(design, log_norms, rcond=None)
    slope = float(coef[0])
    dof = len(gaps) - 2
    if dof > 0 and res.size:
        s2 = float(res[0]) / dof
        stderr = float(np.sqrt(s2 / np.sum((gaps - gaps.mean()) ** 2)))
    else:
        stderr = 0.0
    confident_decay = slope + 2.0 * stderr < 0.0
    zeta = -slope if confident_decay else 0.0
    # the tiny inflation absorbs log/exp round-off so the envelope is strict
    M = max(1.0, float(np.max(norms * np.exp(zeta * gaps)))) * (1.0 + 1e-9)
    residual = float(np.max(log_norms - (np.log(M) - zeta * gaps)))
    return StabilityFit(M=M, zeta=zeta, residual=residual,
                        exponential=bool(confident_decay), slope_stderr=stderr)


def transition_norm_grid(w_of_t: Callable[[float], Array], ref: ReferenceModel,
                         gains: GainMatrix, t_grid: Array, step: float) -> tuple[Array, Array]:
    """Spectral norms of ``Phi(t1, t2)`` over all ordered grid pairs.

    Integrates one propagator per adjacent grid interval and forms every
    longer one as their product; returns flat ``(gaps, norms)`` arrays ready
    for :func:`fit_exponential_bound`.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    # RK4 is linear in its initial condition: started from a matrix P instead
    # of the identity, the integration over [t_i, t_{i+1}] returns P_i @ P in
    # exact arithmetic.  So Phi(t_j, t_i) = P_{j-1} ... P_i, and the product
    # differs from integrating each pair only by round-off.
    props = [transition_matrix(w_of_t, ref, gains, t0, t1, step)
             for t0, t1 in zip(t_grid[:-1], t_grid[1:])]
    gaps, norms = [], []
    for j, t2 in enumerate(t_grid):
        gaps.append(0.0)
        norms.append(1.0)
        for t1, phi in zip(t_grid[j + 1:], accumulate(props[j:], lambda acc, p: p @ acc)):
            gaps.append(float(t1 - t2))
            norms.append(float(np.linalg.norm(phi, ord=2)))
    return np.asarray(gaps), np.asarray(norms)
