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
and exponential-decay envelope this module computes.  ``simulate_ideal`` is
its one integrator: every interval runs as a lane of one call, and ``A(t)``
is applied matrix-free as ``[(A + B K) e + B (W p); -W.T (W p)]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from numbers import Integral
from typing import Callable, Iterator

import numpy as np

from .basis import BasisSet, layout_columns
from .errors import DivergenceError
from .linearize import ReferenceModel
from .plants import PlantModel, linearizing_terms, rk4_step

Array = np.ndarray


def assemble_W(plant: PlantModel, bases: BasisSet, x: Array, y_dgamma: Array, e: Array,
               gains: Array) -> Array:
    """Regressor ``W`` mapping parameter error to error-rate disturbance.

    Satisfies ``W @ phi = A_p(x) (u_hat(theta* + phi) - u_hat(theta*))`` for
    every ``phi``: the controller Jacobian with the plant's decoupling matrix
    ``A_p = alpha^{-1}`` on the left.  Broadcasts over nodes and lanes.
    """
    A_p = np.linalg.inv(linearizing_terms(plant, x)[1])
    e = np.asarray(e, dtype=float)
    v = np.asarray(y_dgamma, dtype=float) + (gains @ e[..., None])[..., 0]
    return layout_columns(bases, bases.features(x), A_p, v)


def least_squares_gradient(W: Array, phi: Array) -> Array:
    """Gradient ``W.T W phi`` of the cost ``0.5 * ||W phi||^2``, broadcasting over lanes."""
    W, phi = np.asarray(W), np.asarray(phi, dtype=float)
    return (W.swapaxes(-1, -2) @ (W @ phi[..., None]))[..., 0]


def ltv_matrix(ref: ReferenceModel, gains: Array, W: Array) -> Array:
    """System matrix of the stacked ``(e, phi)`` dynamics for one ``W``."""
    W = np.asarray(W)
    n_e, n_phi = ref.total_degree, W.shape[1]
    out = np.zeros((n_e + n_phi, n_e + n_phi))
    out[:n_e, :n_e] = ref.A + ref.B @ gains
    out[:n_e, n_e:] = ref.B @ W
    out[n_e:, n_e:] = -W.T @ W
    return out


def interp_matrix_series(times: Array, values: Array) -> Callable[[float | Array], Array]:
    """Entrywise linear interpolant of a matrix time series, clamped at the ends.

    Needs two samples or more, at increasing times.  The interpolant
    broadcasts over an array of times, bit for bit.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(times) != len(values):
        raise ValueError(f"{len(times)} sample times for {len(values)} matrices")
    if len(times) < 2:
        raise ValueError(f"need at least two samples to interpolate, got {len(times)}")
    if not np.all(np.diff(times) > 0):
        raise ValueError("sample times must not decrease or repeat")

    def w_of_t(t: float | Array) -> Array:
        t = np.asarray(t, dtype=float)
        i = np.clip(np.searchsorted(times, t, side="right") - 1, 0, len(times) - 2)
        frac = np.clip((t - times[i]) / (times[i + 1] - times[i]), 0.0, 1.0)
        frac = frac[(...,) + (None,) * (values.ndim - 1)]
        return (1.0 - frac) * values[i] + frac * values[i + 1]

    return w_of_t


def simulate_ideal(w_of_t: Callable[[float | Array], Array], ref: ReferenceModel,
                   gains: Array, X0: Array, horizon: float, step: float,
                   t0: float | Array = 0.0) -> Array:
    """Integrate the idealized stacked dynamics ``X' = A(t) X`` by RK4; return the end state.

    ``X0`` may stack lanes ``(..., d)``; ``t0``, one start time or one per
    lane, broadcasts against them.  Every lane runs ``horizon`` in the fewest
    steps no longer than ``step``.  ``w_of_t`` must broadcast over an array of
    times.  Returns each lane's state at ``t0 + horizon``.  Raises
    ``DivergenceError`` at the first step whose state is not finite.
    """
    X = np.asarray(X0, dtype=float)
    n_steps = max(1, int(np.ceil(horizon / step - 1e-12)))
    h = horizon / n_steps
    n_e, acl = ref.total_degree, ref.A + ref.B @ gains

    def rate(t: Array, X: Array) -> Array:
        W = w_of_t(t)
        Wp = W @ X[..., n_e:, None]
        return np.concatenate([(acl @ X[..., :n_e, None] + ref.B @ Wp)[..., 0],
                               -(W.swapaxes(-1, -2) @ Wp)[..., 0]], axis=-1)

    # a flow that leaves the finite floats is caught at that step: no warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            X = rk4_step(rate, i * h + t0, X, h)
            if not np.all(np.isfinite(X)):
                raise DivergenceError("ideal-system integration diverged", step=i + 1)
    return X


def transition_matrix(w_of_t: Callable[[float | Array], Array], ref: ReferenceModel,
                      gains: Array, t_start: float | Array, t_end: float | Array,
                      step: float) -> Array:
    """State-transition matrix of the stacked dynamics from ``t_start`` to ``t_end``.

    :func:`simulate_ideal` run from the identity's rows, then transposed.
    Arrays of intervals run as lanes of one call; they must share one length,
    as a ``np.linspace`` grid's do, and ``t_end >= t_start``.  ``w_of_t``
    must broadcast over an array of times.
    """
    t_start, t_end = np.asarray(t_start, dtype=float), np.asarray(t_end, dtype=float)
    spans = t_end - t_start
    span = float(spans.max(initial=0.0))
    if np.any(spans < 0) or np.any(span - spans > 1e-9 * max(1.0, span)):
        raise ValueError(f"intervals {t_start} -> {t_end} must run forward and share one length")
    dim = ref.total_degree + np.shape(w_of_t(t_start))[-1]
    rows = simulate_ideal(w_of_t, ref, gains, np.eye(dim), span, step, t0=t_start[..., None])
    return rows.swapaxes(-1, -2)


@dataclass(frozen=True)
class PEReport:
    """Worst-window eigenvalue bounds of the sliding integral of ``W.T W``."""

    delta: float
    c1: float
    c2: float
    satisfied: bool
    n_windows: int


# Elements of the ``(samples, p, p)`` running integral that
# :func:`_running_nodes` forms at once; a block holds one sample at least,
# whatever ``p`` is.
_PE_BLOCK = 1 << 14


def _running_nodes(times: Array, w_samples: Array, block: int) -> Iterator[Array]:
    """Yield the nodes of the trapezoid running integral of ``W.T W``, in order.

    Node 0 is zero.  The nodes are formed ``block`` samples at a time, each
    block's ``np.cumsum`` starting from the last node before it, and the first
    from ``-0.0``, the exact additive identity: every node is the sum a
    whole-series ``np.cumsum`` forms, in its order, so each equals that sum's
    node bit for bit.  Each sample's ``W.T W`` is formed once: a block starts
    from the previous block's last one.
    """
    node = np.full(w_samples.shape[-1:] * 2, -0.0)
    yield np.zeros_like(node)
    wtw = np.einsum("tqi,tqj->tij", w_samples[:1], w_samples[:1])
    for lo in range(0, len(times) - 1, block):
        w, t = w_samples[lo + 1:lo + block + 1], times[lo:lo + block + 1]
        last, wtw = wtw[-1], np.einsum("tqi,tqj->tij", w, w)
        # each segment is 0.5 * (later + earlier) * gap, formed in place
        seg = np.empty_like(wtw)
        np.add(wtw[0], last, out=seg[0])
        np.add(wtw[1:], wtw[:-1], out=seg[1:])
        seg *= 0.5
        seg *= (t[1:] - t[:-1])[:, None, None]
        seg[0] += node
        nodes = np.cumsum(seg, axis=0)
        yield from nodes
        node = nodes[-1]


def pe_check(times: Array, w_samples: Array, delta: float, stride: int = 1) -> PEReport:
    """Check persistence of excitation over sliding windows of length ``delta``.

    Integrates ``W.T W`` by the trapezoid rule over every window (start
    indices advancing by ``stride`` samples, an integer >= 1); ``c2`` is the
    smallest minimum eigenvalue over windows, ``c1`` the largest maximum.
    ``satisfied`` needs ``c2 > 1e-9 * max(1, c1)``: the relative floor makes
    rank-deficient integrals, whose eigenvalues sit at round-off scale,
    count as failures.

    A window's integral is its end node less its start node of the running
    integral.  Two cursors walk :func:`_running_nodes`, one to each window's
    start node and one to its end node, so each node is formed twice and no
    node is held past its window: besides the input, memory is
    O(block * p^2) for ``p`` parameters, whatever the sample and window
    counts.  Every node and window integral is the one a whole-series
    cumulative sum gives, so the report equals that computation bit for bit.
    """
    times = np.asarray(times, dtype=float)
    w_samples = np.asarray(w_samples, dtype=float)
    if len(w_samples) != len(times):
        raise ValueError(f"{len(w_samples)} regressor samples for {len(times)} sample times")
    if len(times) < 2:
        raise ValueError("need at least two regressor samples")
    if not delta > 0:
        raise ValueError(f"window delta={delta:.6g} s must be positive")
    if isinstance(stride, bool) or not isinstance(stride, Integral) or stride < 1:
        raise ValueError(f"stride={stride!r} must be an integer >= 1")
    if not np.all(np.diff(times) > 0):
        raise ValueError("sample times must not decrease or repeat")
    if times[-1] - times[0] < delta * (1.0 - 1e-12):
        raise ValueError(f"series spans {times[-1] - times[0]:.6g} s, shorter than "
                         f"the window delta={delta:.6g} s")
    # with times in order, a window ends after it starts and ends grow with starts
    ends = np.searchsorted(times, times + delta * (1.0 - 1e-12), side="left")
    starts = np.arange(0, len(times), stride)
    starts = starts[ends[starts] < len(times)]
    if len(starts) == 0:
        raise ValueError("no complete window fits in the sample series")

    block = max(1, _PE_BLOCK // w_samples.shape[-1] ** 2)
    # a cursor yields node i once per window that starts (or ends) there
    start_nodes, end_nodes = (
        chain.from_iterable(map(repeat, _running_nodes(times, w_samples, block),
                                np.bincount(index)))
        for index in (starts, ends[starts]))
    bounds = np.array([np.linalg.eigvalsh(end - start)[[0, -1]]
                       for start, end in zip(start_nodes, end_nodes)])
    c1, c2 = float(bounds[:, 1].max()), float(bounds[:, 0].min())
    return PEReport(delta=float(delta), c1=c1, c2=c2,
                    satisfied=bool(c2 > 1e-9 * max(1.0, c1)), n_windows=len(starts))


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


def transition_norm_grid(w_of_t: Callable[[float | Array], Array], ref: ReferenceModel,
                         gains: Array, t_grid: Array, step: float) -> tuple[Array, Array]:
    """Spectral norms of ``Phi(t1, t2)`` over all ordered grid pairs.

    Integrates the propagators of all adjacent intervals of the uniform grid
    in one :func:`transition_matrix` call (``w_of_t`` must broadcast over
    times) and forms every longer one as their product; returns flat
    ``(gaps, norms)`` arrays ready for :func:`fit_exponential_bound`.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    # RK4 is linear in its initial condition: started from a matrix P instead
    # of the identity, the integration over [t_i, t_{i+1}] returns P_i @ P in
    # exact arithmetic.  So Phi(t_j, t_i) = P_{j-1} ... P_i, and the product
    # differs from integrating each pair only by round-off.
    props = transition_matrix(w_of_t, ref, gains, t_grid[:-1], t_grid[1:], step)
    gaps, norms = [], []
    for j, t2 in enumerate(t_grid):
        gaps.append(0.0)
        norms.append(1.0)
        for t1, phi in zip(t_grid[j + 1:], accumulate(props[j:], lambda acc, p: p @ acc)):
            gaps.append(float(t1 - t2))
            norms.append(float(np.linalg.norm(phi, ord=2)))
    return np.asarray(gaps), np.asarray(norms)
