"""Control-affine plants with closed-form linearizing controllers.

Every plant here is a system ``x' = f(x) + g(x) u, y = h(x)`` whose outputs
all have full relative degree (the degrees sum to the state dimension), so
there are no residual internal coordinates to track.  Each plant also carries
its exact linearizing controller in closed form, the pair ``(beta(x),
alpha(x))`` for which ``u = beta + alpha v`` gives ``y^(gamma) = v``, and
the map from state to the stacked outputs-and-derivatives vector ``xi``.
``linearizing_terms`` holds the one rule that judges ``alpha`` singular.
``make_inspan_plant(gamma, bases, theta_star)`` builds integrator chains of
relative degrees ``gamma`` whose true controller is the learned one at
``theta_star``.

All plant callables broadcast over leading batch dimensions: ``x`` may be
``(n,)`` or ``(m, n)`` and the results gain the same leading shape.  This
keeps Monte Carlo sweeps vectorized without a second code path.

Double pendulum conventions: two point masses at the link ends, torque
inputs at both joints, the first angle measured from the hanging-down
vertical and the second angle measured relative to the first link.  With
this convention the undriven origin is an equilibrium and the mass matrix
at rest for unit parameters is ``[[5, 2], [2, 1]]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DimensionError, DivergenceError, SingularMatrixError
from .linearize import build_reference_model

Array = np.ndarray

#: Frobenius condition number above which ``alpha`` is treated as singular.
COND_LIMIT = 1e12


@dataclass(frozen=True)
class PlantModel:
    """A control-affine plant with a closed-form linearizing controller.

    Attributes
    ----------
    n, q : int
        State and input/output dimensions.
    gamma : tuple of int
        Vector relative degree; sums to ``n`` for every shipped plant.
    output_chain : callable
        ``x -> xi``, the outputs and their first ``gamma_j - 1`` derivatives
        stacked block by block.
    rate : callable
        The state rate ``(x, u) -> f(x) + g(x) u``, evaluated fused because a
        plant can usually evaluate the sum much cheaper than its parts.
    linearizing : callable
        ``x -> (beta, alpha)`` with shapes ``(.., q)`` and ``(.., q, q)``:
        the input ``beta + alpha v`` gives ``y^(gamma) = v``.  May return
        read-only arrays; callers go through :func:`linearizing_terms`.
    """

    n: int
    q: int
    gamma: tuple[int, ...]
    output_chain: Callable[[Array], Array]
    rate: Callable[[Array, Array], Array] = field(compare=False)
    linearizing: Callable[[Array], tuple[Array, Array]] = field(compare=False)
    name: str = field(default="", compare=False)


@dataclass(frozen=True)
class DoublePendulumParams:
    """Masses (kg), lengths (m) and gravity (m/s^2) of the double pendulum."""

    m1: float = 1.0
    m2: float = 1.0
    l1: float = 1.0
    l2: float = 1.0
    gravity: float = 9.81

    def __post_init__(self):
        for name in ("m1", "m2", "l1", "l2", "gravity"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive, got {getattr(self, name)}")

    def scaled(self, factor: float) -> "DoublePendulumParams":
        """Masses and lengths scaled by ``factor``; gravity untouched."""
        return DoublePendulumParams(m1=factor * self.m1, m2=factor * self.m2,
                                    l1=factor * self.l1, l2=factor * self.l2,
                                    gravity=self.gravity)


def _check_vector(x, dim: int, what: str) -> Array:
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (dim,):
        raise DimensionError(f"{what} must have trailing dimension {dim}, got shape {x.shape}")
    return x


def eval_dynamics(model: PlantModel, x: Array, u: Array) -> Array:
    """State rate ``f(x) + g(x) u``."""
    x = _check_vector(x, model.n, "state")
    u = _check_vector(u, model.q, "input")
    return model.rate(x, u)


def linearizing_terms(model: PlantModel, x: Array) -> tuple[Array, Array]:
    """The model's exact linearizing controller ``u(x, v) = beta(x) + alpha(x) v``.

    Raises ``SingularMatrixError`` when ``alpha`` (equivalently the
    decoupling matrix ``alpha^{-1}``) is numerically singular at any state
    of the batch ``x``: its Frobenius condition number reaches
    ``COND_LIMIT`` or is not a number.  The error's ``lanes`` marks those
    states and its ``cond`` is the worst number of the batch.
    """
    x = _check_vector(x, model.n, "state")
    beta, alpha = model.linearizing(x)
    _judge_alpha(model.name, alpha)
    return beta, alpha


def _judge_alpha(name: str, alpha: Array) -> Array | None:
    """``linearizing_terms``' rule on an evaluated ``alpha``; at q = 2 the determinants it forms.

    The condition number the error reports is ``inf`` at q = 1, where only a
    zero or non-finite ``alpha`` fails; the Frobenius one ``||A||_F^2 / |det|``
    at q = 2 (``inf`` for a zero ``det``), an upper bound of the 2-norm one;
    and the 2-norm one at q >= 3.  At q = 2 ``cond < COND_LIMIT`` reads
    ``||alpha||_F^2 < COND_LIMIT |det|``: no division, and false for a zero
    or non-finite ``det``.
    """
    q, det, cond = alpha.shape[-1], None, np.inf
    if q == 1:
        regular = np.abs(alpha[..., 0, 0]) > 0
    elif q == 2:
        det = alpha[..., 0, 0] * alpha[..., 1, 1] - alpha[..., 0, 1] * alpha[..., 1, 0]
        fro2 = np.einsum("...ij,...ij->...", alpha, alpha)
        regular = fro2 < COND_LIMIT * np.abs(det)
    else:
        cond = np.linalg.cond(alpha)
        regular = cond < COND_LIMIT
    if regular.all():
        return det
    if q == 2:
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = np.where(det != 0, fro2 / np.abs(det), np.inf)
    raise SingularMatrixError(f"model '{name}' linearizing gain alpha is singular",
                              cond=float(np.max(cond)), lanes=~regular)


def rk4_step(rate: Callable[[float, Array], Array], t: float, x: Array, h: float) -> Array:
    """One classical fourth-order Runge-Kutta step of ``x' = rate(t, x)``.

    Advances ``x`` from time ``t`` to ``t + h``; every integrator in the
    package steps through it.  Broadcasts over leading batch dimensions.
    """
    k1 = rate(t, x)
    k2 = rate(t + 0.5 * h, x + 0.5 * h * k1)
    k3 = rate(t + 0.5 * h, x + 0.5 * h * k2)
    k4 = rate(t + h, x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def simulate_closed_loop(model: PlantModel, control: Callable[[Array, float], Array],
                         x0: Array, t_final: float, step: float) -> tuple[Array, Array]:
    """Integrate ``x' = f(x) + g(x) u(x, t)`` with continuously applied control.

    The control law is re-evaluated at every RK4 stage (state and stage
    time), so there is no sample-and-hold effect; this is the
    continuous-time idealization used by the exact-tracking oracle tests.
    Returns ``(times, states)`` with states of shape ``(len(times), n)``.
    """
    x0 = _check_vector(x0, model.n, "state")
    n_steps = int(round(t_final / step))
    times = np.arange(n_steps + 1) * step
    states = np.empty((n_steps + 1, model.n))
    states[0] = x0
    x = x0

    def rhs(t, s):
        return eval_dynamics(model, s, control(s, t))

    for i in range(n_steps):
        x = rk4_step(rhs, times[i], x, step)
        if not np.all(np.isfinite(x)):
            raise DivergenceError(f"closed-loop integration of '{model.name}' "
                                  "produced non-finite state", step=i)
        states[i + 1] = x
    return times, states


# ---------------------------------------------------------------------------
# Double pendulum
# ---------------------------------------------------------------------------

def _pendulum_mcg(p: DoublePendulumParams, x: Array) -> tuple[Array, Array, Array]:
    """Mass matrix, Coriolis/centrifugal vector and gravity vector."""
    q1, q2, dq1, dq2 = x[..., 0], x[..., 1], x[..., 2], x[..., 3]
    c2, s2 = np.cos(q2), np.sin(q2)
    M = np.empty(x.shape[:-1] + (2, 2))
    M[..., 0, 0] = (p.m1 + p.m2) * p.l1 ** 2 + p.m2 * p.l2 ** 2 + 2.0 * p.m2 * p.l1 * p.l2 * c2
    M[..., 0, 1] = M[..., 1, 0] = p.m2 * p.l2 ** 2 + p.m2 * p.l1 * p.l2 * c2
    M[..., 1, 1] = p.m2 * p.l2 ** 2
    h = p.m2 * p.l1 * p.l2 * s2
    cvec = np.empty(x.shape[:-1] + (2,))
    cvec[..., 0] = -h * (2.0 * dq1 * dq2 + dq2 ** 2)
    cvec[..., 1] = h * dq1 ** 2
    s12 = np.sin(q1 + q2)
    gvec = np.empty(x.shape[:-1] + (2,))
    gvec[..., 0] = (p.m1 + p.m2) * p.gravity * p.l1 * np.sin(q1) + p.m2 * p.gravity * p.l2 * s12
    gvec[..., 1] = p.m2 * p.gravity * p.l2 * s12
    return M, cvec, gvec


def make_double_pendulum(params: DoublePendulumParams | None = None) -> PlantModel:
    """Fully actuated planar double pendulum with joint angles as outputs.

    State ``x = (q1, q2, dq1, dq2)``; dynamics ``M(q) q'' + C(q, q') q' +
    G(q) = u`` with torque input at both joints.  Both outputs have relative
    degree 2, so ``gamma = (2, 2)`` and the plant linearizes completely with
    the computed-torque law ``beta = C q' + G`` and ``alpha = M``.
    """
    p = params if params is not None else DoublePendulumParams()

    def linearizing(x):
        M, cvec, gvec = _pendulum_mcg(p, x)
        return cvec + gvec, M

    def rate(x, u):
        M, cvec, gvec = _pendulum_mcg(p, x)
        ddq = np.linalg.solve(M, (u - cvec - gvec)[..., None])[..., 0]
        out = np.empty(ddq.shape[:-1] + (4,))
        out[..., :2] = x[..., 2:4]
        out[..., 2:] = ddq
        return out

    return PlantModel(
        n=4, q=2,
        gamma=(2, 2),
        output_chain=lambda x: x[..., (0, 2, 1, 3)],
        rate=rate,
        linearizing=linearizing,
        name="double_pendulum",
    )


# ---------------------------------------------------------------------------
# Chain-of-integrators plants
# ---------------------------------------------------------------------------

def _chain_rate(gamma: tuple[int, ...]) -> Callable[[Array, Array], Array]:
    """``(x, top) -> x'`` of stacked integrator chains with relative degrees ``gamma``.

    Inside each chain a state's rate is the next state; each chain's last
    state has rate ``top[j]``.  The gather equals ``A x + B top`` of the
    reference model, except for entries that are ``-0.0`` or non-finite.
    """
    ends = np.cumsum(gamma) - 1
    inner = np.ones(ends[-1] + 1, dtype=bool)
    inner[ends] = False
    shift = np.flatnonzero(inner)
    following = shift + 1

    def rate(x, top):
        lead = x.shape[:-1]
        if top.shape[:-1] != lead:
            lead = np.broadcast_shapes(lead, top.shape[:-1])
        out = np.empty(lead + x.shape[-1:])
        out[..., shift] = x[..., following]
        out[..., ends] = top
        return out

    return rate


def make_chain_plant(gamma) -> PlantModel:
    """Decoupled integrator chains ``y_j^(gamma_j) = u_j``.

    The state is the stacked ``xi`` vector itself and the linearizing
    controller is ``(0, I)``, returned as read-only broadcasts of cached
    constants.  ``make_chain_plant((2, 2))`` is the two-channel double
    integrator used as a linear test plant.
    """
    ref = build_reference_model(gamma)
    n, q = ref.total_degree, ref.q
    beta = -np.zeros(q)  # -0.0 is the exact additive identity: beta + c == c bit for bit
    alpha = np.eye(q)

    return PlantModel(
        n=n, q=q,
        gamma=ref.gamma,
        output_chain=lambda x: x,
        rate=_chain_rate(ref.gamma),
        linearizing=lambda x: (np.broadcast_to(beta, x.shape[:-1] + (q,)),
                               np.broadcast_to(alpha, x.shape[:-1] + (q, q))),
        name=f"chain{gamma}",
    )


# ---------------------------------------------------------------------------
# In-span synthetic plants
# ---------------------------------------------------------------------------

def make_inspan_plant(gamma, bases: "BasisSet", theta_star: Array) -> PlantModel:  # noqa: F821
    """Build the plant whose exact linearizing controller is ``u_hat(theta_star)``.

    The state is the ``xi`` of integrator chains with relative degrees
    ``gamma`` (controller ``(0, I)``), so the plant's controller is ``beta_p
    = beta_corr`` and ``alpha_p = I + alpha_corr`` at ``theta_star``: the
    true parameter vector exists by construction.  The dynamics are the chain
    rate driven by ``y^(gamma) = alpha_p^{-1} (u - beta_p)``, so applying the
    controller yields ``y^(gamma) = v`` identically.  Raises
    ``SingularMatrixError`` wherever ``alpha_p`` cannot be inverted.
    """
    from .basis import _correction  # deferred: basis imports this module

    ref = build_reference_model(gamma)
    n, q = ref.total_degree, ref.q
    theta_star = np.asarray(theta_star, dtype=float)
    if theta_star.shape != (bases.size,):
        raise DimensionError(
            f"theta_star has shape {theta_star.shape}, bases expect ({bases.size},)")
    theta1, theta2 = bases.split(theta_star)
    eye = np.eye(q)
    chain_rate = _chain_rate(ref.gamma)

    def linearizing(x):
        # the chain controller (-0.0, I) folded in: -0.0 + c == c, and I + c is the same sum
        beta_c, alpha_c = _correction(bases, theta1, theta2, bases.feature_fn(x))
        return beta_c, eye + alpha_c

    def rate(x, u):
        beta_p, alpha_p = linearizing(x)
        det = _judge_alpha("inspan", alpha_p)
        r = u - beta_p
        if q == 1:  # equals LAPACK's 1x1 solve bit for bit
            return chain_rate(x, r / alpha_p[..., 0])
        if q == 2:  # the adjugate, over the determinant the rule has just judged
            top, a = np.empty(r.shape), alpha_p
            top[..., 0] = (a[..., 1, 1] * r[..., 0] - a[..., 0, 1] * r[..., 1]) / det
            top[..., 1] = (a[..., 0, 0] * r[..., 1] - a[..., 1, 0] * r[..., 0]) / det
            return chain_rate(x, top)
        return chain_rate(x, np.linalg.solve(alpha_p, r[..., None])[..., 0])

    return PlantModel(
        n=n, q=q,
        gamma=ref.gamma,
        output_chain=lambda x: x,
        rate=rate,
        linearizing=linearizing,
        name="inspan",
    )
