"""Sampled-data learning loop: exploration policy, reward, gradient, update.

One episode alternates, every ``dt`` seconds: draw a noisy input from the
Gaussian exploration policy around the learned controller, hold it over the
interval, measure the tracking error at the next sample, score the interval
with the one-step reward, form the score-function gradient estimate
(optionally baselined), and take a gradient step on the parameters.

The loop is written once, as a private kernel that advances independent
lanes in lockstep and yields their states after every interval.
``run_episode`` is its one-lane run and records everything; ``run_ensemble``
runs seeded trials as lanes and keeps only the tracking and parameter
errors.  Both share one failure rule (see ``STATE_BOUND``).

Randomness discipline: step ``k`` of the run seeded by ``seed`` draws from
its own substream ``step_rng(seed, k)``, so runs with learning enabled and
disabled see the identical noise sequence and paired comparisons are exact.
Replaying a seed reproduces a run bit for bit.  The runners compute the
whole horizon's substream draws in bulk (``step_normals``), bit for bit
equal to building each ``step_rng`` in turn; a test pins that mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .analysis import assemble_W, least_squares_gradient
from .basis import BasisSet, controller_jacobian, eval_learned_controller
from .errors import DimensionError, DivergenceError, SingularMatrixError
from .linearize import GainMatrix, ReferenceModel
from .plants import PlantModel, eval_dynamics, rk4_step
from .reference import SinusoidSum, sample_reference

Array = np.ndarray


def step_rng(seed: int, k: int) -> np.random.Generator:
    """Independent generator for step ``k`` of the run seeded by ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, k)))


# numpy.random.SeedSequence's hashing constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
# PCG64's 128-bit LCG multiplier, used by its seeding step pcg_setseq_128_srandom_r
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash(value, hash_const: int, mult: int):
    """One SeedSequence hashing round; returns the hashed value and the next constant.

    Works on Python ints and on ``uint64`` arrays holding 32-bit words.
    """
    value = value ^ hash_const
    hash_const = (hash_const * mult) & _MASK32
    value = (value * hash_const) & _MASK32
    return value ^ (value >> _XSHIFT), hash_const


def _mix(x, y):
    """SeedSequence's mix of two 32-bit words (ints or ``uint64`` arrays)."""
    value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return value ^ (value >> _XSHIFT)


def step_normals(seed: int, horizon: int, q: int) -> Array:
    """Standard normals of steps ``0 .. horizon - 1`` of the run seeded by ``seed``.

    Row ``k`` equals ``step_rng(seed, k).standard_normal(q)`` bit for bit.
    Instead of building a ``SeedSequence`` per step, NumPy's entropy mixing
    runs once for all steps: for ``0 <= seed < 2**128`` the entropy is the
    seed's four 32-bit words followed by the spawn key ``(0, k)``, and only
    the last word depends on ``k``.  PCG64's seeding step then gives each
    step's 128-bit state and increment, which are set on one reused
    generator.  Any other seed takes the per-step path.
    """
    out = np.empty((horizon, q))
    if not (isinstance(seed, (int, np.integer)) and 0 <= seed < 2 ** 128
            and horizon <= 2 ** 32):
        for k in range(horizon):
            out[k] = step_rng(seed, k).standard_normal(q)
        return out

    # SeedSequence.mix_entropy over [seed words, 0, k]: the pool is fixed by
    # the seed words and the 0; the step index k enters last
    hash_const = _INIT_A
    pool = []
    for i in range(4):
        value, hash_const = _hash((int(seed) >> (32 * i)) & _MASK32, hash_const, _MULT_A)
        pool.append(value)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                value, hash_const = _hash(pool[src], hash_const, _MULT_A)
                pool[dst] = _mix(pool[dst], value)
    for word in (0, np.arange(horizon, dtype=np.uint64)):
        for dst in range(4):
            value, hash_const = _hash(word, hash_const, _MULT_A)
            pool[dst] = _mix(pool[dst], value)

    # SeedSequence.generate_state(4, uint64): eight 32-bit words, little-endian pairs
    hash_const = _INIT_B
    words = []
    for i in range(8):
        value, hash_const = _hash(pool[i % 4], hash_const, _MULT_B)
        words.append(value)
    s_hi, s_lo, i_hi, i_lo = ((words[2 * j] | (words[2 * j + 1] << 32)).tolist()
                              for j in range(4))

    bit_gen = np.random.PCG64(0)
    gen = np.random.Generator(bit_gen)
    state = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
    for k in range(horizon):
        inc = ((((i_hi[k] << 64) | i_lo[k]) << 1) | 1) & _MASK128
        initstate = (s_hi[k] << 64) | s_lo[k]
        state["state"] = {"state": ((inc + initstate) * _PCG_MULT + inc) & _MASK128, "inc": inc}
        bit_gen.state = state
        gen.standard_normal(out=out[k])
    return out


def derive_seed(seed: int, *key: int) -> int:
    """Deterministic child seed for a namespaced unit of work (trial, cell, ...).

    Child seeds live in a different spawn namespace than the per-step
    substreams, so derived runs never share noise with their parent.
    """
    ss = np.random.SeedSequence(seed, spawn_key=(1,) + tuple(int(k) for k in key))
    return int(ss.generate_state(1)[0])


@dataclass(frozen=True)
class PolicyConfig:
    """Exploration policy: noise variance, sampling interval, truncation."""

    sigma2: float
    dt: float
    noise_clip: float = 5.0

    def __post_init__(self):
        if self.sigma2 < 0:
            raise ValueError(f"sigma2 must be >= 0, got {self.sigma2}")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.noise_clip <= 0:
            raise ValueError(f"noise_clip must be positive, got {self.noise_clip}")


@dataclass
class BaselineSpec:
    """Reward baseline fed by past rewards only.

    ``value()`` at step k uses rewards from steps < k exclusively, so the
    baseline never depends on the current input and adds no bias.  Fed an
    array of per-lane rewards, it keeps one total per lane.
    """

    kind: str = "mean_of_past"
    _total: float = field(default=0.0, repr=False)
    _count: int = field(default=0, repr=False)

    KINDS = ("none", "sum_of_past", "mean_of_past")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"baseline kind must be one of {self.KINDS}, got {self.kind!r}")

    def value(self) -> float | Array:
        if self.kind == "none" or self._count == 0:
            return 0.0
        if self.kind == "sum_of_past":
            return self._total
        return self._total / self._count

    def update(self, reward: float | Array) -> None:
        self._total = self._total + reward
        self._count += 1

    def reset(self) -> None:
        self._total, self._count = 0.0, 0


def draw_noise(cfg: PolicyConfig, q: int | tuple[int, ...], rng: np.random.Generator) -> Array:
    """Zero-mean exploration noise, clipped at ``noise_clip`` sigmas.

    ``q`` is the input dimension, or the shape of a batch of draws.
    Clipping keeps the noise almost-surely bounded while preserving the zero
    mean by symmetry; at the default five sigmas the variance shift is below
    1e-5 relative.
    """
    if cfg.sigma2 == 0.0:
        return np.zeros(q)
    return _scale_and_clip(cfg, rng.standard_normal(q))


def draw_noise_series(cfg: PolicyConfig, q: int, seed: int, horizon: int) -> Array:
    """Row ``k`` is ``draw_noise(cfg, q, step_rng(seed, k))``, drawn in bulk.

    With ``sigma2 == 0`` no generator is built at all.
    """
    if cfg.sigma2 == 0.0:
        return np.zeros((horizon, q))
    return _scale_and_clip(cfg, step_normals(seed, horizon, q))


def _scale_and_clip(cfg: PolicyConfig, z: Array) -> Array:
    sigma = np.sqrt(cfg.sigma2)
    bound = cfg.noise_clip * sigma
    return np.clip(sigma * z, -bound, bound)


def discrete_reward(e: Array, e_next: Array, ref: ReferenceModel, gains: GainMatrix,
                    dt: float) -> float | Array:
    """One-step reward ``0.5 * || (e_next - Abar e) / dt ||^2``.

    ``Abar = I + dt (A + B K)`` is the Euler step of the target error
    dynamics, so the reward measures how far the realized error step strayed
    from the decay the design asked for.  Broadcasts over leading batch
    dimensions of the errors; every product is a stacked matmul, so each
    batch entry's reward does not depend on the others.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    abar = np.eye(ref.total_degree) + dt * (ref.A + ref.B @ gains.K)
    e = np.asarray(e, dtype=float)
    resid = (np.asarray(e_next, dtype=float) - (abar @ e[..., None])[..., 0]) / dt
    return 0.5 * (resid[..., None, :] @ resid[..., :, None])[..., 0, 0]


def grad_log_policy(u: Array, u_hat: Array, sigma2: float, jac: Array) -> Array:
    """Gaussian-policy score ``jac.T @ (u - u_hat) / sigma2``, broadcasting over lanes."""
    if sigma2 <= 0:
        raise ValueError(f"sigma2 must be positive for the score function, got {sigma2}")
    r = np.asarray(u, dtype=float) - np.asarray(u_hat, dtype=float)
    return (np.asarray(jac).swapaxes(-1, -2) @ r[..., None])[..., 0] / sigma2


def update_params(theta: Array, estimate: Array, dt: float) -> Array:
    """Gradient step ``theta - dt * estimate``; rejects non-finite estimates."""
    theta = np.asarray(theta, dtype=float)
    estimate = np.asarray(estimate, dtype=float)
    if theta.shape != estimate.shape:
        raise DimensionError(f"estimate shape {estimate.shape} != theta shape {theta.shape}")
    if not np.all(np.isfinite(estimate)):
        raise DivergenceError("gradient estimate is non-finite; parameter update aborted")
    return theta - dt * estimate


@dataclass(frozen=True)
class AdaptRunRecord:
    """Complete seeded time series of one episode.

    Node arrays (``t``, ``x``, ``xi``, ``e``, ``theta``, ``phi``) have
    ``steps + 1`` entries; interval arrays (``u``, ``w``, ``rewards``,
    ``baselines``) have ``steps``.  On divergence the arrays are truncated at
    the failed step and ``diverged`` is set.
    """

    t: Array
    x: Array
    xi: Array
    e: Array
    theta: Array
    phi: Array | None
    u: Array
    w: Array
    rewards: Array
    baselines: Array
    seed: int
    config: dict
    diverged: bool = False
    diverged_step: int | None = None

    @property
    def steps(self) -> int:
        return len(self.rewards)

    def error_norms(self) -> Array:
        return np.linalg.norm(self.e, axis=1)


@dataclass(frozen=True)
class EnsembleRecord:
    """Tracking and parameter errors of many independent trials at once.

    ``e`` has shape ``(trials, steps + 1, total_degree)`` and ``phi`` (when
    a true parameter vector is known) ``(trials, steps + 1, size)``.
    Entries of a trial after its divergence step are frozen and should be
    ignored; ``diverged_step`` is -1 for clean trials.
    """

    t: Array
    e: Array
    phi: Array | None
    diverged: Array
    diverged_step: Array
    seeds: Array

    @property
    def n_trials(self) -> int:
        return self.e.shape[0]


#: A lane fails once a state entry reaches this magnitude: the loop has long
#: left the regime the analysis describes, and every recorded quantity is
#: still far from overflow.
STATE_BOUND = 1e9


def _fd_output_stack(model: PlantModel, x_prev: Array, x_end: Array, h: float) -> Array:
    """Measure ``xi`` from output samples by backward differences.

    ``x_prev`` and ``x_end`` are the last two substep states of the interval
    just integrated; the first derivative of each output is estimated from
    their outputs.  Only relative degrees up to 2 are supported, which
    covers every shipped plant.
    """
    xi = model.output_chain(x_end).copy()  # may be x_end itself
    xi_prev = model.output_chain(x_prev)
    row = 0
    for g in model.gamma:
        if g == 2:
            xi[..., row + 1] = (xi[..., row] - xi_prev[..., row]) / h
        row += g
    return xi


class _Node(NamedTuple):
    """Every lane at one sampling node.  ``u``, ``reward`` and ``baseline``
    belong to the interval into the node (``None`` at the start); ``failed``
    marks the lanes that failed on that interval."""

    x: Array
    xi: Array | None
    e: Array
    theta: Array
    u: Array | None
    reward: Array | None
    baseline: Array | None
    failed: Array


def _lockstep(plant: PlantModel, nominal: PlantModel, bases: BasisSet, theta0: Array,
              reference: SinusoidSum, ref_model: ReferenceModel, gains: GainMatrix,
              cfg: PolicyConfig, baseline: BaselineSpec, noise: Array, x0: Array | None,
              learn: bool, theta_star: Array | None, update_rule: str, substeps: int,
              measure: str):
    """Advance ``len(noise)`` lanes of the sampled-data loop one interval at a time.

    Every lane starts from ``x0`` and ``theta0`` and applies its own row of
    ``noise``.  Yields the initial :class:`_Node`, then one per interval.

    A lane fails when its state, parameters or reward is non-finite, or when
    ``max|x|`` reaches ``STATE_BOUND``.  It is then frozen: back at ``x0``,
    with its last error and parameters.  A ``SingularMatrixError`` fails the
    lane of a one-lane run; with several lanes the culprit is unknown and the
    error propagates.
    """
    if update_rule not in ("policy_gradient", "ideal"):
        raise ValueError(f"unknown update rule {update_rule!r}")
    if measure not in ("exact", "finite_difference"):
        raise ValueError(f"unknown measurement mode {measure!r}")
    if measure == "finite_difference" and any(g > 2 for g in plant.gamma):
        raise ValueError("finite-difference measurement supports relative degree <= 2")
    if update_rule == "ideal" and theta_star is None:
        raise ValueError("the ideal update rule needs theta_star")
    if learn and update_rule == "policy_gradient" and cfg.sigma2 <= 0:
        raise ValueError("policy-gradient learning needs sigma2 > 0 "
                         "(use learn=False for a noise-free frozen run)")
    theta0 = np.asarray(theta0, dtype=float)
    if theta0.shape != (bases.size,):
        raise DimensionError(f"theta0 must have shape ({bases.size},), got {theta0.shape}")
    n_lanes, horizon = noise.shape[:2]
    dt = cfg.dt
    h = dt / substeps
    nodes = sample_reference(reference, ref_model.gamma, np.arange(horizon + 1) * dt)
    xi_d, y_dg = nodes.xi_d, nodes.y_dgamma

    x_init = np.zeros(plant.n) if x0 is None else np.asarray(x0, dtype=float)
    x = np.broadcast_to(x_init, (n_lanes, plant.n)).copy()
    theta = np.broadcast_to(theta0, (n_lanes, bases.size)).copy()
    xi = plant.output_chain(x)
    e = xi - xi_d[0]
    alive = np.ones(n_lanes, dtype=bool)
    baseline.reset()
    yield _Node(x, xi, e, theta, None, None, None, ~alive)

    for k in range(horizon):
        b_val = baseline.value()
        try:
            # failing lanes produce non-finite intermediates until they are
            # flagged below; silence the arithmetic warnings they would raise
            with np.errstate(over="ignore", invalid="ignore"):
                v = y_dg[k] + (gains.K @ e[..., None])[..., 0]
                u_hat = eval_learned_controller(bases, theta, nominal, x, v)
                u = u_hat + noise[:, k]

                rate = lambda t, s: eval_dynamics(plant, s, u)  # noqa: E731
                x_next = x
                for _ in range(substeps):
                    x_prev, x_next = x_next, rk4_step(rate, 0.0, x_next, h)
                if measure == "finite_difference":
                    xi_next = _fd_output_stack(plant, x_prev, x_next, h)
                else:
                    xi_next = plant.output_chain(x_next)
                e_next = xi_next - xi_d[k + 1]
                reward = discrete_reward(e, e_next, ref_model, gains, dt)

                if not learn:
                    theta_next = theta
                elif update_rule == "policy_gradient":
                    score = grad_log_policy(u, u_hat, cfg.sigma2, controller_jacobian(bases, x, v))
                    theta_next = theta - dt * ((reward - b_val)[:, None] * score)
                else:
                    W = assemble_W(plant, bases, x, y_dg[k], e, gains)
                    theta_next = theta - dt * least_squares_gradient(W, theta - theta_star)

                ok = (np.isfinite(x_next).all(axis=1) & np.isfinite(theta_next).all(axis=1)
                      & np.isfinite(reward) & (np.abs(x_next).max(axis=1) < STATE_BOUND))
        except SingularMatrixError:
            if n_lanes > 1:
                raise
            ok = np.zeros(1, dtype=bool)
            u = xi_next = None
            x_next, e_next, theta_next, reward = x.copy(), e, theta, np.zeros(1)

        failed = alive & ~ok
        alive &= ok
        if not alive.all():
            dead = ~alive
            x_next[dead] = x_init
            e_next[dead] = e[dead]
            theta_next[dead] = theta[dead]
            reward[dead] = 0.0
        yield _Node(x_next, xi_next, e_next, theta_next, u, reward,
                    np.broadcast_to(b_val, (n_lanes,)), failed)
        baseline.update(reward)
        x, e, theta = x_next, e_next, theta_next


def run_episode(plant: PlantModel, nominal: PlantModel, bases: BasisSet, theta0: Array,
                reference: SinusoidSum, ref_model: ReferenceModel, gains: GainMatrix,
                cfg: PolicyConfig, baseline: BaselineSpec | None = None, horizon: int = 1200,
                seed: int = 0, x0: Array | None = None, learn: bool = True,
                theta_star: Array | None = None, update_rule: str = "policy_gradient",
                substeps: int = 10, measure: str = "exact",
                config_snapshot: dict | None = None) -> AdaptRunRecord:
    """Run one sampled-data episode and record everything.

    Parameters beyond the component objects:

    * ``learn`` - with ``False`` the loop runs identically (same noise
      stream) but skips the parameter update, giving the paired no-learning
      baseline.
    * ``update_rule`` - ``"policy_gradient"`` is the model-free estimator;
      ``"ideal"`` replaces it with the exact least-squares gradient
      ``W_k.T W_k phi_k`` (requires ``theta_star``), realizing the noiseless
      discretization of the idealized parameter flow for diagnostics.
    * ``measure`` - ``"exact"`` reads ``xi`` from the simulator state;
      ``"finite_difference"`` estimates output derivatives from substep
      samples, for measurement-noise realism studies.
    * ``theta_star`` - when given, the parameter error ``phi = theta -
      theta_star`` is recorded alongside the parameters.

    The episode is the one-lane run of the lockstep kernel that
    :func:`run_ensemble` runs with many lanes.  A failed step (non-finite
    state, parameters or reward, a state reaching ``STATE_BOUND``, or a
    decoupling matrix that turns singular) truncates the record and sets the
    divergence flag instead of raising.
    """
    ws = draw_noise_series(cfg, plant.q, seed, horizon)
    lanes = _lockstep(plant, nominal, bases, theta0, reference, ref_model, gains, cfg,
                      baseline if baseline is not None else BaselineSpec(kind="none"),
                      ws[None], x0, learn, theta_star, update_rule, substeps, measure)
    node = next(lanes)
    t_nodes = np.arange(horizon + 1) * cfg.dt
    xs = np.zeros((horizon + 1, plant.n))
    xis = np.zeros((horizon + 1, ref_model.total_degree))
    es = np.zeros((horizon + 1, ref_model.total_degree))
    thetas = np.zeros((horizon + 1, bases.size))
    us = np.zeros((horizon, plant.q))
    rewards = np.zeros(horizon)
    baselines = np.zeros(horizon)
    xs[0], xis[0], es[0], thetas[0] = node.x[0], node.xi[0], node.e[0], node.theta[0]

    n, diverged_step = horizon, None
    for k, node in enumerate(lanes):
        if node.failed[0]:
            n, diverged_step = k, k
            break
        us[k], rewards[k], baselines[k] = node.u[0], node.reward[0], node.baseline[0]
        xs[k + 1], xis[k + 1], es[k + 1], thetas[k + 1] = (node.x[0], node.xi[0], node.e[0],
                                                           node.theta[0])

    phi = thetas[:n + 1] - np.asarray(theta_star, dtype=float) if theta_star is not None else None
    return AdaptRunRecord(
        t=t_nodes[:n + 1], x=xs[:n + 1], xi=xis[:n + 1], e=es[:n + 1],
        theta=thetas[:n + 1], phi=phi,
        u=us[:n], w=ws[:n], rewards=rewards[:n], baselines=baselines[:n],
        seed=int(seed), config=dict(config_snapshot or {}),
        diverged=diverged_step is not None, diverged_step=diverged_step,
    )


def run_ensemble(plant: PlantModel, nominal: PlantModel, bases: BasisSet, theta0: Array,
                 reference: SinusoidSum, ref_model: ReferenceModel, gains: GainMatrix,
                 cfg: PolicyConfig, n_trials: int, horizon: int,
                 baseline_kind: str = "mean_of_past", seed: int = 0, cell_key: int = 0,
                 x0: Array | None = None, theta_star: Array | None = None,
                 substeps: int = 8, learn: bool = True) -> EnsembleRecord:
    """Run many policy-gradient episodes in lockstep, vectorized over trials.

    Trial ``b`` draws exactly the noise that ``run_episode`` would draw with
    master seed ``derive_seed(seed, cell_key, b)`` and runs the same kernel,
    with the same failure rule.  With two or more outputs its tracking and
    parameter errors equal that sequential run's bit for bit.  With one
    output NumPy's ``einsum`` takes size-dependent kernels, so a lane can
    differ from its sequential run in the last bit (at 200 random states of
    ``inspan_diag``'s plant, 10 lanes of the plant rate and 35 of the
    controller differ, each by at most 2.2e-16).  A trial that fails is
    flagged and frozen in place; the others keep running, and once every
    trial has failed the run stops.  Only ``e`` and ``theta`` are kept per
    step.
    """
    seeds = np.array([derive_seed(seed, cell_key, b) for b in range(n_trials)], dtype=np.int64)
    noise = np.empty((n_trials, horizon, plant.q))
    for b in range(n_trials):
        noise[b] = draw_noise_series(cfg, plant.q, int(seeds[b]), horizon)
    lanes = _lockstep(plant, nominal, bases, theta0, reference, ref_model, gains, cfg,
                      BaselineSpec(kind=baseline_kind), noise, x0, learn, theta_star,
                      "policy_gradient", substeps, "exact")

    es = np.zeros((n_trials, horizon + 1, ref_model.total_degree))
    thetas = np.zeros((n_trials, horizon + 1, bases.size))
    diverged_step = np.full(n_trials, -1, dtype=np.int64)
    for k, node in enumerate(lanes):
        es[:, k], thetas[:, k] = node.e, node.theta
        diverged_step[node.failed] = k - 1
        if (diverged_step >= 0).all():
            # every lane is frozen: the remaining nodes repeat this one
            es[:, k + 1:], thetas[:, k + 1:] = node.e[:, None], node.theta[:, None]
            break

    phi = thetas - np.asarray(theta_star, dtype=float) if theta_star is not None else None
    return EnsembleRecord(t=np.arange(horizon + 1) * cfg.dt, e=es, phi=phi,
                          diverged=diverged_step >= 0, diverged_step=diverged_step, seeds=seeds)
