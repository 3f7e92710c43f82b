"""Sampled-data learning loop: exploration policy, reward, gradient, update.

One episode alternates, every ``dt`` seconds: draw a noisy input from the
Gaussian exploration policy around the learned controller, hold it over the
interval, measure the tracking error at the next sample, score the interval
with the one-step reward, form the score-function gradient estimate
(minus a baseline of past rewards, one of ``BASELINES``), and take a
gradient step on the parameters.

The loop is written once, as a private kernel that advances independent
lanes in lockstep and records the series its caller keeps.
``run_episodes`` runs episodes with their own seeds and learning flags as
lanes and records each one in full (``run_episode`` is its one-lane call);
``run_ensemble`` runs seeded trials as lanes, for one cell or for several
cells that share a ``dt``, and keeps only the tracking and parameter errors,
from a given node on;
``studies.mc_gradient_samples`` runs one interval of it with frozen lanes.
All share one failure rule (see ``STATE_BOUND``): a failed lane keeps its
last node; no further integration.

Randomness discipline: step ``k`` of the run seeded by ``seed`` draws from
its own substream ``step_rng(seed, k)``, so runs with learning enabled and
disabled see the identical noise sequence and paired comparisons are exact.
Replaying a seed reproduces a run bit for bit.  The runners compute the
whole horizon's substream draws in bulk (``step_normals``), bit for bit
equal to building each ``step_rng`` in turn; a test pins that mapping.  The
bulk draw is the only noise path: seeds are integers in ``[0, 2**128)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .analysis import assemble_W, least_squares_gradient
from .basis import BasisSet, controller_jacobian, eval_learned_controller
from .errors import DimensionError, DivergenceError, SingularMatrixError
from .linearize import GainMatrix, ReferenceModel
from .plants import PlantModel, rk4_step
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
    generator.  Raises ``ValueError`` for any other seed, and
    ``DimensionError`` for a horizon outside ``[0, 2**32]``.
    """
    if not (isinstance(seed, (int, np.integer)) and 0 <= seed < 2 ** 128):
        raise ValueError(f"seed must be an integer in [0, 2**128), got {seed!r}")
    if not 0 <= horizon <= 2 ** 32:
        raise DimensionError(f"horizon must lie in [0, 2**32], got {horizon}")
    out = np.empty((horizon, q))

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


#: Reward baselines.  Each uses past rewards only (at step ``k``: 0 for
#: ``"none"`` and at ``k = 0``, else the mean of steps ``0 .. k - 1``), so it
#: never depends on the current input and adds no bias.
BASELINES = ("none", "mean_of_past")


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
    if horizon < 0:
        raise DimensionError(f"horizon must be >= 0, got {horizon}")
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


def grad_log_policy(u: Array, u_hat: Array, sigma2: float | Array, jac: Array) -> Array:
    """Gaussian-policy score ``jac.T @ (u - u_hat) / sigma2``, broadcasting over lanes.

    ``sigma2`` is one variance, or an array of one per lane (the lead shape of ``u``).
    """
    sigma2 = np.asarray(sigma2, dtype=float)
    if not np.all(sigma2 > 0):
        raise ValueError(f"sigma2 must be positive for the score function, got {sigma2}")
    r = np.asarray(u, dtype=float) - np.asarray(u_hat, dtype=float)
    return (np.asarray(jac).swapaxes(-1, -2) @ r[..., None])[..., 0] / sigma2[..., None]


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
    config: dict = field(default_factory=dict)  # never filled by the runners
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

    The record starts at node ``record_from``: ``e`` has shape ``(trials,
    steps + 1 - record_from, total_degree)`` and ``phi`` (when a true
    parameter vector is known) ``(trials, steps + 1 - record_from, size)``,
    so index ``j`` holds node ``record_from + j``.  Entries of a trial after
    its divergence step are frozen and should be ignored; ``diverged_step``
    (an absolute step, recorded or not) is -1 for clean trials.
    """

    e: Array
    phi: Array | None
    diverged: Array
    diverged_step: Array
    record_from: int = 0

    @property
    def n_trials(self) -> int:
        return self.e.shape[0]


#: A lane fails once a state entry reaches this magnitude: the loop has long
#: left the regime the analysis describes, and every recorded quantity is
#: still far from overflow.
STATE_BOUND = 1e9


#: Series the kernel can record, the first six in the order ``advance`` returns
#: them: node series (``steps + 1`` entries), then interval series (``steps``).
_SERIES = ("x", "xi", "e", "theta", "u", "reward", "baseline")
_NODE_SERIES = _SERIES[:4]


def _per_lane(name: str, value, dtype, n_lanes: int, row: tuple = ()) -> Array:
    """``value``, given once for every lane or once per lane, as one row per lane."""
    value = np.asarray(value, dtype=dtype)
    if value.shape not in (row, (n_lanes,) + row):
        raise DimensionError(f"{name} must have shape {row} or {(n_lanes,) + row}, "
                             f"got {value.shape}")
    return np.broadcast_to(value, (n_lanes,) + row)


def _lockstep(plant: PlantModel, nominal: PlantModel, bases: BasisSet, theta0: Array,
              reference: SinusoidSum, ref_model: ReferenceModel, gains: GainMatrix,
              dt: float, sigma2: float | Array, baseline_kind: str, noise: Array,
              x0: Array | None, t0: float, learn: bool | Sequence[bool],
              theta_star: Array | None, update_rule: str, substeps: int,
              keep: tuple[str, ...], record_from: int = 0) -> tuple[dict, Array]:
    """Run ``len(noise)`` lanes of the sampled-data loop in lockstep; record ``keep``.

    Every lane starts at time ``t0`` from ``x0`` and applies its own row of
    ``noise`` over intervals of ``dt``.  ``theta0`` (the start parameters),
    ``sigma2`` (the policy variance the score divides by) and ``learn``
    (whether the lane updates its parameters) are each one value for every
    lane or one per lane, made one row per lane at the start; a frozen lane
    computes the update too and keeps its ``theta`` bit for bit.  Returns
    the series named in ``keep`` (see ``_SERIES``) from node or interval
    ``record_from`` on, ``(lanes, steps + 1 - record_from, ...)`` for node
    series and ``(lanes, steps - record_from, ...)`` for interval series,
    and each lane's failure step (-1 for lanes that never fail).

    A lane fails when its state, parameters or reward is non-finite, when
    ``max|x|`` reaches ``STATE_BOUND``, or when a decoupling matrix turns
    singular on it; the ``SingularMatrixError`` names those lanes, and the
    interval is run again for the others.  A failed lane keeps its last
    node; no further integration: every later node repeats it, and its
    input and reward are 0 from the failed step on.
    """
    if update_rule not in ("policy_gradient", "ideal"):
        raise ValueError(f"unknown update rule {update_rule!r}")
    if baseline_kind not in BASELINES:
        raise ValueError(f"baseline kind must be one of {BASELINES}, got {baseline_kind!r}")
    if update_rule == "ideal" and theta_star is None:
        raise ValueError("the ideal update rule needs theta_star")
    if not isinstance(substeps, (int, np.integer)) or substeps < 1:
        raise ValueError(f"substeps must be an integer >= 1, got {substeps!r}")
    n_lanes, horizon = noise.shape[:2]
    if not 0 <= record_from <= horizon:
        raise DimensionError(f"record_from must lie in [0, {horizon}], got {record_from}")
    learn = _per_lane("learn", learn, bool, n_lanes)
    sigma2 = _per_lane("sigma2", sigma2, float, n_lanes)
    theta = _per_lane("theta0", theta0, float, n_lanes, (bases.size,)).copy()
    if update_rule == "policy_gradient" and np.any(learn & (sigma2 <= 0)):
        raise ValueError("policy-gradient learning needs sigma2 > 0 "
                         "(use learn=False for a noise-free frozen run)")
    x_init = np.zeros(plant.n) if x0 is None else np.asarray(x0, dtype=float)
    if x_init.shape != (plant.n,):
        raise DimensionError(f"x0 must have shape ({plant.n},), got {x_init.shape}")
    h = dt / substeps
    nodes = sample_reference(reference, ref_model.gamma, t0 + np.arange(horizon + 1) * dt)
    xi_d, y_dg = nodes.xi_d, nodes.y_dgamma
    d = ref_model.total_degree
    shapes = dict(zip(_SERIES, ((plant.n,), (d,), (d,), (bases.size,), (plant.q,), (), ())))

    def advance(k, x, e, theta, w, learn, b_val, sigma2):
        """Interval ``k`` for the given lanes: ``x, xi, e, theta`` at its end, ``u``, reward."""
        v = y_dg[k] + (gains.K @ e[..., None])[..., 0]
        u_hat = eval_learned_controller(bases, theta, nominal, x, v)
        u = u_hat + w

        # x and u have kernel-made shapes: skip eval_dynamics' checks
        rate = lambda t, s: plant.rate(s, u)  # noqa: E731
        x_next = x
        for _ in range(substeps):
            x_next = rk4_step(rate, 0.0, x_next, h)
        xi_next = plant.output_chain(x_next)
        e_next = xi_next - xi_d[k + 1]
        reward = discrete_reward(e, e_next, ref_model, gains, dt)

        if not learn.any():
            return x_next, xi_next, e_next, theta, u, reward
        if update_rule == "policy_gradient":
            score = grad_log_policy(u, u_hat, sigma2, controller_jacobian(bases, x, v))
            theta_next = theta - dt * ((reward - b_val)[:, None] * score)
        else:
            W = assemble_W(plant, bases, x, y_dg[k], e, gains)
            theta_next = theta - dt * least_squares_gradient(W, theta - theta_star)
        if not learn.all():
            theta_next = np.where(learn[:, None], theta_next, theta)
        return x_next, xi_next, e_next, theta_next, u, reward

    series = {name: np.zeros((n_lanes, horizon + (name in _NODE_SERIES) - record_from)
                             + shapes[name])
              for name in keep}
    x = np.broadcast_to(x_init, (n_lanes, plant.n)).copy()
    xi = plant.output_chain(x)
    e = xi - xi_d[0]
    for name, value in zip(_NODE_SERIES, (x, xi, e, theta)):
        if name in series and record_from == 0:
            series[name][:, 0] = value
    live = np.arange(n_lanes)  # the lanes that have not failed
    diverged_step = np.full(n_lanes, -1, dtype=np.int64)
    total = 0.0  # each lane's sum of past rewards

    for k in range(horizon):
        b_val = 0.0 if k == 0 or baseline_kind == "none" else total / k
        b_val = np.broadcast_to(b_val, (n_lanes,))
        # while no lane has failed, a step gathers nothing
        lanes, step = (slice(None) if live.size == n_lanes else live), None
        # failing lanes produce non-finite intermediates until they are
        # flagged below; silence the arithmetic warnings they would raise
        with np.errstate(over="ignore", invalid="ignore"):
            while step is None and live.size:
                try:
                    step = advance(k, x[lanes], e[lanes], theta[lanes], noise[lanes, k],
                                   learn[lanes], b_val[lanes], sigma2[lanes])
                except SingularMatrixError as exc:
                    if (exc.lanes is None or np.shape(exc.lanes) != live.shape
                            or not np.any(exc.lanes)):
                        raise
                    diverged_step[live[exc.lanes]] = k
                    live = lanes = live[~exc.lanes]
            if step is not None:
                x_next, _, _, theta_next, _, r_next = step
                ok = (np.isfinite(x_next).all(axis=1) & np.isfinite(theta_next).all(axis=1)
                      & np.isfinite(r_next) & (np.abs(x_next).max(axis=1) < STATE_BOUND))

        if step is not None and live.size == n_lanes and ok.all():
            x, xi, e, theta, u, reward = step
        else:
            u, reward = np.zeros((n_lanes, plant.q)), np.zeros(n_lanes)
            if step is not None:
                diverged_step[live[~ok]] = k
                live = live[ok]
                # only live lanes are written: a failed lane keeps its last node
                for whole, part in zip((x, xi, e, theta, u, reward), step):
                    whole[live] = part[ok]
        for name, value in zip(_SERIES, (x, xi, e, theta, u, reward, b_val)):
            at = k + (name in _NODE_SERIES) - record_from
            if name in series and at >= 0:
                series[name][:, at] = value
        total = total + reward
    return series, diverged_step


def run_episodes(plant: PlantModel, nominal: PlantModel, bases: BasisSet, theta0: Array,
                 reference: SinusoidSum, ref_model: ReferenceModel, gains: GainMatrix,
                 cfg: PolicyConfig, baseline_kind: str = "none", horizon: int = 1200,
                 seeds: Sequence[int] = (0,), x0: Array | None = None,
                 learn: bool | Sequence[bool] = True,
                 theta_star: Array | None = None, update_rule: str = "policy_gradient",
                 substeps: int = 10) -> list[AdaptRunRecord]:
    """Run several sampled-data episodes as lanes of one kernel; record each one.

    Lane ``b`` runs the episode that :func:`run_episode` runs with
    ``seed=seeds[b]`` and ``learn=learn[b]`` (``learn`` may be one bool for
    every lane); the other arguments are shared.  Lanes with equal seeds see
    one noise draw, so ``seeds=(s, s)`` with ``learn=(True, False)`` is the
    paired learning and frozen comparison.  Each record equals its
    sequential run bit for bit.  A lane that fails truncates and flags only
    its own record; the others run on.
    """
    seeds = list(seeds)
    if not seeds:
        raise DimensionError("seeds must name at least one episode")
    draws = {seed: draw_noise_series(cfg, plant.q, seed, horizon) for seed in set(seeds)}
    noise = np.stack([draws[seed] for seed in seeds])
    rec, diverged_step = _lockstep(plant, nominal, bases, theta0, reference, ref_model, gains,
                                   cfg.dt, cfg.sigma2, baseline_kind, noise, x0, 0.0, learn,
                                   theta_star, update_rule, substeps, _SERIES)
    t_nodes = np.arange(horizon + 1) * cfg.dt
    records = []
    for b, seed in enumerate(seeds):
        n = horizon if diverged_step[b] < 0 else int(diverged_step[b])
        theta = rec["theta"][b, :n + 1]
        records.append(AdaptRunRecord(
            t=t_nodes[:n + 1], x=rec["x"][b, :n + 1], xi=rec["xi"][b, :n + 1],
            e=rec["e"][b, :n + 1], theta=theta,
            phi=theta - np.asarray(theta_star, dtype=float) if theta_star is not None else None,
            u=rec["u"][b, :n], w=noise[b, :n], rewards=rec["reward"][b, :n],
            baselines=rec["baseline"][b, :n], seed=int(seed),
            diverged=bool(diverged_step[b] >= 0),
            diverged_step=int(diverged_step[b]) if diverged_step[b] >= 0 else None))
    return records


def run_episode(plant: PlantModel, nominal: PlantModel, bases: BasisSet, theta0: Array,
                reference: SinusoidSum, ref_model: ReferenceModel, gains: GainMatrix,
                cfg: PolicyConfig, baseline_kind: str = "none", horizon: int = 1200,
                seed: int = 0, x0: Array | None = None, learn: bool = True,
                theta_star: Array | None = None, update_rule: str = "policy_gradient",
                substeps: int = 10) -> AdaptRunRecord:
    """Run one sampled-data episode and record everything.

    Parameters beyond the component objects:

    * ``baseline_kind`` - the reward baseline of the policy-gradient step,
      one of ``BASELINES``.
    * ``learn`` - with ``False`` the loop runs identically (same noise
      stream) but skips the parameter update, giving the paired no-learning
      baseline.
    * ``update_rule`` - ``"policy_gradient"`` is the model-free estimator;
      ``"ideal"`` replaces it with the exact least-squares gradient
      ``W_k.T W_k phi_k`` (requires ``theta_star``), realizing the noiseless
      discretization of the idealized parameter flow for diagnostics.
    * ``theta_star`` - when given, the parameter error ``phi = theta -
      theta_star`` is recorded alongside the parameters.

    At every sample ``xi`` is read exactly from the simulated state.  The
    episode is the one-lane run of :func:`run_episodes`, on the lockstep
    kernel that :func:`run_ensemble` runs with many lanes.  A failed step
    (non-finite state, parameters or reward, a state reaching
    ``STATE_BOUND``, or a decoupling matrix that turns singular) truncates
    the record and sets the divergence flag instead of raising.
    """
    (record,) = run_episodes(plant, nominal, bases, theta0, reference, ref_model, gains, cfg,
                             baseline_kind=baseline_kind, horizon=horizon, seeds=(seed,),
                             x0=x0, learn=learn, theta_star=theta_star,
                             update_rule=update_rule, substeps=substeps)
    return record


def run_ensemble(plant: PlantModel, nominal: PlantModel, bases: BasisSet, theta0: Array,
                 reference: SinusoidSum, ref_model: ReferenceModel, gains: GainMatrix,
                 cfg: PolicyConfig, n_trials: int, horizon: int,
                 baseline_kind: str = "mean_of_past", seed: int = 0, cell_key: int = 0,
                 x0: Array | None = None, theta_star: Array | None = None,
                 substeps: int = 8,
                 more_cells: Sequence[tuple[PolicyConfig, int, Array]] = (),
                 record_from: int = 0) -> EnsembleRecord:
    """Run many policy-gradient episodes in lockstep, vectorized over trials.

    Trial ``b`` draws exactly the noise that ``run_episode`` would draw with
    master seed ``derive_seed(seed, cell_key, b)`` and runs the same kernel,
    with the same failure rule, and its tracking and parameter errors equal
    that sequential run's bit for bit.  A trial that fails is flagged and
    keeps its last node; no further integration; the others keep running.
    Only ``e`` and ``theta`` are kept, and only at nodes ``record_from ..
    horizon``: the record has ``horizon + 1 - record_from`` nodes per trial,
    equal to the full run's from that node on.

    ``more_cells`` lists further cells ``(cfg, cell_key, theta0)`` with the
    same ``cfg.dt``.  Each runs its own ``n_trials`` trials as the next block
    of lanes, so lane ``c * n_trials + b`` is trial ``b`` of cell ``c`` (cell
    0 being the one the other arguments name), bit for bit that cell's own
    run.
    """
    if n_trials < 1:
        raise DimensionError(f"n_trials must be >= 1, got {n_trials}")
    if horizon < 0:
        raise DimensionError(f"horizon must be >= 0, got {horizon}")
    cells = [(cfg, cell_key, theta0), *more_cells]
    if any(c.dt != cfg.dt for c, _, _ in cells):
        raise ValueError(f"the cells of one ensemble must share dt, got "
                         f"{[c.dt for c, _, _ in cells]}")
    # each lane's draw goes straight into its row: no list of rows to stack
    noise = np.empty((len(cells) * n_trials, horizon, plant.q))
    for i, (c, key, _) in enumerate(cells):
        for b in range(n_trials):
            noise[i * n_trials + b] = draw_noise_series(c, plant.q, derive_seed(seed, key, b),
                                                        horizon)
    theta0 = np.repeat([np.asarray(t, dtype=float) for _, _, t in cells], n_trials, axis=0)
    sigma2 = np.repeat([c.sigma2 for c, _, _ in cells], n_trials)
    rec, diverged_step = _lockstep(plant, nominal, bases, theta0, reference, ref_model, gains,
                                   cfg.dt, sigma2, baseline_kind, noise, x0, 0.0, True,
                                   theta_star, "policy_gradient", substeps, ("e", "theta"),
                                   record_from)
    phi = None
    if theta_star is not None:
        phi = rec["theta"]  # formed in place: no second copy of the record
        phi -= np.asarray(theta_star, dtype=float)
    return EnsembleRecord(e=rec["e"], phi=phi, diverged=diverged_step >= 0,
                          diverged_step=diverged_step, record_from=record_from)
