"""Sampled-data learning loop: exploration policy, reward, gradient, update.

One episode alternates, every ``dt`` seconds: draw a noisy input from the
Gaussian exploration policy around the learned controller, hold it over the
interval, measure the tracking error at the next sample, score the interval
with the one-step reward, form the score-function gradient estimate
(optionally baselined), and take a gradient step on the parameters.

Randomness discipline: step ``k`` of the run seeded by ``seed`` draws from
its own substream ``step_rng(seed, k)``, so runs with learning enabled and
disabled see the identical noise sequence and paired comparisons are exact.
Replaying a seed reproduces a run bit for bit.  The runners compute the
whole horizon's substream draws in bulk (``step_normals``), bit for bit
equal to building each ``step_rng`` in turn; a test pins that mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSet, controller_jacobian, eval_learned_controller
from .errors import DimensionError, DivergenceError, SingularMatrixError
from .linearize import GainMatrix, ReferenceModel, tracking_error
from .plants import PlantModel, _rk4, eval_dynamics, linearizing_terms
from .reference import ReferenceSample, SinusoidSum, sample_reference

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
    baseline never depends on the current input and adds no bias.
    """

    kind: str = "mean_of_past"
    _total: float = field(default=0.0, repr=False)
    _count: int = field(default=0, repr=False)

    KINDS = ("none", "sum_of_past", "mean_of_past")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"baseline kind must be one of {self.KINDS}, got {self.kind!r}")

    def value(self) -> float:
        if self.kind == "none" or self._count == 0:
            return 0.0
        if self.kind == "sum_of_past":
            return self._total
        return self._total / self._count

    def update(self, reward: float) -> None:
        self._total += float(reward)
        self._count += 1

    def reset(self) -> None:
        self._total, self._count = 0.0, 0


@dataclass(frozen=True)
class GradientSample:
    """One gradient estimate with the pieces it was assembled from."""

    reward: float
    score: Array
    baseline_value: float

    @property
    def estimate(self) -> Array:
        return (self.reward - self.baseline_value) * self.score


def draw_noise(cfg: PolicyConfig, q: int, rng: np.random.Generator) -> Array:
    """Zero-mean exploration noise, clipped at ``noise_clip`` sigmas.

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


def sample_policy(bases: BasisSet, theta: Array, nominal: PlantModel, x: Array,
                  ref_sample: ReferenceSample, gains: GainMatrix, cfg: PolicyConfig,
                  rng: np.random.Generator, xi: Array | None = None) -> tuple[Array, Array]:
    """Draw ``u = u_hat(theta, x, y_d^(g) + K e) + w`` from the exploration policy.

    ``xi`` overrides the measured output stack (defaults to the chain map of
    ``x``); returns the applied input and the noise realization.
    """
    if xi is None:
        xi = nominal.output_chain(np.asarray(x, dtype=float))
    e = tracking_error(xi, ref_sample.xi_d)
    v = ref_sample.y_dgamma + gains.K @ e
    u_hat = eval_learned_controller(bases, theta, nominal, x, v)
    w = draw_noise(cfg, nominal.q, rng)
    return u_hat + w, w


def discrete_reward(e: Array, e_next: Array, ref: ReferenceModel, gains: GainMatrix,
                    dt: float) -> float:
    """One-step reward ``0.5 * || (e_next - Abar e) / dt ||^2``.

    ``Abar = I + dt (A + B K)`` is the Euler step of the target error
    dynamics, so the reward measures how far the realized error step strayed
    from the decay the design asked for.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    abar = np.eye(ref.total_degree) + dt * (ref.A + ref.B @ gains.K)
    resid = (np.asarray(e_next, dtype=float) - abar @ np.asarray(e, dtype=float)) / dt
    return 0.5 * float(resid @ resid)


def grad_log_policy(u: Array, u_hat: Array, sigma2: float, jac: Array) -> Array:
    """Score function of the Gaussian policy: ``jac.T @ (u - u_hat) / sigma2``."""
    if sigma2 <= 0:
        raise ValueError(f"sigma2 must be positive for the score function, got {sigma2}")
    return jac.T @ (np.asarray(u, dtype=float) - np.asarray(u_hat, dtype=float)) / sigma2


def estimate_gradient(reward: float, baseline_value: float, score: Array) -> GradientSample:
    """Score-function gradient estimate ``(R - S) * score``."""
    return GradientSample(reward=float(reward), score=np.asarray(score, dtype=float),
                          baseline_value=float(baseline_value))


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


def _fd_output_stack(model: PlantModel, path: Array, h: float) -> Array:
    """Measure ``xi`` from output samples by backward differences.

    ``path`` holds the substep states of the interval just integrated; the
    first derivative of each output is estimated from the last two samples.
    Only relative degrees up to 2 are supported, which covers every shipped
    plant.
    """
    if any(g > 2 for g in model.gamma):
        raise ValueError("finite-difference measurement supports relative degree <= 2")
    y_end = model.output(path[-1])
    y_prev = model.output(path[-2])
    xi = np.empty(sum(model.gamma))
    row = 0
    for j, g in enumerate(model.gamma):
        xi[row] = y_end[j]
        if g == 2:
            xi[row + 1] = (y_end[j] - y_prev[j]) / h
        row += g
    return xi


def _integrate_interval(plant: PlantModel, x: Array, u: Array, dt: float,
                        substeps: int, want_path: bool):
    if not want_path:
        deriv = lambda s: eval_dynamics(plant, s, u)  # noqa: E731
        return _rk4(deriv, x, dt / substeps, substeps, f"episode step on '{plant.name}'"), None
    path = np.empty((substeps + 1, plant.n))
    path[0] = x
    h = dt / substeps
    for i in range(substeps):
        path[i + 1] = _rk4(lambda s: eval_dynamics(plant, s, u), path[i], h, 1,
                           f"episode step on '{plant.name}'")
    return path[-1], path


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

    Plant divergence, a non-finite update or a decoupling matrix that turns
    singular mid-run truncates the record and sets the divergence flag
    instead of raising.
    """
    if update_rule not in ("policy_gradient", "ideal"):
        raise ValueError(f"unknown update rule {update_rule!r}")
    if measure not in ("exact", "finite_difference"):
        raise ValueError(f"unknown measurement mode {measure!r}")
    if update_rule == "ideal" and theta_star is None:
        raise ValueError("the ideal update rule needs theta_star")
    if learn and update_rule == "policy_gradient" and cfg.sigma2 <= 0:
        raise ValueError("policy-gradient learning needs sigma2 > 0 "
                         "(use learn=False for a noise-free frozen run)")
    if update_rule == "ideal":
        from .analysis import assemble_W  # deferred: analysis imports this module

    theta = np.asarray(theta0, dtype=float).copy()
    if theta.shape != (bases.size,):
        raise DimensionError(f"theta0 must have shape ({bases.size},), got {theta.shape}")
    x = np.zeros(plant.n) if x0 is None else np.asarray(x0, dtype=float).copy()
    baseline = baseline if baseline is not None else BaselineSpec(kind="none")
    baseline.reset()
    dt = cfg.dt
    total_deg = ref_model.total_degree

    t_nodes = np.arange(horizon + 1) * dt
    xs = np.zeros((horizon + 1, plant.n))
    xis = np.zeros((horizon + 1, total_deg))
    es = np.zeros((horizon + 1, total_deg))
    thetas = np.zeros((horizon + 1, bases.size))
    us = np.zeros((horizon, plant.q))
    ws = draw_noise_series(cfg, plant.q, seed, horizon)
    rewards = np.zeros(horizon)
    baselines = np.zeros(horizon)

    ref_k = sample_reference(reference, ref_model.gamma, 0.0)
    xi = plant.output_chain(x)
    xs[0], xis[0], thetas[0] = x, xi, theta
    es[0] = tracking_error(xi, ref_k.xi_d)

    diverged, diverged_step = False, None
    steps_done = 0
    for k in range(horizon):
        e = es[k]
        v = ref_k.y_dgamma + gains.K @ e
        try:
            u_hat = eval_learned_controller(bases, theta, nominal, x, v)
            u = u_hat + ws[k]
            x_next, path = _integrate_interval(plant, x, u, dt, substeps,
                                               want_path=(measure == "finite_difference"))
            ref_next = sample_reference(reference, ref_model.gamma, t_nodes[k + 1])
            if measure == "finite_difference":
                xi_next = _fd_output_stack(plant, path, dt / substeps)
            else:
                xi_next = plant.output_chain(x_next)
            e_next = tracking_error(xi_next, ref_next.xi_d)
            reward = discrete_reward(e, e_next, ref_model, gains, dt)
            baseline_value = baseline.value()
            if learn:
                if update_rule == "policy_gradient":
                    jac = controller_jacobian(bases, theta, nominal, x, v)
                    score = grad_log_policy(u, u_hat, cfg.sigma2, jac)
                    estimate = estimate_gradient(reward, baseline_value, score).estimate
                else:
                    W = assemble_W(plant, nominal, bases, x, ref_k.y_dgamma, e, gains)
                    estimate = W.T @ (W @ (theta - theta_star))
                theta_next = update_params(theta, estimate, dt)
            else:
                theta_next = theta
        except (DivergenceError, SingularMatrixError):
            diverged, diverged_step = True, k
            break

        us[k], rewards[k], baselines[k] = u, reward, baseline_value
        baseline.update(reward)
        x, xi, theta, ref_k = x_next, xi_next, theta_next, ref_next
        xs[k + 1], xis[k + 1], es[k + 1], thetas[k + 1] = x, xi, e_next, theta
        steps_done = k + 1

    n = steps_done
    phi = thetas[:n + 1] - np.asarray(theta_star, dtype=float) if theta_star is not None else None
    return AdaptRunRecord(
        t=t_nodes[:n + 1], x=xs[:n + 1], xi=xis[:n + 1], e=es[:n + 1],
        theta=thetas[:n + 1], phi=phi,
        u=us[:n], w=ws[:n], rewards=rewards[:n], baselines=baselines[:n],
        seed=int(seed), config=dict(config_snapshot or {}),
        diverged=diverged, diverged_step=diverged_step,
    )


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


def run_ensemble(plant: PlantModel, nominal: PlantModel, bases: BasisSet, theta0: Array,
                 reference: SinusoidSum, ref_model: ReferenceModel, gains: GainMatrix,
                 cfg: PolicyConfig, n_trials: int, horizon: int,
                 baseline_kind: str = "mean_of_past", seed: int = 0, cell_key: int = 0,
                 x0: Array | None = None, theta_star: Array | None = None,
                 substeps: int = 8, learn: bool = True) -> EnsembleRecord:
    """Run many policy-gradient episodes in lockstep, vectorized over trials.

    Trial ``b`` draws exactly the noise that ``run_episode`` would draw with
    master seed ``derive_seed(seed, cell_key, b)``, so a single trial of an
    ensemble reproduces the corresponding sequential run (up to float
    round-off from batched linear algebra).  A trial that leaves the finite
    floats is flagged and frozen in place; the others keep running.
    """
    if learn and cfg.sigma2 <= 0:
        raise ValueError("policy-gradient ensembles need sigma2 > 0")
    theta0 = np.asarray(theta0, dtype=float)
    q, total_deg, size = plant.q, ref_model.total_degree, bases.size
    k1 = bases.k1
    n_scalar = bases.n_scalar
    dt = cfg.dt
    abar_t = (np.eye(total_deg) + dt * (ref_model.A + ref_model.B @ gains.K)).T
    x_init = np.zeros(plant.n) if x0 is None else np.asarray(x0, dtype=float)

    seeds = np.array([derive_seed(seed, cell_key, b) for b in range(n_trials)], dtype=np.int64)
    noise = np.empty((n_trials, horizon, q))
    for b in range(n_trials):
        noise[b] = draw_noise_series(cfg, q, int(seeds[b]), horizon)

    refs = [sample_reference(reference, ref_model.gamma, k * dt) for k in range(horizon + 1)]
    xi_d = np.array([r.xi_d for r in refs])
    y_dg = np.array([r.y_dgamma for r in refs])

    x = np.broadcast_to(x_init, (n_trials, plant.n)).copy()
    theta = np.broadcast_to(theta0, (n_trials, size)).copy()
    reward_total = np.zeros(n_trials)
    reward_count = 0
    alive = np.ones(n_trials, dtype=bool)
    diverged_step = np.full(n_trials, -1, dtype=np.int64)

    t_nodes = np.arange(horizon + 1) * dt
    es = np.zeros((n_trials, horizon + 1, total_deg))
    thetas = np.zeros((n_trials, horizon + 1, size))
    es[:, 0] = plant.output_chain(x) - xi_d[0]
    thetas[:, 0] = theta

    h = dt / substeps
    for k in range(horizon):
        # blown-up lanes produce non-finite intermediates until they are
        # flagged below; silence the arithmetic warnings they would raise
        with np.errstate(over="ignore", invalid="ignore"):
            e = es[:, k]
            v = y_dg[k] + e @ gains.K.T
            beta_m, alpha_m = linearizing_terms(nominal, x)
            phi_f = bases.features(x)
            t1 = theta[:, :k1].reshape(n_trials, n_scalar, q)
            t2 = theta[:, k1:].reshape(n_trials, n_scalar, q, q)
            beta_c = bases.beta_scale * np.einsum("bs,bsj->bj", phi_f, t1)
            alpha_c = bases.alpha_scale * np.einsum("bs,bsjl->bjl", phi_f, t2)
            u = beta_m + beta_c + np.einsum("bjl,bl->bj", alpha_m + alpha_c, v) + noise[:, k]

            x_next = x
            for _ in range(substeps):
                k1_ = eval_dynamics(plant, x_next, u)
                k2_ = eval_dynamics(plant, x_next + 0.5 * h * k1_, u)
                k3_ = eval_dynamics(plant, x_next + 0.5 * h * k2_, u)
                k4_ = eval_dynamics(plant, x_next + h * k3_, u)
                x_next = x_next + (h / 6.0) * (k1_ + 2.0 * k2_ + 2.0 * k3_ + k4_)
            e_next = plant.output_chain(x_next) - xi_d[k + 1]

            resid = (e_next - e @ abar_t) / dt
            rewards = 0.5 * np.sum(resid * resid, axis=1)
            if baseline_kind == "none" or reward_count == 0:
                baseline = np.zeros(n_trials)
            elif baseline_kind == "sum_of_past":
                baseline = reward_total
            else:
                baseline = reward_total / reward_count
            if learn:
                w_k = noise[:, k]
                score1 = (bases.beta_scale / cfg.sigma2) * np.einsum("bs,bj->bsj",
                                                                     phi_f, w_k)
                score2 = (bases.alpha_scale / cfg.sigma2) * np.einsum("bs,bj,bl->bsjl",
                                                                      phi_f, w_k, v)
                score = np.concatenate([score1.reshape(n_trials, -1),
                                        score2.reshape(n_trials, -1)], axis=1)
                theta_next = theta - dt * (rewards - baseline)[:, None] * score
            else:
                theta_next = theta

            ok = (np.isfinite(x_next).all(axis=1) & np.isfinite(theta_next).all(axis=1)
                  & np.isfinite(rewards) & (np.abs(x_next).max(axis=1) < 1e9))
        newly_dead = alive & ~ok
        diverged_step[newly_dead] = k
        alive &= ok
        # freeze dead lanes at a safe state so later batched algebra stays finite
        x_next[~alive] = x_init
        theta_next[~alive] = thetas[~alive, k]
        e_next[~alive] = es[~alive, k]
        rewards = np.where(alive, rewards, 0.0)

        reward_total = reward_total + rewards
        reward_count += 1
        x, theta = x_next, theta_next
        es[:, k + 1] = e_next
        thetas[:, k + 1] = theta

    phi = thetas - np.asarray(theta_star, dtype=float) if theta_star is not None else None
    return EnsembleRecord(t=t_nodes, e=es, phi=phi, diverged=diverged_step >= 0,
                          diverged_step=diverged_step, seeds=seeds)
