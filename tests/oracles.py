"""Independent oracles the tests check the implementation against.

The parameter-layout oracle builds ``left @ d u_hat / d theta`` from
Kronecker products, one state at a time, as the layout's definition reads.
The disturbance oracle forms one transition matrix per sampling interval
from that interval's two regressor samples, as the definition
``delta_k = X_{k+1} - Phi(t_{k+1}, t_k) X_k`` reads.
The double-pendulum oracle derives accelerations numerically from the
Lagrangian (point-mass positions differentiated by finite differences), so
it shares no code or algebra with the closed-form dynamics in the package.
The episode oracle steps one policy-gradient episode an interval at a time,
as a plain loop over a batch of one state, the way the lane kernel's
sequential predecessor did.
The chain oracles are the generic forms the specialised plants must equal
bit for bit: the chain rate as ``A x + B u`` of the reference model, and the
in-span plant built from any nominal, its ``(beta_m, alpha_m)`` added to the
correction at every call and ``alpha_p`` inverted by the adjugate over its
determinant at q = 2 and by ``np.linalg.solve`` at any other q.
The one-interval oracle forms the gradient study's draws at one frozen
state by hand: its own reference samples, error and input, and one batch
of RK4 steps over the held interval, as the study did before it ran on the
lane kernel.
The steady-window oracle reduces a cell's full-horizon record, node 0 on,
with the steady window given as an absolute step and the kept trials
gathered by a boolean mask, as the sweep did before its ensembles recorded
only their windows.
The excitation oracle is the persistence-of-excitation check as it was
before it streamed its window integrals: whole ``(samples, p, p)`` stacks
of ``W.T W``, its trapezoid segments and their cumulative sum, and one
batched eigen-solve over every window.
"""

import numpy as np
from scipy.linalg import expm  # noqa: F401  (re-exported for tests)


def _mass_positions(q, m1, m2, l1, l2):
    q1, q2 = q
    p1 = np.array([l1 * np.sin(q1), -l1 * np.cos(q1)])
    p2 = p1 + np.array([l2 * np.sin(q1 + q2), -l2 * np.cos(q1 + q2)])
    return p1, p2


def _kinetic(q, qd, m1, m2, l1, l2, h=1e-6):
    J1 = np.zeros((2, 2))
    J2 = np.zeros((2, 2))
    for i in range(2):
        dq = np.zeros(2)
        dq[i] = h
        a1, a2 = _mass_positions(q + dq, m1, m2, l1, l2)
        b1, b2 = _mass_positions(q - dq, m1, m2, l1, l2)
        J1[:, i] = (a1 - b1) / (2 * h)
        J2[:, i] = (a2 - b2) / (2 * h)
    v1, v2 = J1 @ qd, J2 @ qd
    return 0.5 * m1 * v1 @ v1 + 0.5 * m2 * v2 @ v2


def _potential(q, m1, m2, l1, l2, gravity):
    p1, p2 = _mass_positions(q, m1, m2, l1, l2)
    return m1 * gravity * p1[1] + m2 * gravity * p2[1]


def pendulum_mass_matrix(q, m1=1.0, m2=1.0, l1=1.0, l2=1.0, h=1e-4):
    """Mass matrix as the Hessian of the kinetic energy in the joint rates."""
    M = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            ei = np.zeros(2)
            ej = np.zeros(2)
            ei[i] = h
            ej[j] = h
            M[i, j] = (_kinetic(q, ei + ej, m1, m2, l1, l2)
                       - _kinetic(q, ei - ej, m1, m2, l1, l2)
                       - _kinetic(q, -ei + ej, m1, m2, l1, l2)
                       + _kinetic(q, -ei - ej, m1, m2, l1, l2)) / (4 * h * h)
    return M


def pendulum_accel(q, qd, tau, m1=1.0, m2=1.0, l1=1.0, l2=1.0, gravity=9.81, h=1e-5):
    """Joint accelerations from the Euler-Lagrange equations, numerically."""
    q = np.asarray(q, dtype=float)
    qd = np.asarray(qd, dtype=float)
    tau = np.asarray(tau, dtype=float)
    M = pendulum_mass_matrix(q, m1, m2, l1, l2)
    mdot_qd = (pendulum_mass_matrix(q + h * qd, m1, m2, l1, l2) @ qd
               - pendulum_mass_matrix(q - h * qd, m1, m2, l1, l2) @ qd) / (2 * h)
    dT_dq = np.zeros(2)
    dV_dq = np.zeros(2)
    for i in range(2):
        dq = np.zeros(2)
        dq[i] = h
        dT_dq[i] = (_kinetic(q + dq, qd, m1, m2, l1, l2)
                    - _kinetic(q - dq, qd, m1, m2, l1, l2)) / (2 * h)
        dV_dq[i] = (_potential(q + dq, m1, m2, l1, l2, gravity)
                    - _potential(q - dq, m1, m2, l1, l2, gravity)) / (2 * h)
    return np.linalg.solve(M, tau - mdot_qd + dT_dq - dV_dq)


def loglog_slope(xs, ys):
    """Least-squares slope of log(y) against log(x)."""
    return float(np.polyfit(np.log(np.asarray(xs, dtype=float)),
                            np.log(np.asarray(ys, dtype=float)), 1)[0])


def kron_columns(bases, phi, left, v):
    """``left @ J`` for one state: ``kron(phi, left)`` and ``kron(phi, kron(left, v))``."""
    return np.concatenate([bases.beta_scale * np.kron(phi, left),
                           bases.alpha_scale * np.kron(phi, np.kron(left, v[None, :]))], axis=-1)


def per_interval_disturbances(record, scenario):
    """``X_{k+1} - Phi(t_{k+1}, t_k) X_k``, one propagator per interval of ``dt / 8`` steps."""
    from fblearn import interp_matrix_series, regressor_series, transition_matrix
    step = float(record.t[1] - record.t[0]) / 8.0
    w_samples = regressor_series(record, scenario)
    X = np.concatenate([record.e, record.phi], axis=1)
    delta = np.empty((record.steps, X.shape[1]))
    for k in range(record.steps):
        w_of_t = interp_matrix_series(record.t[k:k + 2], w_samples[k:k + 2])
        phi = transition_matrix(w_of_t, scenario.ref_model, scenario.gains,
                                record.t[k], record.t[k + 1], step)
        delta[k] = X[k + 1] - phi @ X[k]
    return delta


def least_squares_cost(W, phi):
    """The cost ``0.5 * ||W phi||^2`` whose gradient is ``W.T W phi``."""
    return 0.5 * float((W @ phi) @ (W @ phi))


def chain_rate_matmul(gamma):
    """``(x, u) -> A x + B u`` of the chain-of-integrators reference model."""
    from fblearn.linearize import build_reference_model
    ref = build_reference_model(gamma)
    return lambda x, u: (np.einsum("ij,...j->...i", ref.A, x)
                         + np.einsum("ij,...j->...i", ref.B, u))


def generic_inspan_plant(nominal, bases, theta_star):
    """The in-span plant for any nominal in output-chain coordinates."""
    from fblearn import PlantModel, linearizing_terms
    from fblearn.basis import eval_correction
    chain = chain_rate_matmul(nominal.gamma)

    def linearizing(x):
        beta_m, alpha_m = nominal.linearizing(x)
        beta_c, alpha_c = eval_correction(bases, theta_star, x)
        return beta_m + beta_c, alpha_m + alpha_c

    def rate(x, u):
        beta_p, alpha_p = linearizing_terms(plant, x)
        r = u - beta_p
        if nominal.q != 2:
            return chain(x, np.linalg.solve(alpha_p, r[..., None])[..., 0])
        (a00, a01), (a10, a11) = np.moveaxis(alpha_p, (-2, -1), (0, 1))
        r0, r1 = np.moveaxis(r, -1, 0)
        det = a00 * a11 - a01 * a10
        return chain(x, np.stack([(a11 * r0 - a01 * r1) / det,
                                  (a00 * r1 - a10 * r0) / det], axis=-1))

    plant = PlantModel(n=nominal.n, q=nominal.q, gamma=nominal.gamma,
                       output_chain=lambda x: x, rate=rate, linearizing=linearizing,
                       name="inspan-generic")
    return plant


def sequential_episode(plant, nominal, bases, theta0, reference, ref_model, gains, cfg,
                       horizon, seed, x0, learn=True, theta_star=None, substeps=10,
                       baseline_kind="none"):
    """One policy-gradient episode stepped interval by interval; the record's arrays.

    Every quantity is formed by the same calls, in the same order, as in the
    lane kernel, so with two or more outputs a lane must match it bit for
    bit.  A step fails on a non-finite state, parameter or reward, on
    ``max|x| >= STATE_BOUND`` or on a singular decoupling matrix; the arrays
    are then truncated there and ``diverged_step`` is that step.  The
    baseline is formed here from the list of past rewards: 0 for ``"none"``
    and at step 0, else their sum or their mean, summed from the left.
    """
    from fblearn import (SingularMatrixError, controller_jacobian,
                         discrete_reward, eval_dynamics, eval_learned_controller,
                         grad_log_policy, rk4_step, sample_reference)
    from fblearn.learning import STATE_BOUND, draw_noise_series

    dt, h = cfg.dt, cfg.dt / substeps
    w = draw_noise_series(cfg, plant.q, seed, horizon)
    t = np.arange(horizon + 1) * dt
    ref = sample_reference(reference, ref_model.gamma, t)
    past = []
    x = np.asarray(x0, dtype=float)[None]
    theta = np.asarray(theta0, dtype=float)[None]
    xi = plant.output_chain(x)
    e = xi - ref.xi_d[0]
    nodes = {"x": [x[0]], "xi": [xi[0]], "e": [e[0]], "theta": [theta[0]]}
    intervals = {"u": [], "rewards": [], "baselines": []}
    diverged_step = None
    for k in range(horizon):
        b = 0.0 if not past or baseline_kind == "none" else sum(past) / len(past)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                v = ref.y_dgamma[k] + (gains @ e[..., None])[..., 0]
                u_hat = eval_learned_controller(bases, theta, nominal, x, v)
                u = u_hat + w[k]
                x_next = x
                for _ in range(substeps):
                    x_next = rk4_step(lambda t_, s: eval_dynamics(plant, s, u), 0.0, x_next, h)
                xi_next = plant.output_chain(x_next)
                e_next = xi_next - ref.xi_d[k + 1]
                reward = discrete_reward(e, e_next, ref_model, gains, dt)
                theta_next = theta
                if learn:
                    score = grad_log_policy(u, u_hat, cfg.sigma2,
                                            controller_jacobian(bases, x, v))
                    theta_next = theta - dt * ((reward - b)[:, None] * score)
                ok = (np.isfinite(x_next).all() and np.isfinite(theta_next).all()
                      and np.isfinite(reward).all() and np.abs(x_next).max() < STATE_BOUND)
        except SingularMatrixError:
            ok = False
        if not ok:
            diverged_step = k
            break
        for name, value in (("x", x_next), ("xi", xi_next), ("e", e_next),
                            ("theta", theta_next)):
            nodes[name].append(value[0])
        for name, value in (("u", u), ("rewards", reward),
                            ("baselines", np.broadcast_to(b, (1,)))):
            intervals[name].append(value[0])
        past.append(reward)
        x, e, theta = x_next, e_next, theta_next
    n = horizon if diverged_step is None else diverged_step
    out = {name: np.array(values) for name, values in {**nodes, **intervals}.items()}
    out["u"] = out["u"].reshape(n, plant.q)
    out.update(t=t[:n + 1], w=w[:n], diverged_step=diverged_step,
               phi=None if theta_star is None else out["theta"] - theta_star)
    return out


def one_interval_gradient(scenario, theta, cfg, t_k, x_k, n_draws, seed, substeps=8):
    """The gradient study's ``(estimates, scores, rewards, target)``, formed by hand.

    The reference is sampled at ``t_k`` and ``t_k + dt``; the error, ``v``,
    ``u_hat``, the Jacobian and ``W`` are formed at the one frozen state;
    the held inputs ``u_hat + w`` are integrated as one batch of
    ``substeps`` RK4 steps through ``eval_dynamics``; and the reward and
    score follow, without a baseline.  The draws are the study's:
    ``draw_noise`` on ``SeedSequence(seed, spawn_key=(3,))``.
    """
    from fblearn import (assemble_W, controller_jacobian, discrete_reward, eval_dynamics,
                         eval_learned_controller, grad_log_policy, least_squares_gradient,
                         rk4_step, sample_reference, tracking_error)
    from fblearn.learning import draw_noise

    plant, bases = scenario.plant, scenario.bases
    ref_model, gains = scenario.ref_model, scenario.gains
    x_k = np.asarray(x_k, dtype=float)
    theta = np.asarray(theta, dtype=float)
    ref_k = sample_reference(scenario.reference, ref_model.gamma, t_k)
    ref_next = sample_reference(scenario.reference, ref_model.gamma, t_k + cfg.dt)
    e = tracking_error(plant.output_chain(x_k), ref_k.xi_d)
    v = ref_k.y_dgamma + gains @ e
    u_hat = eval_learned_controller(bases, theta, scenario.nominal, x_k, v)
    W = assemble_W(plant, bases, x_k, ref_k.y_dgamma, e, gains)
    target = least_squares_gradient(W, theta - scenario.theta_star)

    w = draw_noise(cfg, (n_draws, plant.q),
                   np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3,))))
    u = u_hat + w
    x_next = np.broadcast_to(x_k, (n_draws, plant.n))
    for _ in range(substeps):
        x_next = rk4_step(lambda t, s: eval_dynamics(plant, s, u), 0.0, x_next,
                          cfg.dt / substeps)
    e_next = plant.output_chain(x_next) - ref_next.xi_d
    rewards = discrete_reward(e, e_next, ref_model, gains, cfg.dt)
    scores = grad_log_policy(u, u_hat, cfg.sigma2, controller_jacobian(bases, x_k, v))
    return rewards[:, None] * scores, scores, rewards, target


def full_record_steady_stats(e, phi, diverged, steady_from, lambdas, block=25):
    """Quantiles, mean offset and divergence count of one cell's full-horizon record."""
    kept = ~diverged
    per_step = {lam: [] for lam in lambdas}
    offsets = []
    for lo in range(steady_from, e.shape[1], block):
        window = slice(lo, lo + block)
        X = np.concatenate([e[kept, window], phi[kept, window]], axis=2)
        mean = X.mean(axis=0)
        offsets.append(np.linalg.norm(mean, axis=1))
        if lambdas:
            deviations = np.linalg.norm(X - mean, axis=2)
            for lam in lambdas:
                per_step[lam].append(np.quantile(deviations, 1.0 - lam, axis=0))
    quantiles = {lam: float(np.mean(np.concatenate(parts))) for lam, parts in per_step.items()}
    return quantiles, float(np.mean(np.concatenate(offsets))), int(np.sum(diverged))


def all_at_once_pe_check(times, w_samples, delta, stride=1):
    """Persistence-of-excitation report from whole-series stacks and one eigen-solve."""
    from fblearn import PEReport

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
    starts = np.arange(0, len(times), max(1, int(stride)))
    starts = starts[ends[starts] < len(times)]
    if len(starts) == 0:
        raise ValueError("no complete window fits in the sample series")
    evals = np.linalg.eigvalsh(cum[ends[starts]] - cum[starts])
    c1, c2 = float(evals[:, -1].max()), float(evals[:, 0].min())
    return PEReport(delta=float(delta), c1=c1, c2=c2,
                    satisfied=bool(c2 > 1e-9 * max(1.0, c1)), n_windows=len(starts))
