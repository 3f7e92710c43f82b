"""Independent oracles the tests check the implementation against.

The parameter-layout oracle builds ``left @ d u_hat / d theta`` from
Kronecker products, one state at a time, as the layout's definition reads.
The disturbance oracle forms one transition matrix per sampling interval
from that interval's two regressor samples, as the definition
``delta_k = X_{k+1} - Phi(t_{k+1}, t_k) X_k`` reads.
The double-pendulum oracle derives accelerations numerically from the
Lagrangian (point-mass positions differentiated by finite differences), so
it shares no code or algebra with the closed-form dynamics in the package.
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


def per_interval_disturbances(record, scenario, step=None):
    """``X_{k+1} - Phi(t_{k+1}, t_k) X_k``, one propagator per interval."""
    from fblearn import interp_matrix_series, regressor_series, transition_matrix
    dt = float(record.t[1] - record.t[0])
    step = dt / 8.0 if step is None else step
    w_samples = regressor_series(record, scenario)
    X = np.concatenate([record.e, record.phi], axis=1)
    delta = np.empty((record.steps, X.shape[1]))
    for k in range(record.steps):
        w_of_t = interp_matrix_series(record.t[k:k + 2], w_samples[k:k + 2])
        phi = transition_matrix(w_of_t, scenario.ref_model, scenario.gains,
                                record.t[k], record.t[k + 1], step)
        delta[k] = X[k + 1] - phi @ X[k]
    return delta
