import dataclasses
import warnings
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fblearn import (DoublePendulumParams, PlantModel, eval_dynamics, linearizing_terms,
                     make_chain_plant, make_double_pendulum, make_inspan_plant,
                     polynomial_basis, eval_learned_controller, rbf_basis, rk4_step)
from fblearn.config import load_config
from fblearn.errors import DimensionError, SingularMatrixError
from fblearn.linearize import build_reference_model
from fblearn.scenarios import build_scenario

from oracles import (chain_rate_matmul, expm, generic_inspan_plant, loglog_slope,
                     pendulum_accel, pendulum_mass_matrix)


def linear_plant(F, G):
    """Ad-hoc linear plant for integration tests; its linearizing controller is unused."""
    F = np.asarray(F, dtype=float)
    G = np.asarray(G, dtype=float)
    n, q = G.shape
    return PlantModel(
        n=n, q=q,
        gamma=(1,) * q,
        output_chain=lambda x: x[..., :q],
        rate=lambda x, u: np.einsum("ij,...j->...i", F, x) + np.einsum("ij,...j->...i", G, u),
        linearizing=lambda x: (np.zeros(x.shape[:-1] + (q,)),
                               np.broadcast_to(np.eye(q), x.shape[:-1] + (q, q))),
        name="linear-test",
    )


SHIPPED_PLANTS = ("pendulum", "pendulum_nominal", "chain22", "chain31", "inspan_q1",
                  "inspan_q2")


@cache
def _shipped_plant(name):
    configs = Path(__file__).parent.parent / "configs"
    return {
        "pendulum": make_double_pendulum,
        "pendulum_nominal": lambda: make_double_pendulum(DoublePendulumParams().scaled(1.3)),
        "chain22": lambda: make_chain_plant((2, 2)),
        "chain31": lambda: make_chain_plant((3, 1)),
        "inspan_q1": lambda: build_scenario(load_config(configs / "inspan_diag.yaml")).plant,
        "inspan_q2": lambda: build_scenario(load_config(configs / "inspan_mc.yaml")).plant,
        "inspan_q3": lambda: build_scenario(load_config(configs / "inspan_diag.yaml",
                                                        ["inspan.gamma=[2, 1, 1]"])).plant,
    }[name]()


class TestEvalDynamics:
    def test_pendulum_origin_equilibrium(self, pendulum):
        np.testing.assert_allclose(eval_dynamics(pendulum, np.zeros(4), np.zeros(2)),
                                   np.zeros(4), atol=1e-14)

    def test_linear_plant_definition(self, rng):
        F = rng.standard_normal((4, 4))
        G = rng.standard_normal((4, 2))
        plant = linear_plant(F, G)
        for _ in range(5):
            x, u = rng.standard_normal(4), rng.standard_normal(2)
            np.testing.assert_allclose(eval_dynamics(plant, x, u), F @ x + G @ u)

    def test_pendulum_matches_lagrangian_oracle(self, pendulum):
        x = np.array([0.1, 0.2, 0.0, 0.0])
        got = eval_dynamics(pendulum, x, np.zeros(2))
        # frozen from the Euler-Lagrange oracle; recomputed below as well
        np.testing.assert_allclose(got[2:], [0.84902302, -4.58017534], atol=1e-7)
        np.testing.assert_allclose(got[2:], pendulum_accel(x[:2], x[2:], np.zeros(2)),
                                   atol=1e-6)

    def test_pendulum_oracle_with_motion_and_torque(self, pendulum, rng):
        for _ in range(3):
            x = rng.uniform(-1.0, 1.0, 4)
            u = rng.uniform(-2.0, 2.0, 2)
            got = eval_dynamics(pendulum, x, u)
            np.testing.assert_allclose(got[:2], x[2:])
            # tolerance set by the oracle's own finite-difference accuracy
            np.testing.assert_allclose(got[2:], pendulum_accel(x[:2], x[2:], u), atol=3e-4)

    def test_dimension_mismatch(self, pendulum):
        with pytest.raises(DimensionError):
            eval_dynamics(pendulum, np.zeros(3), np.zeros(2))
        with pytest.raises(DimensionError):
            eval_dynamics(pendulum, np.zeros(4), np.zeros(3))

    def test_batched_evaluation(self, pendulum, rng):
        xs = rng.uniform(-1, 1, (7, 4))
        us = rng.uniform(-1, 1, (7, 2))
        batch = eval_dynamics(pendulum, xs, us)
        for i in range(7):
            np.testing.assert_allclose(batch[i], eval_dynamics(pendulum, xs[i], us[i]))


class TestLinearizingTerms:
    def test_pendulum_at_rest_is_the_mass_matrix(self, pendulum):
        beta, alpha = linearizing_terms(pendulum, np.zeros(4))
        np.testing.assert_array_equal(alpha, [[5.0, 2.0], [2.0, 1.0]])
        np.testing.assert_allclose(alpha, pendulum_mass_matrix(np.zeros(2)), atol=1e-6)
        np.testing.assert_array_equal(beta, np.zeros(2))

    def test_double_integrator_identity(self, rng):
        plant = make_chain_plant((2, 2))
        beta, alpha = linearizing_terms(plant, rng.standard_normal(4))
        np.testing.assert_array_equal(beta, np.zeros(2))
        np.testing.assert_array_equal(alpha, np.eye(2))
        beta, alpha = linearizing_terms(plant, rng.standard_normal((7, 4)))
        np.testing.assert_array_equal(beta, np.zeros((7, 2)))
        np.testing.assert_array_equal(alpha, np.broadcast_to(np.eye(2), (7, 2, 2)))

    def test_inspan_plant_inverts_its_controller(self, inspan1, rng):
        for _ in range(5):
            x = rng.uniform(-1, 1, 2)
            v = rng.standard_normal(1)
            beta, alpha = linearizing_terms(inspan1.plant, x)
            u = eval_learned_controller(inspan1.bases, inspan1.theta_star,
                                        inspan1.nominal, x, v)
            np.testing.assert_allclose(u, beta + alpha @ v, atol=1e-12)
            np.testing.assert_allclose(eval_dynamics(inspan1.plant, x, u)[1], v, atol=1e-12)

    @pytest.mark.parametrize("name", SHIPPED_PLANTS)
    @settings(max_examples=40)
    @given(data=st.data())
    def test_controller_linearizes_its_plant(self, name, data):
        # y^(gamma) under u = beta + alpha v is v, for every shipped plant
        plant = _shipped_plant(name)
        x = data.draw(arrays(float, plant.n, elements=st.floats(-1.0, 1.0)), label="x")
        v = data.draw(arrays(float, plant.q, elements=st.floats(-5.0, 5.0)), label="v")
        beta, alpha = linearizing_terms(plant, x)
        B = build_reference_model(plant.gamma).B
        got = B.T @ plant.output_chain(plant.rate(x, beta + alpha @ v))
        # relative to v, with an absolute floor for entries of v near zero
        np.testing.assert_allclose(got, v, rtol=1e-9, atol=1e-9)

    def test_flow_consistency_by_finite_differences(self, pendulum, rng):
        # central second difference of y along the flow matches alpha^-1 (u - beta)
        h = 1e-5

        def step(x, u, h_signed):
            k1 = eval_dynamics(pendulum, x, u)
            k2 = eval_dynamics(pendulum, x + 0.5 * h_signed * k1, u)
            k3 = eval_dynamics(pendulum, x + 0.5 * h_signed * k2, u)
            k4 = eval_dynamics(pendulum, x + h_signed * k3, u)
            return x + (h_signed / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

        for _ in range(5):
            x = rng.uniform(-0.8, 0.8, 4)
            u = rng.uniform(-1.5, 1.5, 2)
            beta, alpha = linearizing_terms(pendulum, x)
            ydd = (step(x, u, h)[:2] - 2 * x[:2] + step(x, u, -h)[:2]) / h ** 2
            np.testing.assert_allclose(ydd, np.linalg.inv(alpha) @ (u - beta), atol=1e-4)


def hold(model, x0, u, dt, substeps):
    """``x0`` carried over ``dt`` with ``u`` held, in ``substeps`` steps of ``rk4_step``."""
    x = np.asarray(x0, dtype=float)
    for _ in range(substeps):
        x = rk4_step(lambda t, s: eval_dynamics(model, s, u), 0.0, x, dt / substeps)
    return x


class TestIntegrateZOH:
    """A held-input interval integrated with ``rk4_step``, as the loop's kernel does."""

    def test_zero_field_is_identity(self):
        plant = linear_plant(np.zeros((3, 3)), np.zeros((3, 1)))
        x0 = np.array([1.0, -2.0, 3.0])
        np.testing.assert_allclose(hold(plant, x0, np.zeros(1), 0.5, 5), x0)

    def test_linear_plant_against_matrix_exponential(self, rng):
        F = rng.standard_normal((4, 4))
        plant = linear_plant(F, np.zeros((4, 1)))
        x0 = rng.standard_normal(4)
        got = hold(plant, x0, np.zeros(1), 0.05, 50)
        want = expm(F * 0.05) @ x0
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    def test_fourth_order_self_convergence(self, pendulum):
        # global error vs a 100x-resolution reference drops ~16x per halving
        x0 = np.array([0.4, -0.3, 0.2, 0.1])
        u = np.array([0.3, -0.2])
        reference = hold(pendulum, x0, u, 0.5, 6400)
        errs = []
        substeps = [8, 16, 32, 64]
        for s in substeps:
            errs.append(np.linalg.norm(hold(pendulum, x0, u, 0.5, s) - reference))
        slope = loglog_slope([0.5 / s for s in substeps], errs)
        assert abs(slope - 4.0) <= 0.2


class TestDoublePendulum:
    def test_shape_and_relative_degree(self, pendulum):
        assert pendulum.gamma == (2, 2)
        assert pendulum.n == 4 and pendulum.q == 2
        assert sum(pendulum.gamma) == pendulum.n

    def test_scaled_params_build_the_mismatched_nominal(self):
        scaled = DoublePendulumParams().scaled(1.3)
        assert scaled.m1 == scaled.m2 == scaled.l1 == scaled.l2 == pytest.approx(1.3)
        assert scaled.gravity == pytest.approx(9.81)
        nominal = make_double_pendulum(scaled)
        _, alpha = linearizing_terms(nominal, np.zeros(4))
        np.testing.assert_allclose(
            alpha, pendulum_mass_matrix(np.zeros(2), 1.3, 1.3, 1.3, 1.3), atol=1e-6)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            DoublePendulumParams(m1=-1.0)
        with pytest.raises(ValueError):
            DoublePendulumParams(gravity=0.0)

    def test_output_chain_ordering(self, pendulum, rng):
        x = rng.standard_normal(4)
        np.testing.assert_allclose(pendulum.output_chain(x), x[[0, 2, 1, 3]])

    def test_shipped_plants_have_origin_equilibrium(self, pendulum):
        for plant in (pendulum, make_chain_plant((2, 2)), make_chain_plant((3, 1))):
            np.testing.assert_allclose(plant.rate(np.zeros(plant.n), np.zeros(plant.q)),
                                       np.zeros(plant.n), atol=1e-14)


class TestInSpanPlant:
    def test_zero_correction_reproduces_nominal(self, rng):
        nominal = make_chain_plant((2,))
        bases = polynomial_basis(2, 1, io_dim=1)
        plant = make_inspan_plant((2,), bases, np.zeros(bases.size))
        for _ in range(5):
            x, u = rng.standard_normal(2), rng.standard_normal(1)
            np.testing.assert_allclose(eval_dynamics(plant, x, u),
                                       eval_dynamics(nominal, x, u), atol=1e-13)

    def test_theta_star_dimension_checked(self):
        bases = polynomial_basis(2, 1, io_dim=1)
        with pytest.raises(DimensionError):
            make_inspan_plant((2,), bases, np.zeros(3))

    def test_singular_alpha_reported(self):
        # constant feature with theta2* = -1 cancels the nominal gain exactly
        bases = polynomial_basis(2, 0, io_dim=1)
        plant = make_inspan_plant((2,), bases, np.array([0.0, -1.0]))
        with pytest.raises(SingularMatrixError):
            linearizing_terms(plant, np.zeros(2))

    def test_q1_singular_mask_through_the_division(self):
        # phi = [1, x1, x0]; theta2* = [0, -1, 0] makes alpha_p = 1 - x1, zero at x1 = 1
        bases = polynomial_basis(2, 1, io_dim=1)
        plant = make_inspan_plant((2,), bases, np.array([0.0, 0.0, 0.0, 0.0, -1.0, 0.0]))
        x = np.array([[0.3, 0.5], [0.3, 1.0], [-0.2, -0.5]])
        with pytest.raises(SingularMatrixError) as err:
            plant.rate(x, np.ones((3, 1)))
        assert err.value.lanes.tolist() == [False, True, False]
        np.testing.assert_array_equal(plant.rate(x[::2], np.ones((2, 1)))[:, 1],
                                      [1.0 / 0.5, 1.0 / 1.5])

    def test_q2_singular_mask_through_the_adjugate(self):
        # phi = [1, x1, x0]; theta2* puts x1 off the diagonal: alpha_p = [[1, x1], [x1, 1]],
        # whose determinant 1 - x1^2 vanishes at x1 = 1
        bases = polynomial_basis(2, 1, io_dim=2)
        theta_star = np.zeros(bases.size)  # theta2[i, j, l] sits at k1 + i*q*q + j*q + l
        theta_star[bases.k1 + 1 * 4 + 0 * 2 + 1] = theta_star[bases.k1 + 1 * 4 + 1 * 2 + 0] = 1.0
        plant = make_inspan_plant((1, 1), bases, theta_star)
        x = np.array([[0.3, 0.5], [0.3, 1.0], [-0.2, -0.5]])
        u = np.array([[1.0, 2.0], [1.0, 1.0], [-1.0, 0.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMatrixError) as err:
                plant.rate(x, u)
            assert err.value.lanes.tolist() == [False, True, False]
            got = plant.rate(x[::2], u[::2])
        # gamma = (1, 1): the rate is alpha_p^-1 u, here the adjugate over det = 0.75
        a01 = x[::2, 1]
        det = 1.0 * 1.0 - a01 * a01
        want = np.stack([(1.0 * u[::2, 0] - a01 * u[::2, 1]) / det,
                         (1.0 * u[::2, 1] - a01 * u[::2, 0]) / det], axis=-1)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("case", ["zero", "nan"])
    def test_q2_zero_or_nan_alpha_is_singular(self, case):
        bases = polynomial_basis(2, 1, io_dim=2)
        theta_star = np.zeros(bases.size)
        x = np.array([[0.3, 0.5], [0.1, -0.4]])
        if case == "zero":  # the constant feature cancels I: alpha_p = 0 at every state
            theta_star[bases.k1 + 0] = theta_star[bases.k1 + 3] = -1.0
            singular = [True, True]
        else:  # alpha_p[0, 1] = x1, which is NaN on the first state
            theta_star[bases.k1 + 1 * 4 + 1] = 1.0
            x[0, 1] = np.nan
            singular = [True, False]
        plant = make_inspan_plant((1, 1), bases, theta_star)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMatrixError) as err:
                plant.rate(x, np.ones((2, 2)))
            assert err.value.lanes.tolist() == singular
            with pytest.raises(SingularMatrixError):
                linearizing_terms(plant, x)


def _with_alpha(alpha: np.ndarray) -> PlantModel:
    """A chain plant whose linearizing controller returns ``alpha`` at every batch of states."""
    return dataclasses.replace(make_chain_plant((1,) * alpha.shape[-1]),
                               linearizing=lambda x: (np.zeros(alpha.shape[:-1]), alpha))


class TestSingularityNumber:
    """The ``cond`` a ``SingularMatrixError`` carries: the worst number of the batch."""

    def _cond(self, alpha) -> float:
        alpha = np.asarray(alpha, dtype=float)
        with pytest.raises(SingularMatrixError) as err:
            linearizing_terms(_with_alpha(alpha), np.zeros((len(alpha), alpha.shape[-1])))
        return err.value.cond

    def test_q1_is_inf(self):
        assert self._cond([[[2.0]], [[0.0]], [[-3.0]]]) == np.inf

    def test_q2_is_the_frobenius_number(self):
        # ||A||_F^2 / |det| = (1 + 1e-26) / 1e-13 on the near-singular lane, 2 on I
        assert self._cond([np.eye(2), np.diag([1.0, 1e-13])]) == pytest.approx(1e13, rel=1e-15)
        assert self._cond([np.diag([1.0, 1e-13]), [[1.0, 1.0], [1.0, 1.0]]]) == np.inf

    def test_q3_is_the_two_norm_number(self):
        alpha = np.stack([np.eye(3), np.diag([2.0, 1.0, 1e-13])])
        assert self._cond(alpha) == np.linalg.cond(alpha).max()
        assert self._cond(alpha) == pytest.approx(2e13, rel=1e-9)


ORACLE_GAMMAS = [(1,), (2,), (3,), (2, 2), (2, 1), (2, 1, 1)]


class TestChainOracles:
    """The specialised chain and in-span plants equal their generic forms bit for bit."""

    @pytest.mark.parametrize("lanes", [1, 200])
    @pytest.mark.parametrize("gamma", ORACLE_GAMMAS, ids=str)
    def test_chain_rate_is_a_x_plus_b_u(self, gamma, lanes, rng):
        plant, oracle = make_chain_plant(gamma), chain_rate_matmul(gamma)
        x = rng.standard_normal((lanes, plant.n))
        u = rng.standard_normal((lanes, plant.q))
        assert np.array_equal(plant.rate(x, u), oracle(x, u))
        assert np.array_equal(plant.rate(x, u[0]), oracle(x, u[0]))  # one input, many states

    @pytest.mark.parametrize("lanes", [1, 200])
    @pytest.mark.parametrize("kind", ["poly1", "poly2", "rbf"])
    @pytest.mark.parametrize("gamma", ORACLE_GAMMAS, ids=str)
    def test_inspan_plant_is_the_generic_construction(self, gamma, kind, lanes, rng):
        nominal, bases, theta_star = _inspan_case(gamma, kind, rng)
        plant = make_inspan_plant(gamma, bases, theta_star)
        oracle = generic_inspan_plant(nominal, bases, theta_star)
        x = rng.uniform(-1, 1, (lanes, nominal.n))
        u = rng.standard_normal((lanes, nominal.q))
        for got, want in zip(plant.linearizing(x), oracle.linearizing(x)):
            assert np.array_equal(got, want)
        assert np.array_equal(plant.rate(x, u), oracle.rate(x, u))

    @pytest.mark.parametrize("lanes", [1, 200])
    @pytest.mark.parametrize("kind", ["poly1", "poly2", "rbf"])
    @pytest.mark.parametrize("gamma", [g for g in ORACLE_GAMMAS if len(g) == 2], ids=str)
    def test_q2_adjugate_agrees_with_lapack_solve(self, gamma, kind, lanes, rng):
        nominal, bases, theta_star = _inspan_case(gamma, kind, rng)
        plant = make_inspan_plant(gamma, bases, theta_star)
        x = rng.uniform(-1, 1, (lanes, nominal.n))
        u = rng.standard_normal((lanes, nominal.q))
        beta, alpha = plant.linearizing(x)
        top = np.linalg.solve(alpha, (u - beta)[..., None])[..., 0]
        np.testing.assert_allclose(plant.rate(x, u), chain_rate_matmul(gamma)(x, top),
                                   rtol=1e-13, atol=0)


def _inspan_case(gamma, kind, rng):
    """The chain nominal of ``gamma``, a basis of ``kind`` and a small ``theta_star``."""
    nominal = make_chain_plant(gamma)
    n, q = nominal.n, nominal.q
    bases = {"poly1": lambda: polynomial_basis(n, 1, io_dim=q),
             "poly2": lambda: polynomial_basis(n, 2, io_dim=q),
             "rbf": lambda: rbf_basis(rng.uniform(-1, 1, (5, n)), 0.8, io_dim=q)}[kind]()
    return nominal, bases, 0.1 * rng.standard_normal(bases.size)


@pytest.mark.parametrize("lanes", [1, 200])
@pytest.mark.parametrize("name", ["pendulum", "chain22", "chain31", "inspan_q1", "inspan_q2",
                                  "inspan_q3"])
def test_rate_output_is_c_contiguous(name, lanes, rng):
    # the reward's stacked matmul rounds a lane alike only on C-contiguous states
    plant = _shipped_plant(name)
    out = plant.rate(rng.uniform(-1, 1, (lanes, plant.n)), rng.standard_normal((lanes, plant.q)))
    assert out.shape == (lanes, plant.n) and out.flags.c_contiguous
