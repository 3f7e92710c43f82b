import numpy as np
import pytest

from fblearn import (DoublePendulumParams, InSpanPlantSpec, PlantModel, eval_dynamics,
                     eval_io, integrate_zoh, linearizing_terms, make_chain_plant,
                     make_double_pendulum, make_inspan_plant, polynomial_basis,
                     eval_learned_controller)
from fblearn.errors import DimensionError, DivergenceError, SingularMatrixError

from oracles import expm, loglog_slope, pendulum_accel, pendulum_mass_matrix


def linear_plant(F, G):
    """Ad-hoc linear plant for integration tests; io data unused."""
    F = np.asarray(F, dtype=float)
    G = np.asarray(G, dtype=float)
    n, q = G.shape
    return PlantModel(
        n=n, q=q,
        output=lambda x: x[..., :q],
        io_drift=lambda x: np.zeros(x.shape[:-1] + (q,)),
        decoupling=lambda x: np.broadcast_to(np.eye(q), x.shape[:-1] + (q, q)).copy(),
        gamma=(1,) * q,
        output_chain=lambda x: x[..., :q],
        rate=lambda x, u: np.einsum("ij,...j->...i", F, x) + np.einsum("ij,...j->...i", G, u),
        name="linear-test",
    )


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


class TestEvalIO:
    def test_pendulum_decoupling_at_rest(self, pendulum):
        b, A = eval_io(pendulum, np.zeros(4))
        np.testing.assert_allclose(A, [[1.0, -2.0], [-2.0, 5.0]], atol=1e-12)
        np.testing.assert_allclose(A, np.linalg.inv(pendulum_mass_matrix(np.zeros(2))),
                                   atol=1e-6)
        np.testing.assert_allclose(b, np.zeros(2), atol=1e-12)

    def test_double_integrator_identity(self, rng):
        plant = make_chain_plant((2, 2))
        x = rng.standard_normal(4)
        b, A = eval_io(plant, x)
        np.testing.assert_allclose(b, np.zeros(2))
        np.testing.assert_allclose(A, np.eye(2))

    def test_inspan_io_inverts_controller(self, inspan1, rng):
        for _ in range(5):
            x = rng.uniform(-1, 1, 2)
            v = rng.standard_normal(1)
            b, A = eval_io(inspan1.plant, x)
            u = eval_learned_controller(inspan1.bases, inspan1.theta_star,
                                        inspan1.nominal, x, v)
            np.testing.assert_allclose(b + A @ u, v, atol=1e-12)

    def test_flow_consistency_by_finite_differences(self, pendulum, rng):
        # central second difference of y along the flow matches b + A u
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
            b, A = eval_io(pendulum, x)
            y_plus = pendulum.output(step(x, u, h))
            y_minus = pendulum.output(step(x, u, -h))
            ydd = (y_plus - 2 * pendulum.output(x) + y_minus) / h ** 2
            np.testing.assert_allclose(ydd, b + A @ u, atol=1e-4)


class TestIntegrateZOH:
    def test_zero_field_is_identity(self):
        plant = linear_plant(np.zeros((3, 3)), np.zeros((3, 1)))
        x0 = np.array([1.0, -2.0, 3.0])
        np.testing.assert_allclose(integrate_zoh(plant, x0, np.zeros(1), 0.5, 5), x0)

    def test_linear_plant_against_matrix_exponential(self, rng):
        F = rng.standard_normal((4, 4))
        plant = linear_plant(F, np.zeros((4, 1)))
        x0 = rng.standard_normal(4)
        got = integrate_zoh(plant, x0, np.zeros(1), 0.05, 50)
        want = expm(F * 0.05) @ x0
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    def test_fourth_order_self_convergence(self, pendulum):
        # global error vs a 100x-resolution reference drops ~16x per halving
        x0 = np.array([0.4, -0.3, 0.2, 0.1])
        u = np.array([0.3, -0.2])
        reference = integrate_zoh(pendulum, x0, u, 0.5, 6400)
        errs = []
        substeps = [8, 16, 32, 64]
        for s in substeps:
            errs.append(np.linalg.norm(integrate_zoh(pendulum, x0, u, 0.5, s) - reference))
        slope = loglog_slope([0.5 / s for s in substeps], errs)
        assert abs(slope - 4.0) <= 0.2

    def test_divergence_raises_with_step_index(self):
        blower = linear_plant(np.zeros((1, 1)), np.zeros((1, 1)))
        blower = PlantModel(n=1, q=1, output=blower.output, io_drift=blower.io_drift,
                            decoupling=blower.decoupling, gamma=(1,),
                            output_chain=blower.output_chain, rate=lambda x, u: x ** 3,
                            name="cubic")
        with pytest.raises(DivergenceError) as err:
            integrate_zoh(blower, np.array([5.0]), np.zeros(1), 40.0, 200)
        assert err.value.step is not None and err.value.step >= 0

    def test_argument_validation(self, pendulum):
        with pytest.raises(ValueError):
            integrate_zoh(pendulum, np.zeros(4), np.zeros(2), -0.1, 5)
        with pytest.raises(ValueError):
            integrate_zoh(pendulum, np.zeros(4), np.zeros(2), 0.1, 0)


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
        b, A = eval_io(nominal, np.zeros(4))
        np.testing.assert_allclose(
            A, np.linalg.inv(pendulum_mass_matrix(np.zeros(2), 1.3, 1.3, 1.3, 1.3)),
            atol=1e-6)

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
        plant = make_inspan_plant(InSpanPlantSpec(nominal=nominal, bases=bases,
                                                  theta_star=np.zeros(bases.size)))
        for _ in range(5):
            x, u = rng.standard_normal(2), rng.standard_normal(1)
            np.testing.assert_allclose(eval_dynamics(plant, x, u),
                                       eval_dynamics(nominal, x, u), atol=1e-13)

    def test_theta_star_dimension_checked(self):
        nominal = make_chain_plant((2,))
        bases = polynomial_basis(2, 1, io_dim=1)
        with pytest.raises(DimensionError):
            InSpanPlantSpec(nominal=nominal, bases=bases, theta_star=np.zeros(3))

    def test_non_chain_nominal_rejected(self, pendulum):
        bases = polynomial_basis(4, 1, io_dim=2)
        with pytest.raises(ValueError, match="output-chain"):
            make_inspan_plant(InSpanPlantSpec(nominal=pendulum, bases=bases,
                                              theta_star=np.zeros(bases.size)))

    def test_singular_alpha_reported(self):
        # constant feature with theta2* = -1 cancels the nominal gain exactly
        nominal = make_chain_plant((2,))
        bases = polynomial_basis(2, 0, io_dim=1)
        theta_star = np.array([0.0, -1.0])
        plant = make_inspan_plant(InSpanPlantSpec(nominal=nominal, bases=bases,
                                                  theta_star=theta_star))
        with pytest.raises(SingularMatrixError):
            eval_io(plant, np.zeros(2))

    def test_linearizing_terms_roundtrip(self, inspan1, rng):
        x = rng.uniform(-1, 1, 2)
        beta, alpha = linearizing_terms(inspan1.plant, x)
        b, A = eval_io(inspan1.plant, x)
        np.testing.assert_allclose(alpha @ A, np.eye(1), atol=1e-12)
        np.testing.assert_allclose(beta, -alpha @ b, atol=1e-12)
