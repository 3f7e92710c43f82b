import numpy as np
import pytest

from fblearn import (build_reference_model, design_gain, exact_tracking_control,
                     make_chain_plant, tracking_error)
from fblearn.errors import DimensionError, SingularMatrixError
from fblearn.plants import PlantModel


class TestReferenceModel:
    def test_two_by_two_blocks(self):
        ref = build_reference_model((2, 2))
        expected_A = np.zeros((4, 4))
        expected_A[0, 1] = expected_A[2, 3] = 1.0
        np.testing.assert_array_equal(ref.A, expected_A)
        expected_B = np.zeros((4, 2))
        expected_B[1, 0] = expected_B[3, 1] = 1.0
        np.testing.assert_array_equal(ref.B, expected_B)
        np.testing.assert_array_equal(ref.B.T @ ref.B, np.eye(2))

    def test_scalar_relative_degree_one(self):
        ref = build_reference_model((1,))
        np.testing.assert_array_equal(ref.A, [[0.0]])
        np.testing.assert_array_equal(ref.B, [[1.0]])

    def test_mixed_blocks_are_nilpotent(self):
        ref = build_reference_model((3, 1))
        assert ref.block_starts == (0, 3)
        np.testing.assert_allclose(np.linalg.eigvals(ref.A), np.zeros(4), atol=1e-14)
        np.testing.assert_array_equal(ref.B.T @ ref.B, np.eye(2))

    def test_orthonormality_is_exact_for_random_degrees(self, rng):
        for _ in range(10):
            gamma = tuple(int(g) for g in rng.integers(1, 5, size=rng.integers(1, 4)))
            ref = build_reference_model(gamma)
            assert (ref.B.T @ ref.B == np.eye(len(gamma))).all()

    def test_invalid_degrees(self):
        with pytest.raises(ValueError):
            build_reference_model(())
        with pytest.raises(ValueError):
            build_reference_model((2, 0))


class TestGainDesign:
    def test_repeated_pole_coefficients(self, ref22):
        gains = design_gain(ref22, -1.5)
        # (s + 1.5)^2 = s^2 + 3 s + 2.25 per block
        np.testing.assert_allclose(gains.K, [[-2.25, -3.0, 0.0, 0.0],
                                             [0.0, 0.0, -2.25, -3.0]])

    def test_scalar_case(self):
        ref = build_reference_model((1,))
        gains = design_gain(ref, -2.0)
        np.testing.assert_allclose(gains.K, [[-2.0]])

    def test_eigenvalues_land_on_the_pole(self, ref22):
        gains = design_gain(ref22, -1.5)
        eigs = np.linalg.eigvals(ref22.A + ref22.B @ gains.K)
        np.testing.assert_allclose(sorted(eigs.real), [-1.5] * 4, atol=1e-10)
        np.testing.assert_allclose(eigs.imag, np.zeros(4), atol=1e-10)

    def test_hurwitz_for_random_designs(self, rng):
        # repeated roots of defective blocks are ill-conditioned: a float
        # eigensolver spreads a degree-g root cluster by ~eps**(1/g)
        for _ in range(10):
            gamma = tuple(int(g) for g in rng.integers(1, 4, size=2))
            pole = -float(rng.uniform(0.2, 4.0))
            ref = build_reference_model(gamma)
            gains = design_gain(ref, pole)
            slack = 10 * max(1.0, abs(pole)) * np.finfo(float).eps ** (1.0 / max(gamma))
            assert np.max(np.linalg.eigvals(ref.A + ref.B @ gains.K).real) <= pole + slack

    def test_nonnegative_pole_rejected(self, ref22):
        with pytest.raises(ValueError):
            design_gain(ref22, 0.0)
        with pytest.raises(ValueError):
            design_gain(ref22, 0.3)


class TestTrackingError:
    def test_zero_and_basic(self):
        xi = np.array([1.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(tracking_error(xi, xi), np.zeros(4))
        np.testing.assert_array_equal(tracking_error(xi, np.zeros(4)), xi)

    def test_antisymmetry(self, rng):
        a, b = rng.standard_normal(4), rng.standard_normal(4)
        np.testing.assert_array_equal(tracking_error(a, b), -tracking_error(b, a))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            tracking_error(np.zeros(4), np.zeros(3))


class TestExactTracking:
    def test_no_error_no_feedforward_gives_zero_input(self, ref22, gains22):
        plant = make_chain_plant((2, 2))
        x = np.array([0.3, -0.1, 0.2, 0.4])
        u = exact_tracking_control(plant, x, plant.output_chain(x), np.zeros(2), gains22)
        np.testing.assert_allclose(u, np.zeros(2), atol=1e-14)

    def test_matches_learned_controller_at_theta_star(self, inspan1, rng):
        # elementwise agreement of the oracle law and u_hat(theta*)
        from fblearn import eval_learned_controller
        for _ in range(5):
            x = rng.uniform(-1, 1, 2)
            xi_d = rng.standard_normal(2)
            y_dg = rng.standard_normal(1)
            u_oracle = exact_tracking_control(inspan1.plant, x, xi_d, y_dg, inspan1.gains)
            e = x - xi_d
            v = y_dg + inspan1.gains.K @ e
            u_learned = eval_learned_controller(inspan1.bases, inspan1.theta_star,
                                                inspan1.nominal, x, v)
            np.testing.assert_allclose(u_oracle, u_learned, atol=1e-12)

    def test_singular_decoupling_reported(self, gains22):
        base = make_chain_plant((2, 2))
        singular = PlantModel(
            n=4, q=2, gamma=base.gamma, output_chain=base.output_chain, rate=base.rate,
            linearizing=lambda x: (np.zeros(2), np.zeros((2, 2))), name="broken")
        with pytest.raises(SingularMatrixError):
            exact_tracking_control(singular, np.zeros(4), np.zeros(4), np.zeros(2), gains22)
