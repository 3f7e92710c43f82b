from itertools import product

import numpy as np
import pytest

from fblearn import (build_rbf_grid, controller_jacobian, eval_correction,
                     eval_learned_controller, feature_gram, polynomial_basis, rbf_basis)
from fblearn.errors import DimensionError


@pytest.fixture(scope="module")
def small_rbf():
    return build_rbf_grid([(-1.0, 1.0)] * 4, (2, 2, 2, 2), 1.0, io_dim=2)


class TestLayout:
    def test_single_center_counts(self):
        bases = rbf_basis(np.zeros((1, 4)), 1.0, io_dim=2)
        assert bases.k1 == 2 and bases.k2 == 4
        assert bases.size == 6

    def test_full_scale_grid_has_250_centers(self):
        bases = build_rbf_grid([(-1.2, 1.2), (-1.2, 1.2), (-1.5, 1.5), (-1.5, 1.5)],
                               (5, 5, 5, 2), 1.0, io_dim=2)
        assert bases.n_scalar == 250

    def test_rbf_at_its_own_center(self):
        center = np.array([[0.3, -0.2]])
        bases = rbf_basis(center, 0.7, io_dim=2)
        theta = np.arange(1.0, 7.0)
        beta, alpha = eval_correction(bases, theta, center[0])
        # feature value is exp(0) = 1, so corrections equal the theta slots
        np.testing.assert_allclose(beta, [1.0, 2.0])
        np.testing.assert_allclose(alpha, [[3.0, 4.0], [5.0, 6.0]])

    def test_zero_parameters(self, small_rbf, rng):
        beta, alpha = eval_correction(small_rbf, np.zeros(small_rbf.size),
                                      rng.standard_normal(4))
        np.testing.assert_array_equal(beta, np.zeros(2))
        np.testing.assert_array_equal(alpha, np.zeros((2, 2)))

    def test_linearity_in_parameters(self, small_rbf, rng):
        x = rng.standard_normal(4)
        t1, t2 = rng.standard_normal((2, small_rbf.size))
        a, b = 1.7, -0.4
        beta_lin, alpha_lin = eval_correction(small_rbf, a * t1 + b * t2, x)
        beta1, alpha1 = eval_correction(small_rbf, t1, x)
        beta2, alpha2 = eval_correction(small_rbf, t2, x)
        np.testing.assert_allclose(beta_lin, a * beta1 + b * beta2, atol=1e-13)
        np.testing.assert_allclose(alpha_lin, a * alpha1 + b * alpha2, atol=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            rbf_basis(np.zeros((2, 3)), 0.0, io_dim=1)
        with pytest.raises(ValueError):
            build_rbf_grid([], [], 1.0, io_dim=1)
        with pytest.raises(DimensionError):
            build_rbf_grid([(-1, 1)], (2, 2), 1.0, io_dim=1)
        with pytest.raises(ValueError):
            build_rbf_grid([(1.0, -1.0)], (2,), 1.0, io_dim=1)
        with pytest.raises(ValueError):
            polynomial_basis(2, -1, io_dim=1)
        bases = polynomial_basis(2, 1, io_dim=1)
        with pytest.raises(DimensionError):
            bases.split(np.zeros(bases.size + 1))


class TestLearnedController:
    def test_zero_theta_is_the_nominal_law(self, small_rbf, pendulum, rng):
        from fblearn import eval_io
        for _ in range(5):
            x = rng.uniform(-0.8, 0.8, 4)
            v = rng.standard_normal(2)
            u = eval_learned_controller(small_rbf, np.zeros(small_rbf.size), pendulum, x, v)
            b, A = eval_io(pendulum, x)
            np.testing.assert_allclose(u, np.linalg.solve(A, -b + v), atol=1e-12)

    def test_hanging_rest_needs_no_torque(self, small_rbf, pendulum):
        # gravity vector vanishes at the straight-down equilibrium
        u = eval_learned_controller(small_rbf, np.zeros(small_rbf.size), pendulum,
                                    np.zeros(4), np.zeros(2))
        np.testing.assert_allclose(u, np.zeros(2), atol=1e-13)

    def test_no_parameter_value_can_raise_a_singularity(self, small_rbf, pendulum, rng):
        # the learned terms are never inverted, so even absurd parameters
        # only change the value, not the well-posedness
        x = rng.uniform(-0.5, 0.5, 4)
        v = rng.standard_normal(2)
        for scale in (1e3, 1e6, -1e6):
            theta = scale * rng.standard_normal(small_rbf.size)
            u = eval_learned_controller(small_rbf, theta, pendulum, x, v)
            assert np.all(np.isfinite(u))

    def test_affine_in_theta_with_jacobian_as_linear_part(self, small_rbf, pendulum, rng):
        x = rng.uniform(-0.5, 0.5, 4)
        v = rng.standard_normal(2)
        theta = rng.standard_normal(small_rbf.size)
        delta = rng.standard_normal(small_rbf.size)
        jac = controller_jacobian(small_rbf, theta, pendulum, x, v)
        du = (eval_learned_controller(small_rbf, theta + delta, pendulum, x, v)
              - eval_learned_controller(small_rbf, theta, pendulum, x, v))
        np.testing.assert_allclose(du, jac @ delta, atol=1e-12)


class TestJacobian:
    def test_zero_v_zeroes_the_matrix_block(self, small_rbf, pendulum, rng):
        jac = controller_jacobian(small_rbf, np.zeros(small_rbf.size), pendulum,
                                  rng.standard_normal(4), np.zeros(2))
        np.testing.assert_array_equal(jac[:, small_rbf.k1:], np.zeros((2, small_rbf.k2)))
        assert np.any(jac[:, :small_rbf.k1] != 0)

    def test_matches_finite_differences(self, small_rbf, pendulum, rng):
        h = 1e-6
        for _ in range(10):
            x = rng.uniform(-0.6, 0.6, 4)
            v = rng.standard_normal(2)
            theta = rng.standard_normal(small_rbf.size)
            jac = controller_jacobian(small_rbf, theta, pendulum, x, v)
            fd = np.empty_like(jac)
            for i in range(small_rbf.size):
                dp = np.zeros(small_rbf.size)
                dp[i] = h
                fd[:, i] = (eval_learned_controller(small_rbf, theta + dp, pendulum, x, v)
                            - eval_learned_controller(small_rbf, theta - dp, pendulum, x, v)
                            ) / (2 * h)
            scale = max(1.0, np.abs(jac).max())
            assert np.abs(jac - fd).max() <= 1e-6 * scale

    def test_independent_of_theta(self, small_rbf, pendulum, rng):
        x = rng.standard_normal(4)
        v = rng.standard_normal(2)
        j1 = controller_jacobian(small_rbf, rng.standard_normal(small_rbf.size),
                                 pendulum, x, v)
        j2 = controller_jacobian(small_rbf, rng.standard_normal(small_rbf.size),
                                 pendulum, x, v)
        np.testing.assert_array_equal(j1, j2)

    def test_block_scales_enter_linearly(self, pendulum, rng):
        plain = build_rbf_grid([(-1, 1)] * 4, (2, 2, 2, 2), 1.0, io_dim=2)
        scaled = build_rbf_grid([(-1, 1)] * 4, (2, 2, 2, 2), 1.0, io_dim=2,
                                beta_scale=0.25, alpha_scale=2.0)
        x, v = rng.standard_normal(4), rng.standard_normal(2)
        theta = np.zeros(plain.size)
        jp = controller_jacobian(plain, theta, pendulum, x, v)
        js = controller_jacobian(scaled, theta, pendulum, x, v)
        np.testing.assert_allclose(js[:, :plain.k1], 0.25 * jp[:, :plain.k1])
        np.testing.assert_allclose(js[:, plain.k1:], 2.0 * jp[:, plain.k1:])


class TestGram:
    def test_spread_rbf_centers_are_independent(self, rng):
        bases = build_rbf_grid([(-1.0, 1.0), (-1.0, 1.0)], (5, 5), 1.0, io_dim=1)
        probes = rng.uniform(-1.2, 1.2, (400, 2))
        gram = feature_gram(bases, probes)
        assert np.linalg.eigvalsh(gram)[0] > 0

    def test_polynomial_features_are_independent(self, rng):
        bases = polynomial_basis(2, 2, io_dim=1)
        probes = rng.uniform(-1.5, 1.5, (300, 2))
        assert np.linalg.eigvalsh(feature_gram(bases, probes))[0] > 0


def _pow_features(x, state_dim, degree):
    """The monomials as powers: ``prod_i x_i ** e_i`` for every exponent vector."""
    exponents = [e for e in product(range(degree + 1), repeat=state_dim) if sum(e) <= degree]
    exponents = np.array(sorted(exponents, key=lambda e: (sum(e), e)), dtype=float)
    return np.prod(x[..., None, :] ** exponents, axis=-1)


class TestPolynomialFeatures:
    @pytest.mark.parametrize("degree", [0, 1])
    @pytest.mark.parametrize("shape", [(4,), (200, 4)])
    def test_low_degree_is_bit_equal_to_powers(self, degree, shape, rng):
        x = 3.0 * rng.standard_normal(shape)
        got = polynomial_basis(4, degree, io_dim=1).features(x)
        want = _pow_features(x, 4, degree)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("degree", [2, 3])
    @pytest.mark.parametrize("shape", [(4,), (200, 4)])
    def test_higher_degree_matches_powers(self, degree, shape, rng):
        x = 3.0 * rng.standard_normal(shape)
        got = polynomial_basis(4, degree, io_dim=1).features(x)
        np.testing.assert_allclose(got, _pow_features(x, 4, degree), rtol=1e-15, atol=0)
