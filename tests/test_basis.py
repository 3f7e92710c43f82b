import re
from itertools import product

import numpy as np
import pytest

from fblearn import (build_rbf_grid, controller_jacobian, eval_correction,
                     eval_learned_controller, polynomial_basis, rbf_basis)
from fblearn.errors import DimensionError

from oracles import kron_columns


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


    @pytest.mark.parametrize("call,message", [
        (lambda: polynomial_basis(2, 1, io_dim=1).features(np.zeros(3)),
         "state must have trailing dimension 2, got shape (3,)"),
        (lambda: rbf_basis(np.zeros((1, 2)), 1.0, io_dim=1, alpha_scale=0.0),
         "basis scales must be strictly positive"),
        (lambda: build_rbf_grid([(-1.0, 1.0)] * 2, (3, 0), 1.0, io_dim=1),
         "all counts must be >= 1, got [3, 0]"),
    ], ids=["features", "rbf_basis", "build_rbf_grid"])
    def test_a_bad_input_is_named(self, call, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


class TestLearnedController:
    def test_zero_theta_is_the_nominal_law(self, small_rbf, pendulum, rng):
        from fblearn import eval_dynamics
        for _ in range(5):
            x = rng.uniform(-0.8, 0.8, 4)
            v = rng.standard_normal(2)
            u = eval_learned_controller(small_rbf, np.zeros(small_rbf.size), pendulum, x, v)
            # the nominal law linearizes its own plant: the joint accelerations are v
            np.testing.assert_allclose(eval_dynamics(pendulum, x, u)[2:], v, atol=1e-12)

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
        jac = controller_jacobian(small_rbf, x, v)
        du = (eval_learned_controller(small_rbf, theta + delta, pendulum, x, v)
              - eval_learned_controller(small_rbf, theta, pendulum, x, v))
        np.testing.assert_allclose(du, jac @ delta, atol=1e-12)


class TestJacobian:
    def test_zero_v_zeroes_the_matrix_block(self, small_rbf, rng):
        jac = controller_jacobian(small_rbf, rng.standard_normal(4), np.zeros(2))
        np.testing.assert_array_equal(jac[:, small_rbf.k1:], np.zeros((2, small_rbf.k2)))
        assert np.any(jac[:, :small_rbf.k1] != 0)

    def test_matches_finite_differences(self, small_rbf, pendulum, rng):
        h = 1e-6
        for _ in range(10):
            x = rng.uniform(-0.6, 0.6, 4)
            v = rng.standard_normal(2)
            theta = rng.standard_normal(small_rbf.size)
            jac = controller_jacobian(small_rbf, x, v)
            fd = np.empty_like(jac)
            for i in range(small_rbf.size):
                dp = np.zeros(small_rbf.size)
                dp[i] = h
                fd[:, i] = (eval_learned_controller(small_rbf, theta + dp, pendulum, x, v)
                            - eval_learned_controller(small_rbf, theta - dp, pendulum, x, v)
                            ) / (2 * h)
            scale = max(1.0, np.abs(jac).max())
            assert np.abs(jac - fd).max() <= 1e-6 * scale

    def test_batch_is_the_per_state_jacobian(self, small_rbf, rng):
        x = rng.standard_normal((3, 5, 4))
        v = rng.standard_normal((3, 5, 2))
        jac = controller_jacobian(small_rbf, x, v)
        assert jac.shape == (3, 5, 2, small_rbf.size)
        for idx in np.ndindex(3, 5):
            np.testing.assert_array_equal(jac[idx], controller_jacobian(small_rbf, x[idx], v[idx]))
        # one state against many outer-loop inputs broadcasts too
        many_v = controller_jacobian(small_rbf, x[0, 0], v[:, 0])
        for b in range(3):
            np.testing.assert_array_equal(many_v[b], controller_jacobian(small_rbf, x[0, 0],
                                                                         v[b, 0]))

    @pytest.mark.parametrize("name", ["pendulum_scenario", "inspan1", "inspan_mc"])
    def test_matches_the_kron_layout(self, name, request, rng):
        # pendulum RBFs (q = 2) and both in-span polynomial bases (q = 1, 2)
        sc = request.getfixturevalue(name)
        bases, q = sc.bases, sc.bases.io_dim
        x = rng.uniform(-0.7, 0.7, (40, sc.plant.n))
        v = rng.standard_normal((40, q))
        jac = controller_jacobian(bases, x, v)
        for b in range(40):
            want = kron_columns(bases, bases.features(x[b]), np.eye(q), v[b])
            np.testing.assert_array_equal(controller_jacobian(bases, x[b], v[b]), want)
            np.testing.assert_array_equal(jac[b], want)

    def test_block_scales_enter_linearly(self, rng):
        plain = build_rbf_grid([(-1, 1)] * 4, (2, 2, 2, 2), 1.0, io_dim=2)
        scaled = build_rbf_grid([(-1, 1)] * 4, (2, 2, 2, 2), 1.0, io_dim=2,
                                beta_scale=0.25, alpha_scale=2.0)
        x, v = rng.standard_normal(4), rng.standard_normal(2)
        jp = controller_jacobian(plain, x, v)
        js = controller_jacobian(scaled, x, v)
        np.testing.assert_allclose(js[:, :plain.k1], 0.25 * jp[:, :plain.k1])
        np.testing.assert_allclose(js[:, plain.k1:], 2.0 * jp[:, plain.k1:])


class TestGram:
    def test_spread_rbf_centers_are_independent(self, rng):
        bases = build_rbf_grid([(-1.0, 1.0), (-1.0, 1.0)], (5, 5), 1.0, io_dim=1)
        probes = rng.uniform(-1.2, 1.2, (400, 2))
        feats = bases.features(probes)
        assert np.linalg.eigvalsh(feats.T @ feats / len(probes))[0] > 0

    def test_polynomial_features_are_independent(self, rng):
        bases = polynomial_basis(2, 2, io_dim=1)
        probes = rng.uniform(-1.5, 1.5, (300, 2))
        feats = bases.features(probes)
        assert np.linalg.eigvalsh(feats.T @ feats / len(probes))[0] > 0


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
