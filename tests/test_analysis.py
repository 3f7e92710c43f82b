import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fblearn import (PolicyConfig, assemble_W, build_reference_model, design_gain,
                     eval_learned_controller, fit_exponential_bound, linearizing_terms,
                     interp_matrix_series, least_squares_gradient, ltv_matrix, pe_check,
                     regressor_series, run_episode, sample_reference, simulate_ideal,
                     transition_matrix, transition_norm_grid)

from fblearn import analysis
from fblearn.analysis import _PE_BLOCK
from fblearn.errors import DivergenceError

from conftest import peak_traced_mb
from oracles import all_at_once_pe_check, expm, kron_columns, least_squares_cost

# a regressor width whose W.T W alone overflows pe_check's block budget, so
# that every block of the running integral holds one sample
ONE_SAMPLE_P = math.isqrt(_PE_BLOCK) + 1


@st.composite
def pe_inputs(draw):
    """Sample times, regressor samples, window and stride for ``pe_check``.

    Gaps between sample times vary; ``p`` runs from one block holding every
    sample (and every window) through a few samples a block to one sample a
    block.
    """
    p = draw(st.sampled_from([1, 2, 3, 5, 8, 40, ONE_SAMPLE_P]), label="p")
    q = draw(st.integers(1, 3), label="q")
    n = draw(st.integers(2, 24 if p == ONE_SAMPLE_P else 200), label="samples")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 1.0, n - 1))])
    w_samples = rng.standard_normal((n, q, p))
    delta = draw(st.floats(0.01, 1.0), label="window fraction") * times[-1]
    return times, w_samples, delta, draw(st.integers(1, 5), label="stride")


@pytest.fixture(scope="module")
def ref1():
    return build_reference_model((2,))


@pytest.fixture(scope="module")
def gains1(ref1):
    return design_gain(ref1, -1.5)


class TestRegressor:
    def test_linearity_identity_against_controller_differencing(self, pendulum, gains22,
                                                                ref22, rng):
        from fblearn import build_rbf_grid
        bases = build_rbf_grid([(-1, 1)] * 4, (2, 2, 2, 2), 1.0, io_dim=2)
        theta_star = 0.3 * rng.standard_normal(bases.size)
        for _ in range(100):
            x = rng.uniform(-0.7, 0.7, 4)
            e = 0.3 * rng.standard_normal(4)
            y_dg = rng.standard_normal(2)
            W = assemble_W(pendulum, bases, x, y_dg, e, gains22)
            v = y_dg + gains22 @ e
            A_p = np.linalg.inv(linearizing_terms(pendulum, x)[1])
            phi = rng.standard_normal(bases.size)
            delta_u = (eval_learned_controller(bases, theta_star + phi, pendulum, x, v)
                       - eval_learned_controller(bases, theta_star, pendulum, x, v))
            np.testing.assert_allclose(W @ phi, A_p @ delta_u, atol=1e-10)

    def test_zero_parameter_error_maps_to_zero(self, inspan1, rng):
        W = assemble_W(inspan1.plant, inspan1.bases, rng.uniform(-1, 1, 2),
                       rng.standard_normal(1), rng.standard_normal(2), inspan1.gains)
        np.testing.assert_array_equal(W @ np.zeros(inspan1.bases.size), np.zeros(1))

    def test_zero_v_zeroes_the_matrix_block(self, inspan1, rng):
        x = rng.uniform(-1, 1, 2)
        e = rng.standard_normal(2)
        y_dg = -inspan1.gains @ e  # makes v = 0
        W = assemble_W(inspan1.plant, inspan1.bases, x, y_dg, e, inspan1.gains)
        np.testing.assert_array_equal(W[:, inspan1.bases.k1:],
                                      np.zeros((1, inspan1.bases.k2)))


class TestRegressorLayout:
    @pytest.mark.parametrize("name", ["pendulum_scenario", "inspan1", "inspan_mc"])
    def test_matches_the_kron_layout(self, name, request, rng):
        # pendulum RBFs (q = 2) and both in-span polynomial bases (q = 1, 2)
        sc = request.getfixturevalue(name)
        bases = sc.bases
        x = rng.uniform(-0.7, 0.7, (40, sc.plant.n))
        e = 0.3 * rng.standard_normal((40, sc.ref_model.total_degree))
        y_dg = rng.standard_normal((40, bases.io_dim))
        W = assemble_W(sc.plant, bases, x, y_dg, e, sc.gains)
        for b in range(40):
            A_p = np.linalg.inv(linearizing_terms(sc.plant, x[b])[1])
            want = kron_columns(bases, bases.features(x[b]), A_p, y_dg[b] + sc.gains @ e[b])
            np.testing.assert_array_equal(assemble_W(sc.plant, bases, x[b], y_dg[b], e[b],
                                                     sc.gains), want)
            if bases.io_dim > 1:
                np.testing.assert_array_equal(W[b], want)
            else:  # the in-span alpha_p of a batch may take another einsum kernel
                np.testing.assert_allclose(W[b], want, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("name", ["inspan1", "inspan_mc"])
    def test_series_is_the_per_node_regressor(self, name, request):
        sc = request.getfixturevalue(name)
        rec = run_episode(sc.plant, sc.nominal, sc.bases, sc.theta0, sc.reference,
                          sc.ref_model, sc.gains, PolicyConfig(sigma2=0.0, dt=0.05),
                          horizon=120, x0=sc.x0, learn=False, substeps=4)
        series = regressor_series(rec, sc)
        assert series.shape == (rec.steps + 1, sc.bases.io_dim, sc.bases.size)
        for k in range(rec.steps + 1):
            y_dg = sample_reference(sc.reference, sc.ref_model.gamma, rec.t[k]).y_dgamma
            W = assemble_W(sc.plant, sc.bases, rec.x[k], y_dg, rec.e[k], sc.gains)
            if sc.bases.io_dim > 1:
                np.testing.assert_array_equal(series[k], W)
            else:
                np.testing.assert_allclose(series[k], W, rtol=1e-14, atol=0)

    def test_batched_gradient_is_the_per_lane_gradient(self, rng):
        W = rng.standard_normal((7, 2, 30))
        phi = rng.standard_normal((7, 30))
        grad = least_squares_gradient(W, phi)
        for b in range(7):
            np.testing.assert_array_equal(grad[b], least_squares_gradient(W[b], phi[b]))


class TestContinuousReward:
    def test_gradient_matches_finite_differences(self, rng):
        W = rng.standard_normal((2, 6))
        phi = rng.standard_normal(6)
        grad = least_squares_gradient(W, phi)
        h = 1e-6
        for i in range(6):
            dp = np.zeros(6)
            dp[i] = h
            fd = (least_squares_cost(W, phi + dp) - least_squares_cost(W, phi - dp)) / (2 * h)
            assert abs(fd - grad[i]) <= 1e-7 * max(1.0, abs(grad[i]))


class TestIdealSystem:
    def test_zero_regressor_decouples(self, ref1, gains1):
        X0 = np.array([0.5, -0.2, 0.3, -0.4])
        w_of_t = lambda t: np.zeros((1, 2))  # noqa: E731
        X = simulate_ideal(w_of_t, ref1, gains1, X0, 4.0, 0.01)
        np.testing.assert_allclose(X[2:], [0.3, -0.4], atol=1e-12)
        acl = ref1.A + ref1.B @ gains1
        np.testing.assert_allclose(X[:2], expm(acl * 4.0) @ X0[:2], atol=1e-8)

    def test_constant_regressor_matches_matrix_exponential(self, ref1, gains1, rng):
        W = rng.standard_normal((1, 3))
        X0 = rng.standard_normal(5)
        A = ltv_matrix(ref1, gains1, W)
        X = simulate_ideal(lambda t: W, ref1, gains1, X0, 3.0, 0.005)
        np.testing.assert_allclose(X, expm(A * 3.0) @ X0, atol=1e-8)

    def test_pe_regressor_contracts_the_parameters(self, ref1, gains1):
        w_of_t = lambda t: np.stack([np.sin(t), np.cos(t)], -1)[..., None, :]  # noqa: E731
        X0 = np.array([0.0, 0.0, 1.0, -1.0])
        X = simulate_ideal(w_of_t, ref1, gains1, X0, 30.0, 0.01)
        assert np.linalg.norm(X[2:]) < 0.1 * np.linalg.norm(X0[2:])
        t_grid = np.linspace(0.0, 30.0, 7)
        fit = fit_exponential_bound(*transition_norm_grid(w_of_t, ref1, gains1,
                                                          t_grid, 0.01))
        assert fit.exponential and fit.zeta > 0.05

    def test_a_flow_leaving_the_finite_floats_raises_divergence_error(self, ref1, gains1):
        # W = 1e200 overflows W.T W phi in the first step's first stage
        with pytest.raises(DivergenceError, match="at step 1"):
            simulate_ideal(lambda t: np.full(np.shape(t) + (1, 2), 1e200), ref1, gains1,
                           np.ones(4), 1.0, 0.1)

    def test_stacked_lanes_with_own_start_times_are_their_own_runs(self, ref1, gains1, rng):
        times = np.linspace(0.0, 6.0, 61)
        w_of_t = interp_matrix_series(times, rng.standard_normal((61, 1, 3)))
        X0 = rng.standard_normal((4, 5))
        t0 = np.array([0.0, 0.7, 2.05, 3.3])
        X = simulate_ideal(w_of_t, ref1, gains1, X0, 1.5, 0.01, t0=t0)
        assert X.shape == (4, 5)
        for lane in range(4):
            own = simulate_ideal(w_of_t, ref1, gains1, X0[lane], 1.5, 0.01, t0=t0[lane])
            assert own.shape == (5,)
            assert np.abs(X[lane] - own).max() <= 1e-14 * np.abs(own).max()

    def test_ltv_block_structure(self, ref1, gains1, rng):
        W = rng.standard_normal((1, 4))
        A = ltv_matrix(ref1, gains1, W)
        np.testing.assert_array_equal(A[:2, :2], ref1.A + ref1.B @ gains1)
        np.testing.assert_allclose(A[:2, 2:], ref1.B @ W)
        np.testing.assert_allclose(A[2:, 2:], -W.T @ W)
        np.testing.assert_array_equal(A[2:, :2], np.zeros((4, 2)))


class TestTransitionMatrix:
    def test_identity_at_equal_times(self, ref1, gains1):
        w_of_t = lambda t: np.ones((1, 2))  # noqa: E731
        np.testing.assert_array_equal(
            transition_matrix(w_of_t, ref1, gains1, 1.0, 1.0, 0.01), np.eye(4))

    def test_constant_system_matches_matrix_exponential(self, ref1, gains1, rng):
        W = 0.8 * rng.standard_normal((1, 3))
        A = ltv_matrix(ref1, gains1, W)
        phi = transition_matrix(lambda t: W, ref1, gains1, 0.5, 2.0, 0.005)
        np.testing.assert_allclose(phi, expm(A * 1.5), atol=1e-8)

    def test_semigroup_property(self, ref1, gains1):
        w_of_t = lambda t: (  # noqa: E731
            np.stack([np.sin(0.9 * t), np.cos(1.3 * t)], -1)[..., None, :])
        p31 = transition_matrix(w_of_t, ref1, gains1, 1.0, 3.0, 0.002)
        p21 = transition_matrix(w_of_t, ref1, gains1, 1.0, 2.0, 0.002)
        p32 = transition_matrix(w_of_t, ref1, gains1, 2.0, 3.0, 0.002)
        assert np.abs(p31 - p32 @ p21).max() <= 1e-7

    def test_time_order_enforced(self, ref1, gains1):
        with pytest.raises(ValueError):
            transition_matrix(lambda t: np.ones((1, 2)), ref1, gains1, 2.0, 1.0, 0.01)

    def test_array_of_intervals_is_the_per_interval_propagators(self, ref1, gains1, rng):
        times = np.linspace(0.0, 12.0, 121)
        w_of_t = interp_matrix_series(times, rng.standard_normal((121, 1, 3)))
        grid = np.linspace(0.0, 12.0, 7)
        props = transition_matrix(w_of_t, ref1, gains1, grid[:-1], grid[1:], 0.01)
        assert props.shape == (6, 5, 5)
        for k, (t0, t1) in enumerate(zip(grid[:-1], grid[1:])):
            one = transition_matrix(w_of_t, ref1, gains1, t0, t1, 0.01)
            assert np.abs(props[k] - one).max() <= 1e-13 * np.abs(one).max()

    def test_unequal_interval_lengths_raise(self, ref1, gains1):
        w_of_t = lambda t: np.ones(np.shape(t) + (1, 2))  # noqa: E731
        with pytest.raises(ValueError, match="share one length"):
            transition_matrix(w_of_t, ref1, gains1, np.array([0.0, 1.0]),
                              np.array([1.0, 2.5]), 0.01)


class TestPECheck:
    def test_analytic_sin_cos_window(self):
        t = np.linspace(0.0, 4 * np.pi, 2001)
        W = np.stack([np.sin(t), np.cos(t)], axis=-1)[:, None, :]
        report = pe_check(t, W, delta=2 * np.pi)
        assert abs(report.c1 - np.pi) <= 1e-6
        assert abs(report.c2 - np.pi) <= 1e-6
        assert report.satisfied

    def test_zero_regressor_not_exciting(self):
        t = np.linspace(0.0, 10.0, 501)
        report = pe_check(t, np.zeros((501, 1, 3)), delta=2.0)
        assert report.c2 == 0.0 and not report.satisfied

    def test_collinear_columns_not_exciting(self):
        t = np.linspace(0.0, 4 * np.pi, 2001)
        W = np.stack([np.sin(t), np.sin(t)], axis=-1)[:, None, :]
        report = pe_check(t, W, delta=2 * np.pi)
        assert report.c2 <= 1e-9 * report.c1
        assert not report.satisfied

    def test_window_longer_than_series(self):
        t = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ValueError, match="shorter"):
            pe_check(t, np.ones((11, 1, 2)), delta=2.0)

    def test_c1_dominates_c2(self, rng):
        t = np.linspace(0.0, 30.0, 1501)
        W = np.stack([np.sin(0.7 * t), np.cos(t), 0.3 * np.sin(1.3 * t)],
                     axis=-1)[:, None, :]
        report = pe_check(t, W, delta=10.0, stride=5)
        assert report.c1 >= report.c2 >= 0.0

    def test_sample_count_must_match_times(self):
        with pytest.raises(ValueError, match="2 regressor samples for 101 sample times"):
            pe_check(np.linspace(0.0, 10.0, 101), np.ones((2, 1, 2)), delta=2.0)

    def test_decreasing_times_and_empty_window_raise(self):
        W = np.ones((4, 1, 2))
        with pytest.raises(ValueError, match="must not decrease"):
            pe_check(np.array([0.0, 2.0, 1.0, 3.0]), W, delta=1.0)
        with pytest.raises(ValueError, match="must be positive"):
            pe_check(np.arange(4.0), W, delta=0.0)

    @settings(max_examples=60)
    @given(inputs=pe_inputs())
    def test_streamed_report_equals_all_at_once(self, inputs):
        # the block-streamed integrals give the whole-series report bit for bit
        try:
            want = all_at_once_pe_check(*inputs)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                pe_check(*inputs)
            return
        assert repr(pe_check(*inputs)) == repr(want)

    def test_each_samples_gram_is_formed_once_per_walk(self, monkeypatch):
        # a block starts from the previous block's last W.T W, not a fresh one
        einsum, samples = np.einsum, []

        def counting(subscripts, *operands, **kwargs):
            samples.append(len(operands[0]))
            return einsum(subscripts, *operands, **kwargs)

        monkeypatch.setattr(np, "einsum", counting)
        t = np.linspace(0.0, 1.0, 11)
        W = np.random.default_rng(2).standard_normal((11, 2, 3))
        assert len(list(analysis._running_nodes(t, W, block=3))) == 11
        assert sum(samples) == 11

    @pytest.mark.parametrize("stride", [0, -5, 2.9, True])
    def test_stride_must_be_a_positive_integer(self, stride):
        t = np.linspace(0.0, 10.0, 101)
        with pytest.raises(ValueError, match=re.escape(f"stride={stride!r} must be")):
            pe_check(t, np.ones((101, 1, 2)), delta=2.0, stride=stride)

    def test_memory_follows_open_windows_not_samples(self):
        # 1201 samples at p = 64: one (samples, p, p) stack is 39 MB, and the
        # whole-series check traces 175 MB; the streamed check holds no
        # window's start node and traces 1.4 MB
        t = np.linspace(0.0, 60.0, 1201)
        W = np.random.default_rng(3).standard_normal((1201, 2, 64))
        reports = []
        peak = peak_traced_mb(lambda: reports.append(pe_check(t, W, delta=10.0, stride=1)))
        assert reports[0].n_windows == 1001
        assert peak <= 32.0, f"pe_check peaked at {peak:.1f} MB traced"

    def test_memory_does_not_grow_with_open_windows(self):
        # 1001 windows of 5000 samples are open at once at p = 64: holding
        # their start nodes would take 31 MB, and the two cursors trace 1.5 MB
        t = np.linspace(0.0, 60.0, 6001)
        W = np.random.default_rng(3).standard_normal((6001, 2, 64))
        reports = []
        peak = peak_traced_mb(lambda: reports.append(pe_check(t, W, delta=50.0, stride=1)))
        assert reports[0].n_windows == 1001
        assert peak <= 4.0, f"pe_check peaked at {peak:.1f} MB traced"


class TestExponentialFit:
    def test_constant_hurwitz_matrix(self):
        # repeated eigenvalue at -1.5: polynomial factor drags the pure
        # exponential rate below the spectral abscissa
        A = np.array([[0.0, 1.0], [-2.25, -3.0]])
        gaps = np.linspace(0.0, 6.0, 25)
        norms = np.array([np.linalg.norm(expm(A * g), ord=2) for g in gaps])
        fit = fit_exponential_bound(gaps, norms)
        assert fit.exponential
        assert 1.0 <= fit.zeta <= 1.5
        assert fit.residual <= 0.0
        np.testing.assert_array_less(norms, fit.M * np.exp(-fit.zeta * gaps) + 1e-12)

    def test_identity_flow_reports_nonexponential(self):
        gaps = np.linspace(0.0, 5.0, 20)
        fit = fit_exponential_bound(gaps, np.ones(20))
        assert not fit.exponential and fit.zeta == 0.0

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            fit_exponential_bound(np.zeros(5), np.ones(5))
        with pytest.raises(ValueError):
            fit_exponential_bound(np.array([0.0, 1.0]), np.array([1.0, 0.5]))
        with pytest.raises(ValueError):
            fit_exponential_bound(np.array([0.0, 1.0, 2.0]), np.array([1.0, -0.5, 0.2]))


class TestInterp:
    def test_endpoints_and_midpoint(self):
        times = np.array([0.0, 1.0])
        values = np.stack([np.zeros((1, 2)), np.ones((1, 2))])
        w_of_t = interp_matrix_series(times, values)
        np.testing.assert_allclose(w_of_t(0.0), np.zeros((1, 2)))
        np.testing.assert_allclose(w_of_t(0.5), 0.5 * np.ones((1, 2)))
        np.testing.assert_allclose(w_of_t(1.0), np.ones((1, 2)))
        np.testing.assert_allclose(w_of_t(2.0), np.ones((1, 2)))  # clamped

    @pytest.mark.parametrize("n_samples", [0, 1])
    def test_fewer_than_two_samples_raise(self, n_samples):
        with pytest.raises(ValueError, match="two samples"):
            interp_matrix_series(np.arange(n_samples, dtype=float), np.ones((n_samples, 1, 2)))

    def test_decreasing_times_raise(self):
        with pytest.raises(ValueError, match="must not decrease"):
            interp_matrix_series(np.array([0.0, 2.0, 1.0, 3.0]),
                                 np.arange(4.0).reshape(4, 1, 1))

    def test_repeated_times_raise(self):
        # a repeated time once divided 0 by 0 there: a RuntimeWarning and NaN
        with pytest.raises(ValueError, match="must not decrease or repeat"):
            interp_matrix_series(np.array([0.0, 1.0, 1.0]), np.ones((3, 2, 2)))

    def test_array_of_times_is_the_scalar_calls(self, rng):
        times = np.cumsum(rng.uniform(0.05, 0.2, 40))
        values = rng.standard_normal((40, 2, 3))
        w_of_t = interp_matrix_series(times, values)
        # clamped ends, every sample time, and points between samples
        query = np.concatenate([[times[0] - 1.0, times[-1] + 1.0], times,
                                rng.uniform(times[0], times[-1], 200)])
        bulk = w_of_t(query)
        assert bulk.shape == (len(query), 2, 3)
        for k, t in enumerate(query):
            np.testing.assert_array_equal(bulk[k], w_of_t(float(t)))
        np.testing.assert_array_equal(w_of_t(query.reshape(2, -1)),
                                      bulk.reshape(2, -1, 2, 3))


class TestInputChecks:
    @pytest.mark.parametrize("call,message", [
        (lambda: interp_matrix_series(np.arange(3.0), np.ones((2, 1, 1))),
         "3 sample times for 2 matrices"),
        (lambda: pe_check(np.zeros(1), np.ones((1, 1, 2)), delta=1.0),
         "need at least two regressor samples"),
        (lambda: fit_exponential_bound(np.arange(4.0), np.ones(3)),
         "gaps and norms must be 1-d arrays of equal length"),
    ], ids=["interp_matrix_series", "pe_check", "fit_exponential_bound"])
    def test_a_bad_input_is_named(self, call, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()
