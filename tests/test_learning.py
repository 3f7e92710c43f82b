import numpy as np
import pytest

from fblearn import (BaselineSpec, PolicyConfig, build_rbf_grid, discrete_reward,
                     estimate_gradient, grad_log_policy, make_chain_plant,
                     run_episode, sample_policy, update_params)
from fblearn.learning import (derive_seed, draw_noise, draw_noise_series, run_ensemble,
                              step_normals, step_rng)
from fblearn.basis import controller_jacobian, eval_learned_controller
from fblearn.errors import DimensionError, DivergenceError
from fblearn.reference import sample_reference

from oracles import expm


class TestPolicy:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            PolicyConfig(sigma2=-0.1, dt=0.05)
        with pytest.raises(ValueError):
            PolicyConfig(sigma2=0.1, dt=0.0)
        with pytest.raises(ValueError):
            PolicyConfig(sigma2=0.1, dt=0.05, noise_clip=0.0)

    def test_zero_variance_draws_nothing(self):
        cfg = PolicyConfig(sigma2=0.0, dt=0.05)
        np.testing.assert_array_equal(draw_noise(cfg, 2, step_rng(0, 0)), np.zeros(2))

    def test_clip_bound_respected(self):
        cfg = PolicyConfig(sigma2=1.0, dt=0.05, noise_clip=1.5)
        w = np.concatenate([draw_noise(cfg, 2, step_rng(9, k)) for k in range(2000)])
        assert np.abs(w).max() <= 1.5

    def test_vanishing_noise_recovers_the_learned_law(self, inspan1):
        cfg = PolicyConfig(sigma2=1e-18, dt=0.05)
        ref_s = sample_reference(inspan1.reference, (2,), 0.0)
        x = inspan1.x0 + 0.1
        u, w = sample_policy(inspan1.bases, inspan1.theta_star, inspan1.nominal, x,
                             ref_s, inspan1.gains, cfg, step_rng(1, 0))
        e = x - ref_s.xi_d
        v = ref_s.y_dgamma + inspan1.gains.K @ e
        u_hat = eval_learned_controller(inspan1.bases, inspan1.theta_star,
                                        inspan1.nominal, x, v)
        assert np.abs(u - u_hat).max() <= 1e-8

    def test_experiment_noise_level(self, inspan1):
        # the headline operating point: dt = 0.05 s, sigma^2 = 0.1
        cfg = PolicyConfig(sigma2=0.1, dt=0.05)
        ref_s = sample_reference(inspan1.reference, (2,), 0.0)
        u, w = sample_policy(inspan1.bases, inspan1.theta_star, inspan1.nominal,
                             inspan1.x0, ref_s, inspan1.gains, cfg, step_rng(1, 0))
        assert w.shape == (1,) and np.all(np.isfinite(u))

    def test_noise_mean_is_zero(self):
        cfg = PolicyConfig(sigma2=0.1, dt=0.05)
        draws = np.stack([draw_noise(cfg, 2, step_rng(3, k)) for k in range(100_000)])
        stderr = np.sqrt(0.1 / len(draws))
        assert np.abs(draws.mean(axis=0)).max() <= 4 * stderr


def _as_bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


class TestBulkNoise:
    """``step_normals`` is the per-step ``step_rng`` stream, computed in bulk."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**100 + 3,
                                      2**128 + 7])
    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_bit_equal_to_per_step_generators(self, seed, q):
        for horizon in (0, 1, 900):
            want = np.array([step_rng(seed, k).standard_normal(q)
                             for k in range(horizon)]).reshape(horizon, q)
            got = step_normals(seed, horizon, q)
            assert got.shape == (horizon, q)
            np.testing.assert_array_equal(_as_bits(got), _as_bits(want))

    def test_prefix_stable_in_the_horizon(self):
        long = step_normals(2**40 + 9, 900, 2)
        np.testing.assert_array_equal(_as_bits(step_normals(2**40 + 9, 50, 2)),
                                      _as_bits(long[:50]))

    def test_negative_seed_raises_like_seed_sequence(self):
        with pytest.raises(ValueError) as want:
            np.random.SeedSequence(-3)
        with pytest.raises(ValueError) as got:
            step_normals(-3, 4, 1)
        assert str(got.value) == str(want.value)

    def test_zero_variance_series_is_zero(self):
        cfg = PolicyConfig(sigma2=0.0, dt=0.05)
        np.testing.assert_array_equal(draw_noise_series(cfg, 2, 5, 30), np.zeros((30, 2)))

    def test_episode_noise_is_the_per_step_draw(self, inspan1):
        cfg = PolicyConfig(sigma2=0.05, dt=0.05, noise_clip=1.0)
        seed = 2**33 + 1
        rec = run_episode(inspan1.plant, inspan1.nominal, inspan1.bases,
                          inspan1.theta_star + 0.2, inspan1.reference, inspan1.ref_model,
                          inspan1.gains, cfg, horizon=40, seed=seed, x0=inspan1.x0,
                          substeps=2)
        assert rec.steps == 40
        for k in range(rec.steps):
            np.testing.assert_array_equal(_as_bits(rec.w[k]),
                                          _as_bits(draw_noise(cfg, 1, step_rng(seed, k))))


class TestReward:
    def test_exact_euler_step_scores_zero(self, ref22, gains22, rng):
        e = rng.standard_normal(4)
        abar = np.eye(4) + 0.05 * (ref22.A + ref22.B @ gains22.K)
        assert discrete_reward(e, abar @ e, ref22, gains22, 0.05) == pytest.approx(0.0)

    def test_unit_arithmetic(self, ref22, gains22):
        e_next = np.array([0.05, 0.0, 0.0, 0.0])
        assert discrete_reward(np.zeros(4), e_next, ref22, gains22, 0.05) \
            == pytest.approx(0.5)

    def test_positive_dt_required(self, ref22, gains22):
        with pytest.raises(ValueError):
            discrete_reward(np.zeros(4), np.zeros(4), ref22, gains22, 0.0)


class TestScore:
    def test_zero_at_the_mean(self, rng):
        jac = rng.standard_normal((2, 6))
        u = rng.standard_normal(2)
        np.testing.assert_array_equal(grad_log_policy(u, u, 0.1, jac), np.zeros(6))

    def test_linear_scaling(self, rng):
        jac = rng.standard_normal((2, 6))
        u_hat = rng.standard_normal(2)
        d = rng.standard_normal(2)
        one = grad_log_policy(u_hat + d, u_hat, 0.1, jac)
        two = grad_log_policy(u_hat + 2 * d, u_hat, 0.1, jac)
        np.testing.assert_allclose(two, 2 * one, atol=1e-13)

    def test_matches_log_density_gradient(self, pendulum, rng):
        # finite differences of log N(u; u_hat(theta), sigma^2 I) in theta
        bases = build_rbf_grid([(-1, 1)] * 4, (2, 2, 2, 2), 1.0, io_dim=2)
        sigma2, h = 0.1, 1e-6
        x = rng.uniform(-0.5, 0.5, 4)
        v = rng.standard_normal(2)
        theta = rng.standard_normal(bases.size) * 0.2
        u = eval_learned_controller(bases, theta, pendulum, x, v) + rng.standard_normal(2)

        def logp(th):
            mean = eval_learned_controller(bases, th, pendulum, x, v)
            return -0.5 * np.sum((u - mean) ** 2) / sigma2

        jac = controller_jacobian(bases, theta, pendulum, x, v)
        score = grad_log_policy(u, eval_learned_controller(bases, theta, pendulum, x, v),
                                sigma2, jac)
        for i in rng.choice(bases.size, size=8, replace=False):
            dp = np.zeros(bases.size)
            dp[i] = h
            fd = (logp(theta + dp) - logp(theta - dp)) / (2 * h)
            assert abs(fd - score[i]) <= 1e-6 * max(1.0, abs(score[i]))

    def test_positive_variance_required(self, rng):
        with pytest.raises(ValueError):
            grad_log_policy(np.zeros(2), np.zeros(2), 0.0, rng.standard_normal((2, 4)))


class TestGradientAndUpdate:
    def test_baseline_cancellation(self, rng):
        score = rng.standard_normal(6)
        np.testing.assert_array_equal(estimate_gradient(2.5, 2.5, score).estimate,
                                      np.zeros(6))

    def test_no_baseline_is_plain_reinforce(self, rng):
        score = rng.standard_normal(6)
        np.testing.assert_allclose(estimate_gradient(1.7, 0.0, score).estimate, 1.7 * score)

    def test_update_arithmetic(self):
        theta = update_params(np.zeros(4), np.ones(4), 0.05)
        np.testing.assert_allclose(theta, -0.05 * np.ones(4))
        np.testing.assert_array_equal(update_params(theta, np.zeros(4), 0.05), theta)

    def test_update_rejects_nonfinite(self):
        with pytest.raises(DivergenceError):
            update_params(np.zeros(2), np.array([1.0, np.nan]), 0.05)
        with pytest.raises(DimensionError):
            update_params(np.zeros(2), np.zeros(3), 0.05)

    def test_baseline_kinds(self):
        with pytest.raises(ValueError):
            BaselineSpec(kind="bogus")
        sumb = BaselineSpec(kind="sum_of_past")
        meanb = BaselineSpec(kind="mean_of_past")
        noneb = BaselineSpec(kind="none")
        for r in (1.0, 3.0):
            for b in (sumb, meanb, noneb):
                b.update(r)
        assert sumb.value() == pytest.approx(4.0)
        assert meanb.value() == pytest.approx(2.0)
        assert noneb.value() == 0.0
        sumb.reset()
        assert sumb.value() == 0.0


class TestRunEpisode:
    def test_bitwise_replay(self, inspan1):
        cfg = PolicyConfig(sigma2=0.05, dt=0.05)
        kwargs = dict(baseline=BaselineSpec("mean_of_past"), horizon=60, seed=12,
                      x0=inspan1.x0, theta_star=inspan1.theta_star, substeps=4)
        theta0 = inspan1.theta_star + 0.3
        a = run_episode(inspan1.plant, inspan1.nominal, inspan1.bases, theta0,
                        inspan1.reference, inspan1.ref_model, inspan1.gains, cfg, **kwargs)
        b = run_episode(inspan1.plant, inspan1.nominal, inspan1.bases, theta0,
                        inspan1.reference, inspan1.ref_model, inspan1.gains, cfg, **kwargs)
        for field in ("x", "e", "theta", "u", "w", "rewards"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    def test_learning_toggle_shares_the_noise_stream(self, inspan1):
        cfg = PolicyConfig(sigma2=0.05, dt=0.05)
        theta0 = inspan1.theta_star + 0.2
        kwargs = dict(horizon=40, seed=5, x0=inspan1.x0, substeps=4)
        learn = run_episode(inspan1.plant, inspan1.nominal, inspan1.bases, theta0,
                            inspan1.reference, inspan1.ref_model, inspan1.gains, cfg,
                            learn=True, **kwargs)
        frozen = run_episode(inspan1.plant, inspan1.nominal, inspan1.bases, theta0,
                             inspan1.reference, inspan1.ref_model, inspan1.gains, cfg,
                             learn=False, **kwargs)
        np.testing.assert_array_equal(learn.w, frozen.w)
        assert np.all(frozen.theta == frozen.theta[0])
        assert np.any(learn.theta[-1] != learn.theta[0])

    def test_on_manifold_run_has_tiny_rewards(self, inspan1):
        # theta = theta*, no noise: residual reward is the O(dt^2) hold error
        cfg = PolicyConfig(sigma2=0.0, dt=2e-4)
        rec = run_episode(inspan1.plant, inspan1.nominal, inspan1.bases,
                          inspan1.theta_star, inspan1.reference, inspan1.ref_model,
                          inspan1.gains, cfg, horizon=300, seed=0, x0=inspan1.x0,
                          learn=False, theta_star=inspan1.theta_star, substeps=2)
        assert rec.rewards.max() <= 1e-8

    def test_error_decays_like_the_linear_system(self, inspan1):
        e0 = np.array([0.5, -0.2])
        cfg = PolicyConfig(sigma2=0.0, dt=2e-4)
        rec = run_episode(inspan1.plant, inspan1.nominal, inspan1.bases,
                          inspan1.theta_star, inspan1.reference, inspan1.ref_model,
                          inspan1.gains, cfg, horizon=2000, seed=0,
                          x0=inspan1.x0 + e0, learn=False,
                          theta_star=inspan1.theta_star, substeps=2)
        acl = inspan1.ref_model.A + inspan1.ref_model.B @ inspan1.gains.K
        for k in (0, 500, 1000, 2000):
            want = expm(acl * rec.t[k]) @ e0
            assert np.linalg.norm(rec.e[k] - want) <= 1e-4 * np.linalg.norm(e0)

    def test_mismatched_nominal_keeps_persistent_error(self, pendulum, pendulum_nominal,
                                                       ref22, gains22, two_tone2):
        # frozen nominal controller leaves persistent tracking error
        bases = build_rbf_grid([(-1.2, 1.2)] * 2 + [(-1.5, 1.5)] * 2, (5, 5, 2, 2),
                               0.5, io_dim=2, beta_scale=0.1, alpha_scale=0.1)
        cfg = PolicyConfig(sigma2=0.0, dt=0.05)
        x0 = sample_reference(two_tone2, (2, 2), 0.0).xi_d[[0, 2, 1, 3]]
        rec = run_episode(pendulum, pendulum_nominal, bases, np.zeros(bases.size),
                          two_tone2, ref22, gains22, cfg, horizon=400, seed=0, x0=x0,
                          learn=False, substeps=5)
        assert not rec.diverged
        assert rec.error_norms()[200:].mean() > 0.2

    def test_divergence_truncates_and_flags(self, pendulum, pendulum_nominal, ref22,
                                            gains22, two_tone2):
        # overly aggressive adaptation gain blows the loop up
        bases = build_rbf_grid([(-1.2, 1.2)] * 2 + [(-1.5, 1.5)] * 2, (5, 5, 2, 2),
                               1.0, io_dim=2)
        cfg = PolicyConfig(sigma2=0.1, dt=0.05)
        x0 = sample_reference(two_tone2, (2, 2), 0.0).xi_d[[0, 2, 1, 3]]
        rec = run_episode(pendulum, pendulum_nominal, bases, np.zeros(bases.size),
                          two_tone2, ref22, gains22, cfg,
                          baseline=BaselineSpec("mean_of_past"), horizon=400, seed=42,
                          x0=x0, substeps=5)
        assert rec.diverged and rec.diverged_step is not None
        assert rec.steps == rec.diverged_step
        assert len(rec.t) == rec.steps + 1

    def test_policy_gradient_needs_noise(self, inspan1):
        cfg = PolicyConfig(sigma2=0.0, dt=0.05)
        with pytest.raises(ValueError, match="sigma2"):
            run_episode(inspan1.plant, inspan1.nominal, inspan1.bases,
                        inspan1.theta_star, inspan1.reference, inspan1.ref_model,
                        inspan1.gains, cfg, horizon=5, seed=0, x0=inspan1.x0)

    def test_ideal_update_needs_theta_star(self, inspan1):
        cfg = PolicyConfig(sigma2=0.0, dt=0.05)
        with pytest.raises(ValueError, match="theta_star"):
            run_episode(inspan1.plant, inspan1.nominal, inspan1.bases,
                        inspan1.theta_star, inspan1.reference, inspan1.ref_model,
                        inspan1.gains, cfg, horizon=5, seed=0, x0=inspan1.x0,
                        update_rule="ideal")

    def test_finite_difference_measurement_close_to_exact(self, inspan1):
        cfg = PolicyConfig(sigma2=0.01, dt=0.05)
        kwargs = dict(horizon=60, seed=4, x0=inspan1.x0,
                      theta_star=inspan1.theta_star, substeps=10)
        theta0 = inspan1.theta_star + 0.2
        exact = run_episode(inspan1.plant, inspan1.nominal, inspan1.bases, theta0,
                            inspan1.reference, inspan1.ref_model, inspan1.gains, cfg,
                            measure="exact", **kwargs)
        fd = run_episode(inspan1.plant, inspan1.nominal, inspan1.bases, theta0,
                         inspan1.reference, inspan1.ref_model, inspan1.gains, cfg,
                         measure="finite_difference", **kwargs)
        assert not fd.diverged
        # first-order differencing of the rate entries costs O(substep)
        assert np.abs(fd.e - exact.e).max() <= 0.05

    def test_finite_difference_rejects_high_degree(self):
        from fblearn import build_reference_model, design_gain, two_tone_reference, \
            polynomial_basis
        chain3 = make_chain_plant((3,))
        rm = build_reference_model((3,))
        gains = design_gain(rm, -1.5)
        bases = polynomial_basis(3, 1, io_dim=1)
        cfg = PolicyConfig(sigma2=0.01, dt=0.05)
        with pytest.raises(ValueError, match="relative degree"):
            run_episode(chain3, chain3, bases, np.zeros(bases.size),
                        two_tone_reference(1), rm, gains, cfg, horizon=3, seed=0,
                        measure="finite_difference", learn=False)

    def test_record_shapes(self, inspan1):
        cfg = PolicyConfig(sigma2=0.05, dt=0.05)
        rec = run_episode(inspan1.plant, inspan1.nominal, inspan1.bases,
                          inspan1.theta_star, inspan1.reference, inspan1.ref_model,
                          inspan1.gains, cfg, horizon=25, seed=1, x0=inspan1.x0,
                          theta_star=inspan1.theta_star, substeps=4)
        assert rec.steps == 25
        assert rec.t.shape == (26,) and rec.e.shape == (26, 2)
        assert rec.u.shape == (25, 1) and rec.rewards.shape == (25,)
        assert rec.phi.shape == (26, inspan1.bases.size)
        np.testing.assert_allclose(rec.t, np.arange(26) * 0.05)


class TestEnsemble:
    def test_matches_sequential_episodes(self, inspan_mc):
        cfg = PolicyConfig(sigma2=0.001, dt=0.01)
        ens = run_ensemble(inspan_mc.plant, inspan_mc.nominal, inspan_mc.bases,
                           inspan_mc.theta0, inspan_mc.reference, inspan_mc.ref_model,
                           inspan_mc.gains, cfg, n_trials=5, horizon=60,
                           baseline_kind="none", seed=21, cell_key=2, x0=inspan_mc.x0,
                           theta_star=inspan_mc.theta_star, substeps=4)
        for trial in (0, 3):
            rec = run_episode(inspan_mc.plant, inspan_mc.nominal, inspan_mc.bases,
                              inspan_mc.theta0, inspan_mc.reference, inspan_mc.ref_model,
                              inspan_mc.gains, cfg, baseline=BaselineSpec("none"),
                              horizon=60, seed=derive_seed(21, 2, trial), x0=inspan_mc.x0,
                              theta_star=inspan_mc.theta_star, substeps=4)
            np.testing.assert_allclose(ens.e[trial], rec.e, atol=1e-12)
            np.testing.assert_allclose(ens.phi[trial], rec.phi, atol=1e-12)

    def test_diverging_lanes_are_flagged_and_frozen(self, pendulum, pendulum_nominal,
                                                    ref22, gains22, two_tone2):
        bases = build_rbf_grid([(-1.2, 1.2)] * 2 + [(-1.5, 1.5)] * 2, (5, 5, 2, 2),
                               1.0, io_dim=2)
        cfg = PolicyConfig(sigma2=0.1, dt=0.05)
        x0 = sample_reference(two_tone2, (2, 2), 0.0).xi_d[[0, 2, 1, 3]]
        ens = run_ensemble(pendulum, pendulum_nominal, bases, np.zeros(bases.size),
                           two_tone2, ref22, gains22, cfg, n_trials=4, horizon=120,
                           baseline_kind="mean_of_past", seed=42, cell_key=0, x0=x0,
                           substeps=5)
        assert ens.diverged.any()
        assert np.all(np.isfinite(ens.e))
        dead = np.where(ens.diverged)[0][0]
        k = ens.diverged_step[dead]
        assert k >= 0
        # frozen after death: the error stops moving
        np.testing.assert_array_equal(ens.e[dead, k + 1], ens.e[dead, k])
