import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fblearn import (BASELINES, AdaptRunRecord, PolicyConfig, build_rbf_grid,
                     build_reference_model, design_gain, discrete_reward, grad_log_policy,
                     make_chain_plant, make_inspan_plant, polynomial_basis, run_episode,
                     run_episodes, two_tone_reference, update_params)
from fblearn.learning import (_SERIES, _lockstep, derive_seed, draw_noise, draw_noise_series,
                              run_ensemble, step_normals, step_rng)
from fblearn.basis import BasisSet, controller_jacobian, eval_learned_controller
from fblearn.config import load_config
from fblearn.errors import DimensionError, DivergenceError, SingularMatrixError
from fblearn.reference import sample_reference
from fblearn.scenarios import Scenario, build_scenario, policy_config

from oracles import expm, sequential_episode

CONFIG_DIR = Path(__file__).parent.parent / "configs"


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
        rec = run_episode(inspan1.plant, inspan1.nominal, inspan1.bases,
                          inspan1.theta_star, inspan1.reference, inspan1.ref_model,
                          inspan1.gains, cfg, horizon=1, seed=1, x0=inspan1.x0 + 0.1,
                          learn=False, substeps=2)
        ref_s = sample_reference(inspan1.reference, (2,), 0.0)
        x = rec.x[0]
        np.testing.assert_array_equal(x, inspan1.x0 + 0.1)
        e = x - ref_s.xi_d
        v = ref_s.y_dgamma + inspan1.gains @ e
        u_hat = eval_learned_controller(inspan1.bases, inspan1.theta_star,
                                        inspan1.nominal, x, v)
        assert np.abs(rec.u[0] - u_hat).max() <= 1e-8

    def test_experiment_noise_level(self, inspan1):
        # the headline operating point: dt = 0.05 s, sigma^2 = 0.1
        cfg = PolicyConfig(sigma2=0.1, dt=0.05)
        rec = run_episode(inspan1.plant, inspan1.nominal, inspan1.bases,
                          inspan1.theta_star, inspan1.reference, inspan1.ref_model,
                          inspan1.gains, cfg, horizon=1, seed=1, x0=inspan1.x0,
                          learn=False, substeps=2)
        u, w = rec.u[0], rec.w[0]
        assert w.shape == (1,) and np.all(np.isfinite(u))

    def test_noise_mean_is_zero(self):
        cfg = PolicyConfig(sigma2=0.1, dt=0.05)
        draws = draw_noise_series(cfg, 2, 3, 100_000)
        stderr = np.sqrt(0.1 / len(draws))
        assert np.abs(draws.mean(axis=0)).max() <= 4 * stderr


def _parts(sc: Scenario) -> tuple:
    """The seven parts of ``sc`` that ``run_episode`` takes before ``cfg``, in order."""
    return sc.plant, sc.nominal, sc.bases, sc.theta0, sc.reference, sc.ref_model, sc.gains


def _as_bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


class TestBulkNoise:
    """``step_normals`` is the per-step ``step_rng`` stream, computed in bulk."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**100 + 3,
                                      2**128 - 1])
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
        with pytest.raises(ValueError):
            np.random.SeedSequence(-3)
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*128\)"):
            step_normals(-3, 4, 1)

    @pytest.mark.parametrize("seed,horizon", [(2**128, 4), (2**128 + 7, 4), (1.5, 4),
                                              ("3", 4), (0, -1), (0, 2**32 + 1)])
    def test_seeds_and_horizons_outside_the_bulk_domain_are_rejected(self, seed, horizon):
        # there is no per-step fallback: the bulk draw is the only noise path
        with pytest.raises(ValueError, match="seed|horizon"):
            step_normals(seed, horizon, 1)

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
        abar = np.eye(4) + 0.05 * (ref22.A + ref22.B @ gains22)
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

        jac = controller_jacobian(bases, x, v)
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

    def test_batched_score_is_the_per_lane_score(self, rng):
        jac = rng.standard_normal((7, 2, 30))
        u, u_hat = rng.standard_normal((7, 2)), rng.standard_normal((7, 2))
        score = grad_log_policy(u, u_hat, 0.1, jac)
        for b in range(7):
            np.testing.assert_array_equal(score[b], grad_log_policy(u[b], u_hat[b], 0.1, jac[b]))

    def test_per_lane_variance_is_each_lanes_own_score(self, rng):
        jac = rng.standard_normal((5, 2, 12))
        u, u_hat = rng.standard_normal((5, 2)), rng.standard_normal((5, 2))
        sigma2 = np.array([0.1, 0.001, 0.1, 2.0, 0.0005])
        score = grad_log_policy(u, u_hat, sigma2, jac)
        for b in range(5):
            np.testing.assert_array_equal(score[b],
                                          grad_log_policy(u[b], u_hat[b], sigma2[b], jac[b]))
        with pytest.raises(ValueError, match="positive"):
            grad_log_policy(u, u_hat, np.array([0.1, 0.1, 0.0, 0.1, 0.1]), jac)

    def test_a_float_variance_is_its_per_lane_row(self, rng):
        jac = rng.standard_normal((5, 2, 12))
        u, u_hat = rng.standard_normal((5, 2)), rng.standard_normal((5, 2))
        for sigma2 in (0.1, 0.001, 2.0 / 3.0):
            np.testing.assert_array_equal(grad_log_policy(u, u_hat, sigma2, jac),
                                          grad_log_policy(u, u_hat, np.full(5, sigma2), jac))


class TestGradientAndUpdate:
    def test_update_arithmetic(self):
        theta = update_params(np.zeros(4), np.ones(4), 0.05)
        np.testing.assert_allclose(theta, -0.05 * np.ones(4))
        np.testing.assert_array_equal(update_params(theta, np.zeros(4), 0.05), theta)

    def test_update_rejects_nonfinite(self):
        with pytest.raises(DivergenceError):
            update_params(np.zeros(2), np.array([1.0, np.nan]), 0.05)
        with pytest.raises(DimensionError):
            update_params(np.zeros(2), np.zeros(3), 0.05)

    def test_baseline_kinds(self, inspan1):
        """Every runner rejects a baseline kind outside ``BASELINES``."""
        cfg, kwargs = PolicyConfig(sigma2=0.01, dt=0.05), dict(horizon=3, baseline_kind="bogus")
        for call in (lambda: run_episode(*_parts(inspan1), cfg, x0=inspan1.x0, **kwargs),
                     lambda: run_episodes(inspan1, cfg, seeds=(0, 1), **kwargs),
                     lambda: run_ensemble(inspan1, [(cfg, 0, inspan1.theta0)], n_trials=2,
                                          **kwargs)):
            with pytest.raises(ValueError, match="bogus"):
                call()


class TestRunEpisode:
    def test_bitwise_replay(self, inspan1):
        cfg = PolicyConfig(sigma2=0.05, dt=0.05)
        kwargs = dict(baseline_kind="mean_of_past", horizon=60, seed=12,
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
        acl = inspan1.ref_model.A + inspan1.ref_model.B @ inspan1.gains
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
                          baseline_kind="mean_of_past", horizon=400, seed=42,
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

    @pytest.mark.parametrize("x0", [np.zeros(3), np.zeros((2, 2))], ids=["length3", "2x2"])
    def test_wrong_x0_shape_raises_dimension_error(self, inspan1, x0):
        # a (2, 2) x0 would broadcast silently over two lanes
        cfg = PolicyConfig(sigma2=0.01, dt=0.05)
        with pytest.raises(DimensionError, match="x0"):
            run_episode(*_parts(inspan1), cfg, horizon=5, seed=0, x0=x0)
        with pytest.raises(DimensionError, match="x0"):
            run_episodes(dataclasses.replace(inspan1, x0=x0), cfg, horizon=5, seeds=(0, 1))

    @pytest.mark.parametrize("runner,kwargs,name", [
        ("episodes", dict(seeds=(1, 2), learn=(True, False, True)), "learn"),
        ("episodes", dict(seeds=(1, 2), learn=[[True], [False]]), "learn"),
        ("episodes", dict(seeds=()), "seeds"),
        ("episodes", dict(seeds=(1,), horizon=-1), "horizon"),
        ("episodes", dict(seeds=(1,), horizon=-1, sigma2=0.0), "horizon"),
        ("ensemble", dict(n_trials=0), "n_trials"),
        ("ensemble", dict(n_trials=2, horizon=-1, sigma2=0.0), "horizon"),
        ("ensemble", dict(n_trials=2, record_from=6), "record_from"),
        ("ensemble", dict(n_trials=2, record_from=-1), "record_from"),
        ("ensemble", dict(n_trials=2, cells=[]), "cells")],
        ids=["learn-length3", "learn-2x1", "no-seeds", "negative-horizon",
             "noise-free-negative-horizon", "no-trials", "ensemble-negative-horizon",
             "record-from-past-the-horizon", "negative-record-from", "no-cells"])
    def test_malformed_lanes_raise_dimension_error(self, inspan1, runner, kwargs, name):
        # each would leak a NumPy broadcasting, stacking, unpacking or indexing error
        kwargs = {"horizon": 5, **kwargs}
        cfg = PolicyConfig(sigma2=kwargs.pop("sigma2", 0.01), dt=0.05)
        with pytest.raises(DimensionError, match=name):
            if runner == "episodes":
                run_episodes(inspan1, cfg, **kwargs)
            else:
                run_ensemble(inspan1, kwargs.pop("cells", [(cfg, 0, inspan1.theta0)]), **kwargs)

    @pytest.mark.parametrize("runner", ["episode", "ensemble"])
    @pytest.mark.parametrize("substeps", [0, -1, 2.5])
    def test_substeps_must_be_an_integer_of_at_least_one(self, inspan1, runner, substeps):
        # -1 once ran to the end with a plant that never moved; 0 divided by zero
        cfg, kwargs = PolicyConfig(sigma2=0.01, dt=0.05), dict(horizon=5, substeps=substeps)
        with pytest.raises(ValueError, match="substeps"):
            if runner == "episode":
                run_episode(*_parts(inspan1), cfg, seed=0, x0=inspan1.x0, **kwargs)
            else:
                run_ensemble(inspan1, [(cfg, 0, inspan1.theta0)], n_trials=2, **kwargs)

    def test_applied_input_is_the_learned_law_plus_noise(self, inspan1):
        # the headline operating point: dt = 0.05 s, sigma^2 = 0.1
        cfg = PolicyConfig(sigma2=0.1, dt=0.05)
        rec = run_episode(inspan1.plant, inspan1.nominal, inspan1.bases,
                          inspan1.theta_star + 0.2, inspan1.reference, inspan1.ref_model,
                          inspan1.gains, cfg, horizon=30, seed=1, x0=inspan1.x0, substeps=2)
        assert rec.steps == 30 and rec.w.shape == (30, 1)
        for k in range(rec.steps):
            v = (sample_reference(inspan1.reference, (2,), rec.t[k]).y_dgamma
                 + inspan1.gains @ rec.e[k])
            u_hat = eval_learned_controller(inspan1.bases, rec.theta[k], inspan1.nominal,
                                            rec.x[k], v)
            np.testing.assert_array_equal(rec.u[k], u_hat + rec.w[k])

    @pytest.mark.parametrize("kind", BASELINES)
    def test_update_is_the_baselined_score_step(self, inspan1, kind):
        cfg = PolicyConfig(sigma2=0.05, dt=0.05)
        bases, nominal = inspan1.bases, inspan1.nominal
        rec = run_episode(inspan1.plant, nominal, bases, inspan1.theta_star + 0.2,
                          inspan1.reference, inspan1.ref_model, inspan1.gains, cfg,
                          baseline_kind=kind, horizon=20, seed=3, x0=inspan1.x0,
                          substeps=2)
        assert rec.steps == 20
        for k in range(rec.steps):
            past = sum(rec.rewards[:k].tolist())  # summed from the left, as the loop adds
            want = {"none": 0.0, "mean_of_past": past / k if k else 0.0}[kind]
            assert rec.baselines[k] == want
            assert rec.rewards[k] == discrete_reward(rec.e[k], rec.e[k + 1], inspan1.ref_model,
                                                     inspan1.gains, cfg.dt)
            v = (sample_reference(inspan1.reference, (2,), rec.t[k]).y_dgamma
                 + inspan1.gains @ rec.e[k])
            u_hat = eval_learned_controller(bases, rec.theta[k], nominal, rec.x[k], v)
            score = grad_log_policy(rec.u[k], u_hat, cfg.sigma2,
                                    controller_jacobian(bases, rec.x[k], v))
            want = update_params(rec.theta[k], (rec.rewards[k] - rec.baselines[k]) * score, cfg.dt)
            np.testing.assert_array_equal(rec.theta[k + 1], want)

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
    def test_matches_sequential_episodes(self, inspan_mc, inspan1, pendulum, pendulum_nominal,
                                         ref22, gains22, two_tone2):
        """A lane is its sequential run, bit for bit, at q = 2 and at q = 1."""
        for sc, cfg in ((inspan_mc, PolicyConfig(sigma2=0.001, dt=0.01)),
                        (inspan1, PolicyConfig(sigma2=0.01, dt=0.05))):
            kwargs = dict(baseline_kind="none", horizon=60, substeps=4)
            ens = run_ensemble(sc, [(cfg, 2, sc.theta0)], n_trials=5, seed=21, **kwargs)
            for trial in (0, 3):
                (rec,) = run_episodes(sc, cfg, seeds=(derive_seed(21, 2, trial),), **kwargs)
                np.testing.assert_array_equal(ens.e[trial], rec.e)
                np.testing.assert_array_equal(ens.phi[trial], rec.phi)

        bases = build_rbf_grid([(-1.2, 1.2)] * 2 + [(-1.5, 1.5)] * 2, (5, 5, 2, 2),
                               0.5, io_dim=2, beta_scale=0.1, alpha_scale=0.1)
        sc = Scenario(plant=pendulum, nominal=pendulum_nominal, bases=bases, reference=two_tone2,
                      ref_model=ref22, gains=gains22, theta0=np.zeros(bases.size),
                      theta_star=np.zeros(bases.size),
                      x0=sample_reference(two_tone2, (2, 2), 0.0).xi_d[[0, 2, 1, 3]])
        cfg, kwargs = PolicyConfig(sigma2=0.1, dt=0.05), dict(horizon=40, substeps=5)
        ens = run_ensemble(sc, [(cfg, 1, sc.theta0)], n_trials=3, baseline_kind="mean_of_past",
                           seed=8, **kwargs)
        (rec,) = run_episodes(sc, cfg, baseline_kind="mean_of_past",
                              seeds=(derive_seed(8, 1, 2),), **kwargs)
        assert not rec.diverged
        np.testing.assert_array_equal(ens.e[2], rec.e)
        np.testing.assert_array_equal(ens.phi[2], rec.phi)

    def test_divergence_steps_match_sequential_episodes(self):
        # an in-span scenario whose learning blows up within a few steps
        config = load_config(CONFIG_DIR / "inspan_mc.yaml",
                             overrides=["sigma2=0.1", "dt=0.05", "basis.beta_scale=1.0",
                                        "basis.alpha_scale=1.0"])
        sc = build_scenario(config)
        cfg = policy_config(config)
        kwargs = dict(horizon=400, baseline_kind="none", substeps=4)
        ens = run_ensemble(sc, [(cfg, 0, sc.theta0)], n_trials=4, seed=11, **kwargs)
        assert ens.diverged.all()
        for b in range(4):
            (rec,) = run_episodes(sc, cfg, seeds=(derive_seed(11, 0, b),), **kwargs)
            assert rec.diverged_step == ens.diverged_step[b]
            np.testing.assert_array_equal(ens.e[b, :rec.steps + 1], rec.e)

    def test_stops_integrating_once_every_lane_has_failed(self):
        # the scenario above: all 4 lanes fail within a few of the 400 steps
        config = load_config(CONFIG_DIR / "inspan_mc.yaml",
                             overrides=["sigma2=0.1", "dt=0.05", "basis.beta_scale=1.0",
                                        "basis.alpha_scale=1.0"])
        sc = build_scenario(config)
        calls = []

        def counting(x, u):
            calls.append(None)
            return sc.plant.rate(x, u)

        counted = dataclasses.replace(sc, plant=dataclasses.replace(sc.plant, rate=counting))
        ens = run_ensemble(counted, [(policy_config(config), 0, sc.theta0)], n_trials=4,
                           horizon=400, baseline_kind="none", seed=11, substeps=4)
        last = int(ens.diverged_step.max())
        assert ens.diverged.all() and last < 50
        assert 0 < len(calls) <= (last + 1) * 4 * 4  # substeps x RK4 stages per step
        # the frozen lanes fill the rest of the record
        np.testing.assert_array_equal(ens.e[:, last + 1:],
                                      np.broadcast_to(ens.e[:, last + 1:last + 2],
                                                      ens.e[:, last + 1:].shape))

    def test_singular_decoupling_fails_each_lane_on_its_own(self, inspan1):
        # a nominal whose learned gain cancels to zero: singular at every state
        singular = make_inspan_plant((2,), polynomial_basis(2, 0, io_dim=1),
                                     np.array([0.0, -1.0]))
        sc, cfg = dataclasses.replace(inspan1, nominal=singular), PolicyConfig(sigma2=0.01, dt=0.05)
        (rec,) = run_episodes(sc, cfg, horizon=5, seeds=(0,), substeps=2)
        assert rec.diverged and rec.diverged_step == 0 and rec.steps == 0
        for n_trials in (1, 2):
            ens = run_ensemble(sc, [(cfg, 0, sc.theta0)], n_trials=n_trials, horizon=5,
                               substeps=2)
            assert ens.diverged_step.tolist() == [0] * n_trials
            np.testing.assert_array_equal(ens.e[:, 1:], np.broadcast_to(ens.e[:, :1],
                                                                       (n_trials, 5, 2)))

    def test_a_singular_error_naming_no_lanes_propagates(self, inspan1, monkeypatch):
        # only an error that names its singular lanes fails them; any other leaves the runner
        def singular(*args, **kwargs):
            raise SingularMatrixError("decoupling matrix is singular")

        monkeypatch.setattr("fblearn.learning.eval_learned_controller", singular)
        with pytest.raises(SingularMatrixError, match="decoupling matrix is singular") as err:
            run_episodes(inspan1, PolicyConfig(sigma2=0.01, dt=0.05), horizon=3, seeds=(0, 1),
                         substeps=1)
        assert err.value.lanes is None

    def test_diverging_lanes_are_flagged_and_frozen(self, pendulum, pendulum_nominal,
                                                    ref22, gains22, two_tone2):
        bases = build_rbf_grid([(-1.2, 1.2)] * 2 + [(-1.5, 1.5)] * 2, (5, 5, 2, 2),
                               1.0, io_dim=2)
        sc = Scenario(plant=pendulum, nominal=pendulum_nominal, bases=bases, reference=two_tone2,
                      ref_model=ref22, gains=gains22, theta0=np.zeros(bases.size),
                      theta_star=None,
                      x0=sample_reference(two_tone2, (2, 2), 0.0).xi_d[[0, 2, 1, 3]])
        ens = run_ensemble(sc, [(PolicyConfig(sigma2=0.1, dt=0.05), 0, sc.theta0)], n_trials=4,
                           horizon=120, baseline_kind="mean_of_past", seed=42, substeps=5)
        assert ens.diverged.any()
        assert np.all(np.isfinite(ens.e))
        dead = np.where(ens.diverged)[0][0]
        k = ens.diverged_step[dead]
        assert k >= 0
        # frozen after death: the error stops moving
        np.testing.assert_array_equal(ens.e[dead, k + 1], ens.e[dead, k])


def _assert_matches(record, want):
    """``record`` is the oracle's sequential episode, every field bit for bit."""
    for name in ("t", "x", "xi", "e", "theta", "u", "w", "rewards", "baselines"):
        got = getattr(record, name)
        assert got.shape == want[name].shape, name
        np.testing.assert_array_equal(got, want[name], err_msg=name)
    if want["phi"] is None:
        assert record.phi is None
    else:
        np.testing.assert_array_equal(record.phi, want["phi"])
    assert record.diverged_step == want["diverged_step"]
    assert record.diverged is (want["diverged_step"] is not None)


class TestPairedEpisodes:
    @pytest.mark.parametrize("name", ["pendulum", "inspan_mc", "inspan1"])
    def test_lanes_are_their_sequential_runs(self, name, pendulum_scenario, inspan_mc, inspan1):
        """Twins on one seed plus a third seed, each equal to the plain loop (q = 2 and 1)."""
        if name == "pendulum":
            sc, cfg, horizon, substeps = pendulum_scenario, PolicyConfig(0.1, 0.05), 40, 10
        elif name == "inspan_mc":
            sc, cfg, horizon, substeps = inspan_mc, PolicyConfig(0.001, 0.01), 60, 4
        else:
            sc, cfg, horizon, substeps = inspan1, PolicyConfig(0.01, 0.05), 60, 4
        kwargs = dict(baseline_kind="mean_of_past", horizon=horizon, substeps=substeps)
        lanes = ((5, True), (5, False), (9, True))
        records = run_episodes(sc, cfg, seeds=[seed for seed, _ in lanes],
                               learn=[learn for _, learn in lanes], **kwargs)
        for record, (seed, learn) in zip(records, lanes):
            want = sequential_episode(sc, cfg, seed=seed, learn=learn, **kwargs)
            assert want["diverged_step"] is None
            _assert_matches(record, want)
            assert record.seed == seed
        _assert_matches(run_episode(*_parts(sc), cfg, seed=9, x0=sc.x0,
                                    theta_star=sc.theta_star, **kwargs),
                        sequential_episode(sc, cfg, seed=9, **kwargs))
        # the frozen twin keeps theta0 at every node; its learning twin moves
        learning, frozen = records[:2]
        np.testing.assert_array_equal(frozen.theta,
                                      np.broadcast_to(sc.theta0, frozen.theta.shape))
        assert np.any(learning.theta[-1] != sc.theta0)
        np.testing.assert_array_equal(learning.w, frozen.w)

    def test_a_diverging_twin_truncates_only_its_own_record(self):
        # learning blows up within a few steps; its frozen twin runs on
        config = load_config(CONFIG_DIR / "inspan_mc.yaml",
                             overrides=["sigma2=0.1", "dt=0.05", "basis.beta_scale=1.0",
                                        "basis.alpha_scale=1.0"])
        sc = build_scenario(config)
        cfg, kwargs = policy_config(config), dict(horizon=60, substeps=4)
        learning, frozen = run_episodes(sc, cfg, seeds=(3, 3), learn=(True, False), **kwargs)
        assert learning.diverged and 0 < learning.steps < 60
        assert not frozen.diverged and frozen.steps == 60
        _assert_matches(learning, sequential_episode(sc, cfg, seed=3, learn=True, **kwargs))
        _assert_matches(frozen, sequential_episode(sc, cfg, seed=3, learn=False, **kwargs))

    def test_a_lane_singular_in_part_of_the_state_space_fails_alone(self):
        # the nominal's gain vanishes once the first output passes 1.0, which
        # the reference (peak 0.965) leaves to the noise: seed 2 gets there
        # within 60 steps, seed 0 does not
        chain = make_chain_plant((2, 2))

        def linearizing(x):
            beta, alpha = chain.linearizing(x)
            return beta, alpha * (x[..., 0] < 1.0)[..., None, None]

        nominal = dataclasses.replace(chain, linearizing=linearizing, name="vanishing")
        ref_model = build_reference_model((2, 2))
        reference = two_tone_reference(2)
        bases = polynomial_basis(4, 1, io_dim=2, beta_scale=0.1, alpha_scale=0.1)
        sc = Scenario(plant=chain, nominal=nominal, bases=bases, reference=reference,
                      ref_model=ref_model, gains=design_gain(ref_model, -1.5),
                      theta0=np.zeros(bases.size), theta_star=None,
                      x0=sample_reference(reference, (2, 2), 0.0).xi_d)
        cfg, kwargs = PolicyConfig(sigma2=0.5, dt=0.05), dict(horizon=60, substeps=2)
        clean, singular = run_episodes(sc, cfg, seeds=(0, 2), **kwargs)
        assert not clean.diverged and clean.steps == 60
        assert singular.diverged and 0 < singular.steps < 60
        assert singular.x[-1, 0] >= 1.0
        _assert_matches(clean, sequential_episode(sc, cfg, seed=0, **kwargs))
        _assert_matches(singular, sequential_episode(sc, cfg, seed=2, **kwargs))

    def test_a_lane_in_the_singular_region_of_a_q1_inspan_plant_fails_alone(self):
        # the in-span plant's gain alpha_p = 1 - [y >= 1] vanishes once the
        # output passes 1.0, which the reference (peak 0.96) leaves to the
        # noise: of seeds 1, 2 and 3 only seed 2 gets there within 60 steps
        nominal = make_chain_plant((2,))
        step = BasisSet(state_dim=2, io_dim=1, n_scalar=3,
                        feature_fn=lambda x: np.stack(
                            [np.ones(x.shape[:-1]), 1.0 * (x[..., 0] >= 1.0), x[..., 1]], -1))
        singular_lanes = []

        def rate(x, u):
            try:
                return inspan.rate(x, u)
            except SingularMatrixError as exc:
                singular_lanes.append(exc.lanes.tolist())
                raise

        inspan = make_inspan_plant((2,), step, np.array([0.0, 0.0, 0.0, 0.0, -1.0, 0.0]))
        plant = dataclasses.replace(inspan, rate=rate)
        ref_model = build_reference_model((2,))
        reference = two_tone_reference(1)
        bases = polynomial_basis(2, 1, io_dim=1)
        sc = Scenario(plant=plant, nominal=nominal, bases=bases, reference=reference,
                      ref_model=ref_model, gains=design_gain(ref_model, -1.5),
                      theta0=np.zeros(bases.size), theta_star=None,
                      x0=sample_reference(reference, (2,), 0.0).xi_d)
        cfg, kwargs = PolicyConfig(sigma2=1.0, dt=0.05), dict(horizon=60, substeps=2)
        records = run_episodes(sc, cfg, seeds=(1, 2, 3), **kwargs)
        assert [r.diverged for r in records] == [False, True, False]
        assert [r.steps for r in records[::2]] == [60, 60]
        assert 0 < records[1].steps < 60 and records[1].x[-1, 0] < 1.0
        # the plant's mask named the one lane, and the others ran on alone
        assert singular_lanes == [[False, True, False]]
        for record, seed in zip(records, (1, 2, 3)):
            (alone,) = run_episodes(sc, cfg, seeds=(seed,), **kwargs)
            assert alone.diverged_step == record.diverged_step
            np.testing.assert_array_equal(record.x, alone.x)


class TestOneFormPerLaneInput:
    """The kernel takes a float variance as the row of it that it makes for every lane."""

    def _kernel(self, sc, cfg, noise, sigma2, baseline_kind, keep):
        return _lockstep(sc, sc.theta0, sc.x0, 0.0, cfg.dt, sigma2, baseline_kind, noise, True,
                         "policy_gradient", 2, keep)

    def test_run_episodes_is_the_kernel_with_a_float_or_a_row(self, inspan1):
        sc, cfg, seeds = inspan1, PolicyConfig(sigma2=0.01, dt=0.05), (3, 4, 3)
        records = run_episodes(sc, cfg, horizon=30, seeds=seeds, substeps=2)
        noise = np.stack([draw_noise_series(cfg, sc.plant.q, s, 30) for s in seeds])
        for sigma2 in (cfg.sigma2, np.full(len(seeds), cfg.sigma2)):
            rec, failed = self._kernel(sc, cfg, noise, sigma2, "none", ("x", "theta", "reward"))
            assert failed.tolist() == [-1] * len(seeds)
            for b, record in enumerate(records):
                np.testing.assert_array_equal(rec["x"][b], record.x)
                np.testing.assert_array_equal(rec["theta"][b], record.theta)
                np.testing.assert_array_equal(rec["reward"][b], record.rewards)

    def test_run_ensemble_is_the_kernel_with_a_float_or_a_row(self, inspan_mc):
        sc, cfg, n_trials = inspan_mc, PolicyConfig(sigma2=0.001, dt=0.01), 3
        ens = run_ensemble(sc, [(cfg, 2, sc.theta0)], n_trials=n_trials, horizon=40,
                           baseline_kind="mean_of_past", seed=5, substeps=2)
        noise = np.stack([draw_noise_series(cfg, sc.plant.q, derive_seed(5, 2, b), 40)
                          for b in range(n_trials)])
        for sigma2 in (cfg.sigma2, np.full(n_trials, cfg.sigma2)):
            rec, failed = self._kernel(sc, cfg, noise, sigma2, "mean_of_past", ("e", "theta"))
            np.testing.assert_array_equal(failed, ens.diverged_step)
            np.testing.assert_array_equal(rec["e"], ens.e)
            np.testing.assert_array_equal(rec["theta"] - sc.theta_star, ens.phi)



class TestRunEpisodeAdapter:
    """``run_episode(*parts, cfg, ...)`` is ``run_episodes`` of the ``Scenario`` they make."""

    @staticmethod
    def _assert_same(record, want):
        for f in dataclasses.fields(AdaptRunRecord):
            got, expected = getattr(record, f.name), getattr(want, f.name)
            if isinstance(expected, np.ndarray):
                assert got.shape == expected.shape, f.name
                np.testing.assert_array_equal(_as_bits(got), _as_bits(expected), f.name)
            else:
                assert got == expected, f.name

    def test_the_defaults_x0_and_theta_star_none(self, inspan1):
        cfg = PolicyConfig(sigma2=0.01, dt=0.05)
        rec = run_episode(*_parts(inspan1), cfg, horizon=30, seed=4, substeps=2)
        bare = dataclasses.replace(inspan1, x0=None, theta_star=None)
        (want,) = run_episodes(bare, cfg, horizon=30, seeds=(4,), substeps=2)
        assert rec.phi is None and not rec.x[0].any() and rec.steps == 30
        self._assert_same(rec, want)

    def test_the_ideal_update_as_the_disturbance_inputs_call_it(self, inspan_mc):
        # every argument by keyword after cfg, as perfbench/child.py passes them
        sc, cfg = inspan_mc, PolicyConfig(sigma2=0.0, dt=0.04)
        rec = run_episode(*_parts(sc), cfg, horizon=50, seed=3, x0=sc.x0, learn=True,
                          theta_star=sc.theta_star, update_rule="ideal", substeps=4)
        (want,) = run_episodes(sc, cfg, horizon=50, seeds=(3,), learn=True,
                               update_rule="ideal", substeps=4)
        assert np.any(rec.theta[-1] != rec.theta[0]) and rec.phi is not None
        self._assert_same(rec, want)

    def test_positional_arguments_and_a_diverging_run(self):
        config = load_config(CONFIG_DIR / "inspan_mc.yaml",
                             overrides=["sigma2=0.1", "dt=0.05", "basis.beta_scale=1.0",
                                        "basis.alpha_scale=1.0"])
        sc, cfg = build_scenario(config), policy_config(config)
        rec = run_episode(*_parts(sc), cfg, "mean_of_past", 60, 3, sc.x0, True, sc.theta_star)
        (want,) = run_episodes(sc, cfg, "mean_of_past", 60, (3,))
        assert rec.diverged and 0 < rec.steps < 60
        self._assert_same(rec, want)

def _cell_scenario(kind: str, q: int) -> Scenario:
    """A q-channel double-integrator chain, or the in-span plant on it, with short bases."""
    gamma = (2,) * q
    chain = make_chain_plant(gamma)
    bases = polynomial_basis(2 * q, 1, io_dim=q, beta_scale=0.1, alpha_scale=0.1)
    rng = np.random.default_rng(7)
    theta_star = (np.zeros(bases.size) if kind == "chain"
                  else 0.1 * rng.standard_normal(bases.size))
    plant = chain if kind == "chain" else make_inspan_plant(gamma, bases, theta_star)
    ref_model = build_reference_model(gamma)
    reference = two_tone_reference(q)
    return Scenario(plant=plant, nominal=chain, bases=bases, reference=reference,
                    ref_model=ref_model, gains=design_gain(ref_model, -1.5),
                    theta0=theta_star + 0.3 * rng.standard_normal(bases.size),
                    theta_star=theta_star, x0=sample_reference(reference, gamma, 0.0).xi_d)


def _assert_blocks_are_solo_runs(sc: Scenario, ens, cells, n_trials: int, **kwargs):
    """Each block of ``ens`` is its cell's own full-horizon run from ``ens.record_from`` on."""
    assert ens.e.shape[1] == ens.phi.shape[1] == kwargs["horizon"] + 1 - ens.record_from
    for c, cell in enumerate(cells):
        solo = run_ensemble(sc, [cell], n_trials, **kwargs)
        assert solo.record_from == 0
        block = slice(c * n_trials, (c + 1) * n_trials)
        np.testing.assert_array_equal(ens.e[block], solo.e[:, ens.record_from:])
        np.testing.assert_array_equal(ens.phi[block], solo.phi[:, ens.record_from:])
        np.testing.assert_array_equal(ens.diverged_step[block], solo.diverged_step)


class TestCellBlocks:
    """Cells that share a dt run as lane blocks of one ensemble."""

    @pytest.mark.parametrize("kind,q", [("chain", 1), ("chain", 2), ("inspan", 1),
                                        ("inspan", 2)])
    @settings(max_examples=12)
    @given(data=st.data())
    def test_each_block_is_its_cells_own_run(self, kind, q, data):
        sc = _cell_scenario(kind, q)
        n_trials = data.draw(st.integers(1, 3), label="n_trials")
        cells = [(PolicyConfig(sigma2=data.draw(st.sampled_from((0.0005, 0.01, 0.2))),
                               dt=0.05),
                  data.draw(st.integers(0, 2 ** 16)),
                  data.draw(st.sampled_from((sc.theta0, sc.theta_star))))
                 for _ in range(data.draw(st.integers(2, 3), label="n_cells"))]
        kwargs = dict(horizon=data.draw(st.integers(1, 12), label="horizon"),
                      baseline_kind=data.draw(st.sampled_from(BASELINES)),
                      seed=data.draw(st.integers(0, 2 ** 32)), substeps=2)
        record_from = data.draw(st.integers(0, kwargs["horizon"]), label="record_from")
        ens = run_ensemble(sc, cells, n_trials, record_from=record_from, **kwargs)
        assert ens.n_trials == len(cells) * n_trials and ens.record_from == record_from
        _assert_blocks_are_solo_runs(sc, ens, cells, n_trials, **kwargs)

    def test_a_cell_failing_at_step_0_stops_advancing_and_leaves_the_others(self, inspan_mc):
        sc, substeps, horizon = inspan_mc, 2, 20
        # the middle cell's noise throws every trial past STATE_BOUND at once
        cells = [(PolicyConfig(sigma2=0.001, dt=0.01), 0, sc.theta0),
                 (PolicyConfig(sigma2=1e40, dt=0.01), 1, sc.theta0),
                 (PolicyConfig(sigma2=0.0005, dt=0.01), 2, sc.theta_star)]
        kwargs = dict(horizon=horizon, baseline_kind="none", seed=5, substeps=substeps)
        # recorded from the start, and only from a node long after the failure
        for record_from in (0, 15):
            lanes_per_call = []

            def counting(x, u):
                lanes_per_call.append(len(x))
                return sc.plant.rate(x, u)

            counted = dataclasses.replace(sc, plant=dataclasses.replace(sc.plant, rate=counting))
            ens = run_ensemble(counted, cells, 3, record_from=record_from, **kwargs)
            assert ens.diverged_step.tolist() == [-1] * 3 + [0] * 3 + [-1] * 3
            # from step 1 on, only the six live lanes are integrated
            later = (horizon - 1) * substeps * 4
            assert len(lanes_per_call) > later
            assert set(lanes_per_call[-later:]) == {6}
            _assert_blocks_are_solo_runs(sc, ens, cells, 3, **kwargs)

    def test_cells_must_share_dt(self, inspan1):
        cells = [(PolicyConfig(sigma2=0.01, dt=0.05), 0, inspan1.theta0),
                 (PolicyConfig(sigma2=0.01, dt=0.1), 1, inspan1.theta0)]
        with pytest.raises(ValueError, match="share dt"):
            run_ensemble(inspan1, cells, 2, horizon=3)


class TestFailurePath:
    """A failed lane leaves the live index: it keeps its last node and is never advanced."""

    @pytest.mark.parametrize("kind,q", [("chain", 1), ("chain", 2), ("inspan", 1),
                                        ("inspan", 2)])
    @settings(max_examples=60)
    @given(data=st.data())
    def test_a_failed_lane_keeps_its_node_and_leaves_the_others(self, kind, q, data):
        sc, substeps = _cell_scenario(kind, q), 2
        n_lanes = data.draw(st.integers(1, 4), label="n_lanes")
        horizon = data.draw(st.integers(1, 8), label="horizon")
        bad = data.draw(st.integers(0, n_lanes - 1), label="bad")
        k_bad = data.draw(st.integers(0, horizon - 1), label="k_bad")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32), label="seed"))
        noise = 0.1 * rng.standard_normal((n_lanes, horizon, q))
        noise[bad, k_bad, data.draw(st.integers(0, q - 1), label="channel")] = data.draw(
            st.sampled_from((np.nan, 1e15)), label="poison")
        learn = np.array(data.draw(st.lists(st.booleans(), min_size=n_lanes,
                                            max_size=n_lanes), label="learn"))
        baseline_kind = data.draw(st.sampled_from(BASELINES), label="baseline_kind")
        rows = []

        def counting(x, u):
            rows.append(len(x))
            return sc.plant.rate(x, u)

        def kernel(scenario, lanes):
            return _lockstep(scenario, sc.theta0, sc.x0, 0.0, 0.05, 0.01, baseline_kind,
                             noise[lanes], learn[lanes], "policy_gradient", substeps, _SERIES)

        counted = dataclasses.replace(sc, plant=dataclasses.replace(sc.plant, rate=counting))
        rec, failed = kernel(counted, slice(None))
        assert failed[bad] == k_bad
        others = np.delete(np.arange(n_lanes), bad)
        if others.size:
            alone, alone_failed = kernel(sc, others)
            np.testing.assert_array_equal(failed[others], alone_failed)
            for name in _SERIES:
                np.testing.assert_array_equal(rec[name][others], alone[name])
        # every node from the failed step on repeats the lane's node at that step
        for name in ("x", "xi", "e", "theta"):
            frozen = rec[name][bad, k_bad:]
            np.testing.assert_array_equal(frozen, np.broadcast_to(frozen[0], frozen.shape))
        assert not rec["u"][bad, k_bad:].any() and not rec["reward"][bad, k_bad:].any()
        # rate sees every lane until the failed step's first try, then only the
        # live ones (the in-span rate raises on a non-finite state mid-interval)
        per_step, n_full = 4 * substeps, rows.count(n_lanes)
        assert k_bad * per_step < n_full <= (k_bad + 1) * per_step
        assert rows == [n_lanes] * n_full + [n_lanes - 1] * (len(rows) - n_full)
        assert len(rows) - n_full >= (horizon - k_bad - 1) * per_step * (n_lanes > 1)
