import numpy as np
import pytest

from fblearn import PolicyConfig, run_episode
from fblearn.studies import (bias_study, concentration_study, mc_gradient_samples,
                             measure_disturbances, regressor_series)

from oracles import per_interval_disturbances


class TestMeasureDisturbances:
    def test_matches_the_per_interval_propagators(self, inspan1):
        signs = np.where(np.arange(inspan1.bases.size) % 2 == 0, 1.0, -1.0)
        theta0 = inspan1.theta_star + 0.5 * signs / np.linalg.norm(signs)
        rec = run_episode(inspan1.plant, inspan1.nominal, inspan1.bases, theta0,
                          inspan1.reference, inspan1.ref_model, inspan1.gains,
                          PolicyConfig(sigma2=0.0, dt=0.02), horizon=120, seed=0,
                          x0=inspan1.x0, learn=True, theta_star=inspan1.theta_star,
                          update_rule="ideal", substeps=8)
        d = measure_disturbances(rec, inspan1)
        delta = per_interval_disturbances(rec, inspan1)
        np.testing.assert_allclose(d.norms, np.linalg.norm(delta, axis=1), rtol=1e-10)
        n_e = inspan1.ref_model.total_degree
        scale = np.abs(delta).max()
        assert np.abs(d.delta_e - delta[:, :n_e]).max() <= 1e-10 * scale
        assert np.abs(d.delta_phi - delta[:, n_e:]).max() <= 1e-10 * scale

    def test_needs_parameter_errors(self, inspan1):
        cfg = PolicyConfig(sigma2=0.0, dt=0.05)
        rec = run_episode(inspan1.plant, inspan1.nominal, inspan1.bases,
                          inspan1.theta_star, inspan1.reference, inspan1.ref_model,
                          inspan1.gains, cfg, horizon=20, seed=0, x0=inspan1.x0,
                          learn=False, substeps=4)
        with pytest.raises(ValueError, match="theta_star"):
            measure_disturbances(rec, inspan1)

    def test_on_manifold_disturbance_is_hold_limited(self, inspan1):
        # with theta = theta* and no noise the only leftovers are the
        # O(dt^2) zero-order-hold terms
        cfg = PolicyConfig(sigma2=0.0, dt=0.02)
        rec = run_episode(inspan1.plant, inspan1.nominal, inspan1.bases,
                          inspan1.theta_star, inspan1.reference, inspan1.ref_model,
                          inspan1.gains, cfg, horizon=150, seed=0, x0=inspan1.x0,
                          learn=False, theta_star=inspan1.theta_star, substeps=8)
        d = measure_disturbances(rec, inspan1)
        assert d.norms.max() <= 1e-3

    def test_off_manifold_dominates_on_manifold(self, inspan1):
        cfg = PolicyConfig(sigma2=0.0, dt=0.02)
        kwargs = dict(horizon=150, seed=0, x0=inspan1.x0, learn=True,
                      theta_star=inspan1.theta_star, update_rule="ideal", substeps=8)
        on = run_episode(inspan1.plant, inspan1.nominal, inspan1.bases,
                         inspan1.theta_star, inspan1.reference, inspan1.ref_model,
                         inspan1.gains, cfg, **kwargs)
        off = run_episode(inspan1.plant, inspan1.nominal, inspan1.bases,
                          inspan1.theta_star + 0.5, inspan1.reference,
                          inspan1.ref_model, inspan1.gains, cfg, **kwargs)
        d_on = measure_disturbances(on, inspan1)
        d_off = measure_disturbances(off, inspan1)
        # both are O(dt^2); the parameter error roughly triples the haul
        assert d_off.norms.mean() > 2 * d_on.norms.mean()

    def test_regressor_series_shape(self, inspan1):
        cfg = PolicyConfig(sigma2=0.0, dt=0.05)
        rec = run_episode(inspan1.plant, inspan1.nominal, inspan1.bases,
                          inspan1.theta_star, inspan1.reference, inspan1.ref_model,
                          inspan1.gains, cfg, horizon=10, seed=0, x0=inspan1.x0,
                          learn=False, substeps=4)
        W = regressor_series(rec, inspan1)
        assert W.shape == (11, 1, inspan1.bases.size)


class TestGradientStudy:
    def test_mean_matches_ideal_gradient(self, inspan_mc):
        cfg = PolicyConfig(sigma2=0.001, dt=0.01)
        x_k = inspan_mc.x0 + np.array([0.1, -0.05, 0.08, 0.02])
        study = mc_gradient_samples(inspan_mc, inspan_mc.theta0, cfg, t_k=0.7, x_k=x_k,
                                    n_draws=50_000, seed=3, substeps=6)
        resid = np.linalg.norm(study.mean - study.target)
        # bias is O(dt); the slack constant comes from the acceptance study
        assert resid <= 3 * np.linalg.norm(study.stderr) + 0.1 * cfg.dt

    def test_score_mean_is_zero(self, inspan_mc):
        cfg = PolicyConfig(sigma2=0.001, dt=0.01)
        study = mc_gradient_samples(inspan_mc, inspan_mc.theta0, cfg, t_k=0.4,
                                    x_k=inspan_mc.x0, n_draws=50_000, seed=5, substeps=4)
        stderr = study.scores.std(axis=0, ddof=1) / np.sqrt(len(study.scores))
        keep = stderr > 0
        assert np.all(np.abs(study.scores.mean(axis=0)[keep]) <= 4 * stderr[keep])

    def test_rejects_unknown_truth(self, inspan_mc):
        import dataclasses
        anonymous = dataclasses.replace(inspan_mc, theta_star=None)
        with pytest.raises(ValueError):
            mc_gradient_samples(anonymous, inspan_mc.theta0,
                                PolicyConfig(sigma2=0.001, dt=0.01), 0.0,
                                inspan_mc.x0, 10, seed=0)

    def test_input_independent_baseline_adds_no_bias(self, inspan_mc):
        # a constant subtracted from the reward moves the mean by at most
        # the Monte Carlo noise, because the score itself has zero mean
        cfg = PolicyConfig(sigma2=0.001, dt=0.01)
        x_k = inspan_mc.x0 + np.array([0.1, -0.05, 0.08, 0.02])
        calib = mc_gradient_samples(inspan_mc, inspan_mc.theta0, cfg, t_k=0.7, x_k=x_k,
                                    n_draws=20_000, seed=11, substeps=4)
        s_const = float(calib.rewards.mean())
        raw = mc_gradient_samples(inspan_mc, inspan_mc.theta0, cfg, t_k=0.7, x_k=x_k,
                                  n_draws=60_000, seed=12, substeps=4)
        based = mc_gradient_samples(inspan_mc, inspan_mc.theta0, cfg, t_k=0.7, x_k=x_k,
                                    n_draws=60_000, seed=13, substeps=4,
                                    baseline_value=s_const)
        gap = np.abs(raw.mean - based.mean)
        stderr = np.sqrt(raw.stderr ** 2 + based.stderr ** 2)
        assert np.all(gap <= 3 * stderr + 1e-12)


class TestConcentrationStudy:
    def test_single_cell_report(self, inspan_mc):
        report = concentration_study(inspan_mc, PolicyConfig(sigma2=0.001, dt=0.01),
                                     trials=40, lambdas=(0.3, 0.1, 0.03),
                                     horizon_s=2.0, seed=9, substeps=4)
        assert len(report.cells) == 1
        assert report.dt_slope is None and report.sigma_ratios is None
        cell = report.cells[0]
        assert cell.diverged == 0
        # quantiles nondecreasing in confidence
        ordered = [cell.quantiles[lam] for lam in sorted(cell.quantiles, reverse=True)]
        assert all(a <= b + 1e-15 for a, b in zip(ordered, ordered[1:]))

    def test_sweep_produces_expected_cells(self, inspan_mc):
        report = concentration_study(inspan_mc, PolicyConfig(sigma2=0.001, dt=0.01),
                                     trials=20, lambdas=(0.3, 0.1),
                                     dt_list=(0.02, 0.01), sigma2_list=(0.001, 0.002),
                                     horizon_s=1.0, seed=9, substeps=4)
        specs = [(c.dt, c.sigma2) for c in report.cells]
        assert specs == [(0.02, 0.001), (0.01, 0.001), (0.01, 0.002)]
        assert report.dt_slope is not None
        assert report.lambda_slope is not None


class TestSampledVsIdeal:
    def test_gap_shrinks_linearly_with_dt(self, inspan1):
        # noise-free ideal-update loop against the continuous stacked flow
        from fblearn import interp_matrix_series, simulate_ideal
        signs = np.where(np.arange(inspan1.bases.size) % 2 == 0, 1.0, -1.0)
        theta0 = inspan1.theta_star + 0.5 * signs / np.linalg.norm(signs)
        gaps = []
        for dt in (0.05, 0.025):
            cfg = PolicyConfig(sigma2=0.0, dt=dt)
            rec = run_episode(inspan1.plant, inspan1.nominal, inspan1.bases, theta0,
                              inspan1.reference, inspan1.ref_model, inspan1.gains, cfg,
                              horizon=int(10 / dt), seed=0, x0=inspan1.x0, learn=True,
                              theta_star=inspan1.theta_star, update_rule="ideal",
                              substeps=8)
            w_of_t = interp_matrix_series(rec.t, regressor_series(rec, inspan1))
            X0 = np.concatenate([rec.e[0], rec.phi[0]])
            _, ideal = simulate_ideal(w_of_t, inspan1.ref_model, inspan1.gains, X0,
                                      10.0, dt / 4)
            sampled = np.concatenate([rec.e, rec.phi], axis=1)
            gaps.append(max(np.linalg.norm(sampled[k] - ideal[4 * k])
                            for k in range(rec.steps + 1)))
        ratio = gaps[1] / gaps[0]
        assert 0.35 <= ratio <= 0.65


class TestBiasStudy:
    def test_offsets_shrink_with_dt(self, inspan_mc):
        report = bias_study(inspan_mc, PolicyConfig(sigma2=0.001, dt=0.01), trials=40,
                            dt_list=(0.02, 0.01), horizon_s=3.0, seed=4, substeps=4)
        assert len(report.offsets) == 2
        assert report.offsets[1] < report.offsets[0]
        assert report.slope is not None
