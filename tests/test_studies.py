import dataclasses
import re

import numpy as np
import pytest

from fblearn import PolicyConfig, run_episode
from fblearn.errors import DimensionError, DivergenceError
from fblearn import learning, studies
from fblearn.learning import STATE_BOUND, derive_seed, run_ensemble
from fblearn.studies import (bias_study, concentration_study, mc_gradient_samples, mc_sweep,
                             measure_disturbances, regressor_series)

from oracles import full_record_steady_stats, one_interval_gradient, per_interval_disturbances


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


#: A call of a study with one bad input, keyed by the message that names it.
STUDY_CHECKS = {
    "record has no completed steps": lambda sc, cfg: measure_disturbances(run_episode(
        sc.plant, sc.nominal, sc.bases, sc.theta_star, sc.reference, sc.ref_model, sc.gains,
        cfg, horizon=0, learn=False, theta_star=sc.theta_star), sc),
    "bias study needs a scenario with a true parameter vector": lambda sc, cfg: bias_study(
        dataclasses.replace(sc, theta_star=None), cfg, 4, [0.05]),
    "bias study needs at least one dt": lambda sc, cfg: bias_study(sc, cfg, 4, []),
    "concentration study needs a scenario with a true parameter vector": lambda sc, cfg: mc_sweep(
        dataclasses.replace(sc, theta_star=None), cfg, 4, (0.1,)),
}


class TestInputChecks:
    @pytest.mark.parametrize("message", list(STUDY_CHECKS))
    def test_a_bad_input_is_named(self, inspan1, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            STUDY_CHECKS[message](inspan1, PolicyConfig(sigma2=0.0, dt=0.05))


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
        other = mc_gradient_samples(inspan_mc, inspan_mc.theta0, cfg, t_k=0.7, x_k=x_k,
                                    n_draws=60_000, seed=13, substeps=4)
        based = (other.rewards - s_const)[:, None] * other.scores
        gap = np.abs(raw.mean - based.mean(axis=0))
        stderr = np.sqrt(raw.stderr ** 2 + (based.std(axis=0, ddof=1) / np.sqrt(60_000)) ** 2)
        assert np.all(gap <= 3 * stderr + 1e-12)

    @pytest.mark.parametrize("scenario,theta_shift,t_k,dt,sigma2,substeps,seed", [
        ("inspan1", 0.3, 0.0, 0.1, 0.00025, 8, 4),
        ("inspan1", 0.3, 12.35, 0.025, 0.01, 3, 9),
        ("inspan_mc", 0.0, 0.7, 0.01, 0.001, 6, 3),
        ("inspan_mc", 0.0, 0.0, 0.1, 0.00025, 8, 4)],
        ids=["q1-t0", "q1-late", "q2-mid", "q2-t0"])
    def test_equals_the_one_interval_oracle_bit_for_bit(self, request, scenario, theta_shift,
                                                         t_k, dt, sigma2, substeps, seed):
        sc = request.getfixturevalue(scenario)
        theta = (sc.theta0 if scenario == "inspan_mc" else sc.theta_star) + theta_shift
        x_k = sc.x0 + np.linspace(0.1, -0.08, sc.plant.n)
        cfg = PolicyConfig(sigma2=sigma2, dt=dt)
        study = mc_gradient_samples(sc, theta, cfg, t_k=t_k, x_k=x_k, n_draws=2000,
                                    seed=seed, substeps=substeps)
        want = one_interval_gradient(sc, theta, cfg, t_k, x_k, 2000, seed, substeps)
        for got, expected in zip((study.estimates, study.scores, study.rewards, study.target),
                                 want):
            np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("n_draws", [0, 1])
    def test_fewer_than_two_draws_raise_dimension_error(self, inspan_mc, n_draws):
        # 0 draws once warned "Mean of empty slice", 1 "Degrees of freedom <= 0"
        with pytest.raises(DimensionError, match="n_draws"):
            mc_gradient_samples(inspan_mc, inspan_mc.theta0,
                                PolicyConfig(sigma2=0.001, dt=0.01), 0.0, inspan_mc.x0,
                                n_draws, seed=0)

    def test_a_failed_draw_raises_divergence_error(self, inspan_mc):
        # the frozen state already lies past the kernel's state bound
        x_k = inspan_mc.x0 + 2 * STATE_BOUND
        with pytest.raises(DivergenceError, match="of 10 gradient draws"):
            mc_gradient_samples(inspan_mc, inspan_mc.theta0,
                                PolicyConfig(sigma2=0.001, dt=0.01), 0.0, x_k, 10, seed=0)


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


class TestSweep:
    def test_the_sweep_is_the_two_studies(self, inspan_mc):
        # the bias cells share an ensemble with the concentration cells of their dt
        base = PolicyConfig(sigma2=0.001, dt=0.02)
        kwargs = dict(horizon_s=0.6, seed=3, substeps=2)
        report, bias = mc_sweep(inspan_mc, base, 12, (0.3, 0.1), dt_list=(0.04, 0.02),
                                sigma2_list=(0.0005, 0.001), bias_dts=(0.04, 0.02), **kwargs)
        assert report == concentration_study(inspan_mc, base, 12, (0.3, 0.1),
                                             dt_list=(0.04, 0.02),
                                             sigma2_list=(0.0005, 0.001), **kwargs)
        assert bias == bias_study(inspan_mc, base, 12, (0.04, 0.02), **kwargs)
        assert mc_sweep(inspan_mc, base, 12, (0.3,), **kwargs)[1] is None

    def test_steady_window_statistics_are_the_whole_window_formulas(self, inspan_mc):
        # the block-wise reductions equal the one-shot formulas bit for bit
        base = PolicyConfig(sigma2=0.001, dt=0.01)
        report = concentration_study(inspan_mc, base, 30, (0.3, 0.1), horizon_s=1.2, seed=8,
                                     substeps=2)
        (cell,) = report.cells
        ens = run_ensemble(inspan_mc, [(base, 0, inspan_mc.theta0)], n_trials=30, horizon=120,
                           baseline_kind="none", seed=8, substeps=2)
        X = np.concatenate([ens.e[:, 30:], ens.phi[:, 30:]], axis=2)
        deviations = np.linalg.norm(X - X.mean(axis=0, keepdims=True), axis=2)
        for lam in (0.3, 0.1, 0.05):
            assert cell.quantiles[lam] == float(np.mean(np.quantile(deviations, 1.0 - lam,
                                                                    axis=0)))
        assert cell.mean_offset == float(np.mean(np.linalg.norm(X.mean(axis=0), axis=1)))

    def test_windowed_records_give_the_full_record_statistics(self, inspan_mc, monkeypatch):
        base = PolicyConfig(sigma2=0.001, dt=0.02)
        seed, trials, horizon_s = 6, 7, 0.6
        dt_list, sigma2_list, bias_dts = (0.04, 0.02), (0.0005, 0.001), (0.04, 0.02, 0.01)
        conc = list(dict.fromkeys([(dt, base.sigma2) for dt in dt_list]
                                  + [(base.dt, s2) for s2 in sigma2_list]))
        # in every cell, trial 0 fails before any steady window opens, trial 1
        # inside a concentration window but before a bias window, trial 2
        # inside both; the other trials never fail
        fail_at = (0.1, 0.4, 0.8)
        poisoned_trial = {derive_seed(seed, key, b): b for b in range(len(fail_at))
                          for key in [*range(len(conc)), *range(1000, 1000 + len(bias_dts))]}
        draw = learning.draw_noise_series

        def poisoned(cfg, q, lane_seed, horizon):
            noise = draw(cfg, q, lane_seed, horizon)
            if lane_seed in poisoned_trial:
                noise[int(fail_at[poisoned_trial[lane_seed]] * horizon), 0] = np.nan
            return noise

        # guard: each dt group records only from its earliest steady step
        recorded = {}

        def guarded(scenario, cells, *, horizon, record_from=0, **kwargs):
            ens = run_ensemble(scenario, cells, horizon=horizon, record_from=record_from,
                               **kwargs)
            recorded[cells[0][0].dt] = ens.e.shape[1]
            return ens

        monkeypatch.setattr(learning, "draw_noise_series", poisoned)
        monkeypatch.setattr(studies, "run_ensemble", guarded)
        report, bias = mc_sweep(inspan_mc, base, trials, (0.3, 0.1), dt_list=dt_list,
                                sigma2_list=sigma2_list, bias_dts=bias_dts,
                                horizon_s=horizon_s, seed=seed, substeps=2)
        horizons = {dt: int(round(horizon_s / dt)) for dt in bias_dts}
        assert recorded == {dt: h + 1 - (h // 4 if dt in dt_list else h // 2)
                            for dt, h in horizons.items()}

        def oracle(cfg, key, theta0, divisor, lambdas):
            h = horizons[cfg.dt]
            ens = run_ensemble(inspan_mc, [(cfg, key, theta0)], n_trials=trials, horizon=h,
                               baseline_kind="none", seed=seed, substeps=2)
            assert ens.e.shape[1] == h + 1
            assert ens.diverged_step.tolist() == [int(f * h) for f in fail_at] + [-1] * 4
            return full_record_steady_stats(ens.e, ens.phi, ens.diverged, h // divisor,
                                            lambdas)

        assert len(report.cells) == len(conc) and bias.dts == bias_dts
        for key, ((dt, sigma2), cell) in enumerate(zip(conc, report.cells)):
            quantiles, offset, n_diverged = oracle(PolicyConfig(sigma2=sigma2, dt=dt), key,
                                                   inspan_mc.theta0, 4, report.lambdas)
            assert (cell.quantiles, cell.mean_offset, cell.diverged) == (quantiles, offset, 3)
            assert n_diverged == 3
        for idx, (dt, offset) in enumerate(zip(bias.dts, bias.offsets)):
            assert (offset, 3) == oracle(PolicyConfig(sigma2=base.sigma2, dt=dt), 1000 + idx,
                                         inspan_mc.theta_star, 2, ())[1:]

    def test_a_cell_with_one_surviving_trial_raises_divergence_error(self, inspan_mc,
                                                                    monkeypatch):
        # one trial has no spread about its own mean: the dt fit once took
        # log(0) and the report divided by zero
        seed, trials = 5, 4
        survivor = derive_seed(seed, 0, 2)
        draw = learning.draw_noise_series

        def poisoned(cfg, q, lane_seed, horizon):
            noise = draw(cfg, q, lane_seed, horizon)
            if lane_seed != survivor:
                noise[1, 0] = np.nan
            return noise

        monkeypatch.setattr(learning, "draw_noise_series", poisoned)
        with pytest.raises(DivergenceError, match="3 of 4 trials of a cell diverged"):
            concentration_study(inspan_mc, PolicyConfig(sigma2=0.001, dt=0.01), trials,
                                (0.1,), horizon_s=0.2, seed=seed, substeps=2)

    def test_one_trial_a_cell_or_a_repeated_sweep_value_is_refused(self, inspan_mc):
        # a repeated dt once gave a fit through two equal abscissae, with RankWarnings
        base = PolicyConfig(sigma2=0.001, dt=0.01)
        kwargs = dict(horizon_s=0.1, substeps=2)
        with pytest.raises(DimensionError, match="trials must be >= 2, got 1"):
            mc_sweep(inspan_mc, base, 1, (0.1,), **kwargs)
        with pytest.raises(DimensionError, match="trials must be >= 2, got 1"):
            bias_study(inspan_mc, base, 1, (0.02, 0.01), **kwargs)
        for lists, repeated in ((dict(dt_list=(0.02, 0.01, 0.02)), "dt_list repeats 0.02"),
                                (dict(sigma2_list=(0.001, 0.001)), "sigma2_list repeats 0.001"),
                                (dict(bias_dts=(0.02, 0.02)), "bias_dts repeats 0.02")):
            with pytest.raises(ValueError, match=repeated):
                mc_sweep(inspan_mc, base, 4, (0.1,), **lists, **kwargs)
        with pytest.raises(ValueError, match="dt_list repeats 0.01"):
            bias_study(inspan_mc, base, 4, (0.01, 0.01), **kwargs)

    def test_a_cell_whose_every_trial_diverged_raises_divergence_error(self, inspan_mc):
        import dataclasses
        beyond = dataclasses.replace(inspan_mc, x0=inspan_mc.x0 + 2 * STATE_BOUND)
        with pytest.raises(DivergenceError, match="all 4 trials of a cell diverged"):
            concentration_study(beyond, PolicyConfig(sigma2=0.001, dt=0.01), 4, (0.1,),
                                horizon_s=0.1, substeps=2)
        with pytest.raises(DivergenceError):
            bias_study(beyond, PolicyConfig(sigma2=0.001, dt=0.01), 4, (0.01,),
                       horizon_s=0.1, substeps=2)


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
            sampled = np.concatenate([rec.e, rec.phi], axis=1)
            # the flow from X_0, carried one sampling interval per call
            ideal = sampled[0]
            gap = 0.0
            for k in range(rec.steps):
                ideal = simulate_ideal(w_of_t, inspan1.ref_model, inspan1.gains, ideal, dt,
                                       dt / 4, t0=rec.t[k])
                gap = max(gap, np.linalg.norm(sampled[k + 1] - ideal))
            gaps.append(gap)
        ratio = gaps[1] / gaps[0]
        assert 0.35 <= ratio <= 0.65


class TestBiasStudy:
    def test_offsets_shrink_with_dt(self, inspan_mc):
        report = bias_study(inspan_mc, PolicyConfig(sigma2=0.001, dt=0.01), trials=40,
                            dt_list=(0.02, 0.01), horizon_s=3.0, seed=4, substeps=4)
        assert len(report.offsets) == 2
        assert report.offsets[1] < report.offsets[0]
        assert report.slope is not None
