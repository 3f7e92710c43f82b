"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Monte Carlo criteria use the synthetic scenario from
``configs/inspan_mc.yaml`` whose basis scales and noise levels put every
sweep cell in the score-dominated regime the deviation bounds describe.
"""

import json
import time
from pathlib import Path

import numpy as np

from fblearn import (PolicyConfig, controller_jacobian,
                     eval_learned_controller, exact_tracking_control,
                     fit_exponential_bound, interp_matrix_series, pe_check,
                     sample_reference, simulate_closed_loop, transition_norm_grid)
from fblearn.cli import EXIT_OK, main
from fblearn.learning import derive_seed, run_episode, run_episodes
from fblearn.studies import (concentration_study, mc_gradient_samples,
                             measure_disturbances, regressor_series)

from oracles import expm, loglog_slope

CONFIG_DIR = Path(__file__).parent.parent / "configs"


def report(criterion, ok, detail):
    stamp = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion:>2}] {stamp}  {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def closed_loop_error_gap(plant, control, reference, gamma, ref_model, gains, e0,
                          x0_map=None, t_final=5.0):
    """Worst-case gap between the simulated error and exp((A+BK) t) e0."""
    xi0 = sample_reference(reference, gamma, 0.0).xi_d + e0
    x0 = xi0 if x0_map is None else x0_map(xi0)
    times, states = simulate_closed_loop(plant, control, x0, t_final, 1e-3)
    acl = ref_model.A + ref_model.B @ gains
    worst = 0.0
    for i in range(0, len(times), 100):
        s = sample_reference(reference, gamma, times[i])
        e_sim = plant.output_chain(states[i]) - s.xi_d
        worst = max(worst, np.linalg.norm(e_sim - expm(acl * times[i]) @ e0))
    return worst


def test_c01_exact_linearization_oracle(pendulum, ref22, gains22, two_tone2):
    start = time.perf_counter()

    def control(x, t):
        s = sample_reference(two_tone2, (2, 2), t)
        return exact_tracking_control(pendulum, x, s.xi_d, s.y_dgamma, gains22)

    e0 = np.array([0.4, 0.0, -0.3, 0.2])
    gap = closed_loop_error_gap(pendulum, control, two_tone2, (2, 2), ref22, gains22,
                                e0, x0_map=lambda xi: xi[[0, 2, 1, 3]])
    rel = gap / np.linalg.norm(e0)
    report(1, rel <= 1e-6,
           f"exact-tracking error vs matrix exponential: rel {rel:.2e} <= 1e-6 "
           f"({time.perf_counter() - start:.1f} s)")


def test_c02_inspan_exactness(inspan1):
    start = time.perf_counter()

    def control(x, t):
        s = sample_reference(inspan1.reference, (2,), t)
        v = s.y_dgamma + inspan1.gains @ (x - s.xi_d)
        return eval_learned_controller(inspan1.bases, inspan1.theta_star,
                                       inspan1.nominal, x, v)

    e0 = np.array([0.5, -0.2])
    gap = closed_loop_error_gap(inspan1.plant, control, inspan1.reference, (2,),
                                inspan1.ref_model, inspan1.gains, e0)
    rel = gap / np.linalg.norm(e0)
    report(2, rel <= 1e-6,
           f"learned controller at theta*: rel {rel:.2e} <= 1e-6 "
           f"({time.perf_counter() - start:.1f} s)")


def test_c03_gradient_correctness_chain(inspan_mc, rng):
    start = time.perf_counter()
    bases, nominal = inspan_mc.bases, inspan_mc.nominal

    # (a) controller Jacobian vs central finite differences, 100 probes
    h, worst = 1e-6, 0.0
    for _ in range(100):
        x = rng.uniform(-1.0, 1.0, 4)
        v = rng.standard_normal(2)
        theta = rng.standard_normal(bases.size)
        jac = controller_jacobian(bases, x, v)
        idx = rng.integers(0, bases.size)
        dp = np.zeros(bases.size)
        dp[idx] = h
        fd = (eval_learned_controller(bases, theta + dp, nominal, x, v)
              - eval_learned_controller(bases, theta - dp, nominal, x, v)) / (2 * h)
        scale = max(1.0, np.abs(jac).max())
        worst = max(worst, np.abs(jac[:, idx] - fd).max() / scale)
    ok_a = worst <= 1e-6

    # (b) score-function mean over 1e5 draws
    cfg = PolicyConfig(sigma2=0.001, dt=0.01)
    study_b = mc_gradient_samples(inspan_mc, inspan_mc.theta0, cfg, t_k=0.4,
                                  x_k=inspan_mc.x0, n_draws=100_000, seed=5, substeps=4)
    stderr = study_b.scores.std(axis=0, ddof=1) / np.sqrt(len(study_b.scores))
    keep = stderr > 0
    ok_b = np.all(np.abs(study_b.scores.mean(axis=0)[keep]) <= 4 * stderr[keep])

    # (c) MC mean of the estimate vs W^T W phi, shrinking linearly in dt
    x_k = inspan_mc.x0 + np.array([0.1, -0.05, 0.08, 0.02])
    dts = [0.1, 0.05, 0.025]
    residuals, stderrs = [], []
    for dt in dts:
        study = mc_gradient_samples(inspan_mc, inspan_mc.theta0,
                                    PolicyConfig(sigma2=0.001, dt=dt), t_k=0.7,
                                    x_k=x_k, n_draws=200_000, seed=3, substeps=8)
        residuals.append(np.linalg.norm(study.mean - study.target))
        stderrs.append(np.linalg.norm(study.stderr))
    c_cal = residuals[0] / dts[0]  # calibrated on the coarsest cell
    within = [residuals[i] <= 3 * stderrs[i] + 1.5 * c_cal * dts[i] for i in range(3)]
    slope = loglog_slope(dts, residuals)
    ok_c = all(within) and abs(slope - 1.0) <= 0.3

    report(3, ok_a and ok_b and ok_c,
           f"jacobian fd worst {worst:.2e} <= 1e-6; score mean within 4 stderr: {ok_b}; "
           f"bias slope {slope:.2f} in 1.0 +/- 0.3 "
           f"({time.perf_counter() - start:.1f} s)")


def test_c04_variance_scaling(inspan_mc):
    start = time.perf_counter()
    x_k = inspan_mc.x0 + np.array([0.1, -0.05, 0.08, 0.02])
    lo = mc_gradient_samples(inspan_mc, inspan_mc.theta0,
                             PolicyConfig(sigma2=0.00025, dt=0.01), t_k=0.7, x_k=x_k,
                             n_draws=200_000, seed=4, substeps=8)
    hi = mc_gradient_samples(inspan_mc, inspan_mc.theta0,
                             PolicyConfig(sigma2=0.001, dt=0.01), t_k=0.7, x_k=x_k,
                             n_draws=200_000, seed=5, substeps=8)
    ratio = hi.estimates.std(axis=0) / lo.estimates.std(axis=0)
    ok = np.all((0.375 <= ratio) & (ratio <= 0.625))
    report(4, ok,
           f"std ratio per component on sigma doubling in [{ratio.min():.3f}, "
           f"{ratio.max():.3f}], target 0.5 +/- 25% ({time.perf_counter() - start:.1f} s)")


def test_c05_pe_analytics():
    start = time.perf_counter()
    t = np.linspace(0.0, 4 * np.pi, 2001)
    W = np.stack([np.sin(t), np.cos(t)], axis=-1)[:, None, :]
    pe = pe_check(t, W, delta=2 * np.pi)
    err = max(abs(pe.c1 - np.pi), abs(pe.c2 - np.pi))
    report(5, err <= 1e-6,
           f"sliding integral of [sin, cos]: |c - pi| = {err:.2e} <= 1e-6 "
           f"({time.perf_counter() - start:.1f} s)")


def test_c06_ideal_system_stability(inspan1):
    start = time.perf_counter()
    cfg = PolicyConfig(sigma2=0.0, dt=0.05)
    rec = run_episode(inspan1.plant, inspan1.nominal, inspan1.bases, inspan1.theta_star,
                      inspan1.reference, inspan1.ref_model, inspan1.gains, cfg,
                      horizon=4800, seed=0, x0=inspan1.x0, learn=False,
                      theta_star=inspan1.theta_star, substeps=6)
    w_samples = regressor_series(rec, inspan1)
    pe = pe_check(rec.t, w_samples, delta=15.0, stride=4)
    w_of_t = interp_matrix_series(rec.t, w_samples)
    gaps, norms = transition_norm_grid(w_of_t, inspan1.ref_model, inspan1.gains,
                                       np.linspace(0.0, 240.0, 9), 0.02)
    fit = fit_exponential_bound(gaps, norms)
    bound_holds = np.all(norms <= fit.M * np.exp(-fit.zeta * gaps) * (1 + 1e-12))
    ok = pe.satisfied and fit.exponential and fit.zeta > 0 and bound_holds
    report(6, ok,
           f"PE c2 {pe.c2:.3f} > 0; zeta {fit.zeta:.4f} > 0; envelope M {fit.M:.3f} "
           f"holds at all {len(gaps)} samples ({time.perf_counter() - start:.1f} s)")


def test_c07_disturbance_orders(inspan1, inspan_mc):
    start = time.perf_counter()
    # mean ||delta_k|| against dt^2 with the noiseless ideal update
    signs = np.where(np.arange(inspan1.bases.size) % 2 == 0, 1.0, -1.0)
    theta0 = inspan1.theta_star + 0.5 * signs / np.linalg.norm(signs)
    dts = [0.04, 0.02, 0.01]
    means = []
    for dt in dts:
        cfg = PolicyConfig(sigma2=0.0, dt=dt)
        rec = run_episode(inspan1.plant, inspan1.nominal, inspan1.bases, theta0,
                          inspan1.reference, inspan1.ref_model, inspan1.gains, cfg,
                          horizon=int(8.0 / dt), seed=0, x0=inspan1.x0, learn=True,
                          theta_star=inspan1.theta_star, update_rule="ideal",
                          substeps=10)
        means.append(measure_disturbances(rec, inspan1).norms.mean())
    slope = loglog_slope(dts, means)
    ok_mean = abs(slope - 2.0) <= 0.3

    # delta_phi spread against dt / sigma in the score-dominated regime
    def spread(dt, sigma2, key):
        # the 24 trials run as lanes of one kernel, each equal to its own run
        records = run_episodes(inspan_mc, PolicyConfig(sigma2=sigma2, dt=dt),
                               horizon=int(2.0 / dt),
                               seeds=[derive_seed(50, key, trial) for trial in range(24)],
                               substeps=4)
        samples = [measure_disturbances(rec, inspan_mc).delta_phi for rec in records]
        return float(np.mean(np.std(np.stack(samples), axis=0)))

    base = spread(0.01, 0.00025, 0)
    sigma_ratio = spread(0.01, 0.001, 1) / base     # sigma doubled
    dt_ratio = spread(0.02, 0.00025, 2) / base       # dt doubled
    ok_spread = (0.35 <= sigma_ratio <= 0.65) and (1.4 <= dt_ratio <= 2.6)
    report(7, ok_mean and ok_spread,
           f"mean-disturbance slope {slope:.2f} in 2.0 +/- 0.3; spread ratios: "
           f"sigma x2 -> {sigma_ratio:.3f} (want ~0.5 +/- 30%), dt x2 -> {dt_ratio:.3f} "
           f"(want ~2 +/- 30%) ({time.perf_counter() - start:.1f} s)")


def test_c08_concentration_shapes(inspan_mc):
    start = time.perf_counter()
    rep = concentration_study(inspan_mc, PolicyConfig(sigma2=0.001, dt=0.005),
                              trials=200, lambdas=(0.3, 0.1, 0.03),
                              dt_list=(0.02, 0.01, 0.005),
                              sigma2_list=(0.0005, 0.001, 0.002), horizon_s=6.0,
                              seed=77, substeps=4, baseline_kind="none")
    n_diverged = sum(c.diverged for c in rep.cells)
    ok_dt = abs(rep.dt_slope - 0.5) <= 0.2
    ok_sigma = all(0.707 * 0.75 <= r <= 0.707 * 1.25 for r in rep.sigma_ratios)
    ok_lambda = abs(rep.lambda_slope - 0.5) <= 0.2
    ok = ok_dt and ok_sigma and ok_lambda and n_diverged == 0
    report(8, ok,
           f"N=200/cell: sqrt(dt) slope {rep.dt_slope:.2f} (0.5 +/- 0.2); sigma-doubling "
           f"ratios {tuple(round(r, 3) for r in rep.sigma_ratios)} (0.707 +/- 25%); "
           f"sqrt(ln(2/lambda)) slope {rep.lambda_slope:.2f} (0.5 +/- 0.2); "
           f"diverged {n_diverged} ({time.perf_counter() - start:.1f} s)")


def test_c09_pendulum_experiment_desk_scale(tmp_path):
    start = time.perf_counter()
    code = main(["compare", "--config", str(CONFIG_DIR / "pendulum.yaml"),
                 "--out-dir", str(tmp_path)])
    data = json.loads((tmp_path / "double_pendulum_42_compare" /
                       "comparison.json").read_text())
    ratio = data["final_quarter_ratio"]
    diverged = data["diverged"]["learning"] or data["diverged"]["no_learning"]
    ok = code == EXIT_OK and ratio < 0.5 and not diverged
    report(9, ok,
           f"60 s run, dt 0.05, sigma2 0.1, pole -1.5, 100 RBF centers: final-quarter "
           f"error ratio {ratio:.3f} < 0.5, no divergence "
           f"({time.perf_counter() - start:.1f} s)")


def test_c10_determinism(tmp_path):
    start = time.perf_counter()
    args = ["run", "--config", str(CONFIG_DIR / "pendulum.yaml"),
            "--override", "horizon_s=5"]
    assert main(args + ["--out-dir", str(tmp_path / "a")]) == EXIT_OK
    assert main(args + ["--out-dir", str(tmp_path / "b")]) == EXIT_OK
    same_csv = ((tmp_path / "a" / "double_pendulum_42" / "steps.csv").read_bytes()
                == (tmp_path / "b" / "double_pendulum_42" / "steps.csv").read_bytes())
    same_cfg = ((tmp_path / "a" / "double_pendulum_42" / "config.yaml").read_bytes()
                == (tmp_path / "b" / "double_pendulum_42" / "config.yaml").read_bytes())
    report(10, same_csv and same_cfg,
           f"same config + seed reruns are byte-identical (CSV and config snapshot) "
           f"({time.perf_counter() - start:.1f} s)")
