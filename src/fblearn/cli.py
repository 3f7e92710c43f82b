"""Config-driven experiment runner and artifact writer.

Subcommands: ``run`` (one episode), ``compare`` (paired learning vs frozen
episodes on a shared noise stream), ``mc`` (Monte Carlo sweeps of the
concentration and bias behaviour), ``diag`` (excitation and stability
report along a noise-free run).

Exit codes: 0 success, 2 configuration error, 3 divergence, 4 scenario not
supported by the subcommand.

Artifacts are plot-ready tables: a per-step CSV with fixed column order
``k, t, e_norm, e_*, reward, theta_norm, phi_norm, u_*, w_*`` at 17
significant digits, a JSON summary, and the resolved config snapshot.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import yaml

from .analysis import fit_exponential_bound, interp_matrix_series, pe_check, transition_norm_grid
from .config import ExperimentConfig, load_config
from .errors import ConfigError, DivergenceError, FblearnError, SingularMatrixError
from .learning import AdaptRunRecord, run_episode, run_episodes
from .scenarios import Scenario, build_scenario, policy_config
from .studies import mc_sweep, regressor_series

try:  # installed distribution, if available
    from importlib.metadata import version as _dist_version
    VERSION = _dist_version("fblearn")
except Exception:  # pragma: no cover - source checkouts
    VERSION = "0.1.0"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_UNSUPPORTED = 4


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _episode_args(config: ExperimentConfig, scenario: Scenario,
                  sigma2: float | None = None) -> tuple[tuple, dict]:
    """Positional and keyword arguments of the config's episodes, bar seed and ``learn``."""
    cfg = policy_config(config, sigma2=sigma2)
    args = (scenario.plant, scenario.nominal, scenario.bases, scenario.theta0,
            scenario.reference, scenario.ref_model, scenario.gains, cfg)
    kwargs = dict(baseline_kind=config.baseline,
                  horizon=int(round(config.horizon_s / cfg.dt)), x0=scenario.x0,
                  theta_star=scenario.theta_star, substeps=config.substeps)
    return args, kwargs


def write_steps_csv(path: Path, record: AdaptRunRecord) -> None:
    n_e = record.e.shape[1]
    n_u = record.u.shape[1]
    header = (["k", "t", "e_norm"] + [f"e_{i + 1}" for i in range(n_e)]
              + ["reward", "theta_norm", "phi_norm"]
              + [f"u_{j + 1}" for j in range(n_u)] + [f"w_{j + 1}" for j in range(n_u)])
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(record.steps):
            row = [str(k), _fmt(record.t[k]), _fmt(float(np.linalg.norm(record.e[k])))]
            row += [_fmt(v) for v in record.e[k]]
            row += [_fmt(record.rewards[k]), _fmt(float(np.linalg.norm(record.theta[k])))]
            row += [_fmt(float(np.linalg.norm(record.phi[k]))) if record.phi is not None else ""]
            row += [_fmt(v) for v in record.u[k]]
            row += [_fmt(v) for v in record.w[k]]
            writer.writerow(row)


def _quarter_stats(record: AdaptRunRecord) -> list[dict]:
    norms = record.error_norms()[:record.steps]
    quarters = []
    bounds = np.linspace(0, record.steps, 5).astype(int)
    for i in range(4):
        chunk = norms[bounds[i]:bounds[i + 1]]
        quarters.append({
            "mean_e_norm": float(chunk.mean()) if len(chunk) else float("nan"),
            "max_e_norm": float(chunk.max()) if len(chunk) else float("nan"),
        })
    return quarters


def summarize_run(record: AdaptRunRecord, wall_time_s: float) -> dict:
    norms = record.error_norms()
    return {
        "library_version": VERSION,
        "seed": record.seed,
        "steps": record.steps,
        "diverged": record.diverged,
        "diverged_step": record.diverged_step,
        "final_e_norm": float(norms[record.steps]),
        "mean_e_norm": float(norms[:record.steps].mean()) if record.steps else float("nan"),
        "mean_reward": float(record.rewards.mean()) if record.steps else float("nan"),
        "final_theta_norm": float(np.linalg.norm(record.theta[record.steps])),
        "quarters": _quarter_stats(record),
        "wall_time_s": wall_time_s,
    }


def _check_out_dir(out_dir: str) -> None:
    """Fail before the run unless ``--out-dir`` could be made; creates nothing.

    The nearest existing ancestor of ``out_dir`` (``out_dir`` itself, if it
    exists) must be a directory this process can write into.
    """
    path = Path(out_dir).absolute()
    while not os.path.exists(path):  # False, not an error, where stat is refused
        path = path.parent
    if not path.is_dir() or not os.access(path, os.W_OK | os.X_OK):
        raise ConfigError([f"--out-dir {out_dir}: {path} is not a writable directory"])


def _artifact_dir(args, config: ExperimentConfig, suffix: str) -> Path:
    """Create the run's artifact directory and write the resolved config into it."""
    out_dir = Path(args.out_dir) / f"{config.scenario}_{config.seed}{suffix}"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "config.yaml").write_text(yaml.safe_dump(config.to_dict(), sort_keys=False))
    except OSError as exc:
        raise ConfigError([f"--out-dir {args.out_dir}: cannot write {out_dir}: {exc}"])
    return out_dir


def cmd_run(config: ExperimentConfig, args) -> int:
    scenario = build_scenario(config)
    start = time.perf_counter()
    positional, kwargs = _episode_args(config, scenario)
    record = run_episode(*positional, seed=config.seed, **kwargs)
    wall = time.perf_counter() - start
    out_dir = _artifact_dir(args, config, "")
    write_steps_csv(out_dir / "steps.csv", record)
    (out_dir / "summary.json").write_text(json.dumps(summarize_run(record, wall), indent=2))
    print(f"wrote {out_dir} ({record.steps} steps, diverged={record.diverged})")
    return EXIT_DIVERGED if record.diverged else EXIT_OK


def cmd_compare(config: ExperimentConfig, args) -> int:
    scenario = build_scenario(config)
    start = time.perf_counter()
    # the twins share one noise draw and run as two lanes of one kernel
    positional, kwargs = _episode_args(config, scenario)
    learning, frozen = run_episodes(*positional, seeds=(config.seed, config.seed),
                                    learn=(True, False), **kwargs)
    wall = time.perf_counter() - start
    out_dir = _artifact_dir(args, config, "_compare")
    write_steps_csv(out_dir / "learning.csv", learning)
    write_steps_csv(out_dir / "no_learning.csv", frozen)
    q_learn, q_frozen = _quarter_stats(learning), _quarter_stats(frozen)
    ratios = [ql["mean_e_norm"] / qf["mean_e_norm"] if qf["mean_e_norm"] > 0 else float("nan")
              for ql, qf in zip(q_learn, q_frozen)]
    comparison = {
        "library_version": VERSION,
        "seed": config.seed,
        "diverged": {"learning": learning.diverged, "no_learning": frozen.diverged},
        "learning": q_learn,
        "no_learning": q_frozen,
        "mean_e_norm_ratio_per_quarter": ratios,
        "final_quarter_ratio": ratios[-1],
        "wall_time_s": wall,
    }
    (out_dir / "comparison.json").write_text(json.dumps(comparison, indent=2))
    print(f"wrote {out_dir} (final-quarter ratio {ratios[-1]:.3f})")
    if learning.diverged or frozen.diverged:
        return EXIT_DIVERGED
    return EXIT_OK


def cmd_mc(config: ExperimentConfig, args) -> int:
    scenario = build_scenario(config)
    if scenario.theta_star is None:
        print(f"mc needs a scenario with a known true parameter vector; {config.scenario} "
              "has none. Use scenario inspan_synthetic.", file=sys.stderr)
        return EXIT_UNSUPPORTED
    start = time.perf_counter()
    # the bias cells run beside the concentration cells of their dt
    report, bias = mc_sweep(
        scenario, policy_config(config), trials=config.trials, lambdas=config.sweep.lam,
        dt_list=config.sweep.dt, sigma2_list=config.sweep.sigma2,
        bias_dts=config.sweep.dt if len(config.sweep.dt) >= 2 else (),
        horizon_s=config.horizon_s, seed=config.seed, substeps=config.substeps,
        baseline_kind=config.baseline)
    wall = time.perf_counter() - start

    out_dir = _artifact_dir(args, config, "_mc")
    shape_checks = {
        "sqrt_dt_slope_in_band": (abs(report.dt_slope - 0.5) <= 0.2
                                  if report.dt_slope is not None else None),
        "sigma_doubling_ratios_in_band": (all(0.53 <= r <= 0.885 for r in report.sigma_ratios)
                                          if report.sigma_ratios else None),
        "sqrt_log_lambda_slope_in_band": (abs(report.lambda_slope - 0.5) <= 0.2
                                          if report.lambda_slope is not None else None),
    }
    payload = {
        "library_version": VERSION,
        "trials": config.trials,
        "cells": [asdict(c) for c in report.cells],
        "dt_slope": report.dt_slope,
        "sigma_ratios": list(report.sigma_ratios) if report.sigma_ratios else None,
        "lambda_slope": report.lambda_slope,
        "shape_checks": shape_checks,
        "bias": asdict(bias) if bias else None,
        "wall_time_s": wall,
    }
    (out_dir / "concentration.json").write_text(json.dumps(payload, indent=2))
    with (out_dir / "cells.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        lams = report.lambdas
        writer.writerow(["dt", "sigma2", "trials", "diverged", "mean_offset"]
                        + [f"q{lam:g}" for lam in lams])
        for cell in report.cells:
            writer.writerow([_fmt(cell.dt), _fmt(cell.sigma2), cell.trials, cell.diverged,
                             _fmt(cell.mean_offset)] + [_fmt(cell.quantiles[lam]) for lam in lams])
    if bias:
        with (out_dir / "bias.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["dt", "mean_offset"])
            for dt, offset in zip(bias.dts, bias.offsets):
                writer.writerow([_fmt(dt), _fmt(offset)])
    print(f"wrote {out_dir} ({len(report.cells)} cells x {config.trials} trials)")
    return EXIT_OK


def cmd_diag(config: ExperimentConfig, args) -> int:
    scenario = build_scenario(config)
    positional, kwargs = _episode_args(config, scenario, sigma2=0.0)
    record = run_episode(*positional, seed=config.seed, learn=False, **kwargs)
    if record.diverged:
        print("diagnostic run diverged; no report written", file=sys.stderr)
        return EXIT_DIVERGED
    w_samples = regressor_series(record, scenario)
    try:
        pe = pe_check(record.t, w_samples, config.diag.window_s, stride=config.diag.stride)
    except ValueError as exc:
        raise ConfigError([f"diag.window_s: {exc}"])
    w_of_t = interp_matrix_series(record.t, w_samples)
    t_grid = np.linspace(0.0, float(record.t[-1]), config.diag.grid_points)
    gaps, norms = transition_norm_grid(w_of_t, scenario.ref_model, scenario.gains,
                                       t_grid, config.diag.fit_step)
    fit = fit_exponential_bound(gaps, norms)
    out_dir = _artifact_dir(args, config, "_diag")
    payload = {
        "library_version": VERSION,
        "pe": asdict(pe),
        "stability": asdict(fit),
        "grid_points": config.diag.grid_points,
    }
    (out_dir / "diag.json").write_text(json.dumps(payload, indent=2))
    print(f"wrote {out_dir} (PE satisfied={pe.satisfied}, zeta={fit.zeta:.4f})")
    return EXIT_OK


COMMANDS = {"run": cmd_run, "compare": cmd_compare, "mc": cmd_mc, "diag": cmd_diag}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fblearn",
                                     description="Learned feedback-linearization experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (("run", "run one episode and write its artifact"),
                            ("compare", "paired learning vs no-learning episodes"),
                            ("mc", "Monte Carlo concentration/bias sweeps"),
                            ("diag", "excitation and stability diagnostics")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out-dir", default="runs", help="artifact root directory")
        p.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                       help="config override, repeatable (dotted keys allowed)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = list(args.override)
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    try:
        config = load_config(args.config, overrides=overrides)
        _check_out_dir(args.out_dir)
        return COMMANDS[args.command](config, args)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG
    except (DivergenceError, SingularMatrixError) as exc:
        print(f"run diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except FblearnError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
