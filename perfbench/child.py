"""One repeat of one workload, in a fresh interpreter.

Run by ``run.py``; not meant to be called by hand.  Writes ``result.json``
(and, when traced, ``spans.npz``) into ``--out``:

* ``setup_s`` - from ``--t0`` (the parent's ``time.monotonic()`` just
  before it started this interpreter) until ``import fblearn``,
  ``load_config`` and ``build_scenario`` are done, calibrated with the mean
  of ``--t0-kernel`` (the calibration kernel's time in the parent just
  before) and the kernel's time measured here just after;
* ``wall_s`` - the workload's timed call; with ``--calibrate`` (never
  together with ``--trace``), calibrated with the kernel run alongside it
  (``calibrate.Calibrator``);
* ``wall_raw_s`` and ``setup_raw_s`` - the same, as measured;
* ``peak_rss_mb`` - this process's peak resident memory;
* the workload's correctness checks and a digest of every artifact.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_KERNEL_S, Calibrator, kernel_mean
from workloads import DISTURBANCE_DTS, DISTURBANCE_HORIZON_S, REFERENCE_RTOL, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _digest_file(path: Path) -> str:
    """Digest of an artifact; a JSON file's ``wall_time_s`` is a timing, not output."""
    data = path.read_bytes()
    if path.suffix == ".json":
        payload = json.loads(data)
        payload.pop("wall_time_s", None)
        data = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def _digests(out_dir: Path) -> dict:
    return {str(p.relative_to(out_dir)): _digest_file(p)
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= REFERENCE_RTOL * abs(ref)


def _check_compare(art: Path, config, reference: dict) -> tuple[dict, dict, int]:
    (run_dir,) = art.iterdir()
    data = json.loads((run_dir / "comparison.json").read_text())
    checks = {
        "no_divergence": not (data["diverged"]["learning"] or data["diverged"]["no_learning"]),
        "final_quarter_ratio_below_0.5": data["final_quarter_ratio"] < 0.5,
    }
    steps = int(round(config.horizon_s / config.dt))
    return checks, {"final_quarter_ratio": data["final_quarter_ratio"]}, 2 * steps


def _check_mc(art: Path, config, reference: dict) -> tuple[dict, dict, int]:
    (run_dir,) = art.iterdir()
    data = json.loads((run_dir / "concentration.json").read_text())
    trials = data["trials"]
    dts = [cell["dt"] for cell in data["cells"]]
    if data["bias"] is not None:
        dts += data["bias"]["dts"]
    intervals = sum(trials * int(round(config.horizon_s / dt)) for dt in dts)
    checks = {
        "no_diverged_trials": sum(cell["diverged"] for cell in data["cells"]) == 0,
        "shape_checks_hold": all(v for v in data["shape_checks"].values() if v is not None),
    }
    return checks, {"shape_checks": data["shape_checks"]}, intervals


def _check_diag(art: Path, config, reference: dict) -> tuple[dict, dict, int]:
    (run_dir,) = art.iterdir()
    data = json.loads((run_dir / "diag.json").read_text())
    values = {"c1": data["pe"]["c1"], "c2": data["pe"]["c2"],
              "M": data["stability"]["M"], "zeta": data["stability"]["zeta"]}
    checks = {"pe_satisfied": bool(data["pe"]["satisfied"]), "zeta_positive": values["zeta"] > 0}
    checks.update({f"{k}_matches_reference": _close(v, reference[k]) for k, v in values.items()})
    return checks, values, int(round(config.horizon_s / config.dt))


_CHECKS = {"pendulum_compare": _check_compare, "inspan_mc": _check_mc,
           "inspan_diag": _check_diag}


def _timed(call, calibrated: bool):
    """Run ``call``; return its result, its calibrated and measured seconds, the kernel's time."""
    cal = Calibrator() if calibrated else contextlib.nullcontext()
    with cal:
        start = time.perf_counter()
        value = call()
        raw = time.perf_counter() - start
    if not calibrated:
        return value, raw, raw, None
    return value, cal.calibrate(raw), raw, cal.kernel_s


def _cli_workload(name: str, seed: int, out_dir: Path, calibrated: bool):
    spec = WORKLOADS[name]
    art = out_dir / "artifacts"
    argv = [spec["command"], "--config", str(ROOT / spec["config"]), "--seed", str(seed),
            "--out-dir", str(art)]
    for item in spec["overrides"]:
        argv += ["--override", item]

    from fblearn import cli

    code, wall, raw, kernel_s = _timed(lambda: cli.main(argv), calibrated)
    return wall, raw, kernel_s, code, art


_RECORD_ARRAYS = ("t", "x", "xi", "e", "theta", "phi", "u", "w", "rewards", "baselines")


def _disturbance_records(scenario, config, seed: int, inputs: Path):
    """The noise-free ideal-update episodes that ``disturbance`` measures.

    They are the workload's inputs, neither timed nor traced: the first
    repeat of a run generates them and saves them to ``inputs``, and later
    repeats load them.
    """
    import numpy as np
    from fblearn.learning import AdaptRunRecord, PolicyConfig, run_episode
    if inputs.exists():
        with np.load(inputs) as data:
            return [AdaptRunRecord(**{f: data[f"{i}.{f}"] for f in _RECORD_ARRAYS},
                                   seed=seed, config={}, diverged=bool(data[f"{i}.diverged"]))
                    for i in range(len(DISTURBANCE_DTS))]
    records = [run_episode(
        scenario.plant, scenario.nominal, scenario.bases, scenario.theta0,
        scenario.reference, scenario.ref_model, scenario.gains,
        PolicyConfig(sigma2=0.0, dt=dt), horizon=int(round(DISTURBANCE_HORIZON_S / dt)),
        seed=seed, x0=scenario.x0, learn=True, theta_star=scenario.theta_star,
        update_rule="ideal", substeps=config.substeps) for dt in DISTURBANCE_DTS]
    arrays = {f"{i}.{f}": getattr(rec, f) for i, rec in enumerate(records) for f in _RECORD_ARRAYS}
    arrays.update({f"{i}.diverged": np.array(rec.diverged) for i, rec in enumerate(records)})
    np.savez(inputs, **arrays)
    return records


def _disturbance(scenario, config, seed: int, reference: dict, inputs: Path,
                 calibrated: bool):
    import numpy as np
    from fblearn.studies import measure_disturbances

    records = _disturbance_records(scenario, config, seed, inputs)
    samples, wall, raw, kernel_s = _timed(lambda: [measure_disturbances(rec, scenario)
                                         for rec in records], calibrated)

    norms = [s.norms for s in samples]
    means = [float(n.mean()) for n in norms]
    slope = float(np.polyfit(np.log(DISTURBANCE_DTS), np.log(means), 1)[0])
    checks = {
        "no_record_diverged": not any(rec.diverged for rec in records),
        "deltas_finite": all(np.all(np.isfinite(s.delta_e)) and np.all(np.isfinite(s.delta_phi))
                             for s in samples),
        "mean_norm_slope_2_pm_0.3": abs(slope - 2.0) <= 0.3,
        "norms_match_reference": all(
            n.shape == (len(reference[f"{dt:g}"]),)
            and np.allclose(n, reference[f"{dt:g}"], rtol=REFERENCE_RTOL, atol=0.0)
            for dt, n in zip(DISTURBANCE_DTS, norms)),
    }
    digests = {f"delta_dt{dt:g}": hashlib.sha256(s.delta_e.tobytes() + s.delta_phi.tobytes())
               .hexdigest() for dt, s in zip(DISTURBANCE_DTS, samples)}
    details = {"mean_norm_slope": slope, "mean_norms": means}
    intervals = sum(rec.steps for rec in records)
    return wall, raw, kernel_s, checks, details, digests, intervals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--t0-kernel", type=float, required=True,
                        help="the calibration kernel's mean time in the parent before --t0")
    parser.add_argument("--out", required=True)
    parser.add_argument("--inputs", required=True,
                        help="workload inputs shared by a run's repeats")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--calibrate", action="store_true",
                        help="run the calibration kernel alongside the timed call")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    out_dir = Path(args.out)
    spec = WORKLOADS[args.workload]

    import fblearn  # noqa: F401 - part of the timed set-up
    import fblearn.cli  # noqa: F401
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    from fblearn.config import load_config
    from fblearn.scenarios import build_scenario
    config = load_config(ROOT / spec["config"], overrides=list(spec["overrides"]))
    scenario = build_scenario(config)
    setup_raw = time.monotonic() - args.t0
    setup_kernel_s = (args.t0_kernel + kernel_mean()) / 2.0

    result = {"setup_s": setup_raw * REFERENCE_KERNEL_S / setup_kernel_s,
              "setup_raw_s": setup_raw, "setup_kernel_s": setup_kernel_s}
    if not args.setup_only:
        reference = json.loads((Path(__file__).parent / "reference.json").read_text())
        if spec["command"] is None:
            wall, raw, kernel_s, checks, details, digests, intervals = _disturbance(
                scenario, config, args.seed, reference["disturbance"], Path(args.inputs),
                args.calibrate)
        else:
            wall, raw, kernel_s, code, art = _cli_workload(args.workload, args.seed, out_dir,
                                                           args.calibrate)
            if code == 0:
                checks, details, intervals = _CHECKS[args.workload](
                    art, config, reference.get(args.workload))
            else:
                checks, details, intervals = {}, {}, 0
            checks["exit_code_0"] = code == 0
            digests = _digests(art)
        result.update(wall_s=wall, wall_raw_s=raw, kernel_s=kernel_s, checks=checks,
                      details=details, digests=digests, intervals=intervals)
        if tracer is not None:
            tracer.save(out_dir / "spans.npz")
            result["counters"] = tracer.counters
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (out_dir / "result.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
