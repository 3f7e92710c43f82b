"""fblearn benchmark: time-to-result of four workloads, with per-module traces.

Usage (from the repository root; README.md beside this file has the details):

    python3 perfbench/run.py --workload pendulum_compare --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

``--trace 0`` runs repeats, each in a fresh interpreter, until the next one
would overrun ``--seconds`` and reports the end-to-end metrics.  ``--trace 1``
runs one untraced and two traced repeats, checks that tracing changes no
artifact and no call count, and reports the per-layer metrics.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import numpy as np

from calibrate import kernel_mean
from spans import SPAN_NAMES, self_times
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RUN_LIMIT_S = 170.0    # a run must end within 180 s
SETUP_PROBES = 4       # extra set-up-only interpreters per untraced run
E2E_UNITS = {"wall_s": "s", "intervals_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Repeat:
    """One child interpreter: its result file plus why it failed, if it did."""

    out: Path
    result: dict | None
    error: str | None
    elapsed: float

    @property
    def ok(self) -> bool:
        return self.error is None


def run_child(workload: str, seed: int, out: Path, timeout: float, trace: bool = False,
              setup_only: bool = False, calibrate: bool = False) -> Repeat:
    out.mkdir(parents=True)
    env = dict(os.environ, **BLAS_PIN)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--out", str(out), "--inputs", str(out.parent / "inputs.npz")]
    cmd += ["--trace"] if trace else []
    cmd += ["--setup-only"] if setup_only else []
    cmd += ["--calibrate"] if calibrate else []
    with open(out / "stdout.txt", "w") as so, open(out / "stderr.txt", "w") as se:
        kernel_s = kernel_mean()
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd + ["--t0", repr(t0), "--t0-kernel", repr(kernel_s)],
                                stdout=so, stderr=se, env=env, cwd=ROOT)
        try:
            code = proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    elapsed = time.monotonic() - t0
    if code is None:
        return Repeat(out, None, f"timed out after {elapsed:.0f} s", elapsed)
    if code != 0:
        tail = (out / "stderr.txt").read_text().strip().splitlines()[-1:]
        return Repeat(out, None, f"child exited with {code}: {' '.join(tail)}", elapsed)
    result = json.loads((out / "result.json").read_text())
    failed = [name for name, ok in result.get("checks", {}).items() if not ok]
    return Repeat(out, result, f"checks failed: {', '.join(failed)}" if failed else None,
                  elapsed)


def compare_artifacts(first: Repeat, other: Repeat, what: str) -> None:
    """Fail ``other`` when its artifacts differ from ``first``'s."""
    if first.result is None or other.result is None or not other.ok:
        return
    if other.result["digests"] != first.result["digests"]:
        diff = sorted(k for k in set(first.result["digests"]) | set(other.result["digests"])
                      if first.result["digests"].get(k) != other.result["digests"].get(k))
        other.error = f"artifacts differ from {what}: {', '.join(diff)}"


def measure(workload: str, seed: int, seconds: float, work: Path, deadline: float):
    """Untraced run: end-to-end metrics over as many repeats as fit in ``seconds``."""
    spec = WORKLOADS[workload]
    # the first interpreter of a fresh checkout compiles the bytecode: not a sample
    run_child(workload, seed, work / "warmup", deadline - time.monotonic(), setup_only=True)
    probes = [run_child(workload, seed, work / f"setup{i}", deadline - time.monotonic(),
                        setup_only=True) for i in range(SETUP_PROBES)]
    repeats: list[Repeat] = []
    start = time.monotonic()
    while True:
        rep = run_child(workload, seed, work / f"rep{len(repeats)}", deadline - time.monotonic(),
                        calibrate=True)
        if repeats:
            compare_artifacts(repeats[0], rep, "the first repeat")
        repeats.append(rep)
        now = time.monotonic()
        if now + rep.elapsed > deadline:
            break
        if len(repeats) >= spec["min_repeats"] and now - start + rep.elapsed > seconds:
            break

    done = [r for r in repeats if r.result is not None]
    metrics, info = {}, {"repeats": len(repeats), "timed_samples": len(done)}
    setups = [r.result["setup_s"] for r in probes + repeats if r.result is not None]
    if done and setups:
        walls = [r.result["wall_s"] for r in done]
        wall = statistics.median(walls)
        intervals = max(r.result["intervals"] for r in done)
        metrics = {"wall_s": wall, "intervals_per_s": intervals / wall,
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": statistics.median(r.result["peak_rss_mb"] for r in done)}
        info.update(wall_s_samples=walls,
                    wall_raw_s_samples=[r.result["wall_raw_s"] for r in done],
                    setup_raw_s=statistics.median(r.result["setup_raw_s"]
                                                  for r in probes + repeats if r.result),
                    kernel_s_samples=[r.result["kernel_s"] for r in done],
                    setup_kernel_s=statistics.median(r.result["setup_kernel_s"]
                                                     for r in probes + repeats if r.result),
                    intervals=intervals, setup_samples=len(setups),
                    details=done[0].result["details"])
    errors = [f"setup probe {i}: {p.error}" for i, p in enumerate(probes) if not p.ok]
    return repeats, metrics, info, errors


def trace(workload: str, seed: int, work: Path, deadline: float):
    """Traced run: per-layer metrics, plus the trace-on/off and call-count self-test."""
    plain = run_child(workload, seed, work / "plain", deadline - time.monotonic())
    traced = []
    for i in range(2):
        rep = run_child(workload, seed, work / f"traced{i}", deadline - time.monotonic(),
                        trace=True)
        compare_artifacts(plain, rep, "the untraced repeat")
        traced.append(rep)
    repeats = [plain] + traced
    if not all(r.ok for r in repeats):
        return repeats, {}, {}, []
    counts, selfs = zip(*(self_times(np.load(r.out / "spans.npz")) for r in traced))
    if counts[0] != counts[1]:
        diff = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        traced[1].error = f"call counts differ between traced repeats: {', '.join(diff)}"
        return repeats, {}, {}, []

    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = counts[0][name]
        metrics[f"{name}.self_s"] = statistics.median(s[name] for s in selfs)
    c = traced[0].result["counters"]
    intervals = plain.result["intervals"]
    metrics["plants.eval_dynamics.calls_per_interval"] = \
        counts[0]["plants.eval_dynamics"] / intervals
    metrics["learning.ensemble.live_lane_ratio"] = \
        c["live_lanes"] / c["lanes"] if c["lanes"] else 0.0
    metrics["learning.noise.clip_ratio"] = \
        c["noise_clipped"] / c["noise_draws"] if c["noise_draws"] else 0.0
    metrics["cli.steps_csv.bytes"] = c["steps_csv_bytes"]
    metrics["trace.overhead_s"] = (statistics.median(r.result["wall_raw_s"] for r in traced)
                                   - plain.result["wall_raw_s"])
    by_layer = {}
    for name in SPAN_NAMES:
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + metrics[f"{name}.self_s"]
    info = {"self_s_by_layer": dict(sorted(by_layer.items(), key=lambda kv: -kv[1])),
            "lanes": c["lanes"], "noise_draws": c["noise_draws"], "intervals": intervals,
            "untraced_wall_raw_s": plain.result["wall_raw_s"],
            "traced_wall_raw_s": [r.result["wall_raw_s"] for r in traced]}
    return repeats, metrics, info, []


def machine_metadata(seed: int, workloads) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    versions = {}
    for dist in ("numpy", "PyYAML"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": versions["numpy"], "pyyaml": versions["PyYAML"], "blas_pin": BLAS_PIN,
            "commit": commit, "seed": seed,
            "seed_enters": {w: WORKLOADS[w]["seed_enters"] for w in workloads}}


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".calls_per_interval"):
        return "calls/interval"
    if name.endswith("_ratio"):
        return "ratio"
    return "bytes"


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ["src/fblearn/__init__.py"]
               + sorted({spec["config"] for spec in WORKLOADS.values()})
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not an fblearn checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    workloads = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    meta = machine_metadata(args.seed, workloads)
    print("metadata " + json.dumps(meta))
    work_root = ROOT / ".perfbench_work" / f"{os.getpid()}"
    attempted = failed = 0
    all_metrics = {}
    correct = True
    try:
        for workload in workloads:
            work = work_root / workload
            deadline = time.monotonic() + RUN_LIMIT_S
            if args.trace:
                repeats, metrics, info, errors = trace(workload, args.seed, work, deadline)
            else:
                repeats, metrics, info, errors = measure(workload, args.seed, args.seconds,
                                                         work, deadline)
            n_failed = sum(not r.ok for r in repeats)
            errors += [f"repeat {i}: {r.error}" for i, r in enumerate(repeats) if not r.ok]
            attempted += len(repeats)
            failed += n_failed
            correct &= not errors and bool(metrics)
            print(f"== {workload}  seed {args.seed}  trace {args.trace}  "
                  f"failed {n_failed} of {len(repeats)} repeats")
            rows = dict(metrics, failure_ratio=n_failed / len(repeats))
            for name, value in rows.items():
                size = (f"  (input {info['intervals']} intervals)"
                        if name == "intervals_per_s" else "")
                print(f"   {name:48s} {_fmt(value):>14s} {unit_of(name)}{size}")
            print("   info " + json.dumps(info))
            for err in errors:
                print(f"   FAIL {err}")
            prefix = f"{workload}." if args.workload == "all" else ""
            all_metrics.update({prefix + k: {"value": v, "unit": unit_of(k)}
                                for k, v in metrics.items()})
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            work_root.parent.rmdir()

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": all_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
