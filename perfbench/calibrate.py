"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent within seconds, and nearly alike for every piece of
small-array numpy code in the process.  So every timing is taken together
with a fixed calibration kernel that does the same kind of work as fblearn
(small linear solves, stacking, RBF-style exponentials, a batched lane
update, a 34x34 matrix product), and it is reported scaled to a fixed
reference speed:

    calibrated seconds = measured seconds * REFERENCE_KERNEL_S / kernel seconds

where ``kernel seconds`` is the mean time of the kernel measured alongside.
A change to fblearn moves the calibrated time as it moves the measured time;
a change of the host's speed moves neither the kernel's ratio nor the result.

``Calibrator`` interleaves the kernel with a running call: a timer signal
runs it every ``PERIOD_S`` seconds in the main thread, between bytecodes.
Its own time is subtracted from the call's.  ``kernel_mean`` measures the
kernel back to back, for a bracket around work that cannot be interleaved
(interpreter start-up).
"""

from __future__ import annotations

import signal
import time

import numpy as np

# The kernel's time at the reference speed: its typical time on a 2-vCPU
# Intel Xeon, Python 3.11.7, numpy 2.4.6, BLAS pinned to one thread, so that
# calibrated seconds read close to that machine's wall seconds.
REFERENCE_KERNEL_S = 0.6e-3
PERIOD_S = 0.02     # Calibrator: one kernel sample per period of the call
BACK_TO_BACK = 100  # kernel_mean: calls per measurement

_rng = np.random.default_rng(12345)
_A3 = _rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
_B3 = _rng.standard_normal(3)
_CENTRES = _rng.standard_normal((100, 2))
_LANES = _rng.standard_normal((200, 34))
_M34 = _rng.standard_normal((34, 34)) * 0.05
_EYE2 = np.eye(2)
_EYE34 = np.eye(34)


def kernel() -> float:
    """A fixed slice of fblearn-like numpy work; returns a checksum."""
    acc = 0.0
    x = np.array([0.1, -0.2])
    for i in range(4):  # scalar loop: tiny solves, stacking, an RBF evaluation
        m = np.stack([np.array([1.0 + 0.01 * i, 0.2]), np.array([0.1, 2.0 - 0.01 * i])])
        x = np.linalg.solve(m, x + 0.05)
        acc += float(np.linalg.solve(_A3, _B3 + i)[0])
        d = _CENTRES - x
        acc += float(np.exp(-0.5 * np.einsum("ij,ij->i", d, d)).sum())
    for k in range(3):  # per-step noise generators
        rng = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(0, k)))
        acc += float(rng.standard_normal(200).sum())
    # batched lanes: a matrix product and 2x2 inverses
    lanes = _LANES + 0.01 * np.tanh(_LANES @ _M34)
    acc += float(np.linalg.inv(_EYE2 + 0.1 * lanes[:, :4].reshape(-1, 2, 2)).sum())
    # a 34x34 propagator
    phi = _EYE34
    for _ in range(2):
        phi = phi + 0.01 * (_M34 @ phi)
    return acc + float(lanes.sum()) + float(np.trace(phi))


def kernel_mean() -> float:
    """Mean time of ``kernel`` over ``BACK_TO_BACK`` calls, after one warm-up."""
    kernel()
    start = time.perf_counter()
    for _ in range(BACK_TO_BACK):
        kernel()
    return (time.perf_counter() - start) / BACK_TO_BACK


class Calibrator:
    """Context manager that runs ``kernel`` every ``PERIOD_S`` seconds of a call.

    After the block, ``kernel_s`` is the kernel's mean time over the block
    and ``overhead_s`` the time the kernel took, to subtract from the
    block's measured time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.overhead_s = 0.0

    def _tick(self, signum, frame) -> None:
        # the first call brings the kernel's code and data back into the
        # caches, so the timed second call measures the machine, not how
        # much of the cache the workload used
        start = time.perf_counter()
        kernel()
        timed = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append(end - timed)
        self.overhead_s += end - start

    def __enter__(self) -> "Calibrator":
        kernel()  # warm-up, not a sample
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        if not self.samples:  # a block shorter than one period
            self._tick(signal.SIGALRM, None)
            self.overhead_s = 0.0
        self.kernel_s = sum(self.samples) / len(self.samples)

    def calibrate(self, seconds: float) -> float:
        """``seconds`` measured over the block, minus the kernel's time, at reference speed."""
        return (seconds - self.overhead_s) * REFERENCE_KERNEL_S / self.kernel_s
