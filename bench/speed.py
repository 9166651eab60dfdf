"""Scale pass times to a fixed reference CPU speed.

On a shared machine the speed of one CPU changes by up to 2x within a second,
for example while another tenant runs on the sibling hyperthread.  On the
2-vCPU Xeon this benchmark was written on, even 20-s means of one fixed
kernel varied by 11% between windows, and the two vCPUs did not slow down
together.  So each pass samples the speed of its own CPU while it runs: every
10 ms a SIGALRM handler runs a short calibration loop twice and times the
second run.  The loop does what the workloads do, in miniature: small numpy
products driven by the interpreter, as in the RK4 integrators, and one
three-operand einsum, as in the averaging quadrature.  It calls no nestode
code.  The first run only warms the caches, so the timing tracks the CPU's
speed rather than whatever the workload did just before.

The pass time, less the handler's own time, is scaled by ``REFERENCE_S / c``
averaged over the samples ``c``: the result is the pass time at the speed
where the loop takes ``REFERENCE_S``, the idle-core speed of that machine.
In 3-minute recordings there, the spread of single pass times fell from 14%
to 4% on ``certify``, from 6.5% to 3% on ``layers`` and from 17% to 2% on
``restart``.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.01
REFERENCE_S = 48e-6

_A = np.eye(4)
_ONES = np.ones(4)
_STACK = np.full((4, 6, 6), 0.01)
_EYE = np.eye(6)


def calibration_loop() -> None:
    v = _ONES
    for _ in range(10):
        v = 0.5 * (_A @ v) + 0.5 * _ONES
    np.einsum("mij,jk,mkl->mil", _STACK, _EYE, _STACK)


class SpeedProbe:
    """Samples the calibration loop's duration while the ``with`` block runs."""

    def __init__(self):
        self.samples: list[float] = []
        self.probe_time = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        calibration_loop()
        warm = time.perf_counter()
        calibration_loop()
        end = time.perf_counter()
        self.samples.append(end - warm)
        self.probe_time += end - start

    def __enter__(self) -> SpeedProbe:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def at_reference(self, seconds: float) -> float:
        """Wall ``seconds`` measured in the block, scaled to the reference speed."""
        probe_time = self.probe_time
        if not self.samples:
            self._sample()
        return (seconds - probe_time) * REFERENCE_S * statistics.fmean(
            1.0 / c for c in self.samples)
