"""Host speed, sampled around and during operations with a fixed kernel.

The machines this benchmark runs on share their cores with other tenants,
and their speed swings by a factor of two and more in phases of seconds: a
fixed pure-Python loop takes anywhere from 15 to 50 ms on the shared 2-vCPU
x86-64 host the bounds were set on, in process CPU time as in wall time.
Run-to-run spreads of raw wall times are then far wider than any useful
regression bound.

So the benchmark times a small fixed kernel, Fraction arithmetic like the
analyzer's inner loops, between operations and, from a timer signal, every
SAMPLE_S during one. The kernel runs cut the work into segments. A
segment's slowdown factor is the mean of the kernel times at its two ends
over KERNEL_REF_S, and its normalized time is its wall time divided by
that factor: seconds at the speed the kernel ran at on the reference
machine's fast phases. An operation's normalized time is the sum over its
segments; its raw time is the sum of their wall times, without the kernel
runs. The kernel is not fldx code, so only a change to fldx moves a
normalized time.
"""
from __future__ import annotations

import signal
import time
from fractions import Fraction
from typing import Callable, List, Tuple, TypeVar

T = TypeVar("T")

KERNEL_STEPS = 400
#: the kernel's time in the fast phases of the reference machine
#: (2-vCPU x86-64, CPython 3.11.7)
KERNEL_REF_S = 0.0017
#: interval of the kernel runs during an operation
SAMPLE_S = 0.05


def kernel_s() -> float:
    """Wall time of one run of the kernel, in seconds."""
    t0 = time.perf_counter()
    s = Fraction(0)
    for i in range(KERNEL_STEPS):
        s += Fraction(i % 13, 7) * Fraction(3, i % 11 + 1)
    return time.perf_counter() - t0


class Speed:
    """Raw and normalized times of spans of work."""

    def __init__(self) -> None:
        self._last = kernel_s()
        self.kernels: List[float] = [self._last]
        self._start = 0.0
        self._raw = self._norm = 0.0

    def _cut(self, *_signal) -> None:
        """End the current segment with a kernel run and start the next."""
        end = time.perf_counter()
        now = kernel_s()
        wall = end - self._start
        self._raw += wall
        self._norm += wall * 2 * KERNEL_REF_S / (self._last + now)
        self._last = now
        self.kernels.append(now)
        self._start = time.perf_counter()

    def run(self, fn: Callable[[], T], sample: bool = True
            ) -> Tuple[T, float, float]:
        """fn's result and its raw and normalized times in seconds; with
        `sample`, the kernel also runs every SAMPLE_S while fn runs."""
        self._raw = self._norm = 0.0
        if sample:
            old = signal.signal(signal.SIGALRM, self._cut)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        self._start = time.perf_counter()
        try:
            out = fn()
        finally:
            if sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
            # a signal still pending is handled here, before the old
            # handler is back
            self._cut()
            if sample:
                signal.signal(signal.SIGALRM, old)
        return out, self._raw, self._norm
