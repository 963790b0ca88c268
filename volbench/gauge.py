"""Host speed gauge: fixed kernels timed next to every measurement.

The benchmark runs on shared 2-CPU virtual machines whose speed swings by
up to 1.7x within seconds and stays off for minutes, while the process
itself is alone on its CPU (contention on the host, not in the guest).
Fixed kernels that never touch volgraph slow down with the host, so
timing them before and after each measured unit gives a speed factor for
that moment. Each timing is divided by the mean factor of the two marks
around it, once the run has ended: a change to volgraph moves the
timing and not the gauge, a slow host moves both.

A slow spell does not slow every kind of work alike. Small ops bound by
the interpreter, arrays that stay in cache and tapes that stream through
memory each follow it to a different degree, and the workloads mix all
three. So a mark times one kernel of each kind, and its factor is the
geometric mean of the three kernels' factors.
"""

from __future__ import annotations

import bisect
import time
from statistics import median

import numpy as np

_RNG = np.random.default_rng(0)
_A = _RNG.normal(size=(48, 48))
_IDX = _RNG.integers(0, 48, size=256)
_CACHED = np.ones(2**19)  # 4 MiB: beyond L2, inside the last-level cache
_STREAMED = np.ones(2**22)  # 32 MiB: streams through memory
RESIDENT_MB = (_CACHED.nbytes + _STREAMED.nbytes) / 2**20


def interpreter_kernel() -> None:
    """Interpreter loop, small matmuls and gathers."""
    acc = 0
    for i in range(1000):
        acc += i
    out = _A
    for _ in range(5):
        out = np.tanh(out @ _A)[_IDX % 48]


def cache_kernel() -> None:
    """Two in-place passes over an array that stays in the last-level cache."""
    np.negative(_CACHED, out=_CACHED)
    np.negative(_CACHED, out=_CACHED)


def memory_kernel() -> None:
    """One in-place pass over an array that streams through memory."""
    np.negative(_STREAMED, out=_STREAMED)


# (kernel, runs per mark, median time on a quiet 2-CPU Xeon guest with
# Python 3.11, numpy 2.4 and one OpenBLAS thread). The memory kernel runs
# first, so a measured unit never starts right after a 32 MiB sweep. Only
# the scale of the reported times depends on the reference times.
KERNELS = (
    (memory_kernel, 3, 0.0015),
    (cache_kernel, 5, 0.0004),
    (interpreter_kernel, 5, 0.00025),
)


def kernel_factor(kernel, runs: int, reference_s: float) -> float:
    """The kernel's median time over ``runs`` runs, relative to its reference time."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return median(times) / reference_s


class Gauge:
    """A time series of speed marks: the geometric mean of the kernels' factors."""

    def __init__(self):
        self.times: list[float] = []
        self.factors: list[float] = []

    def mark(self) -> None:
        factors = [kernel_factor(*k) for k in KERNELS]
        self.times.append(time.perf_counter())
        self.factors.append(float(np.prod(factors)) ** (1.0 / len(factors)))

    def measure(self, fn, *args, **kwargs):
        """Call ``fn`` between two marks; return its result and its (start, end) interval."""
        self.mark()
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        end = time.perf_counter()
        self.mark()
        return out, (start, end)

    def factor(self, start: float, end: float) -> float:
        """Mean speed factor of the last mark before ``start`` and the first after ``end``."""
        before = bisect.bisect_left(self.times, start) - 1
        after = bisect.bisect_left(self.times, end)
        return (self.factors[before] + self.factors[after]) / 2.0

    def seconds(self, interval) -> float:
        """An interval's duration at the reference speed."""
        start, end = interval
        return (end - start) / self.factor(start, end)
