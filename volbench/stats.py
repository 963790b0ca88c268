"""The harness's own arithmetic: percentiles, span self time, failure counts."""

from __future__ import annotations

import math
import traceback

TAIL_MIN_BEYOND = 10


def beyond_count(n: int, q: float) -> int:
    """How many of n samples lie above the nearest-rank q-th percentile's rank."""
    return n - max(1, math.ceil(q / 100.0 * n))


def tail_percentile(samples, q: float) -> float | None:
    """The nearest-rank q-th percentile, or None unless ten samples lie beyond it."""
    n = len(samples)
    if beyond_count(n, q) < TAIL_MIN_BEYOND:
        return None
    return float(sorted(samples)[n - beyond_count(n, q) - 1])


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    ``spans`` is a sequence of objects with ``start``, ``end`` and
    ``parent`` (the index of the parent span, or None).
    """
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        (s.end - s.start) - covered_length(children.get(i, ()), s.start, s.end)
        for i, s in enumerate(spans)
    ]


class Ledger:
    """Counts attempted and failed operations; every failure is kept with its reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, what: str, reason: str, count: int = 1) -> None:
        self.failed += count
        self.failures.append(f"{what}: {reason}")

    def check(self, ok: bool, what: str) -> bool:
        """One correctness check; a false condition counts as a failed operation."""
        self.attempted += 1
        if not ok:
            self.fail(what, "check failed")
        return ok

    def call(self, what: str, fn, *args, count: int = 1, **kwargs):
        """Run ``fn`` as ``count`` operations; an exception fails them all and returns None."""
        self.attempted += count
        try:
            return fn(*args, **kwargs)
        except Exception as e:  # the run keeps going and reports the failure
            self.fail(what, "".join(traceback.format_exception_only(e)).strip(), count)
            return None

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
