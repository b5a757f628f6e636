"""Wall-clock comparison of the literal sum against its closed form."""

from __future__ import annotations

import time

from .angle import Angle, Record, as_count
from .formatting import json_line
from .kernels import Family, SumSpec, halfangle_free_sum, naive_trig_sum

#: Fixed benchmark angle, comfortably away from every singularity.
BENCH_PHI = 1.0


class BenchResult(Record):
    """Mean wall time per evaluation of each route, in nanoseconds."""

    __slots__ = ("naive_ns_per_eval", "closed_ns_per_eval")

    def __init__(self, naive_ns_per_eval: float, closed_ns_per_eval: float) -> None:
        self._set(naive_ns_per_eval, closed_ns_per_eval)

    @property
    def speedup(self) -> float:
        return self.naive_ns_per_eval / self.closed_ns_per_eval

    def to_json(self) -> str:
        return json_line({"naive_ns_per_eval": self.naive_ns_per_eval,
                          "closed_ns_per_eval": self.closed_ns_per_eval,
                          "speedup": self.speedup})


def _ns_per_eval(fn, repeats: int) -> float:
    # First tenth of the repeats is warmup and stays untimed.
    warmup = repeats // 10
    for _ in range(warmup):
        fn()
    measured = repeats - warmup
    start = time.perf_counter_ns()
    for _ in range(measured):
        fn()
    return (time.perf_counter_ns() - start) / measured


def measure(m: int, repeats: int) -> BenchResult:
    """Time the term-by-term sum against the closed form at (BENCH_PHI, m).

    Each route runs `repeats` times; the mean wall time per evaluation over
    the post-warmup repeats is reported in nanoseconds.
    """
    m, repeats = as_count(m, "m"), as_count(repeats, "repeats")
    # untimed: a count no float can hold raises here, before the O(m) naive loop
    halfangle_free_sum(BENCH_PHI, m)
    spec = SumSpec(Angle(BENCH_PHI), m, Family.FULL)
    naive_ns = _ns_per_eval(lambda: naive_trig_sum(spec), repeats)
    closed_ns = _ns_per_eval(lambda: halfangle_free_sum(BENCH_PHI, m), repeats)
    return BenchResult(naive_ns, closed_ns)
