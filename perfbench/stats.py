"""Latency statistics, bounded sampling and the run's environment record."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import random
import subprocess
import time
from pathlib import Path

#: Candidate tail percentiles; the reported tail is the highest one that
#: leaves at least TAIL_MIN_BEYOND samples above it. The ladder stops at p99:
#: beyond it the tail of microsecond ops is the host's interrupts, not the
#: program (point_stream's p99.9 spread 0.19 over ten seeds).
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0)
TAIL_MIN_BEYOND = 10


def percentile(sorted_values: list[float], pct: float) -> float:
    """Linear-interpolation percentile of an ascending list (numpy's default)."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    pos = (len(sorted_values) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least TAIL_MIN_BEYOND of n samples
    beyond it; the median when the sample is too small for any of them."""
    best = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= TAIL_MIN_BEYOND:
            best = pct
    return best


#: Time of reference_ns() at the usual speed of a 2-core x86-64 VM running
#: CPython 3.11; op times are reported scaled to this speed.
REFERENCE_NOMINAL_NS = 7_200_000


def reference_ns() -> int:
    """Wall time of a fixed pure-Python loop: a probe of the host's current
    speed. A shared host runs for seconds at a time 1.3-1.5x slower or
    faster; scaling a block's op times by nominal over the probe times
    around the block cancels those spells."""
    start = time.perf_counter_ns()
    total = 0.0
    for index in range(1, 50_001):
        total += math.cos(index * 0.5)
    return time.perf_counter_ns() - start


def failed_frac(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("no op was attempted")
    return failed / attempted


class Reservoir:
    """Uniform sample of at most `capacity` values from a stream of any
    length (Li's algorithm L), so latency memory does not grow with speed."""

    def __init__(self, capacity: int, rng: random.Random) -> None:
        self.capacity = capacity
        self.items: list[float] = []
        self.seen = 0
        self._rng = rng
        self._w = math.exp(math.log(rng.random()) / capacity)
        self._next = capacity + self._skip()

    def _skip(self) -> int:
        return int(math.log(self._rng.random()) / math.log(1.0 - self._w))

    def add(self, value: float) -> None:
        index = self.seen
        self.seen += 1
        if index < self.capacity:
            self.items.append(value)
        elif index == self._next:
            self.items[self._rng.randrange(self.capacity)] = value
            self._w *= math.exp(math.log(self._rng.random()) / self.capacity)
            self._next += self._skip() + 1


def _src_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment(root: Path, seed: int) -> dict:
    """Versions, machine and code identity recorded with every result."""
    import mpmath
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "commit": _commit(root),
        "src_sha256": _src_digest(root / "src" / "trigsum"),
        "seed": seed,
        "loadavg": list(os.getloadavg()),
    }
