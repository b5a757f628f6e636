"""Seeded input generators for the four workloads.

Every generator is a pure function of the seed (and a block index), so the
same seed gives identical inputs on every run and every machine. Nothing here
imports the library under test: the program only ever sees generated values.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi

#: The library's default fallback threshold (kernels.DEFAULT_THRESHOLD). The
#: near_singular bands are placed in multiples of it.
THRESHOLD = 1e-4

FAMILIES = ("full", "even", "odd")

WHY = {
    "point_stream": (
        "library callers at generic angles: time goes to dispatch, SumSpec/Angle "
        "construction and the closed forms, the naive fallback is almost never taken"
    ),
    "near_singular": (
        "angles within a few thresholds of k*pi with counts up to 1e6: a third of "
        "queries pay the O(m) fallback, and the closed forms' known accuracy loss shows"
    ),
    "sweep": (
        "in-process residual_sweep shards of the criterion-1, criterion-4 and "
        "500-angle projection grids: oracle, closed-form batch and construction cost"
    ),
    "cli": (
        "one python -m trigsum.cli process at a time: interpreter start and import "
        "dominate, and construct, orbit sampling and the emitters are measured"
    ),
}

OP = {
    "point_stream": "one sum_auto(SumSpec(...)) query, SumSpec construction included",
    "near_singular": "one sum_auto(SumSpec(...)) query, SumSpec construction included",
    "sweep": "one residual_sweep call on one grid shard",
    "cli": "one python -m trigsum.cli process, spawn to exit",
}


@dataclass(frozen=True)
class Query:
    """One sum_auto request; full_form only matters for the full family."""

    phi: float
    count: int
    family: str
    full_form: str = "halfangle"


def _rng(seed: int, *stream: object) -> random.Random:
    # String seeds are hashed with SHA-512, so streams are independent of
    # PYTHONHASHSEED and of each other.
    return random.Random(":".join(str(part) for part in (seed, *stream)))


def _log_uniform_int(rng: random.Random, lo: int, hi: int) -> int:
    value = int(math.exp(rng.uniform(math.log(lo), math.log(hi + 1))))
    return min(hi, max(lo, value))


# -- point_stream -----------------------------------------------------------

POINT_POOL = 16384
POINT_TURNS = 4


def point_stream_pool(seed: int, size: int = POINT_POOL) -> list[Query]:
    """Mixed-family queries, angles uniform over a few turns, counts
    log-uniform in [1, 10^4]. The timed loop cycles over this pool."""
    rng = _rng(seed, "point_stream")
    pool = []
    for _ in range(size):
        family = rng.choice(FAMILIES)
        full_form = rng.choice(("halfangle", "lagrange")) if family == "full" else "halfangle"
        phi = rng.uniform(0.0, POINT_TURNS * TWO_PI)
        pool.append(Query(phi, _log_uniform_int(rng, 1, 10**4), family, full_form))
    return pool


# -- near_singular ----------------------------------------------------------

NEAR_STRATA = 16
NEAR_COUNT_RANGE = (10**3, 10**6)
NEAR_K_MAX = 40_000
#: Offsets from k*pi in thresholds: one fallback band, two closed-form bands.
#: The 2% margins keep |sin(phi)| on the intended side of the threshold
#: despite the rounding of k*pi (below 3e-11 for |k| <= 4e4).
NEAR_BANDS = ((0.02, 0.98), (1.02, 2.0), (2.0, 3.0))
#: The ROADMAP's closed-form accuracy case, part of every block.
NEAR_PROBE = Query(TWO_PI - 1.1e-4, 10**6, "full")


def near_singular_block(seed: int, block: int) -> list[Query]:
    """One stratified block of 16 log-count strata of [10^3, 10^6] x 3 offset
    bands. Each cell also has its own stratum of |k| and its own family, in a
    pattern fixed for every block, so each block carries exactly one fallback
    per count stratum and the same mix of argument sizes; the seed moves
    every value within its cell and orders the count strata.

    The closed-form queries run first and the fallbacks after them. Measured
    on a 2-core VM, a closed-form op right after an O(m) fallback loop takes
    anywhere from 1x to 5x its usual time, so with the two kinds interleaved
    the median op time would depend on the interleaving, not on the code."""
    rng = _rng(seed, "near_singular", block)
    lo, hi = (math.log(c) for c in NEAR_COUNT_RANGE)
    width = (hi - lo) / NEAR_STRATA
    cells = NEAR_STRATA * len(NEAR_BANDS)
    strata = list(range(NEAR_STRATA))
    rng.shuffle(strata)
    closed, fallbacks = [NEAR_PROBE], []
    for stratum in strata:
        for band, (band_lo, band_hi) in enumerate(NEAR_BANDS):
            count = int(math.exp(rng.uniform(lo + stratum * width, lo + (stratum + 1) * width)))
            count = min(NEAR_COUNT_RANGE[1], max(NEAR_COUNT_RANGE[0], count))
            offset = rng.choice((-1.0, 1.0)) * THRESHOLD * rng.uniform(band_lo, band_hi)
            # 29 is prime to 48, so k strata are a permutation of the cells
            k_stratum = (29 * (stratum * len(NEAR_BANDS) + band)) % cells
            k = int(NEAR_K_MAX * (k_stratum + rng.random()) / cells)
            phi = rng.choice((-1, 1)) * k * math.pi + offset
            query = Query(phi, count, FAMILIES[(stratum + band) % len(FAMILIES)])
            (fallbacks if band == 0 else closed).append(query)
    return closed + fallbacks


# -- sweep ------------------------------------------------------------------


@dataclass(frozen=True)
class SweepGrid:
    """An acceptance grid GridSpec(lo, hi, angles), cut into interleaved shards.

    Shard j holds grid angles j, j + shards, j + 2*shards, ...; each shard is
    itself a uniform inclusive grid, so it maps onto one GridSpec.
    """

    pair: str
    lo: float
    hi: float
    angles: int
    shards: int
    counts: tuple[int, ...]
    guard: float = 0.01


#: The grids are the acceptance grids themselves, so the 8 tangency-snap
#: points of the projection grid (residual ~1.2e-5) stay in the measurement;
#: the seed orders the shards.
SWEEP_GRIDS = (
    # criterion 1: 2000 angles x counts 1..64, 100, 1000
    SweepGrid("LagrangeVsNaive", 0.05, TWO_PI - 0.05, 2000, 20,
              tuple(range(1, 65)) + (100, 1000)),
    # criterion 4: 2000 angles x k = 1..512
    SweepGrid("DecompositionVsHalfangle", 0.05, TWO_PI - 0.05, 2000, 25,
              tuple(range(1, 513))),
    # 500 angles x the counts whose constructions reach n = 500
    SweepGrid("ProjectionVsClosedForm", 0.05, TWO_PI - 0.05, 500, 25,
              (1, 10, 50, 100, 249)),
)
#: Rounds that cover every shard of every grid at least once.
SWEEP_FULL_PASS = max(grid.shards for grid in SWEEP_GRIDS)


@dataclass(frozen=True)
class Shard:
    """Arguments of one residual_sweep call."""

    pair: str
    index: int
    angle_min: float
    angle_max: float
    steps: int
    counts: tuple[int, ...]
    guard: float


def _shard(grid: SweepGrid, index: int) -> Shard:
    step = (grid.hi - grid.lo) / (grid.angles - 1)
    steps = grid.angles // grid.shards
    first = grid.lo + index * step
    last = grid.lo + (index + (steps - 1) * grid.shards) * step
    return Shard(grid.pair, index, first, last, steps, grid.counts, grid.guard)


def sweep_round(seed: int, rnd: int) -> list[Shard]:
    """One shard of each grid, in a seeded order. Round r takes the r-th entry
    of a seeded shard permutation per grid, so consecutive rounds walk the
    whole grid before any shard repeats."""
    shards = []
    for grid in SWEEP_GRIDS:
        order = list(range(grid.shards))
        _rng(seed, "sweep", grid.pair).shuffle(order)
        shards.append(_shard(grid, order[rnd % grid.shards]))
    _rng(seed, "sweep-order", rnd).shuffle(shards)
    return shards


# -- cli --------------------------------------------------------------------

CLI_DISTINCT_ROUNDS = 3
ORBIT_CASES = tuple((n, fmt) for n in (5, 200) for fmt in ("csv", "json", "svg"))
#: The ROADMAP's closed-form accuracy case at the CLI's largest count.
CLI_PROBE = ("sum", "--phi", repr(TWO_PI - 1.1e-4), "--m", "10000", "--method", "auto")


def _generic_angle(rng: random.Random) -> float:
    """An angle clear of every singular and excluded set (|sin|, |cos|,
    |sin(a/2)| all >= 0.1), so no CLI op raises a domain error."""
    while True:
        a = rng.uniform(0.1, TWO_PI - 0.1)
        if min(abs(math.sin(a)), abs(math.cos(a)), abs(math.sin(0.5 * a))) >= 0.1:
            return a


def cli_round(seed: int, rnd: int) -> list[tuple[str, ...]]:
    """Argument vectors of one round: sum with every method plus the probe,
    construct as csv and json, every orbit case and one small verify.
    Rounds cycle over CLI_DISTINCT_ROUNDS distinct sets, so every vector
    runs more than once in a measurement and repeats can be compared."""
    rng = _rng(seed, "cli", rnd % CLI_DISTINCT_ROUNDS)
    argvs: list[tuple[str, ...]] = []
    for method in ("lagrange", "halfangle", "auto", "naive"):
        argvs.append(("sum", "--phi", repr(_generic_angle(rng)),
                      "--m", str(_log_uniform_int(rng, 1, 10**4)), "--method", method))
    argvs.append(CLI_PROBE)
    for fmt in ("csv", "json"):
        argvs.append(("construct", "--alpha", repr(_generic_angle(rng)),
                      "--n", str(_log_uniform_int(rng, 1, 1000)),
                      "--start-line", rng.choice(("x", "e")), "--format", fmt))
    for n, fmt in ORBIT_CASES:
        argvs.append(("orbit", "--n", str(n), "--steps", "2048", "--format", fmt))
    argvs.append(("verify", "--pair", "DecompositionVsHalfangle",
                  "--angle-min", repr(rng.uniform(0.05, 1.0)),
                  "--angle-max", repr(rng.uniform(5.2, TWO_PI - 0.05)),
                  "--steps", "200", "--counts", "1,2,3,32"))
    rng.shuffle(argvs)
    return argvs
