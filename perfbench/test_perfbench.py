"""Tests of the benchmark itself: inputs, arithmetic and failure accounting."""

import dataclasses
import json
import math
import random
from pathlib import Path

import pytest

from perfbench import gen
from perfbench.harness import END_TO_END, PER_LAYER
from perfbench.spans import Span, Tracer, self_times
from perfbench.stats import Reservoir, failed_frac, percentile, tail_percentile

ROOT = Path(__file__).resolve().parent.parent


def test_generators_are_deterministic_per_seed():
    assert gen.point_stream_pool(7, 500) == gen.point_stream_pool(7, 500)
    assert gen.point_stream_pool(7, 500) != gen.point_stream_pool(8, 500)
    assert gen.near_singular_block(7, 3) == gen.near_singular_block(7, 3)
    assert gen.near_singular_block(7, 3) != gen.near_singular_block(7, 4)
    assert gen.sweep_round(7, 5) == gen.sweep_round(7, 5)
    assert gen.sweep_round(7, 5) != gen.sweep_round(8, 5)
    assert gen.cli_round(7, 2) == gen.cli_round(7, 2 + gen.CLI_DISTINCT_ROUNDS)
    assert gen.cli_round(7, 0) != gen.cli_round(8, 0)


def test_near_singular_block_has_one_fallback_per_stratum():
    block = gen.near_singular_block(3, 0)
    assert len(block) == 1 + gen.NEAR_STRATA * len(gen.NEAR_BANDS)
    assert gen.NEAR_PROBE in block
    below = [q for q in block if abs(math.sin(q.phi)) < gen.THRESHOLD]
    assert len(below) == gen.NEAR_STRATA
    lo, hi = gen.NEAR_COUNT_RANGE
    assert all(lo <= q.count <= hi for q in block)


def test_sweep_shards_tile_the_exact_projection_grid():
    grid = next(g for g in gen.SWEEP_GRIDS if g.pair == "ProjectionVsClosedForm")
    angles = []
    for rnd in range(grid.shards):
        shard = next(s for s in gen.sweep_round(11, rnd) if s.pair == grid.pair)
        span = shard.angle_max - shard.angle_min
        angles += [shard.angle_min + span * i / (shard.steps - 1) for i in range(shard.steps)]
    step = (grid.hi - grid.lo) / (grid.angles - 1)
    expected = [grid.lo + step * t for t in range(grid.angles)]
    assert sorted(angles) == pytest.approx(expected, abs=1e-12)


def test_self_time_subtracts_child_coverage_once():
    spans = [
        Span("root", 0, 100, -1),
        Span("a", 10, 30, 0),
        Span("b", 20, 50, 0),    # overlaps a: 10..50 is covered once
        Span("c", 90, 120, 0),   # clipped to the parent's end
        Span("leaf", 12, 18, 1),
    ]
    assert self_times(spans) == [100 - 40 - 10, 20 - 6, 30, 30, 6]


def test_tracer_records_nesting_and_restores():
    class Lib:
        @staticmethod
        def inner(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Lib.inner(x) * 2

    tracer = Tracer()
    tracer.patch(Lib, "inner", "inner", lambda c, a, k, r: c.__setitem__("n", c["n"] + a[0]))
    tracer.patch(Lib, "outer", "outer")
    assert Lib.outer(3) == 8
    tracer.fold()
    tracer.restore()
    assert tracer.calls == {"inner": 1, "outer": 1}
    assert tracer.counters["n"] == 3
    assert tracer.self_ns["outer"] == tracer.busy_ns["outer"] - tracer.busy_ns["inner"]
    assert [s.parent for s in tracer.kept] == [-1, 0]
    assert not hasattr(Lib.inner, "__wrapped__")


def test_host_speed_factors_use_the_median_probe_near_each_block():
    from perfbench.harness import REFERENCE_WINDOW, Loop
    from perfbench.stats import REFERENCE_NOMINAL_NS as nominal

    class Scaled:
        host_scaled = True

    loop = Loop(Scaled(), 1)
    loop.blocks = [(10, 1000)] * 8
    loop.reference = [nominal] * 4 + [2 * nominal] * 5
    factors = loop.factors()
    assert REFERENCE_WINDOW == 6
    assert factors[0] == 1.0 and factors[-1] == 0.5
    loop.reference = [nominal] * 4 + [10 * nominal] + [nominal] * 4
    assert loop.factors() == [1.0] * 8  # one stray probe does not move a block
    Scaled.host_scaled = False
    loop.reference = [2 * nominal] * 9
    assert loop.factors() == [1.0] * 8


def test_percentiles_and_tail_choice():
    values = [float(v) for v in range(101)]
    assert percentile(values, 50.0) == 50.0
    assert percentile(values, 99.5) == pytest.approx(99.5)
    assert tail_percentile(15) == 50.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(200_000) == 99.0


def test_reservoir_is_bounded_and_uniform():
    sample = Reservoir(1000, random.Random(1))
    for value in range(100_000):
        sample.add(value)
    assert sample.seen == 100_000 and len(sample.items) == 1000
    assert 40_000 < percentile(sorted(sample.items), 50.0) < 60_000


def test_wrong_values_count_toward_failed_frac():
    from perfbench.workloads import PointStream, sum_ok

    wl = PointStream(ROOT, 5)
    wl.pool = wl.pool[:40]
    _, first = wl.run_block(0)
    value, fallback = first[5]
    assert sum_ok(wl.pool[5], (value, fallback))
    assert not sum_ok(wl.pool[5], (value, not fallback))
    assert not sum_ok(wl.pool[5], (wl.pool[5].count + 2.0, fallback))
    first[3] = (math.nan, first[3][1])
    assert wl.check_block(0, first) == 1
    _, again = wl.run_block(1)
    again[9] = (again[9][0] + 1e-9, again[9][1])
    # op 3 failed on the first pass, and op 9 now differs from it
    failed = 1 + wl.check_block(1, again)
    assert failed == 3
    assert failed_frac(80, failed) == 3 / 80


def test_sweep_report_accounting_is_checked():
    from trigsum import verify

    from perfbench.workloads import Sweep

    wl = Sweep(ROOT, 2)
    shard = dataclasses.replace(gen.sweep_round(2, 0)[0], steps=4)
    grid = verify.GridSpec(shard.angle_min, shard.angle_max, shard.steps, shard.counts,
                           shard.guard)
    report = verify.residual_sweep(grid, verify.ResidualPair(shard.pair))
    assert wl.report_ok(shard, report)
    assert not wl.report_ok(shard, dataclasses.replace(report, skipped=report.skipped + 1))


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == gen.WHY
