"""Measurement loops and the metrics they report.

Load comes from one caller in a closed loop: the next op starts when the
previous one has returned, and at most one CLI child runs at a time. A run
executes whole blocks until the summed op time reaches --seconds.
"""

from __future__ import annotations

import gc
import random
import statistics
from collections import defaultdict
from pathlib import Path

from . import gen
from .spans import Tracer
from .stats import (
    REFERENCE_NOMINAL_NS,
    Reservoir,
    environment,
    failed_frac,
    percentile,
    reference_ns,
    tail_percentile,
)
from .workloads import SUBCOMMANDS, Workload, fresh_import_s

#: Op times kept per run; the tail percentile is chosen within this sample.
RESERVOIR_SIZE = 1 << 14
#: Reference probes (one before each block, one after the last) per factor.
REFERENCE_WINDOW = 6
#: Directory under the checkout root that traced runs write to.
OUT_DIR_NAME = ".perfbench_out"

#: name -> unit of every end-to-end metric (untraced run).
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "err_p95_m_eps": "m_eps",
    "peak_rss_mb": "MB",
}

_PAIRS = ("LagrangeVsNaive", "DecompositionVsHalfangle", "ProjectionVsClosedForm")

#: name -> unit of every per-layer metric (traced run), per pass over the
#: workload's trace set. A layer the workload does not exercise reports 0.
PER_LAYER = {
    "kernels.sum_auto.calls": "count",
    "kernels.sum_auto.self_ns_per_call": "ns",
    "kernels.spec.ns_per_call": "ns",
    "kernels.closed.calls": "count",
    "kernels.closed.ns_per_call": "ns",
    "kernels.naive.calls": "count",
    "kernels.naive.terms": "count",
    "kernels.naive.ns_per_term": "ns",
    "kernels.naive.busy_s": "s",
    "kernels.fallback_share": "ratio",
    "verify.sweeps": "count",
    "verify.grid_points": "count",
    "verify.evaluated": "count",
    "verify.skipped": "count",
    "verify.self_s": "s",
    "verify.oracle_terms": "count",
    "verify.oracle_terms_needed": "count",
    **{f"verify.max_abs_residual.{pair}": "abs" for pair in _PAIRS},
    "geometry.construct.calls": "count",
    "geometry.construct.points": "count",
    "geometry.construct.ns_per_point": "ns",
    "geometry.construct.tangencies": "count",
    "geometry.construct.reuse_ratio": "ratio",
    "geometry.projection.terms": "count",
    "geometry.projection.busy_s": "s",
    "chebyshev.u.calls": "count",
    "chebyshev.u.degree_steps": "count",
    "chebyshev.u.ns_per_step": "ns",
    "orbit.samples.points": "count",
    "orbit.samples.busy_s": "s",
    "orbit.emit.bytes": "bytes",
    "orbit.emit.busy_s": "s",
    "cli.interp_s": "s",
    "cli.import_s": "s",
    **{f"cli.run_ms.{sub}": "ms" for sub in SUBCOMMANDS},
    "cli.stdout_bytes": "bytes",
    "trace.ops": "count",
    "trace.overhead_ratio": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Loop:
    """Runs blocks, feeding op times to a reservoir and outputs to the checks.

    A fixed reference loop runs before the first block and after every
    block; its times give each block a host-speed factor (see stats.py)."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.latencies = Reservoir(RESERVOIR_SIZE, random.Random(f"{seed}:reservoir"))
        self.attempted = 0
        self.failed = 0
        #: (ops, summed op time in ns) per block
        self.blocks: list[tuple[int, int]] = []
        self.reference = [reference_ns()]

    def block(self, index: int) -> int:
        """Run and check one block; returns its summed op time in ns."""
        times, outputs = self.workload.run_block(index)
        self.reference.append(reference_ns())
        for elapsed in times:
            self.latencies.add((elapsed, len(self.blocks)))
        busy = sum(times)
        self.blocks.append((len(times), busy))
        self.attempted += len(times)
        self.failed += self.workload.check_block(index, outputs)
        return busy

    def factors(self) -> list[float]:
        """Per block: nominal over the median reference time of the
        REFERENCE_WINDOW probes nearest the block (one probe is noisy; a
        slow or fast spell of the host lasts seconds)."""
        if not self.workload.host_scaled:
            return [1.0] * len(self.blocks)
        ref, half = self.reference, REFERENCE_WINDOW // 2
        return [REFERENCE_NOMINAL_NS / statistics.median(ref[max(0, i + 1 - half):i + 1 + half])
                for i in range(len(self.blocks))]

    def until(self, seconds: float, start: int = 0, at_least: int = 0) -> tuple[int, int]:
        """Run blocks from `start` until `seconds` of op time and `at_least`
        blocks; returns (blocks run, op time in ns)."""
        busy = 0
        index = start
        while busy < seconds * 1e9 or index - start < at_least:
            busy += self.block(index)
            index += 1
        return index - start, busy


def _timing(loop: Loop, factors: list[float]) -> dict:
    ordered = sorted(ns * factors[block] for ns, block in loop.latencies.items)
    tail_pct = tail_percentile(len(ordered))
    return {
        # median over blocks: a slow spell of the machine shifts few blocks
        "ops_per_s": statistics.median(
            ops / (busy * factor / 1e9) for (ops, busy), factor in zip(loop.blocks, factors)),
        "op_p50_ms": percentile(ordered, 50.0) / 1e6,
        "op_tail_ms": percentile(ordered, tail_pct) / 1e6,
        "tail_pct": tail_pct,
        "samples": len(ordered),
    }


def run_untraced(workload: Workload, seed: int, seconds: float) -> tuple[Loop, dict]:
    setup_s = fresh_import_s(workload.root, workload.setup_module)
    loop = Loop(workload, seed)
    loop.until(seconds, at_least=workload.min_blocks)
    factors = loop.factors()
    timing = _timing(loop, factors)
    wall = _timing(loop, [1.0] * len(factors))
    errors = sorted(workload.errors)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": timing["ops_per_s"],
        "op_p50_ms": timing["op_p50_ms"],
        "op_tail_ms": timing["op_tail_ms"],
        # no error is recorded for a failed op; with none left the run is
        # already incorrect and the figure is meaningless
        "err_p95_m_eps": percentile(errors, 95.0) if errors else 0.0,
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    workload.notes.update({
        "op_tail_percentile": timing["tail_pct"],
        "latency_samples": timing["samples"],
        "host_speed_factor": statistics.median(factors),
        "wall_ops_per_s": wall["ops_per_s"],
        "wall_op_p50_ms": wall["op_p50_ms"],
        "wall_op_tail_ms": wall["op_tail_ms"],
        "max_err_m_eps": errors[-1] if errors else 0.0,
        "errors_checked": len(errors),
        "ops_timed": loop.attempted,
        "failed_frac": failed_frac(loop.attempted, loop.failed),
    })
    return loop, metrics


def run_traced(workload: Workload, seed: int, seconds: float, trace_path: Path) -> tuple[Loop, dict]:
    """The workload's fixed trace set once untraced, then traced passes over
    the same set until --seconds in all. Every figure is per traced pass, so
    counts repeat exactly for a seed; traced over untraced pass time is the
    tracing overhead."""
    workload.trace_prepare()
    loop = Loop(workload, seed)
    blocks = range(workload.trace_blocks)
    untraced_ns = sum(loop.block(index) for index in blocks)
    tracer = Tracer()
    workload.install(tracer)
    passes = 0
    traced_ns = 0
    try:
        while passes == 0 or untraced_ns + traced_ns < seconds * 1e9:
            for index in blocks:
                traced_ns += loop.block(index)
                tracer.fold()
            passes += 1
    finally:
        tracer.restore()
    tracer.write(trace_path, {"workload": workload.name, "seed": seed, "passes": passes})
    ops_per_pass = loop.attempted // (passes + 1)
    metrics = layer_metrics(tracer, workload, passes, ops_per_pass,
                            traced_ns / passes / untraced_ns)
    workload.notes.update({
        "failed_frac": failed_frac(loop.attempted, loop.failed),
        "trace_blocks": workload.trace_blocks,
        "traced_passes": passes,
        "trace_file": str(trace_path),
    })
    return loop, metrics


def layer_metrics(tracer: Tracer, workload: Workload, passes: int, ops_per_pass: int,
                  overhead: float) -> dict:
    """Per-layer figures of one pass over the trace set."""
    calls, busy, own, counters = (
        defaultdict(float, {name: value / passes for name, value in table.items()})
        for table in (tracer.calls, tracer.busy_ns, tracer.self_ns, tracer.counters))
    return {
        "kernels.sum_auto.calls": calls["kernels.sum_auto"],
        "kernels.sum_auto.self_ns_per_call": _ratio(own["kernels.sum_auto"],
                                                    calls["kernels.sum_auto"]),
        "kernels.spec.ns_per_call": _ratio(busy["kernels.spec"], calls["kernels.spec"]),
        "kernels.closed.calls": calls["kernels.closed"],
        "kernels.closed.ns_per_call": _ratio(busy["kernels.closed"], calls["kernels.closed"]),
        "kernels.naive.calls": calls["kernels.naive"],
        "kernels.naive.terms": counters["kernels.naive.terms"],
        "kernels.naive.ns_per_term": _ratio(busy["kernels.naive"],
                                            counters["kernels.naive.terms"]),
        "kernels.naive.busy_s": busy["kernels.naive"] / 1e9,
        "kernels.fallback_share": _ratio(counters["kernels.sum_auto.fallbacks"],
                                         calls["kernels.sum_auto"]),
        "verify.sweeps": calls["verify.sweep"],
        "verify.grid_points": counters["verify.grid_points"],
        "verify.evaluated": counters["verify.evaluated"],
        "verify.skipped": counters["verify.skipped"],
        "verify.self_s": own["verify.sweep"] / 1e9,
        "verify.oracle_terms": counters["verify.oracle_terms"],
        "verify.oracle_terms_needed": counters["verify.oracle_terms_needed"],
        # maxima, not totals: not divided by the pass count
        **{f"verify.max_abs_residual.{pair}": tracer.counters[f"verify.max_abs_residual.{pair}"]
           for pair in _PAIRS},
        "geometry.construct.calls": calls["geometry.construct"],
        "geometry.construct.points": counters["geometry.construct.points"],
        "geometry.construct.ns_per_point": _ratio(busy["geometry.construct"],
                                                  counters["geometry.construct.points"]),
        "geometry.construct.tangencies": counters["geometry.construct.tangencies"],
        "geometry.construct.reuse_ratio": _ratio(counters["geometry.construct.points_needed"],
                                                 counters["geometry.construct.points"]),
        "geometry.projection.terms": counters["geometry.projection.terms"],
        "geometry.projection.busy_s": busy["geometry.projection"] / 1e9,
        "chebyshev.u.calls": calls["chebyshev.u"],
        "chebyshev.u.degree_steps": counters["chebyshev.u.degree_steps"],
        "chebyshev.u.ns_per_step": _ratio(busy["chebyshev.u"],
                                          counters["chebyshev.u.degree_steps"]),
        "orbit.samples.points": counters["orbit.samples.points"],
        "orbit.samples.busy_s": busy["orbit.samples"] / 1e9,
        "orbit.emit.bytes": counters["orbit.emit.bytes"],
        "orbit.emit.busy_s": busy["orbit.emit"] / 1e9,
        "cli.interp_s": workload.notes.get("cli.interp_s", 0.0),
        "cli.import_s": workload.notes.get("cli.import_s", 0.0),
        **{f"cli.run_ms.{sub}": _ratio(busy[f"cli.run.{sub}"], calls[f"cli.run.{sub}"]) / 1e6
           for sub in SUBCOMMANDS},
        "cli.stdout_bytes": _ratio(getattr(workload, "stdout_bytes", 0),
                                   getattr(workload, "ok_ops", 0)),
        "trace.ops": ops_per_pass,
        "trace.overhead_ratio": overhead,
    }


def run(workload_name: str, root: Path, seed: int, seconds: float,
        trace: bool) -> tuple[dict, dict]:
    """Returns (result line, report) for one workload run."""
    from .workloads import WORKLOADS

    workload = WORKLOADS[workload_name](root, seed)
    # The harness's own long-lived objects (input pools, mpmath, caches) stay
    # out of the collector's scans, so its pauses come from the program.
    gc.collect()
    gc.freeze()
    if trace:
        path = root / OUT_DIR_NAME / f"trace-{workload_name}-seed{seed}.json"
        loop, values = run_traced(workload, seed, seconds, path)
        units = PER_LAYER
    else:
        loop, values = run_untraced(workload, seed, seconds)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }
    report = {
        "workload": workload_name,
        "why": gen.WHY[workload_name],
        "op": gen.OP[workload_name],
        "trace": trace,
        "env": environment(root, seed),
        **workload.notes,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }
    return result, report

