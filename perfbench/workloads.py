"""The four workloads: timed ops, untimed correctness checks, layer wiring.

A workload runs in blocks (a pass over the point_stream pool, one stratified
near_singular block, one sweep round, one CLI round). Each op is timed alone;
each block is checked after its timing ends, so checks never count as load.
With a tracer, the library's public functions are wrapped at the module
attributes their callers look them up through.
"""

from __future__ import annotations

import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

from trigsum import Angle, Family, SumSpec, geometry, kernels, orbit, verify

from . import gen
from .reference import EPS, err_m_eps, reference_sum
from .spans import Tracer

clock = time.perf_counter_ns

#: Criterion bounds checked on every sweep shard (criteria 1 and 4).
SWEEP_BOUNDS = {"LagrangeVsNaive": 1e-8, "DecompositionVsHalfangle": 1e-9}
#: Terms of the full sum a pair's count stands for, to scale its residual.
SWEEP_TERMS = {"LagrangeVsNaive": 1, "DecompositionVsHalfangle": 2}
#: Pairs whose second route is the naive oracle.
NAIVE_PAIRS = ("LagrangeVsNaive", "HalfangleVsNaive", "EvenVsNaive", "OddVsNaive")
SUBCOMMANDS = ("construct", "sum", "verify", "orbit")
SETUP_REPEATS = 7


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("TRIGSUM_THRESHOLD", None)  # the workloads fix their own threshold
    return env


def fresh_import_s(root: Path, module: str) -> float:
    """Median import time of `module` in fresh interpreters, timed inside the
    child. One untimed import first fills the bytecode cache of a fresh
    checkout and the page cache behind numpy."""
    code = ("import time; t = time.perf_counter(); import " + module +
            "; print(repr(time.perf_counter() - t))")
    times = []
    for _ in range(1 + SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], env=child_env(root), cwd=root,
                             capture_output=True, text=True, check=True, timeout=120)
        times.append(float(out.stdout))
    return statistics.median(times[1:])


def interpreter_s(root: Path) -> float:
    """Median wall time of `python -c pass`."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        subprocess.run([sys.executable, "-c", "pass"], env=child_env(root), cwd=root,
                       check=True, timeout=120)
        times.append((clock() - t0) / 1e9)
    return statistics.median(times)


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sum_ok(query: gen.Query, output: object) -> bool:
    """Per-op contract of sum_auto (criterion 7) on an op's output
    (value, flagged NaiveFallback): a finite value no larger in magnitude
    than count + 1 (|sum| <= count exactly; the slack is far above every
    known rounding defect), flagged exactly when the denominator magnitude
    is below the threshold."""
    if not isinstance(output, tuple):
        return False
    value, fallback = output
    if not isinstance(value, float) or not math.isfinite(value):
        return False
    if abs(value) > query.count + 1.0:
        return False
    if query.family == "full" and query.full_form == "lagrange":
        proximity = abs(math.sin(0.5 * query.phi))
    else:
        proximity = abs(math.sin(query.phi))
    return fallback == (proximity < gen.THRESHOLD)


class Workload:
    """Interface shared by the four workloads."""

    name = ""
    setup_module = "trigsum"
    #: Blocks every measurement runs, however short --seconds is.
    min_blocks = 1
    #: Blocks of one pass of the traced run.
    trace_blocks = 1

    def __init__(self, root: Path, seed: int) -> None:
        self.root = root
        self.seed = seed
        #: Errors in count * 2^-52, one per checked sum (or sweep shard).
        self.errors: list[float] = []
        self.notes: dict = {}

    #: Whether op times are scaled by the host-speed factor (see stats.py).
    host_scaled = True

    def run_block(self, block: int) -> tuple[list[int], list]:
        """Run one block; returns each op's time in ns and its output."""
        raise NotImplementedError

    def check_block(self, block: int, outputs: list) -> int:
        """Check one block's outputs; returns the number of failed ops."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()

    def install(self, tracer: Tracer) -> None:
        install_library_spans(tracer)

    def trace_prepare(self) -> None:
        """Extra untimed measurements that only the traced run reports."""


class _SumWorkload(Workload):
    def __init__(self, root: Path, seed: int) -> None:
        super().__init__(root, seed)
        families = {family.value: family for family in Family}

        def make_spec(phi, count, family):
            return SumSpec(Angle(phi), count, families[family])

        self.make_spec = make_spec
        self.notes["fallbacks"] = 0

    def install(self, tracer: Tracer) -> None:
        super().install(tracer)
        self.make_spec = tracer.wrap("kernels.spec", self.make_spec)

    def queries(self, block: int) -> list[gen.Query]:
        raise NotImplementedError

    def run_block(self, block: int) -> tuple[list[int], list]:
        sum_auto, make_spec = kernels.sum_auto, self.make_spec
        fallback = kernels.Method.NAIVE_FALLBACK
        times, outputs = [], []
        for q in self.queries(block):
            t0 = clock()
            try:
                result = sum_auto(make_spec(q.phi, q.count, q.family), full_form=q.full_form)
            except Exception as exc:  # a raising op is a failed op, not a crash
                result = exc
            times.append(clock() - t0)
            # Keep plain values, not the result objects: a block's worth of
            # live objects would make the collector's pauses the harness's.
            outputs.append((getattr(result, "value", None),
                            getattr(result, "method", None) is fallback))
        return times, outputs

    def check_fresh(self, queries, outputs) -> list[bool]:
        """Check each output and record its error; returns the verdicts."""
        verdicts = []
        for q, output in zip(queries, outputs):
            ok = sum_ok(q, output)
            verdicts.append(ok)
            if ok:
                value, fallback = output
                self.notes["fallbacks"] += fallback
                ref = reference_sum(q.phi, q.count, q.family)
                self.errors.append(err_m_eps(value, ref, q.count))
        return verdicts


class PointStream(_SumWorkload):
    name = "point_stream"

    def __init__(self, root: Path, seed: int) -> None:
        super().__init__(root, seed)
        self.pool = gen.point_stream_pool(seed)
        self.first: list | None = None

    def queries(self, block: int) -> list[gen.Query]:
        return self.pool

    def check_block(self, block, outputs) -> int:
        if self.first is None:
            # The first pass is checked in full; later passes must repeat it.
            self.first_ok = self.check_fresh(self.pool, outputs)
            self.first = outputs
            return self.first_ok.count(False)
        return sum(1 for ok, a, b in zip(self.first_ok, self.first, outputs)
                   if not ok or a != b)


class NearSingular(_SumWorkload):
    name = "near_singular"
    trace_blocks = 4

    def queries(self, block: int) -> list[gen.Query]:
        return gen.near_singular_block(self.seed, block)

    def check_block(self, block, outputs) -> int:
        return self.check_fresh(self.queries(block), outputs).count(False)


class Sweep(Workload):
    name = "sweep"
    min_blocks = trace_blocks = gen.SWEEP_FULL_PASS

    def __init__(self, root: Path, seed: int) -> None:
        super().__init__(root, seed)
        self.first: dict[tuple[str, int], str] = {}

    def run_block(self, block: int) -> list[tuple[int, object]]:
        residual_sweep = verify.residual_sweep
        times, outputs = [], []
        for shard in gen.sweep_round(self.seed, block):
            grid = verify.GridSpec(shard.angle_min, shard.angle_max, shard.steps,
                                   shard.counts, shard.guard)
            pair = verify.ResidualPair(shard.pair)
            t0 = clock()
            try:
                report = residual_sweep(grid, pair)
            except Exception as exc:  # a raising op is a failed op
                report = exc
            times.append(clock() - t0)
            outputs.append(report)
        return times, outputs

    def check_block(self, block, outputs) -> int:
        failed = 0
        for shard, report in zip(gen.sweep_round(self.seed, block), outputs):
            repeat = (shard.pair, shard.index) in self.first
            if not self.report_ok(shard, report):
                failed += 1
                continue
            # each distinct shard counts once, however often a run repeats it
            if shard.pair in SWEEP_TERMS and not repeat:
                terms = SWEEP_TERMS[shard.pair] * report.argmax_count
                self.errors.append(report.max_abs_residual / (terms * EPS))
        return failed

    def report_ok(self, shard: gen.Shard, report: object) -> bool:
        """Grid accounting, the criterion bound of the pair, and byte-identical
        JSON whenever a shard repeats."""
        if not hasattr(report, "to_json"):
            return False
        if report.evaluated + report.skipped != shard.steps * len(shard.counts):
            return False
        if not report.max_abs_residual <= SWEEP_BOUNDS.get(shard.pair, math.inf):
            return False
        text = report.to_json()
        return self.first.setdefault((shard.pair, shard.index), text) == text


class Cli(Workload):
    """Only this workload imports trigsum.cli, so the in-process workloads
    carry the import state and memory of a library caller."""

    name = "cli"
    setup_module = "trigsum.cli"
    trace_blocks = gen.CLI_DISTINCT_ROUNDS
    # Ops run in child processes, mostly start-up and import, which the
    # parent's reference loop does not track: scaling by it took the spread
    # of ops_per_s over ten seeds from 0.06 to 0.19.
    host_scaled = False

    def __init__(self, root: Path, seed: int) -> None:
        super().__init__(root, seed)
        self.env = child_env(root)
        # stdout of trigsum.cli.run in this process; None when it failed
        self.expected: dict[tuple[str, ...], bytes | None] = {}
        from trigsum import cli

        for rnd in range(gen.CLI_DISTINCT_ROUNDS):
            for argv in gen.cli_round(seed, rnd):
                _, (code, data) = _in_process(cli.run, argv)
                self.expected[argv] = data if code == 0 else None
        self.first: dict[tuple[str, ...], bytes] = {}
        self.child_rss_kb = 0
        self.stdout_bytes = 0
        self.ok_ops = 0
        self.in_process = False

    def run_block(self, block: int) -> tuple[list[int], list]:
        argvs = gen.cli_round(self.seed, block)
        if self.in_process:
            timed = [_in_process(self.runners[argv[0]], argv) for argv in argvs]
            return [ns for ns, _ in timed], [output for _, output in timed]
        times, outputs = [], []
        for argv in argvs:
            t0 = clock()
            proc = subprocess.Popen([sys.executable, "-m", "trigsum.cli", *argv],
                                    stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                    env=self.env, cwd=self.root)
            with proc.stdout:
                data = proc.stdout.read()
            # wait4 instead of wait(): the child's own peak RSS comes with it
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = clock() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
            times.append(elapsed)
            outputs.append((proc.returncode, data))
        return times, outputs

    def check_block(self, block, outputs) -> int:
        failed = 0
        for argv, (code, data) in zip(gen.cli_round(self.seed, block), outputs):
            first = self.first.setdefault(argv, data)
            if code != 0 or data != self.expected[argv] or data != first:
                failed += 1
                self.notes.setdefault("first_failure", {"argv": list(argv), "exit": code})
                continue
            self.stdout_bytes += len(data)
            self.ok_ops += 1
            if argv[0] == "sum":
                phi, m = float(argv[2]), int(argv[4])
                value = json.loads(data)["value"]
                self.errors.append(err_m_eps(value, reference_sum(phi, m, "full"), m))
        return failed

    def peak_rss_mb(self) -> float:
        return self.child_rss_kb / 1024.0

    def install(self, tracer: Tracer) -> None:
        from trigsum import cli

        super().install(tracer)
        install_cli_spans(tracer)
        # The traced run drives trigsum.cli.run in process, where spans can
        # be recorded; child processes stay untraced.
        self.in_process = True
        self.runners = {sub: tracer.wrap(f"cli.run.{sub}", cli.run) for sub in SUBCOMMANDS}

    def trace_prepare(self) -> None:
        from trigsum import cli

        self.in_process = True
        self.runners = {sub: cli.run for sub in SUBCOMMANDS}
        self.notes["cli.interp_s"] = interpreter_s(self.root)
        self.notes["cli.import_s"] = fresh_import_s(self.root, "trigsum.cli")


def _in_process(run, argv: tuple[str, ...]) -> tuple[int, tuple[int, bytes]]:
    """Time one trigsum.cli.run call; returns (ns, (exit code, stdout bytes))."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        t0 = clock()
        try:
            code = run(list(argv))
        except Exception:  # a raising op is a failed op
            code = -1
        elapsed = clock() - t0
    return elapsed, (code, buf.getvalue().encode("utf-8"))


WORKLOADS = {cls.name: cls for cls in (PointStream, NearSingular, Sweep, Cli)}


# -- layer wiring -------------------------------------------------------------


def _count_naive(counters, args, kwargs, result):
    counters["kernels.naive.terms"] += args[0].count


def _count_sum_auto(counters, args, kwargs, result):
    counters["kernels.sum_auto.fallbacks"] += result.method.value == "NaiveFallback"


def _count_construct(counters, args, kwargs, result):
    counters["geometry.construct.points"] += len(result.points)
    counters["geometry.construct.tangencies"] += len(result.tangency_events)


def _count_projection(counters, args, kwargs, result):
    counters["geometry.projection.terms"] += args[2] if len(args) > 2 else kwargs["count"]


def _count_chebyshev(counters, args, kwargs, result):
    x = args[1] if len(args) > 1 else kwargs["x"]
    counters["chebyshev.u.degree_steps"] += args[0] * getattr(x, "size", 1)


def _count_orbit(counters, args, kwargs, result):
    counters["orbit.samples.points"] += len(result.samples)


def _count_emit(counters, args, kwargs, result):
    counters["orbit.emit.bytes"] += len(result)


def _count_sweep(counters, args, kwargs, result):
    grid, pair = args[0], args[1].value
    angles = result.evaluated // len(grid.counts)
    counters["verify.grid_points"] += grid.steps * len(grid.counts)
    counters["verify.evaluated"] += result.evaluated
    counters["verify.skipped"] += result.skipped
    key = f"verify.max_abs_residual.{pair}"
    counters[key] = max(counters[key], result.max_abs_residual)
    if pair in NAIVE_PAIRS:
        # one ordered prefix pass per angle up to the largest count suffices
        counters["verify.oracle_terms_needed"] += angles * max(grid.counts)
    if pair == "ProjectionVsClosedForm":
        # one construction per angle at the largest n = 2k + 2 suffices
        counters["geometry.construct.points_needed"] += angles * (2 * max(grid.counts) + 3)


def _wrap_sweep(tracer: Tracer, fn):
    inner = tracer.wrap("verify.sweep", fn, _count_sweep)
    counters = tracer.counters

    def sweep(*args, **kwargs):
        before = counters["kernels.naive.terms"]
        report = inner(*args, **kwargs)
        counters["verify.oracle_terms"] += counters["kernels.naive.terms"] - before
        return report

    return sweep


def install_library_spans(tracer: Tracer) -> None:
    """Wrap the library's public functions where sum_auto, verify, geometry
    and orbit look them up."""
    tracer.patch(kernels, "naive_trig_sum", "kernels.naive", _count_naive)
    for attr in ("lagrange_sum", "halfangle_free_sum", "even_index_sum", "odd_index_sum"):
        tracer.patch(kernels, attr, "kernels.closed")
    tracer.patch(kernels, "x_coordinate_identity", "kernels.x_identity")
    tracer.patch(kernels, "sum_auto", "kernels.sum_auto", _count_sum_auto)
    tracer.patch(geometry, "construct_points", "geometry.construct", _count_construct)
    tracer.patch(geometry, "projection_sum", "geometry.projection", _count_projection)
    tracer.patch(geometry, "chebyshev_u", "chebyshev.u", _count_chebyshev)
    tracer.patch(orbit, "chebyshev_form_point", "geometry.chebyshev_form")
    tracer.replace(verify, "residual_sweep", _wrap_sweep(tracer, verify.residual_sweep))


def _count_cli_construct(counters, args, kwargs, result):
    _count_construct(counters, args, kwargs, result)
    counters["geometry.construct.points_needed"] += len(result.points)


def install_cli_spans(tracer: Tracer) -> None:
    """Wrap the names trigsum.cli imported into its own namespace."""
    from trigsum import cli

    tracer.patch(cli, "sum_auto", "kernels.sum_auto", _count_sum_auto)
    tracer.patch(cli, "naive_trig_sum", "kernels.naive", _count_naive)
    tracer.patch(cli, "lagrange_sum", "kernels.closed")
    tracer.patch(cli, "halfangle_free_sum", "kernels.closed")
    tracer.patch(cli, "construct_points", "geometry.construct", _count_cli_construct)
    tracer.patch(cli, "orbit_samples", "orbit.samples", _count_orbit)
    tracer.patch(cli, "emit", "orbit.emit", _count_emit)
    tracer.replace(cli, "residual_sweep", _wrap_sweep(tracer, cli.residual_sweep))
