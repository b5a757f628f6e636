"""Command-line front end for construction, summation, verification, orbits,
and benchmarking.

Exit codes: 0 on success, 1 for domain errors (excluded angles, singular
denominators, bad ranges), 2 for usage errors. File output goes through a
temp file renamed into place, so a failing run never leaves a partial file.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

from .angle import Angle
from .bench import measure
from .errors import TrigsumError
from .formatting import json_line
from .geometry import ConstructionConfig, Line, construct_points
from .kernels import (
    DEFAULT_FULL_FORM,
    DEFAULT_THRESHOLD,
    FULL_FORMS,
    NAIVE,
    ROUTES,
    SumSpec,
    halfangle_free_sum,
    lagrange_sum,
    naive_trig_sum,
    sum_auto,
)
from .orbit import TWO_PI, EmitFormat, emit, orbit_samples
from .verify import GridSpec, ResidualPair, residual_sweep

#: Environment override for the fallback threshold of `sum` (decimal string).
THRESHOLD_ENV = "TRIGSUM_THRESHOLD"


def _add_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trigsum",
        description="Closed-form cosine sums, their brute-force cross-checks, "
        "and the two-line unit-segment construction behind them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="simulate the two-line point construction")
    p.add_argument("--alpha", type=float, required=True, help="opening angle in radians")
    p.add_argument("--n", type=int, required=True, help="number of points beyond the origin")
    p.add_argument("--start-line", choices=["x", "e"], default="x",
                   help="line carrying the first unit point (default: x)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    _add_out(p)

    p = sub.add_parser("sum", help="evaluate a full-family cosine partial sum")
    p.add_argument("--phi", type=float, required=True, help="angle in radians")
    p.add_argument("--m", type=int, required=True, help="number of terms")
    p.add_argument("--method", choices=[*FULL_FORMS, "auto", NAIVE], default="auto")
    p.add_argument("--threshold", type=float, default=None,
                   help=f"singularity threshold (default {DEFAULT_THRESHOLD:g}, "
                        f"or ${THRESHOLD_ENV})")
    _add_out(p)

    p = sub.add_parser("verify", help="sweep a residual pair over an angle grid")
    p.add_argument("--pair", choices=[pair.value for pair in ResidualPair], required=True)
    p.add_argument("--angle-min", type=float, required=True)
    p.add_argument("--angle-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--counts", required=True, help="comma-separated term counts")
    p.add_argument("--guard", type=float, default=0.01,
                   help="minimum denominator magnitude (default 0.01)")
    p.add_argument("--rows", action="store_true",
                   help="emit per-point CSV rows instead of the JSON summary")
    _add_out(p)

    p = sub.add_parser("orbit", help="sample the orbit curve of a construction point")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha-min", type=float, default=0.0)
    p.add_argument("--alpha-max", type=float, default=TWO_PI)
    p.add_argument("--steps", type=int, default=1024)
    p.add_argument("--format", choices=["csv", "json", "svg"], required=True)
    _add_out(p)

    p = sub.add_parser("bench", help="time the naive sum against the closed form")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--repeats", type=int, required=True)
    _add_out(p)

    return parser


def _parse_counts(parser: argparse.ArgumentParser, text: str) -> tuple[int, ...]:
    try:
        counts = tuple(int(part) for part in text.split(","))
    except ValueError:
        parser.error(f"--counts expects comma-separated integers, got {text!r}")
    if not counts or any(c < 1 for c in counts):
        parser.error(f"--counts entries must be >= 1, got {text!r}")
    return counts


def _resolve_threshold(parser: argparse.ArgumentParser, flag_value: float | None) -> float:
    if flag_value is not None:
        return flag_value
    raw = os.environ.get(THRESHOLD_ENV)
    if raw is None:
        return DEFAULT_THRESHOLD
    try:
        return float(raw)
    except ValueError:
        parser.error(f"invalid {THRESHOLD_ENV} value {raw!r}")


def _run_construct(args: argparse.Namespace) -> str:
    cfg = ConstructionConfig(alpha=Angle(args.alpha), n=args.n, start_line=Line(args.start_line))
    seq = construct_points(cfg)
    if args.format == "csv":
        return seq.to_csv()
    return json_line({
        "alpha": seq.alpha.radians,
        "start_line": seq.start_line.value,
        "points": [(p.index, p.line.value, p.point.x, p.point.y) for p in seq.points],
        "tangency_events": seq.tangency_events,
    })


def _run_sum(args: argparse.Namespace) -> str:
    threshold = args.effective_threshold
    if args.method == "auto":
        result = sum_auto(SumSpec(Angle(args.phi), args.m), threshold=threshold)
        value, method, proximity = result.value, result.method.value, result.singular_proximity
    elif args.method == NAIVE:
        # reported against the denominator of sum_auto's default form
        value = naive_trig_sum(SumSpec(Angle(args.phi), args.m))
        method, proximity = NAIVE, abs(ROUTES[DEFAULT_FULL_FORM].denominator(args.phi))
    else:
        kernel = {"lagrange": lagrange_sum, "halfangle": halfangle_free_sum}[args.method]
        value = kernel(args.phi, args.m, threshold=threshold)
        method, proximity = args.method, abs(ROUTES[args.method].denominator(args.phi))
    return json_line({"value": value, "method": method, "singular_proximity": proximity})


def _run_verify(args: argparse.Namespace) -> str:
    grid = GridSpec(args.angle_min, args.angle_max, args.steps, args.counts_list, args.guard)
    report = residual_sweep(grid, ResidualPair(args.pair), keep_rows=args.rows)
    return report.to_csv() if args.rows else report.to_json()


def _run_orbit(args: argparse.Namespace) -> bytes:
    curve = orbit_samples(args.n, args.alpha_min, args.alpha_max, args.steps)
    return emit(curve, EmitFormat(args.format))


def _run_bench(args: argparse.Namespace) -> str:
    return measure(args.m, args.repeats).to_json()


_HANDLERS = {
    "construct": _run_construct,
    "sum": _run_sum,
    "verify": _run_verify,
    "orbit": _run_orbit,
    "bench": _run_bench,
}


def _write_output(payload: str | bytes, out_path: str | None) -> None:
    data = payload.encode("utf-8") if isinstance(payload, str) else payload
    if out_path is None:
        sys.stdout.write(data.decode("utf-8"))
        sys.stdout.flush()
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".trigsum-tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, out_path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def run(argv: list[str] | None = None) -> int:
    """Parse argv, run the subcommand, write its output. Returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "verify":
            args.counts_list = _parse_counts(parser, args.counts)
        elif args.command == "sum":
            args.effective_threshold = _resolve_threshold(parser, args.threshold)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    try:
        payload = _HANDLERS[args.command](args)
    except (TrigsumError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        _write_output(payload, args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out or 'stdout'}: {exc.strerror or exc}",
              file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
