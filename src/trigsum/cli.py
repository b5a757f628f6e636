"""Command-line front end for construction, summation, verification, orbits,
and benchmarking.

Exit codes: 0 on success, 1 for domain errors (excluded angles, singular
denominators, bad ranges, counts too large for a float), 2 for usage errors.
File output goes through a temp file renamed into place, so a failing run
never leaves a partial file.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from .errors import TrigsumError
from .formatting import json_line

#: The library names each subcommand reads from this module, by subcommand and
#: defining module. A subcommand's parser binds them here when it is invoked
#: (`_load`), so a process imports only what its subcommand runs. A name
#: already bound, such as a wrapper patched onto this module, is kept, and the
#: handlers call whatever is bound at call time.
_LIBRARY = {
    "construct": {"angle": ("Angle",),
                  "geometry": ("ConstructionConfig", "Line", "construct_points")},
    "sum": {"angle": ("Angle",),
            "kernels": ("DEFAULT_FULL_FORM", "DEFAULT_THRESHOLD", "FULL_FORMS", "NAIVE", "ROUTES",
                        "SumSpec", "halfangle_free_sum", "lagrange_sum", "naive_trig_sum",
                        "sum_auto")},
    "verify": {"verify": ("GridSpec", "ResidualPair", "residual_sweep")},
    "orbit": {"orbit": ("TWO_PI", "EmitFormat", "emit", "orbit_samples")},
    "bench": {"bench": ("measure",)},
}


def _load(command: str) -> None:
    namespace = globals()
    for module, names in _LIBRARY[command].items():
        # __import__, unlike importlib.import_module, shows in `python -X importtime`
        source = getattr(__import__(f"{__package__}.{module}"), module)
        for name in names:
            namespace.setdefault(name, getattr(source, name))


#: A negative decimal number, with an optional exponent: -5, -2.5, -.5e1, -1e-5.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser, which loads its library names and adds its
    arguments when it is invoked, `--help` included.

    `trigsum --help` lists only subcommand names and help strings, so a
    process imports, and builds the arguments of, only the subcommand it runs.
    """

    def __init__(self, *args, command, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._pending = command
        # argparse takes only -2 and -2.5 forms for negative numbers, and
        # -1e-5 for an unknown option; this also admits exponent forms
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def parse_known_args(self, args=None, namespace=None):
        if self._pending is not None:
            _load(self._pending)
            _SUBCOMMANDS[self._pending][1](self)
            self.add_argument("--out", metavar="PATH",
                              help="write output to PATH instead of stdout")
            self._pending = None
        return super().parse_known_args(args, namespace)


def _construct_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, required=True, help="opening angle in radians")
    p.add_argument("--n", type=int, required=True, help="number of points beyond the origin")
    p.add_argument("--start-line", choices=["x", "e"], default="x",
                   help="line carrying the first unit point (default: x)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")


def _sum_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--phi", type=float, required=True, help="angle in radians")
    p.add_argument("--m", type=int, required=True, help="number of terms")
    p.add_argument("--method", choices=[*FULL_FORMS, "auto", NAIVE], default="auto")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                   help=f"singularity threshold (default {DEFAULT_THRESHOLD:g})")


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pair", choices=[pair.value for pair in ResidualPair], required=True)
    p.add_argument("--angle-min", type=float, required=True)
    p.add_argument("--angle-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--counts", required=True, help="comma-separated term counts")
    p.add_argument("--guard", type=float, default=GridSpec.guard,
                   help=f"minimum denominator magnitude (default {GridSpec.guard:g})")
    p.add_argument("--rows", action="store_true",
                   help="emit per-point CSV rows instead of the JSON summary")


def _orbit_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha-min", type=float, default=0.0)
    p.add_argument("--alpha-max", type=float, default=TWO_PI)
    p.add_argument("--steps", type=int, default=1024)
    p.add_argument("--format", choices=["csv", "json", "svg"], required=True)


def _bench_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--repeats", type=int, required=True)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trigsum",
        description="Closed-form cosine sums, their brute-force cross-checks, "
        "and the two-line unit-segment construction behind them.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)
    for name, (help_text, _, _) in _SUBCOMMANDS.items():
        sub.add_parser(name, help=help_text, command=name)
    return parser


def _parse_counts(parser: argparse.ArgumentParser, text: str) -> tuple[int, ...]:
    try:
        counts = tuple(int(part) for part in text.split(","))
    except ValueError:
        parser.error(f"--counts expects comma-separated integers, got {text!r}")
    if any(c < 1 for c in counts):
        parser.error(f"--counts entries must be >= 1, got {text!r}")
    return counts


def _run_construct(args: argparse.Namespace) -> str:
    cfg = ConstructionConfig(alpha=Angle(args.alpha), n=args.n, start_line=Line(args.start_line))
    seq = construct_points(cfg)
    return seq.to_csv() if args.format == "csv" else seq.to_json()


def _run_sum(args: argparse.Namespace) -> str:
    if args.method == "auto":
        result = sum_auto(SumSpec(Angle(args.phi), args.m), threshold=args.threshold)
        value, method, proximity = result.value, result.method.value, result.singular_proximity
    elif args.method == NAIVE:
        # reported against the denominator of sum_auto's default form
        value = naive_trig_sum(SumSpec(Angle(args.phi), args.m))
        method, proximity = NAIVE, abs(ROUTES[DEFAULT_FULL_FORM].denominator(args.phi))
    else:
        kernel = {"lagrange": lagrange_sum, "halfangle": halfangle_free_sum}[args.method]
        value = kernel(args.phi, args.m, threshold=args.threshold)
        method, proximity = args.method, abs(ROUTES[args.method].denominator(args.phi))
    return json_line({"value": value, "method": method, "singular_proximity": proximity})


def _run_verify(args: argparse.Namespace) -> str:
    grid = GridSpec(args.angle_min, args.angle_max, args.steps, args.counts_list, args.guard)
    report = residual_sweep(grid, ResidualPair(args.pair), keep_rows=args.rows)
    return report.to_csv() if args.rows else report.to_json()


def _run_orbit(args: argparse.Namespace) -> str:
    curve = orbit_samples(args.n, args.alpha_min, args.alpha_max, args.steps)
    return emit(curve, EmitFormat(args.format)).decode("utf-8")


def _run_bench(args: argparse.Namespace) -> str:
    return measure(args.m, args.repeats).to_json()


#: Each subcommand's help line, the function adding its arguments, and its handler.
_SUBCOMMANDS = {
    "construct": ("simulate the two-line point construction", _construct_arguments,
                  _run_construct),
    "sum": ("evaluate a full-family cosine partial sum", _sum_arguments, _run_sum),
    "verify": ("sweep a residual pair over an angle grid", _verify_arguments, _run_verify),
    "orbit": ("sample the orbit curve of a construction point", _orbit_arguments, _run_orbit),
    "bench": ("time the naive sum against the closed form", _bench_arguments, _run_bench),
}


def _write_output(payload: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(payload)
        sys.stdout.flush()
        return
    import tempfile

    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".trigsum-tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
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
    except SystemExit as exc:
        return exc.code

    try:
        payload = _SUBCOMMANDS[args.command][2](args)
    except (TrigsumError, ValueError, OverflowError) as exc:
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
