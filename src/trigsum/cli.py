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


def _load(command: str) -> None:
    """Bind the library names of command into this module. A name already
    bound, such as a wrapper patched onto this module, is kept."""
    namespace = globals()
    for module, names in _SUBCOMMANDS[command][1].items():
        # __import__, unlike importlib.import_module, shows in `python -X importtime`
        source = getattr(__import__(f"{__package__}.{module}"), module)
        for name in names:
            namespace.setdefault(name, getattr(source, name))


#: A negative number as float() reads it: a decimal with an optional exponent
#: (-5, -2.5, -.5e1, -1e-5), or -inf, -infinity or -nan in any case.
_NEGATIVE_NUMBER = re.compile(r"^-((\d+\.?\d*|\.\d+)(e[+-]?\d+)?|inf(inity)?|nan)$",
                              re.IGNORECASE)


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
        # -1e-5 or -inf for an unknown option; this also admits those
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def parse_known_args(self, args=None, namespace=None):
        if self._pending is not None:
            _load(self._pending)
            _SUBCOMMANDS[self._pending][2](self)
            self.add_argument("--out", metavar="PATH",
                              help="write output to PATH instead of stdout")
            self._pending = None
        return super().parse_known_args(args, namespace)


def _construct_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, required=True, help="opening angle in radians")
    p.add_argument("--n", type=int, required=True, help="number of points beyond the origin")
    p.add_argument("--start-line", choices=[line.value for line in Line], default="x",
                   help="line carrying the first unit point (default: x)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")


def _sum_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--phi", type=float, required=True, help="angle in radians")
    p.add_argument("--m", type=int, required=True, help="number of terms")
    p.add_argument("--method", choices=[*FULL_FORMS, "auto", NAIVE], default="auto")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                   help=f"singularity threshold (default {DEFAULT_THRESHOLD:g})")


def _counts(text: str) -> tuple[int, ...]:
    """The --counts value: comma-separated integers, each at least 1."""
    try:
        counts = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None
    if any(c < 1 for c in counts):
        raise argparse.ArgumentTypeError(f"entries must be >= 1, got {text!r}")
    return counts


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pair", choices=[pair.value for pair in ResidualPair], required=True)
    p.add_argument("--angle-min", type=float, required=True)
    p.add_argument("--angle-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--counts", type=_counts, required=True, help="comma-separated term counts")
    p.add_argument("--guard", type=float, default=DEFAULT_GUARD,
                   help=f"minimum denominator magnitude (default {DEFAULT_GUARD:g})")
    p.add_argument("--rows", action="store_true",
                   help="emit per-point CSV rows instead of the JSON summary")


def _orbit_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha-min", type=float, default=0.0)
    p.add_argument("--alpha-max", type=float, default=TWO_PI)
    p.add_argument("--steps", type=int, default=1024)
    p.add_argument("--format", choices=[fmt.value for fmt in EmitFormat], required=True)


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
    for name, (help_text, *_) in _SUBCOMMANDS.items():
        sub.add_parser(name, help=help_text, command=name)
    return parser


def _run_construct(args: argparse.Namespace) -> str:
    cfg = ConstructionConfig(alpha=Angle(args.alpha), n=args.n, start_line=args.start_line)
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
    grid = GridSpec(args.angle_min, args.angle_max, args.steps, args.counts, args.guard)
    report = residual_sweep(grid, ResidualPair(args.pair), keep_rows=args.rows)
    return report.to_csv() if args.rows else report.to_json()


def _run_orbit(args: argparse.Namespace) -> str:
    curve = orbit_samples(args.n, args.alpha_min, args.alpha_max, args.steps)
    return emit(curve, args.format).decode("utf-8")


def _run_bench(args: argparse.Namespace) -> str:
    return measure(args.m, args.repeats).to_json()


#: Each subcommand's help line, the library names its argument builder and
#: handler read (by defining module), the function adding its arguments, and
#: its handler. Its parser binds the names into this module when it is invoked
#: (`_load`), so a process imports only what its subcommand runs; the handlers
#: call whatever is bound at call time.
_SUBCOMMANDS = {
    "construct": ("simulate the two-line point construction",
                  {"angle": ("Angle",),
                   "geometry": ("ConstructionConfig", "Line", "construct_points")},
                  _construct_arguments, _run_construct),
    "sum": ("evaluate a full-family cosine partial sum",
            {"angle": ("Angle",),
             "kernels": ("DEFAULT_FULL_FORM", "DEFAULT_THRESHOLD", "FULL_FORMS", "NAIVE",
                         "ROUTES", "SumSpec", "halfangle_free_sum", "lagrange_sum",
                         "naive_trig_sum", "sum_auto")},
            _sum_arguments, _run_sum),
    "verify": ("sweep a residual pair over an angle grid",
               {"verify": ("DEFAULT_GUARD", "GridSpec", "ResidualPair", "residual_sweep")},
               _verify_arguments, _run_verify),
    "orbit": ("sample the orbit curve of a construction point",
              {"orbit": ("TWO_PI", "EmitFormat", "emit", "orbit_samples")},
              _orbit_arguments, _run_orbit),
    "bench": ("time the naive sum against the closed form",
              {"bench": ("measure",)},
              _bench_arguments, _run_bench),
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
    except SystemExit as exc:
        return exc.code

    try:
        payload = _SUBCOMMANDS[args.command][3](args)
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
