"""End-to-end tests for the command-line interface."""

import json
import math
import os
import subprocess
import sys

import mpmath
import pytest

from trigsum import Angle, SumSpec, halfangle_free_sum, lagrange_sum, naive_trig_sum
from trigsum.cli import run

PI_STR = "3.141592653589793"
HALF_PI_STR = "1.5707963267948966"


def run_capture(capsys, argv):
    code = run(argv)
    return code, capsys.readouterr().out


def test_sum_lagrange(capsys):
    code, out = run_capture(
        capsys, ["sum", "--phi", HALF_PI_STR, "--m", "4", "--method", "lagrange"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "lagrange"
    assert abs(payload["value"]) <= 1e-12
    assert payload["value"] == lagrange_sum(math.pi / 2, 4)


def test_sum_auto_fallback_at_pi(capsys):
    code, out = run_capture(capsys, ["sum", "--phi", PI_STR, "--m", "5"])
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "NaiveFallback"
    assert payload["value"] == pytest.approx(-1.0, abs=1e-12)
    assert payload["singular_proximity"] < 1e-4


def test_sum_methods_agree(capsys):
    values = {}
    for method in ("lagrange", "halfangle", "naive", "auto"):
        code, out = run_capture(
            capsys, ["sum", "--phi", "1.0", "--m", "50", "--method", method]
        )
        assert code == 0
        values[method] = json.loads(out)["value"]
    spread = max(values.values()) - min(values.values())
    assert spread <= 1e-9


def test_sum_halfangle_singular_exit(capsys):
    code = run(["sum", "--phi", PI_STR, "--m", "3", "--method", "halfangle"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_threshold_environment_variable_is_ignored(capsys, monkeypatch):
    monkeypatch.setenv("TRIGSUM_THRESHOLD", "0.5")
    code, out = run_capture(capsys, ["sum", "--phi", "0.4", "--m", "3"])
    assert code == 0
    assert json.loads(out)["method"] == "ClosedForm"


def test_construct_csv(capsys):
    code, out = run_capture(capsys, ["construct", "--alpha", "1.0471975511965976", "--n", "4"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "index,line,x,y"
    assert len(lines) == 6
    assert lines[1] == "0,e,0,0"
    assert lines[2] == "1,x,1,0"


def test_construct_json_with_tangency(capsys):
    code, out = run_capture(
        capsys,
        ["construct", "--alpha", "0.7853981633974483", "--n", "3", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["start_line"] == "x"
    assert payload["tangency_events"] == [3]
    assert len(payload["points"]) == 4
    index, line, x, y = payload["points"][2]
    assert (index, line) == (2, "e")
    assert x == pytest.approx(1.0, abs=1e-12)
    assert y == pytest.approx(1.0, abs=1e-12)


def test_construct_excluded_angle_exit(capsys):
    code = run(["construct", "--alpha", HALF_PI_STR, "--n", "3"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_verify_json_summary(capsys):
    code, out = run_capture(
        capsys,
        [
            "verify", "--pair", "LagrangeVsHalfangle",
            "--angle-min", "0.05", "--angle-max", "6.2",
            "--steps", "50", "--counts", "1,8,64",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pair"] == "LagrangeVsHalfangle"
    assert payload["evaluated"] + payload["skipped"] == 150
    assert payload["max_abs_residual"] <= 1e-9


def test_verify_rows_csv(capsys):
    code, out = run_capture(
        capsys,
        [
            "verify", "--pair", "EvenVsNaive",
            "--angle-min", "0.5", "--angle-max", "1.5",
            "--steps", "4", "--counts", "2,3", "--rows",
        ],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "pair,angle,count,residual"
    assert len(lines) == 9
    assert all(line.startswith("EvenVsNaive,") for line in lines[1:])


def test_verify_bad_counts_usage_error():
    assert run(["verify", "--pair", "EvenVsNaive", "--angle-min", "0.5",
                "--angle-max", "1.5", "--steps", "4", "--counts", "2,x"]) == 2
    assert run(["verify", "--pair", "EvenVsNaive", "--angle-min", "0.5",
                "--angle-max", "1.5", "--steps", "4", "--counts", "0"]) == 2


def test_verify_unknown_pair_usage_error():
    assert run(["verify", "--pair", "NoSuchPair", "--angle-min", "0.5",
                "--angle-max", "1.5", "--steps", "4", "--counts", "2"]) == 2


def test_usage_errors():
    assert run([]) == 2
    assert run(["frobnicate"]) == 2
    assert run(["sum", "--m", "3"]) == 2
    assert run(["sum", "--phi", "zzz", "--m", "3"]) == 2


@pytest.mark.parametrize("method", ["auto", "lagrange", "halfangle"])
@pytest.mark.parametrize("phi", ["0", "1e-9", "1.0"])
def test_nan_threshold_exits_with_error(capsys, method, phi):
    argv = ["sum", "--phi", phi, "--m", "5", "--method", method, "--threshold", "nan"]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_out_into_missing_directory_exits_with_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    assert run(["sum", "--phi", "1", "--m", "3", "--out", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert str(target) in captured.err
    assert os.listdir(tmp_path) == []


def test_out_onto_a_directory_leaves_no_temp_file(tmp_path, capsys):
    # the temp file is written, then the rename onto the directory fails
    target = tmp_path / "taken"
    target.mkdir()
    assert run(["sum", "--phi", "1", "--m", "3", "--out", str(target)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert os.listdir(tmp_path) == ["taken"]
    assert os.listdir(target) == []


def test_orbit_formats_to_files(tmp_path):
    from trigsum import EmitFormat, emit, orbit_samples

    for fmt in ("csv", "json", "svg"):
        out_path = tmp_path / f"orbit.{fmt}"
        code = run(["orbit", "--n", "3", "--steps", "65", "--format", fmt,
                    "--out", str(out_path)])
        assert code == 0
        expected = emit(orbit_samples(3, steps=65), EmitFormat(fmt))
        assert out_path.read_bytes() == expected


def test_orbit_bad_range_exit(capsys):
    code = run(["orbit", "--n", "2", "--alpha-min", "2.0", "--alpha-max", "1.0",
                "--format", "csv"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_out_file_not_created_on_error(tmp_path):
    target = tmp_path / "points.csv"
    code = run(["construct", "--alpha", HALF_PI_STR, "--n", "3", "--out", str(target)])
    assert code == 1
    assert not target.exists()
    assert os.listdir(tmp_path) == []


def test_out_file_matches_stdout(tmp_path, capsys):
    target = tmp_path / "points.csv"
    argv = ["construct", "--alpha", "0.9", "--n", "5"]
    assert run(argv + ["--out", str(target)]) == 0
    capsys.readouterr()
    code, out = run_capture(capsys, argv)
    assert code == 0
    assert target.read_text() == out
    assert os.listdir(tmp_path) == ["points.csv"]


def test_out_file_overwrites_existing(tmp_path):
    target = tmp_path / "sum.json"
    target.write_text("stale")
    assert run(["sum", "--phi", "1.0", "--m", "3", "--out", str(target)]) == 0
    assert json.loads(target.read_text())["value"] == halfangle_free_sum(1.0, 3)


def test_bench_output(capsys):
    code, out = run_capture(capsys, ["bench", "--m", "1000", "--repeats", "30"])
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["naive_ns_per_eval", "closed_ns_per_eval", "speedup"]
    assert payload["naive_ns_per_eval"] > 0
    assert payload["closed_ns_per_eval"] > 0
    assert payload["speedup"] > 10
    assert payload["speedup"] == pytest.approx(
        payload["naive_ns_per_eval"] / payload["closed_ns_per_eval"], rel=1e-12
    )


def test_bench_invalid_m_exit():
    assert run(["bench", "--m", "0", "--repeats", "5"]) == 1


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "trigsum.cli", "sum", "--phi", "1.0", "--m", "10"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == halfangle_free_sum(1.0, 10)


# The parser's bytes, as argparse lays them out at 80 columns. Each
# subcommand's parser gets its arguments only when it is invoked; these pin
# every help text and usage error it prints.
TOP_USAGE = "usage: trigsum [-h] {construct,sum,verify,orbit,bench} ...\n"

TOP_HELP = TOP_USAGE + """
Closed-form cosine sums, their brute-force cross-checks, and the two-line
unit-segment construction behind them.

positional arguments:
  {construct,sum,verify,orbit,bench}
    construct           simulate the two-line point construction
    sum                 evaluate a full-family cosine partial sum
    verify              sweep a residual pair over an angle grid
    orbit               sample the orbit curve of a construction point
    bench               time the naive sum against the closed form

options:
  -h, --help            show this help message and exit
"""

CONSTRUCT_HELP = """\
usage: trigsum construct [-h] --alpha ALPHA --n N [--start-line {x,e}]
                         [--format {csv,json}] [--out PATH]

options:
  -h, --help           show this help message and exit
  --alpha ALPHA        opening angle in radians
  --n N                number of points beyond the origin
  --start-line {x,e}   line carrying the first unit point (default: x)
  --format {csv,json}
  --out PATH           write output to PATH instead of stdout
"""

SUM_USAGE = """\
usage: trigsum sum [-h] --phi PHI --m M
                   [--method {lagrange,halfangle,auto,naive}]
                   [--threshold THRESHOLD] [--out PATH]
"""

SUM_HELP = SUM_USAGE + """
options:
  -h, --help            show this help message and exit
  --phi PHI             angle in radians
  --m M                 number of terms
  --method {lagrange,halfangle,auto,naive}
  --threshold THRESHOLD
                        singularity threshold (default 0.0001)
  --out PATH            write output to PATH instead of stdout
"""

PAIRS = ("LagrangeVsNaive,HalfangleVsNaive,LagrangeVsHalfangle,EvenVsNaive,OddVsNaive,"
         "ProjectionVsClosedForm,DecompositionVsHalfangle")

VERIFY_USAGE = f"""\
usage: trigsum verify [-h] --pair
                      {{{PAIRS}}}
                      --angle-min ANGLE_MIN --angle-max ANGLE_MAX --steps
                      STEPS --counts COUNTS [--guard GUARD] [--rows]
                      [--out PATH]
"""

VERIFY_HELP = VERIFY_USAGE + f"""
options:
  -h, --help            show this help message and exit
  --pair {{{PAIRS}}}
  --angle-min ANGLE_MIN
  --angle-max ANGLE_MAX
  --steps STEPS
  --counts COUNTS       comma-separated term counts
  --guard GUARD         minimum denominator magnitude (default 0.01)
  --rows                emit per-point CSV rows instead of the JSON summary
  --out PATH            write output to PATH instead of stdout
"""

ORBIT_HELP = """\
usage: trigsum orbit [-h] --n N [--alpha-min ALPHA_MIN]
                     [--alpha-max ALPHA_MAX] [--steps STEPS] --format
                     {csv,json,svg} [--out PATH]

options:
  -h, --help            show this help message and exit
  --n N
  --alpha-min ALPHA_MIN
  --alpha-max ALPHA_MAX
  --steps STEPS
  --format {csv,json,svg}
  --out PATH            write output to PATH instead of stdout
"""

BENCH_HELP = """\
usage: trigsum bench [-h] --m M --repeats REPEATS [--out PATH]

options:
  -h, --help         show this help message and exit
  --m M
  --repeats REPEATS
  --out PATH         write output to PATH instead of stdout
"""

VERIFY_ARGS = ["--angle-min", "0.5", "--angle-max", "1.5", "--steps", "4"]


def argv_ids(cases):
    """One test id per (argv, expected) case, from the argv alone."""
    return [" ".join(argv) or "no-args" for argv, _ in cases]


HELP_CASES = [
    (["--help"], TOP_HELP),
    (["-h", "sum"], TOP_HELP),
    (["construct", "--help"], CONSTRUCT_HELP),
    (["sum", "--help"], SUM_HELP),
    (["verify", "--help"], VERIFY_HELP),
    (["orbit", "--help"], ORBIT_HELP),
    (["bench", "-h"], BENCH_HELP),
]


@pytest.mark.parametrize("argv, expected", HELP_CASES, ids=argv_ids(HELP_CASES))
def test_help_bytes(capsys, monkeypatch, argv, expected):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err == ""


USAGE_ERROR_CASES = [
    ([], TOP_USAGE + "trigsum: error: the following arguments are required: command\n"),
    (["frobnicate"], TOP_USAGE + "trigsum: error: argument command: invalid choice: "
     "'frobnicate' (choose from 'construct', 'sum', 'verify', 'orbit', 'bench')\n"),
    (["sum", "--m", "3"],
     SUM_USAGE + "trigsum sum: error: the following arguments are required: --phi\n"),
    (["sum", "--phi", "1", "--m", "3", "--method", "bogus"],
     SUM_USAGE + "trigsum sum: error: argument --method: invalid choice: 'bogus' "
     "(choose from 'lagrange', 'halfangle', 'auto', 'naive')\n"),
    (["verify", "--pair", "NoSuchPair", *VERIFY_ARGS, "--counts", "2"],
     VERIFY_USAGE + "trigsum verify: error: argument --pair: invalid choice: 'NoSuchPair' "
     "(choose from " + ", ".join(f"'{p}'" for p in PAIRS.split(",")) + ")\n"),
    (["verify", "--pair", "EvenVsNaive", *VERIFY_ARGS, "--counts", "2,x"],
     VERIFY_USAGE + "trigsum verify: error: argument --counts: "
     "expected comma-separated integers, got '2,x'\n"),
    (["verify", "--pair", "EvenVsNaive", *VERIFY_ARGS, "--counts", "0"],
     VERIFY_USAGE + "trigsum verify: error: argument --counts: entries must be >= 1, got '0'\n"),
]


@pytest.mark.parametrize("argv, expected", USAGE_ERROR_CASES, ids=argv_ids(USAGE_ERROR_CASES))
def test_usage_error_bytes(capsys, monkeypatch, argv, expected):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == expected


@pytest.mark.parametrize("method", ["lagrange", "halfangle", "naive"])
def test_sum_overflowing_argument_exits_with_error(capsys, method):
    # these methods run at the given angle: 5 * 1e308 overflows to inf before the sine
    assert run(["sum", "--phi", "1e308", "--m", "5", "--method", method]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: math domain error\n"


def test_sum_auto_reduces_an_overflowing_argument(capsys):
    # auto's closed form runs at 1e308 less its nearest multiple of 2 pi
    code, out = run_capture(capsys, ["sum", "--phi", "1e308", "--m", "5", "--method", "auto"])
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "ClosedForm"
    assert payload["singular_proximity"] == abs(math.sin(1e308))
    with mpmath.workprec(4000):
        a = mpmath.mpf(1e308)
        exact = (mpmath.sin(5.5 * a) / mpmath.sin(a / 2) - 1) / 2
        error = abs(mpmath.mpf(payload["value"]) - exact)
    assert error <= 2 * (2 * 5 + 1) * 2.0**-52


HUGE = str(10**400)  # an int too large for a float


@pytest.mark.parametrize("argv", [
    ["sum", "--phi", "1", "--m", HUGE],
    ["sum", "--phi", "1", "--m", HUGE, "--method", "lagrange"],
    ["sum", "--phi", "1", "--m", HUGE, "--method", "halfangle"],
    ["verify", "--pair", "LagrangeVsHalfangle", "--angle-min", "0.5", "--angle-max", "1",
     "--steps", "3", "--counts", f"1,{HUGE}"],
    ["verify", "--pair", "ProjectionVsClosedForm", "--angle-min", "0.5", "--angle-max", "1",
     "--steps", "3", "--counts", f"1,{HUGE}"],
    ["verify", "--pair", "DecompositionVsHalfangle", "--angle-min", "0.5", "--angle-max", "1",
     "--steps", "3", "--counts", f"1,{HUGE},{HUGE}1"],
    ["verify", "--pair", "OddVsNaive", "--angle-min", "0.5", "--angle-max", "1",
     "--steps", "3", "--counts", f"1,{HUGE},{HUGE}1"],
    ["bench", "--m", HUGE, "--repeats", "2"],
], ids=["auto", "lagrange", "halfangle", "verify", "verify-projection", "verify-decomposition",
        "verify-naive", "bench"])
def test_count_too_large_for_a_float_exits_with_error(argv):
    # a child process with a timeout, so a route that walks to the count fails, not hangs
    proc = subprocess.run([sys.executable, "-m", "trigsum.cli", *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: int too large to convert to float\n"


VERIFY_GRID = ["--angle-min", "0.1", "--angle-max", "1.0", "--steps", "5", "--counts", "1,3"]
#: Each option that takes a float, given a negative number in exponent form.
#: argparse alone reads these values as unknown options and exits 2.
NEGATIVE_EXPONENT_CASES = [
    (["sum", "--m", "3"], "--phi", "-1e-5"),
    (["sum", "--m", "3", "--phi", "-2.5E+3"], "--threshold", "-1e-3"),
    (["construct", "--n", "4"], "--alpha", "-.5e1"),
    (["verify", "--pair", "LagrangeVsNaive", *VERIFY_GRID[2:]], "--angle-min", "-2.5E+3"),
    (["verify", "--pair", "LagrangeVsNaive", "--angle-min", "-2e1", *VERIFY_GRID[4:]],
     "--angle-max", "-1e-1"),
    (["verify", "--pair", "LagrangeVsNaive", *VERIFY_GRID], "--guard", "-1e-2"),
    (["orbit", "--n", "3", "--steps", "5", "--format", "csv"], "--alpha-min", "-1e0"),
    (["orbit", "--n", "3", "--steps", "5", "--format", "csv", "--alpha-min", "-3e0"],
     "--alpha-max", "-1e-1"),
]


@pytest.mark.parametrize("argv, option, value", NEGATIVE_EXPONENT_CASES,
                         ids=[option for _, option, _ in NEGATIVE_EXPONENT_CASES])
def test_negative_exponent_value_reads_as_a_number(capsys, argv, option, value):
    # "--option value" runs as "--option=value", which argparse never reads as an option
    spaced = (run([*argv, option, value]), *capsys.readouterr())
    joined = (run([*argv, f"{option}={value}"]), *capsys.readouterr())
    assert spaced == joined
    assert spaced[0] in (0, 1)


#: Each option that takes a float, given -inf, -infinity or -nan in some case.
#: argparse alone reads these values as unknown options and exits 2; as values
#: the library rejects them, each with its own message.
NEGATIVE_NONFINITE_CASES = [
    (["sum", "--m", "3"], "--phi", "-inf", "angle must be finite, got -inf"),
    (["sum", "--m", "3"], "--phi", "-NaN", "angle must be finite, got nan"),
    (["sum", "--m", "3", "--phi", "1.0"], "--threshold", "-Infinity",
     "threshold must be > 0, got -inf"),
    (["construct", "--n", "4"], "--alpha", "-INF", "angle must be finite, got -inf"),
    (["verify", "--pair", "LagrangeVsNaive", *VERIFY_GRID[2:]], "--angle-min", "-inf",
     "angle bounds must be finite"),
    (["verify", "--pair", "LagrangeVsNaive", "--angle-min", "0.1", *VERIFY_GRID[4:]],
     "--angle-max", "-nan", "angle bounds must be finite"),
    (["verify", "--pair", "LagrangeVsNaive", *VERIFY_GRID], "--guard", "-inf",
     "guard must be finite and >= 0, got -inf"),
    (["orbit", "--n", "3", "--format", "csv"], "--alpha-min", "-nan",
     "alpha bounds must be finite"),
    (["orbit", "--n", "3", "--format", "csv"], "--alpha-max", "-Inf",
     "alpha bounds must be finite"),
]


@pytest.mark.parametrize("argv, option, value, message", NEGATIVE_NONFINITE_CASES,
                         ids=[f"{option} {value}" for _, option, value, _ in
                              NEGATIVE_NONFINITE_CASES])
def test_negative_nonfinite_value_reads_as_a_number(capsys, argv, option, value, message):
    for args in ([*argv, option, value], [*argv, f"{option}={value}"]):
        assert run(args) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("value", ["-in", "-infinit", "-nanx", "-inf1"])
def test_other_dash_words_stay_options(capsys, value):
    assert run(["sum", "--m", "3", "--phi", value]) == 2
    assert capsys.readouterr().err.endswith("argument --phi: expected one argument\n")


def test_negative_exponent_angle_sums_at_that_angle(capsys):
    code, out = run_capture(capsys, ["sum", "--phi", "-1e-5", "--m", "3", "--method", "naive"])
    assert code == 0
    assert json.loads(out)["value"] == naive_trig_sum(SumSpec(Angle(-1e-5), 3))


def test_sum_auto_fallback_sums_at_the_reduced_angle(capsys):
    # k = 10**4 is even, so phi reduces by 2*pi*5000 to r, about 5e-5
    m, phi = 10**4, 10**4 * math.pi + 5e-5
    code, out = run_capture(capsys, ["sum", "--phi", repr(phi), "--m", str(m), "--method", "auto"])
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "NaiveFallback"
    with mpmath.workprec(200):
        a = mpmath.mpf(phi)
        exact = (mpmath.sin((m + mpmath.mpf(0.5)) * a) / mpmath.sin(a / 2) - 1) / 2
        r = float(a - 10**4 * mpmath.pi)
        error = abs(mpmath.mpf(payload["value"]) - exact)
    assert error <= m * (m * abs(r) + m) * 2.0**-52

    code, out = run_capture(capsys, ["sum", "--phi", repr(phi), "--m", str(m), "--method", "naive"])
    assert code == 0
    literal = 0.0
    for l in range(1, m + 1):
        literal += math.cos(l * phi)
    assert json.loads(out)["value"].hex() == literal.hex()


def test_sum_auto_at_a_subnormal_angle_with_an_odd_last_bit(capsys):
    # phi / 2 rounds here, so the half-angle ratio takes its numerator and its
    # denominator at the same rounded angle; every term is 1.0
    argv = ["sum", "--phi", "1.5e-323", "--m", "10", "--threshold", "5e-324"]
    code, out = run_capture(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    assert (payload["value"], payload["method"]) == (10.0, "ClosedForm")
    code, out = run_capture(capsys, argv + ["--method", "naive"])
    assert (code, json.loads(out)["value"]) == (0, 10.0)
