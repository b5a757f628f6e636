"""Pinned output of every writer: construct, sum, verify, bench and orbit.

Each expected string is the exact output of the writer at fixed inputs, so
any change to a serializer, to its float rendering or to the values behind
it shows up here as a byte difference.
"""

import io
import math
from contextlib import redirect_stdout

import pytest

from trigsum import (
    BenchResult,
    EmitFormat,
    GridSpec,
    ResidualPair,
    emit,
    orbit_samples,
    residual_sweep,
)
from trigsum.cli import run
from trigsum.formatting import csv_text, json_line

QUARTER_PI = repr(math.pi / 4)


def cli_stdout(*argv: str) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(list(argv))
    assert code == 0
    return buf.getvalue()


def test_construct_csv_readme_case():
    assert cli_stdout("construct", "--alpha", QUARTER_PI, "--n", "3") == (
        "index,line,x,y\n"
        "0,e,0,0\n"
        "1,x,1,0\n"
        "2,e,1.0000000000000002,1\n"
        "3,x,1.0000000000000004,0\n"
    )


def test_construct_json_readme_case_with_tangency():
    out = cli_stdout("construct", "--alpha", QUARTER_PI, "--n", "3", "--format", "json")
    assert out == (
        '{"alpha": 0.78539816339744828, "start_line": "x", "points": [[0, "e", 0, 0], '
        '[1, "x", 1, 0], [2, "e", 1.0000000000000002, 1], [3, "x", 1.0000000000000004, 0]], '
        '"tangency_events": [3]}\n'
    )


def test_construct_json_start_line_e():
    out = cli_stdout(
        "construct", "--alpha", "0.3", "--n", "4", "--start-line", "e", "--format", "json"
    )
    assert out == (
        '{"alpha": 0.29999999999999999, "start_line": "e", "points": [[0, "x", 0, 0], '
        '[1, "e", 0.95533648912560598, 0.29552020666133955], [2, "x", 1.910672978251212, 0], '
        '[3, "e", 2.5322829465218764, 0.7833269096274833], [4, "x", 3.1538929147925407, 0]], '
        '"tangency_events": []}\n'
    )


@pytest.mark.parametrize(
    "method, label, proximity",
    [
        ("lagrange", "lagrange", "0.47942553860420301"),
        ("halfangle", "halfangle", "0.8414709848078965"),
        ("auto", "ClosedForm", "0.8414709848078965"),
        ("naive", "naive", "0.8414709848078965"),
    ],
)
def test_sum_json_each_method(method, label, proximity):
    out = cli_stdout("sum", "--phi", "1.0", "--m", "10", "--method", method)
    assert out == (
        f'{{"value": -1.4174477464559061, "method": "{label}", '
        f'"singular_proximity": {proximity}}}\n'
    )


def test_sum_json_auto_fallback_at_pi():
    out = cli_stdout("sum", "--phi", repr(math.pi), "--m", "5")
    assert out == (
        '{"value": -1, "method": "NaiveFallback", '
        '"singular_proximity": 1.2246467991473532e-16}\n'
    )


VERIFY_ARGV = (
    "verify", "--pair", "LagrangeVsNaive", "--angle-min", "0.5", "--angle-max", "2.5",
    "--steps", "3", "--counts", "1,3",
)


def test_verify_json_summary():
    assert cli_stdout(*VERIFY_ARGV) == (
        '{"pair": "LagrangeVsNaive", "evaluated": 6, "skipped": 0, '
        '"max_abs_residual": 2.2204460492503131e-16, '
        '"mean_abs_residual": 4.8572257327350599e-17, '
        '"argmax_angle": 0.5, "argmax_count": 1}\n'
    )


def test_verify_rows_csv():
    assert cli_stdout(*VERIFY_ARGV, "--rows") == (
        "pair,angle,count,residual\n"
        "LagrangeVsNaive,0.5,1,-2.2204460492503131e-16\n"
        "LagrangeVsNaive,0.5,3,0\n"
        "LagrangeVsNaive,1.5,1,1.3877787807814457e-17\n"
        "LagrangeVsNaive,1.5,3,0\n"
        "LagrangeVsNaive,2.5,1,0\n"
        "LagrangeVsNaive,2.5,3,-5.5511151231257827e-17\n"
    )


def test_verify_projection_rows_csv():
    out = cli_stdout(
        "verify", "--pair", "ProjectionVsClosedForm", "--angle-min", "0.3",
        "--angle-max", "1.2", "--steps", "2", "--counts", "1,2", "--rows",
    )
    assert out == (
        "pair,angle,count,residual\n"
        "ProjectionVsClosedForm,0.29999999999999999,1,-4.4408920985006262e-16\n"
        "ProjectionVsClosedForm,0.29999999999999999,2,8.8817841970012523e-16\n"
        "ProjectionVsClosedForm,1.2,1,5.5511151231257827e-17\n"
        "ProjectionVsClosedForm,1.2,2,1.1102230246251565e-16\n"
    )


def test_bench_result_json():
    assert BenchResult(1234.5, 6.25).to_json() == (
        '{"naive_ns_per_eval": 1234.5, "closed_ns_per_eval": 6.25, '
        '"speedup": 197.52000000000001}\n'
    )


ORBIT_POINTS = (
    ("0", "3", "0"),
    ("0.78539816339744828", "0.70710678118654791", "0.70710678118654779"),
    ("1.5707963267948966", "-6.123233995736766e-17", "-1"),
    ("2.3561944901923448", "-0.70710678118654713", "0.70710678118654724"),
    ("3.1415926535897931", "-3", "3.6739403974420594e-16"),
)


def small_curve():
    return orbit_samples(3, 0.0, math.pi, 5)


def test_orbit_csv():
    expected = "alpha,x,y\n" + "".join(",".join(p) + "\n" for p in ORBIT_POINTS)
    assert emit(small_curve(), EmitFormat.CSV).decode() == expected


def test_orbit_json():
    points = ", ".join("[" + ", ".join(p) + "]" for p in ORBIT_POINTS)
    expected = (
        '{"n": 3, "alpha_min": 0, "alpha_max": 3.1415926535897931, "steps": 5, '
        f'"points": [{points}]}}\n'
    )
    assert emit(small_curve(), EmitFormat.JSON).decode() == expected


def test_orbit_svg():
    assert emit(small_curve(), EmitFormat.SVG).decode() == (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        'viewBox="-3.300000000000 -1.085355339059 6.600000000000 1.877817459305">\n'
        '  <polyline fill="none" stroke="black" stroke-width="0.026400000000" '
        'points="3.000000000000,0.000000000000 0.707106781187,0.707106781187 '
        '-0.000000000000,-1.000000000000 -0.707106781187,0.707106781187 '
        '-3.000000000000,0.000000000000"/>\n'
        "</svg>\n"
    )


def test_orbit_cli_csv():
    out = cli_stdout(
        "orbit", "--n", "2", "--alpha-min", "0.5", "--alpha-max", "1.5", "--steps", "3",
        "--format", "csv",
    )
    assert out == (
        "alpha,x,y\n"
        "0.5,1.5403023058681398,0.8414709848078965\n"
        "1,0.58385316345285776,0.90929742682568182\n"
        "1.5,0.010007503399554541,0.14112000805986721\n"
    )


def test_orbit_int_bounds():
    curve = orbit_samples(2, 0, 2, 3)
    assert emit(curve, EmitFormat.JSON).decode() == (
        '{"n": 2, "alpha_min": 0, "alpha_max": 2, "steps": 3, "points": [[0, 2, 0], '
        "[1, 0.58385316345285776, 0.90929742682568182], "
        "[2, 0.34635637913638812, -0.75680249530792831]]}\n"
    )
    assert emit(curve, EmitFormat.CSV).decode() == (
        "alpha,x,y\n"
        "0,2,0\n"
        "1,0.58385316345285776,0.90929742682568182\n"
        "2,0.34635637913638812,-0.75680249530792831\n"
    )


def test_orbit_bound_of_ten_to_the_seventeen():
    # an int bound still renders through the 17-digit float format
    assert emit(orbit_samples(2, 0, 10**17, 3), EmitFormat.JSON).decode() == (
        '{"n": 2, "alpha_min": 0, "alpha_max": 1e+17, "steps": 3, "points": [[0, 2, 0], '
        "[50000000000000000, 0.11444267170236931, -0.46453010483537266], "
        "[1e+17, 1.5684235634032753, 0.82273607710366192]]}\n"
    )
    assert emit(orbit_samples(2, 1.0, 1e17, 2), EmitFormat.JSON).decode() == (
        '{"n": 2, "alpha_min": 1, "alpha_max": 1e+17, "steps": 2, "points": '
        "[[1, 0.58385316345285776, 0.90929742682568182], "
        "[1e+17, 1.5684235634032753, 0.82273607710366192]]}\n"
    )


def test_grid_int_bounds():
    report = residual_sweep(
        GridSpec(0, 2, 3, (1, 2)), ResidualPair.HALFANGLE_VS_NAIVE, keep_rows=True
    )
    assert report.to_json() == (
        '{"pair": "HalfangleVsNaive", "evaluated": 4, "skipped": 2, '
        '"max_abs_residual": 5.5511151231257827e-17, '
        '"mean_abs_residual": 2.7755575615628914e-17, "argmax_angle": 1, "argmax_count": 2}\n'
    )
    assert report.to_csv() == (
        "pair,angle,count,residual\n"
        "HalfangleVsNaive,1,1,0\n"
        "HalfangleVsNaive,1,2,-5.5511151231257827e-17\n"
        "HalfangleVsNaive,2,1,5.5511151231257827e-17\n"
        "HalfangleVsNaive,2,2,0\n"
    )


def test_grid_bound_of_ten_to_the_seventeen():
    report = residual_sweep(
        GridSpec(1, 10**17, 3, (1, 2)), ResidualPair.LAGRANGE_VS_NAIVE, keep_rows=True
    )
    assert report.to_json() == (
        '{"pair": "LagrangeVsNaive", "evaluated": 6, "skipped": 0, '
        '"max_abs_residual": 5.5511151231257827e-17, '
        '"mean_abs_residual": 1.3877787807814457e-17, "argmax_angle": 1, "argmax_count": 2}\n'
    )
    assert report.to_csv() == (
        "pair,angle,count,residual\n"
        "LagrangeVsNaive,1,1,0\n"
        "LagrangeVsNaive,1,2,5.5511151231257827e-17\n"
        "LagrangeVsNaive,50000000000000000,1,2.7755575615628914e-17\n"
        "LagrangeVsNaive,50000000000000000,2,0\n"
        "LagrangeVsNaive,1e+17,1,0\n"
        "LagrangeVsNaive,1e+17,2,0\n"
    )


def test_json_line_renders_ints_with_str_and_floats_with_fmt17():
    value = {"a": [1, 2.5, "x", (0.1, -0.0)], "b": {"c": 10**17, "d": 1e17}, "e": []}
    assert json_line(value) == (
        '{"a": [1, 2.5, "x", [0.10000000000000001, -0]], '
        '"b": {"c": 100000000000000000, "d": 1e+17}, "e": []}\n'
    )


def test_csv_text():
    assert csv_text("h1,h2,h3", [(1, "x", 0.1), (10**17, "", 1e17)]) == (
        "h1,h2,h3\n1,x,0.10000000000000001\n100000000000000000,,1e+17\n"
    )
    assert csv_text("only,a,header", []) == "only,a,header\n"
