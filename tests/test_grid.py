"""The inclusive angle grid shared by GridSpec and orbit_samples."""

import io
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest

from trigsum import BadRange, GridSpec, orbit_samples
from trigsum.angle import inclusive_grid
from trigsum.cli import run


def run_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def test_grid_angles_are_the_uniform_formula():
    assert list(inclusive_grid(0.5, 2.0, 4, "angle")) == [0.5 + 1.5 * i / 3 for i in range(4)]


def test_int_bounds_yield_floats():
    angles = list(inclusive_grid(0, 2, 3, "angle"))
    assert angles == [0.0, 1.0, 2.0]
    assert all(type(a) is float for a in angles)


def test_validation_runs_on_the_call():
    # no angle is drawn, yet the bad range is already rejected
    with pytest.raises(BadRange, match="steps must be >= 2"):
        inclusive_grid(0.0, 1.0, 1, "angle")


@pytest.mark.parametrize("lo, hi", [(-1e308, 1e308), (-math.inf, 0.0), (0.0, math.nan)])
def test_bounds_must_be_finite_and_span_finite(lo, hi):
    with pytest.raises(BadRange):
        inclusive_grid(lo, hi, 3, "angle")


def test_gridspec_keeps_its_exception_types():
    with pytest.raises(ValueError):
        GridSpec(math.nan, 1.0, 10, (1,))
    with pytest.raises(BadRange):
        GridSpec(2.0, 1.0, 10, (1,))
    # past the interpreter's 4300-digit limit on int to str: named by its bits
    with pytest.raises(BadRange, match="^steps must be >= 2, got a negative int of 16610 bits$"):
        GridSpec(0.1, 3.0, -10**5000, (1,))
    with pytest.raises(BadRange, match="^steps of 16610 bits is too large: steps - 1 has no"):
        GridSpec(0.1, 3.0, 10**5000, (1,))


def test_orbit_keeps_its_exception_types():
    with pytest.raises(BadRange):
        orbit_samples(2, 0.0, math.inf, 4)
    with pytest.raises(BadRange):
        orbit_samples(2, 2.0, 1.0, 4)
    with pytest.raises(BadRange, match="^steps must be >= 2, got a negative int of 16610 bits$"):
        orbit_samples(3, 0.0, 1.0, -10**5000)
    # the grid's first angle would divide by steps - 1, which no float holds
    with pytest.raises(BadRange, match=f"^steps = {10**400} is too large: steps - 1 has no float$"):
        orbit_samples(1, 0.0, 1.0, 10**400)


def test_gridspec_rejects_an_overflowing_span():
    with pytest.raises(BadRange, match="angle_max - angle_min overflows"):
        GridSpec(-1e308, 1e308, 3, (1,))


def test_orbit_rejects_an_overflowing_span():
    with pytest.raises(BadRange, match="alpha_max - alpha_min overflows"):
        orbit_samples(5, -1e308, 1e308, 3)


def test_verify_cli_reports_an_overflowing_span():
    code, out, err = run_quiet([
        "verify", "--pair", "LagrangeVsNaive", "--angle-min=-1e308", "--angle-max", "1e308",
        "--steps", "3", "--counts", "1",
    ])
    assert (code, out) == (1, "")
    assert err == "error: angle_max - angle_min overflows, got [-1e+308, 1e+308]\n"


def test_orbit_cli_reports_an_overflowing_span():
    code, out, err = run_quiet([
        "orbit", "--n", "5", "--alpha-min=-1e308", "--alpha-max", "1e308", "--format", "csv",
    ])
    assert (code, out) == (1, "")
    assert err == "error: alpha_max - alpha_min overflows, got [-1e+308, 1e+308]\n"


def test_orbit_bounds_are_stored_as_floats():
    curve = orbit_samples(2, 0, 10**17, 3)
    assert (curve.alpha_min, curve.alpha_max) == (0.0, 1e17)
    assert type(curve.alpha_min) is float and type(curve.alpha_max) is float


def test_negative_zero_bound_is_kept():
    curve = orbit_samples(2, -0.0, 1.0, 2)
    assert math.copysign(1.0, curve.alpha_min) == -1.0
