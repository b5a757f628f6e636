"""Tests for orbit sampling and the CSV/JSON/SVG emitters."""

import json
import math
import re

import mpmath
import pytest

from trigsum import (
    MAX_DEGREE,
    Angle,
    BadRange,
    ConstructionConfig,
    EmitFormat,
    chebyshev_form_point,
    construct_points,
    emit,
    orbit_samples,
)

TWO_PI = 2.0 * math.pi


def test_n1_orbit_is_unit_circle():
    curve = orbit_samples(1, 0.0, TWO_PI, 5)
    assert curve.steps == 5
    for a, x, y in curve.samples:
        assert x == pytest.approx(math.cos(a), abs=1e-15)
        assert y == pytest.approx(math.sin(a), abs=1e-15)
    assert curve.samples[0][0] == 0.0
    assert curve.samples[-1][0] == pytest.approx(TWO_PI, abs=1e-15)


def test_sample_at_pi_over_4():
    curve = orbit_samples(2, 0.0, math.pi, 5)
    a, x, y = curve.samples[1]
    assert a == pytest.approx(math.pi / 4, abs=1e-15)
    assert x == pytest.approx(1.0, abs=1e-12)
    assert y == pytest.approx(1.0, abs=1e-12)


def test_sample_at_pi_over_2():
    # cos(pi/2) ~ 0 and U_2(0) = -1, so the n=3 orbit passes through (0, -1)
    curve = orbit_samples(3, 0.0, math.pi, 3)
    _, x, y = curve.samples[1]
    assert abs(x) <= 1e-15
    assert y == pytest.approx(-1.0, abs=1e-15)


EPS = 2.0**-52


def exact_point(a, n):
    """(cos a U_{n-1}(cos a), sin a U_{n-1}(cos a)) at the double a, to 200 bits."""
    with mpmath.workprec(200):
        x = mpmath.mpf(a)
        u = mpmath.mpf(n) if a == 0.0 else mpmath.sin(n * x) / mpmath.sin(x)
        return mpmath.cos(x) * u, mpmath.sin(x) * u


@pytest.mark.parametrize("n", [1, 2, 7, 50, 200, 1000, 10**5, 10**6 + 2])
def test_samples_within_two_n_eps_of_mpmath(n):
    # the grid passes through 0, pi and 2 pi; n = 1 evaluates U_0
    curve = orbit_samples(n, 0.0, TWO_PI, 33)
    assert [curve.samples[i][0] for i in (0, 16, 32)] == [0.0, math.pi, TWO_PI]
    samples = list(curve.samples)
    for k in (0, 1, 2, 7, 1000):  # within 1e-6 of k pi
        samples += orbit_samples(n, k * math.pi - 1e-6, k * math.pi + 1e-6, 9).samples
    for a, x, y in samples:
        ex, ey = exact_point(a, n)
        assert abs(x - ex) <= 2 * n * EPS and abs(y - ey) <= 2 * n * EPS, a


@pytest.mark.parametrize("n", [1, 2, 7, 50, 200, 1000])
def test_samples_agree_with_coordinate_form(n):
    # chebyshev_form_point takes U_{n-1} from the recurrence, whose error
    # grows like n**2 eps near sin a = 0
    for a, x, y in orbit_samples(n, 0.0, TWO_PI, 33).samples:
        p = chebyshev_form_point(a, n)
        assert abs(x - p.x) <= n**2 * EPS and abs(y - p.y) <= n**2 * EPS, a


def test_orbit_crosses_singular_angles_without_gaps():
    curve = orbit_samples(4, 0.0, TWO_PI, 9)  # grid hits 0, pi/2, pi, ...
    assert all(math.isfinite(x) and math.isfinite(y) for _, x, y in curve.samples)


def test_symmetry_about_pi():
    # reflecting the angle range flips y and keeps x
    curve = orbit_samples(5, 0.0, TWO_PI, 101)
    for i in range(101):
        _, x, y = curve.samples[i]
        _, mx, my = curve.samples[100 - i]
        assert abs(x - mx) <= 1e-12
        assert abs(y + my) <= 1e-12


def test_agreement_with_construction():
    alpha, n = 0.7, 6
    curve = orbit_samples(n, alpha, alpha + 1.0, 2)
    seq = construct_points(ConstructionConfig(Angle(alpha), n))
    _, x, y = curve.samples[0]
    assert x == pytest.approx(seq.points[n].x, abs=1e-9)
    assert y == pytest.approx(seq.points[n].y, abs=1e-9)


def test_range_validation():
    with pytest.raises(BadRange):
        orbit_samples(2, 1.0, 1.0, 10)
    with pytest.raises(BadRange):
        orbit_samples(2, 2.0, 1.0, 10)
    with pytest.raises(BadRange):
        orbit_samples(2, 0.0, 1.0, 1)
    with pytest.raises(BadRange):
        orbit_samples(2, 0.0, math.inf, 4)
    with pytest.raises(ValueError):
        orbit_samples(0, 0.0, 1.0, 4)
    # no degree cap: the ratio costs the same at any n
    assert len(orbit_samples(MAX_DEGREE + 2, 0.0, 1.0, 3).samples) == 3
    with pytest.raises(BadRange):
        orbit_samples(MAX_DEGREE + 2, 1.0, 0.5, 3)


def test_csv_emission():
    curve = orbit_samples(1, 0.0, TWO_PI, 5)
    text = emit(curve, EmitFormat.CSV).decode("utf-8")
    lines = text.splitlines()
    assert lines[0] == "alpha,x,y"
    assert len(lines) == 6
    a, x, y = (float(part) for part in lines[1].split(","))
    assert (a, x, y) == curve.samples[0]


def test_json_emission():
    curve = orbit_samples(2, 0.0, TWO_PI, 1024)
    payload = json.loads(emit(curve, EmitFormat.JSON))
    assert payload["n"] == 2
    assert payload["steps"] == 1024
    assert payload["alpha_min"] == 0.0
    assert payload["alpha_max"] == pytest.approx(TWO_PI, abs=1e-15)
    assert len(payload["points"]) == 1024
    # U_1(cos 0) = 2 puts the first point at (2, 0)
    assert payload["points"][0] == [0.0, 2.0, 0.0]


def test_svg_emission():
    curve = orbit_samples(3, 0.0, TWO_PI, 64)
    data = emit(curve, EmitFormat.SVG)
    text = data.decode("utf-8")
    assert text.startswith("<svg ")
    assert text.count("<polyline") == 1
    assert 'viewBox="' in text
    points = re.search(r'points="([^"]*)"', text).group(1)
    pairs = points.split(" ")
    assert len(pairs) == 64
    assert all(re.fullmatch(r"-?\d+\.\d{12},-?\d+\.\d{12}", p) for p in pairs)


def test_svg_viewbox_pads_extents():
    curve = orbit_samples(1, 0.0, TWO_PI, 33)
    text = emit(curve, EmitFormat.SVG).decode("utf-8")
    x0, y0, w, h = (float(v) for v in re.search(r'viewBox="([^"]*)"', text).group(1).split())
    # unit circle data spans [-1, 1] in both axes, padded by 5%
    assert x0 == pytest.approx(-1.1, abs=1e-9)
    assert y0 == pytest.approx(-1.1, abs=1e-9)
    assert w == pytest.approx(2.2, abs=1e-9)
    assert h == pytest.approx(2.2, abs=1e-9)


@pytest.mark.parametrize(
    "n, alpha_min, alpha_max, steps",
    [
        # every y is sin(a) U_2(cos a) at a = 0, 2pi/3, 4pi/3, 2pi: zero up to
        # rounding, so the y samples span about 1e-15
        (3, 0.0, TWO_PI, 4),
        # a one-ulp range: both coordinates span at most rounding noise
        (2, 1.0, math.nextafter(1.0, 2.0), 2),
    ],
)
def test_svg_viewbox_of_rounding_noise_extents_has_positive_size(n, alpha_min, alpha_max, steps):
    curve = orbit_samples(n, alpha_min, alpha_max, steps)
    ys = [y for _, _, y in curve.samples]
    assert 0.0 < max(ys) - min(ys) < 1e-12
    text = emit(curve, EmitFormat.SVG).decode("utf-8")
    viewbox = re.search(r'viewBox="([^"]*)"', text).group(1)
    _, _, width, height = (float(v) for v in viewbox.split())
    assert width > 0.0
    assert height > 0.0


def test_emission_is_deterministic():
    for fmt in EmitFormat:
        a = emit(orbit_samples(4, 0.0, TWO_PI, 257), fmt)
        b = emit(orbit_samples(4, 0.0, TWO_PI, 257), fmt)
        assert a == b
