"""Acceptance suite: one test per release criterion.

Each test prints a single verdict line (kept visible through output capture)
and asserts the same condition, so a FAIL line is always accompanied by a
failing test. Criterion 10 holds sum_auto against mpmath at every angle
size; criterion 8 times a million-term naive sum over a thousand
repeats through the CLI, in a child that conftest.py starts when collection
ends, and it runs last.
"""

import json
import math
import random
import subprocess
import sys

import mpmath
import numpy as np

from trigsum import (
    DEFAULT_THRESHOLD,
    Angle,
    ConstructionConfig,
    Family,
    GridSpec,
    Line,
    Method,
    ResidualPair,
    SumSpec,
    chebyshev_form_point,
    construct_points,
    naive_trig_sum,
    projection_sum,
    residual_sweep,
    sum_auto,
    u_sequence,
)
from trigsum.cli import run

TWO_PI = 2.0 * math.pi

FULL_COUNTS = tuple(range(1, 65)) + (100, 1000)


def full_grid():
    return GridSpec(0.05, TWO_PI - 0.05, 2000, FULL_COUNTS, guard=0.01)


def _report(capsys, line):
    with capsys.disabled():
        print(line)


def _check(capsys, num, label, measured, bound):
    ok = measured <= bound
    line = (
        f"[criterion {num}] {label}: max residual {measured:.3e} "
        f"(bound {bound:.1e}) -> {'PASS' if ok else 'FAIL'}"
    )
    _report(capsys, line)
    assert ok, line


def test_01_halfangle_denominator_form_vs_oracle(capsys):
    report = residual_sweep(full_grid(), ResidualPair.LAGRANGE_VS_NAIVE, keep_rows=False)
    _check(capsys, 1, "half-angle-denominator form vs naive oracle",
           report.max_abs_residual, 1e-8)


def test_02_whole_angle_form_vs_oracle(capsys):
    report = residual_sweep(full_grid(), ResidualPair.HALFANGLE_VS_NAIVE, keep_rows=False)
    _check(capsys, 2, "whole-angle form vs naive oracle (both parities)",
           report.max_abs_residual, 1e-8)


def test_03_cross_form_equality(capsys):
    report = residual_sweep(full_grid(), ResidualPair.LAGRANGE_VS_HALFANGLE, keep_rows=False)
    _check(capsys, 3, "closed forms against each other", report.max_abs_residual, 1e-9)


def test_04_even_odd_decomposition(capsys):
    grid = GridSpec(0.05, TWO_PI - 0.05, 2000, tuple(range(1, 513)), guard=0.01)
    report = residual_sweep(grid, ResidualPair.DECOMPOSITION_VS_HALFANGLE, keep_rows=False)
    _check(capsys, 4, "even+odd split vs full form, k <= 512",
           report.max_abs_residual, 1e-9)


def _geometry_angles():
    # Rational multiples of pi keep every step discriminant of the n=1000
    # walk above 6e-7, so no near-tangent step can leak error into the drift
    # measurements; the 0.01 cutoffs satisfy the 1e-3 guard with margin.
    denom = 1999
    candidates = []
    for j in range(1, denom):
        a = math.pi * j / denom
        if abs(math.sin(a)) >= 0.01 and abs(math.cos(a)) >= 0.01:
            candidates.append(a)
    step = len(candidates) / 500.0
    return [candidates[int(i * step)] for i in range(500)]


def test_05_geometry_suite(capsys):
    n = 1000
    worst_unit = 0.0
    worst_form = 0.0
    worst_proj_x = 0.0
    worst_proj_e = 0.0
    angles = _geometry_angles()
    assert len(angles) == 500
    for a in angles:
        seq = construct_points(ConstructionConfig(Angle(a), n))
        pts = seq.points
        cos_a, sin_a = math.cos(a), math.sin(a)
        cot = cos_a / sin_a
        for prev, cur in zip(pts, pts[1:]):
            d = math.hypot(cur.x - prev.x, cur.y - prev.y)
            worst_unit = max(worst_unit, abs(d - 1.0))
        useq = u_sequence(n - 1, cos_a)
        for l in range(2, n + 1, 2):
            px, py = pts[l].x, pts[l].y
            u = useq[l - 1]
            s = math.sin(l * a)
            worst_form = max(
                worst_form,
                abs(px - cos_a * u), abs(py - sin_a * u),
                abs(px - cot * s), abs(py - s),
            )
        for c in (1, 2, 3, 5, 10, 100, 999, 1000):
            lhs = projection_sum(seq, Line.X, c)
            worst_proj_x = max(worst_proj_x, abs(lhs - pts[c].x))
        for c in (1, 3, 5, 21, 201, 999):
            lhs = projection_sum(seq, Line.E, c)
            worst_proj_e = max(worst_proj_e, abs(lhs - cot * math.sin(c * a)))
    # the per-point coordinate function runs the identical recurrence
    for a in (angles[0], angles[250], angles[499]):
        p = chebyshev_form_point(a, n)
        useq = u_sequence(n - 1, math.cos(a))
        assert p.x == math.cos(a) * useq[n - 1]
        assert p.y == math.sin(a) * useq[n - 1]

    ok = (
        worst_unit <= 1e-10
        and worst_form <= 1e-9
        and worst_proj_x <= 1e-10
        and worst_proj_e <= 1e-9
    )
    line = (
        f"[criterion 5] construction suite (500 angles, n={n}): "
        f"unit-distance {worst_unit:.3e} (1e-10), even-point forms {worst_form:.3e} (1e-9), "
        f"x-projection {worst_proj_x:.3e} (1e-10), e-projection {worst_proj_e:.3e} (1e-9) "
        f"-> {'PASS' if ok else 'FAIL'}"
    )
    _report(capsys, line)
    assert ok, line


def test_06_chebyshev_suite(capsys):
    alphas = np.linspace(0.0, TWO_PI, 10002)[1:-1]
    assert alphas.size == 10**4
    keep = np.abs(np.sin(alphas)) >= 1e-3
    alphas = alphas[keep]
    sin_a = np.sin(alphas)
    cos_a = np.cos(alphas)
    useq = u_sequence(201, cos_a)
    worst_ratio = 0.0  # residual scaled by 1/n
    for n in range(1, 201):
        resid = np.max(np.abs(useq[n - 1] * sin_a - np.sin(n * alphas)))
        worst_ratio = max(worst_ratio, resid / n)

    xs = np.linspace(-1.0, 1.0, 2001)
    seq = u_sequence(201, xs)
    seq_neg = u_sequence(201, -xs)
    worst_rec = 0.0
    worst_parity = 0.0
    for n in range(1, 201):
        lhs = seq[n + 1] + seq[n - 1]
        rhs = 2.0 * xs * seq[n]
        scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
        worst_rec = max(worst_rec, np.max(np.abs(lhs - rhs) / scale))
        mirrored = (-1.0) ** n * seq[n]
        pscale = np.maximum(1.0, np.abs(mirrored))
        worst_parity = max(worst_parity, np.max(np.abs(seq_neg[n] - mirrored) / pscale))

    ok = worst_ratio <= 1e-10 and worst_rec <= 1e-10 and worst_parity <= 1e-10
    line = (
        f"[criterion 6] polynomial suite (10^4 angles, n <= 200): "
        f"sine-ratio/n {worst_ratio:.3e}, recurrence {worst_rec:.3e}, "
        f"parity {worst_parity:.3e} (all 1e-10) -> {'PASS' if ok else 'FAIL'}"
    )
    _report(capsys, line)
    assert ok, line


def test_07_dispatcher_totality(capsys):
    phis = [float(p) for p in np.linspace(0.0, TWO_PI, 99997)]
    phis += [0.0, math.pi, TWO_PI]
    assert len(phis) == 10**5
    worst = 0.0
    nonfinite = 0
    flag_mismatches = 0
    fallbacks = 0
    for m in (1, 7, 64):
        for phi in phis:
            spec = SumSpec(Angle(phi), m)
            result = sum_auto(spec)
            if not math.isfinite(result.value):
                nonfinite += 1
            worst = max(worst, abs(result.value - naive_trig_sum(spec)))
            expect_fallback = abs(math.sin(phi)) < DEFAULT_THRESHOLD
            is_fallback = result.method is Method.NAIVE_FALLBACK
            fallbacks += is_fallback
            if is_fallback != expect_fallback:
                flag_mismatches += 1
    ok = nonfinite == 0 and flag_mismatches == 0 and worst <= 1e-8
    line = (
        f"[criterion 7] dispatcher totality (3x10^5 evaluations, {fallbacks} fallbacks): "
        f"non-finite {nonfinite}, flag mismatches {flag_mismatches}, "
        f"max |auto - oracle| {worst:.3e} (1e-8) -> {'PASS' if ok else 'FAIL'}"
    )
    _report(capsys, line)
    assert ok, line


def test_08_closed_form_speedup(capsys, criterion_8_run):
    # `python -m trigsum.cli bench --m 1000000 --repeats 1112`, which conftest.py
    # starts when collection ends and runs beside the other tests
    proc = criterion_8_run
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    speedup = payload["speedup"]
    ok = speedup >= 100.0
    line = (
        f"[criterion 8] closed form vs naive at m=10^6 (1001 timed repeats): "
        f"speedup {speedup:.1f}x (>= 100x) -> {'PASS' if ok else 'FAIL'}"
    )
    _report(capsys, line)
    assert ok, line


def test_09_byte_determinism(capsys, tmp_path):
    commands = {
        "verify-json": ["verify", "--pair", "DecompositionVsHalfangle",
                        "--angle-min", "0.05", "--angle-max", "6.2",
                        "--steps", "400", "--counts", "1,2,3,32"],
        "verify-csv": ["verify", "--pair", "LagrangeVsNaive",
                       "--angle-min", "0.05", "--angle-max", "6.2",
                       "--steps", "200", "--counts", "4,9", "--rows"],
        "orbit-csv": ["orbit", "--n", "5", "--steps", "2048", "--format", "csv"],
        "orbit-json": ["orbit", "--n", "5", "--steps", "2048", "--format", "json"],
        "orbit-svg": ["orbit", "--n", "5", "--steps", "2048", "--format", "svg"],
    }
    mismatched = []
    for name, argv in commands.items():
        outputs = []
        for attempt in ("a", "b"):
            path = tmp_path / f"{name}-{attempt}"
            assert run(argv + ["--out", str(path)]) == 0
            outputs.append(path.read_bytes())
        if outputs[0] != outputs[1]:
            mismatched.append(name)
    # cross-process repetition for one emitter
    svg_runs = [
        subprocess.run(
            [sys.executable, "-m", "trigsum.cli", "orbit", "--n", "3",
             "--steps", "512", "--format", "svg"],
            capture_output=True,
        ).stdout
        for _ in range(2)
    ]
    if svg_runs[0] != svg_runs[1]:
        mismatched.append("orbit-svg-subprocess")
    ok = not mismatched
    line = (
        f"[criterion 9] byte determinism across repeated runs: "
        f"{'all outputs identical' if ok else 'mismatches: ' + ', '.join(mismatched)} "
        f"-> {'PASS' if ok else 'FAIL'}"
    )
    _report(capsys, line)
    assert ok, line


#: The spacing of doubles at 1, the unit of criterion 10's bounds.
EPS = 2.0**-52

#: Doubles near 1e300 within 1e-4 of a multiple of pi; the second is near an
#: even multiple, so sin(phi/2) is small there too.
HUGE = (1.0000000000024084e+300, 1.0000000000033748e+300, 1.0000000000067346e+300)

#: Angles within a threshold of k pi for k up to 10^6, and near 1e300, where
#: every family falls back (the full family's Lagrange guard only near even k).
FALLBACK_ANGLES = [sign * k * math.pi + offset for k in (1, 2, 3, 10, 1000, 12345, 10**6)
                   for sign in (1, -1) for offset in (5e-5, -9e-5, 3e-6)] + [*HUGE, -HUGE[1]]
FALLBACK_COUNTS = (1, 9, 1000, 10**4)

#: Subnormal angles k * 5e-324 with odd k, where phi / 2 rounds, with the
#: counts they are checked at and the least positive threshold, which keeps
#: them on the closed forms.
SUBNORMAL_ANGLES = [k * 5e-324 for k in (3, 5, 7, 1001, 2**20 + 1)]
SUBNORMAL_COUNTS = (1, 10, 10**6)
SUBNORMAL_THRESHOLD = 5e-324

#: Each family with the form that guards it; the even and odd families have one.
FORMS = ((Family.FULL, "halfangle"), (Family.FULL, "lagrange"), (Family.EVEN, "halfangle"),
         (Family.ODD, "halfangle"))


def _honest_angles(rng):
    """Generic angles, angles 1-5 thresholds off k pi for k up to 10^6, and a
    few huge ones, besides the fallback angles."""
    angles = [1.0, 2.5, -2.5, math.pi, math.pi / 3, 123456.789, TWO_PI - 1.1e-4,
              1e-3, 0.3 + 1e5 * math.pi, 1e20, -3.3e100, 1e300, -1e300]
    angles += [rng.uniform(-50.0, 50.0) for _ in range(24)]
    for k in (1, 2, 3, 7, 10, 1000, 12345, 10**6, *(rng.randint(4, 10**6) for _ in range(12))):
        offset = rng.choice((-1, 1)) * DEFAULT_THRESHOLD * rng.uniform(1.02, 5.0)
        angles.append(rng.choice((-1, 1)) * k * math.pi + offset)
    return angles + FALLBACK_ANGLES


def _honest_counts(rng):
    """Counts of a closed form: small ones of both parities, and up to 10^15."""
    return (1, 2, 7, 8, 1000, 10**6, 10**15,
            *(int(10 ** rng.uniform(0.0, 15.0)) for _ in range(5)))


def _reference(rad, count, family, exact):
    """The family's sum at the double rad, and its remainder r modulo the
    period rounded to a double: rad is reduced exactly at 2400 bits (once
    per angle and family, kept in exact), the closed form is evaluated at r
    at 200 bits, and the odd family takes the sign (-1)**j."""
    if (rad, family) not in exact:
        with mpmath.workprec(2400):
            x = mpmath.mpf(rad)
            period = 2 * mpmath.pi if family is Family.FULL else mpmath.pi
            j = int(mpmath.nint(x / period))
            exact[rad, family] = x - j * period, j
    r, j = exact[rad, family]
    with mpmath.workprec(200):
        a = +r
        if family is Family.FULL:
            value = (mpmath.sin((count + mpmath.mpf(0.5)) * a) / mpmath.sin(a / 2) - 1) / 2
        elif family is Family.EVEN:
            value = (mpmath.sin((2 * count + 1) * a) / mpmath.sin(a) - 1) / 2
        else:
            value = (-1 if j % 2 else 1) * mpmath.sin(2 * count * a) / (2 * mpmath.sin(a))
    return value, float(a)


def _error_over_bound(result, rad, count, family, exact):
    """result's error against mpmath over its method's bound. A ClosedForm
    result must be within 2 (2m+1) eps of the true sum. A NaiveFallback
    result must be within the naive loop's bound at the reduced angle r:
    rounding r once moves each term argument by at most top*|r|*u more,
    which the bound's factor 2 on m*top*|r|*u already holds."""
    value, r = _reference(rad, count, family, exact)
    with mpmath.workprec(200):
        error = float(abs(mpmath.mpf(result.value) - value))
    if result.method is Method.NAIVE_FALLBACK:
        top = {Family.FULL: count, Family.EVEN: 2 * count, Family.ODD: 2 * count - 1}[family]
        return error / (count * (top * abs(r) + count) * EPS)
    return error / ((2 * count + 1) * EPS)


def test_10_closed_form_label_is_honest(capsys):
    rng = random.Random(10)
    angles, counts = _honest_angles(rng), _honest_counts(rng)
    exact = {}
    worst_closed = worst_fallback = 0.0
    closed = fallbacks = raised = missed = 0
    for family, form in FORMS:
        at_fallback_angles = 0
        for rad in angles:
            try:
                flagged = sum_auto(SumSpec(rad, 1, family), full_form=form).method
            except ValueError:
                raised += 1
                continue
            is_fallback = flagged is Method.NAIVE_FALLBACK
            # sin(phi/2), the Lagrange guard, is regular near the odd multiples of pi
            expected = rad in FALLBACK_ANGLES
            missed += expected and form != "lagrange" and not is_fallback
            for count in FALLBACK_COUNTS if is_fallback else counts:
                try:
                    result = sum_auto(SumSpec(rad, count, family), full_form=form)
                except ValueError:
                    raised += 1
                    continue
                ratio = _error_over_bound(result, rad, count, family, exact)
                if is_fallback:
                    worst_fallback = max(worst_fallback, ratio)
                    fallbacks += 1
                    at_fallback_angles += expected
                else:
                    worst_closed = max(worst_closed, ratio)
                    closed += 1
        missed += at_fallback_angles < 2 * len(FALLBACK_ANGLES)
        for rad in SUBNORMAL_ANGLES:
            for count in SUBNORMAL_COUNTS:
                result = sum_auto(SumSpec(rad, count, family), threshold=SUBNORMAL_THRESHOLD,
                                  full_form=form)
                ratio = _error_over_bound(result, rad, count, family, exact)
                if result.method is Method.CLOSED_FORM:
                    worst_closed = max(worst_closed, ratio)
                    closed += 1
                else:
                    worst_fallback = max(worst_fallback, ratio)
                    fallbacks += 1
    ok = worst_closed <= 2.0 and worst_fallback <= 1.0 and raised == missed == 0
    line = (
        f"[criterion 10] ClosedForm within 2(2m+1)eps of mpmath, m <= 10^15, "
        f"|phi| <= 1e300 ({closed} closed forms, {fallbacks} fallbacks): "
        f"worst closed form {worst_closed:.3f} (2m+1)eps (bound 2), worst fallback "
        f"{worst_fallback:.3f} of the naive bound (bound 1), raised {raised}, "
        f"missed fallbacks {missed} -> {'PASS' if ok else 'FAIL'}"
    )
    _report(capsys, line)
    assert ok, line
