"""Tests for the closed-form sum kernels, oracles, and the dispatcher."""

import itertools
import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigsum import (
    Angle,
    Family,
    Method,
    SingularDenominator,
    SumSpec,
    closed_form_point,
    even_index_sum,
    halfangle_free_sum,
    lagrange_sum,
    naive_running_sums,
    naive_trig_sum,
    odd_index_sum,
    sum_auto,
    x_coordinate_identity,
)
from trigsum.kernels import _PI, _PI_SHIFT, RunningSumPlan, _reduced

PI = math.pi


def spec(phi, count, family=Family.FULL):
    return SumSpec(Angle(phi), count, family)


# Angles with both |sin(phi)| and |sin(phi/2)| comfortably above 0.01.
guarded_angles = st.floats(0.05, 2 * PI - 0.05).filter(
    lambda phi: abs(math.sin(phi)) >= 0.01 and abs(math.sin(phi / 2)) >= 0.01
)


def test_naive_examples():
    assert naive_trig_sum(spec(PI / 2, 4)) == pytest.approx(0.0, abs=1e-15)
    assert naive_trig_sum(spec(PI / 6, 2, Family.ODD)) == pytest.approx(
        math.sqrt(3) / 2, abs=1e-15
    )
    assert naive_trig_sum(spec(PI / 6, 1, Family.EVEN)) == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("phi", [0.37, -2.5, 123456.789, PI])
def test_naive_running_sums_match_naive_bit_for_bit(family, phi):
    counts = (5, 1, 64, 5, 1000, 2, 1, 999)
    running = naive_running_sums(phi, family, counts)
    assert [x.hex() for x in running] == [
        naive_trig_sum(spec(phi, c, family)).hex() for c in counts
    ]


MULTIPLIER = {Family.FULL: lambda l: l, Family.EVEN: lambda l: 2 * l,
              Family.ODD: lambda l: 2 * l - 1}


def literal_sum(phi, count, family):
    """The one-term-at-a-time loop, kept here so the kernel is checked against it."""
    rad = Angle(phi).radians
    total = 0.0
    for mult in map(MULTIPLIER[family], range(1, count + 1)):
        total += math.cos(mult * rad)
    return total


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("phi", [0.37, -2.5, 123456.789, PI, 40000 * PI + 5e-5, 0.0])
def test_naive_kernel_matches_the_literal_loop_bit_for_bit(family, phi):
    # every remainder mod 8, below and above one run of eight, and two long sums
    counts = [*range(1, 41), 1000, 4103]
    assert [naive_trig_sum(spec(phi, c, family)).hex() for c in counts] == [
        literal_sum(phi, c, family).hex() for c in counts
    ]
    # running counts that start and stop inside a run of eight
    split = (3, 8, 9, 16, 17, 5, 1000, 3)
    assert [x.hex() for x in naive_running_sums(phi, family, split)] == [
        literal_sum(phi, c, family).hex() for c in split
    ]


def test_naive_running_sums_validation():
    assert naive_running_sums(1.0, Family.FULL, ()) == []
    with pytest.raises(ValueError):
        naive_running_sums(1.0, Family.EVEN, (3, 0))
    with pytest.raises(ValueError):
        naive_running_sums(math.nan, Family.FULL, (1,))


#: Gaps between consecutive distinct counts: one term (added inline by the
#: plan), shorter than a run of eight, and at least one run.
GAP_KINDS = (st.just(1), st.integers(2, 7), st.integers(8, 300))


@st.composite
def plan_counts(draw):
    """Counts with at least one gap of each kind, shuffled, some repeated."""
    gaps = [draw(kind) for kind in GAP_KINDS]
    gaps += draw(st.lists(st.one_of(*GAP_KINDS), max_size=8))
    counts = list(itertools.accumulate(draw(st.permutations(gaps))))
    repeats = draw(st.lists(st.sampled_from(counts), max_size=4))
    return draw(st.permutations(counts + repeats))


@given(st.sampled_from(list(Family)), st.floats(-1e4, 1e4), st.floats(-1e4, 1e4),
       plan_counts())
@settings(deadline=None, max_examples=60)
def test_running_sum_plan_matches_naive_bit_for_bit(family, phi, other, counts):
    plan = RunningSumPlan(family, counts)
    for rad in (phi, other):  # one plan serves every angle
        assert [x.hex() for x in plan(rad)] == [
            naive_trig_sum(spec(rad, c, family)).hex() for c in counts
        ]


def test_running_sum_plan_holds_one_step_per_distinct_count():
    # no multiplier table: a count no loop could reach costs one range
    counts = (10**400 + 1, 3, 10**400, 4, 3)
    plan = RunningSumPlan(Family.ODD, counts)
    assert len(plan._steps) == len(set(counts))


def test_family_index_ranges():
    # full m=4 covers multiples 1..4; even k=2 covers 2,4; odd k=2 covers 1,3
    phi = 0.37
    full = naive_trig_sum(spec(phi, 4))
    even = naive_trig_sum(spec(phi, 2, Family.EVEN))
    odd = naive_trig_sum(spec(phi, 2, Family.ODD))
    assert full == pytest.approx(even + odd, abs=1e-15)


def test_spec_validation():
    with pytest.raises(ValueError):
        SumSpec(Angle(1.0), 0)


def test_counts_must_be_integers():
    # a 2.5-term sum does not exist: the closed forms used to evaluate one
    for count in (2.5, 3.0):
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            SumSpec(1.0, count)
        for fn in (lagrange_sum, halfangle_free_sum, even_index_sum, odd_index_sum):
            with pytest.raises(TypeError):
                fn(1.0, count)
    # the angle is still checked first
    with pytest.raises(ValueError, match="angle must be finite"):
        SumSpec(math.nan, 2.5)


def test_integer_like_counts_pass_as_int():
    numpy = pytest.importorskip("numpy")
    for count in (numpy.int64(7), numpy.uint8(7), True):
        built = SumSpec(1.0, count)
        assert built.count.__class__ is int
        assert built == SumSpec(1.0, int(count))
        for family in Family:
            assert sum_auto(SumSpec(3e-5, count, family)) == sum_auto(SumSpec(3e-5, int(count), family))
        for fn in (lagrange_sum, halfangle_free_sum, even_index_sum, odd_index_sum):
            assert fn(1.0, count) == fn(1.0, int(count))
    with pytest.raises(ValueError, match="count must be >= 1, got 0"):
        SumSpec(1.0, numpy.int64(0))


def test_families_are_coerced_from_their_values():
    for family in Family:
        built = SumSpec(1.0, 3, family.value)
        assert built.family is family
        assert built == SumSpec(1.0, 3, family)
        assert sum_auto(built) == sum_auto(SumSpec(1.0, 3, family))
    with pytest.raises(ValueError, match="'bogus' is not a valid Family"):
        SumSpec(1.0, 3, "bogus")
    with pytest.raises(ValueError, match="count must be >= 1"):
        SumSpec(1.0, 0, "bogus")


def test_lagrange_examples():
    assert lagrange_sum(2 * PI / 3, 2) == pytest.approx(-1.0, abs=1e-15)
    assert lagrange_sum(PI / 2, 4) == pytest.approx(0.0, abs=1e-15)
    oracle = naive_trig_sum(spec(1.0, 100))
    assert lagrange_sum(1.0, 100) == pytest.approx(oracle, abs=1e-10)


def test_halfangle_examples():
    assert halfangle_free_sum(PI / 3, 2) == pytest.approx(0.0, abs=1e-15)
    assert halfangle_free_sum(2 * PI / 3, 2) == pytest.approx(-1.0, abs=1e-15)
    # odd term count: agreement with the oracle is an empirical extension
    oracle = naive_trig_sum(spec(0.7, 101))
    assert halfangle_free_sum(0.7, 101) == pytest.approx(oracle, abs=1e-10)


def test_even_index_examples():
    assert even_index_sum(PI / 6, 1) == pytest.approx(0.5, abs=1e-15)
    assert even_index_sum(PI / 4, 2) == pytest.approx(-1.0, abs=1e-15)
    oracle = naive_trig_sum(spec(1.3, 500, Family.EVEN))
    assert even_index_sum(1.3, 500) == pytest.approx(oracle, abs=1e-9)


def test_odd_index_examples():
    assert odd_index_sum(PI / 6, 2) == pytest.approx(math.sqrt(3) / 2, abs=1e-15)
    oracle = naive_trig_sum(spec(0.9, 333, Family.ODD))
    assert odd_index_sum(0.9, 333) == pytest.approx(oracle, abs=1e-9)


@given(guarded_angles)
@settings(deadline=None)
def test_odd_index_single_term_is_cos(alpha):
    assert odd_index_sum(alpha, 1) == pytest.approx(math.cos(alpha), abs=1e-12)


def test_count_validation():
    for fn in (lagrange_sum, halfangle_free_sum, even_index_sum, odd_index_sum):
        with pytest.raises(ValueError):
            fn(1.0, 0)
    with pytest.raises(ValueError):
        x_coordinate_identity(1.0, -1)


def test_singular_denominators():
    with pytest.raises(SingularDenominator):
        lagrange_sum(1e-5, 3)
    with pytest.raises(SingularDenominator):
        halfangle_free_sum(PI, 3)
    with pytest.raises(SingularDenominator):
        even_index_sum(2 * PI, 3)
    with pytest.raises(SingularDenominator):
        odd_index_sum(1e-5, 3)
    # the half-angle denominator is regular at phi = pi
    assert lagrange_sum(PI, 3) == pytest.approx(-1.0, abs=1e-12)


def test_zero_threshold_still_rejects_exact_zero():
    with pytest.raises(SingularDenominator):
        halfangle_free_sum(0.0, 3, threshold=0.0)
    # sin(pi) rounds to 1.2e-16, not zero, so a zero threshold lets it through
    assert math.isfinite(halfangle_free_sum(PI, 3, threshold=0.0))


def test_x_coordinate_identity_examples():
    lhs, rhs = x_coordinate_identity(PI / 3, 1)
    assert lhs == pytest.approx(-0.5, abs=1e-12)
    assert rhs == pytest.approx(-0.5, abs=1e-12)
    # the right side is the terminal abscissa of the 2k+2 point
    assert rhs == pytest.approx(closed_form_point(PI / 3, 4).x, abs=1e-12)

    lhs, rhs = x_coordinate_identity(PI / 4, 0)
    assert lhs == pytest.approx(1.0, abs=1e-15)
    assert rhs == pytest.approx(1.0, abs=1e-15)

    lhs, rhs = x_coordinate_identity(0.3, 50)
    assert abs(lhs - rhs) <= 1e-10


@given(guarded_angles, st.integers(0, 200))
@settings(deadline=None)
def test_x_coordinate_identity_agrees(alpha, k):
    lhs, rhs = x_coordinate_identity(alpha, k)
    assert abs(lhs - rhs) <= 1e-9


def literal_x_identity_lhs(alpha, k):
    """The identity's left side as the one-term-at-a-time loop, kept here so
    x_coordinate_identity is checked against it."""
    rad = Angle(alpha).radians
    lhs = 1.0
    for l in range(1, k + 1):
        lhs += 2.0 * math.cos(2 * l * rad)
    return lhs + math.cos((2 * k + 2) * rad)


@pytest.mark.parametrize("alpha", [0.37, -2.5, 123456.789, PI / 3, 2 * PI - 1e-7])
def test_x_identity_lhs_matches_the_literal_loop_bit_for_bit(alpha):
    # every remainder mod 8, below and above one run of eight, and two long sums
    ks = [*range(41), 999, 4103]
    assert [x_coordinate_identity(alpha, k, threshold=0.0)[0].hex() for k in ks] == [
        literal_x_identity_lhs(alpha, k).hex() for k in ks
    ]


def test_sum_auto_fallback_at_pi():
    result = sum_auto(spec(PI, 5))
    assert result.method is Method.NAIVE_FALLBACK
    assert result.value == pytest.approx(-1.0, abs=1e-12)
    assert result.singular_proximity == abs(math.sin(PI))

    result = sum_auto(spec(PI, 4))
    assert result.method is Method.NAIVE_FALLBACK
    assert result.value == pytest.approx(0.0, abs=1e-12)


def test_sum_auto_closed_form():
    result = sum_auto(spec(1.0, 10))
    assert result.method is Method.CLOSED_FORM
    assert result.value == pytest.approx(lagrange_sum(1.0, 10), abs=1e-12)
    assert result.value == halfangle_free_sum(1.0, 10)


def test_sum_auto_lagrange_form_is_regular_at_pi():
    # the alternate full form divides by sin(phi/2) = 1 at phi = pi
    result = sum_auto(spec(PI, 5), full_form="lagrange")
    assert result.method is Method.CLOSED_FORM
    assert result.value == pytest.approx(-1.0, abs=1e-12)
    assert result.singular_proximity == abs(math.sin(PI / 2))


def test_sum_auto_threshold_boundary():
    below = sum_auto(spec(9e-5, 3))
    assert below.method is Method.NAIVE_FALLBACK
    above = sum_auto(spec(2e-4, 3))
    assert above.method is Method.CLOSED_FORM
    custom = sum_auto(spec(0.4, 3), threshold=0.5)
    assert custom.method is Method.NAIVE_FALLBACK


def test_sum_auto_even_odd_families():
    assert sum_auto(spec(0.8, 5, Family.EVEN)).value == even_index_sum(0.8, 5)
    assert sum_auto(spec(0.8, 5, Family.ODD)).value == odd_index_sum(0.8, 5)
    near = sum_auto(spec(PI + 1e-9, 5, Family.EVEN))
    assert near.method is Method.NAIVE_FALLBACK
    assert near.value == pytest.approx(naive_trig_sum(spec(PI + 1e-9, 5, Family.EVEN)))


def test_nan_threshold_is_rejected():
    nan = float("nan")
    # NaN compares false with every denominator, so it used to pass even an
    # exact zero on to the division
    with pytest.raises(ValueError, match="nan"):
        sum_auto(spec(0.0, 5), threshold=nan)
    for fn in (lagrange_sum, halfangle_free_sum, even_index_sum, odd_index_sum):
        for angle in (0.0, 1e-9, 1.0):
            with pytest.raises(ValueError, match="NaN"):
                fn(angle, 5, threshold=nan)
    with pytest.raises(ValueError, match="NaN"):
        x_coordinate_identity(1.0, 2, threshold=nan)


def test_zero_threshold_keeps_its_meaning_for_the_kernels():
    for fn in (lagrange_sum, halfangle_free_sum, even_index_sum, odd_index_sum):
        assert fn(1.0, 5, threshold=0.0) == fn(1.0, 5)
        assert math.isfinite(fn(1e-9, 5, threshold=0.0))
        with pytest.raises(SingularDenominator):
            fn(0.0, 5, threshold=0.0)


@pytest.mark.parametrize("family", list(Family))
def test_sum_auto_validation(family):
    # both checks run for every family, before a route is picked
    for threshold in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="threshold must be > 0"):
            sum_auto(spec(1.0, 3, family), threshold=threshold)
    with pytest.raises(ValueError, match="full_form must be one of"):
        sum_auto(spec(1.0, 3, family), full_form="unknown")


@given(guarded_angles, st.integers(1, 200))
@settings(deadline=None)
def test_lagrange_matches_oracle(phi, m):
    assert abs(lagrange_sum(phi, m) - naive_trig_sum(spec(phi, m))) <= 1e-8


@given(guarded_angles, st.integers(1, 200))
@settings(deadline=None)
def test_halfangle_matches_oracle(phi, m):
    assert abs(halfangle_free_sum(phi, m) - naive_trig_sum(spec(phi, m))) <= 1e-8


@given(guarded_angles, st.integers(1, 256))
@settings(deadline=None)
def test_decomposition_matches_full_form(alpha, k):
    total = even_index_sum(alpha, k) + odd_index_sum(alpha, k)
    assert abs(total - halfangle_free_sum(alpha, 2 * k)) <= 1e-9


@given(st.sampled_from(list(Family)), st.integers(1, 500), st.floats(-20.0, 20.0))
@settings(deadline=None)
def test_naive_within_its_error_bound_of_an_mpmath_reference(family, m, phi):
    multiples = {Family.FULL: range(1, m + 1), Family.EVEN: range(2, 2 * m + 1, 2),
                 Family.ODD: range(1, 2 * m, 2)}[family]
    top = multiples[-1]
    # With u = 2**-53: each term is cos of the rounded product mult*phi, whose
    # argument is off by at most top*|phi|*u, and cos is 1-Lipschitz; math.cos
    # adds under u. The total after j terms is at most j in magnitude, so the
    # additions round by at most (2 + ... + m)*u. Together that is below
    # m*top*|phi|*u + (m**2 + 3m - 2)/2*u <= m*(top*|phi| + m)*2u.
    bound = m * (top * abs(phi) + m) * 2.0**-52
    with mpmath.workprec(200):
        x = mpmath.mpf(phi)
        exact = mpmath.fsum(mpmath.cos(mult * x) for mult in multiples)
        error = abs(mpmath.mpf(naive_trig_sum(spec(phi, m, family))) - exact)
    assert error <= bound


@pytest.mark.parametrize("full_form", ["halfangle", "lagrange"])
def test_sum_auto_domain_ends_where_the_scaled_argument_overflows(full_form):
    # the largest multiple of phi, about count * phi, must be finite
    for family in Family:
        with pytest.raises(ValueError, match="math domain error"):
            sum_auto(SumSpec(Angle(1e308), 5, family), full_form=full_form)
    assert math.isfinite(sum_auto(SumSpec(Angle(1e307), 5), full_form=full_form).value)


def machin_pi(bits: int, guard: int = 64) -> int:
    """floor(pi * 2**bits) from Machin's formula, pi = 16 atan(1/5) - 4 atan(1/239),
    with each arctangent series summed in integers carrying guard extra bits."""
    one = 1 << (bits + guard)

    def atan_inv(x: int) -> int:  # atan(1/x) * one, each term truncated
        total, power, n, sign = 0, one // x, 1, 1
        while power:
            total += sign * (power // n)
            power, n, sign = power // (x * x), n + 2, -sign
        return total

    scaled = 16 * atan_inv(5) - 4 * atan_inv(239)
    # under 1000 truncated terms, each off by under 2: the guard bits hold the
    # error, and the floor is right unless they sit within it of a boundary
    low = scaled & ((1 << guard) - 1)
    assert 2**16 < low < 2**guard - 2**16
    return scaled >> guard


def test_committed_pi_regenerates_from_machins_formula():
    assert _PI_SHIFT >= 2400
    assert _PI == machin_pi(_PI_SHIFT)


def exact_remainder(rad, family):
    """(rad - j * period, j) to 4000 bits, for the integer j nearest rad / period."""
    with mpmath.workprec(4000):
        x = mpmath.mpf(rad)
        period = 2 * mpmath.pi if family is Family.FULL else mpmath.pi
        j = int(mpmath.floor(x / period + mpmath.mpf(0.5)))
        return x - j * period, j


def rounded(value):
    """value rounded once to the nearest double (normal range)."""
    with mpmath.workprec(53):
        return float(+value)


#: Doubles near 1e300 within 1e-4 of a multiple of pi; the second is near an
#: even multiple, so sin(phi/2) is small there too.
HUGE = (1.0000000000024084e+300, 1.0000000000033748e+300, 1.0000000000067346e+300)


@pytest.mark.parametrize("family", list(Family))
def test_reduced_is_the_correctly_rounded_exact_remainder(family):
    near_k_pi = [sign * k * PI + offset
                 for k in (1, 2, 3, 7, 1000, 1001, 12345, 10**6 - 1, 10**6)
                 for sign in (1, -1) for offset in (0.0, 5e-5, -5e-5, 1e-9, -3e-6)]
    for rad in near_k_pi + [2.5, -2.5, 123456.789, 1e300, 1e308, -1e308,
                            1.7976931348623157e308, *HUGE, -HUGE[0]]:
        exact, j = exact_remainder(rad, family)
        expected = (rounded(exact), -1.0 if family is Family.ODD and j % 2 else 1.0)
        assert _reduced(rad, family) == expected, rad


@pytest.mark.parametrize("family", list(Family))
def test_reduced_keeps_the_bits_within_the_first_half_period(family):
    half = PI if family is Family.FULL else PI / 2
    for rad in (0.0, 5e-324, -5e-324, 1e-300, 1e-9, 1.0, -1.0, 1.5, -1.5, 0.999 * half,
                -0.999 * half, math.nextafter(half, 0.0)):
        r, sign = _reduced(rad, family)
        assert (r.hex(), sign) == (rad.hex(), 1.0)


def test_reduced_odd_family_changes_sign_with_odd_multiples():
    for k in (1, 3, 1001, 10**6 - 1, -1, -999):
        rad = k * PI + 5e-5
        assert _reduced(rad, Family.ODD) == (_reduced(rad, Family.EVEN)[0], -1.0)
        assert _reduced(rad + PI, Family.ODD)[1] == 1.0
    assert _reduced(HUGE[0], Family.ODD)[1] == -1.0


def true_sum(rad, count, family):
    """The family's sum at the double rad by its closed form, at 4000 bits."""
    with mpmath.workprec(4000):
        a = mpmath.mpf(rad)
        if family is Family.FULL:
            return (mpmath.sin((count + mpmath.mpf(0.5)) * a) / mpmath.sin(a / 2) - 1) / 2
        if family is Family.EVEN:
            return (mpmath.sin((2 * count + 1) * a) / mpmath.sin(a) - 1) / 2
        return mpmath.sin(2 * count * a) / (2 * mpmath.sin(a))


FALLBACK_ANGLES = [sign * k * PI + offset for k in (1, 2, 3, 10, 1000, 12345, 10**6)
                   for sign in (1, -1) for offset in (5e-5, -9e-5, 3e-6)] + [*HUGE, -HUGE[1]]


@pytest.mark.parametrize("family, form", [(Family.FULL, "halfangle"), (Family.FULL, "lagrange"),
                                          (Family.EVEN, "halfangle"), (Family.ODD, "halfangle")])
def test_fallback_within_the_naive_bound_at_the_reduced_angle(family, form):
    # The bound of test_naive_within_its_error_bound_of_an_mpmath_reference at
    # the reduced angle r: rounding r once moves each term argument by at most
    # top*|r|*u more, which the bound's factor 2 on m*top*|r|*u already holds.
    checked = 0
    for rad in FALLBACK_ANGLES:
        for count in (1, 9, 1000, 10**4):
            result = sum_auto(spec(rad, count, family), full_form=form)
            if form == "lagrange" and result.method is Method.CLOSED_FORM:
                continue  # sin(phi/2) is regular near the odd multiples of pi
            assert result.method is Method.NAIVE_FALLBACK
            top = {Family.FULL: count, Family.EVEN: 2 * count, Family.ODD: 2 * count - 1}[family]
            r = rounded(exact_remainder(rad, family)[0])
            bound = count * (top * abs(r) + count) * 2.0**-52
            with mpmath.workprec(4000):
                error = abs(mpmath.mpf(result.value) - true_sum(rad, count, family))
            assert error <= bound, (rad, count)
            checked += 1
    assert checked >= 2 * len(FALLBACK_ANGLES)
