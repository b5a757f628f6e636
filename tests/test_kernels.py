"""Tests for the closed-form sum kernels, oracles, and the dispatcher."""

import itertools
import math
import random
from fractions import Fraction

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
from trigsum import kernels
from trigsum.kernels import (
    _PI,
    _PI_SHIFT,
    _PI_SPLIT,
    RunningSumPlan,
    _ratio,
    _reduced,
)

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
    # every remainder mod 32, one count each side of one run and of two runs of
    # 32, and two long sums
    counts = [*range(1, 70), 1000, 4103]
    assert [naive_trig_sum(spec(phi, c, family)).hex() for c in counts] == [
        literal_sum(phi, c, family).hex() for c in counts
    ]
    # running counts that start and stop inside a run of 32
    split = (3, 31, 32, 33, 40, 64, 65, 5, 1000, 3)
    assert [x.hex() for x in naive_running_sums(phi, family, split)] == [
        literal_sum(phi, c, family).hex() for c in split
    ]


def test_naive_running_sums_validation():
    assert naive_running_sums(1.0, Family.FULL, ()) == []
    with pytest.raises(ValueError):
        naive_running_sums(1.0, Family.EVEN, (3, 0))
    with pytest.raises(ValueError):
        naive_running_sums(math.nan, Family.FULL, (1,))


#: Gaps between consecutive distinct counts: one term (consecutive ones make
#: one run of float multipliers in the plan), shorter than a run of 32, and at
#: least one run of 32.
GAP_KINDS = (st.just(1), st.integers(2, 31), st.integers(32, 300))


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


def plan_items(plan):
    """The plan's stored items: each float of a one-term run, and each range."""
    return [item for step in plan._steps
            for item in (step if step.__class__ is list else (step,))]


def test_running_sum_plan_holds_one_step_per_distinct_count():
    # no multiplier table: a count no loop could reach costs one range
    counts = (10**400 + 1, 3, 10**400, 4, 3)
    plan = RunningSumPlan(Family.ODD, counts)
    assert len(plan_items(plan)) == len(set(counts))
    # Consecutive counts: the one-term gaps between them become one run of
    # float multipliers, until the multiplier reaches 2**53.
    counts = (1, 2, 3, 9, 10, 11, 11, 40, 2**53 - 2, 2**53 - 1, 2**53, 2**53 + 1)
    plan = RunningSumPlan(Family.FULL, counts)
    items = plan_items(plan)
    assert len(items) == len(set(counts))
    assert [type(step) for step in plan._steps] == [list, range, list, range, range, list,
                                                    range, range]
    assert items[:3] == [1.0, 2.0, 3.0] and items[4:6] == [10.0, 11.0]
    assert items[8] == 2.0**53 - 1
    assert items[9:] == [range(2**53, 2**53 + 1), range(2**53 + 1, 2**53 + 2)]


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
    # every remainder mod 32, one count each side of one run and of two runs of
    # 32, and two long sums
    ks = [*range(70), 999, 4103]
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
    # j = 0 at a normal angle: lagrange_sum's bits, whichever form guards
    assert result.value == lagrange_sum(1.0, 10)
    assert result.value == pytest.approx(halfangle_free_sum(1.0, 10), abs=1e-12)


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


@pytest.mark.parametrize("family", list(Family))
def test_sum_auto_fallback_calls_naive_trig_sum_at_the_reduced_angle(monkeypatch, family):
    calls = []

    def counting(spec):
        calls.append(spec)
        return naive_trig_sum(spec)

    monkeypatch.setattr(kernels, "naive_trig_sum", counting)
    rad = 3 * PI + 5e-5  # j = 3 for the period pi: the odd family's sign is -1
    r, sign = _reduced(rad, family)
    assert sign == (-1.0 if family is Family.ODD else 1.0)
    result = sum_auto(spec(rad, 1001, family))
    assert result.method is Method.NAIVE_FALLBACK
    assert calls == [SumSpec(r, 1001, family)]
    literal = sign * kernels._add_terms(0.0, r, kernels._multiples(family, 0, 1001))
    assert result.value.hex() == literal.hex()
    assert sum_auto(spec(1.0, 1001, family)).method is Method.CLOSED_FORM
    assert len(calls) == 1


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
def test_only_the_kernels_domain_ends_where_the_scaled_argument_overflows(full_form):
    # the public kernels run at the given angle: 5 * 1e308 overflows to inf
    for kernel in (lagrange_sum, halfangle_free_sum, even_index_sum, odd_index_sum):
        with pytest.raises(ValueError, match="math domain error"):
            kernel(1e308, 5)
    # sum_auto's closed forms run at the reduced angle, within criterion 10's bound
    for rad in (1e308, -1e308, 1.7976931348623157e308, 1e307):
        for family in Family:
            result = sum_auto(SumSpec(Angle(rad), 5, family), full_form=full_form)
            assert result.method is Method.CLOSED_FORM
            with mpmath.workprec(4000):
                error = abs(mpmath.mpf(result.value) - true_sum(rad, 5, family))
            assert error <= 2 * (2 * 5 + 1) * 2.0**-52, (rad, family)


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


def test_split_leading_pieces_have_at_most_thirty_significant_bits():
    _, c1, c2, c3 = _PI_SPLIT
    for piece in (c1, c2):
        numerator, _ = piece.as_integer_ratio()  # lowest terms: odd over a power of two
        assert numerator.bit_length() <= 30
    # each piece starts below the last bit of the one before it
    assert c2 < math.ulp(c1) * 2**23 and c3 < c2 * 2.0**-29


def test_split_sums_to_the_period_to_105_bits():
    inv, c1, c2, c3 = _PI_SPLIT
    exact = Fraction(_PI, 1 << _PI_SHIFT)
    pieces = Fraction(c1) + Fraction(c2) + Fraction(c3)
    assert abs(pieces - exact) <= exact * Fraction(1, 2**105)
    assert inv == float(1 / exact)


def split_cases(rng):
    """About 35000 angles over the split's domain and its edges, negatives too."""
    edge = 2.0**20 * PI
    cases = [rng.uniform(-edge, edge) for _ in range(10000)]
    cases += [rng.uniform(-8 * PI, 8 * PI) for _ in range(4000)]
    # nextafter steps around k * pi, for small k, for odd k, and for k up to 2**20
    ks = [*range(1, 200), *rng.sample(range(1, 2**20), 600), 2**20 - 1, 2**20 - 2]
    for k in ks:
        x = k * PI
        for _ in range(4):
            x = math.nextafter(x, -math.inf)
        for _ in range(9):
            cases.append(x)
            x = math.nextafter(x, math.inf)
    # |rad / pi| just under and just over 2**20
    for x in (edge, edge - 0.25 * PI, edge + 0.25 * PI, edge - 1e-3, edge + 1e-3):
        for step in range(-40, 41):
            cases.append(x + step * math.ulp(x))
    # |r| just under and just over 2**-20
    for k in ks[::3]:
        for t in (0.98, 0.999, 1.0, 1.001, 1.02, 1.5):
            for sign in (1.0, -1.0):
                cases.append(k * PI + sign * t * 2.0**-20)
    return cases + [-x for x in cases]


@pytest.fixture
def split(monkeypatch):
    """rad -> (r, sign), the angle _ratio reduces rad to and the sign it
    applies. _ratio(rad, 2) runs with a sine that records its arguments and
    returns 1.0: it divides sin(2 r) by sin(r), so r is the second argument
    and the ratio it returns, sign * 1.0 / 1.0, is the sign."""
    arguments = []

    def recording_sine(x):
        arguments.append(x)
        return 1.0

    monkeypatch.setattr(kernels, "_sin", recording_sine)

    def split(rad):
        arguments.clear()
        sign = _ratio(rad, 2)
        return arguments[1], sign

    return split


def test_split_reduced_within_one_ulp_of_reduced(split):
    rng = random.Random("split odd")
    checked = 0
    for rad in split_cases(rng):
        r, sign = split(rad)
        exact, exact_sign = _reduced(rad, Family.ODD)
        assert sign == exact_sign, rad
        if exact.hex() == rad.hex():  # j = 0
            assert r.hex() == rad.hex()
        else:
            assert abs(r - exact) <= math.ulp(exact), rad
        checked += 1
    assert checked >= 10**5 // 3


def test_split_reduced_is_reduced_outside_its_domain(split):
    outside = [2.0**20 * PI * 1.001, 1e7, 1e10, 123456789012.5, 1e300, 1.7976931348623157e308,
               *HUGE]
    # |r| below 2**-20: the double nearest k * pi, and offsets under 2**-20
    for k in (1, 2, 3, 1001, 12345, 2**20 - 1):
        outside += [k * PI, k * PI + 1e-7, k * PI - 9e-7, k * PI + 3e-12]
    for rad in outside + [-x for x in outside]:
        exact = _reduced(rad, Family.ODD)
        assert abs(exact[0]) < 2.0**-20 or abs(rad / PI) >= 2.0**20, rad
        assert split(rad) == exact, rad


def test_split_reduced_may_take_the_other_integer_at_a_half_period(split):
    # where rad / pi lies next to a half-integer, j may be either integer
    # beside it: r then lies just past pi / 2, pi from _reduced's, and the
    # sign follows j
    other = 0
    for k in (0, 1, 2, 7, 100, 12345, 2**19 + 3, 2**20 - 2):
        x = (k + 0.5) * PI
        for _ in range(6):
            x = math.nextafter(x, -math.inf)
        for _ in range(13):
            for rad in (x, -x):
                r, sign = split(rad)
                exact, exact_sign = _reduced(rad, Family.ODD)
                if abs(r - exact) <= math.ulp(exact):
                    assert sign == exact_sign
                    continue
                other += 1
                assert abs(abs(r - exact) - PI) <= 4 * math.ulp(PI), rad
                assert abs(r) < PI / 2 + 1e-8
                assert sign == -exact_sign
            x = math.nextafter(x, math.inf)
    assert other > 0


def exact_ratio(rad, n):
    """sin(n a) / sin a at the double a = rad, to 4000 bits; n at a = 0."""
    if rad == 0.0:
        return mpmath.mpf(n)
    with mpmath.workprec(4000):
        a = mpmath.mpf(rad)
        return mpmath.sin(n * a) / mpmath.sin(a)


def test_ratio_within_two_n_eps_of_the_exact_ratio():
    angles = [0.0, 5e-324, 1e-300, 1e-9, 0.3, -1.5, PI / 2, PI, -PI, 2 * PI, 3 * PI + 1e-9,
              1000 * PI - 1e-7, 2.0**20 * PI + 2.0**-20, 12345.6, 1e10, *HUGE, -1e300,
              1.7976931348623157e308]
    for n in (1, 2, 3, 10, 1001, 10**6, 2**40):
        for rad in angles:
            error = abs(_ratio(rad, n) - exact_ratio(rad, n))
            assert error <= 2 * n * 2.0**-52, (rad, n)


def test_ratio_takes_the_limit_where_the_sine_vanishes():
    for n in (1, 2, 7, 10**6, 2**60):
        assert _ratio(0.0, n) == _ratio(-0.0, n) == float(n)
    # U_{n-1}(-1) = (-1)**(n-1) n, and pi's double lies next to pi
    assert _ratio(PI, 7) == pytest.approx(7.0, abs=1e-13)
    assert _ratio(PI, 8) == pytest.approx(-8.0, abs=1e-13)


def test_sum_auto_full_family_at_the_least_angle():
    # r / 2 underflows to zero at r = 5e-324, where every term of the sum is 1.0
    result = sum_auto(spec(5e-324, 7), threshold=5e-324)
    assert (result.value, result.method) == (7.0, Method.CLOSED_FORM)
    assert sum_auto(spec(5e-324, 7), threshold=5e-324, full_form="lagrange").method is (
        Method.NAIVE_FALLBACK)
