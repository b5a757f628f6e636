"""The route table against the public kernels, the CLI and the parent's values.

Every closed form divides by one sine, recorded once in kernels.ROUTES. These
tests check that the public kernels, sum_auto and the CLI all follow that
table, and pin the values sum_auto gives at regular angles, at pi, at both
parities of the count, and at fallbacks past the first half-period.
"""

import io
import math
import re
from contextlib import redirect_stdout

import pytest

from trigsum import (
    DEFAULT_THRESHOLD,
    Angle,
    Family,
    Method,
    SingularDenominator,
    SumSpec,
    even_index_sum,
    halfangle_free_sum,
    lagrange_sum,
    odd_index_sum,
    sum_auto,
    x_coordinate_identity,
)
from trigsum.cli import run
from trigsum.kernels import DEFAULT_FULL_FORM, FULL_FORMS, NAIVE, ROUTES

#: Each public kernel and the route it evaluates.
KERNELS = {
    "lagrange": lagrange_sum,
    "halfangle": halfangle_free_sum,
    "even": even_index_sum,
    "odd": odd_index_sum,
    "x_terminal": x_coordinate_identity,
}


def test_every_route_has_its_kernel():
    assert list(ROUTES) == ["lagrange", "halfangle", "even", "odd", "x_terminal"]
    assert all(name == route.name for name, route in ROUTES.items())
    assert set(KERNELS) == set(ROUTES)


def probe_angles(threshold):
    """0, pi and 2 pi, and angles just either side of |denominator| = threshold
    for both the half-angle and the whole-angle sine."""
    whole = math.asin(threshold)
    half = 2.0 * math.asin(threshold)
    near = []
    for base in (whole, math.pi - whole, math.pi + whole, 2 * math.pi - whole, half,
                 2 * math.pi - half, -whole):
        near += [base * (1 - 1e-9), base, base * (1 + 1e-9)]
    return [0.0, math.pi, 2 * math.pi, 1.0, 2.5, *near]


def raises_singular(fn):
    try:
        fn()
    except SingularDenominator:
        return True
    return False


@pytest.mark.parametrize("name", list(KERNELS))
@pytest.mark.parametrize("threshold", [DEFAULT_THRESHOLD, 1e-3, 0.0])
def test_kernel_raises_exactly_where_its_route_denominator_is_small(name, threshold):
    route, kernel = ROUTES[name], KERNELS[name]
    outcomes = set()
    for rad in probe_angles(threshold or DEFAULT_THRESHOLD):
        den = route.denominator(rad)
        expected = abs(den) < threshold or den == 0.0
        assert raises_singular(lambda: kernel(rad, 3, threshold=threshold)) == expected, rad
        outcomes.add(expected)
    assert outcomes == {True, False}


@pytest.mark.parametrize("name", list(KERNELS))
def test_kernel_message_names_its_route_label(name):
    with pytest.raises(SingularDenominator, match=re.escape(f"|{ROUTES[name].label}|")):
        KERNELS[name](0.0, 2)


def test_sum_method_choices_are_the_full_forms_then_auto_and_naive():
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert run(["sum", "--help"]) == 0
    choices = re.search(r"--method \{([^}]*)\}", buf.getvalue()).group(1).split(",")
    assert choices == [*FULL_FORMS, "auto", NAIVE]
    assert choices == ["lagrange", "halfangle", "auto", "naive"]


#: Generic angles, fallback-band angles next to k pi, signed zeros,
#: subnormals and the ends of the double range.
GUARD_ANGLES = [1.0, math.pi, 3.1, 1e-5, -2.5, 123456.789, 2 * math.pi - 1e-3,
                math.pi - 1e-5, math.pi + 3e-5, -math.pi + 1e-6, 2 * math.pi - 2e-5,
                2 * math.pi + 1e-5, 7 * math.pi + 5e-5, 1000 * math.pi - 9e-5, -1e-7,
                0.0, -0.0, 5e-324, -5e-324, 2.2e-310, 1e308, -1e308]


@pytest.mark.parametrize("phi", GUARD_ANGLES)
@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("form", FULL_FORMS)
def test_sum_auto_proximity_is_its_route_denominator(phi, family, form):
    # sum_auto takes the guard sine inline, not through ROUTES: the bits must agree
    route = ROUTES[form] if family is Family.FULL else ROUTES[family.value]
    for threshold in (DEFAULT_THRESHOLD, 1e-6, 5e-324):
        result = sum_auto(SumSpec(Angle(phi), 4, family), threshold=threshold, full_form=form)
        proximity = result.singular_proximity
        assert proximity.hex() == abs(route.denominator(phi)).hex()
        assert (result.method is Method.NAIVE_FALLBACK) == (proximity < threshold)


def test_default_full_form_is_sum_auto_default():
    spec = SumSpec(Angle(3.1), 5)
    assert sum_auto(spec) == sum_auto(spec, full_form=DEFAULT_FULL_FORM)

SUM_AUTO = [
    (1.0, 7, 'full', 'halfangle', 0.47825407831383693, 'ClosedForm', 0.8414709848078965),
    (1.0, 7, 'full', 'lagrange', 0.47825407831383693, 'ClosedForm', 0.479425538604203),
    (1.0, 7, 'even', 'halfangle', -0.11360055670512859, 'ClosedForm', 0.8414709848078965),
    (1.0, 7, 'even', 'lagrange', -0.11360055670512859, 'ClosedForm', 0.8414709848078965),
    (1.0, 7, 'odd', 'halfangle', 0.5886164666277952, 'ClosedForm', 0.8414709848078965),
    (1.0, 7, 'odd', 'lagrange', 0.5886164666277952, 'ClosedForm', 0.8414709848078965),
    (1.0, 8, 'full', 'halfangle', 0.3327540445052233, 'ClosedForm', 0.8414709848078965),
    (1.0, 8, 'full', 'lagrange', 0.3327540445052233, 'ClosedForm', 0.479425538604203),
    (1.0, 8, 'even', 'halfangle', -1.0712600370285132, 'ClosedForm', 0.8414709848078965),
    (1.0, 8, 'even', 'lagrange', -1.0712600370285132, 'ClosedForm', 0.8414709848078965),
    (1.0, 8, 'odd', 'halfangle', -0.1710714462310261, 'ClosedForm', 0.8414709848078965),
    (1.0, 8, 'odd', 'lagrange', -0.1710714462310261, 'ClosedForm', 0.8414709848078965),
    (3.141592653589793, 7, 'full', 'halfangle', -1.0, 'NaiveFallback', 1.2246467991473532e-16),
    (3.141592653589793, 7, 'full', 'lagrange', -1.0, 'ClosedForm', 1.0),
    (3.141592653589793, 7, 'even', 'halfangle', 7.0, 'NaiveFallback', 1.2246467991473532e-16),
    (3.141592653589793, 7, 'even', 'lagrange', 7.0, 'NaiveFallback', 1.2246467991473532e-16),
    (3.141592653589793, 7, 'odd', 'halfangle', -7.0, 'NaiveFallback', 1.2246467991473532e-16),
    (3.141592653589793, 7, 'odd', 'lagrange', -7.0, 'NaiveFallback', 1.2246467991473532e-16),
    (3.141592653589793, 8, 'full', 'halfangle', 0.0, 'NaiveFallback', 1.2246467991473532e-16),
    (3.141592653589793, 8, 'full', 'lagrange', 0.0, 'ClosedForm', 1.0),
    (3.141592653589793, 8, 'even', 'halfangle', 8.0, 'NaiveFallback', 1.2246467991473532e-16),
    (3.141592653589793, 8, 'even', 'lagrange', 8.0, 'NaiveFallback', 1.2246467991473532e-16),
    (3.141592653589793, 8, 'odd', 'halfangle', -8.0, 'NaiveFallback', 1.2246467991473532e-16),
    (3.141592653589793, 8, 'odd', 'lagrange', -8.0, 'NaiveFallback', 1.2246467991473532e-16),
    (2.5, 7, 'full', 'halfangle', -0.5523673117939154, 'ClosedForm', 0.5984721441039565),
    (2.5, 7, 'full', 'lagrange', -0.5523673117939154, 'ClosedForm', 0.9489846193555862),
    (2.5, 7, 'even', 'halfangle', -0.6652531379991046, 'ClosedForm', 0.5984721441039565),
    (2.5, 7, 'even', 'lagrange', -0.6652531379991046, 'ClosedForm', 0.5984721441039565),
    (2.5, 7, 'odd', 'halfangle', -0.35772982394797503, 'ClosedForm', 0.5984721441039565),
    (2.5, 7, 'odd', 'lagrange', -0.35772982394797503, 'ClosedForm', 0.5984721441039565),
    (2.5, 8, 'full', 'halfangle', -0.1442852499805234, 'ClosedForm', 0.5984721441039565),
    (2.5, 8, 'full', 'lagrange', -0.1442852499805234, 'ClosedForm', 0.9489846193555862),
    (2.5, 8, 'even', 'halfangle', -1.3321911996513665, 'ClosedForm', 0.5984721441039565),
    (2.5, 8, 'even', 'lagrange', -1.3321911996513665, 'ClosedForm', 0.5984721441039565),
    (2.5, 8, 'odd', 'halfangle', 0.622512816862133, 'ClosedForm', 0.5984721441039565),
    (2.5, 8, 'odd', 'lagrange', 0.622512816862133, 'ClosedForm', 0.5984721441039565),
    (1e-05, 7, 'full', 'halfangle', 6.999999992999999, 'NaiveFallback', 9.999999999833334e-06),
    (1e-05, 7, 'full', 'lagrange', 6.999999992999999, 'NaiveFallback', 4.999999999979167e-06),
    (1e-05, 7, 'even', 'halfangle', 6.9999999719999995, 'NaiveFallback', 9.999999999833334e-06),
    (1e-05, 7, 'even', 'lagrange', 6.9999999719999995, 'NaiveFallback', 9.999999999833334e-06),
    (1e-05, 7, 'odd', 'halfangle', 6.99999997725, 'NaiveFallback', 9.999999999833334e-06),
    (1e-05, 7, 'odd', 'lagrange', 6.99999997725, 'NaiveFallback', 9.999999999833334e-06),
    (1e-05, 8, 'full', 'halfangle', 7.999999989799999, 'NaiveFallback', 9.999999999833334e-06),
    (1e-05, 8, 'full', 'lagrange', 7.999999989799999, 'NaiveFallback', 4.999999999979167e-06),
    (1e-05, 8, 'even', 'halfangle', 7.999999959199999, 'NaiveFallback', 9.999999999833334e-06),
    (1e-05, 8, 'even', 'lagrange', 7.999999959199999, 'NaiveFallback', 9.999999999833334e-06),
    (1e-05, 8, 'odd', 'halfangle', 7.999999966, 'NaiveFallback', 9.999999999833334e-06),
    (1e-05, 8, 'odd', 'lagrange', 7.999999966, 'NaiveFallback', 9.999999999833334e-06),
    # fallbacks past the first half-period, summed at the reduced angle: each
    # is within 6 m*eps of mpmath; the last has odd j, so the odd sum flips sign
    (3141.592703589793, 1000, 'full', 'halfangle', 999.582760339194, 'NaiveFallback',
     4.999999975888583e-05),
    (3141.592603589793, 1000, 'full', 'lagrange', 999.5827603284671, 'NaiveFallback',
     2.5000000208672063e-05),
    (3141.592603589793, 1000, 'even', 'halfangle', 998.3316676907907, 'NaiveFallback',
     5.000000040171912e-05),
    (3141.592703589793, 1000, 'odd', 'halfangle', 998.3341668989261, 'NaiveFallback',
     4.999999975888583e-05),
    (3144.734296243383, 1000, 'odd', 'halfangle', -998.3341668769282, 'NaiveFallback',
     5.000000008916574e-05),
]


@pytest.mark.parametrize("phi, m, family, form, value, method, proximity", SUM_AUTO)
def test_sum_auto_pinned(phi, m, family, form, value, method, proximity):
    result = sum_auto(SumSpec(Angle(phi), m, Family(family)), full_form=form)
    assert (result.value, result.method.value, result.singular_proximity) == (
        value, method, proximity
    )


#: Each route's closed form at one count, as the parent's scalar bodies wrote it.
SCALAR_BODIES = {
    "lagrange": lambda rad, den, m: 0.5 * (math.sin((m + 0.5) * rad) / den - 1.0),
    "halfangle": lambda rad, den, m: 0.5 * ((math.sin((m + 1) * rad) + math.sin(m * rad)) / den
                                            - 1.0),
    "even": lambda rad, den, k: 0.5 * (math.sin((2 * k + 1) * rad) / den - 1.0),
    "odd": lambda rad, den, k: 0.5 * math.sin(2 * k * rad) / den,
    "x_terminal": lambda rad, den, k: math.cos(rad) * math.sin((2 * k + 2) * rad) / den,
}
#: Unsorted and repeated, from one term to past 2**53, where the multipliers round.
ROUTE_COUNTS = (1, 7, 2, 7, 1000, 2**52 - 1, 2**52 + 1, 2**53 - 1, 2**53, 2**53 + 1,
                3 * 2**53 + 5, 10**17 + 3, 10**300)


@pytest.mark.parametrize("name", list(ROUTES))
@pytest.mark.parametrize("rad", [1.0, -2.5, 0.3, 123456.789, 1e-300, 1e-323])
def test_route_over_a_count_list_is_each_count_alone(name, rad):
    route = ROUTES[name]
    den = route.checked(rad, 0.0)
    batch = route.evaluate(rad, den, list(map(route.multiplier, ROUTE_COUNTS)))
    assert [x.hex() for x in batch] == [
        route.evaluate(rad, den, (route.multiplier(count),))[0].hex() for count in ROUTE_COUNTS]
    assert [x.hex() for x in batch] == [
        SCALAR_BODIES[name](rad, den, count).hex() for count in ROUTE_COUNTS]


@pytest.mark.parametrize("name", list(ROUTES))
def test_route_count_without_a_float_raises_as_one_count_does(name):
    # 10**308 doubled (plus one or two) is past the largest double
    route = ROUTES[name]
    with pytest.raises(OverflowError, match="int too large to convert to float"):
        route.evaluate(1.0, route.checked(1.0, 0.0),
                       list(map(route.multiplier, (3, 2 * 10**308, 5))))
    with pytest.raises(OverflowError, match="int too large to convert to float"):
        SCALAR_BODIES[name](1.0, route.checked(1.0, 0.0), 2 * 10**308)
