"""Closed-form cosine summation kernels, brute-force oracles, and a dispatcher.

Three index families of partial cosine sums are supported:

  full  sum of cos(l*phi)       for l = 1..m
  even  sum of cos(2*l*alpha)   for l = 1..k
  odd   sum of cos((2l-1)*alpha) for l = 1..k

Each family has a closed form whose denominator (sin(phi/2) or sin(phi) or
sin(alpha)) vanishes on a measure-zero singular set; near it the closed form
amplifies rounding error like 1/|denominator|, so sum_auto falls back to the
literal term-by-term sum when the denominator magnitude drops below a policy
threshold. sum_auto evaluates both of its paths at a reduced angle, so their
arguments stay small however large the angle: the fallback, the literal sum
of the same terms, at the angle reduced exactly by the family's period, and
the closed forms as one ratio, U_{n-1}(cos a) = sin(n a) / sin a, in one core,
_ratio, that reduces a modulo pi by a Cody-Waite split (exactly where the
split cannot vouch for it) and divides. The threshold test and the reported
proximity stay on the given angle. The public kernels, naive_trig_sum and the
running sums run at the angle they are given. ROUTES records each closed form
with the sine it divides by; the kernels, the sweeps and the CLI take it from
there, and sum_auto's guard takes the same sine inline.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, Sequence

from .angle import Angle, Record, _radians, as_angle, as_count, as_counts
from .errors import SingularDenominator

#: Fallback/guard threshold on the denominator magnitude. At 1e-4 a closed
#: form still carries roughly 12 good digits, and the O(m) naive path is only
#: paid on the thin slices around the singular angles.
DEFAULT_THRESHOLD = 1e-4


class Family(Enum):
    """Index family of the requested sum."""

    FULL = "full"
    EVEN = "even"
    ODD = "odd"


class SumSpec(Record):
    """A requested cosine sum: family, term count, and the angle argument.

    A bare number is coerced to an Angle, the count goes through as_count
    and the family through Family(family).
    """

    __slots__ = ("angle", "count", "family")

    def __init__(self, angle: Angle | float, count: int,
                 family: Family | str = Family.FULL) -> None:
        # an Angle skips the call
        _set_angle(self, angle if angle.__class__ is Angle else as_angle(angle))
        if count.__class__ is not int or count < 1:  # an int >= 1 skips the call
            count = as_count(count, "count")
        _set_count(self, count)
        _set_family(self, family if family.__class__ is Family else Family(family))


class Method(Enum):
    CLOSED_FORM = "ClosedForm"
    NAIVE_FALLBACK = "NaiveFallback"


class SumValue(Record):
    """An evaluated sum with method provenance.

    singular_proximity is the magnitude of the selected form's denominator
    at the given angle; method is NaiveFallback exactly when it was below
    the policy threshold at dispatch time. Either way the value was
    evaluated at the angle reduced by the family's period. sum_auto builds its
    ClosedForm results by object.__new__ and the three slot setters, as
    __init__ does (it checks nothing): the same record.
    """

    __slots__ = ("value", "method", "singular_proximity")

    def __init__(self, value: float, method: Method, singular_proximity: float) -> None:
        _set_value(self, value)
        _set_method(self, method)
        _set_proximity(self, singular_proximity)


# The per-query records' setters and sum_auto's members, bound once: a module global
# is cheaper than a class attribute, and identity than the Enum's value property.
_set_angle, _set_count, _set_family = (
    SumSpec.angle.__set__, SumSpec.count.__set__, SumSpec.family.__set__)
_set_value, _set_method, _set_proximity = (
    SumValue.value.__set__, SumValue.method.__set__, SumValue.singular_proximity.__set__)
_FULL, _EVEN, _ODD = Family.FULL, Family.EVEN, Family.ODD
_new, _sin = object.__new__, math.sin
_CLOSED_FORM, _NAIVE_FALLBACK = Method.CLOSED_FORM, Method.NAIVE_FALLBACK


def _multiples(family: Family, done: int, count: int) -> range:
    """Angle multipliers of terms done+1 .. count of the family, in increasing order."""
    if family is _FULL:
        return range(done + 1, count + 1)
    if family is _EVEN:
        return range(2 * done + 2, 2 * count + 1, 2)
    return range(2 * done + 1, 2 * count, 2)


#: k * step for k = 1..32, as floats, for the two steps of _multiples' ranges:
#: a run's offsets from its first multiplier, and the step to the next run.
_RUN_OFFSETS = {step: tuple(float(k * step) for k in range(1, 33)) for step in (1, 2)}


def _add_terms(total: float, r: float, multiples: range) -> float:
    """Add cos(mult * r) to total for each multiplier of a _multiples range,
    in order.

    Each run of 32 terms is one left-associated expression, so every addition
    is the one-term loop's, in its order, and the sum keeps that loop's bits
    and its recursive-summation error; the run shares only the loop
    overhead. The multiplier steps as a float: it is an exact integer below
    2**53 (no loop gets near that many terms), so each product has the bits
    of mult * r. The run offsets are built once, at import, so a run costs
    no set-up per call. The last len % 32 terms take the one-term loop, and
    a range shorter than 32 takes only that loop.
    """
    cos = math.cos
    whole = len(multiples) & ~31
    if whole:
        (s1, s2, s3, s4, s5, s6, s7, s8, s9, s10, s11,
         s12, s13, s14, s15, s16, s17, s18, s19, s20, s21,
         s22, s23, s24, s25, s26, s27, s28, s29, s30, s31, jump) = _RUN_OFFSETS[multiples.step]
        x = float(multiples.start)
        for _ in range(whole >> 5):
            total = (
                total + cos(x * r) + cos((x + s1) * r) + cos((x + s2) * r) + cos((x + s3) * r)
                + cos((x + s4) * r) + cos((x + s5) * r) + cos((x + s6) * r) + cos((x + s7) * r)
                + cos((x + s8) * r) + cos((x + s9) * r) + cos((x + s10) * r) + cos((x + s11) * r)
                + cos((x + s12) * r) + cos((x + s13) * r) + cos((x + s14) * r) + cos((x + s15) * r)
                + cos((x + s16) * r) + cos((x + s17) * r) + cos((x + s18) * r) + cos((x + s19) * r)
                + cos((x + s20) * r) + cos((x + s21) * r) + cos((x + s22) * r) + cos((x + s23) * r)
                + cos((x + s24) * r) + cos((x + s25) * r) + cos((x + s26) * r) + cos((x + s27) * r)
                + cos((x + s28) * r) + cos((x + s29) * r) + cos((x + s30) * r) + cos((x + s31) * r))
            x += jump
        multiples = multiples[whole:]
    for mult in multiples:
        total += cos(mult * r)
    return total


#: floor(pi * 2**_PI_SHIFT), pi to 2400 bits: the remainder of any finite
#: double modulo pi then stays exact to far below its last bit.
_PI_SHIFT = 2400
_PI = int(
    "3243f6a8885a308d313198a2e03707344a4093822299f31d0082efa98ec4e6c8"
    "9452821e638d01377be5466cf34e90c6cc0ac29b7c97c50dd3f84d5b5b547091"
    "79216d5d98979fb1bd1310ba698dfb5ac2ffd72dbd01adfb7b8e1afed6a267e9"
    "6ba7c9045f12c7f9924a19947b3916cf70801f2e2858efc16636920d871574e6"
    "9a458fea3f4933d7e0d95748f728eb658718bcd5882154aee7b54a41dc25a59b"
    "59c30d5392af26013c5d1b023286085f0ca417918b8db38ef8e79dcb0603a180"
    "e6c9e0e8bb01e8a3ed71577c1bd314b2778af2fda55605c60e65525f3aa55ab9"
    "45748986263e8144055ca396a2aab10b6b4cc5c341141e8cea15486af7c72e99"
    "3b3ee1411636fbc2a2ba9c55d741831f6ce5c3e169b87931eafd6ba336c24cf5"
    "c7a325381289586773b8f4898", 16)


def _reduced(rad: float, family: Family) -> tuple[float, float]:
    """rad less its nearest multiple j of the family's period, rounded once,
    and the sign its terms change by: (r, 1.0) for the full family (period
    2 pi) and the even one (pi), (r, (-1)**j) for the odd one (pi).

    Exact for every finite double: j comes from integer floor division
    against _PI, never from a rounded quotient, and the one rounding is the
    int / int division at the end. |r| <= period / 2, and r is rad itself
    when j = 0.
    """
    num, den = rad.as_integer_ratio()  # den is a power of two
    period = _PI << 1 if family is _FULL else _PI  # the period times 2**_PI_SHIFT
    scaled = num << _PI_SHIFT  # rad * den * 2**_PI_SHIFT
    step = den * period
    j = (2 * scaled + step) // (2 * step)  # floor(rad / period + 1/2)
    r = (scaled - j * step) / (den << _PI_SHIFT)
    return r, -1.0 if j & 1 and family is _ODD else 1.0


#: Significant bits of the split's two leading pieces.
_SPLIT_BITS = 30
#: The split's domain in _ratio, |rad / pi| < 2**20 and |r| >= 2**-20, as
#: bounds on the squares: comparing a square takes two float operations.
_SPLIT_MAX = 2.0**40
_SPLIT_MIN = 2.0**-40
#: Adding and subtracting 1.5 * 2**52 rounds a double below 2**51 to an integer.
_ROUND = 1.5 * 2.0**52


def _split(period: int) -> tuple[float, float, float, float]:
    """1 / period and period as c1 + c2 + c3 (Cody & Waite 1980), from the
    period times 2**_PI_SHIFT: c1 and c2 are its leading two runs of
    _SPLIT_BITS significant bits, so j * c1 and j * c2 are exact for
    |j| <= 2**20, and c3 is the rest, rounded once."""
    unit = 1 << _PI_SHIFT
    rest, pieces = period, []
    for _ in range(2):
        drop = rest.bit_length() - _SPLIT_BITS
        head = rest >> drop << drop
        pieces.append(head / unit)
        rest -= head
    return (unit / period, *pieces, rest / unit)


_PI_SPLIT = _INV_PI, _PI_C1, _PI_C2, _PI_C3 = _split(_PI)


def _ratio(rad: float, n: int) -> float:
    """sin(n a) / sin a = U_{n-1}(cos a) at a = rad, for n >= 1, in O(1), within
    about n * eps at every angle: (-1)**(j (n - 1)) sin(n r) / sin r, or n at r = 0.

    The closed forms' one reduction, r = rad - j pi, is a Cody-Waite split: j
    is rad / pi rounded, and r = ((rad - j c1) - j c2) - j c3 lies within one
    ulp of it where |rad / pi| < 2**20 and |r| >= 2**-20; elsewhere r and
    (-1)**j come from _reduced(rad, Family.ODD). j = 0 keeps rad's bits. Only
    within about 2**-32 of a half-integer rad / pi can j be the other integer
    beside it: r then lies just past pi / 2, which the ratio does not mind.
    """
    q = rad * _INV_PI
    j = (q + _ROUND) - _ROUND
    if not j:
        return _sin(n * rad) / _sin(rad) if rad else float(n)
    r = ((rad - j * _PI_C1) - j * _PI_C2) - j * _PI_C3
    if q * q < _SPLIT_MAX and r * r > _SPLIT_MIN:
        sign = -1.0 if j % 2.0 else 1.0
    else:
        r, sign = _reduced(rad, _ODD)
    value = _sin(n * r) / _sin(r) if r else float(n)
    return value if n & 1 else sign * value


def naive_trig_sum(spec: SumSpec) -> float:
    """Literal term-by-term sum, plain accumulation in index order.

    Error grows like count * eps, which every comparison tolerance budgets
    for; it is no reference for the true sum.
    """
    return _add_terms(0.0, spec.angle.radians, _multiples(spec.family, 0, spec.count))


class RunningSumPlan:
    """naive_trig_sum of one family at fixed counts, prepared for any angle.

    Built once from (family, counts): the distinct counts in increasing
    order, one item per gap between consecutive ones, and the read-off
    position of each requested count. Calling the plan with an angle in
    radians makes one ordered pass up to max(counts) and reads the running
    total off at each count, so every value has the exact bits of
    naive_trig_sum there. counts may be unsorted and repeat; the result
    follows their order. A one-term gap is its multiplier as a float, when
    that is the exact integer (below 2**53), and consecutive one-term gaps
    form one step, a list of those floats added in one comprehension: the
    same additions in the same order. Every other gap is a range that goes
    to _add_terms. Where counts are already distinct and increasing, the
    pass's totals are the result, with no read-off. The plan holds
    O(len(counts)) values, never one per term, so huge counts cost nothing
    until a pass runs. The family goes through Family(family), the counts
    through as_counts.
    """

    __slots__ = ("_steps", "_index")

    def __init__(self, family: Family | str, counts: Sequence[int]) -> None:
        family, counts = Family(family), as_counts(counts)
        distinct = sorted(set(counts))
        position = {count: i for i, count in enumerate(distinct)}
        self._index = None if list(counts) == distinct else [position[count] for count in counts]
        self._steps: list[list[float] | range] = []
        done = 0
        for count in distinct:
            multiples = _multiples(family, done, count)
            if count - done == 1 and multiples.start < 2**53:
                if self._steps and self._steps[-1].__class__ is list:
                    self._steps[-1].append(float(multiples.start))
                else:
                    self._steps.append([float(multiples.start)])
            else:
                self._steps.append(multiples)
            done = count

    def __call__(self, rad: float) -> list[float]:
        cos = math.cos
        total = 0.0
        totals: list[float] = []
        for step in self._steps:
            if step.__class__ is list:
                totals += [total := total + cos(mult * rad) for mult in step]
            else:
                total = _add_terms(total, rad, step)
                totals.append(total)
        if self._index is None:
            return totals
        return list(map(totals.__getitem__, self._index))


def naive_running_sums(
    phi: Angle | float, family: Family | str, counts: Sequence[int]
) -> list[float]:
    """naive_trig_sum at each of counts, from one ordered pass over the terms
    (see RunningSumPlan). counts may be unsorted and repeat; the result
    follows their order."""
    plan = RunningSumPlan(family, counts)
    return plan(as_angle(phi).radians)


def _guard(den: float, threshold: float, what: str) -> float:
    """Return den, or raise when it is below threshold or exactly zero.

    A NaN threshold raises ValueError: every comparison with it is false,
    so it would pass any denominator.
    """
    if threshold != threshold:
        raise ValueError("threshold must not be NaN")
    # den == 0.0 is checked separately so threshold=0.0 still rejects the
    # exact singularity instead of dividing by zero.
    if abs(den) < threshold or den == 0.0:
        raise SingularDenominator(
            f"|{what}| = {abs(den):.3e} is below threshold {threshold:.3e}"
        )
    return den


def _exact(x: int) -> float | int:
    """x as a float where that is the exact integer (below 2**53), else the int
    itself. Either way x * rad has the bits of the int's product, and an int no
    float can hold raises OverflowError there, not here."""
    return float(x) if x < 2**53 else x


class Route(Record):
    """One closed form: the sum it evaluates and the sine it divides by.

    family is None for the terminal abscissa, which is no family sum; label
    names the denominator in SingularDenominator messages; multiplier maps a
    count to what the body multiplies the angle by (a pair for halfangle),
    prepared once per count; evaluate maps (radians, checked denominator,
    prepared multipliers) to the value at each, in their order.
    """

    __slots__ = ("name", "family", "label", "denominator", "multiplier", "evaluate")

    def __init__(self, name: str, family: Family | None, label: str,
                 denominator: Callable[[float], float],
                 multiplier: Callable[[int], object],
                 evaluate: Callable[[float, float, Sequence], list[float]]) -> None:
        self._set(name, family, label, denominator, multiplier, evaluate)

    def checked(self, rad: float, threshold: float) -> float:
        """The denominator at rad; raises below threshold or at exactly zero."""
        return _guard(self.denominator(rad), threshold, self.label)

    def __call__(self, angle: Angle | float, count: int, threshold: float) -> float:
        """The closed form at (angle, count), the count through as_count; raises
        SingularDenominator where the denominator is below threshold or zero."""
        count = as_count(count, "m" if self.family is _FULL else "k")
        rad = _radians(angle)
        return self.evaluate(rad, self.checked(rad, threshold), (self.multiplier(count),))[0]


#: Every closed form by name. The even and odd routes are named after their
#: family; the full family has one route per form. Each multiplier is exact
#: where a float holds it (_exact); lagrange's m + 0.5 keeps the int m from
#: 2**53 on, where m + 0.5 rounds to the float of m. Each evaluate takes an
#: angle in radians, its checked denominator and the prepared multipliers, and
#: returns the closed form at each from one comprehension, with the bits of the
#: int count's expression; a count no float can hold raises OverflowError where
#: its multiplier meets the angle.
ROUTES: dict[str, Route] = {
    route.name: route
    for route in (
        Route("lagrange", Family.FULL, "sin(phi/2)", lambda rad: _sin(0.5 * rad),
              lambda m: m + 0.5 if m < 2**53 else m,
              lambda rad, den, ms: [0.5 * (_sin(m * rad) / den - 1.0) for m in ms]),
        Route("halfangle", Family.FULL, "sin(phi)", _sin,
              lambda m: (_exact(m + 1), _exact(m)),
              lambda rad, den, ms: [0.5 * ((_sin(m1 * rad) + _sin(m * rad)) / den - 1.0)
                                    for m1, m in ms]),
        Route("even", Family.EVEN, "sin(alpha)", _sin, lambda k: _exact(2 * k + 1),
              lambda rad, den, ms: [0.5 * (_sin(m * rad) / den - 1.0) for m in ms]),
        Route("odd", Family.ODD, "sin(alpha)", _sin, lambda k: _exact(2 * k),
              lambda rad, den, ms: [0.5 * _sin(m * rad) / den for m in ms]),
        Route("x_terminal", None, "sin(alpha)", _sin, lambda k: _exact(2 * k + 2),
              lambda rad, den, ms: [math.cos(rad) * _sin(m * rad) / den for m in ms]),
    )
}

#: Name of the literal term-by-term sum wherever it stands beside the routes.
NAIVE = "naive"

#: The full-family forms sum_auto accepts, and the one it uses by default.
FULL_FORMS = tuple(name for name, route in ROUTES.items() if route.family is Family.FULL)
DEFAULT_FULL_FORM = "halfangle"


def lagrange_sum(
    phi: Angle | float, m: int, *, threshold: float = DEFAULT_THRESHOLD
) -> float:
    """Closed form with a half-angle denominator for the full family.

    Returns (sin((m + 1/2) phi) / sin(phi/2) - 1) / 2; singular where
    sin(phi/2) vanishes (phi near 0 or 2 pi), regular at phi = pi.
    """
    return ROUTES["lagrange"](phi, m, threshold)


def halfangle_free_sum(
    phi: Angle | float, m: int, *, threshold: float = DEFAULT_THRESHOLD
) -> float:
    """Closed form for the full family using whole-angle sines only.

    Returns ((sin((m+1) phi) + sin(m phi)) / sin(phi) - 1) / 2; singular
    where sin(phi) vanishes, so phi near 0, pi, and 2 pi are all excluded
    and left to the dispatcher's fallback.
    """
    return ROUTES["halfangle"](phi, m, threshold)


def even_index_sum(
    alpha: Angle | float, k: int, *, threshold: float = DEFAULT_THRESHOLD
) -> float:
    """Closed form of sum cos(2 l alpha), l = 1..k.

    Returns (sin((2k+1) alpha) / sin(alpha) - 1) / 2.
    """
    return ROUTES["even"](alpha, k, threshold)


def odd_index_sum(
    alpha: Angle | float, k: int, *, threshold: float = DEFAULT_THRESHOLD
) -> float:
    """Closed form of sum cos((2l-1) alpha), l = 1..k.

    Returns sin(2 k alpha) / sin(alpha) / 2.
    """
    return ROUTES["odd"](alpha, k, threshold)


def x_coordinate_identity(
    alpha: Angle | float, k: int, *, threshold: float = DEFAULT_THRESHOLD
) -> tuple[float, float]:
    """Both sides of the terminal-abscissa identity, evaluated independently.

    The signed x-projections of the first 2k+2 unit segments of the
    construction sum to 1 + 2(cos 2a + ... + cos 2ka) + cos((2k+2) a); the
    telescoped endpoint abscissa is cos(a) sin((2k+2) a) / sin(a). Returns
    (lhs by direct accumulation, rhs by closed form); callers assert their
    agreement. k = 0 is allowed and collapses the middle sum.
    """
    k = as_count(k, "k", least=0)
    rad = _radians(alpha)
    terminal = ROUTES["x_terminal"]
    top = terminal.multiplier(k)  # 2k + 2
    # twice the naive even sum from 0.5: doubling is exact, so these are the literal loop's bits
    lhs = 2.0 * _add_terms(0.5, rad, _multiples(_EVEN, 0, k)) + math.cos(top * rad)
    return lhs, terminal.evaluate(rad, terminal.checked(rad, threshold), (top,))[0]


def sum_auto(
    spec: SumSpec,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    full_form: str = DEFAULT_FULL_FORM,
) -> SumValue:
    """Evaluate a sum by closed form, or by the oracle near its singularity.

    full_form selects the denominator that guards the full family (one of
    FULL_FORMS); the even/odd families have one form each. When that
    denominator's magnitude, taken at the given angle, is below threshold,
    the result has method=NaiveFallback: naive_trig_sum, the literal sum, at
    the angle reduced exactly by the family's period (2 pi for the full
    family, pi for the even and odd ones, whose sign (-1)**j it applies), so
    within m * (top * |reduced| + m) * 2**-52 of the true sum, top being the
    largest multiple, for every finite angle. Otherwise the result has
    method=ClosedForm, by the ratio U_{n-1}(cos a) = sin(n a) / sin a
    (_ratio): the odd family's sum is U_{2k-1}(cos a) / 2, the even one's
    (U_{2k}(cos a) - 1) / 2, and the full family's the even one's at
    a = phi / 2, whichever form guards. Both paths take every finite angle,
    1e308 included; the reported proximity is the guard's, at the given
    angle: the sine ROUTES records for the form, here taken inline.
    """
    if not threshold > 0.0:
        raise ValueError(f"threshold must be > 0, got {threshold}")
    if full_form not in FULL_FORMS:
        raise ValueError(f"full_form must be one of {FULL_FORMS}, got {full_form!r}")
    family = spec.family
    rad = spec.angle.radians
    # ROUTES[...].denominator(rad), inline: sin(phi/2) for lagrange, else sin(phi)
    proximity = abs(_sin(0.5 * rad if family is _FULL and full_form == "lagrange" else rad))
    count = spec.count
    if proximity < threshold:
        r, sign = _reduced(rad, family)
        total = naive_trig_sum(SumSpec(r, count, family))
        return SumValue(sign * total, _NAIVE_FALLBACK, proximity)
    if family is _ODD:
        value = 0.5 * _ratio(rad, 2 * count)
    else:
        value = 0.5 * (_ratio(0.5 * rad if family is _FULL else rad, 2 * count + 1) - 1.0)
    result = _new(SumValue)  # SumValue.__init__ sets these three and checks nothing
    _set_value(result, value)
    _set_method(result, _CLOSED_FORM)
    _set_proximity(result, proximity)
    return result
