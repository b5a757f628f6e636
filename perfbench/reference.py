"""High-precision references for the cosine sums (mpmath, 200 bits).

The closed forms are exact identities; at 200 bits of working precision the
cancellation near the singular angles this benchmark generates (|sin| down
to about 2e-6) costs under 20 bits, so the references are correct far
beyond double precision. The input angle is the double itself, taken as an
exact binary rational.
"""

from __future__ import annotations

import mpmath

PRECISION_BITS = 200
EPS = 2.0 ** -52


def reference_sum(phi: float, count: int, family: str) -> mpmath.mpf:
    """sum cos(l*phi) over the family's multiples l, to 200 bits."""
    with mpmath.workprec(PRECISION_BITS):
        a = mpmath.mpf(phi)
        if family == "full":
            # sum_{l=1..m} cos(l a) = (sin((m + 1/2) a) / sin(a/2) - 1) / 2
            den = mpmath.sin(a / 2)
            if den == 0:
                return mpmath.mpf(count)
            value = (mpmath.sin((count + mpmath.mpf(0.5)) * a) / den - 1) / 2
        else:
            den = mpmath.sin(a)
            if den == 0:
                # a = 0 exactly: every term is 1
                return mpmath.mpf(count)
            if family == "even":
                # sum_{l=1..k} cos(2 l a) = (sin((2k + 1) a) / sin(a) - 1) / 2
                value = (mpmath.sin((2 * count + 1) * a) / den - 1) / 2
            else:
                # sum_{l=1..k} cos((2l - 1) a) = sin(2 k a) / (2 sin(a))
                value = mpmath.sin(2 * count * a) / (2 * den)
        return value


def err_m_eps(value: float, reference: mpmath.mpf, count: int) -> float:
    """|value - reference| in units of count * 2^-52, the difference taken
    before any rounding of the reference."""
    with mpmath.workprec(PRECISION_BITS):
        return float(abs(mpmath.mpf(value) - reference)) / (count * EPS)
