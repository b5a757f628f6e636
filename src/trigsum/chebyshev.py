"""Chebyshev polynomials of the second kind.

U_n satisfies U_n(cos a) * sin a = sin((n+1) a). The recurrence takes n
steps and its error grows like n**2 * eps near |x| = 1, so orbit sampling
takes that ratio at the reduced angle instead (kernels._ratio); this route,
independent of it, checks the construction and the closed forms.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Union

from .angle import as_count
from .errors import DegreeTooLarge

#: Evaluation is O(degree); degrees above this are rejected.
MAX_DEGREE = 10**6

if TYPE_CHECKING:
    import numpy as np

FloatOrArray = Union[float, "np.ndarray"]


def _start(x: FloatOrArray) -> tuple[FloatOrArray, FloatOrArray]:
    """(x, U_0(x)): an ndarray with ones like it, or float(x) with 1.0."""
    # numpy is looked up, not imported: an ndarray exists only once it is loaded
    np = sys.modules.get("numpy")
    if np is not None and isinstance(x, np.ndarray):
        return x, np.ones_like(x, dtype=float)
    return float(x), 1.0


def chebyshev_u(degree: int, x: FloatOrArray) -> FloatOrArray:
    """Evaluate U_degree(x) by the three-term recurrence.

    U_0 = 1, U_1 = 2x, U_{j+1} = 2x U_j - U_{j-1}. Defined for all real x;
    accepts a scalar or an ndarray, and the return type matches the input.
    """
    return _u(_check_degree(degree), *_start(x))


def _u(degree: int, x: FloatOrArray, one: FloatOrArray = 1.0) -> FloatOrArray:
    """The core of chebyshev_u, for a checked degree; one is U_0 in x's type."""
    if degree == 0:
        return one
    two_x = 2.0 * x  # 2.0 * x * u parses as (2.0 * x) * u: hoisting keeps the bits
    u_prev, u = one, two_x
    for _ in range(degree - 1):
        u_prev, u = u, two_x * u - u_prev
    return u


def u_sequence(max_deg: int, x: FloatOrArray) -> list:
    """Return [U_0(x), ..., U_max_deg(x)] from a single recurrence pass.

    Sweeps that need every degree up to a bound should use this instead of
    calling chebyshev_u per degree, which would repeat the whole recurrence.
    """
    max_deg = _check_degree(max_deg)
    x, one = _start(x)
    values: list = [one]
    if max_deg == 0:
        return values
    two_x = 2.0 * x
    values.append(two_x)
    for _ in range(max_deg - 1):
        values.append(two_x * values[-1] - values[-2])
    return values


def _check_degree(degree: int) -> int:
    degree = as_count(degree, "degree", least=0)
    if degree > MAX_DEGREE:
        raise DegreeTooLarge(f"degree {degree} exceeds the configured maximum {MAX_DEGREE}")
    return degree
