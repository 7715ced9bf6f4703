"""Extended-real scalars: real numbers plus a single +infinity.

All function values in this package are either finite reals (floats or
exact ``fractions.Fraction``) or ``INF``.  Minus infinity is never a legal
value and any operation that would produce NaN raises instead of returning
it.  The empty infimum is ``INF`` by convention.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

ExtReal = Union[float, Fraction]

INF: float = math.inf


def check(a: ExtReal) -> ExtReal:
    """Reject NaN and -infinity; return the value unchanged."""
    if isinstance(a, float):
        if math.isnan(a):
            raise ValueError("NaN is not an extended real")
        if math.isinf(a) and a < 0:
            raise ValueError("-infinity is not representable")
    return a
