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

