"""Three-valued verdicts and the finite schedules that give meaning to
"for all delta > 0", "liminf over n" and "eventually".

Limits are never extrapolated: every check is evaluated on declared
finite schedules, "eventually" means "on the suffix window of the n
schedule", and each verdict carries an Inconclusive band so that finite
evidence is not overstated.
"""

from __future__ import annotations

import enum
import json
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, Iterable, Optional, Tuple

from .extreal import INF, ExtReal

# Absolute float-rounding slack, for comparisons that are exact in real
# arithmetic: a ladder value may undershoot its predecessor or overshoot
# its cap by this much, and a distance at or below it is a zero distance.
SLACK = 1e-12
# Largest difference at which two float evaluations of one quantity (the
# slope and liminf-quotient forms of Fréchet membership) count as agreeing.
FORMS_AGREE_TOL = 1e-9
# Decimals to which a coordinate is rounded before it is matched to a mesh
# node: grid arithmetic errors sit far below, node steps far above.
KEY_DECIMALS = 9
# Largest offset at which a catalogue mesh node sits at a named point: half
# the finest catalogue step 0.01, so one node matches.
AT_NODE = 5e-3


class InvariantError(RuntimeError):
    """A computed result broke a property its algorithm guarantees
    (monotone ladders, Ekeland postconditions): a defect, not bad input.
    Raised explicitly, never by ``assert``, so ``python -O`` keeps the
    check; the command line maps it to exit code 1."""


class Status(enum.Enum):
    HOLDS = "Holds"
    FAILS = "Fails"
    INCONCLUSIVE = "Inconclusive"


def decide(excess: ExtReal, tol: float, band: float) -> Status:
    """The three-valued rule: Holds when excess <= tol, else Fails when
    excess >= band, else Inconclusive."""
    if excess <= tol:
        return Status.HOLDS
    if excess >= band:
        return Status.FAILS
    return Status.INCONCLUSIVE


def margin(lhs: ExtReal, rhs: ExtReal) -> ExtReal:
    """rhs - lhs on extended reals, in their own arithmetic (Fractions stay
    exact).  Two infinities are equal (0.0); one infinite side gives +inf
    when it is rhs and -inf when it is lhs."""
    if lhs == INF and rhs == INF:
        return 0.0
    if rhs == INF:
        return INF
    if lhs == INF:
        return -INF
    return rhs - lhs


def combine(statuses: Iterable[Status]) -> Status:
    """Any Fails gives Fails; all Holds gives Holds; else Inconclusive."""
    statuses = list(statuses)
    if Status.FAILS in statuses:
        return Status.FAILS
    if all(s is Status.HOLDS for s in statuses):
        return Status.HOLDS
    return Status.INCONCLUSIVE


@dataclass
class Verdict:
    status: Status
    margin: float
    witness: Dict[str, Any] = field(default_factory=dict)
    schedules: Dict[str, Any] = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return self.status is Status.HOLDS

    @property
    def fails(self) -> bool:
        return self.status is Status.FAILS

    @property
    def decisive(self) -> bool:
        return self.status is not Status.INCONCLUSIVE

    def to_dict(self) -> Dict[str, Any]:
        # stable field order for golden-file comparison
        return {
            "status": self.status.value,
            "margin": _jsonable(self.margin),
            "witness": _jsonable(self.witness),
            "schedules": _jsonable(self.schedules),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=False)


def excess_verdict(excess: ExtReal, tol: float, band: float,
                   witness: Optional[Dict[str, Any]] = None,
                   schedules: Optional[Dict[str, Any]] = None) -> Verdict:
    """``decide`` on a one-sided excess, with the margin ``tol - excess``
    on Holds and the excess itself otherwise."""
    status = decide(excess, tol, band)
    return Verdict(status, tol - excess if status is Status.HOLDS else excess,
                   {} if witness is None else witness,
                   {} if schedules is None else schedules)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if hasattr(obj, "item"):  # numpy scalar
        return _jsonable(obj.item())
    if isinstance(obj, Status):
        return obj.value
    return obj


def _finite(value, kind=numbers.Real) -> bool:
    """A finite number of the given kind; a bool is not one here."""
    return (isinstance(value, kind) and not isinstance(value, bool)
            and (isinstance(value, numbers.Integral) or math.isfinite(value)))


def _geometric(start: float, count: int) -> Tuple[float, ...]:
    return tuple(start / (2 ** k) for k in range(count))


@dataclass(frozen=True)
class LimitConfig:
    """Schedules and tolerances for all finite-limit verdicts."""

    n_schedule: Tuple[int, ...] = tuple(range(1, 65))
    delta_ladder: Tuple[float, ...] = _geometric(0.5, 12)
    radius_ladder: Tuple[float, ...] = _geometric(0.5, 8)
    eventually_window: Optional[int] = None
    tol: float = 1e-6
    decision_band: float = 0.05

    def __post_init__(self):
        # scenario files set any field: a wrong type or value is refused by name
        ns, w = self.n_schedule, self.eventually_window
        if (not isinstance(ns, (tuple, list)) or not ns
                or not all(_finite(n, numbers.Integral) and n > 0 for n in ns)
                or list(ns) != sorted(set(ns))):
            raise ValueError(f"n_schedule must be nonempty, strictly increasing and "
                             f"hold positive integers: got {ns!r}")
        for name in ("delta_ladder", "radius_ladder"):
            ladder = getattr(self, name)
            if (not isinstance(ladder, (tuple, list)) or not ladder
                    or not all(map(_finite, ladder))
                    or list(ladder) != sorted(set(ladder), reverse=True) or ladder[-1] <= 0):
                raise ValueError(f"{name} must be nonempty, finite, strictly decreasing "
                                 f"and positive: got {ladder!r}")
        for name in ("tol", "decision_band"):
            if not _finite(getattr(self, name)):
                raise ValueError(f"{name} must be a finite real: got {getattr(self, name)!r}")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.tol >= self.decision_band:
            # decide() would leave no Inconclusive band between the two
            raise ValueError(f"tol ({self.tol}) must be below decision_band "
                             f"({self.decision_band})")
        if not (w is None or _finite(w, numbers.Integral) and 1 <= w <= len(ns)):
            raise ValueError(f"eventually_window must be None or an integer in "
                             f"1..{len(ns)}: got {w!r}")

    @property
    def window_size(self) -> int:
        if self.eventually_window is None:
            return max(1, len(self.n_schedule) // 2)
        return self.eventually_window

    def window(self, values):
        """Suffix of per-n values over which 'eventually' must hold."""
        seq = list(values)
        return seq[len(seq) - self.window_size:]

    def schedule_dict(self) -> Dict[str, Any]:
        return {
            "n_schedule": [int(n) for n in self.n_schedule],
            "delta_ladder": list(self.delta_ladder),
            "radius_ladder": list(self.radius_ladder),
            "eventually_window": self.window_size,
            "tol": self.tol,
            "decision_band": self.decision_band,
        }
