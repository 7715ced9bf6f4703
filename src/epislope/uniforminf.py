"""The uniform infimum r_S(f) = sup_{delta>0} inf_{B_delta(S)} f, its
penalty-limit characterization, robustness reports, and the exact
little-l2 counterexample where r and the plain infimum disagree on
arbitrarily small balls.

Each public call builds one evaluator of f and d_S, chosen in
``_layers``, and shares it between all its parts.  Nothing is cached
across calls.  On a mesh (``_MeshLayers``, which refuses a missing mesh)
f is tabulated once and d_S, measured by the region in the model's norm
(``Region.distances``), at most once; a penalty call raises d_S to p once
for all its multipliers.  Finite-exception models
(``_ValueLayers``) stay in exact rational arithmetic, never snapped to a
mesh: one pass over the exceptions, a single inlined integer loop with
no function call per point, builds a value-layer index (per distinct
value below the default, the least squared distance to the ball's
center), and every delta rung, the plain infimum and each penalty value
is a walk over those few layers.

``_sup_of_rungs`` alone decides a ladder: it takes the sup of the rung
infima of the exact evaluator and of both mesh kernels (``_sup_inf``, one
mask per rung, and ``_sorted_sup_inf``, prefixes of one distance order),
checks each ladder and the penalty schedule to be nondecreasing, and
refuses a mesh rung ladder with no node within the largest delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .extreal import INF, ExtReal
from .functions import (FunctionModel, MeshSpec, SparsePoint, Variant,
                        inf_over_region, tabulate)
from .geometry import NormKind
from .regions import Ball, Region
from .verdict import (SLACK, InvariantError, LimitConfig, Verdict, _finite,
                      excess_verdict, margin)


@dataclass(frozen=True)
class PenaltySpec:
    """Penalty exponent and multiplier schedule for f + n * d_S^p."""

    p: float = 1.0
    n_schedule: Tuple[float, ...] = tuple(2.0 ** k for k in range(9))

    def __post_init__(self):
        ns = self.n_schedule
        if not (_finite(self.p) and self.p > 0):
            raise ValueError(f"exponent p must be finite and positive, got {self.p!r}")
        if not (ns and all(map(_finite, ns)) and list(ns) == sorted(set(ns)) and ns[0] > 0):
            raise ValueError(f"n_schedule must be nonempty, finite, increasing and positive, "
                             f"got {ns!r}")


@dataclass
class RobustnessReport:
    """r_S(f) and inf_S f, their gap, and the verdict on ``|gap|``: the
    infimum is robust when the verdict Holds."""

    r_value: ExtReal
    plain_inf: ExtReal
    gap: ExtReal
    verdict: Verdict

    @property
    def robust(self) -> bool:
        return self.verdict.holds


_UNSET = object()  # no exception seen yet


class _ValueLayers:
    """The exceptions of a finite-exception model that lie below its
    default, one layer per distinct value, ascending by value, each with
    the least exact squared distance from its points to the center of a
    rational Euclidean ball.

    Built by one pass over the exceptions per public call and never kept
    past it: the model's exceptions may change between calls, and a cache
    held by a long-lived model grows with every region it has seen.
    Every exact answer is a walk over the few layers.

    The pass is one inlined integer loop.  With c the center's integer
    numerators over their common denominator ``scale``, a point p's
    squared distance is ||c||^2 / scale^2 plus the sum over p's own
    coordinates of p_i (p_i - 2 c_i / scale), accumulated as an integer
    numerator over a product of squared denominators, so no other
    coordinate of c is visited.  At a center with no nonzero coordinate,
    such as the paper's B_{1/n}(0), a second copy of the loop drops the c
    term; any other center, such as a ``params.region`` on ``nogood-slice``,
    takes the general loop.  Consecutive exceptions holding the same value
    object share one layer lookup, and a layer's least distance stays in
    locals until the value changes.
    """

    def __init__(self, f: FunctionModel, S: Region):
        if not isinstance(S, Ball):
            raise ValueError("exact evaluation supports ball regions only")
        if S.norm.kind is not NormKind.EUCLIDEAN:
            raise ValueError("exact ball evaluation requires the Euclidean norm")
        if S.radius == INF:  # Ball refuses negative and NaN radii
            raise ValueError(f"exact ball evaluation requires a finite radius, got {S.radius}")
        ratios = {i: Fraction(c).as_integer_ratio()
                  for i, c in enumerate(S.center) if c != 0}
        scale = math.lcm(*(b for _, b in ratios.values()))
        center = {i: a * (scale // b) for i, (a, b) in ratios.items()}
        get = center.get
        # (num, den, first value) by exact ratio: hashing a Fraction costs a
        # modular inverse, hashing its integer pair does not.  The running
        # layer starts at den 0, above every distance: num * 0 < 1 * den.
        least: Dict[object, Tuple[int, int, ExtReal]] = {}
        prev = key = first = _UNSET
        best_num, best_den = 1, 0
        for pt, v in f.exceptions.items():
            if v is not prev:
                if prev is not _UNSET:
                    least[key] = best_num, best_den, first
                prev = v
                try:
                    key = v.as_integer_ratio()
                except OverflowError:  # an infinite value
                    key = v
                best_num, best_den, first = least.get(key, (1, 0, v))
            num, den = 0, 1
            if center:
                for i, x in pt:
                    a, b = x.as_integer_ratio()
                    bb = b * b
                    num = num * bb + a * (a * scale - 2 * get(i, 0) * b) * den
                    den *= bb
            else:  # the general loop at scale 1 and c = 0, without the c term
                for i, x in pt:
                    a, b = x.as_integer_ratio()
                    bb = b * b
                    num = num * bb + a * a * den
                    den *= bb
            if num * best_den < best_num * den:
                best_num, best_den = num, den
        if prev is not _UNSET:
            least[key] = best_num, best_den, first
        offset = Fraction(sum(c * c for c in center.values()), scale * scale)
        self.default = f.default
        self.radius = Fraction(S.radius)
        self.layers: List[Tuple[ExtReal, Fraction]] = sorted(
            ((v, offset + Fraction(num, den * scale))
             for num, den, v in least.values() if v < f.default))

    def infimum(self, reach: Fraction) -> ExtReal:
        """inf f on the closed ball of radius ``reach`` about the center:
        the lowest layer within reach (compared squared), else the default,
        which is attained on every ball."""
        if reach >= 0:
            reach_sq = reach * reach
            for v, d_sq in self.layers:
                if d_sq <= reach_sq:
                    return v
        return self.default

    def plain(self) -> ExtReal:
        return self.infimum(self.radius)

    def uniform_infimum(self, ladder: Sequence[float]) -> ExtReal:
        return _sup_of_rungs(self.infimum(self.radius + Fraction(delta)) for delta in ladder)

    def penalties(self, ns: Sequence[float], p: float) -> List[float]:
        """min of f + n * d_S^p in floats, for each n of ``ns``.  Within a
        layer the term grows with the squared distance, so the layer's
        least one gives its minimum; a value at or above the default never
        undercuts the default at the center.  Each layer's d_S^p is taken
        once for all n."""
        radius = float(self.radius)
        terms = [(float(v), max(0.0, math.sqrt(float(d_sq)) - radius) ** p)
                 for v, d_sq in self.layers]
        out = []
        for n in ns:
            best = float(self.default)  # the ball's center: d_S = 0, default value
            for v, dp in terms:
                best = min(best, v + n * dp)
            out.append(best)
        return out


class _MeshLayers:
    """f and d_S at the nodes of a mesh, for one public call: f tabulated
    once, d_S measured at most once, on first use, so the plain infimum
    never measures it."""

    def __init__(self, f: FunctionModel, S: Region, mesh: Optional[MeshSpec]):
        if mesh is None:
            raise ValueError("mesh required for non-exact models")
        self.f = tabulate(f, mesh)
        self.values = self.f.values
        self.S = S
        self.mesh = mesh

    @cached_property
    def dist(self) -> np.ndarray:
        return self.S.distances(self.mesh.nodes(), self.f.norm)

    def plain(self) -> ExtReal:
        """inf_S f, measuring no d_S; a d_S this call measured already is 0
        exactly at the member nodes, so the members are read off it."""
        if "dist" not in self.__dict__:
            return inf_over_region(self.f, self.S, self.mesh)
        inside = self.dist == 0.0
        return float(self.values[inside].min()) if inside.any() else INF

    def uniform_infimum(self, ladder: Sequence[float]) -> ExtReal:
        return _sup_inf(self.values, self.dist, ladder)

    def penalized(self, n: float, p: float) -> np.ndarray:
        """f + n * d_S^p at every node, a fresh array."""
        return self.values + n * self.dist ** p

    def penalties(self, ns: Sequence[float], p: float) -> List[float]:
        """min of f + n * d_S^p over the nodes for each n of ``ns``; INF
        when no node gives a finite sum.  d_S^p is taken once, and each
        n * d_S^p + f is formed in one scratch array of this call: IEEE *
        and + commute, so every sum is ``penalized``'s bit for bit."""
        dp = self.dist ** p
        scratch = np.empty_like(dp)
        out = []
        for n in ns:
            np.multiply(dp, n, out=scratch)
            scratch += self.values
            out.append(float(scratch.min()))
        return out


def _layers(f: FunctionModel, S: Region, mesh: Optional[MeshSpec]):
    """The evaluator of one public call: exact value layers for a
    finite-exception model, f and d_S on the mesh otherwise."""
    if f.variant is Variant.FINITE_EXCEPTION:
        return _ValueLayers(f, S)
    return _MeshLayers(f, S, mesh)


def uniform_infimum(f: FunctionModel, S: Region, mesh: Optional[MeshSpec],
                    cfg: LimitConfig) -> ExtReal:
    """r_S(f): max over the delta ladder of the infimum of f on B_delta(S).

    Monotone nondecreasing as delta decreases (checked, else
    InvariantError); the max over the decreasing ladder therefore equals
    the value at the smallest rung.
    """
    return _layers(f, S, mesh).uniform_infimum(cfg.delta_ladder)


_NO_NODE = "no mesh node within the largest delta of the region"


def _sup_inf(values: np.ndarray, dist: np.ndarray, ladder: Sequence[float]) -> float:
    """sup over the delta ladder of inf{values : dist <= delta}, one mask
    per rung, an empty one ``None`` to ``_sup_of_rungs``."""
    return _sup_of_rungs(float(values[mask].min()) if mask.any() else None
                         for mask in (dist <= delta for delta in ladder))


def _sorted_sup_inf(running_min: np.ndarray, dist: np.ndarray,
                    ladder: Sequence[float]) -> float:
    """``_sup_inf`` for values ordered so that ``dist`` is nondecreasing,
    given as their running minimum: each rung {dist <= delta} is then a
    prefix, and its infimum the running minimum at the prefix's end.  Only
    the sign of a zero minimum can differ from ``_sup_inf``, whose minima
    run in node order."""
    ends = np.searchsorted(dist, ladder, "right")
    return _sup_of_rungs(float(running_min[k - 1]) if k else None for k in ends)


def _sup_of_rungs(rung_infs: Iterable[Optional[ExtReal]],
                  error: str = "uniform infimum not monotone along the delta ladder") -> ExtReal:
    """The sup of a ladder's rung values in ladder order, each rung no
    lower than the last (a float within ``SLACK``, a Fraction exactly; else
    ``InvariantError(error)``): one of the values, in its own type.  An
    empty rung, ``None``, reads as INF; an empty first rung (the largest
    delta) is refused with ``ValueError(_NO_NODE)``."""
    best = -math.inf
    prev = None
    for inf_d in rung_infs:
        if inf_d is None:
            if prev is None:
                raise ValueError(_NO_NODE)
            inf_d = INF
        elif inf_d == -math.inf:
            raise InvariantError("-inf is not an extended-real value")
        if prev is not None and inf_d < (prev - SLACK if isinstance(prev, float) else prev):
            raise InvariantError(error)
        prev = inf_d
        best = max(best, inf_d)
    return best


def plain_infimum(f: FunctionModel, S: Region, mesh: Optional[MeshSpec]) -> ExtReal:
    """inf_S f, exact on finite-exception models."""
    return _layers(f, S, mesh).plain()


def penalty_value(f: FunctionModel, S: Region, n: float, spec: PenaltySpec,
                  mesh: Optional[MeshSpec]) -> ExtReal:
    """inf over the sample space of f(x) + n * d_S(x)^p."""
    return _layers(f, S, mesh).penalties((n,), spec.p)[0]


def penalty_limit(f: FunctionModel, S: Region, spec: PenaltySpec,
                  mesh: Optional[MeshSpec], cfg: LimitConfig) -> Tuple[ExtReal, Verdict]:
    """Penalty values along the multiplier schedule, compared with r_S(f).

    The schedule of values is nondecreasing (checked, else
    InvariantError); the verdict compares the last value with the uniform
    infimum within cfg.tol.
    """
    layers = _layers(f, S, mesh)
    vals = layers.penalties(spec.n_schedule, spec.p)
    _sup_of_rungs(vals, "penalty values must be nondecreasing in n")
    r = layers.uniform_infimum(cfg.delta_ladder)
    last = vals[-1]
    gap = abs(margin(r, last))
    return last, excess_verdict(
        gap, cfg.tol, cfg.decision_band,
        witness={"penalty_values": list(zip(spec.n_schedule, vals)),
                 "uniform_infimum": r, "gap": gap},
        schedules={"p": spec.p, "n_schedule": list(spec.n_schedule)})


def robustness(f: FunctionModel, S: Region, mesh: Optional[MeshSpec],
               cfg: LimitConfig) -> RobustnessReport:
    """r_S(f) versus inf_S f; the infimum is robust when they agree within
    ``cfg.tol``, and the verdict is Inconclusive inside the decision band."""
    layers = _layers(f, S, mesh)
    r = layers.uniform_infimum(cfg.delta_ladder)
    plain = layers.plain()
    gap = margin(r, plain)
    verdict = excess_verdict(abs(float(gap)), cfg.tol, cfg.decision_band,
                             {"r_value": r, "plain_inf": plain})
    return RobustnessReport(r_value=r, plain_inf=plain, gap=gap, verdict=verdict)


def nogoodlsc(N: int, I: int, delta_min: float) -> FunctionModel:
    """The sparse counterexample on a finite truncation of little-l2.

    Value -1/n at the points e_i/n + e_1/(i n) for 1 <= n <= N and
    2 <= i <= I, default 0 elsewhere; all data exact rationals.  The
    truncation bound I >= N / delta_min keeps a value -1/n point inside
    every delta-neighborhood the ladder can see, so the exact values
    r_{B_{1/n}(0)} = -1/n and inf_{B_{1/n}(0)} = -1/(n+1) survive the
    truncation.  i = 1 is excluded: there the two terms collide on e_1.
    """
    if N < 1 or I < 2:
        raise ValueError("need N >= 1 and I >= 2")
    required = int(math.ceil(N / delta_min))
    if I < required:
        raise ValueError(
            f"dimension truncation too small: need I >= {required} "
            f"for N={N} and smallest delta rung {delta_min}")
    exceptions: Dict[SparsePoint, ExtReal] = {}
    for n in range(1, N + 1):
        step, value = Fraction(1, n), Fraction(-1, n)
        for i in range(2, I + 1):
            # coordinate 0 < i - 1, so the sparse point is already sorted
            exceptions[((0, Fraction(1, i * n)), (i - 1, step))] = value
    return FunctionModel.finite_exception(default=Fraction(0), exceptions=exceptions,
                                          name=f"nogoodlsc(N={N},I={I})")
