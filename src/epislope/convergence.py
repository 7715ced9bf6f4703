"""Finite-schedule verdicts for set and function convergence: lower/upper
set limits, Wijsman and Kuratowski convergence of sets, Wijsman
convergence of functions at a point through ball infima, slice
convergence through tilted sequences, and the tilt lemma relating gaps of
tilted graphs and epigraphs.

Gap distances against balls use the exact identity
D(B_r(y), A) = (d(y, A) - r)^+ rather than sampling the ball.

Recovery sequences and Wijsman verdicts at a point x share one sweep
(``_sweep``): the node distances to x are sorted once, so the nested
balls B_r(x) are prefixes of one order, and each f_n of the n schedule is
generated once, reduced to its recovery pick, ball infima and the
caller's per-n step (the Ekeland witnesses of ``slopes``), and dropped.  Memory is O(N) in the node count, not O(N) per f_n.

The penalty/Wijsman bridge ``carac_W_bridge`` lives here, above
``uniforminf`` in the import order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .extreal import INF
from .functions import (FunctionModel, MeshSpec, epi_hypo_gap_triple, restrict,
                        tilt, values_on)
from .geometry import Norm, EUCLIDEAN, PointSet, point_set_distance
from .regions import Ball, Region
from .uniforminf import _region_distances, uniform_infimum
from .verdict import (SLACK, LimitConfig, Status, Verdict, combine, decide,
                      excess_verdict, margin)


@dataclass
class SetSequence:
    """Lazily generated sequence of finite point sets, cached per index."""

    generator: Callable[[int], PointSet]
    dim: int
    norm: Norm = EUCLIDEAN
    _cache: Dict[int, PointSet] = field(default_factory=dict, repr=False)

    def at(self, n: int) -> PointSet:
        if n not in self._cache:
            S = self.generator(n)
            if S.dim != self.dim:
                raise ValueError(f"set at n={n} has dim {S.dim}, expected {self.dim}")
            self._cache[n] = S
        return self._cache[n]


@dataclass
class FunctionSequence:
    """Lazily generated sequence of function models on a shared box.

    Nothing is cached: a verdict over the n schedule calls ``generator``
    once per f_n and holds one f_n at a time.  ``model(n)``, an uncached
    alias that no program code calls, stays for ``perfbench/spans.py``.
    """

    generator: Callable[[int], FunctionModel]
    box: tuple
    norm: Norm = EUCLIDEAN

    def model(self, n: int) -> FunctionModel:
        return self.generator(n)

    def tilted(self, xstar: Sequence[float]) -> "FunctionSequence":
        return FunctionSequence(lambda n: tilt(self.generator(n), xstar),
                                box=self.box, norm=self.norm)


def _set_distances(y: Sequence[float], seq: SetSequence, cfg: LimitConfig):
    """d(y, S_n) on the suffix window of the n schedule, and the witness
    listing (n, d(y, S_n)) for every n."""
    dists = [point_set_distance(y, seq.at(n)) for n in cfg.n_schedule]
    return cfg.window(dists), {"distances": list(zip(cfg.n_schedule, dists))}


def in_lower_limit(y: Sequence[float], seq: SetSequence, cfg: LimitConfig) -> Verdict:
    """y in Li S_n, the lower limit (Rockafellar & Wets 1998, ch. 4):
    limsup d(y, S_n) = 0.  The excess is the window max of d(y, S_n)."""
    win, witness = _set_distances(y, seq, cfg)
    return excess_verdict(max(win), cfg.tol, cfg.decision_band, witness)


def in_upper_limit(y: Sequence[float], seq: SetSequence, cfg: LimitConfig) -> Verdict:
    """y in Ls S_n, the upper limit (Rockafellar & Wets 1998, ch. 4):
    liminf d(y, S_n) = 0.  The excess is the window min of d(y, S_n)."""
    win, witness = _set_distances(y, seq, cfg)
    return excess_verdict(min(win), cfg.tol, cfg.decision_band, witness)


def wijsman_sets(seq: SetSequence, S: PointSet, probes: Sequence[Sequence[float]],
                 cfg: LimitConfig) -> Verdict:
    """Wijsman convergence S_n -> S (Beer 1993): d(y, S_n) -> d(y, S)
    at every y, here at every probe.  The excess is the worst window value
    of |d(y, S_n) - d(y, S)| over the probes."""
    if not probes:
        raise ValueError("probes must be nonempty")
    per_probe = []
    for y in probes:
        dS = point_set_distance(y, S)
        win, _ = _set_distances(y, seq, cfg)
        per_probe.append({"probe": tuple(y),
                          "window_max": max(abs(margin(dS, d)) for d in win)})
    worst = max(row["window_max"] for row in per_probe)
    return excess_verdict(worst, cfg.tol, cfg.decision_band, {"per_probe": per_probe})


def hit_and_miss(seq: SetSequence, S: PointSet, y: Sequence[float],
                 lam: float, cfg: LimitConfig) -> Verdict:
    """The hit-and-miss criterion (Beer 1993) at one probe and one radius.

    Hit part, for y in S (within tol): y in Li S_n.  Miss part, when B_lam(y)
    has a positive gap to S: sup over delta of liminf (d(y, S_n) - lam -
    delta)^+ > 0, a positivity test with that sup as margin.  A probe that
    triggers neither part is vacuously Holds."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    dyS = point_set_distance(y, S)
    win, _ = _set_distances(y, seq, cfg)
    if dyS <= cfg.tol:
        return excess_verdict(max(win), cfg.tol, cfg.decision_band,
                              {"branch": "hit", "window_max": max(win)})
    if max(0.0, dyS - lam) > cfg.tol:
        # (d - lam - delta)^+ is monotone in d: its window min is at min d
        low = min(win)
        rows = [{"delta": delta, "liminf_gap": max(0.0, low - lam - delta)}
                for delta in cfg.delta_ladder]
        best = max(row["liminf_gap"] for row in rows)
        status = decide(cfg.decision_band - best, 0.0, cfg.decision_band - cfg.tol)
        return Verdict(status, best, {"branch": "miss", "sup_liminf_gap": best,
                                      "rows": rows})
    return Verdict(Status.HOLDS, 0.0, {"branch": "vacuous"})


def kuratowski_sets(seq: SetSequence, S: PointSet, probes: Sequence[Sequence[float]],
                    cfg: LimitConfig) -> Verdict:
    """Hit-and-miss at lambda = 0 across all probes."""
    results = [hit_and_miss(seq, S, y, 0.0, cfg) for y in probes]
    return _aggregate(results, [{"probe": tuple(y)} for y in probes])


def _aggregate(verdicts: List[Verdict], tags: List[dict]) -> Verdict:
    rows = [t | {"status": v.status.value, "margin": v.margin}
            for v, t in zip(verdicts, tags)]
    status = combine(v.status for v in verdicts)
    deciding = [v for v in verdicts if v.fails] if status is Status.FAILS else verdicts
    return Verdict(status, min(v.margin for v in deciding), {"parts": rows})


def snap_half_node(lam: float, h: float) -> float:
    """Snap a radius to a half-node offset to avoid boundary ties."""
    if lam <= 0:
        return 0.0
    k = max(0, int(math.floor(lam / h - 0.5)))
    return (k + 0.5) * h


def _sweep(seq: FunctionSequence, f: FunctionModel, x: Sequence[float],
           cfg: LimitConfig, mesh: MeshSpec, reaches: Sequence[float] = (),
           step: Optional[Callable] = None):
    """One pass over the n schedule for the recovery picks at x, the
    infima of every f_n over the balls B_reach(x), and ``step(n, f_n,
    x_n)`` on each f_n and its recovery pick x_n.

    The distances from x to the nodes are sorted once (stable, so ties
    keep node order); every ball is then a prefix of that order.  Each
    f_n is fetched once and gathered in distance order up to the largest
    prefix needed.  The ball infima are its prefix minima at the balls'
    ends: one minimum per segment between consecutive ends, then a
    running minimum over the segments.  The recovery pick in the
    radius-r_n prefix is the first position of least error |f_n - f(x)|:
    least error, then least distance, then least node index.

    Returns f(x), the picks (n, x_n, f_n(x_n), ||x_n - x||, r_n), the
    infima as one list per reach, INF for an empty ball, and the step's
    results in schedule order (empty without a step).
    """
    fx = f(x)
    if fx == INF:
        raise ValueError("recovery sequence needs f(x) finite")
    fx = float(fx)
    nodes = mesh.nodes()
    dist = f.norm.pairwise(np.asarray([x], dtype=float), nodes)[0]
    order = np.argsort(dist, kind="stable")
    dist = dist[order]
    ladder = cfg.radius_ladder
    count = len(cfg.n_schedule)
    radii = [ladder[min(j * len(ladder) // count, len(ladder) - 1)] for j in range(count)]
    # an empty recovery ball falls back to the nodes nearest x
    nearest = int(np.searchsorted(dist, dist[0] + SLACK, "right"))
    ends = np.searchsorted(dist, radii, "right")
    ends[ends == 0] = nearest
    reach_ends = np.searchsorted(dist, np.asarray(reaches, dtype=float), "right")
    filled = reach_ends > 0
    cuts = np.unique(reach_ends[filled])
    starts = np.concatenate(([0], cuts[:-1]))
    slots = np.searchsorted(cuts, reach_ends[filled])
    top = int(cuts[-1]) if cuts.size else 0
    picks, stepped = [], []
    infs = np.full((len(reaches), count), INF)
    for j, n in enumerate(cfg.n_schedule):
        fn = seq.generator(n)
        vals = values_on(fn, mesh)[order[:max(ends[j], top)]]
        # values are extended reals (never NaN or -inf): +inf has error +inf
        k = int(np.argmin(np.abs(vals[:ends[j]] - fx)))
        picks.append((n, tuple(nodes[order[k]]), float(vals[k]), float(dist[k]), radii[j]))
        if top:
            segments = np.minimum.reduceat(vals[:top], starts)
            infs[filled, j] = np.minimum.accumulate(segments)[slots]
        if step is not None:
            stepped.append(step(n, fn, picks[-1][1]))
    return fx, picks, infs.tolist(), stepped


def _recovery_verdict(fx: float, picks, cfg: LimitConfig) -> Verdict:
    win = cfg.window(picks)
    value_err = max(abs(p[2] - fx) if math.isfinite(p[2]) else math.inf for p in win)
    dist_err = max(p[3] for p in win)
    witness = {"picks": [{"n": p[0], "x_n": p[1], "f_n": p[2], "dist": p[3]} for p in picks],
               "window_value_err": value_err, "window_dist": dist_err}
    if dist_err > min(cfg.radius_ladder) + cfg.tol:
        return Verdict(Status.FAILS, value_err, witness)
    return excess_verdict(value_err, cfg.tol, cfg.decision_band, witness)


def recovery_sequence(seq: FunctionSequence, f: FunctionModel, x: Sequence[float],
                      cfg: LimitConfig, mesh: MeshSpec):
    """Pick x_n near x with f_n(x_n) close to f(x); verdict their limits.

    x_n is the node in the shrinking ball B_{r_n}(x) whose value is
    closest to f(x), ties broken towards x.
    """
    fx, picks, _, _ = _sweep(seq, f, x, cfg, mesh)
    return [p[1] for p in picks], _recovery_verdict(fx, picks, cfg)


def _wijsman(seq: FunctionSequence, f: FunctionModel, x: Sequence[float],
             lambda_max: float, cfg: LimitConfig, mesh: MeshSpec,
             step: Optional[Callable] = None):
    """``wijsman_at_point`` and the results of ``step(n, f_n, x_n)`` in
    its sweep (see ``_sweep``), in schedule order."""
    h = min(mesh.h)
    lambdas = [0.0] + [snap_half_node(lam, h) for lam in cfg.radius_ladder
                       if lam < lambda_max]
    lambdas = sorted(set(lambdas), reverse=True)
    # the lambda = 0 row takes the nodes within h/4 of x
    fx, picks, infs, stepped = _sweep(seq, f, x, cfg, mesh,
                                      [lam if lam > 0 else h / 4 for lam in lambdas],
                                      step)
    rec = _recovery_verdict(fx, picks, cfg)
    rows = []
    worst = math.inf
    for lam, row in zip(lambdas, infs):
        ball = Ball(center=tuple(float(c) for c in x), radius=lam, norm=f.norm)
        r_val = uniform_infimum(f, ball, mesh, cfg)
        liminf = min(cfg.window(row))
        m = margin(r_val, liminf)
        rows.append({"lambda": lam, "r_value": r_val, "liminf_inf": liminf,
                     "margin": m})
        worst = min(worst, m)
    witness = {"recovery": rec.status.value, "rows": rows}
    sched = {"lambda_max": lambda_max}
    if rec.fails:
        return Verdict(rec.status, rec.margin, witness | {"reason": "recovery"},
                       sched), stepped
    status = combine([rec.status, decide(-worst, cfg.tol, cfg.decision_band)])
    return Verdict(status, worst, witness, sched), stepped


def wijsman_at_point(seq: FunctionSequence, f: FunctionModel, x: Sequence[float],
                     lambda_max: float, cfg: LimitConfig, mesh: MeshSpec) -> Verdict:
    """Wijsman convergence of (f_n) to f at x through ball infima:

    a recovery sequence exists at x, and for each radius lam below
    lambda_max the uniform infimum of f on B_lam(x) is dominated by the
    window liminf of inf over B_lam(x) of f_n.  One sweep over the n
    schedule gives both (``_sweep``).
    """
    return _wijsman(seq, f, x, lambda_max, cfg, mesh)[0]


def carac_W_bridge(f: FunctionModel, S: Region, x: Sequence[float], p: float,
                   mesh: MeshSpec, cfg: LimitConfig) -> Tuple[Verdict, Verdict]:
    """Both sides of the penalty/Wijsman equivalence for f_n = f + n d_S^p.

    Returns (verdict of r_{B_lambda(x)}(f_S) <= r_S(f_{B_lambda(x)}) over
    the small-lambda ladder, verdict of Wijsman convergence of the
    penalized sequence to f_S at x).  The two statuses agree whenever both
    are decisive.
    """
    f_S = restrict(f, S)
    rows = []
    worst = math.inf
    for lam in cfg.radius_ladder:
        ball = Ball(center=tuple(float(c) for c in x), radius=lam, norm=f.norm)
        lhs = uniform_infimum(f_S, ball, mesh, cfg)
        rhs = uniform_infimum(restrict(f, ball), S, mesh, cfg)
        m = margin(lhs, rhs)
        rows.append({"lambda": lam, "lhs": lhs, "rhs": rhs, "margin": m})
        worst = min(worst, m)
    ineq = Verdict(decide(-worst, cfg.tol, cfg.decision_band), worst,
                   witness={"rows": rows})

    dS = _region_distances(S, mesh, f.norm)
    vals = values_on(f, mesh)

    def make(n):
        return FunctionModel.tabulated(mesh, vals + n * dS ** p, norm=f.norm,
                                       name=f"{f.name}+{n}d^p")

    seq = FunctionSequence(make, box=mesh.box, norm=f.norm)
    wij = wijsman_at_point(seq, f_S, x, lambda_max=max(cfg.radius_ladder) * 2,
                           cfg=cfg, mesh=mesh)
    return ineq, wij


def slice_at_point(seq: FunctionSequence, f: FunctionModel, x: Sequence[float],
                   lambda_max: float, directions: Sequence[Sequence[float]],
                   cfg: LimitConfig, mesh: MeshSpec) -> Verdict:
    """Slice convergence at x: Wijsman convergence of every tilted pair
    (f_n + x*, f + x*) over the sampled direction set (which must contain
    the zero functional).  A finite direction sample is an incomplete
    surrogate for the full dual space; the report lists the directions."""
    if not directions:
        raise ValueError("directions must be nonempty")
    if not any(all(c == 0 for c in d) for d in directions):
        raise ValueError("direction set must include the zero functional")
    results = []
    tags = []
    for d in directions:
        tseq = seq.tilted(d)
        tf = tilt(f, d)
        results.append(wijsman_at_point(tseq, tf, x, lambda_max, cfg, mesh))
        tags.append({"direction": tuple(float(c) for c in d)})
    out = _aggregate(results, tags)
    out.witness["surrogate_note"] = "finite direction sample; not all of X*"
    return out


def graph_epi_gap(g: FunctionModel, f: FunctionModel, mesh: MeshSpec) -> float:
    """D(graph g, epi f) in the box norm, vertical extents exact."""
    return epi_hypo_gap_triple(f, g, mesh, cap=0.0, floor=0.0, alpha_step=1.0,
                               exact=True)[2]


def tilt_gap_invariance(f: FunctionModel, g: FunctionModel, xstar: Sequence[float],
                        mesh: MeshSpec, cfg: LimitConfig) -> Tuple[bool, bool]:
    """Positivity of D(graph g, epi(f - x*)) versus D(graph(g + x*), epi f),
    the second tested at the scaled tolerance tol / (1 + ||x*||)."""
    neg = [-float(c) for c in xstar]
    lhs = graph_epi_gap(g, tilt(f, neg), mesh)
    rhs = graph_epi_gap(tilt(g, xstar), f, mesh)
    xnorm = f.norm(xstar)
    return lhs > cfg.tol, rhs > cfg.tol / (1.0 + xnorm)
