"""Finite-schedule verdicts for set and function convergence: lower/upper
set limits, Wijsman and Kuratowski convergence of sets, Wijsman
convergence of functions at a point through ball infima, slice
convergence through tilted sequences, and the tilt lemma relating gaps of
tilted graphs and epigraphs.

Gap distances against balls use the exact identity
D(B_r(y), A) = (d(y, A) - r)^+ rather than sampling the ball.

A set verdict generates each S_n it reads once, for all its probes, and
drops it (``_set_distances``).  Wijsman, hit-and-miss and Kuratowski
convergence are tail statements: they generate no S_n before the window.

Recovery sequences and Wijsman verdicts at a point x share one sweep
(``_sweep``): the node distances to x are sorted once, so the nested
balls B_r(x), and the delta rungs of each ball whose uniform infimum of
f a Wijsman row compares, are prefixes of one order.  f is gathered in
that order once; each f_n the sweep visits is generated once, reduced to
its recovery pick, its minima over the segments between consecutive ball
ends (one row of a window x segments array, turned into ball infima by
one running minimum after the last f_n) and the caller's per-n step (the
Ekeland witnesses of ``slopes``), and dropped.
Memory is O(N) in the node count, not O(N) per f_n.  Wijsman convergence
is a tail statement, so a Wijsman verdict without a per-n step sweeps the
eventual window of the schedule only: each f_n of the window is generated
once, and no f_n before it is generated at all.  Recovery sequences and
the Ekeland witnesses list every n, so they sweep the whole schedule.

The penalty/Wijsman bridge ``carac_W_bridge`` lives here, above
``uniforminf`` in the import order; it reads f, d_S and both sides of
every lambda row off one mesh evaluator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .extreal import INF
from .functions import FunctionModel, MeshSpec, epi_hypo_gap_triple, tilt, values_on
from .geometry import Norm, EUCLIDEAN, PointSet, point_set_distance
from .regions import Region
from .uniforminf import _MeshLayers, _sorted_sup_inf, _sup_inf
from .verdict import (SLACK, LimitConfig, Status, Verdict, combine, decide,
                      excess_verdict, margin)


@dataclass
class SetSequence:
    """Lazily generated sequence of finite point sets of one dimension;
    nothing is cached."""

    generator: Callable[[int], PointSet]
    dim: int


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


def _set_distances(probes: Sequence[Sequence[float]], seq: SetSequence,
                   ns: Sequence[int]) -> List[List[float]]:
    """d(y, S_n) for every probe y (one row each) and every n of ``ns``:
    each S_n is generated once, measured from every probe and dropped."""
    if not probes:
        raise ValueError("probes must be nonempty")
    table = [[] for _ in probes]
    for n in ns:
        S = seq.generator(n)
        if S.dim != seq.dim:
            raise ValueError(f"set at n={n} has dim {S.dim}, expected {seq.dim}")
        for row, y in zip(table, probes):
            row.append(point_set_distance(y, S))
    return table


def _limit(y: Sequence[float], seq: SetSequence, cfg: LimitConfig, excess) -> Verdict:
    """The excess of the window of d(y, S_n) decided, with the witness
    listing (n, d(y, S_n)) for every n of the schedule."""
    [dists] = _set_distances([y], seq, cfg.n_schedule)
    return excess_verdict(excess(cfg.window(dists)), cfg.tol, cfg.decision_band,
                          {"distances": list(zip(cfg.n_schedule, dists))})


def in_lower_limit(y: Sequence[float], seq: SetSequence, cfg: LimitConfig) -> Verdict:
    """y in Li S_n, the lower limit (Rockafellar & Wets 1998, ch. 4):
    limsup d(y, S_n) = 0.  The excess is the window max of d(y, S_n)."""
    return _limit(y, seq, cfg, max)


def in_upper_limit(y: Sequence[float], seq: SetSequence, cfg: LimitConfig) -> Verdict:
    """y in Ls S_n, the upper limit (Rockafellar & Wets 1998, ch. 4):
    liminf d(y, S_n) = 0.  The excess is the window min of d(y, S_n)."""
    return _limit(y, seq, cfg, min)


def wijsman_sets(seq: SetSequence, S: PointSet, probes: Sequence[Sequence[float]],
                 cfg: LimitConfig) -> Verdict:
    """Wijsman convergence S_n -> S (Beer 1993): d(y, S_n) -> d(y, S)
    at every y, here at every probe.  The excess is the worst window value
    of |d(y, S_n) - d(y, S)| over the probes."""
    dS = [point_set_distance(y, S) for y in probes]
    table = _set_distances(probes, seq, cfg.window(cfg.n_schedule))
    per_probe = [{"probe": tuple(y), "window_max": max(abs(margin(d, dn)) for dn in win)}
                 for y, d, win in zip(probes, dS, table)]
    worst = max(row["window_max"] for row in per_probe)
    return excess_verdict(worst, cfg.tol, cfg.decision_band, {"per_probe": per_probe})


def _hit_or_miss(dyS: float, win: List[float], lam: float, cfg: LimitConfig) -> Verdict:
    """``hit_and_miss`` at one probe, given d(y, S) and the probe's
    window of d(y, S_n)."""
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


def hit_and_miss(seq: SetSequence, S: PointSet, y: Sequence[float],
                 lam: float, cfg: LimitConfig) -> Verdict:
    """The hit-and-miss criterion (Beer 1993) at one probe and one radius.

    Hit part, for y in S (within tol): y in Li S_n.  Miss part, when B_lam(y)
    has a positive gap to S: sup over delta of liminf (d(y, S_n) - lam -
    delta)^+ > 0, a positivity test with that sup as margin.  A probe that
    triggers neither part is vacuously Holds."""
    if not lam >= 0:  # also refuses NaN
        raise ValueError(f"lambda must be nonnegative, got {lam!r}")
    dyS = point_set_distance(y, S)
    [win] = _set_distances([y], seq, cfg.window(cfg.n_schedule))
    return _hit_or_miss(dyS, win, lam, cfg)


def kuratowski_sets(seq: SetSequence, S: PointSet, probes: Sequence[Sequence[float]],
                    cfg: LimitConfig) -> Verdict:
    """Hit-and-miss at lambda = 0 across all probes, from one table of
    d(y, S_n) over the window."""
    dS = [point_set_distance(y, S) for y in probes]
    table = _set_distances(probes, seq, cfg.window(cfg.n_schedule))
    results = [_hit_or_miss(d, win, 0.0, cfg) for d, win in zip(dS, table)]
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


def _rung_reach(dist: np.ndarray, lam: float, delta: float) -> int:
    """The length of the prefix of the sorted ``dist`` on which
    max(0, d - lam) <= delta, the float predicate of a rung of B_lam(x):
    ``searchsorted`` at lam + delta, moved to where the predicate changes
    (it is nondecreasing in d, so it holds on a prefix)."""
    k = int(np.searchsorted(dist, lam + delta, "right"))
    while k < len(dist) and max(0.0, dist[k] - lam) <= delta:
        k += 1
    while k and not max(0.0, dist[k - 1] - lam) <= delta:
        k -= 1
    return k


def _sweep(seq: FunctionSequence, f: FunctionModel, x: Sequence[float],
           cfg: LimitConfig, mesh: MeshSpec, lambdas: Sequence[float] = (),
           step: Optional[Callable] = None, start: int = 0):
    """One pass over the n schedule from its position ``start`` on, for
    the recovery picks at x, the uniform infima r(f) and the infima of
    every f_n over the balls B_lam(x) of ``lambdas`` (the f_n infima of a
    lam = 0 ball take the nodes within h/4 of x), and ``step(n, f_n, x_n)``
    on each f_n and its recovery pick x_n.  No n before ``start`` is
    generated; every n keeps the radius r_n of its position in the whole
    schedule.

    The distances from x to the nodes are sorted once (stable, so ties
    keep node order); every ball is then a prefix of that order.  Each
    delta rung of B_lam(x), {max(0, d - lam) <= delta} in the ball's closed
    form, is a prefix too, since max(0, d - lam) is nondecreasing in the
    sorted d, so r(f) reads the running minimum of f at the rungs' ends.
    The largest delta's rung of every ball bounds them all (``_rung_reach``):
    f is gathered in distance order up to the farthest of those ends, once,
    before any f_n, and each ball's rungs are found in its own.  Each f_n is
    fetched once and gathered in distance order up to the largest prefix
    needed.  The ball infima are its prefix minima at the balls' ends: each
    f_n writes one minimum per segment between consecutive ends into its
    row of a (swept n) x (segments) array, and after the last f_n one
    running minimum along the rows and one gather give every ball's infima
    at once.  The recovery pick in the radius-r_n prefix is the
    first position of least error |f_n - f(x)|: least error, then least
    distance, then least node index.

    Returns f(x), the picks (n, x_n, f_n(x_n), ||x_n - x||, r_n), r(f) per
    ball, the f_n infima as one list per ball, INF for an empty ball, and
    the step's results in schedule order (empty without a step), each for
    the swept positions only.
    """
    fx = f(x)
    if fx == INF:
        raise ValueError("recovery sequence needs f(x) finite")
    fx = float(fx)
    nodes = mesh.nodes()
    dist = f.norm.pairwise(np.asarray([x], dtype=float), nodes)[0]
    order = np.argsort(dist, kind="stable")
    dist = dist[order]
    # the largest delta rung of B_lam(x) ends at reach[i]; no rung reads past it
    reach = [_rung_reach(dist, lam, cfg.delta_ladder[0]) for lam in lambdas]
    low = (np.minimum.accumulate(values_on(f, mesh)[order[:max(reach)]])
           if lambdas else None)
    r_values = [_sorted_sup_inf(low, np.maximum(0.0, dist[:k] - lam), cfg.delta_ladder)
                for lam, k in zip(lambdas, reach)]
    ladder = cfg.radius_ladder
    count = len(cfg.n_schedule)
    radii = [ladder[min(j * len(ladder) // count, len(ladder) - 1)] for j in range(count)]
    # an empty recovery ball falls back to the nodes nearest x
    nearest = int(np.searchsorted(dist, dist[0] + SLACK, "right"))
    ends = np.searchsorted(dist, radii, "right")
    ends[ends == 0] = nearest
    h = min(mesh.h)
    reaches = np.asarray([lam if lam > 0 else h / 4 for lam in lambdas], dtype=float)
    reach_ends = np.searchsorted(dist, reaches, "right")
    filled = reach_ends > 0
    cuts = np.unique(reach_ends[filled])
    starts = np.concatenate(([0], cuts[:-1]))
    slots = np.searchsorted(cuts, reach_ends[filled])
    top = int(cuts[-1]) if cuts.size else 0
    picks, stepped = [], []
    segments = np.empty((count - start, len(cuts)))
    for j in range(start, count):
        n = cfg.n_schedule[j]
        fn = seq.generator(n)
        vals = values_on(fn, mesh)[order[:max(ends[j], top)]]
        # values are extended reals (never NaN or -inf): +inf has error +inf
        k = int(np.argmin(np.abs(vals[:ends[j]] - fx)))
        picks.append((n, tuple(nodes[order[k]]), float(vals[k]), float(dist[k]), radii[j]))
        if top:
            np.minimum.reduceat(vals[:top], starts, out=segments[j - start])
        if step is not None:
            stepped.append(step(n, fn, picks[-1][1]))
    infs = np.full((len(lambdas), count - start), INF)
    np.minimum.accumulate(segments, axis=1, out=segments)
    infs[filled] = segments[:, slots].T
    return fx, picks, r_values, infs.tolist(), stepped


def _recovery_verdict(fx: float, picks, cfg: LimitConfig) -> Verdict:
    win = cfg.window(picks)
    value_err = max(abs(p[2] - fx) if math.isfinite(p[2]) else math.inf for p in win)
    dist_err = max(p[3] for p in win)
    witness = {"picks": [{"n": p[0], "x_n": p[1], "f_n": p[2], "dist": p[3]} for p in picks],
               "window_value_err": value_err, "window_dist": dist_err}
    # picks farther from x than the least radius count as excess too
    excess = max(value_err, dist_err - min(cfg.radius_ladder))
    return excess_verdict(excess, cfg.tol, cfg.decision_band, witness)


def recovery_sequence(seq: FunctionSequence, f: FunctionModel, x: Sequence[float],
                      cfg: LimitConfig, mesh: MeshSpec):
    """Pick x_n near x with f_n(x_n) close to f(x); verdict their limits.

    x_n is the node in the shrinking ball B_{r_n}(x) whose value is
    closest to f(x), ties broken towards x.
    """
    fx, picks, _, _, _ = _sweep(seq, f, x, cfg, mesh)
    return [p[1] for p in picks], _recovery_verdict(fx, picks, cfg)


def _wijsman(seq: FunctionSequence, f: FunctionModel, x: Sequence[float],
             lambda_max: float, cfg: LimitConfig, mesh: MeshSpec,
             step: Optional[Callable] = None):
    """``wijsman_at_point`` and the results of ``step(n, f_n, x_n)`` in
    its sweep (see ``_sweep``), in schedule order.

    The verdict reads the suffix window of the schedule only, so without
    a step the sweep starts at the window; a step sees every n."""
    if not lambda_max >= 0:  # also refuses NaN
        raise ValueError(f"lambda_max must be nonnegative, got {lambda_max!r}")
    h = min(mesh.h)
    lambdas = [0.0] + [snap_half_node(lam, h) for lam in cfg.radius_ladder
                       if lam < lambda_max]
    lambdas = sorted(set(lambdas), reverse=True)
    start = 0 if step is not None else len(cfg.n_schedule) - cfg.window_size
    fx, picks, r_values, infs, stepped = _sweep(seq, f, x, cfg, mesh, lambdas, step, start)
    rec = _recovery_verdict(fx, picks, cfg)
    rows = []
    worst = math.inf
    for lam, r_val, row in zip(lambdas, r_values, infs):
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
    window liminf of inf over B_lam(x) of f_n.  One sweep over the
    eventual window of the n schedule gives both (``_sweep``): each f_n of
    the window is generated once, and no n before the window is
    generated, so a generator that raises there does not make the verdict
    raise.
    """
    return _wijsman(seq, f, x, lambda_max, cfg, mesh)[0]


def carac_W_bridge(f: FunctionModel, S: Region, x: Sequence[float], p: float,
                   mesh: MeshSpec, cfg: LimitConfig) -> Tuple[Verdict, Verdict]:
    """Both sides of the penalty/Wijsman equivalence for f_n = f + n d_S^p.

    Returns (verdict of r_{B_lambda(x)}(f_S) <= r_S(f_{B_lambda(x)}) over
    the small-lambda ladder, verdict of Wijsman convergence of the
    penalized sequence to f_S at x).  The two statuses agree whenever both
    are decisive.

    One evaluator (``_MeshLayers``) gives f, d_S and every row: f_S (also
    the Wijsman limit) is f where S holds and +inf elsewhere, the left side
    is r of f_S over max(0, d_x - lam), and the right side r_S of f where
    d_x <= lam, d_x being the node distances to x: the arrays and masks of
    two evaluators per lambda, so each row is theirs bit for bit.  An x
    whose smallest ball B_lam(x) holds no node is refused, as that ball's
    evaluator (``Ball.distances``) refuses it.
    """
    layers = _MeshLayers(f, S, mesh)
    d_x = f.norm.pairwise(np.asarray([x], dtype=float), mesh.nodes())[0]
    if not d_x.min() <= cfg.radius_ladder[-1]:
        raise ValueError("region contains no mesh node")
    # d_S is 0 exactly at the members, so this is restrict(f, S)'s array
    f_S_values = np.where(layers.dist == 0.0, layers.values, INF)
    rows = []
    worst = math.inf
    for lam in cfg.radius_ladder:
        lhs = _sup_inf(f_S_values, np.maximum(0.0, d_x - lam), cfg.delta_ladder)
        rhs = _sup_inf(np.where(d_x <= lam, layers.values, INF), layers.dist,
                       cfg.delta_ladder)
        m = margin(lhs, rhs)
        rows.append({"lambda": lam, "lhs": lhs, "rhs": rhs, "margin": m})
        worst = min(worst, m)
    ineq = Verdict(decide(-worst, cfg.tol, cfg.decision_band), worst,
                   witness={"rows": rows})

    def make(n):
        return FunctionModel.tabulated(mesh, layers.penalized(n, p), norm=f.norm,
                                       name=f"{f.name}+{n}d^p")

    seq = FunctionSequence(make, box=mesh.box, norm=f.norm)
    f_S = FunctionModel.tabulated(mesh, f_S_values, norm=f.norm, name=f"{f.name}|S")
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
    # tilting f checks every direction's dimension before any f_n
    tilted = [tilt(f, d) for d in directions]
    results = [wijsman_at_point(seq.tilted(d), tf, x, lambda_max, cfg, mesh)
               for d, tf in zip(directions, tilted)]
    tags = [{"direction": tuple(float(c) for c in d)} for d in directions]
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
