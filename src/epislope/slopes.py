"""Strong slopes on meshes, a discrete Ekeland principle, slope-stability
witnesses for Wijsman-perturbed sequences, Fréchet-subdifferential
membership through the slope reformulation, and slope-control witnesses
for penalized pairs with injected subdifferential oracles.

A strong slope measures the node distances to its probe once and
narrows its radius rungs, which are nested, one from the next; a Fréchet
test reads its liminf quotient off the same distances and neighbours, so
it measures them once too.  The probe's own node is left out by its
index, so every probe that f accepts is measured.

Subdifferential oracles are supplied, never inferred: slope-control
checks run only on instances whose subdifferentials are known in closed
form (smooth, convex piecewise-linear, envelopes thereof).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .extreal import INF, ExtReal
from .functions import FunctionModel, MeshSpec, tilt, values_on
from .convergence import FunctionSequence, _wijsman, snap_half_node
from .verdict import (FORMS_AGREE_TOL, InvariantError, LimitConfig,
                      Verdict, excess_verdict)


@dataclass
class SlopeEstimate:
    """Sup-ratio trace over the radius ladder; value at the smallest radius."""

    value: ExtReal
    radius_used: float
    ratio_trace: List[Tuple[float, float]]


@dataclass
class SubdifferentialOracle:
    """Finite sample of the subdifferential at a point.

    For smooth instances the sample is the gradient; for convex piecewise
    instances it is the extreme points of the subdifferential.
    """

    at: Callable[[Tuple[float, ...]], List[Tuple[float, ...]]]
    provenance: str = "analytic"


@dataclass
class StabilityWitness:
    points: List[Tuple[float, ...]]
    values: List[float]
    slopes: List[float]
    limsup_bound: float

    def suffix_max_slope(self, window: int) -> float:
        return max(self.slopes[len(self.slopes) - window:])


def _slope_rungs(f: FunctionModel, x: Sequence[float], mesh: MeshSpec,
                 cfg: LimitConfig) -> Tuple[SlopeEstimate, np.ndarray, np.ndarray]:
    """``strong_slope`` of f at x, and the node indices and distances to x
    of the neighbours within its smallest nonempty rung, in node order.

    The neighbours are the nodes other than the one x names within the
    largest radius; fx - f, its +inf mask and positive part, and the
    ratios are taken on them once.  The ladder is strictly decreasing, so
    each later rung is narrowed from the one before by ``d <= r``, and the
    trace ends at the last rung that holds a neighbour."""
    fx = f(x)
    if fx == INF:
        raise ValueError("slope undefined outside dom f")
    fx = float(fx)
    vals = values_on(f, mesh)
    d = f.norm.pairwise(np.asarray([x], dtype=float), mesh.nodes())[0]
    ladder = cfg.radius_ladder
    near = d <= ladder[0]
    near[mesh.node_index(x)] = False
    idx = np.flatnonzero(near)
    if not idx.size:
        raise ValueError("no neighbor node within the radius ladder; refine the ladder")
    d = d[idx]
    vals = vals[idx]
    with np.errstate(invalid="ignore"):
        num = fx - vals
    num = np.where(np.isfinite(vals), num, -np.inf)  # y outside dom never raises the ratio
    ratio = np.maximum(num, 0.0, out=num)
    ratio /= d
    trace = [(ladder[0], float(ratio.max()))]
    for r in ladder[1:]:
        inside = d <= r
        if not inside.any():
            break
        d, ratio, idx = d[inside], ratio[inside], idx[inside]
        trace.append((r, float(ratio.max())))
    r_small, v = trace[-1]
    return SlopeEstimate(value=v, radius_used=r_small, ratio_trace=trace), idx, d


def strong_slope(f: FunctionModel, x: Sequence[float], mesh: MeshSpec,
                 cfg: LimitConfig) -> SlopeEstimate:
    """|grad f|(x) estimated as the sup of (f(x)-f(y))^+ / ||x-y|| over
    nodes y within each radius rung, y other than the node that x names
    (``f(x)`` refuses a point that names none); the estimate is the entry
    at the smallest nonempty rung and the full trace is retained
    (monotone in radius).  One distance pass: the rungs are nested, so
    each is narrowed from the one before (``_slope_rungs``)."""
    return _slope_rungs(f, x, mesh, cfg)[0]


def ekeland_point(f: FunctionModel, x0: Sequence[float], sigma: float,
                  radius: float, mesh: MeshSpec) -> Tuple[float, ...]:
    """Exact discrete Ekeland point in B_radius(x0).

    Returns z with f(z) <= f(x0) and f(z) <= f(y) + sigma*||y - z|| for
    every ball node y, found by iterating z <- argmin f(.) + sigma*||.-z||
    to a fixpoint; f(z) strictly decreases per move, so this terminates.
    """
    if not (sigma > 0 and radius > 0):  # also refuses NaN
        raise ValueError(f"sigma and radius must be positive, got {sigma!r} and {radius!r}")
    nodes = mesh.nodes()
    vals = values_on(f, mesh)
    d0 = f.norm.pairwise(np.asarray([x0], dtype=float), nodes)[0]
    mask = d0 <= radius
    ball = nodes[mask]
    bvals = vals[mask]
    if not np.isfinite(bvals).any():
        raise ValueError("f is +inf on the whole ball")
    # start at the ball node nearest x0 (x0 itself when it is a node)
    start = int(np.argmin(d0[mask]))
    if not np.isfinite(bvals[start]):
        raise ValueError("f(x0) must be finite")
    z = start
    while True:
        dz = f.norm.pairwise(ball[z:z + 1], ball)[0]
        scores = bvals + sigma * dz
        best = int(np.argmin(scores))
        if scores[best] < bvals[z]:
            z = best
        else:
            break
    # exact postcondition on the finite node set
    dz = f.norm.pairwise(ball[z:z + 1], ball)[0]
    if not bvals[z] <= (bvals + sigma * dz).min():
        raise InvariantError("Ekeland point beaten by a ball node within sigma")
    if not bvals[z] <= bvals[start]:
        raise InvariantError("Ekeland point above the start value")
    return tuple(ball[z])


def _ekeland_witness(seq: FunctionSequence, f: FunctionModel, x: Sequence[float],
                     mesh: MeshSpec, cfg: LimitConfig, start: Callable,
                     limsup_bound: float, where: str) -> StabilityWitness:
    """The Wijsman verdict of (f_n) -> f at x, with the Ekeland point
    ``ekeland_point(f_n, *start(n, x_n))`` of each f_n, its value and strong
    slope taken inside the sweep, so every f_n is generated once.  A failed
    verdict raises ``ValueError``."""
    def step(n, fn, x_n):
        z = ekeland_point(fn, *start(n, x_n), mesh)
        return z, float(fn(z)), float(strong_slope(fn, z, mesh, cfg).value)

    wij, stepped = _wijsman(seq, f, x, 2 * max(cfg.radius_ladder), cfg, mesh, step)
    if wij.fails:
        raise ValueError(f"sequence is not Wijsman convergent to f at {where}")
    points, vals, slopes = (list(col) for col in zip(*stepped))
    return StabilityWitness(points=points, values=vals, slopes=slopes,
                            limsup_bound=limsup_bound)


def slope_stability_witness(seq: FunctionSequence, f: FunctionModel,
                            x: Sequence[float], mesh: MeshSpec,
                            cfg: LimitConfig) -> StabilityWitness:
    """Witness points for slope stability under Wijsman perturbations:
    from a recovery sequence, apply the discrete Ekeland principle to f_n
    with slack sigma + 3*eps (eps = 1/n ladder) on a shrinking ball, and
    record values and slopes along the way."""
    sigma = strong_slope(f, x, mesh, cfg).value
    h = min(mesh.h)

    def start(n, x_n):
        eps = 1.0 / n
        lam = max(2 * h, snap_half_node(eps / 2, h))
        mu = max(1.5 * h, ((sigma + 2 * eps) / (sigma + 3 * eps)) * lam)
        return x_n, sigma + 3 * eps, mu

    return _ekeland_witness(seq, f, x, mesh, cfg, start, float(sigma) + cfg.tol, "x")


def stationary_sequence(seq: FunctionSequence, f: FunctionModel, mesh: MeshSpec,
                        cfg: LimitConfig) -> StabilityWitness:
    """Near-stationary witnesses: values tend to the node infimum of f and
    slopes tend to zero, built from near-minimizers sharpened by the
    Ekeland principle and transferred to f_n."""
    fvals = values_on(f, mesh)
    if not np.isfinite(fvals).any():
        raise ValueError("inf of f is not finite on the mesh")
    argmin_node = tuple(mesh.nodes()[int(np.argmin(fvals))])
    h = min(mesh.h)
    box_diam = max(hi - lo for lo, hi in mesh.box)

    def start(n, x_n):
        z_n = ekeland_point(f, argmin_node, 1.0 / n, box_diam, mesh)
        return z_n, 4.0 / n, max(2 * h, snap_half_node(1.0 / (2 * n), h))

    return _ekeland_witness(seq, f, argmin_node, mesh, cfg, start, cfg.decision_band,
                            "the argmin probe")


def frechet_membership(f: FunctionModel, x: Sequence[float],
                       xstar: Sequence[float], mesh: MeshSpec,
                       cfg: LimitConfig) -> Verdict:
    """x* in the Fréchet subdifferential of f at x, decided through the
    slope form |grad(f - x*)|(x) = 0 and cross-checked against the
    defining liminf quotient at the smallest radius.  The quotient is read
    off the slope form's distances and neighbours of that rung
    (``_slope_rungs``), so a test measures the node distances once."""
    fx = f(x)
    if fx == INF:
        raise ValueError("membership undefined outside dom f")
    neg = tuple(-float(c) for c in xstar)
    est, near, d = _slope_rungs(tilt(f, neg), x, mesh, cfg)
    s = float(est.value)

    # independent liminf form on the neighbours of the smallest usable rung
    xs = np.asarray(xstar, dtype=float)
    vals = values_on(f, mesh)[near]
    inner = (mesh.nodes() @ xs)[near] - float(np.asarray(x) @ xs)
    with np.errstate(invalid="ignore"):
        quot = (vals - fx - inner) / d
    quot = np.where(np.isfinite(vals), quot, np.inf)
    liminf = float(quot.min())
    slope_from_liminf = max(0.0, -liminf)
    agree = abs(slope_from_liminf - s) <= FORMS_AGREE_TOL

    witness = {"slope": s, "liminf_quotient": liminf,
               "forms_agree": agree, "radius": est.radius_used}
    return excess_verdict(s, cfg.tol, cfg.decision_band, witness)


def _least_sum_norm(samples: Sequence[Sequence[Tuple[float, ...]]],
                    norm) -> Tuple[float, Optional[Tuple[Tuple[float, ...], ...]]]:
    """(least ||x_1 + ... + x_k|| over x_i in samples[i], the first tuple
    in ``itertools.product`` order that reaches it); (inf, None) when a
    sample is empty."""
    best, least = math.inf, None
    for combo in itertools.product(*samples):
        v = float(norm([sum(c) for c in zip(*combo)]))
        if v < best:
            best, least = v, combo
    return best, least


def p2_witness(f: FunctionModel, f_oracle: SubdifferentialOracle,
               phi: FunctionModel, phi_oracle: SubdifferentialOracle,
               z: Sequence[float], mesh: MeshSpec, cfg: LimitConfig) -> Verdict:
    """Slope control: near z find x with f-value close, y near z, and
    oracle elements x* in df(x), y* in dphi(y) with ||x* + y*|| bounded by
    the slope of f + phi at z within tolerance."""
    if phi.lipschitz_hint is None:
        raise ValueError("phi requires a Lipschitz hint")
    fvals = values_on(f, mesh)
    pvals = values_on(phi, mesh)
    total = FunctionModel.tabulated(mesh, fvals + pvals, norm=f.norm,
                                    name="f+phi")
    s = float(strong_slope(total, z, mesh, cfg).value)
    fz = float(f(z))
    nodes = mesh.nodes()
    d = f.norm.pairwise(np.asarray([z], dtype=float), nodes)[0]
    L = float(phi.lipschitz_hint)
    rows = []
    for r in cfg.radius_ladder:
        maskx = (d <= r) & np.isfinite(fvals) & (np.abs(fvals - fz) <= (s + L + 1.0) * r + cfg.tol)
        masky = d <= r
        if not maskx.any() or not masky.any():
            continue
        xs = [e for p in nodes[maskx] for e in f_oracle.at(tuple(p))]
        ys = [e for p in nodes[masky] for e in phi_oracle.at(tuple(p))]
        rows.append({"radius": r, "min_sum_norm": _least_sum_norm([xs, ys], f.norm)[0]})
    if not rows:
        raise ValueError("no witness candidates within the radius ladder")
    suffix = rows[len(rows) // 2:]
    worst = max(row["min_sum_norm"] for row in suffix)
    witness = {"slope": s, "rows": rows, "suffix_max": worst}
    return excess_verdict(max(0.0, worst - s), cfg.tol, cfg.decision_band, witness)


def sequence_p2_stability(seqF: FunctionSequence,
                          oraclesF: Callable[[int], SubdifferentialOracle],
                          seqPhi: Optional[FunctionSequence],
                          oraclesPhi: Optional[Callable[[int], SubdifferentialOracle]],
                          f: FunctionModel, z: Sequence[float], mesh: MeshSpec,
                          cfg: LimitConfig) -> Verdict:
    """Stability of slope control along a Wijsman-convergent sequence
    (f_n + phi_n) -> f at z: witnesses are taken near the slope-stability
    points with 1/n slack, and limsup ||x*_n + y*_n|| is verdicted against
    |grad f|(z)."""
    def sum_model(n):
        fv = values_on(seqF.generator(n), mesh)
        if seqPhi is not None:
            fv = fv + values_on(seqPhi.generator(n), mesh)
        return FunctionModel.tabulated(mesh, fv, norm=f.norm, name=f"sum_{n}")

    sumseq = FunctionSequence(sum_model, box=mesh.box, norm=f.norm)
    witness_pts = slope_stability_witness(sumseq, f, z, mesh, cfg)
    s = float(strong_slope(f, z, mesh, cfg).value)
    nodes = mesh.nodes()
    h = min(mesh.h)
    rows = []
    for j, n in enumerate(cfg.n_schedule):
        zn = np.asarray(witness_pts.points[j], dtype=float)
        r = max(2 * h, 1.0 / n)
        d = f.norm.pairwise(zn[None, :], nodes)[0]
        mask = d <= r
        oracles = [oraclesF(n)] if oraclesPhi is None else [oraclesF(n), oraclesPhi(n)]
        samples = [[e for p in nodes[mask] for e in o.at(tuple(p))] for o in oracles]
        rows.append({"n": n, "min_sum_norm": _least_sum_norm(samples, f.norm)[0]})
    worst = max(cfg.window([row["min_sum_norm"] for row in rows]))
    witness = {"slope": s, "rows": rows, "suffix_max": worst}
    return excess_verdict(max(0.0, worst - s), cfg.tol, cfg.decision_band, witness)
