"""Decoupled sums on product spaces: the diagonal distance, the
decoupling inequality in both its raw sup-inf form and its uniform
infimum form, the bridge from decoupling to Wijsman convergence of the
diagonally penalized sequence, and sum-rule witnesses built from
injected subdifferential oracles.

X^k carries the max product norm.  Product meshes are brute-force objects
capped at PRODUCT_DIM_CAP = 4 effective dimensions, so a 2-D base pairs
only k = 2 components; larger requests are refused rather than silently
degraded.  The penalized sequence takes the max norm of all product
coordinates, the max product norm only on a line or a max-norm base, so
``prop71_bridge`` and ``r2_witness`` refuse any other base first.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .extreal import INF, ExtReal
from .functions import FunctionModel, MeshSpec, values_on
from .geometry import MAX, Norm, _row_blocks
from .convergence import FunctionSequence, wijsman_at_point
from .slopes import (SubdifferentialOracle, _least_sum_norm,
                     slope_stability_witness, strong_slope)
from .uniforminf import _sup_inf
from .verdict import (InvariantError, LimitConfig, Verdict, combine, decide,
                      margin)

PRODUCT_DIM_CAP = 4


@dataclass
class DecoupledSum:
    """F(x_1, ..., x_k) = sum_i f_i(x_i) on X^k under the max product norm."""

    components: Tuple[FunctionModel, ...]

    def __post_init__(self):
        self.components = tuple(self.components)
        if len(self.components) < 2:
            raise ValueError("need at least two components")
        first = self.components[0]
        for f in self.components[1:]:
            if f.box != first.box or f.norm.kind is not first.norm.kind:
                raise ValueError("components must share box and norm")

    @property
    def k(self) -> int:
        return len(self.components)

    @property
    def base_norm(self) -> Norm:
        return self.components[0].norm

    def value(self, xs: Sequence[Sequence[float]]) -> ExtReal:
        total = 0.0
        for f, x in zip(self.components, xs):
            v = f(x)
            if v == INF:
                return INF
            total += float(v)
        return total


def _diagonal_distances(parts: Sequence[np.ndarray], norm: Norm) -> np.ndarray:
    """d_Delta = min over z of max_i ||x_i - z|| for every tuple (x_1, ..., x_k),
    x_i a row of the (m_i, dim) array parts[i], as an (m_1, ..., m_k) array.

    On a line it is half the range, any k.  For k = 2 it is ||x_1 - x_2|| / 2
    in every norm, attained at the midpoint (the triangle inequality bounds
    it below); no product under PRODUCT_DIM_CAP has k >= 3 on a 2-D base."""
    if parts[0].shape[1] == 1:
        coords = [x[:, 0] for x in parts]
        out = functools.reduce(np.maximum.outer, coords)
        out -= functools.reduce(np.minimum.outer, coords)
    elif len(parts) == 2:
        out = norm.pairwise(parts[0], parts[1])
    else:
        raise ValueError(f"diagonal distance of {len(parts)} points on a base of "
                         f"dimension {parts[0].shape[1]}: only k = 2 has a closed form")
    out /= 2.0
    return out


def diagonal_distance(p: Sequence[Sequence[float]], norm: Norm) -> float:
    """Distance from (x_1, ..., x_k) to the diagonal of X^k under the max
    product norm, in the closed form of ``_diagonal_distances``."""
    pts = np.asarray(p, dtype=float)  # ragged points raise ValueError here
    if pts.ndim != 2 or len(pts) < 2 or pts.shape[1] < 1:
        raise ValueError("need k >= 2 points of one dimension >= 1")
    return _diagonal_distances(pts[:, None, :], norm).item()


def product_mesh(mesh: MeshSpec, k: int) -> MeshSpec:
    if k * mesh.dim > PRODUCT_DIM_CAP:
        raise ValueError(
            f"product mesh refused: {k} components x {mesh.dim} base dims "
            f"= {k * mesh.dim} > cap {PRODUCT_DIM_CAP}; coarsen or reduce k")
    return MeshSpec(box=mesh.box * k, h=mesh.h * k)


def _product_data(ds: DecoupledSum, mesh: MeshSpec):
    """(product mesh, component node indices, F values, d_Delta values).

    Product nodes run in C order over the components' base nodes, so node
    j is (x_{idx_1[j]}, ..., x_{idx_k[j]}) and every product array is a
    gather from base-mesh arrays.  d_Delta is written in row blocks of the
    first component under the pairwise cell budget."""
    pm = product_mesh(mesh, ds.k)
    N = mesh.node_count
    idx = np.unravel_index(np.arange(pm.node_count), (N,) * ds.k)
    F = np.zeros(pm.node_count)
    for f, i in zip(ds.components, idx):
        F = F + values_on(f, mesh)[i]
    nodes = mesh.nodes()
    dDelta = np.empty((N,) * ds.k)
    for rows in _row_blocks(N, N ** (ds.k - 1)):
        dDelta[rows] = _diagonal_distances([nodes[rows]] + [nodes] * (ds.k - 1),
                                           ds.base_norm)
    return pm, idx, F, dDelta.ravel()


def _diagonal_nodes(mesh: MeshSpec, k: int) -> np.ndarray:
    """Product node indices of (x, ..., x), x running over the base nodes."""
    N = mesh.node_count
    return np.ravel_multi_index((np.arange(N),) * k, (N,) * k)


def decoupling_inequality(ds: DecoupledSum, xbar: Sequence[float],
                          mesh: MeshSpec, cfg: LimitConfig) -> Verdict:
    """For each radius rung lam, check

        r_{B^k_lam(xbar)}(F_Delta)  <=  r_Delta(F_{B^k_lam(xbar)}),

    the left side evaluated on the base mesh through ball infima of the
    summed values, the right side by brute force over product node tuples
    inside the ball.  Both the raw sup-inf expression and the uniform
    infimum form are computed; they must agree.  The verdict is decided at
    the smallest rung ("lam > 0 small enough") and the witness reports the
    largest initial run of small rungs where the inequality holds.

    Two finite-sample allowances apply.  Rungs below the mesh step are
    skipped: a discrete ball holding only its center satisfies the
    inequality vacuously.  The finite delta ladder truncates the sup on
    the right side by at most 2 * delta_min * L for an L-Lipschitz
    component, so declared Lipschitz hints widen the Holds/Fails cutoffs
    by that amount.
    """
    return _decoupling(ds, xbar, mesh, cfg, _product_data(ds, mesh))


def _decoupling(ds: DecoupledSum, xbar: Sequence[float], mesh: MeshSpec,
                cfg: LimitConfig, data) -> Verdict:
    """``decoupling_inequality`` on the product data ``(pm, idx, F, dDelta)``
    of ``_product_data(ds, mesh)``, assembled by the caller."""
    pm, idx, F, dDelta = data
    sum_vals = F[_diagonal_nodes(mesh, ds.k)]
    dist_x = ds.base_norm.pairwise(np.asarray([xbar], dtype=float), mesh.nodes())[0]
    # the product distance from (xbar, ..., xbar) is the max of the components'
    ball_dist = np.max([dist_x[i] for i in idx], axis=0)

    rows = []
    step = max(mesh.h)
    lambdas = sorted(lam for lam in cfg.radius_ladder if lam >= step)
    if not lambdas:
        raise ValueError("radius ladder has no rung at or above the mesh step")
    slack = 2 * min(cfg.delta_ladder) * sum(
        f.lipschitz_hint for f in ds.components if f.lipschitz_hint is not None)
    for lam in lambdas:
        # left: diagonal restriction over the product ball; the distance of
        # a diagonal point to B^k_lam(xbar) under the max norm is
        # (||x - xbar|| - lam)^+, so this reduces to base-ball infima
        lhs = _sup_inf(sum_vals, np.maximum(0.0, dist_x - lam), cfg.delta_ladder)
        inball = ball_dist <= lam
        Fb = np.where(inball, F, np.inf)
        rhs = _sup_inf(Fb, dDelta, cfg.delta_ladder)
        # raw two-sided form, computed independently rung by rung
        raw_lhs: ExtReal = -math.inf
        raw_rhs: ExtReal = -math.inf
        for delta in cfg.delta_ladder:
            m1 = (dist_x - lam) <= delta  # same float predicate as the r-form
            v1: ExtReal = float(sum_vals[m1].min()) if m1.any() else INF
            raw_lhs = max(raw_lhs, v1)
            m2 = inball & (dDelta <= delta)
            v2: ExtReal = float(F[m2].min()) if m2.any() else INF
            raw_rhs = max(raw_rhs, v2)
        if raw_lhs != lhs or raw_rhs != rhs:
            raise InvariantError("raw and r-form evaluations disagree")
        rows.append({"lambda": lam, "lhs": lhs, "rhs": rhs,
                     "margin": margin(lhs, rhs)})

    holding_prefix = 0
    for row in rows:
        if row["margin"] >= -(cfg.tol + slack):
            holding_prefix += 1
        else:
            break
    m0 = rows[0]["margin"]
    witness = {"rows": rows, "holding_prefix_rungs": holding_prefix,
               "lipschitz_slack": slack, "product_nodes": pm.node_count}
    status = decide(-m0, cfg.tol + slack, cfg.decision_band + slack)
    return Verdict(status, m0, witness, {"lambda_ladder": lambdas})


def _penalized_diagonal(ds: DecoupledSum, xbar: Sequence[float], mesh: MeshSpec):
    """(product data ``(pm, idx, F, dDelta)`` of ``_product_data``, the
    diagonally penalized sequence F + n * d_Delta, its limit the diagonal
    restriction F_Delta, the diagonal point (xbar, ..., xbar)), all under
    the max product norm."""
    if ds.base_norm.kind is not MAX.kind and mesh.dim != 1:
        raise ValueError("product norm requires base dim 1 or a max base norm")
    data = _product_data(ds, mesh)
    pm, _, F, dDelta = data
    Fd = FunctionModel.tabulated(pm, np.where(dDelta == 0.0, F, np.inf),
                                 norm=MAX, name="F_diag")

    def make(n):
        return FunctionModel.tabulated(pm, F + n * dDelta, norm=MAX, name=f"F+{n}d")

    seq = FunctionSequence(make, box=pm.box, norm=MAX)
    z = tuple(float(c) for c in xbar) * ds.k
    return data, seq, Fd, z


def prop71_bridge(ds: DecoupledSum, xbar: Sequence[float], mesh: MeshSpec,
                  cfg: LimitConfig) -> Tuple[Verdict, Verdict]:
    """(decoupling inequality verdict, Wijsman-at-point verdict for the
    diagonally penalized sequence F + n * d_Delta converging to the
    diagonal restriction F_Delta at (xbar, ..., xbar)).  The two statuses
    agree whenever both are decisive."""
    data, seq, Fd, z = _penalized_diagonal(ds, xbar, mesh)
    dec = _decoupling(ds, xbar, mesh, cfg, data)
    wij = wijsman_at_point(seq, Fd, z, lambda_max=2 * max(cfg.radius_ladder),
                           cfg=cfg, mesh=data[0])
    return dec, wij


def r2_witness(ds: DecoupledSum, oracles: Sequence[SubdifferentialOracle],
               xbar: Sequence[float], mesh: MeshSpec, cfg: LimitConfig) -> Verdict:
    """Sum-rule witness along the diagonally penalized sequence.

    Requires the decoupling inequality to hold.  Slope-stability points
    z_n = (x_{1,n}, ..., x_{k,n}) are extracted for F + n * d_Delta, then
    oracle elements x*_{i,n} in the subdifferential sample of f_i at
    x_{i,n} are chosen to minimize ||sum_i x*_{i,n}||.  Verdicts:

      (a) suffix max of ||sum_i x*_{i,n}|| <= slope of (sum f_i) at xbar
          within tol;
      (b) suffix max of diam(x_{1,n}, ..., x_{k,n}) * max_i ||x*_{i,n}||
          vanishes; the witness points sit on nodes, so both cutoffs are
          widened by the mesh allowance 2 min h.
    """
    if len(oracles) != ds.k:
        raise ValueError("one oracle per component is required")
    data, seq, Fd, z = _penalized_diagonal(ds, xbar, mesh)
    if not _decoupling(ds, xbar, mesh, cfg, data).holds:
        raise ValueError("decoupling inequality does not hold at xbar")
    wit = slope_stability_witness(seq, Fd, z, data[0], cfg)

    # F_Delta at (x, ..., x) is sum_i f_i(x)
    sum_model = FunctionModel.tabulated(mesh, Fd.values[_diagonal_nodes(mesh, ds.k)],
                                        norm=ds.base_norm, name="sum f_i")
    s = float(strong_slope(sum_model, xbar, mesh, cfg).value)

    d = mesh.dim
    rows = []
    for j, n in enumerate(cfg.n_schedule):
        p = wit.points[j]
        xs = [p[i * d:(i + 1) * d] for i in range(ds.k)]
        # the product element is the tuple of per-component samples, so
        # componentwise splitting holds structurally
        samples = [list(o.at(tuple(x))) for o, x in zip(oracles, xs)]
        for i, sample in enumerate(samples):
            if not sample:
                raise ValueError(f"oracle {i} returned an empty sample at {tuple(map(float, xs[i]))}")
        best_sum, best_elems = _least_sum_norm(samples, ds.base_norm)
        diam = max(float(ds.base_norm.dist(a, b)) for a in xs for b in xs)
        elem_max = max(float(ds.base_norm(e)) for e in best_elems)
        rows.append({"n": n, "points": xs, "elements": best_elems,
                     "sum_norm": best_sum, "diam_times_norm": diam * elem_max})

    win_a = cfg.window([row["sum_norm"] for row in rows])
    win_b = cfg.window([row["diam_times_norm"] for row in rows])
    excess_a = max(0.0, max(win_a) - s)
    allowance = 2 * min(mesh.h)
    val_b = max(win_b)
    witness = {"slope": s, "rows": rows, "suffix_sum_norm": max(win_a),
               "suffix_diam_norm": val_b, "mesh_allowance": allowance,
               "split_consistent": True}
    status = combine([decide(excess_a, cfg.tol, cfg.decision_band),
                      decide(val_b, cfg.tol + allowance, cfg.decision_band + allowance)])
    return Verdict(status, min(cfg.tol - excess_a, cfg.tol + allowance - val_b), witness)
