"""Extended-real function models and the constructions applied to them:
epigraph/graph/hypograph sampling, restriction, infima over regions,
inf-convolution and the Lipschitz (Pasch-Hausdorff) envelope f ▽ n||.||.

Two evaluation regimes coexist.  Analytic models are closures sampled on
demand; tabulated models carry exact values at mesh nodes and refuse
off-node queries, so that every "inf over X" is a finite reproducible
minimum.  Finite-exception models (a default value plus finitely many
exceptional points) support exact rational evaluation and never touch a
mesh.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .extreal import INF, ExtReal, check
from .geometry import (BoxNorm, EUCLIDEAN, Norm, NormKind, Point, PointSet,
                       _row_blocks, gap_distance)
from .regions import Ball, Region
from .verdict import KEY_DECIMALS, SLACK

Box = Tuple[Tuple[float, float], ...]


def _key(p: Sequence[float]) -> Tuple[float, ...]:
    return tuple(round(float(c), KEY_DECIMALS) for c in p)


@dataclass(frozen=True)
class MeshSpec:
    """Uniform grid on a closed box; nodes include both endpoints per axis.

    Node lookup: a point names the node whose coordinates agree with its
    own once both are rounded to 9 decimals on every axis.  The index is
    found arithmetically, ``rint((x - lo) / h)`` per axis, then checked
    against the box and that 9-decimal snap.  ``locate`` returns -1 for
    rows that name no node; a tabulated ``FunctionModel`` raises
    ``KeyError`` for such a point.
    """

    box: Box
    h: Tuple[float, ...]

    def __post_init__(self):
        if len(self.box) != len(self.h):
            raise ValueError("box / resolution length mismatch")
        for (lo, hi), step in zip(self.box, self.h):
            if step <= 0 or hi <= lo:
                raise ValueError("degenerate mesh axis")
            if self._axis_count(lo, hi, step) < 2:
                raise ValueError("mesh axis needs at least 2 nodes")

    @staticmethod
    def _axis_count(lo: float, hi: float, step: float) -> int:
        return int(round((hi - lo) / step)) + 1

    @cached_property
    def _counts(self) -> Tuple[int, ...]:
        return tuple(self._axis_count(lo, hi, step) for (lo, hi), step in zip(self.box, self.h))

    @staticmethod
    def line(lo: float, hi: float, h: float) -> "MeshSpec":
        return MeshSpec(box=((lo, hi),), h=(h,))

    @property
    def dim(self) -> int:
        return len(self.box)

    def axis_nodes(self, i: int) -> np.ndarray:
        lo, hi = self.box[i]
        n = self._axis_count(lo, hi, self.h[i])
        return lo + self.h[i] * np.arange(n)

    @property
    def node_count(self) -> int:
        out = 1
        for i in range(self.dim):
            out *= self._axis_count(*self.box[i], self.h[i])
        return out

    def nodes(self) -> np.ndarray:
        """All nodes as a (count, dim) array, C order over axes."""
        axes = [self.axis_nodes(i) for i in range(self.dim)]
        if self.dim == 1:
            return axes[0][:, None]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    def index_map(self) -> Dict[Tuple[float, ...], int]:
        """Snapped node coordinates -> flat index, as a dict."""
        return {_key(p): i for i, p in enumerate(self.nodes())}

    def node_index(self, x: Sequence[float]) -> int:
        """Flat index of the node that the point x names, or -1."""
        if len(x) != self.dim:
            return -1
        flat = 0
        for c, (lo, _), step, count in zip(x, self.box, self.h, self._counts):
            c = float(c)
            q = (c - lo) / step
            i = round(q) if math.isfinite(q) else -1
            if not 0 <= i < count:
                return -1
            if round(c, KEY_DECIMALS) != round(lo + step * i, KEY_DECIMALS):
                return -1
            flat = flat * count + i
        return flat

    def locate(self, points: np.ndarray) -> np.ndarray:
        """Flat node index of each row of a (m, dim) array; -1 where a row
        names no node.  The batch form of ``node_index``."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(f"points must have shape (m, {self.dim})")
        flat = np.zeros(len(pts), dtype=np.int64)
        ok = np.ones(len(pts), dtype=bool)
        for c, (lo, _), step, count in zip(pts.T, self.box, self.h, self._counts):
            with np.errstate(invalid="ignore"):
                q = np.rint((c - lo) / step)
            ok &= (q >= 0) & (q < count)
            i = np.where(ok, q, 0).astype(np.int64)
            ok &= np.round(c, KEY_DECIMALS) == np.round(lo + step * i, KEY_DECIMALS)
            flat = flat * count + i
        return np.where(ok, flat, -1)


class Variant(enum.Enum):
    ANALYTIC = "analytic"
    TABULATED = "tabulated"
    FINITE_EXCEPTION = "finite_exception"


# sparse exact point: sorted tuple of (coordinate index, Fraction value)
SparsePoint = Tuple[Tuple[int, Fraction], ...]


@dataclass
class FunctionModel:
    """Evaluator from points to extended reals over a declared box."""

    variant: Variant
    box: Box
    norm: Norm = EUCLIDEAN
    lipschitz_hint: Optional[float] = None
    name: str = ""
    # analytic
    fn: Optional[Callable[[Point], ExtReal]] = None
    # tabulated
    mesh: Optional[MeshSpec] = None
    values: Optional[np.ndarray] = None
    # finite exception
    default: ExtReal = 0
    exceptions: Dict[SparsePoint, ExtReal] = field(default_factory=dict)
    ambient_dim: int = 0

    @staticmethod
    def analytic(fn, box, norm=EUCLIDEAN, lipschitz_hint=None, name="") -> "FunctionModel":
        return FunctionModel(Variant.ANALYTIC, tuple(box), norm, lipschitz_hint, name, fn=fn)

    @staticmethod
    def tabulated(mesh: MeshSpec, values: np.ndarray, norm=EUCLIDEAN,
                  lipschitz_hint=None, name="") -> "FunctionModel":
        values = np.asarray(values, dtype=float)
        if values.shape != (mesh.node_count,):
            raise ValueError("values must align with mesh nodes")
        if np.isnan(values).any() or (values == -np.inf).any():
            raise ValueError("NaN / -inf are not extended-real values")
        return FunctionModel(Variant.TABULATED, mesh.box, norm, lipschitz_hint,
                             name, mesh=mesh, values=values)

    @staticmethod
    def finite_exception(default: ExtReal, exceptions: Dict[SparsePoint, ExtReal],
                         ambient_dim: int, box=(), norm=EUCLIDEAN, name="") -> "FunctionModel":
        return FunctionModel(Variant.FINITE_EXCEPTION, tuple(box), norm, None, name,
                             default=default, exceptions=dict(exceptions),
                             ambient_dim=ambient_dim)

    def __call__(self, x: Sequence[float]) -> ExtReal:
        if self.variant is Variant.ANALYTIC:
            return check(self.fn(tuple(x)))
        if self.variant is Variant.TABULATED:
            i = self.mesh.node_index(x)
            if i < 0:
                raise KeyError(f"off-node query {tuple(x)} on a tabulated model")
            return float(self.values[i])
        # finite exception: exact sparse lookup
        sp = tuple((i, Fraction(c)) for i, c in enumerate(x) if c != 0)
        return self.exceptions.get(sp, self.default)


def tabulate(f: FunctionModel, mesh: MeshSpec) -> FunctionModel:
    """Freeze an analytic model onto a mesh; tabulated models pass through."""
    if f.variant is Variant.TABULATED:
        if f.mesh is not None and f.mesh.box == mesh.box and f.mesh.h == mesh.h:
            return f
        raise ValueError("tabulated model bound to a different mesh")
    nodes = mesh.nodes()
    vals = np.array([float(f(tuple(p))) for p in nodes])
    return FunctionModel.tabulated(mesh, vals, norm=f.norm,
                                   lipschitz_hint=f.lipschitz_hint, name=f.name)


def values_on(f: FunctionModel, mesh: MeshSpec) -> np.ndarray:
    if f.variant is Variant.TABULATED:
        return tabulate(f, mesh).values
    return np.array([float(f(tuple(p))) for p in mesh.nodes()])


def sample_epigraph(f: FunctionModel, mesh: MeshSpec, cap: float,
                    alpha_step: float) -> PointSet:
    """Cloud {(x, a) : x node, a in {f(x), f(x)+step, ...} up to cap}."""
    if not math.isfinite(cap):
        raise ValueError("cap must be finite")
    if alpha_step <= 0:
        raise ValueError("alpha_step must be positive")
    pts = []
    vals = values_on(f, mesh)
    for p, v in zip(mesh.nodes(), vals):
        if not np.isfinite(v) or v > cap:
            continue
        a = v
        while a <= cap + SLACK:
            pts.append(tuple(p) + (min(a, cap),))
            a += alpha_step
    if not pts:
        raise ValueError("empty epigraph sample: function is +inf above cap on the box")
    return PointSet.of(pts, norm=BoxNorm(base=f.norm, base_dim=mesh.dim))


def sample_graph(f: FunctionModel, mesh: MeshSpec, cap: float) -> PointSet:
    pts = []
    vals = values_on(f, mesh)
    for p, v in zip(mesh.nodes(), vals):
        if np.isfinite(v) and v <= cap:
            pts.append(tuple(p) + (float(v),))
    if not pts:
        raise ValueError("empty graph sample")
    return PointSet.of(pts, norm=BoxNorm(base=f.norm, base_dim=mesh.dim))


def sample_hypograph(f: FunctionModel, mesh: MeshSpec, cap: float, floor: float,
                     alpha_step: float) -> PointSet:
    """Cloud between floor and min(f(x), cap); f(x)=+inf caps at `cap`."""
    if alpha_step <= 0:
        raise ValueError("alpha_step must be positive")
    pts = []
    vals = values_on(f, mesh)
    for p, v in zip(mesh.nodes(), vals):
        top = cap if not np.isfinite(v) else min(float(v), cap)
        a = top
        while a >= floor - SLACK:
            pts.append(tuple(p) + (max(a, floor),))
            a -= alpha_step
    if not pts:
        raise ValueError("empty hypograph sample")
    return PointSet.of(pts, norm=BoxNorm(base=f.norm, base_dim=mesh.dim))


def restrict(f: FunctionModel, S: Region) -> FunctionModel:
    """f_S = f + indicator of S."""
    def fn(x):
        return f(x) if S.contains(x) else INF
    return FunctionModel.analytic(fn, f.box, norm=f.norm, name=f"{f.name}|S")


def inf_over_region(f: FunctionModel, S: Region, mesh: MeshSpec) -> ExtReal:
    """Min of f over mesh nodes inside S; INF when no node qualifies.

    Ball membership is one vectorised distance test; other regions are
    asked node by node."""
    vals = values_on(f, mesh)
    nodes = mesh.nodes()
    if isinstance(S, Ball):
        inside = S.norm.pairwise(np.asarray([S.center], dtype=float), nodes)[0] <= S.radius
    else:
        inside = np.array([S.contains(tuple(p)) for p in nodes], dtype=bool)
    return float(vals[inside].min()) if inside.any() else INF


def inf_convolution(f: FunctionModel, g: FunctionModel, mesh: MeshSpec) -> FunctionModel:
    """(f ▽ g)(x) = min over mesh nodes z of f(z) + g(x - z), tabulated.

    g must be evaluable at node differences, so it is analytic (or defined
    on a mesh covering the difference set).
    """
    nodes = mesh.nodes()
    fv = values_on(f, mesh)
    out = np.empty(len(nodes))
    for i, x in enumerate(nodes):
        best = INF
        for z, vz in zip(nodes, fv):
            if not np.isfinite(vz):
                continue
            gv = g(tuple(np.asarray(x) - np.asarray(z)))
            total = vz + float(gv) if gv != INF else INF
            if total < best:
                best = total
        out[i] = best
    return FunctionModel.tabulated(mesh, out, norm=f.norm, name=f"{f.name}▽{g.name}")


def _ramp_pass(v: np.ndarray, slope: float) -> np.ndarray:
    """1-D envelope of v along its last axis, min over j of
    v_j + slope*|i - j|, for every line at once: with ramp_i = slope*i it
    is min(ramp + cummin(v - ramp), revcummin(v + ramp) - ramp, v)."""
    ramp = slope * np.arange(v.shape[-1])
    fwd = ramp + np.minimum.accumulate(v - ramp, axis=-1)
    bwd = np.minimum.accumulate((v + ramp)[..., ::-1], axis=-1)[..., ::-1] - ramp
    return np.minimum(np.minimum(fwd, bwd), v)


def _chessboard_envelope(v: np.ndarray, step: float) -> np.ndarray:
    """min over nodes (k, l) of v[k, l] + step*max(|i - k|, |j - l|) on a
    2-D grid.  The max norm on equal steps is the 8-neighbour path
    length, so two raster scans give it exactly: a 1-D pass along every
    row, then a forward and a backward scan in which each row takes step
    plus the least of its N, NW and NE neighbours (S, SW and SE on the way
    back) in the finished row before it.  The 1-D pass comes first, for
    all rows at once: a row that is step-Lipschitz along itself stays so
    under these updates, so no later row needs it again."""
    out = _ramp_pass(v, step)
    for grid in (out, out[::-1]):  # the backward scan runs on a reversed view
        for r in range(1, len(grid)):
            prev = grid[r - 1]
            near = prev.copy()
            np.minimum(near[1:], prev[:-1], out=near[1:])
            np.minimum(near[:-1], prev[1:], out=near[:-1])
            near += step
            np.minimum(grid[r], near, out=grid[r])
    return out


def pasch_hausdorff(f: FunctionModel, n: float, mesh: MeshSpec) -> FunctionModel:
    """Lipschitz envelope f_n(x) = min over nodes y of f(y) + n||y - x||.

    f_n <= f nodewise, and f_n is n-Lipschitz on node pairs.  The kernel
    depends on the norm and the mesh:

    - 1-D meshes (every norm) and the taxicab norm in any dimension: one
      1-D distance-transform pass per axis, min(ramp + cummin(f - ramp),
      revcummin(f + ramp) - ramp, f) with ramp_i = n*h*i.  Exact, since
      the l1 cone is separable; linear in the node count.
    - The max norm on a 2-D mesh with equal steps: two raster scans over
      the 8 neighbours (``_chessboard_envelope``), linear in the count.
    - Every other case (Euclidean in 2-D and up, unequal steps, the max
      norm in 3-D and up): brute force over node pairs, walked in row
      blocks under ``geometry.PAIRWISE_CELL_BUDGET`` cells.

    The linear kernels build n||y - x|| from n*h and index differences,
    the brute force from node coordinates, so the two differ by rounding,
    ~1e-12 at 20 001 nodes.  Every kernel keeps the exact bounds
    min f <= f_n <= f at every node (by the zero-distance term or a
    closing min with f, and a clamp at min f), so f_n equals f at the
    argmin of f bit for bit, as the true envelope does.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    fv = values_on(f, mesh)
    low = fv.min()
    if low == INF:
        raise ValueError("f is +inf on the whole mesh")
    if mesh.dim == 1 or f.norm.kind is NormKind.TAXICAB:
        out = fv.reshape(mesh._counts)
        for axis, step in enumerate(mesh.h):
            out = np.swapaxes(_ramp_pass(np.swapaxes(out, axis, -1), n * step), axis, -1)
        out = out.ravel()
    elif f.norm.kind is NormKind.MAX and mesh.dim == 2 and mesh.h[0] == mesh.h[1]:
        out = _chessboard_envelope(fv.reshape(mesh._counts), n * mesh.h[0]).ravel()
    else:
        nodes = mesh.nodes()
        out = np.empty(len(fv))
        for rows in _row_blocks(len(nodes), len(nodes)):
            out[rows] = (fv[None, :] + n * f.norm.pairwise(nodes[rows], nodes)).min(axis=1)
    # every kernel keeps f_n <= f; the ramp form can round below min f
    out = np.maximum(out, low)
    return FunctionModel.tabulated(mesh, out, norm=f.norm, lipschitz_hint=n,
                                   name=f"{f.name}▽{n}||.||")


def epi_hypo_gap_triple(f: FunctionModel, g: FunctionModel, mesh: MeshSpec,
                        cap: float, floor: float, alpha_step: float,
                        exact: bool = False):
    """(D(hypo g, epi f), D(hypo g, graph f), D(graph g, epi f)) in box norm.

    exact=True treats vertical extents analytically (segments instead of
    alpha ladders): the three distances then coincide by construction of
    the minimizing pairs.  exact=False samples the clouds and computes
    plain gap distances, which agree within O(h + alpha_step).
    """
    if exact:
        fv = values_on(f, mesh)
        gv = values_on(g, mesh)
        nodes = mesh.nodes()
        fx = fv[None, :]
        best = INF
        for rows in _row_blocks(len(nodes), len(nodes)):
            D = f.norm.pairwise(nodes[rows], nodes)  # rows: g-nodes y, cols: f-nodes x
            with np.errstate(invalid="ignore"):
                # g(y)=+inf: hypo is all of R there, no vertical gap
                vert = np.maximum(fx - gv[rows, None], 0.0)
            # f(x)=+inf: no epi/graph point at x
            dist = np.where(np.isposinf(fx), np.inf, np.maximum(D, vert))
            best = min(best, float(dist.min()))
        return best, best, best

    epi_f = sample_epigraph(f, mesh, cap, alpha_step)
    graph_f = sample_graph(f, mesh, cap)
    hypo_g = sample_hypograph(g, mesh, cap, floor, alpha_step)
    graph_g = sample_graph(g, mesh, cap)
    return (gap_distance(hypo_g, epi_f),
            gap_distance(hypo_g, graph_f),
            gap_distance(graph_g, epi_f))


def tilt(f: FunctionModel, xstar: Sequence[float]) -> FunctionModel:
    """x -> f(x) + <xstar, x>."""
    xs = tuple(float(c) for c in xstar)
    if f.variant is Variant.TABULATED:
        shift = f.mesh.nodes() @ np.asarray(xs)
        return FunctionModel.tabulated(f.mesh, f.values + shift, norm=f.norm,
                                       name=f"{f.name}+x*")

    def fn(x):
        v = f(x)
        if v == INF:
            return INF
        return v + sum(a * float(b) for a, b in zip(xs, x))

    return FunctionModel.analytic(fn, f.box, norm=f.norm, name=f"{f.name}+x*")
