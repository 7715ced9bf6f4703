"""Extended-real function models and the constructions applied to them:
epigraph/graph/hypograph sampling, restriction, infima over regions and
the Lipschitz (Pasch-Hausdorff) envelope f ▽ n||.||.

A model on a mesh is tabulated: it is its values at the mesh nodes, and
it refuses an off-node query, so that every "inf over X" is a finite
reproducible minimum and restriction, tilting and the envelope are array
operations.  Finite-exception models (a default value plus finitely many
exceptional points) support exact rational evaluation and never touch a
mesh.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .extreal import INF, ExtReal
from .geometry import (BoxNorm, EUCLIDEAN, Norm, NormKind, PointSet, gap_distance,
                       pairwise_blocks)
from .regions import Region
from .verdict import KEY_DECIMALS, SLACK, InvariantError

Box = Tuple[Tuple[float, float], ...]


@dataclass(frozen=True)
class MeshSpec:
    """Uniform grid on a closed box; nodes include both endpoints per axis.

    Node lookup: a point names the node whose coordinates agree with its
    own once both are rounded to 9 decimals on every axis.  The index is
    found arithmetically, ``rint((x - lo) / h)`` per axis, then checked
    against the box and that 9-decimal snap.  ``node_index`` returns -1
    for a point that names no node; a tabulated ``FunctionModel`` raises
    ``KeyError`` for such a point, and ``ValueError`` for a point of
    another dimension.
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
        return self.box[i][0] + self.h[i] * np.arange(self._counts[i])

    @property
    def node_count(self) -> int:
        return math.prod(self._counts)

    @cached_property
    def _node_array(self) -> np.ndarray:
        grids = np.meshgrid(*(self.axis_nodes(i) for i in range(self.dim)), indexing="ij")
        out = np.stack([g.ravel() for g in grids], axis=1)
        out.flags.writeable = False
        return out

    @cached_property
    def _axis_index(self) -> Tuple[np.ndarray, ...]:
        """0.0, 1.0, ..., count - 1 as one read-only float array per axis,
        built on first use: the ramps of the linear envelopes scale them."""
        out = tuple(np.arange(count, dtype=float) for count in self._counts)
        for index in out:
            index.flags.writeable = False
        return out

    def nodes(self) -> np.ndarray:
        """All nodes as a (count, dim) array, C order over axes.

        The array is built on the first call and shared by every later
        one; it is read-only, so a caller that needs to write copies it."""
        return self._node_array

    def index_map(self) -> Dict[Tuple[float, ...], int]:
        """Snapped node coordinates -> flat index, as a dict."""
        return {tuple(round(float(c), KEY_DECIMALS) for c in p): i
                for i, p in enumerate(self.nodes())}

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


class Variant(enum.Enum):
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
    # tabulated
    mesh: Optional[MeshSpec] = None
    values: Optional[np.ndarray] = None
    # finite exception
    default: ExtReal = 0
    exceptions: Dict[SparsePoint, ExtReal] = field(default_factory=dict)

    @staticmethod
    def tabulated(mesh: MeshSpec, values: np.ndarray, norm=EUCLIDEAN,
                  lipschitz_hint=None, name="") -> "FunctionModel":
        values = np.asarray(values, dtype=float)
        if values.shape != (mesh.node_count,):
            raise ValueError("values must align with mesh nodes")
        if not (values > -np.inf).all():  # one pass: False at NaN and at -inf
            raise ValueError("NaN / -inf are not extended-real values")
        return FunctionModel(Variant.TABULATED, mesh.box, norm, lipschitz_hint,
                             name, mesh=mesh, values=values)

    @staticmethod
    def finite_exception(default: ExtReal, exceptions: Dict[SparsePoint, ExtReal],
                         box=(), norm=EUCLIDEAN, name="") -> "FunctionModel":
        return FunctionModel(Variant.FINITE_EXCEPTION, tuple(box), norm, None, name,
                             default=default, exceptions=dict(exceptions))

    def __call__(self, x: Sequence[float]) -> ExtReal:
        if self.variant is Variant.TABULATED:
            if len(x) != self.mesh.dim:
                raise ValueError(f"query {tuple(x)} has dimension {len(x)}, "
                                 f"the model's mesh {self.mesh.dim}")
            i = self.mesh.node_index(x)
            if i < 0:
                raise KeyError(f"off-node query {tuple(x)} on a tabulated model")
            return float(self.values[i])
        # finite exception: exact sparse lookup
        sp = tuple((i, Fraction(c)) for i, c in enumerate(x) if c != 0)
        return self.exceptions.get(sp, self.default)


def tabulate(f: FunctionModel, mesh: MeshSpec) -> FunctionModel:
    """f itself, when it is tabulated on ``mesh``; a model tabulated on
    another mesh, and a finite-exception model, are refused."""
    if f.variant is not Variant.TABULATED:
        raise ValueError("a finite-exception model has no mesh values")
    if f.mesh != mesh:
        raise ValueError("tabulated model bound to a different mesh")
    return f


def values_on(f: FunctionModel, mesh: MeshSpec) -> np.ndarray:
    """f at every mesh node, C order, as tabulated by ``tabulate``."""
    return tabulate(f, mesh).values


def _check_rung_step(alpha_step: float, *ends: float) -> None:
    """Refuse a ladder step that cannot move a rung between ``ends``: at or
    below the float spacing there, ``a += alpha_step`` leaves ``a`` as it is."""
    spacing = math.ulp(max(abs(e) for e in ends))
    if not alpha_step > spacing:  # also refuses NaN
        raise ValueError(f"alpha_step must exceed {spacing!r}, the float spacing "
                         f"of the ladder, got {alpha_step!r}")


# Most points of one sampled cloud.  A gap distance walks the pairs of two
# clouds in row blocks, so this caps the points kept, not a block's cells.
CLOUD_POINT_CAP = 1 << 20


def _check_cloud_size(spans: np.ndarray, alpha_step: float) -> None:
    """Refuse, before any point is made, a cloud whose ladders (one per
    node, one rung per ``alpha_step`` over each nonnegative span) would
    hold more than ``CLOUD_POINT_CAP`` points."""
    spans = spans[spans >= 0]
    count = float(np.floor(spans / alpha_step).sum()) + spans.size
    if count > CLOUD_POINT_CAP:
        raise ValueError(f"the sample would hold about {count:.0f} points, above the "
                         f"budget of {CLOUD_POINT_CAP}; raise alpha_step")


def _ladder_cloud(nodes: np.ndarray, starts: np.ndarray, step: float, end: float,
                  clamp: float, norm: BoxNorm) -> PointSet:
    """The cloud of one vertical ladder per node: the rungs start,
    start + step, ... (``step`` < 0 walks down) up to the last one not past
    ``end``, each clamped to ``clamp``; a ladder's clamped rungs that equal
    the rung before them are dropped, so its points are distinct.  Every
    start must be a rung, not past ``end``.  Rows are (node, rung), ladder
    by ladder in node order.

    A ladder is one ``np.add.accumulate`` over [start, step, step, ...],
    which adds in order, so each rung is that of the loop ``a += step``
    bit for bit.  Its length is bounded before it is built: each sum
    rounds by at most half an ulp of the largest magnitude the rungs
    reach, so a ladder moves at least |step| less than half ulp per rung,
    and a ladder that does not pass ``end`` within its bound is an
    ``InvariantError``.  Ladders whose bounds share a power of two are
    built together as one rectangle, ladders x their longest bound: a
    rectangle holds at most twice its ladders' bounded rungs, so no
    nodes x longest-ladder rectangle is ever built and memory stays
    O(points + nodes)."""
    rising = step > 0
    reach = max(float(np.abs(starts).max()), abs(end)) + abs(step)
    rungs = np.subtract(end, starts)  # each ladder's bound, in place
    np.abs(rungs, out=rungs)
    rungs /= abs(step) - math.ulp(reach) / 2
    np.floor(rungs, out=rungs)
    rungs += 3  # a rung for the floor, one for the float division, one past end
    group = np.frexp(rungs)[1]
    counts = np.empty(len(starts), dtype=np.intp)
    pieces = []
    for g in np.unique(group):
        rows = np.flatnonzero(group == g)
        block = np.full((len(rows), int(rungs[rows].max())), step)
        block[:, 0] = starts[rows]
        np.add.accumulate(block, axis=1, out=block)
        keep = block <= end if rising else block >= end
        if keep[:, -1].any():
            raise InvariantError("a ladder outran its bounded length")
        np.copyto(block, clamp, where=block > clamp if rising else block < clamp)
        keep[:, 1:] &= block[:, 1:] != block[:, :-1]
        counts[rows] = keep.sum(axis=1)
        pieces.append((g, block[keep]))
    cloud = np.empty((int(counts.sum()), nodes.shape[1] + 1))
    cloud[:, :-1] = np.repeat(nodes, counts, axis=0)
    # a group's ladders lie in the cloud in node order, as in its piece
    owner = np.repeat(group, counts)
    for g, heights in pieces:
        cloud[owner == g, -1] = heights
    return PointSet(cloud, norm)


def sample_epigraph(f: FunctionModel, mesh: MeshSpec, cap: float,
                    alpha_step: float) -> PointSet:
    """Cloud {(x, a) : x node, a in {f(x), f(x)+step, ...} up to cap}: one
    ladder per node with f(x) <= cap, its rungs running to cap + SLACK and
    clamped to cap."""
    if not math.isfinite(cap):
        raise ValueError("cap must be finite")
    vals = values_on(f, mesh)
    # the rungs run from the least value up to cap + SLACK
    _check_rung_step(alpha_step, min(float(vals.min()), cap), cap + SLACK)
    inside = vals <= cap  # +inf is above the finite cap
    _check_cloud_size(cap + SLACK - vals[inside], alpha_step)
    if not inside.any():
        raise ValueError("empty epigraph sample: function is +inf above cap on the box")
    return _ladder_cloud(mesh.nodes()[inside], vals[inside], alpha_step, cap + SLACK, cap,
                         BoxNorm(base=f.norm, base_dim=mesh.dim))


def sample_graph(f: FunctionModel, mesh: MeshSpec, cap: float) -> PointSet:
    vals = values_on(f, mesh)
    inside = np.isfinite(vals) & (vals <= cap)
    if not inside.any():
        raise ValueError("empty graph sample")
    return PointSet(np.column_stack((mesh.nodes()[inside], vals[inside])),
                    BoxNorm(base=f.norm, base_dim=mesh.dim))


def sample_hypograph(f: FunctionModel, mesh: MeshSpec, cap: float, floor: float,
                     alpha_step: float) -> PointSet:
    """Cloud between floor and min(f(x), cap); f(x)=+inf caps at `cap`: one
    ladder per node down from its top to floor - SLACK, clamped to floor."""
    if not (math.isfinite(cap) and math.isfinite(floor)):
        raise ValueError("cap and floor must be finite")
    _check_rung_step(alpha_step, cap, floor - SLACK)  # the rungs' two ends
    vals = values_on(f, mesh)
    _check_cloud_size(np.minimum(vals, cap) - (floor - SLACK), alpha_step)
    tops = np.where(vals > cap, cap, vals)
    inside = tops >= floor - SLACK
    if not inside.any():
        raise ValueError("empty hypograph sample")
    return _ladder_cloud(mesh.nodes()[inside], tops[inside], -alpha_step, floor - SLACK,
                         floor, BoxNorm(base=f.norm, base_dim=mesh.dim))


def restrict(f: FunctionModel, S: Region) -> FunctionModel:
    """f_S = f + indicator of S: f at the nodes in S (``S.members``), +inf
    elsewhere."""
    vals = values_on(f, f.mesh)
    return FunctionModel.tabulated(f.mesh, np.where(S.members(f.mesh.nodes()), vals, INF),
                                   norm=f.norm, name=f"{f.name}|S")


def inf_over_region(f: FunctionModel, S: Region, mesh: MeshSpec) -> ExtReal:
    """Min of f over the mesh nodes in S (``S.members``); INF when no node
    qualifies."""
    vals = values_on(f, mesh)
    inside = S.members(mesh.nodes())
    return float(vals[inside].min()) if inside.any() else INF


def _scan_min(a: np.ndarray, backward: bool = False) -> None:
    """Running minimum of every line of ``a`` along its last axis, in place;
    from the end of each line to its start when ``backward`` is set.  A
    line is nonincreasing in the scan direction up to its first rise, so it
    is its own running minimum there: the scan starts at the least first
    rise over all lines, and lines that never rise cost no scan.  The rises
    are found on ``a`` as laid out (a backward rise is a[..., j] >
    a[..., j+1], the last such j the first one met), so a backward scan
    reads no reversed view until its tail.  Only the sign of a zero can
    differ from a full scan, at an equal -0.0, 0.0 pair, and ``_ramp_pass``
    erases it."""
    rises = a[..., :-1] > a[..., 1:] if backward else a[..., 1:] > a[..., :-1]
    if rises.ndim > 1:
        rises = rises.any(axis=tuple(range(rises.ndim - 1)))
    if not rises.any():
        return
    if backward:
        tail = a[..., len(rises) - int(rises[::-1].argmax())::-1]
    else:
        tail = a[..., int(rises.argmax()):]
    np.fmin.accumulate(tail, axis=-1, out=tail)


def _ramp_pass(v: np.ndarray, slope: float, index: np.ndarray) -> np.ndarray:
    """1-D envelope of v along its last axis, min over j of
    v_j + slope*|i - j|, for every line at once: with ramp_i = slope*i it
    is min(ramp + cummin(v - ramp), revcummin(v + ramp) - ramp, v), the
    ramp scaled from ``index``, the floats 0, 1, ... of that axis
    (``MeshSpec._axis_index``).  Each running minimum starts at the first
    rise (``_scan_min``), so a slope above the Lipschitz constant of every
    line costs no scan at all."""
    ramp = np.multiply(index, slope)
    # the running minima (fmin, faster here than minimum, and trimmed) differ
    # from minimum.accumulate only at NaN, which tabulated values never hold,
    # and in which of -0.0 and 0.0 they keep:
    # v + ramp holds no -0.0, and past index 0 adding the positive ramp back
    # to cummin(v - ramp) erases the sign.  v itself is never written.
    fwd = np.subtract(v, ramp)
    _scan_min(fwd)
    fwd += ramp
    bwd = np.add(v, ramp)
    _scan_min(bwd, backward=True)
    bwd -= ramp
    np.minimum(fwd, bwd, out=fwd)
    return np.minimum(fwd, v, out=fwd)


def _chessboard_envelope(v: np.ndarray, step: float, index: np.ndarray) -> np.ndarray:
    """min over nodes (k, l) of v[k, l] + step*max(|i - k|, |j - l|) on a
    2-D grid.  The max norm on equal steps is the 8-neighbour path
    length, so two raster scans give it exactly: a 1-D pass along every
    row, then a forward and a backward scan in which each row takes step
    plus the least of its N, NW and NE neighbours (S, SW and SE on the way
    back) in the finished row before it.  The 1-D pass comes first, for
    all rows at once: a row that is step-Lipschitz along itself stays so
    under these updates, so no later row needs it again."""
    out = _ramp_pass(v, step, index)
    for grid in (out, out[::-1]):  # the backward scan runs on a reversed view
        for r in range(1, len(grid)):
            prev = grid[r - 1]
            near = prev.copy()
            np.minimum(near[1:], prev[:-1], out=near[1:])
            np.minimum(near[:-1], prev[1:], out=near[:-1])
            near += step
            np.minimum(grid[r], near, out=grid[r])
    return out


def _moves_within(v: np.ndarray, steps: Sequence[float], diagonals: bool) -> bool:
    """Whether v moves by at most ``steps[k]`` between neighbours along
    each axis k, and with ``diagonals`` (a 2-D v of equal steps) also
    between diagonal neighbours, in float differences.  A +inf node fails
    by itself: its differences are +inf or NaN, and NaN compares false."""
    pairs = []
    for axis, step in enumerate(steps):
        head = (slice(None),) * axis
        pairs.append((v[head + (slice(1, None),)], v[head + (slice(None, -1),)], step))
    if diagonals:
        pairs += [(v[1:, 1:], v[:-1, :-1], steps[0]), (v[1:, :-1], v[:-1, 1:], steps[0])]
    with np.errstate(invalid="ignore"):  # +inf - +inf
        for ahead, behind, step in pairs:
            moves = np.subtract(ahead, behind)
            # in place: a second fresh array costs more than the test
            if not np.abs(moves, out=moves).max() <= step:
                return False
    return True


def pasch_hausdorff(f: FunctionModel, n: float, mesh: MeshSpec) -> FunctionModel:
    """Lipschitz envelope f_n(x) = min over nodes y of f(y) + n||y - x||.

    f_n <= f nodewise, and f_n is n-Lipschitz on node pairs.  Where the
    linear kernels below apply and f moves by at most n*h between
    neighbouring nodes (along each axis, and on the chessboard also along
    both diagonals; compared in floats, so a +inf node fails), f is its
    own envelope: it comes back as a fresh copy of its values, bit for
    bit, and no kernel runs.  The float comparison certifies each step
    within one subtraction's rounding, less than the ramps' own.
    Otherwise the kernel depends on the norm and the mesh:

    - 1-D meshes (every norm) and the taxicab norm in any dimension: one
      1-D distance-transform pass per axis, min(ramp + cummin(f - ramp),
      revcummin(f + ramp) - ramp, f) with ramp_i = n*h*i, scaled from the
      mesh's float index of the axis (built on the first envelope, then
      shared).  Exact, since the l1 cone is separable; linear in the node
      count.  Each running minimum starts at the first rise over the lines
      of the pass, so lines that never rise cost no scan.
    - The max norm on a 2-D mesh with equal steps: two raster scans over
      the 8 neighbours (``_chessboard_envelope``), linear in the count.
    - Every other case (Euclidean in 2-D and up, unequal steps, the max
      norm in 3-D and up): brute force over node pairs, walked in row
      blocks by ``geometry.pairwise_blocks``.

    The linear kernels build n||y - x|| from n*h and index differences,
    the brute force from node coordinates, so the two differ by rounding,
    ~1e-12 at 20 001 nodes.  Every kernel keeps the exact bounds
    min f <= f_n <= f at every node (by the zero-distance term or a
    closing min with f, and a clamp at min f), so f_n equals f at the
    argmin of f bit for bit, as the true envelope does.
    """
    if not 0 < n < math.inf:  # an infinite or NaN n makes NaN envelopes
        raise ValueError(f"n must be positive and finite, got {n!r}")
    fv = values_on(f, mesh)
    low = fv.min()
    if low == INF:
        raise ValueError("f is +inf on the whole mesh")
    name = f"{f.name}▽{n}||.||"
    # the linear kernels' path cost is n*h per step along an axis (and
    # along a diagonal on the chessboard); data that never moves by more
    # than that from one node to the next is its own envelope
    chessboard = (mesh.dim == 2 and f.norm.kind is NormKind.MAX
                  and mesh.h[0] == mesh.h[1])
    if ((mesh.dim == 1 or f.norm.kind is NormKind.TAXICAB or chessboard)
            and _moves_within(fv.reshape(mesh._counts), [n * step for step in mesh.h],
                              chessboard)):
        return FunctionModel(Variant.TABULATED, mesh.box, f.norm, n, name,
                             mesh=mesh, values=fv.copy())
    if mesh.dim == 1:
        out = _ramp_pass(fv, n * mesh.h[0], mesh._axis_index[0])
    elif f.norm.kind is NormKind.TAXICAB:
        out = fv.reshape(mesh._counts)
        for axis, (step, index) in enumerate(zip(mesh.h, mesh._axis_index)):
            out = np.swapaxes(_ramp_pass(np.swapaxes(out, axis, -1), n * step, index),
                              axis, -1)
        out = out.ravel()
    elif chessboard:
        out = _chessboard_envelope(fv.reshape(mesh._counts), n * mesh.h[0],
                                   mesh._axis_index[1]).ravel()
    else:
        nodes = mesh.nodes()
        out = np.empty(len(fv))
        for rows, D, _ in pairwise_blocks(f.norm, nodes, nodes):
            D *= n
            D += fv  # f(y) + n||y - x||, in place on the distance block
            D.min(axis=1, out=out[rows])
    # every kernel keeps f_n <= f; the ramp form can round below min f
    np.maximum(out, low, out=out)
    # min f is finite and n too, so out holds no NaN or -inf: the model is
    # built as ``FunctionModel.tabulated`` would build it, without its scan
    return FunctionModel(Variant.TABULATED, mesh.box, f.norm, n, name, mesh=mesh, values=out)


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
        f_inf = np.isposinf(fv)
        best = INF
        # rows: g-nodes y, cols: f-nodes x
        for rows, D, vert in pairwise_blocks(f.norm, nodes, nodes):
            with np.errstate(invalid="ignore"):
                # g(y)=+inf: hypo is all of R there, no vertical gap
                np.subtract(fv, gv[rows, None], out=vert)
                np.maximum(vert, 0.0, out=vert)
            np.maximum(D, vert, out=D)
            # f(x)=+inf: no epi/graph point at x (also clears inf - inf NaNs)
            D[:, f_inf] = np.inf
            best = min(best, float(D.min()))
        return best, best, best

    epi_f = sample_epigraph(f, mesh, cap, alpha_step)
    graph_f = sample_graph(f, mesh, cap)
    hypo_g = sample_hypograph(g, mesh, cap, floor, alpha_step)
    graph_g = sample_graph(g, mesh, cap)
    return (gap_distance(hypo_g, epi_f),
            gap_distance(hypo_g, graph_f),
            gap_distance(graph_g, epi_f))


def tilt(f: FunctionModel, xstar: Sequence[float]) -> FunctionModel:
    """x -> f(x) + <xstar, x> at every node; an x* of another dimension
    than the model's box is refused."""
    vals = values_on(f, f.mesh)
    xs = np.asarray(xstar, dtype=float)
    if len(xs) != len(f.box):
        raise ValueError(f"x* has dimension {len(xs)}, the model's box {len(f.box)}")
    return FunctionModel.tabulated(f.mesh, vals + f.mesh.nodes() @ xs, norm=f.norm,
                                   name=f"{f.name}+x*")
