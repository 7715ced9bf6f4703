"""Extended-real function models and the constructions applied to them:
epigraph/graph/hypograph sampling, restriction, infima over regions and
the Lipschitz (Pasch-Hausdorff) envelope f ▽ n||.||.

A model on a mesh is tabulated: it is its values at the mesh nodes, held
in a read-only array of its own, and it refuses an off-node query, so
that every "inf over X" is a finite reproducible minimum and
restriction, tilting and the envelope are array operations.
Finite-exception models (a default value plus finitely many exceptional
points) support exact rational evaluation and never touch a mesh.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

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
    another dimension.  A mesh caches its node counts and, on first use,
    its node array; each envelope pass builds its own ramp.
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
        """The model of ``values`` at the mesh nodes, C order.  It keeps its
        own read-only float copy, so a caller that writes into its array
        later changes neither the model nor anything built from it, and
        the node values of a tabulated model never change."""
        values = np.array(values, dtype=float)
        if values.shape != (mesh.node_count,):
            raise ValueError("values must align with mesh nodes")
        if not values.min() > -np.inf:  # one reduction: NaN propagates, -inf is least
            raise ValueError("NaN / -inf are not extended-real values")
        values.flags.writeable = False
        return FunctionModel(Variant.TABULATED, mesh.box, norm, lipschitz_hint,
                             name, mesh=mesh, values=values)

    @cached_property
    def _node_moves(self) -> List[Tuple[float, float]]:
        """The (largest move, h) pairs that ``_moves_within`` has measured
        so far, in its order; kept, as the node values never change."""
        return []

    def _moves_within(self, n: float, chessboard: bool) -> bool:
        """Whether the node values move by at most n*h between neighbours
        along each mesh axis, and on the chessboard also along both
        diagonals, h being the step of the first axis; compared in floats,
        so a +inf node (whose moves are +inf or NaN) fails.  Each largest
        move is measured on first demand, in that order, and kept in
        ``_node_moves``; the check stops at the first move out of reach."""
        moves = self._node_moves
        for k in range(self.mesh.dim + 2 * chessboard):
            if k == len(moves):
                moves.append(self._largest_move(k))
            move, step = moves[k]
            if not move <= n * step:
                return False
        return True

    def _largest_move(self, k: int) -> Tuple[float, float]:
        """(largest |difference| of the node values between neighbours, h)
        along mesh axis k, or for k = dim and dim + 1 along the two
        diagonals of a 2-D mesh, h being the step of the first axis."""
        v = self.values.reshape(self.mesh._counts)
        if k < self.mesh.dim:
            head = (slice(None),) * k
            ahead, behind = v[head + (slice(1, None),)], v[head + (slice(None, -1),)]
            step = self.mesh.h[k]
        else:
            ahead, behind = (v[1:, 1:], v[:-1, :-1]) if k == 2 else (v[1:, :-1], v[:-1, 1:])
            step = self.mesh.h[0]
        with np.errstate(invalid="ignore"):  # +inf - +inf
            diff = np.subtract(ahead, behind)
            return float(np.abs(diff, out=diff).max()), step

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


def _ramp_pass(v: np.ndarray, slope: float) -> np.ndarray:
    """1-D envelope of v along its last axis, min over j of
    v_j + slope*|i - j|, for every line at once: with ramp_i = slope*i it
    is min(ramp + cummin(v - ramp), revcummin(v + ramp) - ramp, v), one
    whole-line running minimum each way."""
    ramp = np.arange(v.shape[-1], dtype=float)
    ramp *= slope
    # the running minima (fmin, faster here than minimum) differ from
    # minimum.accumulate only at NaN, which tabulated values never hold, and
    # in which of -0.0 and 0.0 they keep:
    # v + ramp holds no -0.0, and past index 0 adding the positive ramp back
    # to cummin(v - ramp) erases the sign.  v itself is never written.
    fwd = np.subtract(v, ramp)
    np.fmin.accumulate(fwd, axis=-1, out=fwd)
    fwd += ramp
    bwd = np.add(v, ramp)
    back = bwd[..., ::-1]
    np.fmin.accumulate(back, axis=-1, out=back)
    bwd -= ramp
    np.minimum(fwd, bwd, out=fwd)
    return np.minimum(fwd, v, out=fwd)


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


def _chessboard(mesh: MeshSpec, norm: Norm) -> bool:
    """Whether the envelope runs the chessboard scans: the max norm on a
    2-D mesh of equal steps."""
    return mesh.dim == 2 and norm.kind is NormKind.MAX and mesh.h[0] == mesh.h[1]


def pasch_hausdorff(f: FunctionModel, n: float, mesh: MeshSpec) -> FunctionModel:
    """Lipschitz envelope f_n(x) = min over nodes y of f(y) + n||y - x||.

    f_n <= f nodewise, and f_n is n-Lipschitz on node pairs.  Where the
    linear kernels below apply and f moves by at most n*h between
    neighbouring nodes (along each axis, and on the chessboard also along
    both diagonals; compared in floats, so a +inf node fails), f is its
    own envelope: the result holds f's own read-only array, and no kernel
    runs.  Each largest move is measured once per model, in order and on
    the first envelope that reaches it (``FunctionModel._moves_within``,
    which stops at the first move out of reach), so a later n costs one
    comparison per axis.  The float comparison certifies each
    step within one subtraction's rounding, less than the ramps' own.
    Otherwise the kernel depends on the norm and the mesh, and the result
    holds its fresh array, made read-only:

    - 1-D meshes (every norm) and the taxicab norm in any dimension: one
      1-D distance-transform pass per axis, min(ramp + cummin(f - ramp),
      revcummin(f + ramp) - ramp, f) with ramp_i = n*h*i, each running
      minimum over whole lines (``_ramp_pass``).  Exact, since the l1 cone
      is separable; linear in the node count.
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
    name = f"{f.name}▽{n}||.||"
    # the linear kernels' path cost is n*h per step along an axis (and
    # along a diagonal on the chessboard); data that never moves by more
    # than that from one node to the next is its own envelope.  A move
    # within reach is finite, so such data is finite at every node.
    chessboard = _chessboard(mesh, f.norm)
    if ((mesh.dim == 1 or f.norm.kind is NormKind.TAXICAB or chessboard)
            and f._moves_within(n, chessboard)):
        return FunctionModel(Variant.TABULATED, mesh.box, f.norm, n, name,
                             mesh=mesh, values=fv)
    low = fv.min()
    if low == INF:
        raise ValueError("f is +inf on the whole mesh")
    if mesh.dim == 1:
        out = _ramp_pass(fv, n * mesh.h[0])
    elif f.norm.kind is NormKind.TAXICAB:
        out = fv.reshape(mesh._counts)
        for axis, step in enumerate(mesh.h):
            out = np.swapaxes(_ramp_pass(np.swapaxes(out, axis, -1), n * step), axis, -1)
        out = out.ravel()
    elif chessboard:
        out = _chessboard_envelope(fv.reshape(mesh._counts), n * mesh.h[0]).ravel()
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
    # and its copy
    out.flags.writeable = False
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
