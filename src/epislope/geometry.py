"""Norms, point sets, distances and gap distances.

Points are plain tuples of numbers (floats, or exact Fractions on the
exact code paths).  A ``PointSet`` is a finite sample of float points held
as one (n, dim) array; every infimum over a set is a genuine minimum over
its points, with the empty-set convention ``inf over {} = INF``.

Reductions over all point pairs (gap distances, distances to the nearest
target, brute-force envelopes, the exact gap triple) never build the
whole distance matrix: ``pairwise_blocks`` walks it in row blocks of at
most ``PAIRWISE_CELL_BUDGET`` = 2^16 cells.  A block is built one
coordinate at a time into an accumulator, with one scratch array for the
coordinate being folded in, and never as an (n, m, d) difference array.
The walk allocates both arrays once and writes every block into their
leading rows, so a reduction touches 2 x 512 KiB of memory however many
blocks it takes: small enough to stay in one core's L2 cache, and no block
allocates or faults in fresh pages.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from .extreal import INF, ExtReal

Point = Tuple[float, ...]

# Most cells (row x column distances) of one pairwise block: 512 KiB of
# float64 distances, plus one scratch block of the same size for the
# coordinate being folded in.  The two fit in one core's L2 cache (2 MiB on
# the x86 hosts measured), and a walk reuses them for every block.
PAIRWISE_CELL_BUDGET = 1 << 16


def _row_blocks(rows: int, cols: int) -> Iterator[slice]:
    """Row slices of a rows x cols pairwise matrix, each at most
    PAIRWISE_CELL_BUDGET cells; a row longer than that is a block alone."""
    step = max(1, PAIRWISE_CELL_BUDGET // max(cols, 1))
    for start in range(0, rows, step):
        yield slice(start, min(start + step, rows))


class NormKind(enum.Enum):
    EUCLIDEAN = "euclidean"
    MAX = "max"
    TAXICAB = "taxicab"


def _check_widths(A: np.ndarray, B: np.ndarray) -> None:
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"points of dimension {A.shape[1]} measured against "
                         f"points of dimension {B.shape[1]}")


def _pairwise(kind: NormKind, A: np.ndarray, B: np.ndarray, head: int,
              out: Optional[np.ndarray] = None,
              scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """Distances between rows of A (n,d) and B (m,d): the ``kind`` norm of
    the first ``head`` coordinates, max-ed with the max-abs of the rest.

    Built one coordinate at a time, in ascending order, into one (n, m)
    accumulator: the per-coordinate difference is squared or made absolute
    in place and folded in by ``+=`` or a running maximum.  The sums run
    in ascending coordinate order, the order ``sum(axis=2)`` takes over a
    short trailing axis, so the distances equal the (n, m, d) broadcast
    formula bit for bit; at most two (n, m) arrays are alive.  Given
    ``out`` and ``scratch``, (n, m) float64 arrays, the accumulator is
    ``out`` and the coordinates after the first are taken in ``scratch``:
    nothing is allocated.  Rows of different widths are refused."""
    _check_widths(A, B)
    euclidean = kind is NormKind.EUCLIDEAN
    acc = None
    tmp = out  # the first coordinate's block becomes the accumulator
    if not head:
        acc = np.empty((len(A), len(B))) if out is None else out
        acc.fill(0.0)
        tmp = scratch
    for k in range(head):
        c = np.subtract.outer(A[:, k], B[:, k], out=tmp)
        if euclidean:
            np.multiply(c, c, out=c)
        else:
            np.abs(c, out=c)
        if acc is None:
            acc = c
            tmp = scratch
            continue
        if kind is NormKind.MAX:
            np.maximum(acc, c, out=acc)
        else:
            acc += c
        tmp = c  # one scratch block, reused by every later coordinate
    if euclidean:
        np.sqrt(acc, out=acc)
    for k in range(head, A.shape[1]):
        tmp = np.subtract.outer(A[:, k], B[:, k], out=tmp)
        np.maximum(acc, np.abs(tmp, out=tmp), out=acc)
    return acc


@dataclass(frozen=True)
class Norm:
    kind: NormKind = NormKind.EUCLIDEAN

    def __call__(self, v: Sequence[float]) -> float:
        if self.kind is NormKind.EUCLIDEAN:
            return math.sqrt(sum(float(c) * float(c) for c in v))
        if self.kind is NormKind.MAX:
            return max((abs(float(c)) for c in v), default=0.0)
        return sum(abs(float(c)) for c in v)

    def dist(self, p: Sequence[float], q: Sequence[float]) -> float:
        return self([a - b for a, b in zip(p, q)])

    def pairwise(self, A: np.ndarray, B: np.ndarray, out: Optional[np.ndarray] = None,
                 scratch: Optional[np.ndarray] = None) -> np.ndarray:
        """Distance matrix between rows of A (n,d) and B (m,d), written into
        ``out`` when given (``scratch`` as in ``_pairwise``)."""
        return _pairwise(self.kind, A, B, A.shape[1], out, scratch)


@dataclass(frozen=True)
class BoxNorm:
    """Norm on a product X x R^extra: max of the base norm on the first
    ``base_dim`` coordinates and the max-abs of the remaining ones."""

    base: Norm
    base_dim: int

    def __call__(self, v: Sequence[float]) -> float:
        head = self.base(v[: self.base_dim])
        tail = max((abs(float(c)) for c in v[self.base_dim:]), default=0.0)
        return max(head, tail)

    def dist(self, p: Sequence[float], q: Sequence[float]) -> float:
        return self([a - b for a, b in zip(p, q)])

    def pairwise(self, A: np.ndarray, B: np.ndarray, out: Optional[np.ndarray] = None,
                 scratch: Optional[np.ndarray] = None) -> np.ndarray:
        return _pairwise(self.base.kind, A, B, self.base_dim, out, scratch)


EUCLIDEAN = Norm(NormKind.EUCLIDEAN)
MAX = Norm(NormKind.MAX)
TAXICAB = Norm(NormKind.TAXICAB)


@dataclass(frozen=True, eq=False)
class PointSet:
    """A finite set of points sharing a dimension and a norm, held as one
    (n, dim) float64 array, one row per point, which construction makes
    read-only.  Possibly empty.

    ``points``, the rows as tuples, is derived from the array on first use
    and cached; the distances read the array alone.  The array costs 8 B
    per coordinate, 16 B per point of a 1-D sampled cloud, where a tuple of
    two floats costs about 128 B.
    """

    array: np.ndarray
    norm: object = EUCLIDEAN  # Norm or BoxNorm

    def __post_init__(self):
        self.array.flags.writeable = False

    @staticmethod
    def of(points: Iterable[Sequence[float]], norm=EUCLIDEAN, dim: Optional[int] = None) -> "PointSet":
        """The set of arbitrary points: duplicates are dropped, the first
        of each kept in order."""
        pts = tuple(dict.fromkeys(map(tuple, points)))
        if pts:
            d = len(pts[0])
            if any(len(p) != d for p in pts):
                raise ValueError("points of mixed dimension")
            if dim is not None and dim != d:
                raise ValueError(f"declared dim {dim} != point dim {d}")
            dim = d
        elif dim is None:
            raise ValueError("empty point set needs an explicit dim")
        return PointSet(np.array(pts, dtype=float).reshape(len(pts), dim), norm)

    @property
    def dim(self) -> int:
        return self.array.shape[1]

    def __len__(self) -> int:
        return len(self.array)

    @cached_property
    def points(self) -> Tuple[Point, ...]:
        return tuple(map(tuple, self.array.tolist()))


def point_set_distance(x: Sequence[float], S: PointSet) -> ExtReal:
    """d(x, S) = min over a in S of ||x - a||; INF if S is empty."""
    if len(x) != S.dim:
        raise ValueError(f"point dim {len(x)} != set dim {S.dim}")
    if not len(S):
        return INF
    xa = np.asarray([x], dtype=float)
    return float(S.norm.pairwise(xa, S.array).min())


def pairwise_blocks(norm, A: np.ndarray, B: np.ndarray
                    ) -> Iterator[Tuple[slice, np.ndarray, np.ndarray]]:
    """Walk the distance matrix between rows of A (n,d) and B (m,d) in
    ``norm`` in row blocks of at most PAIRWISE_CELL_BUDGET cells (a row
    longer than that is a block alone): yield (rows, D, spare), D the
    distances from A[rows] to every row of B and spare a free array of D's
    shape.

    Both are leading-row views of two buffers allocated once for the walk,
    so each block overwrites the last: a consumer reduces D, in place if it
    likes, before it asks for the next.  Every cell is computed once, as by
    ``norm.pairwise(A, B)``, so any reduction by minima is that of the whole
    matrix bit for bit.  Rows of different widths are refused before any
    buffer is allocated."""
    _check_widths(A, B)
    out = scratch = None
    for rows in _row_blocks(len(A), len(B)):
        count = rows.stop - rows.start
        if out is None:  # the first block is the tallest
            out, scratch = np.empty((count, len(B))), np.empty((count, len(B)))
        spare = scratch[:count]
        yield rows, norm.pairwise(A[rows], B, out=out[:count], scratch=spare), spare


def gap_distance(A: PointSet, B: PointSet) -> ExtReal:
    """D(A, B) = min pairwise distance; INF if either set is empty.

    Brute force over all pairs in every norm, walked in row blocks of A by
    ``pairwise_blocks``: memory stays bounded whatever the cloud sizes, and
    the result is the dense minimum bit for bit.
    """
    if A.dim != B.dim:
        raise ValueError(f"dim mismatch {A.dim} != {B.dim}")
    if A.norm != B.norm:
        raise ValueError("norm mismatch between sets")
    if not len(A) or not len(B):
        return INF
    return min(float(D.min()) for _, D, _ in pairwise_blocks(A.norm, A.array, B.array))


def _nearest(nodes: np.ndarray, targets: np.ndarray, norm: Norm) -> np.ndarray:
    """Distance in ``norm`` from every node to its nearest target, in row
    blocks."""
    out = np.empty(len(nodes))
    for rows, D, _ in pairwise_blocks(norm, nodes, targets):
        D.min(axis=1, out=out[rows])
    return out
