"""Regions: the sets S that functions are restricted to or penalized by.

A region answers exact membership of a point (``contains``) and, on an
(N, dim) array of mesh nodes, membership of every node (``members``) and
the distance d_S of every node in a given norm (``distances``).  These two
are the only mesh geometry of regions.  By default d_S is the distance to
the nodes the region contains; a ball in the measuring norm (or on a line,
where every norm is one), the whole space and a finite point set measure
in closed form or to their own points.  Either way d_S is 0 exactly at
the members (max(0, d - r) is 0 iff d <= r), so a caller that measured d_S
reads them as ``dist == 0.0``, a Euclidean underflow to 0 aside.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from .geometry import EUCLIDEAN, Norm, PointSet, _nearest


class Region:
    def contains(self, x: Sequence[float]) -> bool:
        raise NotImplementedError

    def members(self, nodes: np.ndarray) -> np.ndarray:
        """Boolean mask of the rows of ``nodes`` that lie in the region."""
        return np.array([self.contains(tuple(p)) for p in nodes], dtype=bool)

    def distances(self, nodes: np.ndarray, norm: Norm) -> np.ndarray:
        """d_S in ``norm`` at every row of ``nodes``: here the distance to
        the nearest member node, in row blocks."""
        member = self.members(nodes)
        if not member.any():
            raise ValueError("region contains no mesh node")
        return _nearest(nodes, nodes[member], norm)


@dataclass(frozen=True)
class WholeSpace(Region):
    def contains(self, x: Sequence[float]) -> bool:
        return True

    def distances(self, nodes: np.ndarray, norm: Norm) -> np.ndarray:
        return np.zeros(len(nodes))


@dataclass(frozen=True)
class Ball(Region):
    """Closed ball B_radius(center)."""

    center: Tuple[float, ...]
    radius: float
    norm: Norm = EUCLIDEAN

    def __post_init__(self):
        if not self.radius >= 0:  # also refuses NaN
            raise ValueError(f"ball radius must be nonnegative, got {self.radius}")

    def contains(self, x: Sequence[float]) -> bool:
        return self.norm.dist(x, self.center) <= self.radius

    def distance(self, x: Sequence[float]) -> float:
        """Exact d_S(x) in the ball's own norm."""
        return max(0.0, self.norm.dist(x, self.center) - self.radius)

    def _center_distances(self, nodes: np.ndarray) -> np.ndarray:
        if len(self.center) != nodes.shape[1]:
            raise ValueError(f"ball center dim {len(self.center)} != mesh dim {nodes.shape[1]}")
        return self.norm.pairwise(np.asarray([self.center], dtype=float), nodes)[0]

    def members(self, nodes: np.ndarray) -> np.ndarray:
        return self._center_distances(nodes) <= self.radius

    def distances(self, nodes: np.ndarray, norm: Norm) -> np.ndarray:
        """Closed form in the ball's own norm, or on a 1-D mesh where every
        norm is one; otherwise the distance to the member nodes.  Either
        way a ball that holds no node is refused."""
        if norm == self.norm or nodes.shape[1] == 1:
            center = self._center_distances(nodes)
            if not center.min() <= self.radius:
                raise ValueError("region contains no mesh node")
            return np.maximum(0.0, center - self.radius)
        return super().distances(nodes, norm)


@dataclass(frozen=True)
class FinitePoints(Region):
    points: PointSet

    def contains(self, x: Sequence[float]) -> bool:
        return tuple(x) in self.points.points

    def distances(self, nodes: np.ndarray, norm: Norm) -> np.ndarray:
        """The distance in ``norm`` to the nearest of the set's own points,
        on the mesh or off it; +inf everywhere for an empty set."""
        if self.points.dim != nodes.shape[1]:
            raise ValueError(f"point set dim {self.points.dim} != mesh dim {nodes.shape[1]}")
        if not len(self.points):
            return np.full(len(nodes), np.inf)
        return _nearest(nodes, self.points.array, norm)


@dataclass(frozen=True)
class Predicate(Region):
    """Membership by predicate only; distances come from mesh sampling."""

    fn: Callable[[Sequence[float]], bool]

    def contains(self, x: Sequence[float]) -> bool:
        return bool(self.fn(tuple(x)))
