"""Norms, point-set distances, gap distances."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epislope import (
    BoxNorm, EUCLIDEAN, INF, MAX, Norm, NormKind, PointSet, TAXICAB,
    gap_distance, point_set_distance,
)

coord = st.floats(min_value=-10, max_value=10, allow_nan=False)
point2 = st.tuples(coord, coord)


def pset(pts, **kw):
    return PointSet.of(pts, **kw)


class TestPointSetDistance:
    def test_point_in_set(self):
        assert point_set_distance((0.0,), pset([(0.0,)])) == 0.0

    def test_three_four_five(self):
        assert point_set_distance((0.0, 0.0), pset([(3.0, 4.0)])) == 5.0

    def test_nearest_of_three(self):
        S = pset([(0.0,), (1.0,), (2.0,)])
        assert point_set_distance((1.5,), S) == 0.5

    def test_empty_set_is_inf(self):
        assert point_set_distance((0.0,), pset([], dim=1)) == INF

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            point_set_distance((0.0, 0.0), pset([(1.0,)]))


class TestPointSetArray:
    def test_of_keeps_the_first_of_each_point_in_order(self):
        S = pset([(1.0, 2.0), (0.0, 0.0), (1.0, 2.0), (-0.0, 0.0)])
        assert S.array.tobytes() == np.array([(1.0, 2.0), (0.0, 0.0)]).tobytes()
        assert S.points == ((1.0, 2.0), (0.0, 0.0)) and len(S) == 2 and S.dim == 2

    def test_an_empty_set_is_a_zero_row_array_of_its_dim(self):
        S = pset([], dim=3)
        assert S.array.shape == (0, 3) and S.dim == 3 and len(S) == 0
        assert S.points == ()

    def test_the_array_is_read_only_and_the_tuples_are_built_once(self):
        S = pset([(0.5,), (1.5,)], norm=MAX)
        with pytest.raises(ValueError):
            S.array[0, 0] = 2.0
        assert S.points is S.points
        assert S.points == ((0.5,), (1.5,))


class TestGapDistance:
    def test_shared_point_zero(self):
        A = pset([(0.0,), (2.0,)])
        assert gap_distance(A, A) == 0.0

    def test_singletons(self):
        assert gap_distance(pset([(0.0, 0.0)]), pset([(3.0, 4.0)])) == 5.0

    def test_segment_sample_versus_point(self):
        A = pset([(t, 0.0) for t in np.linspace(0.0, 1.0, 101)])
        B = pset([(2.0, 0.0)])
        assert gap_distance(A, B) == pytest.approx(1.0, abs=1e-12)

    def test_empty_side_is_inf(self):
        assert gap_distance(pset([], dim=1), pset([(0.0,)])) == INF

    def test_norm_mismatch(self):
        with pytest.raises(ValueError):
            gap_distance(pset([(0.0,)], norm=EUCLIDEAN),
                         pset([(0.0,)], norm=MAX))

    @given(st.lists(point2, min_size=1, max_size=6),
           st.lists(point2, min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_symmetry_and_pointwise_bound(self, pa, pb):
        A, B = pset(pa), pset(pb)
        g = gap_distance(A, B)
        assert g == gap_distance(B, A)
        for a in A.points:
            assert g <= point_set_distance(a, B) + 1e-12


class TestNorms:
    @given(point2, point2, point2)
    @settings(max_examples=100, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        for norm in (EUCLIDEAN, MAX, TAXICAB):
            ab = norm.dist(a, b)
            assert ab <= norm.dist(a, c) + norm.dist(c, b) + 1e-9
            assert ab == pytest.approx(norm.dist(b, a), abs=1e-12)

    @given(point2, coord)
    @settings(max_examples=100, deadline=None)
    def test_homogeneity(self, v, t):
        for norm in (EUCLIDEAN, MAX, TAXICAB):
            scaled = tuple(t * c for c in v)
            assert norm(scaled) == pytest.approx(abs(t) * norm(v), rel=1e-9, abs=1e-9)

    def test_box_norm_is_max_of_parts(self):
        bn = BoxNorm(base=EUCLIDEAN, base_dim=2)
        assert bn((3.0, 4.0, 2.0)) == 5.0
        assert bn((0.1, 0.1, 7.0)) == 7.0

    @given(st.lists(point2, min_size=1, max_size=6), point2, point2)
    @settings(max_examples=50, deadline=None)
    def test_distance_function_nonexpansive(self, pts, x, y):
        S = pset(pts)
        dx = point_set_distance(x, S)
        dy = point_set_distance(y, S)
        assert abs(dx - dy) <= EUCLIDEAN.dist(x, y) + 1e-9


def broadcast_pairwise(norm, A, B):
    """The (n, m, d) difference-array formula that the per-coordinate
    kernel replaced, kept here as its reference."""
    if isinstance(norm, BoxNorm):
        d = norm.base_dim
        head = broadcast_pairwise(norm.base, A[:, :d], B[:, :d])
        tail_diff = np.abs(A[:, None, d:] - B[None, :, d:])
        tail = tail_diff.max(axis=2) if tail_diff.shape[2] else np.zeros_like(head)
        return np.maximum(head, tail)
    diff = A[:, None, :] - B[None, :, :]
    if norm.kind is NormKind.EUCLIDEAN:
        return np.sqrt((diff * diff).sum(axis=2))
    if norm.kind is NormKind.MAX:
        return np.abs(diff).max(axis=2)
    return np.abs(diff).sum(axis=2)


# signed zeros, infinities, and coarse values that tie across points
kernel_coord = st.one_of(st.sampled_from((0.0, -0.0, math.inf, -math.inf)),
                         st.floats(-10, 10).map(lambda x: round(x, 1)))


class TestPairwiseKernel:
    @given(st.sampled_from(list(NormKind)), st.integers(1, 4), st.integers(0, 6),
           st.integers(0, 6), st.data())
    @settings(max_examples=300, deadline=None)
    def test_bitwise_equal_to_the_broadcast_formula(self, kind, d, n, m, data):
        A = np.array(data.draw(st.lists(st.lists(kernel_coord, min_size=d, max_size=d),
                                        min_size=n, max_size=n)), dtype=float).reshape(n, d)
        B = np.array(data.draw(st.lists(st.lists(kernel_coord, min_size=d, max_size=d),
                                        min_size=m, max_size=m)), dtype=float).reshape(m, d)
        norms = [Norm(kind)] + [BoxNorm(Norm(kind), b) for b in range(1, d + 1)]
        with np.errstate(invalid="ignore"):  # inf - inf
            for norm in norms:
                got, want = norm.pairwise(A, B), broadcast_pairwise(norm, A, B)
                assert got.shape == want.shape == (n, m)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), norm

    @pytest.mark.parametrize("norm", [BoxNorm(EUCLIDEAN, 2), EUCLIDEAN])
    def test_block_holds_at_most_two_distance_arrays(self, norm):
        rng = np.random.default_rng(5)
        A, B = rng.uniform(-1.0, 1.0, (400, 3)), rng.uniform(-1.0, 1.0, (2600, 3))
        tracemalloc.start()
        try:
            norm.pairwise(A, B)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 400 * 2600 * 8

    @pytest.mark.parametrize("norm", [EUCLIDEAN, MAX, TAXICAB, BoxNorm(MAX, 1)])
    def test_rows_of_different_widths_are_refused(self, norm):
        # a 1-wide row was measured on axis 0 alone, and a 3-wide row
        # against 2-wide ones ran off B's columns (IndexError)
        for A, B in ((np.zeros((1, 1)), np.zeros((4, 2))),
                     (np.zeros((1, 3)), np.zeros((4, 2)))):
            with pytest.raises(ValueError, match=rf"dimension {A.shape[1]} .* dimension 2"):
                norm.pairwise(A, B)
