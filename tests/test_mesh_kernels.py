"""Mesh-native kernels against brute force at small sizes: the 1-D
Lipschitz envelope, arithmetic node lookup (scalar and batched), batched
component values on product meshes, and ball infima."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epislope import (Ball, EUCLIDEAN, MAX, TAXICAB, FunctionModel, INF, MeshSpec,
                      inf_over_region, pasch_hausdorff)
from epislope.functions import _key
from epislope.sumrules import _component_values, product_mesh

STEPS = (0.01, 0.05, 0.1, 0.25)
NORMS = (EUCLIDEAN, MAX, TAXICAB)
values = st.one_of(st.floats(-10.0, 10.0), st.just(math.inf))


def grid(lo_cents, step, counts):
    """Mesh with lower corner lo_cents / 100 and counts[i] nodes per axis."""
    lo = lo_cents / 100.0
    return MeshSpec(box=tuple((lo, lo + step * (c - 1)) for c in counts),
                    h=(step,) * len(counts))


meshes = st.builds(grid, st.integers(-200, 200), st.sampled_from(STEPS),
                   st.lists(st.integers(2, 9), min_size=1, max_size=2))


# ---------------------------------------------------------- 1-D envelope

@settings(max_examples=150, deadline=None)
@given(st.lists(values, min_size=2, max_size=60), st.sampled_from(STEPS),
       st.floats(0.5, 64.0))
def test_envelope_matches_brute_force(vals, step, n):
    fv = np.array(vals)
    if not np.isfinite(fv).any():
        fv[0] = 0.0
    mesh = MeshSpec.line(0.0, step * (len(fv) - 1), step)
    f = FunctionModel.tabulated(mesh, fv)
    env = pasch_hausdorff(f, n, mesh).values
    x = mesh.nodes()[:, 0]
    brute = (fv[None, :] + n * np.abs(x[:, None] - x[None, :])).min(axis=1)
    scale = 1.0 + np.abs(fv[np.isfinite(fv)]).max()
    assert np.array_equal(np.isinf(env), np.isinf(brute))
    finite = np.isfinite(brute)
    assert np.abs(env[finite] - brute[finite]).max(initial=0.0) <= 1e-12 * scale
    assert (env <= fv).all()


# ---------------------------------------------------------- node lookup

def _old_lookup(mesh, p):
    return mesh.index_map().get(_key(p), -1)


@settings(max_examples=150, deadline=None)
@given(meshes, st.data())
def test_lookup_matches_index_map(mesh, data):
    offsets = st.sampled_from((0.0, 1e-12, -1e-12, 6e-10, -6e-10))
    rows = []
    for _ in range(8):
        p = []
        for axis, ((lo, _), step) in enumerate(zip(mesh.box, mesh.h)):
            count = len(mesh.axis_nodes(axis))
            i = data.draw(st.integers(-1, count))  # -1 and count lie outside the box
            p.append(lo + step * i + data.draw(offsets))
        rows.append(tuple(p))
    expected = [_old_lookup(mesh, p) for p in rows]
    assert [mesh.node_index(p) for p in rows] == expected
    assert mesh.locate(np.array(rows)).tolist() == expected
    f = FunctionModel.tabulated(mesh, np.arange(mesh.node_count, dtype=float))
    for p, i in zip(rows, expected):
        if i < 0:
            with pytest.raises(KeyError):
                f(p)
        else:
            assert f(p) == float(i)


def test_lookup_rejects_wrong_dimension():
    mesh = MeshSpec.line(-1.0, 1.0, 0.5)
    assert mesh.node_index((0.0, 0.0)) == -1
    with pytest.raises(ValueError):
        mesh.locate(np.zeros((3, 2)))


# ---------------------------------------------------- product-mesh gather

@settings(max_examples=60, deadline=None)
@given(st.integers(-100, 100), st.sampled_from(STEPS),
       st.lists(st.integers(2, 5), min_size=1, max_size=2), st.data())
def test_component_values_match_scalar_loop(lo_cents, step, counts, data):
    mesh = grid(lo_cents, step, counts)
    k = data.draw(st.integers(2, 4 // mesh.dim))
    fv = np.array(data.draw(st.lists(values, min_size=mesh.node_count,
                                     max_size=mesh.node_count)))
    f = FunctionModel.tabulated(mesh, fv)
    P = product_mesh(mesh, k).nodes()
    d = mesh.dim
    for i in range(k):
        coords = P[:, i * d:(i + 1) * d]
        loop = np.array([float(f(tuple(p))) for p in coords])
        assert np.array_equal(_component_values(f, coords), loop)
    off = P[:, :d].copy()
    off[data.draw(st.integers(0, len(off) - 1)), 0] += 6e-10
    with pytest.raises(KeyError):
        _component_values(f, off)
    with pytest.raises(KeyError):
        [f(tuple(p)) for p in off]


# ------------------------------------------------------------ ball infima

@settings(max_examples=150, deadline=None)
@given(meshes, st.sampled_from(NORMS), st.data())
def test_ball_infimum_matches_contains(mesh, norm, data):
    fv = np.array(data.draw(st.lists(values, min_size=mesh.node_count,
                                     max_size=mesh.node_count)))
    f = FunctionModel.tabulated(mesh, fv, norm=norm)
    nodes = mesh.nodes()
    # centers on nodes and radii at node multiples put nodes on the sphere
    center = tuple(nodes[data.draw(st.integers(0, len(nodes) - 1))])
    radius = mesh.h[0] * data.draw(st.integers(0, 4)) + data.draw(
        st.sampled_from((0.0, 1e-12, -1e-12, 0.3 * mesh.h[0])))
    ball = Ball(center, max(radius, 0.0), norm)
    inside = [v for p, v in zip(nodes, fv) if ball.contains(tuple(p))]
    assert inf_over_region(f, ball, mesh) == min(inside, default=INF)
