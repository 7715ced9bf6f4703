"""Mesh-native kernels against brute force at small sizes: the Lipschitz
envelopes (1-D, separable taxicab, chessboard scans and the blocked
fallback) and the mesh-held ramp index they scale, row-blocked pairwise
minima and their cell budget (and one pairwise call per Wijsman verdict,
strong slope and Fréchet test), arithmetic node lookup, product-mesh
values and diagonal distances gathered from base-mesh arrays, ball
infima, and region membership and distances on node arrays."""

import contextlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from epislope import (Ball, BoxNorm, EUCLIDEAN, MAX, TAXICAB, FinitePoints,
                      FunctionModel, FunctionSequence, INF, LimitConfig, MeshSpec,
                      Norm, PointSet, Predicate, WholeSpace, epi_hypo_gap_triple,
                      functions, gap_distance, geometry, inf_over_region,
                      frechet_membership, pasch_hausdorff, plain_infimum, robustness,
                      strong_slope, wijsman_at_point)
from epislope.functions import _ramp_pass
from epislope.geometry import PAIRWISE_CELL_BUDGET
from epislope.sumrules import (DecoupledSum, _product_data, diagonal_distance,
                               product_mesh)
from epislope.verdict import KEY_DECIMALS

STEPS = (0.01, 0.05, 0.1, 0.25)
NORMS = (EUCLIDEAN, MAX, TAXICAB)
values = st.one_of(st.floats(-10.0, 10.0), st.just(math.inf))


def grid(lo_cents, step, counts):
    """Mesh with lower corner lo_cents / 100 and counts[i] nodes per axis;
    step is one step for every axis or a tuple of per-axis steps."""
    lo = lo_cents / 100.0
    steps = tuple(step) if isinstance(step, (tuple, list)) else (step,) * len(counts)
    return MeshSpec(box=tuple((lo, lo + h * (c - 1)) for h, c in zip(steps, counts)),
                    h=steps[:len(counts)])


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


def _temporary_ramp_pass(v, slope):
    """The 1-D ramp pass written as a chain of temporaries, the reference
    for the in-place ``_ramp_pass``."""
    ramp = slope * np.arange(v.shape[-1])
    fwd = ramp + np.minimum.accumulate(v - ramp, axis=-1)
    bwd = np.minimum.accumulate((v + ramp)[..., ::-1], axis=-1)[..., ::-1] - ramp
    return np.minimum(np.minimum(fwd, bwd), v)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 12), min_size=1, max_size=2), st.booleans(),
       st.sampled_from(STEPS), st.floats(0.5, 64.0), st.data())
def test_ramp_pass_is_the_temporary_formula_bit_for_bit(shape, transpose, step, n, data):
    """Signed zeros, +inf and multiples of the slope (exact zero minima)
    give the same bytes as the reference, on contiguous rows and on a
    strided view, and the input is left as it was."""
    slope = n * step
    entry = st.one_of(st.sampled_from([0.0, -0.0, math.inf]),
                      st.integers(-3, 3).map(lambda k: k * slope), st.floats(-4.0, 4.0))
    count = int(np.prod(shape))
    v = np.array(data.draw(st.lists(entry, min_size=count, max_size=count))).reshape(shape)
    if transpose:
        v = v.T
    before = v.tobytes()
    got = _ramp_pass(v, slope, np.arange(v.shape[-1], dtype=float))
    assert got.tobytes() == _temporary_ramp_pass(v, slope).tobytes()
    assert v.tobytes() == before


@st.composite
def rising_line(draw, slope, length):
    """A line that is nonincreasing up to a drawn first-rise column (0, the
    last one, or none), steps up there by k*slope (k an integer 1-3, exact
    multiples, or any float in [0, 4]) and is free after it; mirrored or
    not, so that either running minimum of ``_ramp_pass`` starts mid-line."""
    entry = st.one_of(st.sampled_from([0.0, -0.0, math.inf]),
                      st.integers(-3, 3).map(lambda k: k * slope), st.floats(-4.0, 4.0))
    rise = None if length < 2 else draw(st.one_of(st.sampled_from([0, length - 2, None]),
                                                  st.integers(0, length - 2)))
    head = length if rise is None else rise + 1
    line = sorted(draw(st.lists(entry, min_size=head, max_size=head)), reverse=True)
    if rise is not None:
        line.append(line[-1] + slope * draw(st.one_of(st.integers(1, 3), st.floats(0.0, 4.0))))
        line += draw(st.lists(entry, min_size=length - len(line), max_size=length - len(line)))
    return line[::-1] if draw(st.booleans()) else line


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), st.integers(0, 4), st.booleans(), st.sampled_from(STEPS),
       st.floats(0.5, 64.0), st.data())
def test_ramp_pass_from_the_first_rise_is_the_temporary_formula(length, rows, transpose,
                                                                 step, n, data):
    """Lines rising at drawn columns, one line (rows = 0) or rows of lines
    rising at different columns, contiguous or as a transposed view: the
    running minima started at the least first rise give the reference's
    bytes, signed zeros and +inf included."""
    slope = n * step
    lines = [data.draw(rising_line(slope, length)) for _ in range(max(rows, 1))]
    v = np.array(lines[0] if rows == 0 else lines)
    if transpose and rows:
        v = np.ascontiguousarray(v.T).T
    before = v.tobytes()
    got = _ramp_pass(v, slope, np.arange(v.shape[-1], dtype=float))
    assert got.tobytes() == _temporary_ramp_pass(v, slope).tobytes()
    assert v.tobytes() == before


def _arange_ramp_pass(v, slope):
    """``_ramp_pass`` as it built its ramp before the mesh held the index:
    a fresh ``np.arange`` per pass, scaled in place."""
    ramp = np.arange(v.shape[-1], dtype=float)
    ramp *= slope
    fwd = np.subtract(v, ramp)
    functions._scan_min(fwd)
    fwd += ramp
    bwd = np.add(v, ramp)
    functions._scan_min(bwd, backward=True)
    bwd -= ramp
    np.minimum(fwd, bwd, out=fwd)
    return np.minimum(fwd, v, out=fwd)


@contextlib.contextmanager
def ramp_indices():
    """Record (line length, index) of every ``_ramp_pass`` call."""
    seen = []

    def recording(v, slope, index):
        seen.append((v.shape[-1], index))
        return _ramp_pass(v, slope, index)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(functions, "_ramp_pass", recording)
        yield seen


@settings(max_examples=200, deadline=None)
@given(st.integers(-200, 200), st.sampled_from(STEPS),
       st.sampled_from([(EUCLIDEAN, 1), (MAX, 1), (TAXICAB, 2), (TAXICAB, 3), (MAX, 2)]),
       st.floats(0.5, 64.0), st.data())
def test_envelopes_on_the_mesh_index_are_the_arange_ramps(lo_cents, step, kind, n, data):
    """The 1-D, taxicab and chessboard envelopes scale the mesh's float
    index of each pass's axis: with a fresh ``np.arange`` per pass instead,
    every envelope is the same bit for bit (signed zeros and +inf
    included), and each index is the mesh's read-only array for its axis.
    One node is fixed out of its neighbours' reach, so f is not
    n-Lipschitz and the ramp passes run."""
    norm, dim = kind
    counts = data.draw(st.lists(st.integers(2, 9 if dim < 3 else 4),
                                min_size=dim, max_size=dim))
    mesh = grid(lo_cents, step, counts)
    fv = np.array(data.draw(st.lists(st.one_of(values, st.just(-0.0)),
                                     min_size=mesh.node_count, max_size=mesh.node_count)))
    zero, far = data.draw(st.lists(st.integers(0, mesh.node_count - 1), min_size=2,
                                   max_size=2, unique=True))
    fv[zero] = data.draw(st.sampled_from((0.0, -0.0)))
    fv[far] = 11.0 + n * step  # the drawn values lie in [-10, 10] or are +inf
    f = FunctionModel.tabulated(mesh, fv, norm=norm)
    with ramp_indices() as seen:
        got = pasch_hausdorff(f, n, mesh).values
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(functions, "_ramp_pass", lambda v, slope, index: _arange_ramp_pass(v, slope))
        want = pasch_hausdorff(f, n, mesh).values
    assert got.tobytes() == want.tobytes()
    axes = [1] if norm == MAX and dim == 2 else list(range(dim))
    assert len(seen) == len(axes)
    for (length, index), axis in zip(seen, axes):
        assert length == counts[axis] and index is mesh._axis_index[axis]
        assert not index.flags.writeable
        assert index.tobytes() == np.arange(length, dtype=float).tobytes()


@pytest.mark.parametrize("norm,counts", [(EUCLIDEAN, (9,)), (TAXICAB, (5, 7)), (MAX, (6, 6))],
                         ids=["line", "taxicab", "chessboard"])
def test_the_mesh_index_is_built_on_the_first_envelope_and_shared(norm, counts):
    """No index at construction (set-up does no work for it); the first
    envelope builds it, and a second envelope on the mesh reads the same
    read-only arrays."""
    mesh = grid(-50, 0.25, counts)
    assert "_axis_index" not in mesh.__dict__
    f = FunctionModel.tabulated(mesh, np.resize([0.0, 2.0, -1.0, math.inf], mesh.node_count),
                                norm=norm)
    with ramp_indices() as first:
        pasch_hausdorff(f, 1.0, mesh)
    with ramp_indices() as second:
        pasch_hausdorff(f, 2.0, mesh)
    assert first and len(first) == len(second)
    for (_, a), (_, b) in zip(first, second):
        assert a is b and not a.flags.writeable


@contextlib.contextmanager
def counted_scans():
    """Record the length of every running minimum the envelopes take."""
    scans = []

    class Counted:
        def __init__(self, ufunc):
            self.ufunc = ufunc

        def __call__(self, *args, **kwargs):
            return self.ufunc(*args, **kwargs)

        def accumulate(self, a, *args, **kwargs):
            scans.append(a.shape[-1])
            return self.ufunc.accumulate(a, *args, **kwargs)

    class CountedNumpy:
        fmin, minimum = Counted(np.fmin), Counted(np.minimum)

        def __getattr__(self, name):
            return getattr(np, name)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(functions, "np", CountedNumpy())
        yield scans


def test_envelope_above_the_lipschitz_constant_runs_no_scan():
    """|x| on a line has steps h, all below n*h for n = 2: f is its own
    envelope and no running minimum runs.  At n = 0.5 each scan starts at
    the kink, half way along the line."""
    mesh = MeshSpec.line(-1.0, 1.0, 0.01)
    f = FunctionModel.tabulated(mesh, np.abs(mesh.nodes()[:, 0]))
    with counted_scans() as scans:
        pasch_hausdorff(f, 2.0, mesh)
    assert scans == []
    with counted_scans() as scans:
        pasch_hausdorff(f, 0.5, mesh)
    assert scans == [101, 101]


def moves_within(fv, n, mesh, chessboard):
    """Every adjacent difference of the node values along each axis, and
    on the chessboard along both diagonals, is at most n*h in floats."""
    v = fv.reshape(mesh._counts)
    moves = [(np.diff(v, axis=axis), n * h) for axis, h in enumerate(mesh.h)]
    if chessboard:
        moves += [(v[1:, 1:] - v[:-1, :-1], n * mesh.h[0]),
                  (v[1:, :-1] - v[:-1, 1:], n * mesh.h[0])]
    return all((np.abs(d) <= step).all() for d, step in moves)


def kernel_envelope(fv, n, mesh, chessboard):
    """The linear kernel called directly, a ramp pass per axis or the
    chessboard scans, then the clamp at min f."""
    v = fv.reshape(mesh._counts)
    if chessboard:
        out = functions._chessboard_envelope(v, n * mesh.h[0], mesh._axis_index[1])
    else:
        out = v
        for axis, (h, index) in enumerate(zip(mesh.h, mesh._axis_index)):
            out = np.swapaxes(_ramp_pass(np.swapaxes(out, axis, -1), n * h, index), axis, -1)
    return np.maximum(out.ravel(), fv.min())


@settings(max_examples=300, deadline=None)
@given(st.integers(-200, 200), st.sampled_from(STEPS),
       st.sampled_from([(EUCLIDEAN, 1), (MAX, 1), (TAXICAB, 1), (TAXICAB, 2), (TAXICAB, 3),
                        (MAX, 2)]),
       st.floats(0.5, 64.0), st.data())
@np.errstate(invalid="ignore")  # +inf - +inf in moves_within
def test_envelope_of_n_lipschitz_data_is_f_else_the_kernel(lo_cents, step, kind, n, data):
    """Values within n*h/2 of zero (signed zeros and both bounds included)
    move by at most n*h between any two neighbours; up to two nodes drawn
    farther off or at +inf may break that.  Where every move is within
    n*h, the envelope is f's bytes in a fresh array; elsewhere it is the
    linear kernel's bytes."""
    norm, dim = kind
    counts = data.draw(st.lists(st.integers(2, 9 if dim < 3 else 4),
                                min_size=dim, max_size=dim))
    mesh = grid(lo_cents, step, counts)
    count = mesh.node_count
    half = n * step / 2
    fv = np.array(data.draw(st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, half, -half]), st.floats(-half, half)),
        min_size=count, max_size=count)))
    for i in data.draw(st.lists(st.integers(0, count - 1), max_size=min(2, count - 1),
                                unique=True)):
        fv[i] = data.draw(st.one_of(st.just(math.inf), st.floats(-3 * n * step, 3 * n * step)))
    f = FunctionModel.tabulated(mesh, fv, norm=norm)
    env = pasch_hausdorff(f, n, mesh)
    chessboard = norm == MAX and dim == 2
    if moves_within(fv, n, mesh, chessboard):
        assert env.values.tobytes() == fv.tobytes()
        assert not np.shares_memory(env.values, f.values)
    else:
        assert env.values.tobytes() == kernel_envelope(fv, n, mesh, chessboard).tobytes()
    assert (env.norm, env.lipschitz_hint, env.name) == (norm, n, f"▽{n}||.||")


def test_envelope_is_f_just_above_the_largest_slope():
    """150 random piecewise-linear f on the 201-node default line, 2 to 8
    pieces with slopes and jumps in [-3, 3]: on a mesh every finite f is
    Lipschitz, and at n = ceil(largest adjacent slope) + 1 the envelope is
    f bit for bit in every case, where the ramp passes alone round below f
    at some node of each."""
    mesh = MeshSpec.line(-1.0, 1.0, 0.01)
    x = mesh.nodes()[:, 0]
    rng = np.random.default_rng(16)
    for _ in range(150):
        pieces = int(rng.integers(2, 9))
        ends = np.append(np.sort(rng.choice(np.arange(1, len(x)), pieces - 1, replace=False)),
                         len(x))
        fv = np.empty(len(x))
        start, level = 0, 0.0
        for end, slope, jump in zip(ends, rng.uniform(-3, 3, pieces), rng.uniform(-3, 3, pieces)):
            fv[start:end] = level + jump + slope * (x[start:end] - x[start])
            start, level = end, fv[end - 1]
        n = math.ceil(np.abs(np.diff(fv)).max() / mesh.h[0]) + 1
        env = pasch_hausdorff(FunctionModel.tabulated(mesh, fv), n, mesh).values
        assert env.tobytes() == fv.tobytes()


def test_abs_at_n_one_runs_the_ramp():
    """|x| on the h = 0.01 line moves by up to 0.010000000000000009 from one
    node to the next, above n*h = 0.01 at n = 1: the ramp pass runs and the
    envelope is the kernel's."""
    mesh = MeshSpec.line(-1.0, 1.0, 0.01)
    fv = np.abs(mesh.nodes()[:, 0])
    assert np.abs(np.diff(fv)).max() == 0.010000000000000009
    with ramp_indices() as seen:
        env = pasch_hausdorff(FunctionModel.tabulated(mesh, fv), 1.0, mesh).values
    assert len(seen) == 1
    assert env.tobytes() == kernel_envelope(fv, 1.0, mesh, False).tobytes()


@pytest.mark.parametrize("norm,counts", [(EUCLIDEAN, (9,)), (TAXICAB, (5, 7)),
                                         (MAX, (6, 6)), (EUCLIDEAN, (4, 5))],
                         ids=["line", "taxicab", "chessboard", "blocked"])
def test_envelope_leaves_the_model_values_untouched(norm, counts):
    mesh = grid(-50, 0.25, counts)
    fv = np.resize([0.0, -0.0, math.inf, 1.5, -2.0, 0.25, 3.0], mesh.node_count)
    f = FunctionModel.tabulated(mesh, fv, norm=norm)
    before = f.values.tobytes()
    pasch_hausdorff(f, 3.0, mesh)
    assert f.values.tobytes() == before


def seeded_values(data, count):
    """Random values laced with +inf, or an indicator-like seed: finite at
    one to three nodes and +inf elsewhere.  Never +inf everywhere."""
    if data.draw(st.booleans()):
        fv = np.array(data.draw(st.lists(values, min_size=count, max_size=count)))
    else:
        fv = np.full(count, math.inf)
        for i in data.draw(st.lists(st.integers(0, count - 1), min_size=1, max_size=3)):
            fv[i] = data.draw(st.floats(-1.0, 1.0))
    if not np.isfinite(fv).any():
        fv[data.draw(st.integers(0, count - 1))] = 0.0
    return fv


def dense_envelope(fv, n, mesh, norm):
    nodes = mesh.nodes()
    return (fv[None, :] + n * norm.pairwise(nodes, nodes)).min(axis=1)


@contextlib.contextmanager
def cell_budget(cells):
    """Shrink the pairwise cell budget so that small inputs span many blocks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "PAIRWISE_CELL_BUDGET", cells)
        yield


# ------------------------------------------------ 2-D and 3-D envelopes

@settings(max_examples=150, deadline=None)
@given(st.integers(-200, 200), st.lists(st.sampled_from(STEPS), min_size=3, max_size=3),
       st.lists(st.integers(2, 7), min_size=1, max_size=3), st.floats(0.5, 64.0), st.data())
def test_linear_envelopes_match_brute_force(lo_cents, steps, counts, n, data):
    """Taxicab in 1-D to 3-D (any steps) and the max norm on equal-step 2-D
    grids: the linear kernels agree with the brute force up to rounding."""
    fv = seeded_values(data, int(np.prod(counts)))
    cases = [(TAXICAB, grid(lo_cents, steps, counts))]
    if len(counts) == 2:
        cases.append((MAX, grid(lo_cents, steps[0], counts)))
    scale = 1.0 + np.abs(fv[np.isfinite(fv)]).max()
    for norm, mesh in cases:
        env = pasch_hausdorff(FunctionModel.tabulated(mesh, fv, norm=norm), n, mesh).values
        brute = dense_envelope(fv, n, mesh, norm)
        assert np.isfinite(env).all() and np.isfinite(brute).all()
        assert np.abs(env - brute).max() <= 1e-12 * scale


@settings(max_examples=100, deadline=None)
@given(st.integers(-200, 200), st.lists(st.sampled_from(STEPS), min_size=3, max_size=3),
       st.lists(st.integers(2, 6), min_size=2, max_size=3), st.sampled_from((EUCLIDEAN, MAX)),
       st.integers(1, 40), st.floats(0.5, 64.0), st.data())
def test_blocked_fallback_is_the_dense_formula(lo_cents, steps, counts, norm, cells, n, data):
    """Euclidean, unequal-step max and 3-D max envelopes run the dense
    formula in row blocks: bit for bit the same result."""
    mesh = grid(lo_cents, steps, counts)
    assume(norm is EUCLIDEAN or mesh.dim == 3 or mesh.h[0] != mesh.h[1])
    fv = seeded_values(data, mesh.node_count)
    f = FunctionModel.tabulated(mesh, fv, norm=norm)
    with cell_budget(cells):
        env = pasch_hausdorff(f, n, mesh).values
    assert np.array_equal(env, dense_envelope(fv, n, mesh, norm))


@settings(max_examples=300, deadline=None)
@given(st.integers(-200, 200), st.sampled_from(STEPS),
       st.one_of(st.lists(st.integers(2, 300), min_size=1, max_size=1),
                 st.lists(st.integers(2, 20), min_size=2, max_size=2)),
       st.sampled_from(NORMS), st.floats(0.5, 64.0), st.integers(0, 2 ** 32 - 1))
def test_envelope_keeps_exact_bounds(lo_cents, step, counts, norm, n, seed):
    """min f <= f_n <= f at every node and min f_n == min f, exactly,
    although the ramp form rounds by up to an ulp either way."""
    mesh = grid(lo_cents, step, counts)
    rng = np.random.default_rng(seed)
    fv = rng.uniform(-1e3, 1e3, mesh.node_count)
    fv[rng.random(mesh.node_count) < 0.2] = math.inf
    fv[rng.integers(mesh.node_count)] = rng.uniform(-1e3, 1e3)
    env = pasch_hausdorff(FunctionModel.tabulated(mesh, fv, norm=norm), n, mesh).values
    low = fv[np.isfinite(fv)].min()
    assert (low <= env).all() and (env <= fv).all()
    assert env.min() == low


# ------------------------------------------------ row-blocked pairwise minima

clouds = st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5)),
                  min_size=1, max_size=30)
cloud_norms = st.sampled_from(NORMS + tuple(BoxNorm(base, 2) for base in NORMS))


@settings(max_examples=150, deadline=None)
@given(clouds, clouds, cloud_norms, st.integers(1, 40))
def test_blocked_gap_distance_is_the_dense_min(a, b, norm, cells):
    A, B = PointSet.of(a, norm=norm), PointSet.of(b, norm=norm)
    with cell_budget(cells):
        gap = gap_distance(A, B)
    assert gap == float(norm.pairwise(A.array, B.array).min())


def test_gap_distance_edge_cases_unchanged():
    A = PointSet.of([(0.0, 1.0)])
    assert gap_distance(A, PointSet.of([], dim=2)) == INF
    assert gap_distance(PointSet.of([], dim=2), A) == INF
    with pytest.raises(ValueError, match="norm mismatch"):
        gap_distance(A, PointSet.of([(0.0, 1.0)], norm=MAX))
    with pytest.raises(ValueError, match="dim mismatch"):
        gap_distance(A, PointSet.of([(0.0,)]))


def dense_exact_gap(fv, gv, nodes, norm):
    """The exact gap triple's node-pair formula on the whole matrix."""
    D = norm.pairwise(nodes, nodes)
    fx, gy = fv[None, :], gv[:, None]
    with np.errstate(invalid="ignore"):
        vert = fx - gy
    vert = np.where(np.isposinf(fx) * np.ones_like(gy, dtype=bool), np.inf, vert)
    vert = np.where(np.isposinf(gy) * np.ones_like(fx, dtype=bool), 0.0, vert)
    dist = np.maximum(D, np.maximum(vert, 0.0))
    return float(np.where(np.isposinf(fx) * np.ones_like(gy, dtype=bool), np.inf, dist).min())


@settings(max_examples=100, deadline=None)
@given(meshes, st.sampled_from(NORMS), st.integers(1, 40), st.data())
def test_blocked_exact_gap_triple_is_the_dense_min(mesh, norm, cells, data):
    fv = seeded_values(data, mesh.node_count)
    gv = np.array(data.draw(st.lists(values, min_size=mesh.node_count,
                                     max_size=mesh.node_count)))
    f = FunctionModel.tabulated(mesh, fv, norm=norm)
    g = FunctionModel.tabulated(mesh, gv, norm=norm)
    with cell_budget(cells):
        triple = epi_hypo_gap_triple(f, g, mesh, cap=0.0, floor=0.0, alpha_step=1.0,
                                     exact=True)
    want = dense_exact_gap(fv, gv, mesh.nodes(), norm)
    assert triple == (want, want, want)


@settings(max_examples=100, deadline=None)
@given(meshes, st.sampled_from(NORMS), st.integers(1, 40), st.data())
def test_blocked_predicate_distances_are_the_dense_min(mesh, norm, cells, data):
    nodes = mesh.nodes()
    picked = data.draw(st.sets(st.integers(0, len(nodes) - 1), min_size=1, max_size=4))
    keys = {tuple(nodes[i]) for i in picked}
    region = Predicate(lambda p: tuple(p) in keys)
    with cell_budget(cells):
        d = region.distances(mesh.nodes(), norm)
    member = np.array([tuple(p) in keys for p in nodes])
    assert np.array_equal(d, norm.pairwise(nodes, nodes[member]).min(axis=1))


@contextlib.contextmanager
def recorded_pairwise(outs=None):
    """Record the cell count of every Norm.pairwise / BoxNorm.pairwise call,
    passing buffer arguments through; with a list ``outs``, also the array
    each call returns."""
    calls = []

    def wrap(cls):
        inner = cls.pairwise

        def pairwise(self, A, B, *buffers, **named):
            calls.append((cls, len(A) * len(B)))
            D = inner(self, A, B, *buffers, **named)
            if outs is not None:
                outs.append(D)
            return D
        return pairwise

    with pytest.MonkeyPatch.context() as mp:
        for cls in (Norm, BoxNorm):
            mp.setattr(cls, "pairwise", wrap(cls))
        yield calls


def test_no_pairwise_call_exceeds_the_cell_budget():
    """Each reduction computes every cell once, in blocks within the
    budget, and writes every block into the first block's memory."""
    mesh = MeshSpec(box=((-1.0, 1.0), (-1.0, 1.0)), h=(0.02, 0.02))  # 101 x 101
    rng = np.random.default_rng(3)
    f = FunctionModel.tabulated(mesh, rng.uniform(-1.0, 1.0, mesh.node_count))
    outs = []
    with recorded_pairwise(outs) as calls:
        pasch_hausdorff(f, 2.0, mesh)
    assert max(cells for _, cells in calls) <= PAIRWISE_CELL_BUDGET
    assert sum(cells for _, cells in calls) == mesh.node_count ** 2  # each cell once
    assert len(outs) > 1 and all(np.shares_memory(D, outs[0]) for D in outs[1:])

    box = BoxNorm(EUCLIDEAN, 2)
    A = PointSet.of(rng.uniform(-1.0, 1.0, (5000, 3)), norm=box)
    B = PointSet.of(rng.uniform(2.0, 3.0, (5000, 3)), norm=box)
    outs = []
    with recorded_pairwise(outs) as calls:
        gap_distance(A, B)
    assert max(cells for _, cells in calls) <= PAIRWISE_CELL_BUDGET
    assert sum(cells for cls, cells in calls if cls is BoxNorm) == 5000 * 5000
    assert len(outs) > 1 and all(np.shares_memory(D, outs[0]) for D in outs[1:])


def test_block_walk_refuses_rows_of_two_widths_before_any_block():
    with recorded_pairwise() as calls, pytest.raises(ValueError, match="dimension 2"):
        next(geometry.pairwise_blocks(MAX, np.zeros((3, 2)), np.zeros((4, 1))))
    with pytest.raises(ValueError, match="dimension 1"):
        next(geometry.pairwise_blocks(MAX, np.zeros((0, 1)), np.zeros((4, 2))))
    assert calls == []


def budgets(rows, cols):
    """Cell budgets that walk a rows x cols matrix as one cell, as blocks
    with a partial last one, as one row per block with the row wider than
    the budget, and as the default."""
    step = next((k for k in range(2, rows) if rows % k), 1)  # rows % step != 0
    return (1, step * cols + cols // 2, max(cols - 1, 1), PAIRWISE_CELL_BUDGET)


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


@settings(max_examples=60, deadline=None)
@given(clouds, st.one_of(clouds, st.just([])), cloud_norms, st.data())
def test_every_block_walk_is_the_dense_result_bit_for_bit(a, b, norm, data):
    """gap_distance, Predicate distances, the 2-D Euclidean brute-force
    envelope and the exact gap triple, walked under several cell budgets,
    are tobytes()-equal to the one dense pairwise matrix's results, with
    +inf values and an empty set among the inputs."""
    A = PointSet.of(a, norm=norm)
    B = PointSet.of(b, norm=norm, dim=3)
    mesh = grid(data.draw(st.integers(-200, 200)), data.draw(st.sampled_from(STEPS)),
                data.draw(st.lists(st.integers(2, 7), min_size=2, max_size=2)))
    nodes, N = mesh.nodes(), mesh.node_count
    fv = seeded_values(data, N)
    gv = np.array(data.draw(st.lists(values, min_size=N, max_size=N)))
    n = data.draw(st.floats(0.5, 64.0))
    picked = data.draw(st.sets(st.integers(0, N - 1), min_size=1, max_size=N))
    member = np.isin(np.arange(N), sorted(picked))
    region = Predicate(lambda p: bool(member[mesh.node_index(p)]))
    f = FunctionModel.tabulated(mesh, fv, norm=EUCLIDEAN)
    g = FunctionModel.tabulated(mesh, gv, norm=EUCLIDEAN)

    gap_want = INF if not b else float(norm.pairwise(A.array, B.array).min())
    near_want = EUCLIDEAN.pairwise(nodes, nodes[member]).min(axis=1)
    # the clamp at min f over all values, as the envelope takes it: where
    # that least value is a zero of both signs, which one np.min returns
    # depends on the array it reduces
    env_want = np.maximum(dense_envelope(fv, n, mesh, EUCLIDEAN), fv.min())
    triple_want = dense_exact_gap(fv, gv, nodes, EUCLIDEAN)
    walks = {*budgets(len(A), max(len(B), 1)), *budgets(N, N), *budgets(N, member.sum())}
    for cells in sorted(walks):
        with cell_budget(cells):
            assert bits(gap_distance(A, B)) == bits(gap_distance(B, A)) == bits(gap_want)
            assert bits(region.distances(nodes, EUCLIDEAN)) == bits(near_want)
            assert bits(pasch_hausdorff(f, n, mesh).values) == bits(env_want)
            triple = epi_hypo_gap_triple(f, g, mesh, cap=0.0, floor=0.0, alpha_step=1.0,
                                         exact=True)
            assert bits(triple) == bits((triple_want,) * 3)


# ---------------------------------------------------------- node lookup

def _old_lookup(mesh, p):
    return mesh.index_map().get(tuple(round(float(c), KEY_DECIMALS) for c in p), -1)


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


# ---------------------------------------------------- product-mesh gather

@settings(max_examples=60, deadline=None)
@given(st.integers(-100, 100), st.sampled_from(STEPS),
       st.lists(st.integers(2, 5), min_size=1, max_size=2), st.sampled_from(NORMS),
       st.integers(1, 60), st.data())
def test_product_data_matches_scalar_loop(lo_cents, step, counts, norm, cells, data):
    """F and d_Delta gathered from base arrays equal DecoupledSum.value and
    diagonal_distance at every product node row, bit for bit."""
    mesh = grid(lo_cents, step, counts)
    k = data.draw(st.integers(2, 4 // mesh.dim))
    ds = DecoupledSum(tuple(
        FunctionModel.tabulated(mesh, np.array(data.draw(st.lists(
            values, min_size=mesh.node_count, max_size=mesh.node_count))), norm=norm)
        for _ in range(k)))
    with cell_budget(cells):
        pm, idx, F, dDelta = _product_data(ds, mesh)
    P = product_mesh(mesh, k).nodes()
    assert pm == product_mesh(mesh, k)
    d = mesh.dim
    for i in range(k):
        assert np.array_equal(mesh.nodes()[idx[i]], P[:, i * d:(i + 1) * d])
    rows = [[tuple(p[i * d:(i + 1) * d]) for i in range(k)] for p in P]
    assert np.array_equal(F, [ds.value(xs) for xs in rows])
    assert np.array_equal(dDelta, [diagonal_distance(xs, norm) for xs in rows])


@pytest.mark.parametrize("cells", [1, 7, 100, 1 << 20])
def test_product_diagonal_distance_is_half_the_base_distance(cells):
    """On a 2-D base, in row blocks of any size and in all three norms,
    d_Delta at every product node (x_1, x_2) is ||x_1 - x_2|| / 2 bit for
    bit; the midpoint attains it and no sampled z is nearer both points."""
    mesh = grid(-37, (0.1, 0.25), (7, 5))
    nodes = mesh.nodes()
    rng = np.random.default_rng(5)
    for norm in NORMS:
        zero = FunctionModel.tabulated(mesh, np.zeros(mesh.node_count), norm=norm)
        with cell_budget(cells):
            _, idx, _, dDelta = _product_data(DecoupledSum((zero, zero)), mesh)
        pairs = [(tuple(nodes[i]), tuple(nodes[j])) for i, j in zip(*idx)]
        assert dDelta.tolist() == [norm.dist(a, b) / 2 for a, b in pairs]
        for (a, b), d in zip(pairs, dDelta):
            mid = tuple((p + q) / 2 for p, q in zip(a, b))
            assert max(norm.dist(a, mid), norm.dist(b, mid)) == pytest.approx(d, rel=1e-12)
            # z around the midpoint, within d of it, and every base node
            zs = np.vstack([np.add(mid, rng.uniform(-1.0, 1.0, (16, 2)) * d), nodes])
            far = np.maximum(norm.pairwise(np.array([a]), zs),
                             norm.pairwise(np.array([b]), zs))
            assert far.min() >= d * (1 - 1e-12)


def test_product_diagonal_distance_takes_each_pair_once():
    """d_Delta on a 2-D base is N^2 pairwise cells, each block within the
    cell budget; the search over base nodes z took N^3."""
    mesh = grid(0, 0.1, (6, 5))
    zero = FunctionModel.tabulated(mesh, np.zeros(mesh.node_count), norm=MAX)
    N = mesh.node_count
    with cell_budget(100), recorded_pairwise() as calls:
        _product_data(DecoupledSum((zero, zero)), mesh)
        assert max(cells for _, cells in calls) <= geometry.PAIRWISE_CELL_BUDGET
    assert sum(cells for _, cells in calls) == N * N
    assert len(calls) > 1


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


@settings(max_examples=150, deadline=None)
@given(meshes, st.sampled_from(NORMS), st.sampled_from(NORMS), st.data())
def test_robustness_plain_infimum_is_inf_over_region(mesh, norm, ball_norm, data):
    """robustness reads the region's members off its measured d_S, where
    it is 0: its plain infimum is inf_over_region's for a ball in its own
    norm or another, with radius 0, nodes exactly on the shell and an
    infinite radius, and for a predicate region."""
    fv = np.array(data.draw(st.lists(values, min_size=mesh.node_count,
                                     max_size=mesh.node_count)))
    f = FunctionModel.tabulated(mesh, fv, norm=norm)
    keys = [tuple(p) for p in mesh.nodes()]
    center, rim = data.draw(st.lists(st.sampled_from(keys), min_size=2, max_size=2))
    if data.draw(st.booleans()):
        radius = data.draw(st.sampled_from((0.0, ball_norm.dist(rim, center), math.inf)))
        region = Ball(center, radius, ball_norm)
    else:
        region = Predicate(lambda p: tuple(p) in {center, rim})
    plain = robustness(f, region, mesh, LimitConfig()).plain_inf
    assert plain == inf_over_region(f, region, mesh)


def test_robustness_on_a_ball_measures_center_distances_once():
    """The closed-form d_S of a ball gives the robustness report its
    members too: one pairwise call on a 2001-node line."""
    mesh = MeshSpec.line(-1.0, 1.0, 0.001)
    f = FunctionModel.tabulated(mesh, np.abs(mesh.nodes()[:, 0]))
    with recorded_pairwise() as calls:
        report = robustness(f, Ball((0.25,), 0.1), mesh, LimitConfig())
    assert len(calls) == 1
    assert report.plain_inf == inf_over_region(f, Ball((0.25,), 0.1), mesh)


def test_wijsman_verdict_measures_center_distances_once():
    """The lambda rows' uniform infima of f read the sweep's one sorted
    distance order, as the f_n ball infima do: one pairwise call per
    verdict on a 2001-node line (one more per row before)."""
    mesh = MeshSpec.line(-1.0, 1.0, 0.001)
    f = FunctionModel.tabulated(mesh, np.abs(mesh.nodes()[:, 0]))
    seq = FunctionSequence(lambda n: f, box=mesh.box)
    with recorded_pairwise() as calls:
        verdict = wijsman_at_point(seq, f, (0.25,), 0.5, LimitConfig(), mesh)
    assert len(calls) == 1
    assert verdict.holds and len(verdict.witness["rows"]) == 8


def test_slope_and_frechet_tests_measure_node_distances_once():
    """A strong slope measures the node distances once for all its rungs,
    and a Fréchet test reads its liminf quotient off the slope's distances
    and neighbours: one pairwise call each on a 2001-node line (the Fréchet
    test made two before)."""
    mesh = MeshSpec.line(-1.0, 1.0, 0.001)
    f = FunctionModel.tabulated(mesh, np.abs(mesh.nodes()[:, 0]))
    with recorded_pairwise() as calls:
        assert strong_slope(f, (0.25,), mesh, LimitConfig()).value == pytest.approx(1.0)
    assert len(calls) == 1
    with recorded_pairwise() as calls:
        verdict = frechet_membership(f, (0.25,), (1.0,), mesh, LimitConfig())
    assert len(calls) == 1
    assert verdict.holds and verdict.witness["forms_agree"]


# ------------------------------------------- region members and distances

def brute_distances(S, nodes, norm):
    """d_S at every node from scalar distances: a ball's closed form in its
    own norm or on a line, else the least ``norm`` distance to the set's
    own points (a finite set) or to every node the region contains."""
    if isinstance(S, Ball) and (S.norm == norm or nodes.shape[1] == 1):
        return np.array([S.distance(tuple(p)) for p in nodes])
    targets = (S.points.points if isinstance(S, FinitePoints)
               else [tuple(q) for q in nodes if S.contains(tuple(q))])
    return np.array([min((norm.dist(p, q) for q in targets), default=INF) for p in nodes])


def draw_region(data, mesh, norm):
    nodes = mesh.nodes()
    keys = [tuple(p) for p in nodes]
    some = st.lists(st.sampled_from(keys), min_size=1, max_size=4)
    kind = data.draw(st.sampled_from(("ball", "foreign ball", "predicate", "whole",
                                      "points on", "points off", "no points")))
    if kind in ("ball", "foreign ball"):
        own = norm if kind == "ball" else data.draw(
            st.sampled_from([m for m in NORMS if m != norm]))
        center, rim = data.draw(some), data.draw(some)
        # the radius is a node's distance: that node and its mirror images tie
        return Ball(center[0], own.dist(rim[0], center[0]), own)
    if kind == "predicate":
        picked = set(data.draw(st.lists(st.sampled_from(keys), max_size=4)))
        return Predicate(lambda p: tuple(p) in picked)
    if kind == "whole":
        return WholeSpace()
    if kind == "no points":
        return FinitePoints(PointSet.of([], dim=mesh.dim))
    points = data.draw(some)
    if kind == "points off":
        points = [tuple(c + 0.3 * h for c, h in zip(p, mesh.h)) for p in points]
    return FinitePoints(PointSet.of(points))


@settings(max_examples=200, deadline=None)
@given(st.integers(-200, 200), st.sampled_from(STEPS),
       st.integers(1, 3).flatmap(lambda d: st.lists(st.integers(2, 7 - d),
                                                    min_size=d, max_size=d)),
       st.sampled_from(NORMS), st.integers(1, 40), st.data())
def test_region_members_and_distances_match_brute_force(lo_cents, step, counts, norm,
                                                        cells, data):
    """Region.members is contains on every node, and Region.distances is a
    scalar brute force bit for bit, in row blocks of any size, for every
    region kind on 1-D to 3-D meshes in all three norms."""
    mesh = grid(lo_cents, step, counts)
    nodes = mesh.nodes()
    S = draw_region(data, mesh, norm)
    assert S.members(nodes).tolist() == [S.contains(tuple(p)) for p in nodes]
    want = brute_distances(S, nodes, norm)
    if not isinstance(S, FinitePoints) and np.isinf(want).all():
        with pytest.raises(ValueError, match="no mesh node"):
            S.distances(nodes, norm)
        return
    with cell_budget(cells):
        got = S.distances(nodes, norm)
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(meshes, st.sampled_from(NORMS), st.data())
def test_members_are_the_nodes_at_distance_zero(mesh, norm, data):
    """Every region's d_S is 0 exactly at its member nodes, which is how a
    measured d_S gives the members: a ball in its own norm or another, with
    radius 0, nodes on the shell or an infinite radius; the whole space; a
    predicate; a finite point set in the max and taxicab norms, its points
    on nodes or off them by any offset (one a float rounds away, one it
    keeps).  An empty predicate has no members and no d_S, and its plain
    infimum, which measures none, is +inf."""
    nodes = mesh.nodes()
    node = st.sampled_from([tuple(p) for p in nodes])
    kind = data.draw(st.sampled_from(("ball", "whole", "predicate", "points")))
    if kind == "ball":
        center, rim = data.draw(node), data.draw(node)
        own = data.draw(st.sampled_from(NORMS))
        S = Ball(center, data.draw(st.sampled_from((0.0, own.dist(rim, center), math.inf))),
                 own)
    elif kind == "whole":
        S = WholeSpace()
    elif kind == "predicate":
        picked = set(data.draw(st.lists(node, max_size=4)))
        S = Predicate(lambda p: tuple(p) in picked)
        if not picked:
            assert not S.members(nodes).any()
            with pytest.raises(ValueError, match="no mesh node"):
                S.distances(nodes, norm)
            f = FunctionModel.tabulated(mesh, np.zeros(len(nodes)), norm=norm)
            assert plain_infimum(f, S, mesh) == INF
            return
    else:
        norm = data.draw(st.sampled_from((MAX, TAXICAB)))
        offsets = st.sampled_from((0.0, 1e-300, 5e-324, 1e-12, 0.3 * min(mesh.h)))
        points = data.draw(st.lists(node, min_size=1, max_size=4))
        S = FinitePoints(PointSet.of([tuple(c + data.draw(offsets) for c in p)
                                      for p in points]))
    assert S.members(nodes).tolist() == (S.distances(nodes, norm) == 0.0).tolist()


def test_a_finite_point_within_underflow_of_a_node_is_at_distance_zero():
    """The one place where d_S == 0 is wider than membership: a point
    1e-170 from a node, in the Euclidean norm, whose squared offset
    underflows to 0.  The node is no member, but its d_S is 0, so r_S
    counts it, and so does the plain infimum read off the measured d_S."""
    mesh = MeshSpec.line(-1.0, 1.0, 0.5)
    nodes = mesh.nodes()
    S = FinitePoints(PointSet.of([(1e-170,)]))
    assert not S.members(nodes).any()
    assert S.distances(nodes, EUCLIDEAN).tolist() == [1.0, 0.5, 0.0, 0.5, 1.0]
    f = FunctionModel.tabulated(mesh, np.array([5.0, 4.0, 3.0, 2.0, 1.0]))
    report = robustness(f, S, mesh, LimitConfig())
    assert report.r_value == report.plain_inf == 3.0
    assert inf_over_region(f, S, mesh) == plain_infimum(f, S, mesh) == INF
