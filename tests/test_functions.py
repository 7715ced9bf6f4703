"""Function models, epigraph/graph/hypograph sampling, restriction,
region infima, Lipschitz envelopes, gap triples."""

import dataclasses
import math
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epislope import (
    Ball, EUCLIDEAN, MAX, TAXICAB, FunctionModel, INF, LimitConfig, MeshSpec, Predicate,
    PointSet, WholeSpace, catalogue, epi_hypo_gap_triple, gap_distance,
    inf_over_region, pasch_hausdorff, point_set_distance, restrict,
    sample_epigraph, sample_graph, sample_hypograph, slope_stability_witness,
    tabulate, tilt, values_on,
)
from epislope.functions import _check_cloud_size, _check_rung_step
from epislope.geometry import BoxNorm
from epislope.verdict import SLACK


def line(lo=-1.0, hi=1.0, h=0.1):
    return MeshSpec.line(lo, hi, h)


def model(fn, mesh, **kw):
    vals = np.array([fn(float(p[0])) for p in mesh.nodes()])
    return FunctionModel.tabulated(mesh, vals, **kw)


def indicator(pred):
    return lambda x: 0.0 if pred(x) else math.inf


class TestMeshSpec:
    def test_line_nodes_include_endpoints(self):
        m = MeshSpec.line(0.0, 1.0, 0.5)
        assert m.node_count == 3
        np.testing.assert_allclose(m.nodes()[:, 0], [0.0, 0.5, 1.0])

    def test_degenerate_axis_rejected(self):
        with pytest.raises(ValueError):
            MeshSpec.line(0.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            MeshSpec(box=((0.0, 1.0),), h=(-0.1,))

    def test_2d_node_count(self):
        m = MeshSpec(box=((0.0, 1.0), (0.0, 1.0)), h=(0.5, 0.5))
        assert m.node_count == 9
        assert m.nodes().shape == (9, 2)

    def test_nodes_are_one_shared_read_only_array(self):
        m = MeshSpec(box=((0.0, 1.0), (0.0, 1.0)), h=(0.5, 0.5))
        assert m.nodes() is m.nodes()
        with pytest.raises(ValueError):
            m.nodes()[0, 0] = 7.0
        line_nodes = line().nodes()
        with pytest.raises(ValueError):
            line_nodes[:, 0] += 1.0

    def test_slope_witness_builds_each_node_array_once(self, monkeypatch):
        seen = []  # held, so no mesh id is reused while counting
        built = Counter()
        real = MeshSpec.axis_nodes

        def counting(mesh, i):
            seen.append(mesh)
            built[id(mesh), i] += 1
            return real(mesh, i)

        monkeypatch.setattr(MeshSpec, "axis_nodes", counting)
        p = catalogue.get("envelope-of-kink", seed=catalogue.DEFAULT_SEED)
        slope_stability_witness(p["seq_factory"](), p["limit"], p["probe"],
                                p["mesh"], LimitConfig())
        assert built and set(built.values()) == {1}


class TestModels:
    def test_tabulated_rejects_off_node(self):
        m = line(h=0.5)
        f = model(abs, m)
        with pytest.raises(KeyError):
            f((0.3,))
        assert f((0.5,)) == 0.5

    def test_tabulated_rejects_nan_and_minus_inf(self):
        m = line(h=0.5)
        with pytest.raises(ValueError):
            FunctionModel.tabulated(m, np.full(m.node_count, -np.inf))
        with pytest.raises(ValueError):
            FunctionModel.tabulated(m, np.full(m.node_count, np.nan))

    def test_tabulate_passes_a_model_on_its_own_mesh_through(self):
        m = line(h=0.25)
        f = model(lambda x: x * x, m)
        assert tabulate(f, m) is f
        assert tabulate(f, line(h=0.25)) is f  # an equal mesh is the same mesh
        assert values_on(f, m) is f.values

    def test_tabulate_refuses_foreign_mesh(self):
        m = line(h=0.25)
        f = model(abs, m)
        with pytest.raises(ValueError):
            tabulate(f, line(h=0.5))


class TestFiniteExceptionModelsHaveNoMeshValues:
    """A finite-exception model is exact and meshless: the mesh operations
    refuse it instead of evaluating it node by node or wrapping it."""

    EXACT = FunctionModel.finite_exception(default=0, exceptions={((0, 1),): -1})

    def test_tabulate_refuses(self):
        with pytest.raises(ValueError, match="no mesh values"):
            tabulate(self.EXACT, line(h=0.5))

    def test_restrict_refuses(self):
        with pytest.raises(ValueError, match="no mesh values"):
            restrict(self.EXACT, WholeSpace())

    def test_tilt_refuses(self):
        with pytest.raises(ValueError, match="no mesh values"):
            tilt(self.EXACT, (1.0,))


class TestEpigraphSampling:
    def test_constant_zero_nine_points(self):
        m = MeshSpec.line(0.0, 1.0, 0.5)
        f = model(lambda x: 0.0, m)
        cloud = sample_epigraph(f, m, cap=1.0, alpha_step=0.5)
        assert len(cloud) == 9
        expected = {(x, a) for x in (0.0, 0.5, 1.0) for a in (0.0, 0.5, 1.0)}
        assert set(cloud.points) == expected

    def test_abs_coarse_cloud(self):
        m = MeshSpec.line(-1.0, 1.0, 1.0)
        f = model(abs, m)
        cloud = sample_epigraph(f, m, cap=1.0, alpha_step=1.0)
        assert set(cloud.points) == {(-1.0, 1.0), (0.0, 0.0), (0.0, 1.0), (1.0, 1.0)}

    def test_indicator_cloud_confined_to_support(self):
        m = line(h=0.25)
        f = model(indicator(lambda x: abs(x) < 1e-9), m)
        cloud = sample_epigraph(f, m, cap=1.0, alpha_step=0.25)
        assert all(p[0] == 0.0 for p in cloud.points)

    def test_all_inf_flagged(self):
        m = line(h=0.5)
        f = model(lambda x: math.inf, m)
        with pytest.raises(ValueError):
            sample_epigraph(f, m, cap=1.0, alpha_step=0.5)

    def test_graph_of_identity(self):
        m = MeshSpec.line(0.0, 1.0, 0.5)
        f = model(lambda x: x, m)
        g = sample_graph(f, m, cap=1.0)
        assert set(g.points) == {(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)}

    def test_hypograph_of_zero(self):
        m = MeshSpec.line(0.0, 1.0, 0.5)
        f = model(lambda x: 0.0, m)
        hy = sample_hypograph(f, m, cap=1.0, floor=-1.0, alpha_step=1.0)
        expected = {(x, a) for x in (0.0, 0.5, 1.0) for a in (-1.0, 0.0)}
        assert set(hy.points) == expected

    def test_hypograph_refuses_infinite_floor(self):
        m = line(h=0.5)
        f = model(lambda x: 0.0, m)
        with pytest.raises(ValueError):
            sample_hypograph(f, m, cap=1.0, floor=-math.inf, alpha_step=0.5)

    def test_hypograph_refuses_infinite_cap(self):
        m = line(h=0.5)
        f = model(indicator(lambda x: abs(x) < 1e-9), m)
        with pytest.raises(ValueError):
            sample_hypograph(f, m, cap=math.inf, floor=-1.0, alpha_step=0.5)

    def test_epigraph_refuses_a_step_below_the_float_spacing(self):
        # 1.0 + 1e-17 == 1.0: the ladder would never reach the cap
        m = MeshSpec.line(0.0, 1.0, 1.0)
        f = model(lambda x: 1.0, m)
        with pytest.raises(ValueError, match="alpha_step"):
            sample_epigraph(f, m, cap=2.0, alpha_step=1e-17)

    def test_hypograph_refuses_a_step_below_the_float_spacing(self):
        m = MeshSpec.line(0.0, 1.0, 1.0)
        f = model(lambda x: 1.0, m)
        with pytest.raises(ValueError, match="alpha_step"):
            sample_hypograph(f, m, cap=2.0, floor=0.0, alpha_step=1e-17)

    def test_epigraph_refuses_a_ladder_over_the_point_budget(self):
        # (2 - 1) / 1e-9 rungs on each of 2 nodes: refused before any point
        m = MeshSpec.line(0.0, 1.0, 1.0)
        f = model(lambda x: 1.0, m)
        with pytest.raises(ValueError, match="2000000002 points"):
            sample_epigraph(f, m, cap=2.0, alpha_step=1e-9)

    def test_hypograph_refuses_a_ladder_over_the_point_budget(self):
        m = MeshSpec.line(0.0, 1.0, 1.0)
        f = model(lambda x: 1.0, m)
        with pytest.raises(ValueError, match="2000000002 points"):
            sample_hypograph(f, m, cap=2.0, floor=0.0, alpha_step=1e-9)

    def test_cloud_cap_is_its_own_not_the_pairwise_block_size(self):
        # 2^19 rungs above each of 2 nodes, each ladder closed by one more
        # rung: 2^20 + 2 points are refused, about 10^5 (well above one
        # pairwise block of 2^16 cells) are sampled
        m = MeshSpec.line(0.0, 1.0, 1.0)
        f = model(lambda x: 1.0, m)
        with pytest.raises(ValueError, match="1048578 points"):
            sample_epigraph(f, m, cap=2.0, alpha_step=2.0 ** -19)
        with pytest.raises(ValueError, match="1048578 points"):
            sample_hypograph(f, m, cap=1.0, floor=0.0, alpha_step=2.0 ** -19)
        cloud = sample_epigraph(f, m, cap=2.0, alpha_step=2.0 ** -16)
        assert len(cloud) == 2 * (2 ** 16 + 1) > 2 ** 16

    def test_epigraph_points_above_graph(self):
        m = line(h=0.2)
        f = model(lambda x: x * x, m)
        cloud = sample_epigraph(f, m, cap=2.0, alpha_step=0.2)
        for p in cloud.points:
            assert f((p[0],)) <= p[1] + 1e-12 and p[1] <= 2.0 + 1e-12


def reference_epigraph(f, mesh, cap, alpha_step):
    """The per-node tuple loop that the array ladders replaced, kept here
    as their reference: rungs by ``a += alpha_step``, deduplicated by
    ``PointSet.of``."""
    if not math.isfinite(cap):
        raise ValueError("cap must be finite")
    vals = values_on(f, mesh)
    _check_rung_step(alpha_step, min(float(vals.min()), cap), cap + SLACK)
    _check_cloud_size(cap + SLACK - vals[vals <= cap], alpha_step)
    pts = []
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


def reference_graph(f, mesh, cap):
    pts = []
    for p, v in zip(mesh.nodes(), values_on(f, mesh)):
        if np.isfinite(v) and v <= cap:
            pts.append(tuple(p) + (float(v),))
    if not pts:
        raise ValueError("empty graph sample")
    return PointSet.of(pts, norm=BoxNorm(base=f.norm, base_dim=mesh.dim))


def reference_hypograph(f, mesh, cap, floor, alpha_step):
    if not (math.isfinite(cap) and math.isfinite(floor)):
        raise ValueError("cap and floor must be finite")
    _check_rung_step(alpha_step, cap, floor - SLACK)
    vals = values_on(f, mesh)
    _check_cloud_size(np.minimum(vals, cap) - (floor - SLACK), alpha_step)
    pts = []
    for p, v in zip(mesh.nodes(), vals):
        top = cap if not np.isfinite(v) else min(float(v), cap)
        a = top
        while a >= floor - SLACK:
            pts.append(tuple(p) + (max(a, floor),))
            a -= alpha_step
    if not pts:
        raise ValueError("empty hypograph sample")
    return PointSet.of(pts, norm=BoxNorm(base=f.norm, base_dim=mesh.dim))


def cloud_or_refusal(sampler, *args):
    """(array bytes, shape, norm) of a sampled cloud, or the refusal's text."""
    try:
        cloud = sampler(*args)
    except ValueError as error:
        return str(error)
    return cloud.array.tobytes(), cloud.array.shape, cloud.norm


@st.composite
def ladder_cases(draw):
    """(f, g, mesh, cap, floor, alpha_step) on a 1-D or 2-D max or taxicab
    mesh.  Values hold +inf, -0.0, nodes above cap and ties with cap and
    floor.  ``coarse`` steps leave every rung apart; ``fine`` steps lie
    between the float spacing and SLACK, so the rungs past cap (or below
    floor) clamp onto it and repeat; ``tall`` puts one tall ladder among
    one-rung ladders."""
    counts = draw(st.one_of(st.lists(st.integers(2, 9), min_size=1, max_size=1),
                            st.lists(st.integers(2, 4), min_size=2, max_size=2)))
    mesh = MeshSpec(box=tuple((-0.25, 0.25 * (c - 2)) for c in counts),
                    h=(0.25,) * len(counts))
    norm = draw(st.sampled_from((MAX, TAXICAB)))
    cap = draw(st.sampled_from((-0.5, 0.0, 1.0, 2.5)))
    kind = draw(st.sampled_from(("coarse", "fine", "tall")))
    if kind == "coarse":
        step = draw(st.sampled_from((0.05, 0.1, 0.25, 1.0 / 3.0, 0.7)))
        floor = cap - draw(st.sampled_from((0.0, 0.5, 1.0, 2.0)))
        value = st.one_of(st.sampled_from((math.inf, -0.0, 0.0, cap, floor, cap + 1.0)),
                          st.floats(floor - 1.0, cap + 1.0))
    elif kind == "fine":
        step = draw(st.sampled_from((1e-15, 3.3e-14, 2.5e-13)))
        floor = cap - step * draw(st.integers(0, 40))
        value = st.one_of(st.sampled_from((math.inf, cap + 1.0, floor - 1.0)),
                          st.integers(-60, 60).map(lambda k: cap - k * step))
    else:
        step = draw(st.sampled_from((0.01, 0.03)))
        low = cap - step * draw(st.integers(20, 300))
        floor = draw(st.sampled_from((cap, low)))
        value = st.sampled_from((cap, floor))
    tables = [np.array(draw(st.lists(value, min_size=mesh.node_count,
                                     max_size=mesh.node_count)))
              for _ in range(2)]
    if kind == "tall":
        tables[0][draw(st.integers(0, mesh.node_count - 1))] = low
    f, g = (FunctionModel.tabulated(mesh, t, norm=norm) for t in tables)
    return f, g, mesh, cap, floor, step


class TestLadderParity:
    @given(ladder_cases())
    @settings(max_examples=300, deadline=None)
    def test_clouds_are_the_reference_loops_bit_for_bit(self, case):
        f, _, mesh, cap, floor, step = case
        pairs = [((sample_epigraph, reference_epigraph), (f, mesh, cap, step)),
                 ((sample_graph, reference_graph), (f, mesh, cap)),
                 ((sample_hypograph, reference_hypograph), (f, mesh, cap, floor, step))]
        for (sampler, reference), args in pairs:
            assert cloud_or_refusal(sampler, *args) == cloud_or_refusal(reference, *args)

    @given(ladder_cases())
    @settings(max_examples=100, deadline=None)
    def test_sampled_gap_triple_is_the_reference_bit_for_bit(self, case):
        f, g, mesh, cap, floor, step = case
        try:
            # sampled in the triple's order, so that the first refusal is its
            epi_f = reference_epigraph(f, mesh, cap, step)
            graph_f = reference_graph(f, mesh, cap)
            hypo_g = reference_hypograph(g, mesh, cap, floor, step)
            graph_g = reference_graph(g, mesh, cap)
            want = (gap_distance(hypo_g, epi_f), gap_distance(hypo_g, graph_f),
                    gap_distance(graph_g, epi_f))
        except ValueError as error:
            with pytest.raises(ValueError, match=re.escape(str(error))):
                epi_hypo_gap_triple(f, g, mesh, cap, floor, step)
            return
        got = epi_hypo_gap_triple(f, g, mesh, cap, floor, step)
        assert [float(v).hex() for v in got] == [float(v).hex() for v in want]

    def test_rungs_clamped_onto_cap_or_floor_are_one_point(self):
        # 1e-14 lies between the float spacing at 1 and SLACK: about 100
        # rungs of each ladder fall in (cap, cap + SLACK], all clamped to cap
        m = MeshSpec.line(0.0, 1.0, 1.0)
        f = model(lambda x: 1.0, m)
        epi = sample_epigraph(f, m, cap=1.0, alpha_step=1e-14)
        assert epi.points == ((0.0, 1.0), (1.0, 1.0))
        hypo = sample_hypograph(f, m, cap=1.0, floor=1.0, alpha_step=1e-14)
        assert hypo.points == ((0.0, 1.0), (1.0, 1.0))


def traced_peak(fn):
    """(result, peak bytes that numpy and Python allocated during fn)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Peak bytes per point of one sampled 1-D cloud.  The cloud itself is 16 B
# per point; the tuple loop peaked near 200 (a tuple, two float objects, a
# list slot and a dict entry per point, before the array).
CLOUD_BYTES_PER_POINT = 96


class TestCloudMemory:
    def test_a_fine_epigraph_peaks_within_its_per_point_bound(self):
        m = MeshSpec.line(-1.0, 1.0, 0.01)
        f = model(abs, m)
        m.nodes()  # the mesh's shared node array is not the sampler's
        cloud, peak = traced_peak(lambda: sample_epigraph(f, m, cap=2.0, alpha_step=2.0 ** -10))
        assert len(cloud) == 308_329
        assert peak <= CLOUD_BYTES_PER_POINT * len(cloud)

    def test_one_tall_ladder_among_one_rung_ladders_is_not_a_rectangle(self):
        # 10^4 ladders of one rung and one of 2001: a nodes x longest-ladder
        # rectangle would be 10^4 x 2001 cells, 160 MB
        m = MeshSpec.line(0.0, 1.0, 1e-4)
        vals = np.full(m.node_count, 1.0)
        vals[5000] = 1.0 - 2000 * 2.0 ** -10
        f = FunctionModel.tabulated(m, vals)
        m.nodes()
        cloud, peak = traced_peak(lambda: sample_epigraph(f, m, cap=1.0, alpha_step=2.0 ** -10))
        assert len(cloud) == 10_000 + 2001
        assert peak <= CLOUD_BYTES_PER_POINT * len(cloud)


class TestRestrictAndInf:
    def test_restrict_whole_space_is_identity(self):
        m = line(h=0.5)
        f = model(abs, m)
        g = restrict(f, WholeSpace())
        for p in m.nodes():
            assert g(tuple(p)) == f(tuple(p))

    def test_restrict_singleton(self):
        m = line(h=0.5)
        f = model(lambda x: 0.0, m)
        g = restrict(f, Ball((0.0,), 0.0))
        assert g((1.0,)) == INF
        assert g((0.0,)) == 0.0

    def test_restrict_interval(self):
        m = MeshSpec.line(0.0, 1.0, 0.25)
        f = model(lambda x: x, m)
        g = restrict(f, Predicate(lambda p: 0.0 <= p[0] <= 1.0))
        assert g((0.5,)) == 0.5

    def test_restrict_is_f_on_the_members_and_inf_elsewhere(self):
        m = line(h=0.1)
        f = model(lambda x: x * x, m, norm=MAX)
        S = Ball((0.2,), 0.3)
        g = restrict(f, S)
        assert g.mesh is m and g.norm == MAX
        np.testing.assert_array_equal(g.values,
                                      np.where(S.members(m.nodes()), f.values, INF))

    def test_inf_quadratic_over_ball(self):
        m = line(h=0.1)
        f = model(lambda x: x * x, m)
        assert inf_over_region(f, Ball((0.0,), 1.0), m) == 0.0

    def test_inf_indicator_over_shifted_ball(self):
        m = line(h=0.1)
        f = model(indicator(lambda x: abs(x) < 1e-9), m)
        assert inf_over_region(f, Ball((0.5,), 1.0), m) == 0.0

    def test_inf_identity_over_interval(self):
        m = MeshSpec.line(0.0, 1.0, 0.1)
        f = model(lambda x: x, m)
        region = Predicate(lambda p: 0.3 - 1e-9 <= p[0] <= 0.9 + 1e-9)
        assert inf_over_region(f, region, m) == pytest.approx(0.3, abs=1e-12)

    def test_inf_over_empty_region_is_inf(self):
        m = line(h=0.1)
        f = model(lambda x: x, m)
        assert inf_over_region(f, Predicate(lambda p: False), m) == INF


class TestLipschitzEnvelope:
    def test_envelope_of_indicator_is_scaled_distance(self):
        m = line(h=0.1)
        support = [(-0.5,), (0.5,)]
        f = model(indicator(lambda x: any(abs(x - s[0]) < 1e-9 for s in support)), m)
        S = PointSet.of(support)
        for n in (1.0, 2.0, 3.5):
            env = pasch_hausdorff(f, n, m)
            for p, v in zip(m.nodes(), env.values):
                assert v == pytest.approx(n * point_set_distance(tuple(p), S),
                                          abs=1e-9)

    def test_abs_is_fixed_point_for_n_at_least_one(self):
        m = line(h=0.1)
        f = model(abs, m)
        for n in (1.0, 2.0, 8.0):
            env = pasch_hausdorff(f, n, m)
            np.testing.assert_allclose(env.values, f.values, atol=1e-12)

    def test_indicator_origin_value(self):
        m = line(h=0.25)
        f = model(indicator(lambda x: abs(x) < 1e-9), m)
        env = pasch_hausdorff(f, 2.0, m)
        assert env((0.5,)) == pytest.approx(1.0, abs=1e-12)

    def test_all_inf_rejected(self):
        m = line(h=0.5)
        f = model(lambda x: math.inf, m)
        with pytest.raises(ValueError):
            pasch_hausdorff(f, 1.0, m)

    @pytest.mark.parametrize("n", [0.0, -1.0, math.inf, math.nan])
    def test_n_outside_the_positive_reals_rejected(self, n):
        m = line(h=0.5)
        with pytest.raises(ValueError, match="n must be positive and finite"):
            pasch_hausdorff(model(abs, m), n, m)

    @pytest.mark.parametrize("norm,mesh", [
        (EUCLIDEAN, line(h=0.1)),
        (TAXICAB, MeshSpec(box=((0.0, 1.0), (0.0, 0.5)), h=(0.25, 0.125))),
        (MAX, MeshSpec(box=((0.0, 1.0), (0.0, 1.0)), h=(0.25, 0.25))),
        (EUCLIDEAN, MeshSpec(box=((0.0, 1.0), (0.0, 1.0)), h=(0.25, 0.25))),
    ])
    def test_envelope_model_is_the_tabulated_one(self, norm, mesh):
        """Every kernel's envelope is built as FunctionModel.tabulated builds
        it from the same values, field by field."""
        rng = np.random.default_rng(7)
        vals = rng.uniform(-1.0, 1.0, mesh.node_count)
        vals[::3] = math.inf
        f = FunctionModel.tabulated(mesh, vals, norm=norm, name="f")
        env = pasch_hausdorff(f, 2.5, mesh)
        want = FunctionModel.tabulated(mesh, env.values, norm=norm, lipschitz_hint=2.5,
                                       name="f▽2.5||.||")
        for fld in dataclasses.fields(FunctionModel):
            got, ref = getattr(env, fld.name), getattr(want, fld.name)
            if fld.name == "values":
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
            else:
                assert got == ref, fld.name

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_lipschitz_bound_and_monotonicity(self, seed):
        rng = np.random.default_rng(seed)
        m = line(h=0.1)
        vals = rng.uniform(-2.0, 2.0, size=m.node_count)
        f = FunctionModel.tabulated(m, vals)
        nodes = m.nodes()[:, 0]
        prev = None
        for n in (1.0, 2.0, 3.0):
            env = pasch_hausdorff(f, n, m).values
            diffs = np.abs(env[:, None] - env[None, :])
            gaps = n * np.abs(nodes[:, None] - nodes[None, :])
            assert (diffs <= gaps + 1e-9).all()
            assert (env <= vals + 1e-12).all()
            if prev is not None:
                assert (prev <= env + 1e-12).all()
            prev = env


class TestGapTriple:
    def test_constant_one_versus_zero(self):
        m = MeshSpec.line(0.0, 1.0, 0.25)
        f = model(lambda x: 1.0, m)
        g = model(lambda x: 0.0, m)
        exact = epi_hypo_gap_triple(f, g, m, cap=2.0, floor=-1.0,
                                    alpha_step=0.25, exact=True)
        assert exact == (1.0, 1.0, 1.0)
        sampled = epi_hypo_gap_triple(f, g, m, cap=2.0, floor=-1.0,
                                      alpha_step=0.25)
        for v in sampled:
            assert v == pytest.approx(1.0, abs=1e-12)

    def test_equal_functions_gap_zero(self):
        m = line(h=0.25)
        f = model(lambda x: x * x, m)
        triple = epi_hypo_gap_triple(f, f, m, cap=2.0, floor=-1.0,
                                     alpha_step=0.25, exact=True)
        assert triple == (0.0, 0.0, 0.0)

    def test_horizontal_separation(self):
        mf = MeshSpec.line(2.0, 3.0, 0.5)
        mg = MeshSpec.line(0.0, 1.0, 0.5)
        f = model(lambda x: 0.0, mf)
        g = model(lambda x: 0.0, mg)
        graph_g = sample_graph(g, mg, cap=1.0)
        epi_f = sample_epigraph(f, mf, cap=1.0, alpha_step=0.5)
        assert gap_distance(graph_g, epi_f) == pytest.approx(1.0, abs=1e-12)

    def test_exact_triple_handles_inf_nodes(self):
        m = line(h=0.25)
        f = model(indicator(lambda x: x >= 0.0), m)
        g = model(lambda x: -1.0, m)
        triple = epi_hypo_gap_triple(f, g, m, cap=2.0, floor=-2.0,
                                     alpha_step=0.25, exact=True)
        assert triple[0] == triple[1] == triple[2]
        assert triple[0] == pytest.approx(1.0, abs=1e-12)
