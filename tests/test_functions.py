"""Function models, epigraph/graph/hypograph sampling, restriction,
region infima, inf-convolution, Lipschitz envelopes, gap triples."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epislope import (
    Ball, EUCLIDEAN, FunctionModel, INF, MeshSpec, Predicate, PointSet,
    WholeSpace, epi_hypo_gap_triple, gap_distance, inf_convolution,
    inf_over_region, pasch_hausdorff, point_set_distance, restrict,
    sample_epigraph, sample_graph, sample_hypograph, tabulate, values_on,
)


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

    def test_analytic_tabulate_roundtrip(self):
        m = line(h=0.25)
        f = FunctionModel.analytic(lambda x: x[0] ** 2, m.box)
        t = tabulate(f, m)
        np.testing.assert_allclose(t.values, values_on(f, m))

    def test_tabulate_refuses_foreign_mesh(self):
        m = line(h=0.25)
        f = model(abs, m)
        with pytest.raises(ValueError):
            tabulate(f, line(h=0.5))


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

    def test_epigraph_points_above_graph(self):
        m = line(h=0.2)
        f = model(lambda x: x * x, m)
        cloud = sample_epigraph(f, m, cap=2.0, alpha_step=0.2)
        for p in cloud.points:
            assert f((p[0],)) <= p[1] + 1e-12 and p[1] <= 2.0 + 1e-12


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


class TestInfConvolution:
    def test_indicator_origin_is_identity_element(self):
        m = line(h=0.25)
        f = model(lambda x: x * x, m)
        delta0 = FunctionModel.analytic(
            lambda x: 0.0 if abs(x[0]) < 1e-9 else math.inf, m.box)
        conv = inf_convolution(f, delta0, m)
        np.testing.assert_allclose(conv.values, f.values)

    def test_indicator_points_add(self):
        m = line(h=0.25)
        a, b = 0.25, -0.5
        fa = model(indicator(lambda x: abs(x - a) < 1e-9), m)
        gb = FunctionModel.analytic(
            lambda x: 0.0 if abs(x[0] - b) < 1e-9 else math.inf, m.box)
        conv = inf_convolution(fa, gb, m)
        for p, v in zip(m.nodes(), conv.values):
            expected = 0.0 if abs(p[0] - (a + b)) < 1e-9 else math.inf
            assert v == expected

    def test_abs_with_abs_is_abs(self):
        m = line(h=0.25)
        f = model(abs, m)
        g = FunctionModel.analytic(lambda x: abs(x[0]), m.box)
        conv = inf_convolution(f, g, m)
        np.testing.assert_allclose(conv.values, np.abs(m.nodes()[:, 0]), atol=1e-12)

    def test_commutative_on_symmetric_mesh(self):
        m = line(h=0.25)
        f = model(abs, m)
        fa = FunctionModel.analytic(lambda x: abs(x[0]), m.box)
        g = model(lambda x: x * x, m)
        ga = FunctionModel.analytic(lambda x: x[0] ** 2, m.box)
        left = inf_convolution(f, ga, m)
        right = inf_convolution(g, fa, m)
        np.testing.assert_allclose(left.values, right.values, atol=1e-12)


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
