"""Uniform infima, penalty limits, robustness, and the exact sparse
counterexample where the uniform infimum sits strictly below the plain one."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epislope import (
    Ball, EUCLIDEAN, FinitePoints, FunctionModel, FunctionSequence, INF, LimitConfig, MAX,
    MeshSpec, Norm, PenaltySpec, PointSet, Predicate, Status, TAXICAB, WholeSpace,
    carac_W_bridge, convergence, nogoodlsc, penalty_limit, penalty_value, plain_infimum,
    restrict, robustness, uniform_infimum, values_on, wijsman_at_point,
)
from epislope.uniforminf import _NO_NODE, _MeshLayers, _NodesBelow, _sup_inf, _sup_of_rungs
from epislope.verdict import InvariantError, decide, margin

CFG = LimitConfig()
# ladder whose smallest rung (1/32) keeps the sparse model's truncation
# bound affordable in the exact tests
EXACT_CFG = LimitConfig(delta_ladder=tuple(0.5 / 2 ** k for k in range(5)))
COARSE_DELTAS = LimitConfig(delta_ladder=(0.5, 0.25, 0.125))


def line(h=0.01):
    return MeshSpec.line(-1.0, 1.0, h)


def tabmodel(fn, mesh, **kw):
    vals = np.array([fn(float(p[0])) for p in mesh.nodes()])
    return FunctionModel.tabulated(mesh, vals, **kw)


def brute_uniform_infimum(f, S, mesh, cfg):
    """Independent double loop over (delta, nodes)."""
    best = None
    for delta in cfg.delta_ladder:
        inf_d = INF
        for p in mesh.nodes():
            d = S.distance(tuple(p))
            if d <= delta:
                v = f(tuple(p))
                if v < inf_d:
                    inf_d = float(v)
        best = inf_d if best is None else max(best, inf_d)
    return best


class TestUniformInfimum:
    def test_continuous_function_at_origin(self):
        mesh = line(h=1e-3)
        f = tabmodel(lambda x: x * x, mesh)
        assert uniform_infimum(f, Ball((0.0,), 0.0), mesh, CFG) == 0.0

    def test_matches_brute_force_on_random_instances(self):
        mesh = line(h=0.05)
        rng = np.random.default_rng(7)
        for _ in range(5):
            vals = rng.uniform(-2.0, 2.0, size=mesh.node_count)
            vals[rng.integers(0, mesh.node_count, size=5)] = math.inf
            f = FunctionModel.tabulated(mesh, vals)
            S = Ball((float(rng.uniform(-0.5, 0.5)),), 0.25)
            assert uniform_infimum(f, S, mesh, CFG) == \
                brute_uniform_infimum(f, S, mesh, CFG)

    def test_region_must_meet_the_ladder(self):
        mesh = line(h=0.1)
        f = tabmodel(lambda x: x, mesh)
        with pytest.raises(ValueError):
            uniform_infimum(f, Ball((9.0,), 0.1), mesh, CFG)

    def test_never_exceeds_plain_infimum(self):
        mesh = line(h=0.05)
        rng = np.random.default_rng(11)
        for _ in range(5):
            f = FunctionModel.tabulated(
                mesh, rng.uniform(-1.0, 1.0, size=mesh.node_count))
            S = Ball((0.0,), float(rng.uniform(0.1, 0.8)))
            r = uniform_infimum(f, S, mesh, CFG)
            assert r <= plain_infimum(f, S, mesh) + CFG.tol


class TestPenaltyValue:
    def test_linear_function_point_region(self):
        mesh = line(h=0.01)
        f = tabmodel(lambda x: x, mesh)
        spec = PenaltySpec(p=1.0)
        v = penalty_value(f, Ball((0.0,), 0.0), 2.0, spec, mesh)
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_indicator_of_region_is_zero(self):
        mesh = line(h=0.01)
        S = Ball((0.0,), 0.25)
        f = tabmodel(lambda x: 0.0 if abs(x) <= 0.25 + 1e-9 else math.inf, mesh)
        spec = PenaltySpec()
        for n in (1.0, 8.0, 256.0):
            assert penalty_value(f, S, n, spec, mesh) == 0.0

    def test_constant_function(self):
        mesh = line(h=0.01)
        f = tabmodel(lambda x: 3.25, mesh)
        spec = PenaltySpec()
        for n in (1.0, 64.0):
            assert penalty_value(f, Ball((0.3,), 0.1), n, spec, mesh) == 3.25

    def test_order_independence_of_the_schedule(self):
        mesh = line(h=0.02)
        f = tabmodel(lambda x: x * abs(x), mesh)
        S = Ball((0.25,), 0.1)
        spec = PenaltySpec()
        forward = [penalty_value(f, S, n, spec, mesh) for n in spec.n_schedule]
        shuffled = list(spec.n_schedule)
        random.Random(3).shuffle(shuffled)
        scrambled = {n: penalty_value(f, S, n, spec, mesh) for n in shuffled}
        assert forward == [scrambled[n] for n in spec.n_schedule]
        assert forward == sorted(forward)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            PenaltySpec(p=0.0)
        with pytest.raises(ValueError):
            PenaltySpec(n_schedule=(4.0, 2.0))

    @pytest.mark.parametrize("kwargs,named", [
        ({"p": math.inf}, "exponent p"), ({"p": math.nan}, "exponent p"),
        ({"n_schedule": ()}, "n_schedule"), ({"n_schedule": (1.0, math.inf)}, "n_schedule"),
        ({"n_schedule": (1.0, math.nan)}, "n_schedule"),
    ], ids=["p-inf", "p-nan", "schedule-empty", "schedule-inf", "schedule-nan"])
    def test_non_finite_spec_is_refused(self, kwargs, named):
        # p = inf reported Holds; an inf or NaN multiplier made the penalty
        # limit NaN, with a NaN margin
        with pytest.raises(ValueError, match=named):
            PenaltySpec(**kwargs)


class TestPenaltyLimit:
    def test_quadratic_at_origin_holds(self):
        mesh = line(h=1e-3)
        f = tabmodel(lambda x: x * x, mesh)
        value, verdict = penalty_limit(f, Ball((0.0,), 0.0), PenaltySpec(),
                                       mesh, CFG)
        assert verdict.holds
        assert value == pytest.approx(0.0, abs=1e-3)

    def test_exponent_choice_does_not_change_the_limit(self):
        mesh = line(h=1e-3)
        f = tabmodel(abs, mesh)
        for p in (1.0, 2.0):
            value, verdict = penalty_limit(f, Ball((0.0,), 0.0),
                                           PenaltySpec(p=p), mesh, CFG)
            assert verdict.holds
            assert value == pytest.approx(0.0, abs=1e-3)

    def test_verdict_carries_the_schedule(self):
        mesh = line(h=0.01)
        f = tabmodel(lambda x: x * x, mesh)
        _, verdict = penalty_limit(f, Ball((0.0,), 0.25), PenaltySpec(p=2.0),
                                   mesh, CFG)
        assert verdict.schedules["p"] == 2.0
        assert verdict.witness["penalty_values"]


class TestRobustness:
    def test_continuous_function_is_robust(self):
        mesh = line(h=1e-3)
        f = tabmodel(lambda x: x * x, mesh)
        rep = robustness(f, Ball((0.0,), 0.5), mesh, CFG)
        assert rep.robust and rep.gap == pytest.approx(0.0, abs=CFG.tol)

    def test_mutual_infinity_counts_as_equal(self):
        mesh = line(h=0.1)
        f = tabmodel(lambda x: 0.0 if abs(x) < 1e-9 else math.inf, mesh)
        rep = robustness(f, Ball((1.0,), 0.0), mesh, CFG)
        assert rep.plain_inf == INF and rep.robust

    def test_sparse_counterexample_is_not_robust(self):
        f = nogoodlsc(N=3, I=96, delta_min=1.0 / 32.0)
        S = Ball(center=(0.0,) * 96, radius=Fraction(1, 2))
        rep = robustness(f, S, None, EXACT_CFG)
        assert rep.r_value == Fraction(-1, 2)
        assert rep.plain_inf == Fraction(-1, 3)
        assert not rep.robust
        assert rep.gap == Fraction(1, 6)

    def test_gap_inside_the_band_is_inconclusive(self):
        # r = -0.02 (the node 0.01 lies in every delta-neighbourhood), inf = 0
        f = tabmodel(lambda x: -0.02 if abs(x - 0.01) < 1e-9 else 0.0, line())
        rep = robustness(f, Ball((0.0,), 0.0099), line(), CFG)
        assert rep.gap == pytest.approx(0.02)
        assert rep.verdict.status is Status.INCONCLUSIVE
        assert rep.verdict.margin == rep.gap
        assert not rep.robust


class TestSparseCounterexample:
    def test_exact_values_at_marked_points(self):
        f = nogoodlsc(N=1, I=64, delta_min=1.0 / 32.0)
        x = [0.0] * 64
        x[1] = 1.0          # e_2 / 1
        x[0] = 0.5          # e_1 / 2
        assert f(x) == Fraction(-1, 1)
        assert f([0.0] * 64) == 0

    def test_marked_points_sit_strictly_outside_their_ball(self):
        for n in (1, 2, 3):
            for i in (2, 5, 50):
                nsq = Fraction(1, n * n) + Fraction(1, (i * n) ** 2)
                assert nsq > Fraction(1, n * n)

    def test_truncation_bound_enforced(self):
        with pytest.raises(ValueError, match="need I >="):
            nogoodlsc(N=5, I=64, delta_min=1.0 / 32.0)
        with pytest.raises(ValueError):
            nogoodlsc(N=0, I=64, delta_min=0.5)

    def test_uniform_versus_plain_infimum_table(self):
        # inf over B_{1/n}(0) needs the value layer n+1, so build one deeper
        f = nogoodlsc(N=4, I=128, delta_min=1.0 / 32.0)
        for n in (1, 2, 3):
            S = Ball(center=(0.0,) * 128, radius=Fraction(1, n))
            assert uniform_infimum(f, S, None, EXACT_CFG) == Fraction(-1, n)
            assert plain_infimum(f, S, None) == Fraction(-1, n + 1)

    @pytest.mark.parametrize("N, I", [(1, 2), (1, 32), (3, 96), (4, 200)])
    def test_exceptions_match_the_sorted_dict_build(self, N, I):
        """Same points, values, value types and order as building each
        point from a dict of its two coordinates through sorted()."""
        want = []
        for n in range(1, N + 1):
            for i in range(2, I + 1):
                pt = tuple(sorted({0: Fraction(1, i * n), i - 1: Fraction(1, n)}.items()))
                want.append((pt, Fraction(-1, n)))
        got = list(nogoodlsc(N=N, I=I, delta_min=N / I).exceptions.items())
        assert got == want
        assert all(type(c) is Fraction for pt, v in got for _, c in pt + ((0, v),))

    def test_exact_region_requirements(self):
        f = nogoodlsc(N=1, I=64, delta_min=1.0 / 32.0)
        with pytest.raises(ValueError):
            uniform_infimum(f, WholeSpace(), None, EXACT_CFG)


class TestPenaltyWijsmanBridge:
    def test_continuous_function_small_ball(self):
        mesh = line(h=0.05)
        f = tabmodel(lambda x: x * x, mesh, lipschitz_hint=2.0)
        ineq, wij = carac_W_bridge(f, Ball((0.0,), 0.25), (0.0,), 1.0, mesh, CFG)
        assert ineq.holds and wij.holds

    def test_whole_box_region_trivial(self):
        mesh = line(h=0.05)
        f = tabmodel(abs, mesh, lipschitz_hint=1.0)
        ineq, wij = carac_W_bridge(f, WholeSpace(), (0.0,), 1.0, mesh, CFG)
        assert ineq.holds and wij.holds

    def test_decisive_statuses_agree(self):
        mesh = line(h=0.05)
        rng = np.random.default_rng(5)
        for _ in range(3):
            f = FunctionModel.tabulated(
                mesh, rng.uniform(0.0, 1.0, size=mesh.node_count))
            ineq, wij = carac_W_bridge(f, Ball((0.0,), 0.25), (0.0,), 1.0,
                                       mesh, CFG)
            if ineq.decisive and wij.decisive:
                assert ineq.status is wij.status


def wijsman_or_refusal(*args, **kwargs):
    """``wijsman_at_point``, or the type of the error it raises."""
    try:
        return wijsman_at_point(*args, **kwargs)
    except (ValueError, KeyError) as error:
        return type(error)


def reference_bridge(f, S, x, p, mesh, cfg):
    """``carac_W_bridge`` as two evaluators per lambda: r of f_S over the
    ball B_lam(x) in the model's norm, and r_S of f restricted to it; the
    Wijsman side from f + n d_S^p tabulated afresh."""
    f_S = restrict(f, S)
    rows = []
    for lam in cfg.radius_ladder:
        ball = Ball(tuple(float(c) for c in x), lam, f.norm)
        lhs = uniform_infimum(f_S, ball, mesh, cfg)
        rhs = uniform_infimum(restrict(f, ball), S, mesh, cfg)
        rows.append((lam, lhs, rhs, margin(lhs, rhs)))
    worst = min(row[3] for row in rows)
    dist = S.distances(mesh.nodes(), f.norm)
    values = values_on(f, mesh)
    seq = FunctionSequence(
        lambda n: FunctionModel.tabulated(mesh, values + n * dist ** p, norm=f.norm),
        box=mesh.box, norm=f.norm)
    wij = wijsman_or_refusal(seq, f_S, x, 2 * max(cfg.radius_ladder), cfg, mesh)
    return rows, decide(-worst, cfg.tol, cfg.decision_band), worst, wij


def hexed(rows):
    return [tuple(float(v).hex() for v in row) for row in rows]


bridge_meshes = st.builds(
    lambda lo, step, counts: MeshSpec(
        box=tuple((lo / 100.0, lo / 100.0 + step * (c - 1)) for c in counts),
        h=(step,) * len(counts)),
    st.integers(-100, 100), st.sampled_from((0.05, 0.1, 0.25)),
    st.lists(st.integers(2, 7), min_size=1, max_size=2))


@settings(max_examples=150, deadline=None)
@given(bridge_meshes, st.sampled_from((EUCLIDEAN, MAX, TAXICAB)),
       st.sampled_from((0.5, 1.0, 2.0)), st.data())
def test_bridge_rows_are_the_per_lambda_evaluators(mesh, norm, p, data):
    """The bridge reads both sides of every lambda row off one evaluator:
    each row is float.hex-equal to two per-lambda evaluators, the statuses,
    margins and Wijsman verdicts agree, and where the evaluators refuse,
    the bridge refuses with a ValueError too."""
    nodes = mesh.nodes()
    keys = [tuple(q) for q in nodes]
    fv = np.array(data.draw(st.lists(
        st.one_of(st.floats(-10.0, 10.0), st.just(math.inf)),
        min_size=mesh.node_count, max_size=mesh.node_count)))
    f = FunctionModel.tabulated(mesh, fv, norm=norm)
    kind = data.draw(st.sampled_from(("ball", "foreign ball", "whole", "predicate",
                                      "points")))
    some = st.lists(st.sampled_from(keys), min_size=1, max_size=3)
    if kind in ("ball", "foreign ball"):
        own = norm if kind == "ball" else data.draw(
            st.sampled_from([m for m in (EUCLIDEAN, MAX, TAXICAB) if m != norm]))
        center, rim = data.draw(some)[0], data.draw(some)[0]
        S = Ball(center, own.dist(rim, center), own)
    elif kind == "whole":
        S = WholeSpace()
    elif kind == "predicate":
        picked = set(data.draw(some))
        S = Predicate(lambda q: tuple(q) in picked)
    else:
        S = FinitePoints(PointSet.of(data.draw(some)))
    x = data.draw(st.sampled_from(keys))
    # on the mesh, off it, and beyond every rung of the ladders (refused)
    shift = data.draw(st.sampled_from((0.0, 0.0, 0.3, 40.0)))
    x = tuple(c + shift * h for c, h in zip(x, mesh.h))
    # coarse delta rungs reach past the ball and the region: rows that fail
    cfg = data.draw(st.sampled_from((CFG, COARSE_DELTAS)))
    try:
        rows, status, worst, want = reference_bridge(f, S, x, p, mesh, cfg)
    except ValueError:
        with pytest.raises(ValueError):
            carac_W_bridge(f, S, x, p, mesh, cfg)
        return
    # a Wijsman side that raises leaves the rows to compare
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(convergence, "wijsman_at_point", wijsman_or_refusal)
        ineq, wij = carac_W_bridge(f, S, x, p, mesh, cfg)
    got = [(r["lambda"], r["lhs"], r["rhs"], r["margin"]) for r in ineq.witness["rows"]]
    assert hexed(got) == hexed(rows)
    assert ineq.status is status and float(ineq.margin).hex() == float(worst).hex()
    if isinstance(want, type):
        assert wij is want
    else:
        assert (wij.status, wij.margin, wij.witness) == (want.status, want.margin,
                                                         want.witness)


def test_bridge_builds_one_evaluator_and_measures_three_distance_rows():
    """One evaluator gives f, d_S and every lambda row: three pairwise
    calls (d_S, the distances to x, the Wijsman sweep's) on a 2001-node
    line, where two evaluators per lambda made 17 and 18."""
    mesh = MeshSpec.line(-1.0, 1.0, 0.001)
    f = FunctionModel.tabulated(mesh, np.abs(mesh.nodes()[:, 0]))
    built, measured = [], []
    real_init, real_pairwise = _MeshLayers.__init__, Norm.pairwise

    def init(self, *args):
        built.append(args)
        real_init(self, *args)

    def pairwise(self, A, B):
        measured.append(len(A) * len(B))
        return real_pairwise(self, A, B)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_MeshLayers, "__init__", init)
        mp.setattr(Norm, "pairwise", pairwise)
        ineq, wij = carac_W_bridge(f, Ball((0.25,), 0.1), (0.25,), 1.0, mesh, CFG)
    assert (len(built), len(measured)) == (1, 3)
    assert ineq.holds and wij.holds


def test_bridge_evaluates_its_model_at_the_probe_only():
    """The Wijsman side takes the bridge's f_S array as a tabulated limit:
    one model call, the probe lookup, on a 2001-node line, where the
    restricted closure was evaluated node by node (2 203 calls)."""
    mesh = MeshSpec.line(-1.0, 1.0, 0.001)
    f = FunctionModel.tabulated(mesh, np.abs(mesh.nodes()[:, 0]))
    calls = []
    real = FunctionModel.__call__

    def counting(model, x):
        calls.append(x)
        return real(model, x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FunctionModel, "__call__", counting)
        ineq, wij = carac_W_bridge(f, Ball((0.25,), 0.1), (0.25,), 1.0, mesh, CFG)
    assert len(calls) <= 1
    assert ineq.holds and wij.holds


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=15, deadline=None)
def test_uniform_infimum_below_plain_and_penalty_monotone(seed):
    rng = np.random.default_rng(seed)
    mesh = MeshSpec.line(-1.0, 1.0, 0.1)
    f = FunctionModel.tabulated(mesh, rng.uniform(-1.0, 1.0, size=mesh.node_count))
    S = Ball((float(rng.uniform(-0.4, 0.4)),), float(rng.uniform(0.05, 0.5)))
    cfg = LimitConfig()
    r = uniform_infimum(f, S, mesh, cfg)
    plain = plain_infimum(f, S, mesh)
    assert r <= plain + cfg.tol
    spec = PenaltySpec()
    vals = [penalty_value(f, S, n, spec, mesh) for n in spec.n_schedule]
    assert vals == sorted(vals)
    assert vals[-1] <= plain + 1e-12


def test_predicate_region_distance_uses_the_model_norm():
    mesh = MeshSpec(box=((0.0, 1.0), (0.0, 1.0)), h=(1.0, 1.0))
    # nodes (0,0), (0,1), (1,0), (1,1)
    f = FunctionModel.tabulated(mesh, np.array([0.0, 0.0, 0.0, -2.0]), norm=MAX)
    origin = Predicate(lambda p: p == (0.0, 0.0))
    # d_S(1, 1) = 1 in the max norm, not sqrt(2)
    assert penalty_value(f, origin, 1.0, PenaltySpec(), mesh) == -1.0


def test_ball_region_distance_uses_the_model_norm():
    mesh = MeshSpec(box=((0.0, 1.0), (0.0, 1.0)), h=(0.5, 0.5))
    vals = np.zeros(mesh.node_count)
    vals[-1] = -1.5  # the node (1, 1)
    f = FunctionModel.tabulated(mesh, vals, norm=MAX)
    ball = Ball((0.0, 0.0), 0.0)  # a Euclidean ball
    origin = Predicate(lambda p: p == (0.0, 0.0))
    # d_S(1, 1) = 1 in the max norm: -1.5 + 1, not -1.5 + sqrt(2)
    assert penalty_value(f, ball, 1.0, PenaltySpec(), mesh) == -0.5
    assert penalty_value(f, origin, 1.0, PenaltySpec(), mesh) == -0.5


def test_finite_points_region_distance_uses_the_model_norm():
    mesh = MeshSpec(box=((0.0, 1.0), (0.0, 1.0)), h=(0.5, 0.5))
    vals = np.zeros(mesh.node_count)
    vals[-1] = -1.5  # the node (1, 1)
    f = FunctionModel.tabulated(mesh, vals, norm=MAX)
    points = FinitePoints(PointSet.of([(0.0, 0.0)]))  # a Euclidean point set
    # d_S(1, 1) = 1 in the max norm, as for the Ball and Predicate above
    assert penalty_value(f, points, 1.0, PenaltySpec(), mesh) == -0.5
    # the set's own points count, on the mesh or off it
    off = FinitePoints(PointSet.of([(0.2, 0.3), (0.9, 0.8)]))
    want = MAX.pairwise(mesh.nodes(), off.points.array).min(axis=1)
    assert np.array_equal(off.distances(mesh.nodes(), MAX), want)


def test_finite_points_region_edge_cases():
    mesh = MeshSpec(box=((0.0, 1.0), (0.0, 1.0)), h=(0.5, 0.5))
    empty = FinitePoints(PointSet.of([], dim=2))
    assert np.array_equal(empty.distances(mesh.nodes(), MAX), np.full(mesh.node_count, INF))
    with pytest.raises(ValueError, match="dim"):
        FinitePoints(PointSet.of([(0.0,)])).distances(mesh.nodes(), MAX)


@pytest.mark.parametrize("mesh,ball", [
    (MeshSpec(box=((0.0, 1.0), (0.0, 1.0)), h=(0.5, 0.5)), ((0.25, 0.25), 0.05)),
    (MeshSpec.line(-1.0, 1.0, 0.05), ((0.025,), 0.01))], ids=["2-D", "line"])
@pytest.mark.parametrize("norm", [EUCLIDEAN, MAX], ids=["euclidean", "max"])
def test_a_ball_with_no_node_is_refused_in_every_norm(mesh, ball, norm):
    """The closed-form d_S of a ball in its own norm (or on a line) refuses
    a ball that holds no node, as the member-node distance of every other
    ball does; the plain infimum measures no d_S and stays +inf."""
    f = FunctionModel.tabulated(mesh, np.zeros(mesh.node_count), norm=MAX)
    S = Ball(*ball, norm)
    assert not S.members(mesh.nodes()).any()
    for measure in (lambda: robustness(f, S, mesh, CFG),
                    lambda: penalty_limit(f, S, PenaltySpec(), mesh, CFG),
                    lambda: uniform_infimum(f, S, mesh, CFG)):
        with pytest.raises(ValueError, match="^region contains no mesh node$"):
            measure()
    assert plain_infimum(f, S, mesh) == INF


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(2, 9), min_size=1, max_size=2), st.sampled_from((0.5, 1.0, 2.0, 3.0)),
       st.sampled_from((EUCLIDEAN, MAX, TAXICAB)),
       st.sampled_from(("ball", "points", "empty")), st.data())
def test_penalty_values_are_minima_of_the_node_sums(counts, p, norm, kind, data):
    """penalty_value and every value penalty_limit reports are float.hex-equal
    to min over the nodes of f + n * d_S^p formed in one expression: p off
    and on the integers, +inf node values, a ball, a point set and an
    empty point set (d_S = +inf at every node)."""
    mesh = MeshSpec(box=tuple((0.0, 0.25 * (c - 1)) for c in counts), h=(0.25,) * len(counts))
    size = mesh.node_count
    fv = np.array(data.draw(st.lists(st.one_of(st.floats(-10.0, 10.0), st.just(math.inf)),
                                     min_size=size, max_size=size)))
    f = FunctionModel.tabulated(mesh, fv, norm=norm)
    keys = [tuple(q) for q in mesh.nodes()]
    if kind == "ball":
        S = Ball(data.draw(st.sampled_from(keys)), data.draw(st.sampled_from((0.0, 0.3))), norm)
    else:
        picked = data.draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3))
        S = FinitePoints(PointSet.of(picked if kind == "points" else [], dim=len(counts)))
    d = S.distances(mesh.nodes(), norm)
    spec = PenaltySpec(p=p)
    want = [float((fv + n * d ** p).min()).hex() for n in spec.n_schedule]
    assert [float(penalty_value(f, S, n, spec, mesh)).hex() for n in spec.n_schedule] == want
    if kind == "empty":
        with pytest.raises(ValueError, match="no mesh node within"):
            penalty_limit(f, S, spec, mesh, CFG)
        return
    _, verdict = penalty_limit(f, S, spec, mesh, CFG)
    assert [float(v).hex() for _, v in verdict.witness["penalty_values"]] == want


class TestSupOfRungs:
    """The one rung rule: every ladder's sup, the penalty schedule's check
    and the empty-reach refusal."""

    def test_fraction_rungs_return_the_same_object(self):
        rungs = [Fraction(-1), Fraction(-1, 2), Fraction(-1, 3)]
        assert _sup_of_rungs(rungs) is rungs[-1]

    def test_a_tiny_fraction_decrease_still_raises(self):
        # SLACK covers float rounding; exact rungs compare exactly
        with pytest.raises(InvariantError, match="not monotone"):
            _sup_of_rungs([Fraction(0), Fraction(-1, 10 ** 15)])
        assert _sup_of_rungs([0.0, -1e-15]) == 0.0

    def test_a_decrease_raises_the_given_message(self):
        with pytest.raises(InvariantError, match="penalty values must be nondecreasing"):
            _sup_of_rungs([1.0, 0.5], "penalty values must be nondecreasing in n")

    def test_an_empty_first_rung_is_refused(self):
        with pytest.raises(ValueError, match=_NO_NODE):
            _sup_of_rungs([None, None, 1.0])

    def test_an_empty_later_rung_reads_as_inf(self):
        assert _sup_of_rungs([-1.0, None]) == INF
        assert _sup_of_rungs([Fraction(-1), None]) == INF


def _untouchable(p):
    raise AssertionError("the region was asked before the mesh was checked")


@pytest.mark.parametrize("operation", [
    lambda f, S: uniform_infimum(f, S, None, CFG),
    lambda f, S: plain_infimum(f, S, None),
    lambda f, S: penalty_value(f, S, 1.0, PenaltySpec(), None),
    lambda f, S: penalty_limit(f, S, PenaltySpec(), None, CFG),
    lambda f, S: robustness(f, S, None, CFG),
], ids=["uniform_infimum", "plain_infimum", "penalty_value", "penalty_limit", "robustness"])
def test_mesh_models_refuse_a_missing_mesh_first(operation):
    f = tabmodel(lambda x: x * x, line(h=0.5))
    with pytest.raises(ValueError, match="mesh required for non-exact models"):
        operation(f, Predicate(_untouchable))


@pytest.mark.parametrize("n", [-1.0, 0.0, -0.0, math.nan, math.inf, -math.inf],
                         ids=["negative", "zero", "minus-zero", "nan", "inf", "minus-inf"])
class TestPenaltyValueRefusesBadMultipliers:
    """penalty_value refuses an n that is not finite and positive before
    any work, on the mesh path and on the exact path, as ``PenaltySpec``
    refuses such a schedule."""

    def test_on_the_h_005_line(self, n):
        # |x| on B(0.5, 0.1) read -0.4 at n = -1, and nan at n = nan or inf
        mesh = line(h=0.05)
        with pytest.raises(ValueError, match="^multiplier n must be finite and positive"):
            penalty_value(tabmodel(abs, mesh), Ball((0.5,), 0.1), n, PenaltySpec(), mesh)

    def test_before_the_mesh_check(self, n):
        f = tabmodel(lambda x: x * x, line(h=0.5))
        with pytest.raises(ValueError, match="^multiplier n must be finite and positive"):
            penalty_value(f, Predicate(_untouchable), n, PenaltySpec(), None)

    def test_on_the_exact_path_before_the_region_check(self, n):
        with pytest.raises(ValueError, match="^multiplier n must be finite and positive"):
            penalty_value(nogoodlsc(2, 4, 0.5), Predicate(_untouchable), n, PenaltySpec(), None)


# ------------------------------------------------------- mesh rung kernels
# The whole-mesh kernels that ``_NodesBelow`` replaced, kept as references:
# one mask per delta rung, and one multiply, add and min per multiplier.

def _masked_sup_inf(values, dist, ladder):
    return _sup_of_rungs(float(values[mask].min()) if mask.any() else None
                         for mask in (dist <= delta for delta in ladder))


def _whole_mesh_penalties(values, dist, ns, p):
    dp = dist ** p
    scratch = np.empty_like(dp)
    out = []
    for n in ns:
        np.multiply(dp, n, out=scratch)
        scratch += values
        out.append(float(scratch.min()))
    return out


def _outcome(call):
    """A result as float.hex and sign, a list of them, or a raised error
    as its type and message."""
    try:
        got = call()
    except (ValueError, InvariantError) as err:
        return type(err), str(err)
    return [(float(v).hex(), math.copysign(1.0, v)) for v in np.atleast_1d(got)]


MESH_KINDS = [((201,), EUCLIDEAN), ((9, 9), MAX), ((8, 7), TAXICAB), ((6, 9), EUCLIDEAN)]
LADDERS = [CFG.delta_ladder, (0.5, 0.25, 0.125), (0.3, 0.2, 0.1, 0.05, 0.04)]


@st.composite
def rung_instances(draw):
    """f on a 1-D line or a 2-D max, taxicab or Euclidean mesh, valued in
    +-0.0, +inf, ties and random floats, at times none negative, with d either a region's d_S in
    the mesh norm (a ball at a node, a few points, or no point at all:
    d = +inf, no node at d == 0) or a bridge row's max(0, d_x - lam) about
    a drawn point, whose later rungs may hold no node.  The region's
    nodes may sit on a plateau above every other node, so that every node
    with a finite value lies below them."""
    counts, norm = draw(st.sampled_from(MESH_KINDS))
    mesh = MeshSpec(box=tuple((0.0, 0.05 * (c - 1)) for c in counts), h=(0.05,) * len(counts))
    size = mesh.node_count
    # with no negative value, zero rungs over both zeros are common
    low = draw(st.sampled_from((-2.0, 0.0)))
    tie = draw(st.floats(low, 1.0))
    fv = np.array(draw(st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, math.inf, tie]), st.floats(low, 2.0)),
        min_size=size, max_size=size)))
    nodes = mesh.nodes()
    kind = draw(st.sampled_from(("ball", "points", "empty", "row")))
    if kind == "row":
        x = [draw(st.floats(-0.1, 0.05 * c)) for c in counts]
        d_x = norm.pairwise(np.asarray([x]), nodes)[0]
        dist = np.maximum(0.0, d_x - draw(st.sampled_from((0.0, 0.01, 0.05, 0.2))))
    else:
        if kind == "ball":
            S = Ball(tuple(nodes[draw(st.integers(0, size - 1))]),
                     draw(st.sampled_from((0.0, 0.05, 0.12))), norm)
        else:
            picked = [] if kind == "empty" else draw(
                st.lists(st.integers(0, size - 1), min_size=1, max_size=3))
            S = FinitePoints(PointSet.of([tuple(nodes[i]) for i in picked], dim=len(counts)))
        dist = S.distances(nodes, norm)
    if draw(st.booleans()):
        fv[dist == 0.0] = 3.0
    return mesh, norm, fv, dist, draw(st.sampled_from(LADDERS))


class TestNodesBelowParity:
    """Every rung infimum, penalty value and plain infimum read off the
    nodes below f's least value at d == 0.0 is float.hex- and sign-equal
    to the whole-mesh kernels, and every refusal keeps its type and
    message."""

    @settings(max_examples=400, deadline=None)
    @given(rung_instances())
    def test_sup_inf_is_the_masked_rung_kernel(self, instance):
        _, _, fv, dist, ladder = instance
        assert _outcome(lambda: _sup_inf(fv, dist, ladder)) == \
            _outcome(lambda: _masked_sup_inf(fv, dist, ladder))

    @settings(max_examples=300, deadline=None)
    @given(rung_instances(), st.sampled_from((0.5, 1.0, 2.0, 3.0)))
    def test_penalties_are_the_whole_mesh_loop(self, instance, p):
        _, _, fv, dist, _ = instance
        ns = PenaltySpec().n_schedule + (1000.5,)
        assert _outcome(lambda: _NodesBelow(fv, dist).penalties(ns, p)) == \
            _outcome(lambda: _whole_mesh_penalties(fv, dist, ns, p))

    def test_a_ball_on_a_plateau_makes_every_node_a_candidate(self):
        mesh = MeshSpec(box=((0.0, 1.0), (0.0, 1.0)), h=(0.05, 0.05))
        fv = np.random.default_rng(5).uniform(-1.0, 1.0, mesh.node_count)
        dist = Ball((0.5, 0.5), 0.1, MAX).distances(mesh.nodes(), MAX)
        fv[dist == 0.0] = 2.0
        below = _NodesBelow(fv, dist)
        assert below.floor == 2.0 and below.values.size == np.count_nonzero(dist > 0.0)
        assert _outcome(lambda: below.sup_inf(CFG.delta_ladder)) == \
            _outcome(lambda: _masked_sup_inf(fv, dist, CFG.delta_ladder))

    def test_no_node_at_d_zero_and_an_empty_later_rung(self):
        fv = np.array([1.0, -0.5, math.inf, 0.25])
        dist = np.array([0.3, 0.2, 0.1, 0.4])
        below = _NodesBelow(fv, dist)
        assert (below.floor, below.reach) == (INF, 0.1)
        assert below.values.tolist() == [1.0, -0.5, 0.25]
        assert below.penalties((1.0,), 1.0) == _whole_mesh_penalties(fv, dist, (1.0,), 1.0)
        ladder = (0.5, 0.25, 0.15, 0.05)
        assert list(below._rung_infima(ladder)) == [-0.5, -0.5, math.inf, None]
        assert below.sup_inf(ladder) == _masked_sup_inf(fv, dist, ladder) == INF
        with pytest.raises(ValueError, match=f"^{_NO_NODE}$"):
            below.sup_inf((0.05, 0.01))

    def test_a_zero_rung_over_both_zeros_is_re_read_by_its_mask(self, monkeypatch):
        """A rung whose infimum is zero while f holds +0.0 and -0.0 takes
        the masked kernel's sign: here the floor is the member's +0.0, and
        the largest rung's mask, which also holds the -0.0 at d = 0.1,
        reduces to -0.0, the sup of the ladder."""
        fv, dist = np.array([0.0, -0.0]), np.array([0.0, 0.1])
        want = _outcome(lambda: _masked_sup_inf(fv, dist, CFG.delta_ladder))
        assert want == [("-0x0.0p+0", -1.0)]
        assert _outcome(lambda: _sup_inf(fv, dist, CFG.delta_ladder)) == want
        monkeypatch.setattr(_NodesBelow, "_both_zeros", False)
        assert _outcome(lambda: _sup_inf(fv, dist, CFG.delta_ladder)) != want

    @settings(max_examples=150, deadline=None)
    @given(rung_instances())
    def test_mesh_layers_read_every_value_off_one_kernel(self, instance):
        mesh, norm, fv, _, ladder = instance
        f = FunctionModel.tabulated(mesh, fv, norm=norm)
        S = Ball(tuple(mesh.nodes()[mesh.node_count // 2]), 0.07, norm)
        layers = _MeshLayers(f, S, mesh)
        dist = S.distances(mesh.nodes(), norm)
        assert _outcome(lambda: layers.uniform_infimum(ladder)) == \
            _outcome(lambda: _masked_sup_inf(fv, dist, ladder))
        assert _outcome(lambda: layers.penalties((1.0, 64.0), 2.0)) == \
            _outcome(lambda: _whole_mesh_penalties(fv, dist, (1.0, 64.0), 2.0))
        inside = dist == 0.0
        assert _outcome(layers.plain) == _outcome(lambda: fv[inside].min())


# ---------------------------------------------------------------- exact path
# An independent per-exception scan: every distance is a Fraction sum over
# the union of the point's and the center's coordinates.

def _scan_dist_sq(pt, center):
    diff = {i: Fraction(c) for i, c in enumerate(center) if c != 0}
    for i, x in pt:
        diff[i] = Fraction(x) - diff.get(i, Fraction(0))
    return sum((d * d for d in diff.values()), Fraction(0))


def _scan_infimum(f, S, reach):
    inf = f.default
    for pt, v in f.exceptions.items():
        if v < inf and reach >= 0 and _scan_dist_sq(pt, S.center) <= reach * reach:
            inf = v
    return inf


def _scan_uniform_infimum(f, S, cfg):
    best = None
    for delta in cfg.delta_ladder:
        inf_d = _scan_infimum(f, S, Fraction(S.radius) + Fraction(delta))
        best = inf_d if best is None else max(best, inf_d)
    return best


def _scan_penalty_value(f, S, n, p):
    best = float(f.default)
    for pt, v in f.exceptions.items():
        d = max(0.0, math.sqrt(float(_scan_dist_sq(pt, S.center))) - float(Fraction(S.radius)))
        best = min(best, float(v) + n * d ** p)
    return best


def _same(got, want):
    """Equal value and type; floats equal bit for bit."""
    if isinstance(want, float):
        return type(got) is float and got.hex() == want.hex()
    return type(got) is type(want) and got == want


_COORDS = st.sampled_from([Fraction(k, d) for k in (-2, -1, 1, 2, 3) for d in (1, 2, 3)])


@st.composite
def exact_instances(draw):
    """A small finite-exception model, a Euclidean ball and a ladder.  Few
    coordinate and value choices force ties in value and in distance."""
    dim = draw(st.integers(1, 4))
    points = draw(st.lists(
        st.dictionaries(st.integers(0, dim - 1), _COORDS, max_size=dim),
        max_size=10))
    kind = draw(st.sampled_from([Fraction, int, float]))
    level = st.integers(-3, 3).map(lambda k: kind(k) if kind is not float else k / 2)
    values = st.one_of(level, st.just(INF))
    exceptions = {tuple(sorted(pt.items())): draw(values) for pt in points}
    default = draw(st.one_of(level, st.just(INF)) if draw(st.booleans()) else level)
    f = FunctionModel.finite_exception(default=default, exceptions=exceptions)
    if exceptions and draw(st.booleans()):  # a center on the exceptions' support
        sparse = dict(draw(st.sampled_from(sorted(exceptions))))
        center = tuple(sparse.get(i, Fraction(0)) for i in range(dim))
    else:
        center = tuple(draw(st.lists(st.sampled_from([0.0, 0.5, -1.0, Fraction(1, 3)]),
                                     min_size=dim, max_size=dim)))
    radius = draw(st.sampled_from([0, 0.0, Fraction(1, 2), 1.0, Fraction(5, 3)]))
    ladder = tuple(sorted(set(draw(st.lists(st.sampled_from([2.0, 1.0, 0.5, 0.25, 0.125]),
                                            min_size=1, max_size=4))), reverse=True))
    p = draw(st.sampled_from([0.5, 1.0, 2.0]))
    return f, Ball(center, radius), LimitConfig(delta_ladder=ladder), p


@given(exact_instances())
@settings(max_examples=300, deadline=None)
def test_exact_path_matches_a_per_exception_scan(instance):
    f, S, cfg, p = instance
    spec = PenaltySpec(p=p, n_schedule=(1.0, 4.0, 64.0))
    r = _scan_uniform_infimum(f, S, cfg)
    plain = _scan_infimum(f, S, Fraction(S.radius))
    pens = [_scan_penalty_value(f, S, n, p) for n in spec.n_schedule]

    assert _same(uniform_infimum(f, S, None, cfg), r)
    assert _same(plain_infimum(f, S, None), plain)
    for n, want in zip(spec.n_schedule, pens):
        assert _same(penalty_value(f, S, n, spec, None), want)

    last, verdict = penalty_limit(f, S, spec, None, cfg)
    assert _same(last, pens[-1])
    assert _same(verdict.witness["uniform_infimum"], r)
    assert all(_same(got, want) for (_, got), want
               in zip(verdict.witness["penalty_values"], pens))

    rep = robustness(f, S, None, cfg)
    assert _same(rep.r_value, r) and _same(rep.plain_inf, plain)


class _CountedExceptions(dict):
    """A model's exceptions whose ``items()`` counts the entries it yields."""

    visits = 0

    def items(self):
        for item in super().items():
            self.visits += 1
            yield item


class TestExactWork:
    """One squared distance per exception per exact call, and one per
    exception in all for a penalty limit or a robustness report."""

    def test_each_call_visits_each_exception_once(self):
        f = nogoodlsc(N=3, I=96, delta_min=1.0 / 32.0)
        # one exception at the default and one above it still cost a visit
        f.exceptions[((0, Fraction(7)),)] = Fraction(0)
        f.exceptions[((1, Fraction(7)),)] = Fraction(1)
        f.exceptions = calls = _CountedExceptions(f.exceptions)
        count = len(f.exceptions)
        S = Ball(center=(0.0,) * 96, radius=Fraction(1, 2))
        spec = PenaltySpec()
        for call in (lambda: uniform_infimum(f, S, None, EXACT_CFG),
                     lambda: plain_infimum(f, S, None),
                     lambda: penalty_value(f, S, 2.0, spec, None),
                     lambda: penalty_limit(f, S, spec, None, EXACT_CFG),
                     lambda: robustness(f, S, None, EXACT_CFG)):
            calls.visits = 0
            call()
            assert calls.visits == count


def _reference_layers(f, S):
    """The value layers as a pass with one squared-distance call and one
    candidate list per exception builds them: per exact value ratio, the
    first value object seen and the least scale * (||p - c||^2 - ||c||^2),
    with c's integer numerators over their common denominator scale."""
    def dist_sq(pt, center, scale):
        num, den = 0, 1
        for i, x in pt:
            a, b = x.as_integer_ratio()
            bb = b * b
            num = num * bb + a * (a * scale - 2 * center.get(i, 0) * b) * den
            den *= bb
        return num, den

    ratios = {i: Fraction(c).as_integer_ratio() for i, c in enumerate(S.center) if c != 0}
    scale = math.lcm(*(b for _, b in ratios.values()))
    center = {i: a * (scale // b) for i, (a, b) in ratios.items()}
    least = {}
    for pt, v in f.exceptions.items():
        num, den = dist_sq(pt, center, scale)
        try:
            key = v.as_integer_ratio()
        except OverflowError:
            key = v
        cur = least.setdefault(key, [num, den, v])
        if num * cur[1] < cur[0] * den:
            cur[:2] = num, den
    offset = Fraction(sum(c * c for c in center.values()), scale * scale)
    return sorted((v, offset + Fraction(num, den * scale))
                  for num, den, v in least.values() if v < f.default)


_NONZERO = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 12))


@st.composite
def layer_instances(draw):
    """A model whose exceptions draw their values from a pool in which equal
    values are held by distinct objects (two Fractions, an int, a float),
    next to +-inf; runs of one shared object are interleaved with others.
    The center is the origin or a point with mixed denominators."""
    dim = draw(st.integers(1, 5))
    pool = [INF, -INF]
    for k in draw(st.lists(st.integers(-4, 4), min_size=1, max_size=4, unique=True)):
        pool += [Fraction(k, 2), Fraction(2 * k, 4), k / 2]
        if k % 2 == 0:
            pool.append(k // 2)
    exceptions = {}
    for _ in range(draw(st.integers(0, 25))):
        pt = draw(st.dictionaries(st.integers(0, dim - 1), _NONZERO, min_size=1,
                                  max_size=dim))
        exceptions[tuple(sorted(pt.items()))] = pool[draw(st.integers(0, len(pool) - 1))]
    default = draw(st.sampled_from([Fraction(0), 1, -1.5, INF]))
    f = FunctionModel.finite_exception(default=default, exceptions=exceptions)
    if draw(st.booleans()):
        center = draw(st.sampled_from([(0.0,) * dim, (0,) * dim, (Fraction(0),) * dim]))
    else:
        center = tuple(draw(st.lists(
            st.one_of(_NONZERO, st.sampled_from([0.0, 0.5, -0.75, 3.0])),
            min_size=dim, max_size=dim)))
    radius = draw(st.sampled_from([0, Fraction(1, 3), 0.5, 2.0]))
    return f, Ball(center, radius)


@given(layer_instances())
@settings(max_examples=200, deadline=None)
def test_value_layers_match_the_per_point_reference(instance):
    from epislope.uniforminf import _ValueLayers
    f, S = instance
    got = _ValueLayers(f, S).layers
    want = _reference_layers(f, S)
    assert got == want
    # the same first-seen value object and exact distance type per layer
    assert all(v is w and type(d) is type(e) is Fraction
               for (v, d), (w, e) in zip(got, want))


class TestMeshWork:
    """f read off its node values and at most one d_S per mesh call:
    a penalty limit and a robustness report share them between their
    parts, and the plain infimum measures no distance."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counter = {"distances": 0}
        inner = Ball.distances

        def counted(self, nodes, norm):
            counter["distances"] += 1
            return inner(self, nodes, norm)

        monkeypatch.setattr(Ball, "distances", counted)
        return counter

    @pytest.mark.parametrize("call,distances", [
        (lambda f, S, mesh: uniform_infimum(f, S, mesh, CFG), 1),
        (lambda f, S, mesh: plain_infimum(f, S, mesh), 0),
        (lambda f, S, mesh: penalty_value(f, S, 2.0, PenaltySpec(), mesh), 1),
        (lambda f, S, mesh: penalty_limit(f, S, PenaltySpec(), mesh, CFG), 1),
        (lambda f, S, mesh: robustness(f, S, mesh, CFG), 1),
    ], ids=["uniform_infimum", "plain_infimum", "penalty_value", "penalty_limit",
            "robustness"])
    def test_f_and_d_S_are_computed_once_per_call(self, counts, call, distances,
                                                  monkeypatch):
        """d_S is measured at most once, and f is read off its node values,
        never evaluated at a node."""
        mesh = line(h=0.1)
        evaluated = []
        real = FunctionModel.__call__

        def counting(model, x):
            evaluated.append(x)
            return real(model, x)

        monkeypatch.setattr(FunctionModel, "__call__", counting)
        call(tabmodel(lambda x: x * x, mesh), Ball((0.25,), 0.1), mesh)
        assert counts["distances"] == distances
        assert evaluated == []
