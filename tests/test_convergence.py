"""Set and function convergence verdicts: lower/upper limits, Wijsman,
hit-and-miss, Kuratowski, recovery sequences, slice convergence, tilts;
the one-sweep recovery and Wijsman kernel against a masked brute force,
its lambda rows against the full sorted order, its work per f_n and its
memory."""

import json
import math
import re
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epislope import (
    EUCLIDEAN, MAX, TAXICAB, Ball, FunctionModel, FunctionSequence,
    LimitConfig, MeshSpec, PointSet, SetSequence, Status, Verdict,
    graph_epi_gap, hit_and_miss, in_lower_limit, in_upper_limit,
    kuratowski_sets, pasch_hausdorff, recovery_sequence, slice_at_point,
    slope_stability_witness, tilt, tilt_gap_invariance, uniform_infimum,
    values_on, wijsman_at_point, wijsman_sets,
)
from epislope.convergence import _rung_reach, _sweep, snap_half_node
from epislope.uniforminf import _sorted_sup_inf
from epislope.verdict import SLACK, combine, decide, margin

CFG = LimitConfig()

# For raw set-distance limits, a 1/n-decaying distance only reaches the
# suffix window at ~1/65; this schedule/tolerance pair gives "d -> 0"
# finite meaning while keeping genuine offsets (>= 0.05) failing.
SET_CFG = LimitConfig(n_schedule=tuple(range(1, 129)), tol=0.02)


def setseq(fn):
    return SetSequence(generator=lambda n: PointSet.of(fn(n)), dim=1)


def tabmodel(fn, mesh, **kw):
    vals = np.array([fn(float(p[0])) for p in mesh.nodes()])
    return FunctionModel.tabulated(mesh, vals, **kw)


class TestSetLimits:
    def test_shrinking_singleton_in_lower_limit(self):
        v = in_lower_limit((0.0,), setseq(lambda n: [(1.0 / n,)]), SET_CFG)
        assert v.status is Status.HOLDS

    def test_constant_far_singleton_fails(self):
        v = in_lower_limit((0.0,), setseq(lambda n: [(1.0,)]), CFG)
        assert v.status is Status.FAILS
        assert v.margin == pytest.approx(1.0)

    def test_alternating_not_in_lower_limit_but_in_upper(self):
        alt = setseq(lambda n: [((-1.0) ** n,)])
        # the window sees both hits and misses: never eventually near, so
        # membership in the lower limit cannot Hold (its excess, the window
        # max 2, is past the band: it Fails)
        assert not in_lower_limit((1.0,), alt, CFG).holds
        assert in_upper_limit((1.0,), alt, CFG).status is Status.HOLDS

    def test_frequent_misses_fail_the_lower_limit(self):
        # Li asks limsup d(y, S_n) = 0: the window max decides, however
        # often the sequence hits y
        v = in_lower_limit((1.0,), setseq(lambda n: [((-1.0) ** n,)]), CFG)
        assert v.status is Status.FAILS and v.margin == 2.0

    def test_distance_inside_the_band_is_inconclusive_for_both_limits(self):
        # d(0, S_n) = 0.02 for every n: above tol, below decision_band
        near = setseq(lambda n: [(0.02,)])
        for limit in (in_lower_limit, in_upper_limit):
            v = limit((0.0,), near, CFG)
            assert v.status is Status.INCONCLUSIVE and v.margin == 0.02
            assert v.witness["distances"][0] == (1, 0.02)

    def test_upper_limit_examples(self):
        assert in_upper_limit((0.0,), setseq(lambda n: [(1.0,)]), CFG).fails
        assert in_upper_limit((0.0,), setseq(lambda n: [(1.0 / n,)]), SET_CFG).holds


class TestWijsmanSets:
    def test_constant_sequence_holds(self):
        S = PointSet.of([(0.0,), (1.0,)])
        seq = SetSequence(generator=lambda n: S, dim=1)
        v = wijsman_sets(seq, S, probes=[(-1.0,), (0.5,), (2.0,)], cfg=CFG)
        assert v.status is Status.HOLDS

    def test_shrinking_singleton_holds_at_probes(self):
        seq = setseq(lambda n: [(1.0 / n,)])
        S = PointSet.of([(0.0,)])
        v = wijsman_sets(seq, S, probes=[(-1.0,), (0.0,), (2.0,)], cfg=SET_CFG)
        assert v.status is Status.HOLDS

    def test_escaping_singleton_fails(self):
        seq = setseq(lambda n: [(float(n),)])
        S = PointSet.of([(0.0,)])
        v = wijsman_sets(seq, S, probes=[(0.0,)], cfg=CFG)
        assert v.status is Status.FAILS

    def test_offset_inside_the_band_is_inconclusive(self):
        # |d(0, S_n) - d(0, S)| = 0.02 at every n: no early Fails at tol
        v = wijsman_sets(setseq(lambda n: [(0.02,)]), PointSet.of([(0.0,)]),
                         probes=[(0.0,)], cfg=CFG)
        assert v.status is Status.INCONCLUSIVE and v.margin == 0.02
        assert v.witness == {"per_probe": [{"probe": (0.0,), "window_max": 0.02}]}

    def test_worst_probe_decides(self):
        seq = setseq(lambda n: [(0.0,), (1.0 + 1.0 / n,)])
        S = PointSet.of([(0.0,), (1.0,)])
        v = wijsman_sets(seq, S, probes=[(-1.0,), (1.0,)], cfg=CFG)
        worst = max(row["window_max"] for row in v.witness["per_probe"])
        # the window is n = 33..64, so probe 1 sees |d - 0| = 1/33 at worst
        assert worst == v.witness["per_probe"][1]["window_max"] == pytest.approx(1 / 33)
        assert v.status is Status.INCONCLUSIVE and v.margin == worst

    def test_probes_required(self):
        with pytest.raises(ValueError):
            wijsman_sets(setseq(lambda n: [(0.0,)]), PointSet.of([(0.0,)]),
                         probes=[], cfg=CFG)

    def test_wijsman_implies_lower_limit_membership(self):
        seq = setseq(lambda n: [(1.0 / n,), (2.0,)])
        S = PointSet.of([(0.0,), (2.0,)])
        assert wijsman_sets(seq, S, probes=[(0.0,), (2.0,), (-1.0,)],
                            cfg=SET_CFG).holds
        for y in S.points:
            assert in_lower_limit(y, seq, SET_CFG).holds


class TestHitAndMiss:
    def test_hit_branch_constant(self):
        S = PointSet.of([(0.0,)])
        seq = SetSequence(generator=lambda n: S, dim=1)
        v = hit_and_miss(seq, S, (0.0,), 0.0, CFG)
        assert v.holds and v.witness["branch"] == "hit"

    def test_miss_branch_positive_gap(self):
        seq = setseq(lambda n: [(1.0 / n,)])
        v = hit_and_miss(seq, PointSet.of([(0.0,)]), (3.0,), 1.0, CFG)
        assert v.holds and v.witness["branch"] == "miss"

    def test_miss_branch_violated_by_approach(self):
        seq = setseq(lambda n: [(3.0 - 1.0 / n,)])
        v = hit_and_miss(seq, PointSet.of([(0.0,)]), (3.0,), 1.0, CFG)
        assert v.fails

    def test_miss_gap_inside_the_band_is_inconclusive(self):
        # S_n = {1.98} stays 1.02 from y = 3: the sup liminf gap to
        # B_1(3) is 1.02 - 1 - min delta, about 0.0198, in (tol, band)
        seq = setseq(lambda n: [(1.98,)])
        v = hit_and_miss(seq, PointSet.of([(0.0,)]), (3.0,), 1.0, CFG)
        best = (abs(3.0 - 1.98) - 1.0) - min(CFG.delta_ladder)
        assert v.witness["branch"] == "miss"
        assert v.status is Status.INCONCLUSIVE
        assert v.margin == v.witness["sup_liminf_gap"] == best

    @given(st.lists(st.floats(min_value=0.0, max_value=4.0), min_size=64, max_size=64),
           st.floats(min_value=0.0, max_value=2.0))
    @settings(max_examples=100, deadline=None)
    def test_miss_rows_match_the_gap_at_every_n(self, points, lam):
        # the closed form (min d - lam - delta)^+ against the window min
        # of the per-n gaps, bit for bit
        seq = setseq(lambda n: [(points[n - 1],)])
        v = hit_and_miss(seq, PointSet.of([(-1.0,)]), (0.0,), lam, CFG)
        if v.witness["branch"] != "miss":
            return
        for row in v.witness["rows"]:
            gaps = [max(0.0, abs(p) - lam - row["delta"]) for p in points]
            assert row["liminf_gap"] == min(CFG.window(gaps))

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            hit_and_miss(setseq(lambda n: [(0.0,)]), PointSet.of([(0.0,)]),
                         (0.0,), -1.0, CFG)

    def test_nan_lambda_rejected(self):
        # lam = 0.5 Fails (S_n = {0.2} comes within 0.5 of y = 0); a NaN
        # radius made the miss test false and the probe vacuously Holds
        seq = setseq(lambda n: [(0.2,)])
        S = PointSet.of([(1.0,)])
        assert hit_and_miss(seq, S, (0.0,), 0.5, CFG).fails
        with pytest.raises(ValueError, match="nonnegative"):
            hit_and_miss(seq, S, (0.0,), math.nan, CFG)


class TestKuratowski:
    def test_constant_sequence(self):
        S = PointSet.of([(0.0,), (1.0,)])
        seq = SetSequence(generator=lambda n: S, dim=1)
        assert kuratowski_sets(seq, S, probes=[(0.0,), (1.0,), (3.0,)], cfg=CFG).holds

    def test_parity_oscillation_fails(self):
        seq = setseq(lambda n: [(0.0,)] if n % 2 == 0 else [(1.0,)])
        S = PointSet.of([(0.0,), (1.0,)])
        v = kuratowski_sets(seq, S, probes=[(0.0,), (1.0,)], cfg=CFG)
        assert v.fails
        # the failure is a genuine lower-limit violation at a probe in S
        assert not in_lower_limit((0.0,), seq, CFG).holds
        assert in_upper_limit((0.0,), seq, CFG).holds

    def test_shrinking_singleton(self):
        seq = setseq(lambda n: [(1.0 / n,)])
        assert kuratowski_sets(seq, PointSet.of([(0.0,)]),
                               probes=[(0.0,), (2.0,)], cfg=SET_CFG).holds

    def test_no_probes_is_refused(self):
        # raised a bare "min() arg is an empty sequence"
        S = PointSet.of([(0.0,)])
        seq = SetSequence(generator=lambda n: S, dim=1)
        with pytest.raises(ValueError, match="probes must be nonempty"):
            kuratowski_sets(seq, S, probes=[], cfg=CFG)

    def test_never_holds_wijsman_with_failed_kuratowski(self):
        cases = [
            (setseq(lambda n: [(1.0 / n,)]), PointSet.of([(0.0,)])),
            (setseq(lambda n: [(0.0,), (1.0,)]), PointSet.of([(0.0,), (1.0,)])),
        ]
        probes = [(0.0,), (1.0,), (-0.5,)]
        for seq, S in cases:
            if wijsman_sets(seq, S, probes, SET_CFG).holds:
                assert not kuratowski_sets(seq, S, probes, SET_CFG).fails


class TestSetSequenceWork:
    """Each S_n a set verdict reads is generated once for all its probes
    and kept by nothing once the verdict returns; the tail statements read
    the eventual window of the n schedule only."""

    def counting(self, fn):
        made, alive = Counter(), []

        def make(n):
            made[n] += 1
            S = PointSet.of(fn(n))
            alive.append(weakref.ref(S))
            return S

        return SetSequence(generator=make, dim=1), made, alive

    @pytest.mark.parametrize("verdict", [wijsman_sets, kuratowski_sets])
    def test_tail_statements_generate_the_window_once(self, verdict):
        seq, made, alive = self.counting(lambda n: [(1.0 / n,), (2.0,)])
        S = PointSet.of([(0.0,), (2.0,)])
        assert verdict(seq, S, [(0.0,), (2.0,), (-1.0,)], SET_CFG).holds
        assert made == Counter(SET_CFG.window(SET_CFG.n_schedule))
        assert [ref() for ref in alive] == [None] * len(alive)

    def test_hit_and_miss_generates_the_window_once(self):
        seq, made, alive = self.counting(lambda n: [(3.0 - 1.0 / n,)])
        assert hit_and_miss(seq, PointSet.of([(0.0,)]), (3.0,), 1.0, CFG).fails
        assert made == Counter(CFG.window(CFG.n_schedule))
        assert [ref() for ref in alive] == [None] * len(alive)

    @pytest.mark.parametrize("limit", [in_lower_limit, in_upper_limit])
    def test_limits_generate_every_n_once(self, limit):
        seq, made, alive = self.counting(lambda n: [(1.0 / n,)])
        verdict = limit((0.0,), seq, SET_CFG)
        assert verdict.holds and len(verdict.witness["distances"]) == 128
        assert made == Counter(SET_CFG.n_schedule)
        assert [ref() for ref in alive] == [None] * len(alive)

    def test_a_set_of_another_dimension_is_refused(self):
        seq = SetSequence(generator=lambda n: PointSet.of([(0.0, 0.0)]), dim=1)
        with pytest.raises(ValueError, match="set at n=1 has dim 2, expected 1"):
            in_lower_limit((0.0,), seq, CFG)


class TestRecovery:
    def test_constant_sequence_recovers_the_point(self):
        mesh = MeshSpec.line(-1.0, 1.0, 0.05)
        f = tabmodel(abs, mesh)
        seq = FunctionSequence(lambda n: f, box=mesh.box)
        picks, v = recovery_sequence(seq, f, (0.0,), CFG, mesh)
        assert v.holds
        assert all(p == (0.0,) for p in picks)

    def test_envelope_of_indicator_recovers_origin(self):
        mesh = MeshSpec.line(-1.0, 1.0, 0.05)
        f = tabmodel(lambda x: 0.0 if abs(x) < 1e-9 else math.inf, mesh)
        seq = FunctionSequence(lambda n: pasch_hausdorff(f, n, mesh), box=mesh.box)
        picks, v = recovery_sequence(seq, f, (0.0,), CFG, mesh)
        assert v.holds
        assert picks[-1] == (0.0,)

    def test_offset_values_fail(self):
        mesh = MeshSpec.line(-1.0, 1.0, 0.05)
        f = tabmodel(lambda x: x, mesh)
        g = tabmodel(lambda x: x + 1.0, mesh)
        seq = FunctionSequence(lambda n: g, box=mesh.box)
        _, v = recovery_sequence(seq, f, (0.0,), CFG, mesh)
        assert v.fails

    def test_infinite_value_rejected(self):
        mesh = MeshSpec.line(-1.0, 1.0, 0.05)
        f = tabmodel(lambda x: 0.0 if abs(x) < 1e-9 else math.inf, mesh)
        seq = FunctionSequence(lambda n: f, box=mesh.box)
        with pytest.raises(ValueError):
            recovery_sequence(seq, f, (0.5,), CFG, mesh)

    @pytest.mark.parametrize("band,status", [(0.05, Status.INCONCLUSIVE),
                                             (0.005, Status.FAILS)])
    def test_distance_beyond_the_least_radius_is_an_excess(self, band, status):
        """f_n is 1 at the node probe 0 up to n = 48, the last n whose
        recovery radius (0.5/2^5) reaches the nodes 0.01 away, where f_n is
        0 = f(0); from n = 49 on the radii hold the probe alone, and f_n is
        exact there.  The window picks up to n = 48 lie 0.01 away with
        value error 0: about 0.006 beyond the least radius 0.5/2^7, inside
        the band 0.05 and past the band 0.005."""
        mesh = MeshSpec.line(-1.0, 1.0, 0.01)
        cfg = LimitConfig(decision_band=band)
        f = tabmodel(lambda t: 0.0, mesh)
        off = tabmodel(lambda t: 1.0 if t == 0.0 else 0.0, mesh)
        seq = FunctionSequence(lambda n: off if n <= 48 else f, box=mesh.box)
        _, v = recovery_sequence(seq, f, (0.0,), cfg, mesh)
        assert v.witness["window_value_err"] == 0.0
        assert v.witness["window_dist"] == pytest.approx(0.01)
        assert v.status is status
        assert v.margin == v.witness["window_dist"] - min(cfg.radius_ladder)


class TestWijsmanAtPoint:
    def test_constant_sequence_holds(self):
        mesh = MeshSpec.line(-1.0, 1.0, 0.05)
        f = tabmodel(lambda x: x * x, mesh)
        seq = FunctionSequence(lambda n: f, box=mesh.box)
        v = wijsman_at_point(seq, f, (0.0,), lambda_max=0.5, cfg=CFG, mesh=mesh)
        assert v.holds

    def test_envelope_sequence_holds_at_nodes(self):
        mesh = MeshSpec.line(-1.0, 1.0, 0.05)
        f = tabmodel(abs, mesh)
        seq = FunctionSequence(lambda n: pasch_hausdorff(f, n, mesh), box=mesh.box)
        for x in ((0.0,), (0.5,), (-0.25,)):
            v = wijsman_at_point(seq, f, x, lambda_max=0.5, cfg=CFG, mesh=mesh)
            assert v.holds, x

    def test_downward_escape_fails(self):
        mesh = MeshSpec.line(-1.0, 1.0, 0.05)
        f = tabmodel(lambda x: 0.0, mesh)
        seq = FunctionSequence(
            lambda n: tabmodel(lambda x: -1.0 if abs(x) > 1e-9 else 0.0, mesh),
            box=mesh.box)
        v = wijsman_at_point(seq, f, (0.0,), lambda_max=0.5, cfg=CFG, mesh=mesh)
        assert v.fails

    def test_a_node_exactly_on_a_rung_counts_in_its_row(self):
        """A node where max(0, d - lam) equals the least delta lies in that
        rung: each row's r(f) is the masked uniform infimum on B_lam(x)."""
        mesh = MeshSpec.line(-1.0, 1.0, 0.25)
        cfg = LimitConfig(delta_ladder=(0.5, 0.25, 0.125))
        f = tabmodel(lambda x: abs(abs(x) - 0.5), mesh)
        seq = FunctionSequence(lambda n: f, box=mesh.box)
        rows = wijsman_at_point(seq, f, (0.0,), 1.0, cfg, mesh).witness["rows"]
        # d - lam = 0.125 at d = 0.5 for lam = 0.375, and at d = 0.25 for 0.125
        assert [(r["lambda"], r["r_value"]) for r in rows] == [(0.375, 0.0), (0.125, 0.25),
                                                               (0.0, 0.5)]
        for row in rows:
            assert row["r_value"] == uniform_infimum(f, Ball((0.0,), row["lambda"]), mesh, cfg)

    @pytest.mark.parametrize("lambda_max", [-3.0, -math.inf, math.nan])
    def test_negative_or_nan_lambda_max_refused_before_any_f_n(self, lambda_max):
        # both were decided on the lambda = 0 row alone and reported Holds
        mesh = MeshSpec.line(-1.0, 1.0, 0.05)
        f = tabmodel(abs, mesh)

        def make(n):
            raise AssertionError(f"f_{n} generated")

        seq = FunctionSequence(make, box=mesh.box)
        with pytest.raises(ValueError, match="lambda_max must be nonnegative"):
            wijsman_at_point(seq, f, (0.0,), lambda_max, CFG, mesh)
        with pytest.raises(ValueError, match="lambda_max must be nonnegative"):
            slice_at_point(seq, f, (0.0,), lambda_max, [(0.0,)], CFG, mesh)

    def test_zero_lambda_max_keeps_the_zero_row(self):
        mesh = MeshSpec.line(-1.0, 1.0, 0.05)
        f = tabmodel(abs, mesh)
        seq = FunctionSequence(lambda n: f, box=mesh.box)
        v = wijsman_at_point(seq, f, (0.0,), 0.0, CFG, mesh)
        assert v.holds
        assert [row["lambda"] for row in v.witness["rows"]] == [0.0]


class TestTilt:
    def test_zero_tilt_is_identity(self):
        mesh = MeshSpec.line(-1.0, 1.0, 0.1)
        f = tabmodel(lambda x: x * x, mesh)
        g = tilt(f, (0.0,))
        np.testing.assert_allclose(g.values, f.values)

    def test_tilting_an_indicator_leaves_it_unchanged(self):
        mesh = MeshSpec.line(-1.0, 1.0, 0.1)
        f = tabmodel(lambda x: 0.0 if abs(x) < 1e-9 else math.inf, mesh)
        g = tilt(f, (7.0,))
        for p in mesh.nodes():
            assert g(tuple(p)) == f(tuple(p))

    def test_tilted_quadratic_minimizes_near_one(self):
        mesh = MeshSpec.line(-1.0, 1.0, 0.1)
        f = tabmodel(lambda x: x * x, mesh)
        g = tilt(f, (-2.0,))
        node = mesh.nodes()[int(np.argmin(g.values))][0]
        assert node == pytest.approx(1.0, abs=0.1 + 1e-12)


    def test_dual_vector_of_another_dimension_is_refused(self):
        mesh = MeshSpec.line(-1.0, 1.0, 0.1)
        f = tabmodel(lambda x: x * x, mesh)
        with pytest.raises(ValueError, match=r"x\* has dimension 2, the model's box 1"):
            tilt(f, (1.0, 5.0))


class TestSlice:
    def test_zero_direction_required(self):
        mesh = MeshSpec.line(-1.0, 1.0, 0.05)
        f = tabmodel(abs, mesh)
        seq = FunctionSequence(lambda n: f, box=mesh.box)
        with pytest.raises(ValueError):
            slice_at_point(seq, f, (0.0,), 0.5, directions=[(1.0,)],
                           cfg=CFG, mesh=mesh)

    def test_direction_of_another_dimension_is_refused_before_any_f_n(self):
        mesh = MeshSpec.line(-1.0, 1.0, 0.05)
        f = tabmodel(abs, mesh)

        def make(n):
            raise AssertionError(f"f_{n} generated")

        seq = FunctionSequence(make, box=mesh.box)
        with pytest.raises(ValueError, match=r"x\* has dimension 2"):
            slice_at_point(seq, f, (0.0,), 0.5, [(0.0,), (1.0, 5.0)], CFG, mesh)

    def test_single_direction_reduces_to_tilted_wijsman(self):
        mesh = MeshSpec.line(-1.0, 1.0, 0.05)
        f = tabmodel(abs, mesh)
        seq = FunctionSequence(lambda n: pasch_hausdorff(f, n, mesh), box=mesh.box)
        sliced = slice_at_point(seq, f, (0.0,), 0.5, directions=[(0.0,)],
                                cfg=CFG, mesh=mesh)
        direct = wijsman_at_point(seq, f, (0.0,), 0.5, cfg=CFG, mesh=mesh)
        assert sliced.status is direct.status

    def test_uniformly_small_perturbation_survives_tilts(self):
        mesh = MeshSpec.line(-1.0, 1.0, 0.05)
        f = tabmodel(abs, mesh)
        nodes = mesh.nodes()[:, 0]

        def make(n):
            return FunctionModel.tabulated(mesh, np.abs(nodes) + np.sin(nodes) / n)

        seq = FunctionSequence(make, box=mesh.box)
        # a (1/n)-uniform perturbation shrinks ball infima at rate 1/n, so
        # the verdict needs the looser schedule to see it settle
        v = slice_at_point(seq, f, (0.0,), 0.5,
                           directions=[(0.0,), (1.0,), (-1.0,)], cfg=SET_CFG,
                           mesh=mesh)
        assert v.holds
        assert "surrogate_note" in v.witness


class TestTiltGapInvariance:
    def test_separated_pair_positive_both_ways(self):
        mesh = MeshSpec.line(-1.0, 1.0, 0.1)
        f = tabmodel(lambda x: x * x, mesh)
        g = tabmodel(lambda x: x * x - 5.0, mesh)
        for xstar in ((0.0,), (0.5,), (-1.5,)):
            lhs, rhs = tilt_gap_invariance(f, g, xstar, mesh, CFG)
            assert lhs == rhs == True  # noqa: E712

    def test_touching_pair_zero_both_ways(self):
        mesh = MeshSpec.line(-1.0, 1.0, 0.1)
        f = tabmodel(lambda x: x * x, mesh)
        lhs, rhs = tilt_gap_invariance(f, f, (0.7,), mesh, CFG)
        assert lhs == rhs == False  # noqa: E712

    def test_graph_epi_gap_example(self):
        mesh = MeshSpec.line(0.0, 1.0, 0.25)
        f = tabmodel(lambda x: 1.0, mesh)
        g = tabmodel(lambda x: 0.0, mesh)
        assert graph_epi_gap(g, f, mesh) == pytest.approx(1.0, abs=1e-12)


class TestVerdictPlumbing:
    def test_json_field_order_is_stable(self):
        v = Verdict(Status.HOLDS, 0.5, witness={"a": 1}, schedules={"n": [1]})
        assert list(json.loads(v.to_json())) == ["status", "margin",
                                                 "witness", "schedules"]
        assert v.to_json() == v.to_json()

    def test_infinity_serializes_as_string(self):
        v = Verdict(Status.FAILS, math.inf, witness={"value": math.inf})
        d = json.loads(v.to_json())
        assert d["margin"] == "inf" and d["witness"]["value"] == "inf"

    def test_limit_config_validation(self):
        with pytest.raises(ValueError):
            LimitConfig(n_schedule=())
        with pytest.raises(ValueError):
            LimitConfig(delta_ladder=(0.1, 0.5))
        with pytest.raises(ValueError):
            LimitConfig(tol=0.0)
        with pytest.raises(ValueError):
            LimitConfig(eventually_window=1000)

    def test_window_is_suffix(self):
        cfg = LimitConfig(n_schedule=(1, 2, 3, 4), eventually_window=2)
        assert cfg.window([10, 20, 30, 40]) == [30, 40]

    def test_snap_half_node_avoids_boundary_ties(self):
        h = 0.1
        for lam in (0.05, 0.1, 0.23, 0.5):
            snapped = snap_half_node(lam, h)
            assert snapped <= lam + h / 2 + 1e-12
            # half-node offset: never an exact multiple of h
            assert abs(snapped / h - round(snapped / h)) == pytest.approx(0.5)
        assert snap_half_node(0.0, h) == 0.0


# ------------------------------------------- one sweep against brute force

def masked_recovery(vals_at, f, x, cfg, mesh):
    """Recovery picks and verdict with one ball mask per n and a lexsort
    on (error, distance), ties in node order."""
    fx = float(f(x))
    nodes = mesh.nodes()
    dist_x = f.norm.pairwise(np.asarray([x], dtype=float), nodes)[0]
    ladder = cfg.radius_ladder
    picks = []
    for j, n in enumerate(cfg.n_schedule):
        r = ladder[min(j * len(ladder) // len(cfg.n_schedule), len(ladder) - 1)]
        mask = dist_x <= r
        if not mask.any():
            mask = dist_x <= dist_x.min() + SLACK
        vals = vals_at(n)[mask]
        err = np.where(np.isfinite(vals), np.abs(vals - fx), np.inf)
        k = np.lexsort((dist_x[mask], err))[0]
        picks.append((n, tuple(nodes[mask][k]), float(vals[k]), float(dist_x[mask][k])))
    win = cfg.window(picks)
    value_err = max(abs(p[2] - fx) if math.isfinite(p[2]) else math.inf for p in win)
    dist_err = max(p[3] for p in win)
    witness = {"picks": [{"n": p[0], "x_n": p[1], "f_n": p[2], "dist": p[3]} for p in picks],
               "window_value_err": value_err, "window_dist": dist_err}
    excess = max(value_err, dist_err - min(ladder))
    status = decide(excess, cfg.tol, cfg.decision_band)
    margin_ = cfg.tol - excess if status is Status.HOLDS else excess
    return [p[1] for p in picks], Verdict(status, margin_, witness)


def masked_wijsman(vals_at, f, x, lambda_max, cfg, mesh):
    """Wijsman at a point with one ball mask and one reduction per (n, lambda)."""
    _, rec = masked_recovery(vals_at, f, x, cfg, mesh)
    dist_x = f.norm.pairwise(np.asarray([x], dtype=float), mesh.nodes())[0]
    h = min(mesh.h)
    lambdas = sorted({0.0} | {snap_half_node(lam, h) for lam in cfg.radius_ladder
                              if lam < lambda_max}, reverse=True)
    rows, worst = [], math.inf
    for lam in lambdas:
        r_val = uniform_infimum(f, Ball(tuple(float(c) for c in x), lam, f.norm), mesh, cfg)
        mask = dist_x <= (lam if lam > 0 else h / 4)
        infs = [float(vals_at(n)[mask].min()) if mask.any() else math.inf
                for n in cfg.n_schedule]
        liminf = min(cfg.window(infs))
        m = margin(r_val, liminf)
        rows.append({"lambda": lam, "r_value": r_val, "liminf_inf": liminf, "margin": m})
        worst = min(worst, m)
    witness = {"recovery": rec.status.value, "rows": rows}
    sched = {"lambda_max": lambda_max}
    if rec.fails:
        return Verdict(Status.FAILS, rec.margin, witness | {"reason": "recovery"}, sched)
    status = combine([rec.status, decide(-worst, cfg.tol, cfg.decision_band)])
    return Verdict(status, worst, witness, sched)


def hexed(obj):
    """Floats as float.hex, containers recursively: equality is bitwise."""
    if isinstance(obj, dict):
        return {k: hexed(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [hexed(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    return obj


# few distinct values, so that errors |f_n - f(x)| tie; +inf included
TIED = st.sampled_from((-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, math.inf))


@settings(max_examples=250, deadline=None)
@given(st.sampled_from((0.05, 0.1, 0.25)), st.integers(-4, 4),
       st.one_of(st.lists(st.integers(2, 13), min_size=1, max_size=1),
                 st.lists(st.integers(2, 5), min_size=2, max_size=2)),
       st.sampled_from((EUCLIDEAN, MAX, TAXICAB)),
       st.sampled_from(("node", "midpoint", "offset")),
       st.sampled_from((0.1, 0.3, 0.5, 1.0)), st.integers(1, 8), st.data())
def test_sweep_matches_masked_brute_force(step, lo_steps, counts, norm, probe_kind,
                                          lambda_max, window, data):
    """Recovery picks, Wijsman rows and witness equal the masked brute force
    bit for bit: 1-D and 2-D meshes, all three norms, +inf values and ties
    in error and in distance, and every window of the 8-entry schedule,
    from one entry to the whole schedule (a Wijsman sweep from its first
    n).  A probe at a midpoint or off the mesh lattice is refused by the
    tabulated limit's lookup before any f_n is generated."""
    cfg = LimitConfig(n_schedule=tuple(range(1, 9)), eventually_window=window)
    lo = lo_steps * step
    mesh = MeshSpec(box=tuple((lo, lo + step * (c - 1)) for c in counts),
                    h=(step,) * len(counts))
    count = mesh.node_count
    tables = [np.array(data.draw(st.lists(TIED, min_size=count, max_size=count)))
              for _ in range(data.draw(st.integers(1, 3)))]
    corner = [data.draw(st.integers(0, c - 2)) for c in counts]
    shift = {"node": 0.0, "midpoint": 0.5, "offset": 0.3}[probe_kind]
    x = tuple(lo + step * (i + shift) for i in corner)
    fv = np.array(data.draw(st.lists(TIED, min_size=count, max_size=count)))
    if probe_kind == "node":
        fv[mesh.node_index(x)] = data.draw(st.sampled_from((0.0, 0.5, 1.0)))
    f = FunctionModel.tabulated(mesh, fv, norm=norm)
    if probe_kind != "node":
        def make(n):
            raise AssertionError(f"f_{n} generated")

        seq = FunctionSequence(make, box=mesh.box, norm=norm)
        with pytest.raises(KeyError, match="off-node query"):
            recovery_sequence(seq, f, x, cfg, mesh)
        with pytest.raises(KeyError, match="off-node query"):
            wijsman_at_point(seq, f, x, lambda_max, cfg, mesh)
        return

    def vals_at(n):
        return tables[n % len(tables)]

    def make_seq():
        return FunctionSequence(lambda n: FunctionModel.tabulated(mesh, vals_at(n), norm=norm),
                                box=mesh.box, norm=norm)

    picks, rec = recovery_sequence(make_seq(), f, x, cfg, mesh)
    want_picks, want_rec = masked_recovery(vals_at, f, x, cfg, mesh)
    assert hexed(picks) == hexed(want_picks)
    assert hexed(rec.to_dict()) == hexed(want_rec.to_dict())
    got = wijsman_at_point(make_seq(), f, x, lambda_max, cfg, mesh)
    want = masked_wijsman(vals_at, f, x, lambda_max, cfg, mesh)
    assert hexed(got.to_dict()) == hexed(want.to_dict())


def full_order_rows(f, x, cfg, mesh, lambdas):
    """r(f) of each lambda row as the sweep read it on all N nodes: the
    running minimum of f and max(0, d - lam) over the whole sorted order."""
    dist = f.norm.pairwise(np.asarray([x], dtype=float), mesh.nodes())[0]
    order = np.argsort(dist, kind="stable")
    dist = dist[order]
    low = np.minimum.accumulate(values_on(f, mesh)[order])
    return [_sorted_sup_inf(low, np.maximum(0.0, dist - lam), cfg.delta_ladder)
            for lam in lambdas], dist


@settings(max_examples=250, deadline=None)
@given(st.sampled_from((0.05, 0.1, 0.25)), st.integers(-4, 4),
       st.one_of(st.lists(st.integers(2, 13), min_size=1, max_size=1),
                 st.lists(st.integers(2, 5), min_size=2, max_size=2)),
       st.sampled_from((EUCLIDEAN, MAX, TAXICAB)), st.data())
def test_lambda_rows_on_the_largest_rungs_prefix_are_the_full_order(step, lo_steps, counts,
                                                                     norm, data):
    """Each lambda row read on the prefix that its largest delta rung
    reaches equals the row read on all N nodes bit for bit, or both
    refuse: lam = 0, lams reaching past the box, and lams and deltas that
    are multiples of the step, so that distances tie at a rung's end and
    lam + delta rounds to either side of a node's distance."""
    lo = lo_steps * step
    mesh = MeshSpec(box=tuple((lo, lo + step * (c - 1)) for c in counts),
                    h=(step,) * len(counts))
    lambdas = sorted(set(data.draw(st.lists(
        st.one_of(st.integers(0, 8).map(lambda k: k * step), st.just(40.0),
                  st.floats(0.0, 2.0)), min_size=1, max_size=4))), reverse=True)
    deltas = set(data.draw(st.lists(
        st.one_of(st.integers(1, 8).map(lambda k: k * step), st.floats(1e-3, 2.0)),
        min_size=1, max_size=5)))
    cfg = LimitConfig(n_schedule=(1, 2), delta_ladder=tuple(sorted(deltas, reverse=True)))
    count = mesh.node_count
    fv = np.array(data.draw(st.lists(st.one_of(TIED, st.just(-0.0)),
                                     min_size=count, max_size=count)))
    at = data.draw(st.integers(0, count - 1))
    fv[at] = 0.0
    f = FunctionModel.tabulated(mesh, fv, norm=norm)
    x = tuple(mesh.nodes()[at])
    seq = FunctionSequence(lambda n: f, box=mesh.box, norm=norm)
    try:
        want, dist = full_order_rows(f, x, cfg, mesh, lambdas)
    except ValueError as error:
        with pytest.raises(ValueError, match=re.escape(str(error))):
            _sweep(seq, f, x, cfg, mesh, lambdas)
        return
    assert hexed(_sweep(seq, f, x, cfg, mesh, lambdas)[2]) == hexed(want)
    for lam in lambdas:
        for delta in cfg.delta_ladder:
            reach = int((np.maximum(0.0, dist - lam) <= delta).sum())
            assert _rung_reach(dist, lam, delta) == reach


@pytest.mark.parametrize("dist,lam,delta", [
    ((0.0, 0.1, 0.2, 0.4000000000000001), 0.1, 0.30000000000000004),
    ((0.0, 0.1, 0.2, 0.30000000000000004), 0.1, 0.2)], ids=["past", "short of"])
def test_a_rungs_reach_is_its_predicate_where_lam_plus_delta_rounds(dist, lam, delta):
    """lam + delta rounds short of (then past) a distance whose
    max(0, d - lam) is (is not) within delta: the reach follows the
    predicate, not ``searchsorted`` at lam + delta."""
    dist = np.asarray(dist)
    want = int((np.maximum(0.0, dist - lam) <= delta).sum())
    assert int(np.searchsorted(dist, lam + delta, "right")) != want
    assert _rung_reach(dist, lam, delta) == want


class TestSweepWork:
    def envelope_sequence(self, mesh):
        f = tabmodel(lambda x: abs(x - 0.3), mesh)
        made = Counter()

        def make(n):
            made[n] += 1
            return pasch_hausdorff(f, n, mesh)

        return f, FunctionSequence(make, box=mesh.box), made

    def test_each_f_n_is_generated_once_and_not_cached(self):
        """A Wijsman verdict generates each f_n of the eventual window once
        and no n before it; recovery picks and Ekeland witnesses list every
        n, so they generate each f_n of the schedule once."""
        mesh = MeshSpec.line(-1.0, 1.0, 0.05)
        f, seq, made = self.envelope_sequence(mesh)
        assert wijsman_at_point(seq, f, (0.0,), 0.5, CFG, mesh).holds
        assert made == Counter(CFG.window(CFG.n_schedule))
        made.clear()
        recovery_sequence(seq, f, (0.0,), CFG, mesh)
        assert made == Counter(CFG.n_schedule)
        made.clear()
        slope_stability_witness(seq, f, (0.0,), mesh, CFG)
        assert made == Counter(CFG.n_schedule)

    def test_an_n_before_the_window_is_never_generated(self):
        mesh = MeshSpec.line(-1.0, 1.0, 0.05)
        f, seq, _ = self.envelope_sequence(mesh)
        first = CFG.window(CFG.n_schedule)[0]

        def make(n):
            if n < first:
                raise RuntimeError(f"f_{n} generated")
            return seq.generator(n)

        late = FunctionSequence(make, box=mesh.box)
        assert (wijsman_at_point(late, f, (0.0,), 0.5, CFG, mesh).to_dict()
                == wijsman_at_point(seq, f, (0.0,), 0.5, CFG, mesh).to_dict())
        with pytest.raises(RuntimeError, match="f_1 generated"):
            recovery_sequence(late, f, (0.0,), CFG, mesh)

    def test_a_probe_beyond_every_rung_is_refused_before_any_f_n(self):
        """5.0 lies beyond every rung and off the mesh: the tabulated limit's
        lookup refuses it, before the lambda rows' r(f) and any f_n."""
        mesh = MeshSpec.line(-1.0, 1.0, 0.05)
        f, seq, made = self.envelope_sequence(mesh)
        with pytest.raises(KeyError, match=r"off-node query \(5.0,\)"):
            wijsman_at_point(seq, f, (5.0,), 0.5, CFG, mesh)
        assert made == Counter()

    def test_the_limit_is_read_by_one_lookup_per_verdict(self, monkeypatch):
        """The lambda rows share the limit's node values: one model call per
        verdict, f(x) at the probe, not one per node or per row."""
        mesh = MeshSpec.line(-1.0, 1.0, 0.05)
        f, seq, _ = self.envelope_sequence(mesh)
        calls = Counter()
        real = FunctionModel.__call__

        def counting(model, x):
            calls[x] += 1
            return real(model, x)

        monkeypatch.setattr(FunctionModel, "__call__", counting)
        verdict = wijsman_at_point(seq, f, (0.0,), 0.5, CFG, mesh)
        assert len(verdict.witness["rows"]) > 1
        assert calls == Counter({(0.0,): 1})

    def test_memory_is_linear_in_the_node_count(self):
        """One Wijsman verdict on a 4001-node line holds a few node arrays at
        a time, not one per f_n of the schedule."""
        mesh = MeshSpec.line(-1.0, 1.0, 5e-4)
        nodes = mesh.node_count
        assert nodes == 4001
        f, seq, _ = self.envelope_sequence(mesh)
        tracemalloc.start()
        try:
            wijsman_at_point(seq, f, (0.0,), 0.5, CFG, mesh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(CFG.n_schedule) / 4 * nodes * 8
