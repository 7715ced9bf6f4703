"""Decoupled sums: diagonal distance, decoupling inequality, the bridge to
Wijsman convergence of the penalized sequence, and sum-rule witnesses."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epislope import (
    DecoupledSum, EUCLIDEAN, FunctionModel, MAX, MeshSpec, Status,
    SubdifferentialOracle, TAXICAB, decoupling_inequality, diagonal_distance,
    prop71_bridge, r2_witness,
)
from epislope.sumrules import PRODUCT_DIM_CAP, product_mesh
from epislope import catalogue, convergence, sumrules

COARSE = catalogue.coarse_config()


def get(name):
    return catalogue.get(name, seed=catalogue.DEFAULT_SEED)


class TestDiagonalDistance:
    def test_diagonal_points_are_at_zero(self):
        assert diagonal_distance([(0.4,), (0.4,), (0.4,)], EUCLIDEAN) == 0.0

    def test_pair_half_spread(self):
        assert diagonal_distance([(0.0,), (1.0,)], EUCLIDEAN) == 0.5

    def test_triple_half_range(self):
        assert diagonal_distance([(0.0,), (1.0,), (4.0,)], EUCLIDEAN) == 2.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            diagonal_distance([(0.0,)], EUCLIDEAN)
        with pytest.raises(ValueError):
            diagonal_distance([(0.0,), (0.0, 1.0)], EUCLIDEAN)

    def test_higher_dimension_pair_is_half_the_base_distance(self):
        assert diagonal_distance([(0.0, 0.0), (1.0, 1.0)], MAX) == 0.5
        assert diagonal_distance([(0.0, 0.0), (3.0, 4.0)], EUCLIDEAN) == 2.5
        assert diagonal_distance([(0.0, 0.0), (1.0, 1.0)], TAXICAB) == 1.0

    def test_three_points_on_a_plane_are_refused(self):
        with pytest.raises(ValueError, match="only k = 2"):
            diagonal_distance([(0.0, 0.0), (1.0, 1.0), (0.0, 1.0)], MAX)

    @given(st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False),
                    min_size=2, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_exact_half_range_formula_on_the_line(self, coords):
        d = diagonal_distance([(c,) for c in coords], EUCLIDEAN)
        assert d == (max(coords) - min(coords)) / 2.0


class TestProductMesh:
    def test_budget_refusal_names_the_size(self):
        mesh = MeshSpec(box=((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)),
                        h=(0.5, 0.5, 0.5))
        with pytest.raises(ValueError, match="refused"):
            product_mesh(mesh, 2)
        assert PRODUCT_DIM_CAP == 4

    def test_product_ball_is_componentwise(self):
        # max product norm: a tuple is within lam of the diagonal point
        # exactly when every component is within lam of the base point
        mesh = MeshSpec.line(-1.0, 1.0, 0.25)
        pm = product_mesh(mesh, 2)
        xbar = np.array([0.0, 0.0])
        for p in pm.nodes():
            joint = max(abs(p[0] - xbar[0]), abs(p[1] - xbar[1])) <= 0.5
            split = abs(p[0] - xbar[0]) <= 0.5 and abs(p[1] - xbar[1]) <= 0.5
            assert joint == split


class TestDecoupledSum:
    def test_needs_two_components(self):
        mesh = MeshSpec.line(-1.0, 1.0, 0.5)
        f = FunctionModel.tabulated(mesh, np.zeros(mesh.node_count))
        with pytest.raises(ValueError):
            DecoupledSum((f,))

    def test_value_adds_with_infinity_absorbing(self):
        mesh = MeshSpec.line(-1.0, 1.0, 0.5)
        f = FunctionModel.tabulated(mesh, np.arange(mesh.node_count, dtype=float))
        g = FunctionModel.tabulated(
            mesh, np.where(np.arange(mesh.node_count) % 2 == 0, 1.0, np.inf))
        ds = DecoupledSum((f, g))
        assert ds.value([(-1.0,), (-1.0,)]) == 1.0
        assert ds.value([(-1.0,), (-0.5,)]) == math.inf


class TestDecouplingInequality:
    def test_lipschitz_plus_lsc_holds(self):
        p = get("decouple-lipschitz-lsc")
        v = decoupling_inequality(p["sum"], p["xbar"], p["mesh"], p["cfg"])
        assert v.holds

    def test_shared_point_indicators_hold(self):
        p = get("decouple-indicator-pair")
        v = decoupling_inequality(p["sum"], p["xbar"], p["mesh"], p["cfg"])
        assert v.holds

    def test_interleaved_spikes_fail(self):
        p = get("decouple-interleaved-fail")
        v = decoupling_inequality(p["sum"], p["xbar"], p["mesh"], p["cfg"])
        assert v.fails
        assert v.witness["rows"][0]["margin"] <= -1.0

    def test_boundary_case_is_inconclusive(self):
        p = get("decouple-boundary")
        v = decoupling_inequality(p["sum"], p["xbar"], p["mesh"], p["cfg"])
        assert v.status is Status.INCONCLUSIVE

    def test_witness_reports_the_holding_prefix(self):
        p = get("decouple-lipschitz-lsc")
        v = decoupling_inequality(p["sum"], p["xbar"], p["mesh"], p["cfg"])
        rows = v.witness["rows"]
        assert v.witness["holding_prefix_rungs"] == len(rows)
        assert v.schedules["lambda_ladder"] == sorted(
            v.schedules["lambda_ladder"])


class TestBridge:
    def test_zero_pair_holds_both_ways(self):
        mesh = catalogue.coarse_mesh()
        zero = FunctionModel.tabulated(mesh, np.zeros(mesh.node_count),
                                       lipschitz_hint=0.0)
        ds = DecoupledSum((zero, zero))
        dec, wij = prop71_bridge(ds, (0.0,), mesh, COARSE)
        assert dec.holds and wij.holds

    def test_lipschitz_pair_holds_both_ways(self):
        p = get("decouple-lipschitz-lsc")
        dec, wij = prop71_bridge(p["sum"], p["xbar"], p["mesh"], p["cfg"])
        assert dec.holds and wij.holds

    def test_engineered_failure_fails_both_ways(self):
        p = get("decouple-interleaved-fail")
        dec, wij = prop71_bridge(p["sum"], p["xbar"], p["mesh"], p["cfg"])
        assert dec.fails and wij.fails


@pytest.mark.parametrize("operation", ["prop71_bridge", "r2_witness"])
def test_euclidean_plane_base_is_refused_before_any_product(monkeypatch, operation):
    """The penalized sequence needs the max product norm, which a 2-D
    Euclidean base does not give: the refusal comes before the decoupling
    verdict and before any product mesh is assembled."""
    mesh = MeshSpec(box=((-0.5, 0.5), (-0.5, 0.5)), h=(0.25, 0.25))
    zero = FunctionModel.tabulated(mesh, np.zeros(mesh.node_count), norm=EUCLIDEAN)
    ds = DecoupledSum((zero, zero))
    built = []
    real = sumrules._product_data

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(sumrules, "_product_data", counted)
    oracles = [SubdifferentialOracle(lambda x: [(0.0, 0.0)])] * 2
    args = (ds, oracles) if operation == "r2_witness" else (ds,)
    with pytest.raises(ValueError, match="max base norm"):
        getattr(sumrules, operation)(*args, (0.0, 0.0), mesh, COARSE)
    assert built == []


@pytest.mark.parametrize("operation,name", [("prop71_bridge", "decouple-lipschitz-lsc"),
                                            ("r2_witness", "sum-smooth-kink")])
def test_bridge_and_witness_assemble_the_product_once(monkeypatch, operation, name):
    """The decoupling verdict and the penalized sequence share one
    product assembly."""
    p = get(name)
    built = []
    real = sumrules._product_data

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(sumrules, "_product_data", counted)
    args = (p["sum"], p["oracles"]) if operation == "r2_witness" else (p["sum"],)
    getattr(sumrules, operation)(*args, p["xbar"], p["mesh"], p["cfg"])
    assert len(built) == 1


@pytest.mark.parametrize("operation", ["decoupling_inequality", "prop71_bridge",
                                       "r2_witness"])
def test_xbar_beyond_every_delta_of_the_mesh_is_refused_before_any_sweep(monkeypatch,
                                                                         operation):
    """No node lies within lam + delta of xbar = 5 on the line [-1, 1]:
    the decoupling inequality was a vacuous Holds there (lhs = rhs = inf),
    and the bridge and the witness raised an off-node KeyError from their
    Wijsman side.  Each refuses in the r-form's rungs instead."""
    p = get("sum-smooth-kink")

    def sweep(*args, **kwargs):
        raise AssertionError("swept")

    monkeypatch.setattr(convergence, "_sweep", sweep)
    args = (p["sum"], p["oracles"]) if operation == "r2_witness" else (p["sum"],)
    with pytest.raises(ValueError, match="no mesh node within the largest delta"):
        getattr(sumrules, operation)(*args, (5.0,), p["mesh"], p["cfg"])


def test_xbar_just_outside_the_box_keeps_its_verdict():
    p = get("sum-smooth-kink")
    v = decoupling_inequality(p["sum"], (1.02,), p["mesh"], p["cfg"])
    assert v.holds and v.witness["rows"][0]["lhs"] == 1.8525000000000005


class TestSumRuleWitness:
    def test_smooth_plus_kink(self):
        p = get("sum-smooth-kink")
        v = r2_witness(p["sum"], p["oracles"], p["xbar"], p["mesh"], p["cfg"])
        assert v.holds
        assert v.witness["suffix_sum_norm"] <= p["cfg"].tol
        assert v.witness["split_consistent"]

    def test_cancelling_gradients_sum_to_zero_exactly(self):
        p = get("sum-cancel")
        v = r2_witness(p["sum"], p["oracles"], p["xbar"], p["mesh"], p["cfg"])
        assert v.holds
        assert all(row["sum_norm"] == 0.0 for row in v.witness["rows"])

    def test_offnode_kink(self):
        p = get("sum-offnode-kink")
        v = r2_witness(p["sum"], p["oracles"], p["xbar"], p["mesh"], p["cfg"])
        assert v.holds
        assert v.witness["suffix_sum_norm"] <= v.witness["slope"] + p["cfg"].tol

    def test_oracle_count_must_match(self):
        p = get("sum-cancel")
        with pytest.raises(ValueError):
            r2_witness(p["sum"], p["oracles"][:1], p["xbar"], p["mesh"],
                       p["cfg"])

    def test_requires_decoupling_to_hold(self):
        p = get("decouple-interleaved-fail")
        dummy = [SubdifferentialOracle(lambda x: [(0.0,)])] * 2
        with pytest.raises(ValueError, match="decoupling"):
            r2_witness(p["sum"], dummy, p["xbar"], p["mesh"], p["cfg"])

    def test_empty_oracle_sample_is_refused(self):
        p = get("sum-smooth-kink")
        oracles = [p["oracles"][0], SubdifferentialOracle(lambda x: [])]
        with pytest.raises(ValueError, match=r"oracle 1 .*empty sample at \(0\.0,\)"):
            r2_witness(p["sum"], oracles, p["xbar"], p["mesh"], p["cfg"])

    def test_part_b_between_the_widened_cutoffs_is_inconclusive(self, monkeypatch):
        # witness points one mesh step apart and elements of norm 2.4 give
        # diam * norm = 0.05 * 2.4 = 0.12: above tol + 2h = 0.100001, below
        # band + 2h = 0.15.  The elements cancel, so part (a) Holds.
        p = get("sum-smooth-kink")
        real = sumrules.slope_stability_witness

        def split(*args):
            wit = real(*args)
            wit.points = [(0.0, 0.05)] * len(wit.points)
            return wit

        monkeypatch.setattr(sumrules, "slope_stability_witness", split)
        oracles = [SubdifferentialOracle(lambda x: [(2.4,)]),
                   SubdifferentialOracle(lambda x: [(-2.4,)])]
        v = r2_witness(p["sum"], oracles, p["xbar"], p["mesh"], p["cfg"])
        allowance = 2 * min(p["mesh"].h)
        assert v.witness["mesh_allowance"] == allowance == 0.1
        assert v.witness["suffix_sum_norm"] == 0.0
        assert v.witness["suffix_diam_norm"] == pytest.approx(0.12)
        assert v.status is Status.INCONCLUSIVE
        assert v.margin == p["cfg"].tol + allowance - v.witness["suffix_diam_norm"]
