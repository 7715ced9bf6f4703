"""The shared verdict rule: decide, the INF-aware margin, combine, and the
one-sided excess verdict."""

import math
import numbers
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from epislope.extreal import INF
from epislope.verdict import (LimitConfig, Status, _finite, combine, decide,
                              excess_verdict, margin)

TOL, BAND = 1e-6, 0.05


class TestDecide:
    @pytest.mark.parametrize("excess,status", [
        (-1.0, Status.HOLDS),
        (0.0, Status.HOLDS),
        (TOL, Status.HOLDS),
        (0.01, Status.INCONCLUSIVE),
        (BAND, Status.FAILS),
        (INF, Status.FAILS),
    ])
    def test_cutoffs(self, excess, status):
        assert decide(excess, TOL, BAND) is status

    def test_just_past_each_cutoff(self):
        assert decide(math.nextafter(TOL, 1.0), TOL, BAND) is Status.INCONCLUSIVE
        assert decide(math.nextafter(BAND, 0.0), TOL, BAND) is Status.INCONCLUSIVE

    def test_slack_widens_both_cutoffs(self):
        slack = 0.01
        assert decide(0.005, TOL + slack, BAND + slack) is Status.HOLDS
        assert decide(0.055, TOL + slack, BAND + slack) is Status.INCONCLUSIVE
        assert decide(BAND + slack, TOL + slack, BAND + slack) is Status.FAILS

    def test_zero_tol_holds_only_without_excess(self):
        assert decide(0.0, 0.0, BAND) is Status.HOLDS
        assert decide(1e-300, 0.0, BAND) is Status.INCONCLUSIVE

    def test_holds_is_tested_first(self):
        # a tolerance at or above the band: an excess inside both holds
        assert decide(0.07, 0.1, BAND) is Status.HOLDS
        assert decide(0.2, 0.1, BAND) is Status.FAILS

    def test_fractions(self):
        assert decide(Fraction(1, 3), Fraction(1, 3), 1) is Status.HOLDS
        assert decide(Fraction(1, 2), Fraction(1, 3), 1) is Status.INCONCLUSIVE


class TestMargin:
    @pytest.mark.parametrize("lhs,rhs,expected", [
        (1.0, 3.0, 2.0),
        (3.0, 1.0, -2.0),
        (INF, INF, 0.0),
        (1.0, INF, INF),
        (INF, 1.0, -INF),
        (Fraction(1, 3), INF, INF),
        (INF, Fraction(1, 3), -INF),
    ])
    def test_table(self, lhs, rhs, expected):
        assert margin(lhs, rhs) == expected

    def test_both_infinite_is_a_zero_float(self):
        m = margin(INF, INF)
        assert m == 0.0 and isinstance(m, float) and not math.isnan(m)

    def test_fractions_stay_exact(self):
        m = margin(Fraction(1, 3), Fraction(1, 2))
        assert isinstance(m, Fraction) and m == Fraction(1, 6)
        assert margin(Fraction(-1, 2), Fraction(-1, 3)) == Fraction(1, 6)


class TestExcessVerdict:
    @pytest.mark.parametrize("excess,status,expected_margin", [
        (0.0, Status.HOLDS, TOL),
        (TOL / 4, Status.HOLDS, TOL - TOL / 4),
        (0.01, Status.INCONCLUSIVE, 0.01),
        (BAND, Status.FAILS, BAND),
        (INF, Status.FAILS, INF),
    ])
    def test_status_and_margin(self, excess, status, expected_margin):
        v = excess_verdict(excess, TOL, BAND)
        assert v.status is status and v.status is decide(excess, TOL, BAND)
        assert v.margin == expected_margin

    def test_witness_and_schedules_are_carried(self):
        witness, schedules = {"gap": 0.01}, {"p": 1.0}
        v = excess_verdict(0.01, TOL, BAND, witness, schedules)
        assert v.witness is witness and v.schedules is schedules

    @pytest.mark.parametrize("excess", [Fraction(1, 50), Fraction(1, 10)])
    def test_fraction_excess_stays_a_fraction(self, excess):
        v = excess_verdict(excess, TOL, BAND)
        assert v.status is not Status.HOLDS
        assert isinstance(v.margin, Fraction) and v.margin == excess

    def test_fraction_tolerance_keeps_the_holds_margin_exact(self):
        v = excess_verdict(Fraction(1, 3), Fraction(1, 2), 1)
        assert v.status is Status.HOLDS
        assert isinstance(v.margin, Fraction) and v.margin == Fraction(1, 6)

    def test_default_witness_and_schedules_are_fresh(self):
        a, b = excess_verdict(0.0, TOL, BAND), excess_verdict(0.0, TOL, BAND)
        assert a.witness == {} and a.schedules == {}
        a.witness["x"] = 1
        a.schedules["y"] = 2
        assert b.witness == {} and b.schedules == {}
        assert a.witness is not b.witness and a.schedules is not b.schedules


HOLDS, FAILS, INCONCLUSIVE = Status.HOLDS, Status.FAILS, Status.INCONCLUSIVE


class TestCombine:
    @pytest.mark.parametrize("statuses,expected", [
        ([HOLDS], HOLDS),
        ([HOLDS, HOLDS], HOLDS),
        ([HOLDS, INCONCLUSIVE], INCONCLUSIVE),
        ([INCONCLUSIVE, INCONCLUSIVE], INCONCLUSIVE),
        ([FAILS], FAILS),
        ([HOLDS, FAILS], FAILS),
        ([INCONCLUSIVE, FAILS, HOLDS], FAILS),
        ([], HOLDS),
    ])
    def test_table(self, statuses, expected):
        assert combine(statuses) is expected

    def test_accepts_a_generator(self):
        assert combine(s for s in (Status.HOLDS, Status.INCONCLUSIVE)) is Status.INCONCLUSIVE


class TestLimitConfigBand:
    @pytest.mark.parametrize("tol,band", [(0.05, 0.05), (0.1, 0.05), (1e-6, 1e-6)])
    def test_tol_at_or_above_the_band_is_refused(self, tol, band):
        # decide() would have no Inconclusive band left
        with pytest.raises(ValueError) as info:
            LimitConfig(tol=tol, decision_band=band)
        assert str(tol) in str(info.value) and str(band) in str(info.value)

    def test_tol_just_below_the_band_is_accepted(self):
        cfg = LimitConfig(tol=math.nextafter(0.05, 0.0), decision_band=0.05)
        assert cfg.tol < cfg.decision_band


class TestLimitConfigLadders:
    @pytest.mark.parametrize("name", ["delta_ladder", "radius_ladder"])
    @pytest.mark.parametrize("ladder", [(), (0.1, 0.5), (0.5, 0.5, 0.1), (0.5, 0.0),
                                        (0.5, -0.1)])
    def test_bad_ladder_is_refused_by_name(self, name, ladder):
        # an increasing radius ladder would grow the recovery balls with n
        with pytest.raises(ValueError, match=name):
            LimitConfig(**{name: ladder})

    @pytest.mark.parametrize("name", ["delta_ladder", "radius_ladder"])
    def test_strictly_decreasing_positive_ladder_is_accepted(self, name):
        assert getattr(LimitConfig(**{name: (0.5, 0.1)}), name) == (0.5, 0.1)


class TestLimitConfigFields:
    """Every field is checked for type and value, and the error names it."""

    @pytest.mark.parametrize("name", ["tol", "decision_band"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, "abc", True])
    def test_tolerance_that_is_not_a_finite_real_is_refused(self, name, value):
        # a NaN tol made every comparison False: penalty_limit turned
        # Inconclusive and the report's JSON held NaN
        with pytest.raises(ValueError, match=name):
            LimitConfig(**{name: value})

    @pytest.mark.parametrize("schedule", [(1, 2.5, 4), (1, 2.0, 4), (0, 1), (-1, 1),
                                          (True, 2), ("a", "b")])
    def test_n_schedule_of_non_positive_integers_is_refused(self, schedule):
        # (1, 2.5, 4) ran with n = 2.5 and was reported as [1, 2, 4]
        with pytest.raises(ValueError, match="n_schedule"):
            LimitConfig(n_schedule=schedule)

    def test_numpy_integers_are_accepted_in_n_schedule(self):
        cfg = LimitConfig(n_schedule=tuple(np.arange(1, 5)))
        assert cfg.schedule_dict()["n_schedule"] == [1, 2, 3, 4]

    @pytest.mark.parametrize("name", ["delta_ladder", "radius_ladder"])
    @pytest.mark.parametrize("ladder", [(math.inf, 0.5), (0.5, math.nan), ("b", "a")])
    def test_ladder_entry_that_is_not_a_finite_real_is_refused(self, name, ladder):
        with pytest.raises(ValueError, match=name):
            LimitConfig(**{name: ladder})

    @pytest.mark.parametrize("window", [2.5, "4", True])
    def test_eventually_window_that_is_not_an_integer_is_refused(self, window):
        with pytest.raises(ValueError, match="eventually_window"):
            LimitConfig(eventually_window=window)


def _finite_by_abc(value, kind):
    """The ABC form of the finiteness check, without the exact-type fast path."""
    return (isinstance(value, kind) and not isinstance(value, bool)
            and (isinstance(value, numbers.Integral) or math.isfinite(value)))


class TestFinite:
    @pytest.mark.parametrize("kind", [numbers.Real, numbers.Integral],
                             ids=["Real", "Integral"])
    @pytest.mark.parametrize("value", [
        0, 7, -3, 2 ** 80, True, False, 0.0, -0.0, 2.5, math.inf, -math.inf, math.nan,
        Fraction(1, 3), Fraction(4), Decimal("1.5"), Decimal("NaN"),
        np.float64(2.5), np.float64(-0.0), np.float64(math.inf), np.float64(math.nan),
        np.int64(3), np.bool_(True), "1", None,
    ], ids=repr)
    def test_matches_the_abc_form(self, value, kind):
        assert _finite(value, kind) is _finite_by_abc(value, kind)

    def test_default_kind_is_real(self):
        assert _finite(2.5) and not _finite(math.inf) and not _finite(True)
