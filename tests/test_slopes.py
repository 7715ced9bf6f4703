"""Strong slopes, discrete Ekeland points, slope-stability witnesses,
Fréchet-subdifferential membership, and slope-control witnesses; the
sequence witnesses' work per f_n and their memory."""

import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epislope import (
    EUCLIDEAN, MAX, TAXICAB, FunctionModel, FunctionSequence, LimitConfig,
    MeshSpec, Status,
    SubdifferentialOracle, ekeland_point, frechet_membership, p2_witness,
    pasch_hausdorff, sequence_p2_stability, slope_stability_witness,
    stationary_sequence, strong_slope,
)
from epislope.slopes import _least_sum_norm

CFG = LimitConfig()


def line(h=0.01):
    return MeshSpec.line(-1.0, 1.0, h)


def tabmodel(fn, mesh, **kw):
    vals = np.array([fn(float(p[0])) for p in mesh.nodes()])
    return FunctionModel.tabulated(mesh, vals, **kw)


class TestStrongSlope:
    def test_linear_function_slope_one(self):
        mesh = line(h=1e-3)
        f = tabmodel(lambda x: x, mesh)
        est = strong_slope(f, (0.0,), mesh, CFG)
        assert est.value == pytest.approx(1.0, abs=1e-9)

    def test_minimum_of_abs_has_zero_slope(self):
        mesh = line(h=1e-3)
        f = tabmodel(abs, mesh)
        assert strong_slope(f, (0.0,), mesh, CFG).value == 0.0

    def test_quadratic_away_from_minimum(self):
        h = 1e-3
        mesh = line(h=h)
        f = tabmodel(lambda x: x * x, mesh)
        est = strong_slope(f, (1.0,), mesh, CFG)
        assert est.value == pytest.approx(2.0, abs=2 * h)

    def test_trace_is_monotone_in_radius(self):
        mesh = line(h=0.01)
        f = tabmodel(lambda x: math.sin(3 * x), mesh)
        trace = strong_slope(f, (0.25,), mesh, CFG).ratio_trace
        sups = [s for _, s in trace]
        assert sups == sorted(sups, reverse=True)

    def test_infinite_neighbors_contribute_zero(self):
        mesh = line(h=0.01)
        f = tabmodel(lambda x: 0.0 if abs(x) < 1e-9 else math.inf, mesh)
        assert strong_slope(f, (0.0,), mesh, CFG).value == 0.0

    def test_requires_a_node_inside_the_domain(self):
        mesh = line(h=0.01)
        f = tabmodel(lambda x: 0.0 if abs(x) < 1e-9 else math.inf, mesh)
        with pytest.raises(ValueError):
            strong_slope(f, (0.5,), mesh, CFG)
        with pytest.raises((ValueError, KeyError)):
            strong_slope(tabmodel(abs, mesh), (0.505,), mesh, CFG)

    def test_gradient_agreement_on_smooth_instances(self):
        h = 1e-3
        mesh = line(h=h)
        f = tabmodel(lambda x: x * x, mesh)
        for x in (-0.8, -0.3, 0.4, 0.9):
            est = strong_slope(f, (x,), mesh, CFG)
            # Hessian bound 2 gives the mesh-error constant
            assert abs(est.value - abs(2 * x)) <= 2 * h + 1e-12


class TestEkelandPoint:
    def _check_postcondition(self, f, z, x0, sigma, radius, mesh):
        fz = float(f(z))
        for p in mesh.nodes():
            if f.norm.dist(tuple(p), x0) <= radius:
                v = f(tuple(p))
                if v != math.inf:
                    assert fz <= float(v) + sigma * f.norm.dist(tuple(p), z) + 1e-12

    def test_quadratic_descends_until_slope_below_sigma(self):
        mesh = line(h=0.01)
        f = tabmodel(lambda x: x * x, mesh)
        sigma = 0.1
        z = ekeland_point(f, (0.5,), sigma, 1.0, mesh)
        assert abs(2 * z[0]) <= sigma + 2 * 0.01
        self._check_postcondition(f, z, (0.5,), sigma, 1.0, mesh)

    def test_node_minimum_is_a_fixpoint(self):
        mesh = line(h=0.01)
        f = tabmodel(lambda x: (x - 0.25) ** 2, mesh)
        z = ekeland_point(f, (0.25,), 0.5, 0.3, mesh)
        assert z == (0.25,)

    def test_linear_function_with_dominating_sigma(self):
        mesh = line(h=0.01)
        f = tabmodel(lambda x: x, mesh)
        z = ekeland_point(f, (0.0,), 2.0, 1.0, mesh)
        assert z == (0.0,)

    def test_value_never_increases(self):
        mesh = line(h=0.05)
        rng = np.random.default_rng(13)
        for _ in range(5):
            f = FunctionModel.tabulated(
                mesh, rng.uniform(-1.0, 1.0, size=mesh.node_count))
            x0 = (float(rng.choice(mesh.nodes()[:, 0])),)
            z = ekeland_point(f, x0, 0.5, 0.5, mesh)
            assert float(f(z)) <= float(f(x0)) + 1e-12
            self._check_postcondition(f, z, x0, 0.5, 0.5, mesh)

    def test_postcondition_survives_python_O(self):
        """The postcondition is a raised InvariantError, which python -O
        keeps; here argmin is made to return the argmax, so the descent
        stops at once, short of an Ekeland point."""
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from epislope import FunctionModel, InvariantError, MeshSpec, slopes\n"
            "if not sys.flags.optimize:\n"
            "    sys.exit(3)\n"
            "class ArgmaxNumpy:\n"
            "    def __getattr__(self, name):\n"
            "        return np.argmax if name == 'argmin' else getattr(np, name)\n"
            "slopes.np = ArgmaxNumpy()\n"
            "mesh = MeshSpec.line(-1.0, 1.0, 0.05)\n"
            "f = FunctionModel.tabulated(mesh, mesh.nodes()[:, 0] ** 2)\n"
            "try:\n"
            "    slopes.ekeland_point(f, (0.5,), 0.1, 1.0, mesh)\n"
            "except InvariantError as exc:\n"
            "    print('InvariantError:', exc)\n"
        )
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.startswith("InvariantError: Ekeland point beaten")

    def test_invalid_inputs(self):
        mesh = line(h=0.1)
        f = tabmodel(lambda x: math.inf, mesh)
        with pytest.raises(ValueError):
            ekeland_point(f, (0.0,), 1.0, 0.5, mesh)
        with pytest.raises(ValueError):
            ekeland_point(tabmodel(abs, mesh), (0.0,), -1.0, 0.5, mesh)


class TestSlopeStability:
    def test_constant_sequence_reproduces_the_slope(self):
        mesh = line(h=0.01)
        f = tabmodel(abs, mesh)
        seq = FunctionSequence(lambda n: f, box=mesh.box)
        wit = slope_stability_witness(seq, f, (0.3,), mesh, CFG)
        sigma = strong_slope(f, (0.3,), mesh, CFG).value
        assert wit.suffix_max_slope(CFG.window_size) <= wit.limsup_bound
        assert wit.limsup_bound == pytest.approx(sigma + CFG.tol)

    def test_envelopes_of_a_kink(self):
        mesh = line(h=0.01)
        f = tabmodel(abs, mesh, lipschitz_hint=1.0)
        seq = FunctionSequence(lambda n: pasch_hausdorff(f, n, mesh), box=mesh.box)
        wit = slope_stability_witness(seq, f, (0.3,), mesh, CFG)
        assert wit.suffix_max_slope(CFG.window_size) <= 1.0 + CFG.tol

    def test_envelopes_of_a_jump_reach_zero_slope(self):
        mesh = line(h=0.01)
        f = tabmodel(lambda x: 0.0 if x < 0.25 - 1e-9 else 1.0, mesh)
        seq = FunctionSequence(lambda n: pasch_hausdorff(f, n, mesh), box=mesh.box)
        wit = slope_stability_witness(seq, f, (0.0,), mesh, CFG)
        assert wit.suffix_max_slope(CFG.window_size) <= CFG.tol

    def test_divergent_sequence_rejected(self):
        mesh = line(h=0.01)
        f = tabmodel(lambda x: 0.0, mesh)
        bad = FunctionSequence(
            lambda n: tabmodel(lambda x: -1.0 if abs(x) > 1e-9 else 0.0, mesh),
            box=mesh.box)
        with pytest.raises(ValueError):
            slope_stability_witness(bad, f, (0.0,), mesh, CFG)


class TestStationarySequence:
    def test_smooth_well_constant_sequence(self):
        mesh = line(h=0.01)
        f = tabmodel(lambda x: x * x, mesh)
        seq = FunctionSequence(lambda n: f, box=mesh.box)
        wit = stationary_sequence(seq, f, mesh, CFG)
        tail_vals = CFG.window(wit.values)
        tail_slopes = CFG.window(wit.slopes)
        assert max(tail_vals) <= 0.0 + CFG.decision_band
        assert max(tail_slopes) <= CFG.decision_band

    def test_two_wells_envelope_reaches_the_node_minimum(self):
        mesh = line(h=0.01)
        f = tabmodel(lambda x: min((x - 0.5) ** 2, (x + 0.5) ** 2) - 0.1, mesh)
        seq = FunctionSequence(lambda n: pasch_hausdorff(f, n, mesh), box=mesh.box)
        wit = stationary_sequence(seq, f, mesh, CFG)
        node_min = min(float(f(tuple(p))) for p in mesh.nodes())
        assert max(abs(v - node_min) for v in CFG.window(wit.values)) \
            <= CFG.decision_band


class TestFrechetMembership:
    def test_smooth_minimum(self):
        mesh = line(h=1e-3)
        f = tabmodel(lambda x: x * x, mesh)
        assert frechet_membership(f, (0.0,), (0.0,), mesh, CFG).holds
        assert frechet_membership(f, (0.0,), (0.5,), mesh, CFG).fails

    def test_kink_subdifferential_is_the_unit_interval(self):
        mesh = line(h=1e-3)
        f = tabmodel(abs, mesh)
        for xs in (-1.0, -0.5, 0.0, 0.5, 1.0):
            v = frechet_membership(f, (0.0,), (xs,), mesh, CFG)
            assert v.holds, xs
            assert v.witness["forms_agree"]
        for xs in (-1.5, 1.5):
            v = frechet_membership(f, (0.0,), (xs,), mesh, CFG)
            assert v.fails, xs
            # slope of |x| - xs*x at 0 is exactly (|xs| - 1)^+ on any mesh
            assert v.witness["slope"] == pytest.approx(abs(xs) - 1.0, abs=1e-9)

    def test_normal_cone_direction_of_an_interval(self):
        mesh = line(h=1e-3)
        f = tabmodel(lambda x: 0.0 if -1e-12 <= x <= 1.0 else math.inf, mesh)
        assert frechet_membership(f, (0.0,), (-3.0,), mesh, CFG).holds

    def test_outside_domain_rejected(self):
        mesh = line(h=0.01)
        f = tabmodel(lambda x: 0.0 if abs(x) < 1e-9 else math.inf, mesh)
        with pytest.raises(ValueError):
            frechet_membership(f, (0.5,), (0.0,), mesh, CFG)


def quadratic_oracle():
    return SubdifferentialOracle(lambda x: [(2.0 * x[0],)], provenance="gradient")


def abs_oracle():
    def at(x):
        if abs(x[0]) < 5e-3:
            return [(-1.0,), (0.0,), (1.0,)]
        return [(math.copysign(1.0, x[0]),)]
    return SubdifferentialOracle(at, provenance="convex piecewise-linear")


def zero_oracle():
    return SubdifferentialOracle(lambda x: [(0.0,)], provenance="gradient")


class TestSlopeControl:
    def test_smooth_plus_kink_at_the_joint_minimum(self):
        mesh = line(h=0.01)
        f = tabmodel(lambda x: x * x, mesh)
        phi = tabmodel(abs, mesh, lipschitz_hint=1.0)
        v = p2_witness(f, quadratic_oracle(), phi, abs_oracle(), (0.0,),
                       mesh, CFG)
        assert v.holds

    def test_kink_plus_linear_cancellation(self):
        mesh = line(h=0.01)
        f = tabmodel(abs, mesh)
        phi = tabmodel(lambda x: x, mesh, lipschitz_hint=1.0)
        lin = SubdifferentialOracle(lambda x: [(1.0,)], provenance="gradient")
        v = p2_witness(f, abs_oracle(), phi, lin, (0.0,), mesh, CFG)
        assert v.holds

    def test_smooth_with_zero_perturbation_matches_gradient(self):
        mesh = line(h=0.01)
        f = tabmodel(lambda x: x * x, mesh)
        phi = tabmodel(lambda x: 0.0, mesh, lipschitz_hint=0.0)
        v = p2_witness(f, quadratic_oracle(), phi, zero_oracle(), (0.5,),
                       mesh, CFG)
        assert v.status is not Status.FAILS
        assert abs(v.witness["suffix_max"] - v.witness["slope"]) <= 2 * 0.01

    def test_lipschitz_hint_required(self):
        mesh = line(h=0.01)
        f = tabmodel(lambda x: x * x, mesh)
        phi = tabmodel(lambda x: 0.0, mesh)
        with pytest.raises(ValueError):
            p2_witness(f, quadratic_oracle(), phi, zero_oracle(), (0.0,),
                       mesh, CFG)

    def test_constant_sequence_stability(self):
        mesh = line(h=0.05)
        f = tabmodel(lambda x: x * x, mesh)
        seq = FunctionSequence(lambda n: f, box=mesh.box)
        v = sequence_p2_stability(seq, lambda n: quadratic_oracle(), None,
                                  None, f, (0.0,), mesh, CFG)
        assert v.holds


def counted_sequence(make, mesh):
    """A FunctionSequence of make(n) and the Counter of its generations."""
    made = Counter()

    def generate(n):
        made[n] += 1
        return make(n)

    return FunctionSequence(generate, box=mesh.box), made


class TestSequenceWitnessWork:
    """The Ekeland witnesses run inside the Wijsman sweep: each f_n is
    generated once, and memory does not grow with the n schedule."""

    @pytest.mark.parametrize("witness", [
        lambda seq, f, mesh: slope_stability_witness(seq, f, (0.0,), mesh, CFG),
        lambda seq, f, mesh: stationary_sequence(seq, f, mesh, CFG),
    ], ids=["slope_stability_witness", "stationary_sequence"])
    def test_witnesses_generate_each_f_n_once(self, witness):
        mesh = line(h=0.05)
        f = tabmodel(lambda x: abs(x - 0.3), mesh)
        seq, made = counted_sequence(lambda n: pasch_hausdorff(f, n, mesh), mesh)
        witness(seq, f, mesh)
        assert made == Counter(CFG.n_schedule)

    def test_sequence_p2_stability_generates_each_f_n_once(self):
        mesh = line(h=0.05)
        f = tabmodel(lambda x: x * x, mesh)
        seqF, madeF = counted_sequence(lambda n: f, mesh)
        zero = tabmodel(lambda x: 0.0, mesh)
        seqPhi, madePhi = counted_sequence(lambda n: zero, mesh)
        sequence_p2_stability(seqF, lambda n: quadratic_oracle(), seqPhi,
                              lambda n: zero_oracle(), f, (0.0,), mesh, CFG)
        assert madeF == madePhi == Counter(CFG.n_schedule)

    def test_slope_stability_memory_does_not_grow_with_the_schedule(self):
        """On a 4001-node line, 64 schedule entries peak no higher than 16
        under ``tracemalloc``: one f_n is held at a time."""
        mesh = MeshSpec.line(-1.0, 1.0, 5e-4)
        nodes = mesh.node_count
        assert nodes == 4001
        f = tabmodel(lambda x: abs(x - 0.3), mesh)
        seq = FunctionSequence(lambda n: pasch_hausdorff(f, n, mesh), box=mesh.box)
        # the first call allocates one-time state that a later call reuses
        slope_stability_witness(seq, f, (0.0,), mesh, LimitConfig(n_schedule=(1, 2)))
        peaks = {}
        for count in (16, 64):
            cfg = LimitConfig(n_schedule=tuple(range(1, 65, 64 // count)))
            assert len(cfg.n_schedule) == count
            tracemalloc.start()
            try:
                slope_stability_witness(seq, f, (0.0,), mesh, cfg)
                peaks[count] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[64] <= 1.25 * peaks[16]
        assert peaks[64] < 16 * nodes * 8


def _nested_combos(samples):
    """Every tuple of one element per sample, first sample outermost."""
    if not samples:
        yield ()
        return
    for head in samples[0]:
        for tail in _nested_combos(samples[1:]):
            yield (head,) + tail


def _nested_least_sum_norm(samples, norm):
    best, least = math.inf, None
    for combo in _nested_combos(samples):
        v = float(norm(tuple(sum(c[t] for c in combo) for t in range(len(combo[0])))))
        if v < best:
            best, least = v, combo
    return best, least


@st.composite
def oracle_samples(draw):
    """k = 1..3 samples of 1-D or 2-D elements; coarse coordinates make
    ties common, and a sample may be empty."""
    k = draw(st.integers(1, 3))
    dim = draw(st.integers(1, 2))
    coord = st.one_of(st.sampled_from((-1.0, -0.5, 0.0, 0.5, 1.0)),
                      st.floats(-4.0, 4.0, allow_nan=False))
    element = st.tuples(*[coord] * dim)
    return [draw(st.lists(element, max_size=4)) for _ in range(k)]


class TestLeastSumNorm:
    @settings(max_examples=300, deadline=None)
    @given(oracle_samples(), st.sampled_from((EUCLIDEAN, MAX, TAXICAB)))
    def test_matches_the_nested_loop_search(self, samples, norm):
        value, least = _least_sum_norm(samples, norm)
        ref_value, ref_least = _nested_least_sum_norm(samples, norm)
        assert value == ref_value
        assert least == ref_least
        if least is not None:
            assert all(a is b for a, b in zip(least, ref_least))

    def test_first_least_combination_wins_a_tie(self):
        samples = [[(1.0,), (-1.0,)], [(-1.0,), (1.0,)]]
        assert _least_sum_norm(samples, EUCLIDEAN) == (0.0, ((1.0,), (-1.0,)))

    def test_an_empty_sample_has_no_combination(self):
        assert _least_sum_norm([[(1.0,)], []], MAX) == (math.inf, None)
