"""End-to-end command-line contract: scenario execution, exit codes,
the exact counterexample table, catalogue listing, sweeps, determinism."""

import csv
import json
import pathlib

import pytest
import yaml

from epislope import InvariantError, catalogue, cli
from epislope.cli import main, scenario_report
from epislope.verdict import LimitConfig

GOLDEN = pathlib.Path(__file__).parent / "golden"


def write_scenario(tmp_path, doc, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


class TestRunScenario:
    def test_penalty_limit_holds_exit_zero(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {
            "name": "quad-penalty",
            "operation": "penalty_limit",
            "instance": "quadratic-at-origin",
            "params": {"p": 1.0, "region": {"center": [0.0], "radius": 0.0}},
        })
        code = main(["run", path, "--no-timings"])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == "epislope-report/1"
        assert report["verdicts"][0]["status"] == "Holds"
        assert report["verdicts"][0]["witness"]["gap"] <= 1e-3

    def test_unknown_instance_exits_one(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {
            "name": "bad", "operation": "penalty_limit", "instance": "nope"})
        assert main(["run", path]) == 1
        assert capsys.readouterr().err == "error: unknown catalogue instance 'nope'\n"

    def test_missing_key_exits_one(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {"name": "incomplete"})
        assert main(["run", path]) == 1
        assert "operation" in capsys.readouterr().err

    def test_unknown_config_key_exits_one(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {
            "name": "bad-config", "operation": "penalty_limit",
            "instance": "quadratic-at-origin", "config": {"bogus": 1}})
        assert main(["run", path]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_config_tol_at_the_band_exits_one(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {
            "name": "no-band", "operation": "penalty_limit",
            "instance": "quadratic-at-origin",
            "config": {"tol": 0.1, "decision_band": 0.05}})
        assert main(["run", path]) == 1
        err = capsys.readouterr().err
        assert "0.1" in err and "0.05" in err

    def test_config_tol_that_is_not_a_number_exits_one(self, tmp_path, capsys):
        # it escaped the command's refusal path as a TypeError traceback
        path = write_scenario(tmp_path, {
            "name": "text-tol", "operation": "penalty_limit",
            "instance": "quadratic-at-origin", "config": {"tol": "abc"}})
        assert main(["run", path]) == 1
        assert "tol" in capsys.readouterr().err

    @pytest.mark.parametrize("ladder", [[0.1, 0.5], []])
    def test_config_radius_ladder_not_decreasing_exits_one(self, tmp_path, capsys, ladder):
        path = write_scenario(tmp_path, {
            "name": "growing-balls", "operation": "penalty_limit",
            "instance": "quadratic-at-origin", "config": {"radius_ladder": ladder}})
        assert main(["run", path]) == 1
        assert "radius_ladder" in capsys.readouterr().err

    def test_config_overrides_apply_to_an_instance_with_its_own_config(self, tmp_path,
                                                                       capsys):
        # sum-cancel carries a coarse config; the scenario's keys replace its own
        path = write_scenario(tmp_path, {
            "name": "own-config", "operation": "decoupling_inequality",
            "instance": "sum-cancel",
            "config": {"tol": 0.01, "delta_ladder": [0.5, 0.25]}})
        main(["run", path, "--no-timings"])
        config = json.loads(capsys.readouterr().out)["config"]
        own = catalogue.get("sum-cancel")["cfg"]
        assert config["tol"] == 0.01 and config["delta_ladder"] == [0.5, 0.25]
        assert config["radius_ladder"] == list(own.radius_ladder)
        assert config["n_schedule"] == list(own.n_schedule)

    @pytest.mark.parametrize("instance,region,named", [
        ("nogood-slice", {"center": [0.0], "radius": -0.5}, "radius must be nonnegative"),
        ("abs-kink", {"center": [0.0], "radius": -0.5}, "radius must be nonnegative"),
        ("abs-kink", {"center": [0.0], "radius": float("nan")}, "radius must be nonnegative"),
        ("nogood-slice", {"center": [0.0], "radius": float("inf")}, "finite radius"),
        ("abs-kink", {"center": [0.0, 0.0], "radius": 0.5}, "center dim 2 != mesh dim 1"),
        ("abs-kink", {"center": [], "radius": 0.5}, "center dim 0 != mesh dim 1"),
    ], ids=["exact-negative", "mesh-negative", "nan", "exact-infinite",
            "center-too-long", "center-empty"])
    @pytest.mark.parametrize("operation", ["robustness", "penalty_limit"])
    def test_malformed_region_is_refused(self, tmp_path, capsys, operation, instance,
                                         region, named):
        path = write_scenario(tmp_path, {
            "name": "bad-region", "operation": operation, "instance": instance,
            "params": {"region": region}})
        assert main(["run", path, "--no-timings"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and named in captured.err
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("extra,named", [
        ({"config": None}, "'config' must be a mapping"),
        ({"config": [0.1]}, "'config' must be a mapping"),
        ({"params": [{"region": {"center": [0.0], "radius": 0.5}}]},
         "'params' must be a mapping"),
        ({"params": {"region": {"center": 0.5, "radius": 0.5}}}, "list 'center'"),
        ({"params": {"region": [0.0, 0.5]}}, "list 'center'"),
        ({"params": {"region": {"center": [0.5]}}}, "'radius'"),
    ], ids=["null-config", "config-list", "params-list", "scalar-center",
            "region-list", "no-radius"])
    def test_malformed_scenario_shape_is_refused(self, tmp_path, capsys, extra, named):
        # each escaped the refusal path as an AttributeError or TypeError traceback
        path = write_scenario(tmp_path, {
            "name": "bad-shape", "operation": "robustness", "instance": "abs-kink", **extra})
        assert main(["run", path, "--no-timings"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and named in captured.err
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("operation,instance,params,named", [
        ("penalty_limit", "abs-kink", {"p": None}, "params.p must be a number"),
        ("robustness", "abs-kink", {"region": {"center": [None], "radius": 0.5}},
         "params.region.center must be a number"),
        ("robustness", "abs-kink", {"region": {"center": [0.0], "radius": None}},
         "params.region.radius must be a number"),
        ("strong_slope", "abs-kink", {"probe": 5}, "params.probe must be a list"),
        ("frechet_membership", "abs-kink", {"xstar": [None]}, "params.xstar must be a number"),
        ("wijsman_at_point", "envelope-of-kink", {"lambda_max": None},
         "params.lambda_max must be a number"),
    ], ids=["p", "region-center", "region-radius", "probe", "xstar", "lambda-max"])
    def test_wrongly_typed_param_is_refused(self, tmp_path, capsys, operation, instance,
                                            params, named):
        # each escaped the refusal path as a TypeError traceback
        path = write_scenario(tmp_path, {
            "name": "bad-param", "operation": operation, "instance": instance,
            "params": params})
        assert main(["run", path, "--no-timings"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and named in captured.err
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("doc,named", [
        ({"operation": "wijsman_at_point", "instance": "envelope-of-kink",
          "params": {"lamda_max": 0.0, "prob": [0.5]}},
         "wijsman_at_point reads no params.lamda_max; it reads params.probe, "
         "params.lambda_max"),
        ({"operation": "decoupling_inequality", "instance": "sum-smooth-kink",
          "params": {"xbar": [0.5]}}, "decoupling_inequality reads no params.xbar"),
        ({"operation": "strong_slope", "instance": "abs-kink", "parms": {},
          "params": {"radius": 0.1}}, "unknown scenario key 'parms'"),
        ({"operation": "strong_slope", "instance": "abs-kink", "params": {"radius": 0.1}},
         "strong_slope reads no params.radius"),
        ({"operation": "decoupling_inequality", "instance": "sum-smooth-kink",
          "expected": "holds"}, "must be Holds, Fails or Inconclusive"),
        ({"operation": "penalty_limit", "instance": "quadratic-at-origin",
          "params": {"p": float("inf")}}, "exponent p must be finite"),
    ], ids=["wijsman-typos", "sum-xbar", "top-level-key", "slope-radius",
            "expected-case", "p-inf"])
    def test_scenario_typos_are_refused(self, tmp_path, capsys, doc, named):
        # each ran on the defaults (exit 0, or Holds at the payload's xbar),
        # and a misspelt expectation exited 2 like a real mismatch
        path = write_scenario(tmp_path, {"name": "typo", **doc})
        assert main(["run", path, "--no-timings"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and named in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_every_operation_names_the_params_it_reads(self):
        assert {name: op.params for name, op in cli.OPERATIONS.items()} == {
            "penalty_limit": ("p", "region"), "robustness": ("region",),
            "wijsman_at_point": ("probe", "lambda_max"), "slope_stability": ("probe",),
            "frechet_membership": ("xstar", "probe"), "strong_slope": ("probe",),
            "decoupling_inequality": (), "prop71_bridge": (), "r2_witness": ()}

    @pytest.mark.parametrize("lambda_max", [-3.0, float("nan")], ids=["negative", "nan"])
    def test_negative_or_nan_lambda_max_is_refused(self, tmp_path, capsys, lambda_max):
        # both exited 0 on the lambda = 0 row alone, and NaN was written
        # as "lambda_max": NaN, which is not JSON
        path = write_scenario(tmp_path, {
            "name": "bad-lambda", "operation": "wijsman_at_point",
            "instance": "envelope-of-kink", "params": {"lambda_max": lambda_max}})
        assert main(["run", path, "--no-timings"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "lambda_max" in captured.err
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("operation", ["robustness", "penalty_limit"])
    def test_a_region_with_no_node_is_refused(self, tmp_path, capsys, operation):
        # B(0.2505, 0.0004) holds no node: its d_S is measured in closed
        # form on the line, and refused as a region with no node is in
        # every other norm and kind
        path = write_scenario(tmp_path, {
            "name": "empty-ball", "operation": operation,
            "instance": "indicator-interval",
            "params": {"region": {"center": [0.2505], "radius": 0.0004}}})
        assert main(["run", path, "--no-timings"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: region contains no mesh node\n"

    def test_failing_verdict_exits_two(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {
            "name": "engineered-failure",
            "operation": "decoupling_inequality",
            "instance": "decouple-interleaved-fail",
        })
        assert main(["run", path, "--no-timings"]) == 2
        capsys.readouterr()

    def test_matched_expectation_exits_zero(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {
            "name": "engineered-failure-expected",
            "operation": "decoupling_inequality",
            "instance": "decouple-interleaved-fail",
            "expected": "Fails",
        })
        assert main(["run", path, "--no-timings"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("operation,code", [("robustness", 2), ("penalty_limit", 3)])
    def test_exact_instance_runs_without_a_mesh(self, tmp_path, capsys, operation, code):
        path = write_scenario(tmp_path, {
            "name": f"exact-{operation}", "operation": operation,
            "instance": "nogood-slice",
            "params": {"region": {"center": [0.0], "radius": 0.5}},
        })
        assert main(["run", path, "--no-timings"]) == code
        witness = json.loads(capsys.readouterr().out)["verdicts"][0]["witness"]
        r = witness["r_value"] if operation == "robustness" else witness["uniform_infimum"]
        assert r == "-1/2"

    @pytest.mark.parametrize("operation,instance,key", [
        ("penalty_limit", "frechet-kink", "region"),
        ("robustness", "frechet-kink", "region"),
        ("r2_witness", "decouple-boundary", "oracles"),
        ("strong_slope", "envelope-of-kink", "model"),
        ("frechet_membership", "envelope-of-kink", "model"),
        ("wijsman_at_point", "abs-kink", "seq_factory"),
        ("slope_stability", "abs-kink", "seq_factory"),
        ("decoupling_inequality", "abs-kink", "sum"),
        ("prop71_bridge", "abs-kink", "sum"),
    ])
    def test_missing_payload_is_refused(self, tmp_path, capsys, operation, instance, key):
        path = write_scenario(tmp_path, {
            "name": "no-payload", "operation": operation, "instance": instance})
        assert main(["run", path, "--no-timings"]) == 1
        assert f"no '{key}' payload" in capsys.readouterr().err

    @pytest.mark.parametrize("operation,key,reads", [
        ("wijsman_at_point", "seq_factory", "seq_factory, limit, probe, mesh"),
        ("slope_stability", "seq_factory", "seq_factory, limit, probe, mesh"),
        ("frechet_membership", "probes", "model, probes, mesh"),
        ("strong_slope", "probes", "model, probes, mesh"),
        ("decoupling_inequality", "sum", "sum, xbar, mesh"),
        ("prop71_bridge", "sum", "sum, xbar, mesh"),
        ("r2_witness", "sum", "sum, oracles, xbar, mesh"),
    ])
    def test_mesh_operation_on_the_exact_instance_names_the_missing_payload(
            self, tmp_path, capsys, operation, key, reads):
        # the exact instance carries a model and no mesh-only payload, so
        # the payload check is the one refusal every mesh operation needs
        path = write_scenario(tmp_path, {
            "name": "exact-on-mesh", "operation": operation, "instance": "nogood-slice"})
        assert main(["run", path, "--no-timings"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: instance 'nogood-slice' has no '{key}' payload; "
                                f"{operation} reads {reads}\n")

    def test_missing_dual_vector_is_refused(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {
            "name": "no-xstar", "operation": "frechet_membership",
            "instance": "abs-kink"})
        assert main(["run", path, "--no-timings"]) == 1
        assert "needs params.xstar" in capsys.readouterr().err

    def test_dual_vector_of_another_dimension_is_refused(self, tmp_path, capsys):
        # printed numpy's "matmul: Input operand 1 has a mismatch ..."
        path = write_scenario(tmp_path, {
            "name": "wide-xstar", "operation": "frechet_membership",
            "instance": "abs-kink", "params": {"xstar": [1.5, 2.0]}})
        assert main(["run", path, "--no-timings"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: x* has dimension 2, the model's box 1\n"

    def test_probe_of_another_dimension_names_both(self, tmp_path, capsys):
        # was reported as "off-node query (0.5, 0.5) on a tabulated model"
        path = write_scenario(tmp_path, {
            "name": "wide-probe", "operation": "strong_slope",
            "instance": "abs-kink", "params": {"probe": [0.5, 0.5]}})
        assert main(["run", path, "--no-timings"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: query (0.5, 0.5) has dimension 2, the model's mesh 1\n"

    def test_off_node_probe_is_refused_without_quotes(self, tmp_path, capsys):
        # the KeyError's message was printed as its repr, in quotes
        path = write_scenario(tmp_path, {
            "name": "off-node", "operation": "wijsman_at_point",
            "instance": "envelope-of-kink", "params": {"probe": [0.123]}})
        assert main(["run", path, "--no-timings"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: off-node query (0.123,) on a tabulated model\n"

    @pytest.mark.parametrize("operation,params", [
        ("strong_slope", {}), ("frechet_membership", {"xstar": [1.0]})])
    def test_a_probe_that_names_a_node_is_measured(self, tmp_path, capsys, operation,
                                                   params):
        # 0.1 + 1e-10 names the node 0.1 (f reads it there); the slope
        # kernels refused it as more than 1e-12 from every node
        path = write_scenario(tmp_path, {
            "name": "near-node", "operation": operation, "instance": "abs-kink",
            "params": {"probe": [0.1000000001]} | params})
        assert main(["run", path, "--no-timings"]) == 0
        witness = json.loads(capsys.readouterr().out)["verdicts"][0]["witness"]
        if operation == "strong_slope":
            # |x| falls with slope 1 towards 0; the distances are the probe's
            assert witness["value"] == pytest.approx(1.0, abs=1e-7)
        else:
            assert witness["slope"] == 0.0 and witness["forms_agree"]

    def test_invariant_violation_exits_one(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise InvariantError("penalty values must be nondecreasing in n")

        monkeypatch.setattr(cli, "penalty_limit", broken)
        path = write_scenario(tmp_path, {
            "name": "broken", "operation": "penalty_limit",
            "instance": "quadratic-at-origin"})
        assert main(["run", path, "--no-timings"]) == 1
        assert "invariant violated: penalty values" in capsys.readouterr().err

    def test_inconclusive_exits_three(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {
            "name": "boundary",
            "operation": "decoupling_inequality",
            "instance": "decouple-boundary",
        })
        assert main(["run", path, "--no-timings"]) == 3
        capsys.readouterr()

    def test_out_file_written(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        path = write_scenario(tmp_path, {
            "name": "strong-slope",
            "operation": "strong_slope",
            "instance": "abs-kink",
            "params": {"probe": [0.25]},
        })
        assert main(["run", path, "--out", str(out), "--no-timings"]) == 0
        report = json.loads(out.read_text())
        assert report["verdicts"][0]["witness"]["value"] == pytest.approx(1.0)


class TestConfigValidation:
    """A scenario's config is validated once: the instance's own config,
    else one default, is used as is when the scenario overrides nothing."""

    @pytest.fixture
    def validations(self, monkeypatch):
        calls = []
        check = LimitConfig.__post_init__

        def counted(cfg):
            calls.append(1)
            check(cfg)
        monkeypatch.setattr(LimitConfig, "__post_init__", counted)
        return calls

    @pytest.mark.parametrize("pair", ["wijsman_at_point:envelope-of-kink",
                                      "penalty_limit:quadratic-at-origin",
                                      "slope_stability:envelope-of-quadratic"])
    def test_default_config_is_validated_once(self, validations, pair):
        operation, instance = pair.split(":")
        scenario_report({"name": "once", "operation": operation, "instance": instance},
                        seed=20260823, timings=False)
        assert len(validations) == 1

    @pytest.mark.parametrize("instance", sorted(
        name for name in catalogue.names() if name.startswith("decouple-")))
    def test_own_config_is_not_validated_again(self, validations, instance):
        catalogue.get(instance, seed=20260823)
        own = len(validations)
        assert own >= 1
        scenario_report({"name": "own", "operation": "decoupling_inequality",
                         "instance": instance}, seed=20260823, timings=False)
        assert len(validations) == 2 * own

    def test_tol_above_the_default_band_is_still_refused(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {
            "name": "wide-tol", "operation": "wijsman_at_point",
            "instance": "envelope-of-kink", "config": {"tol": 0.1}})
        assert main(["run", path, "--no-timings"]) == 1
        assert "tol" in capsys.readouterr().err


class TestExactTable:
    def test_small_table_rows(self, capsys):
        code = main(["reproduce-example-4-2", "--n-max", "2",
                     "--dim-trunc", "96", "--no-timings"])
        out = capsys.readouterr().out
        assert code == 0
        rows = json.loads(out)["tables"]["rows"]
        assert [(r["n"], r["r"], r["inf"]) for r in rows] == \
            [(1, "-1", "-1/2"), (2, "-1/2", "-1/3")]
        assert all(r["exact"] for r in rows)

    def test_truncation_refusal_names_the_required_dim(self, capsys):
        code = main(["reproduce-example-4-2", "--n-max", "1", "--dim-trunc", "4"])
        err = capsys.readouterr().err
        assert code == 1
        assert "need I >= 64" in err

    def test_depth_beyond_the_delta_ladder_is_refused(self, capsys):
        # layer 6 lies just over 1/42 beyond B_{1/7}(0), inside the smallest rung 1/32
        code = main(["reproduce-example-4-2", "--n-max", "7", "--no-timings"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "--n-max <= 6" in captured.err

    @pytest.mark.parametrize("n_max", ["0", "-2"])
    def test_empty_table_is_refused(self, n_max, capsys):
        code = main(["reproduce-example-4-2", "--n-max", n_max, "--no-timings"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "--n-max >= 1" in captured.err

    def test_csv_export(self, tmp_path, capsys):
        out_csv = tmp_path / "table.csv"
        code = main(["reproduce-example-4-2", "--n-max", "3",
                     "--dim-trunc", "128", "--csv", str(out_csv),
                     "--no-timings"])
        capsys.readouterr()
        assert code == 0
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["r"] for r in rows] == ["-1", "-1/2", "-1/3"]
        assert [r["inf"] for r in rows] == ["-1/2", "-1/3", "-1/4"]

    def test_table_at_dimension_truncation_ten_thousand_matches_golden(self, capsys):
        code = main(["reproduce-example-4-2", "--n-max", "6", "--dim-trunc", "10000",
                     "--no-timings"])
        assert code == 0
        golden = GOLDEN / "reproduce-example-4-2__n6-d10000.json"
        assert capsys.readouterr().out.encode() == golden.read_bytes()


class TestCatalogue:
    def test_listing_has_at_least_fifteen_instances(self, capsys):
        assert main(["catalogue"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) >= 15

    def test_filter_narrows_the_listing(self, capsys):
        main(["catalogue"])
        full = capsys.readouterr().out.splitlines()
        main(["catalogue", "--filter", "slope"])
        filtered = capsys.readouterr().out.splitlines()
        assert 0 < len(filtered) < len(full)
        assert all("slope" in l for l in filtered)

    def test_json_listing(self, capsys):
        assert main(["catalogue", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        names = {r["name"] for r in rows}
        assert {"quadratic-at-origin", "nogood-slice", "sum-cancel"} <= names
        assert all({"name", "kind", "role"} <= set(r) for r in rows)

    def test_every_entry_builds(self):
        for name in catalogue.names():
            payload = catalogue.get(name)
            assert payload["name"] == name

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            catalogue.get("does-not-exist")


class TestSweep:
    def test_csv_columns_and_gap_shrinks(self, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        code = main(["sweep", "--instance", "quadratic-at-origin",
                     "--p", "1.0", "2.0", "--csv", str(out_csv)])
        assert code == 0
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == {"p", "n", "penalty_value", "uniform_infimum",
                                "gap"}
        by_p = {}
        for r in rows:
            by_p.setdefault(r["p"], []).append(float(r["gap"]))
        for gaps in by_p.values():
            assert gaps[-1] <= gaps[0] + 1e-12

    def test_sweep_needs_a_region_instance(self, capsys):
        assert main(["sweep", "--instance", "envelope-of-jump"]) == 1
        assert "region" in capsys.readouterr().err

    @pytest.mark.parametrize("args,named", [
        (["--instance", "nope"], "nope"),
        (["--instance", "abs-kink", "--p", "-1"], "positive"),
        (["--instance", "abs-kink", "--p", "1", "0"], "positive"),
        (["--instance", "abs-kink", "--p", "nan"], "positive"),
        (["--instance", "abs-kink", "--p", "inf"], "finite"),
    ])
    def test_bad_input_is_refused_without_a_traceback(self, args, named, capsys):
        assert main(["sweep", *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and named in captured.err

    @pytest.mark.parametrize("instance,ps", [
        ("quadratic-at-origin", ["1", "2"]),
        ("dip-near-shell", ["0.5", "3"]),
    ])
    def test_csv_matches_golden(self, instance, ps, capsys):
        code = main(["--seed", str(catalogue.DEFAULT_SEED), "sweep",
                     "--instance", instance, "--p", *ps])
        assert code == 0
        golden = GOLDEN / f"sweep__{instance}.csv"
        assert capsys.readouterr().out.encode() == golden.read_bytes()


class TestDeterminism:
    def test_repeated_reports_are_byte_identical(self):
        doc = {
            "name": "det-check",
            "operation": "wijsman_at_point",
            "instance": "envelope-of-kink",
            "params": {"lambda_max": 0.5},
        }
        first, code1 = scenario_report(doc, seed=123, timings=False)
        second, code2 = scenario_report(doc, seed=123, timings=False)
        assert code1 == code2 == 0
        assert first.to_json() == second.to_json()

    def test_seed_is_echoed(self):
        doc = {
            "name": "seeded",
            "operation": "strong_slope",
            "instance": "piecewise-random",
        }
        # generator payloads have no model field; use a function instance
        doc["instance"] = "abs-kink"
        report, _ = scenario_report(doc, seed=99, timings=False)
        assert report.seed == 99

    def test_env_seed_respected(self, monkeypatch):
        monkeypatch.setenv(catalogue.SEED_ENV, "424242")
        assert catalogue.resolve_seed(None) == 424242
        monkeypatch.delenv(catalogue.SEED_ENV)
        assert catalogue.resolve_seed(None) == catalogue.DEFAULT_SEED
