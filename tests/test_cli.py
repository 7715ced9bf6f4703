"""End-to-end command-line contract: scenario execution, exit codes,
the exact counterexample table, catalogue listing, sweeps, determinism."""

import csv
import json
import pathlib

import pytest
import yaml

from epislope import InvariantError, catalogue, cli
from epislope.cli import main, scenario_report

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
        assert "nope" in capsys.readouterr().err

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

    def test_robustness_with_an_empty_region_fails_with_infinite_margin(self, tmp_path,
                                                                        capsys):
        # B(0.2505, 0.0004) holds no node: inf over it is +inf, while r
        # sees the zero at 0.25 through its delta-enlargements
        path = write_scenario(tmp_path, {
            "name": "empty-ball", "operation": "robustness",
            "instance": "indicator-interval",
            "params": {"region": {"center": [0.2505], "radius": 0.0004}}})
        assert main(["run", path, "--no-timings"]) == 2
        verdict = json.loads(capsys.readouterr().out)["verdicts"][0]
        assert verdict["status"] == "Fails" and verdict["margin"] == "inf"
        assert verdict["witness"] == {"r_value": 0.0, "plain_inf": "inf"}

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

    def test_missing_dual_vector_is_refused(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {
            "name": "no-xstar", "operation": "frechet_membership",
            "instance": "abs-kink"})
        assert main(["run", path, "--no-timings"]) == 1
        assert "needs params.xstar" in capsys.readouterr().err

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
