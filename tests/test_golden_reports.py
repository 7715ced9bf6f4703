"""Golden report corpus: every (operation, catalogue instance) pair that
``epislope run`` accepts, run with ``--no-timings`` at a fixed seed, must
reproduce its committed report byte for byte.

The corpus guards refactors and kernel rewrites: verdicts, margins,
witnesses and tables may not move.  Regenerate it only for a deliberate
change of results, with

    PYTHONPATH=src python tests/test_golden_reports.py

which rewrites ``tests/golden/`` from the current code.
"""

import contextlib
import io
import itertools
import pathlib
import sys

import pytest
import yaml

from epislope import catalogue, cli
from epislope.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
SEED = 20260823
OPERATIONS = ("penalty_limit", "robustness", "wijsman_at_point", "slope_stability",
              "frechet_membership", "strong_slope", "decoupling_inequality",
              "prop71_bridge", "r2_witness")
# frechet_membership has no default dual vector
PARAMS = {"frechet_membership": {"xstar": [0.5]}}
# the exact instance has no default region
INSTANCE_PARAMS = {"nogood-slice": {"region": {"center": [0.0], "radius": 0.5}}}


def _pairs():
    return list(itertools.product(OPERATIONS, catalogue.names()))


def _golden_path(operation, instance):
    return GOLDEN / f"{operation}__{instance}.json"


def run_report(operation, instance, workdir):
    """(exit code, report path) of one ``epislope run --no-timings``."""
    workdir = pathlib.Path(workdir)
    doc = {"name": f"{operation}__{instance}", "operation": operation,
           "instance": instance,
           "params": {**PARAMS.get(operation, {}), **INSTANCE_PARAMS.get(instance, {})}}
    scenario = workdir / "scenario.yaml"
    scenario.write_text(yaml.safe_dump(doc))
    out = workdir / f"{operation}__{instance}.json"
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["--seed", str(SEED), "run", str(scenario), "--no-timings",
                     "--out", str(out)])
    return code, out


GOLDEN_PAIRS = [pair for pair in _pairs() if _golden_path(*pair).exists()]


def test_corpus_is_present():
    assert len(GOLDEN_PAIRS) >= 50


def test_operations_are_the_cli_table():
    assert tuple(cli.OPERATIONS) == OPERATIONS


@pytest.mark.parametrize("operation,instance", GOLDEN_PAIRS,
                         ids=[f"{op}__{inst}" for op, inst in GOLDEN_PAIRS])
def test_report_matches_golden(operation, instance, tmp_path):
    code, out = run_report(operation, instance, tmp_path)
    assert code != 1
    assert out.read_bytes() == _golden_path(operation, instance).read_bytes()


def test_pairs_without_golden_are_refused(tmp_path):
    """Every accepted pair has a golden file: the others exit 1."""
    for operation, instance in _pairs():
        if (operation, instance) in GOLDEN_PAIRS:
            continue
        code, _ = run_report(operation, instance, tmp_path)
        assert code == 1, (operation, instance)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    written = 0
    for operation, instance in _pairs():
        target = _golden_path(operation, instance)
        code, out = run_report(operation, instance, GOLDEN)
        if code == 1:
            out.unlink(missing_ok=True)
            continue
        out.replace(target)
        written += 1
    (GOLDEN / "scenario.yaml").unlink(missing_ok=True)
    print(f"wrote {written} golden reports to {GOLDEN}", file=sys.stderr)
