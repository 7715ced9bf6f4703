"""Command-line front end: declarative scenario execution, the exact
counterexample reproduction, the instance catalogue, and deterministic
JSON/CSV emission.

Exit codes: 0 Holds (or matched expectation), 2 Fails, 3 Inconclusive,
1 error.  Reports are byte-stable for a fixed seed when --no-timings is
passed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import time
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import yaml

from . import __version__
from . import catalogue
from .convergence import wijsman_at_point
from .regions import Ball
from .slopes import frechet_membership, slope_stability_witness, strong_slope
from .sumrules import decoupling_inequality, prop71_bridge, r2_witness
from .uniforminf import PenaltySpec, nogoodlsc, penalty_limit, robustness
from .verdict import (InvariantError, LimitConfig, Status, Verdict, _jsonable,
                      combine, decide)

EXIT = {Status.HOLDS: 0, Status.FAILS: 2, Status.INCONCLUSIVE: 3}


@dataclass
class RunReport:
    scenario: str
    seed: int
    config: Dict[str, Any]
    verdicts: List[Dict[str, Any]] = field(default_factory=list)
    tables: Dict[str, Any] = field(default_factory=dict)
    timings: Optional[Dict[str, float]] = None
    version: str = __version__

    def to_json(self) -> str:
        body = {
            "schema": "epislope-report/1",
            "version": self.version,
            "scenario": self.scenario,
            "seed": self.seed,
            "config": _jsonable(self.config),
            "verdicts": self.verdicts,  # Verdict.to_dict() output, JSON types already
            "tables": _jsonable(self.tables),
            "timings": self.timings,
        }
        return json.dumps(body, indent=2, sort_keys=False)


def _resolve_config(payload: Dict[str, Any], overrides: Dict[str, Any]) -> LimitConfig:
    """The instance's own config (else the default one) with the scenario's
    ``config`` overrides applied on top; lists become tuples.  A config is
    validated once: without overrides the base config is returned as is."""
    kwargs = {}
    allowed = {f.name for f in fields(LimitConfig)}
    for key, value in overrides.items():
        if key not in allowed:
            raise ValueError(f"unknown config key '{key}'")
        kwargs[key] = tuple(value) if isinstance(value, list) else value
    base = payload.get("cfg")
    if base is None:
        return LimitConfig(**kwargs)
    return replace(base, **kwargs) if kwargs else base


def _number(value: Any, key: str) -> float:
    """A scenario number as a float; anything else is refused, naming
    params.<key>."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"params.{key} must be a number, got {value!r}") from None


def _vector(value: Any, key: str) -> Tuple[float, ...]:
    """A scenario list of numbers as a tuple of floats, else refused."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"params.{key} must be a list of numbers, got {value!r}")
    return tuple(_number(c, key) for c in value)


def _probe(params: Dict[str, Any], default: Sequence[float]) -> Tuple[float, ...]:
    return _vector(params["probe"], "probe") if "probe" in params else tuple(default)


def _region_from(params: Dict[str, Any], payload: Dict[str, Any]):
    spec = params.get("region")
    if spec is not None:
        if not isinstance(spec, dict) or not isinstance(spec.get("center"), list):
            raise ValueError("params.region needs a list 'center'")
        if "radius" not in spec:
            raise ValueError("params.region needs a 'radius'")
        return Ball(_vector(spec["center"], "region.center"),
                    _number(spec["radius"], "region.radius"))
    if payload.get("region") is None:
        raise ValueError("instance has no 'region' payload; give params.region")
    return payload["region"]


Labelled = Tuple[List[Tuple[str, Verdict]], Dict[str, Any]]


def _penalty_limit(payload, params, cfg) -> Labelled:
    spec = PenaltySpec(p=_number(params.get("p", 1.0), "p"))
    region = _region_from(params, payload)
    value, verdict = penalty_limit(payload["model"], region, spec,
                                   payload.get("mesh"), cfg)
    return [("penalty_limit", verdict)], {"penalty_limit": value}


def _robustness(payload, params, cfg) -> Labelled:
    region = _region_from(params, payload)
    report = robustness(payload["model"], region, payload.get("mesh"), cfg)
    return [("robustness", report.verdict)], {}


def _wijsman_at_point(payload, params, cfg) -> Labelled:
    seq = payload["seq_factory"]()
    probe = _probe(params, payload["probe"])
    verdict = wijsman_at_point(seq, payload["limit"], probe,
                               lambda_max=_number(params.get("lambda_max", 0.5), "lambda_max"),
                               cfg=cfg, mesh=payload["mesh"])
    return [("wijsman_at_point", verdict)], {}


def _slope_stability(payload, params, cfg) -> Labelled:
    seq = payload["seq_factory"]()
    probe = _probe(params, payload["probe"])
    wit = slope_stability_witness(seq, payload["limit"], probe,
                                  payload["mesh"], cfg)
    worst = wit.suffix_max_slope(cfg.window_size)
    # the limsup bound already includes cfg.tol: Holds allows no excess over it
    status = decide(max(0.0, worst - wit.limsup_bound), 0.0, cfg.decision_band)
    verdict = Verdict(status, wit.limsup_bound - worst,
                      witness={"suffix_max_slope": worst,
                               "limsup_bound": wit.limsup_bound,
                               "slopes": wit.slopes})
    return [("slope_stability", verdict)], {"witness_points": wit.points}


def _frechet_membership(payload, params, cfg) -> Labelled:
    if "xstar" not in params:
        raise ValueError("frechet_membership needs params.xstar, the dual vector")
    xstar = _vector(params["xstar"], "xstar")
    probe = _probe(params, payload["probes"][0])
    verdict = frechet_membership(payload["model"], probe, xstar,
                                 payload["mesh"], cfg)
    return [("frechet_membership", verdict)], {}


def _strong_slope(payload, params, cfg) -> Labelled:
    probe = _probe(params, payload["probes"][0])
    est = strong_slope(payload["model"], probe, payload["mesh"], cfg)
    slope = {"value": est.value, "radius": est.radius_used, "trace": est.ratio_trace}
    return [("strong_slope", Verdict(Status.HOLDS, 0.0, witness=slope))], {"slope": slope}


def _decoupling_inequality(payload, params, cfg) -> Labelled:
    verdict = decoupling_inequality(payload["sum"], payload["xbar"],
                                    payload["mesh"], cfg)
    return [("decoupling_inequality", verdict)], {}


def _prop71_bridge(payload, params, cfg) -> Labelled:
    dec, wij = prop71_bridge(payload["sum"], payload["xbar"], payload["mesh"], cfg)
    return [("decoupling_inequality", dec), ("wijsman_bridge", wij)], {}


def _r2_witness(payload, params, cfg) -> Labelled:
    verdict = r2_witness(payload["sum"], payload["oracles"], payload["xbar"],
                         payload["mesh"], cfg)
    return [("r2_witness", verdict)], {}


@dataclass(frozen=True)
class Operation:
    """An ``epislope run`` operation: the instance payload keys it reads
    (the region is separate, as params may give it), the scenario params
    it reads, and its runner; ``uniforminf`` alone tells exact models from
    mesh ones."""

    needs: Tuple[str, ...]
    params: Tuple[str, ...]
    run: Callable[[Dict[str, Any], Dict[str, Any], LimitConfig], Labelled]


_SEQUENCE = ("seq_factory", "limit", "probe", "mesh")
_SUM = ("sum", "xbar", "mesh")
OPERATIONS: Dict[str, Operation] = {
    "penalty_limit": Operation(("model",), ("p", "region"), _penalty_limit),
    "robustness": Operation(("model",), ("region",), _robustness),
    "wijsman_at_point": Operation(_SEQUENCE, ("probe", "lambda_max"), _wijsman_at_point),
    "slope_stability": Operation(_SEQUENCE, ("probe",), _slope_stability),
    "frechet_membership": Operation(("model", "probes", "mesh"), ("xstar", "probe"),
                                    _frechet_membership),
    "strong_slope": Operation(("model", "probes", "mesh"), ("probe",), _strong_slope),
    "decoupling_inequality": Operation(_SUM, (), _decoupling_inequality),
    "prop71_bridge": Operation(_SUM, (), _prop71_bridge),
    "r2_witness": Operation(("sum", "oracles", "xbar", "mesh"), (), _r2_witness),
}


def execute(operation: str, payload: Dict[str, Any], params: Dict[str, Any],
            cfg: LimitConfig) -> Labelled:
    """Run one catalogue operation; returns labelled verdicts and tables.

    An instance the operation cannot run on is refused (ValueError) before
    any work, naming the first payload key it lacks; then so is a params
    key the operation does not read."""
    op = OPERATIONS.get(operation)
    if op is None:
        raise ValueError(f"unknown operation '{operation}'")
    name = payload.get("name", "")
    for key in op.needs:
        if payload.get(key) is None:
            raise ValueError(f"instance '{name}' has no '{key}' payload; "
                             f"{operation} reads {', '.join(op.needs)}")
    for key in params:
        if key not in op.params:
            raise ValueError(f"{operation} reads no params.{key}; it reads "
                             + (", ".join(f"params.{k}" for k in op.params) or "no params"))
    return op.run(payload, params, cfg)


def _mapping(doc: Dict[str, Any], key: str) -> Dict[str, Any]:
    """The scenario's ``key`` section, {} when absent; a null section or
    anything but a mapping is refused."""
    section = doc.get(key, {})
    if not isinstance(section, dict):
        raise ValueError(f"scenario '{key}' must be a mapping, got {section!r}")
    return section


_SCENARIO_KEYS = ("name", "operation", "instance", "params", "config", "expected")


def scenario_report(doc: Dict[str, Any], seed: Optional[int] = None,
                    timings: bool = True) -> Tuple[RunReport, int]:
    for key in ("name", "operation", "instance"):
        if key not in doc:
            raise ValueError(f"scenario is missing required key '{key}'")
    for key in doc:
        if key not in _SCENARIO_KEYS:
            raise ValueError(f"unknown scenario key {key!r}; a scenario has "
                             f"{', '.join(_SCENARIO_KEYS)}")
    if "expected" in doc and doc["expected"] not in [s.value for s in Status]:
        raise ValueError(f"scenario 'expected' must be Holds, Fails or Inconclusive, "
                         f"got {doc['expected']!r}")
    seed = catalogue.resolve_seed(seed)
    payload = catalogue.get(doc["instance"], seed=seed)
    cfg = _resolve_config(payload, _mapping(doc, "config"))
    params = _mapping(doc, "params")

    start = time.perf_counter()
    labelled, tables = execute(doc["operation"], payload, params, cfg)
    elapsed = time.perf_counter() - start

    overall = combine(v.status for _, v in labelled)
    report = RunReport(
        scenario=doc["name"],
        seed=seed,
        config=cfg.schedule_dict(),
        verdicts=[{"name": label, **v.to_dict()} for label, v in labelled],
        tables=tables,
        timings={"seconds": elapsed} if timings else None,
    )
    if "expected" in doc:
        code = 0 if overall.value == doc["expected"] else 2
    else:
        code = EXIT[overall]
    return report, code


def _refusing(command: Callable[..., int]) -> Callable[..., int]:
    """Wrap a CLI command so that bad input and broken invariants exit 1
    with ``error: ...`` on stderr, never a traceback."""
    @functools.wraps(command)
    def run(*args, **kwargs) -> int:
        try:
            return command(*args, **kwargs)
        except KeyError as exc:  # str() of a KeyError is the repr of its message
            print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        except (OSError, ValueError, yaml.YAMLError) as exc:
            print(f"error: {exc}", file=sys.stderr)
        except InvariantError as exc:
            print(f"error: invariant violated: {exc}", file=sys.stderr)
        return 1
    return run


@_refusing
def run_scenario(path: str, seed: Optional[int] = None, out: Optional[str] = None,
                 timings: bool = True) -> int:
    with open(path) as fh:
        doc = yaml.safe_load(fh)
    if not isinstance(doc, dict):
        raise ValueError("scenario file must contain a mapping")
    report, code = scenario_report(doc, seed=seed, timings=timings)
    _emit(report, out)
    return code


def _emit(report: RunReport, out: Optional[str]) -> None:
    """Write the JSON report to the file out, or to stdout."""
    text = report.to_json()
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


EXACT_DELTAS = catalogue.COARSE_DELTAS  # smallest rung 1/32


@_refusing
def reproduce_example_4_2(n_max: int, dim_trunc: int,
                          csv_path: Optional[str] = None,
                          out: Optional[str] = None,
                          timings: bool = True) -> int:
    """Exact rational table (n, r over B_{1/n}(0), inf over B_{1/n}(0)).

    Expected values are r = -1/n and inf = -1/(n+1); any deviation gives a
    nonzero exit.  The model carries value layers 1..n_max+1: the infimum
    over B_{1/n}(0) is attained on layer n+1, so the truncation must keep
    one layer more than the table depth.

    Layer n-1 lies just over 1/(n(n-1)) beyond B_{1/n}(0), so row n is
    resolved only when the smallest delta rung is below that gap; a
    deeper request, or an empty table, is refused (exit 1) before any work.
    """
    if n_max < 1:
        raise ValueError(f"--n-max {n_max} leaves the table empty: need --n-max >= 1")
    delta_min = Fraction(min(EXACT_DELTAS))
    if n_max * (n_max - 1) * delta_min >= 1:
        deepest = max(n for n in range(1, n_max) if n * (n - 1) * delta_min < 1)
        raise ValueError(f"--n-max {n_max} is deeper than the delta ladder resolves: "
                         f"row n needs n(n-1) < 1/delta_min = {1 / delta_min}, "
                         f"so --n-max <= {deepest}")
    cfg = LimitConfig(delta_ladder=EXACT_DELTAS)
    model = nogoodlsc(n_max + 1, dim_trunc, delta_min=min(EXACT_DELTAS))
    start = time.perf_counter()
    rows = []
    all_exact = True
    for n in range(1, n_max + 1):
        ball = Ball(center=(0.0,) * dim_trunc, radius=Fraction(1, n))
        rep = robustness(model, ball, None, cfg)  # one pass for both infima
        r, inf = rep.r_value, rep.plain_inf
        ok = (r == Fraction(-1, n)) and (inf == Fraction(-1, n + 1))
        all_exact = all_exact and ok
        rows.append({"n": n, "r": str(r), "inf": str(inf), "exact": ok})
    elapsed = time.perf_counter() - start

    if csv_path:
        with open(csv_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["n", "r", "inf", "exact"])
            writer.writeheader()
            writer.writerows(rows)
    status = Status.HOLDS if all_exact else Status.FAILS
    verdict = Verdict(status, 0.0, witness={"rows": rows})
    report = RunReport(
        scenario=f"reproduce-example-4-2(n_max={n_max}, dim_trunc={dim_trunc})",
        seed=catalogue.resolve_seed(None),
        config=cfg.schedule_dict(),
        verdicts=[{"name": "exact_table", **verdict.to_dict()}],
        tables={"rows": rows},
        timings={"seconds": elapsed} if timings else None,
    )
    _emit(report, out)
    return 0 if all_exact else 2


def list_catalogue(filter_text: Optional[str] = None, as_json: bool = False) -> int:
    rows = [{"name": e.name, "kind": e.kind, "role": e.role}
            for e in catalogue.entries()
            if not filter_text
            or filter_text in e.name or filter_text in e.role]
    if as_json:
        print(json.dumps(rows, indent=2))
    else:
        for row in rows:
            print(f"{row['name']}: {row['role']} [{row['kind']}]")
    return 0


@_refusing
def sweep(instance: str, ps: Sequence[float], csv_path: Optional[str],
          seed: Optional[int] = None) -> int:
    """CSV of penalty values and r_S(f), one ``penalty_limit`` per exponent."""
    payload = catalogue.get(instance, seed=seed)
    if "model" not in payload or payload.get("region") is None:
        raise ValueError("sweep needs a function instance with a region")
    cfg = _resolve_config(payload, {})
    rows = []
    for p in ps:
        _, verdict = penalty_limit(payload["model"], payload["region"],
                                   PenaltySpec(p=float(p)), payload["mesh"], cfg)
        r = verdict.witness["uniform_infimum"]
        for n, value in verdict.witness["penalty_values"]:
            rows.append({"p": p, "n": n, "penalty_value": value,
                         "uniform_infimum": r,
                         "gap": abs(float(value) - float(r))
                         if value != float("inf") and r != float("inf") else ""})
    target = open(csv_path, "w", newline="") if csv_path else sys.stdout
    try:
        writer = csv.DictWriter(target, fieldnames=["p", "n", "penalty_value",
                                                    "uniform_infimum", "gap"])
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if csv_path:
            target.close()
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="epislope",
        description="finite-schedule verdicts for variational analysis instances")
    parser.add_argument("--seed", type=int, default=None,
                        help=f"override {catalogue.SEED_ENV}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a YAML scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--no-timings", action="store_true")

    p_rep = sub.add_parser("reproduce-example-4-2",
                           help="exact counterexample table")
    p_rep.add_argument("--n-max", type=int, default=5)
    p_rep.add_argument("--dim-trunc", type=int, default=256)
    p_rep.add_argument("--csv", default=None)
    p_rep.add_argument("--out", default=None)
    p_rep.add_argument("--no-timings", action="store_true")

    p_cat = sub.add_parser("catalogue", help="list named instances")
    p_cat.add_argument("--filter", default=None)
    p_cat.add_argument("--json", action="store_true")

    p_sweep = sub.add_parser("sweep", help="penalty exponent/schedule sweep to CSV")
    p_sweep.add_argument("--instance", required=True)
    p_sweep.add_argument("--p", type=float, nargs="+", default=[1.0, 2.0])
    p_sweep.add_argument("--csv", default=None)

    args = parser.parse_args(argv)
    if args.command == "run":
        return run_scenario(args.scenario, seed=args.seed, out=args.out,
                            timings=not args.no_timings)
    if args.command == "reproduce-example-4-2":
        return reproduce_example_4_2(args.n_max, args.dim_trunc,
                                     csv_path=args.csv, out=args.out,
                                     timings=not args.no_timings)
    if args.command == "catalogue":
        return list_catalogue(args.filter, as_json=args.json)
    if args.command == "sweep":
        return sweep(args.instance, args.p, args.csv, seed=args.seed)
    return 1


if __name__ == "__main__":
    sys.exit(main())
