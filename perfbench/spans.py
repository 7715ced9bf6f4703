"""Spans and work counters for the traced run.

The traced run wraps public functions of every ``epislope`` module from the
outside: for each listed name it rebinds every alias of the function in the
``epislope.*`` module namespaces, and it patches the listed class methods on
their classes.  A listed name that is missing fails loudly, so a rename
cannot silently drop a layer from the trace.

A span records calls and self time (its duration minus the time covered by
its child spans).  Counters record work done at the same boundaries.
Everything stays in memory in one ``Recorder`` and is read once at the end.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

PAIRWISE = "geometry.pairwise"

# (span name, [(module, attribute or Class.method)], after-call hook name)
SPANS: List[Tuple[str, List[Tuple[str, str]], Optional[str]]] = [
    (PAIRWISE, [("geometry", "Norm.pairwise"), ("geometry", "BoxNorm.pairwise")], "_pairwise"),
    ("geometry.gap_distance", [("geometry", "gap_distance")], None),
    ("geometry.point_set_distance", [("geometry", "point_set_distance")], None),
    ("geometry.PointSet.of", [("geometry", "PointSet.of")], "_point_set"),
    ("functions.pasch_hausdorff", [("functions", "pasch_hausdorff")], "_envelope"),
    ("functions.values_on", [("functions", "values_on")], "_values_on"),
    ("functions.tabulate", [("functions", "tabulate")], None),
    ("functions.MeshSpec.nodes", [("functions", "MeshSpec.nodes")], "_nodes"),
    ("functions.MeshSpec.index_map", [("functions", "MeshSpec.index_map")], "_index_map"),
    ("functions.sample_clouds", [("functions", "sample_epigraph"), ("functions", "sample_graph"),
                                 ("functions", "sample_hypograph")], "_cloud"),
    ("functions.epi_hypo_gap_triple", [("functions", "epi_hypo_gap_triple")], None),
    ("functions.inf_over_region", [("functions", "inf_over_region")], None),
    ("uniforminf.uniform_infimum", [("uniforminf", "uniform_infimum")], "_uniform_infimum"),
    ("uniforminf.plain_infimum", [("uniforminf", "plain_infimum")], "_exact_scan"),
    ("uniforminf.penalty_value", [("uniforminf", "penalty_value")], "_exact_scan"),
    ("uniforminf.penalty_limit", [("uniforminf", "penalty_limit")], None),
    ("uniforminf.robustness", [("uniforminf", "robustness")], None),
    ("uniforminf.nogoodlsc", [("uniforminf", "nogoodlsc")], "_nogoodlsc"),
    ("convergence.wijsman_at_point", [("convergence", "wijsman_at_point")], None),
    ("convergence.recovery_sequence", [("convergence", "recovery_sequence")], None),
    ("convergence.tilt_gap_invariance", [("convergence", "tilt_gap_invariance")], None),
    ("slopes.strong_slope", [("slopes", "strong_slope")], None),
    ("slopes.ekeland_point", [("slopes", "ekeland_point")], "_ekeland"),
    ("slopes.slope_stability_witness", [("slopes", "slope_stability_witness")], None),
    ("slopes.frechet_membership", [("slopes", "frechet_membership")], None),
    ("sumrules.decoupling_inequality", [("sumrules", "decoupling_inequality")], None),
    ("sumrules.prop71_bridge", [("sumrules", "prop71_bridge")], None),
    ("sumrules.r2_witness", [("sumrules", "r2_witness")], None),
    ("sumrules.product_mesh", [("sumrules", "product_mesh")], "_product_mesh"),
    ("sumrules.diagonal_distance", [("sumrules", "diagonal_distance")], None),
    ("catalogue.get", [("catalogue", "get")], None),
    ("cli.scenario_report", [("cli", "scenario_report")], None),
    ("cli.execute", [("cli", "execute")], None),
    ("cli.RunReport.to_json", [("cli", "RunReport.to_json")], "_to_json"),
    ("cli.reproduce_example_4_2", [("cli", "reproduce_example_4_2")], None),
]

# counted calls without a span: (counter name, [(module, Class.method)])
COUNTED = [
    ("functions.FunctionModel.call.count", [("functions", "FunctionModel.__call__")]),
    ("regions.contains.count", [("regions", "Ball.contains"), ("regions", "WholeSpace.contains"),
                                ("regions", "FinitePoints.contains"),
                                ("regions", "Predicate.contains")]),
]

# work counters reported by name, with unit
COUNTERS = [
    ("geometry.pairwise.cells", "count"),
    ("geometry.pairwise.bytes_computed", "bytes"),
    ("geometry.PointSet.of.points", "count"),
    ("functions.pasch_hausdorff.nodes", "count"),
    ("functions.MeshSpec.index_map.keys", "count"),
    ("functions.FunctionModel.call.count", "count"),
    ("functions.values_on.repeat_frac", "frac"),
    ("functions.MeshSpec.nodes.repeat_frac", "frac"),
    ("functions.sample_clouds.points", "count"),
    ("regions.contains.count", "count"),
    ("uniforminf.uniform_infimum.rungs", "count"),
    ("uniforminf.exact.visits", "count"),
    ("uniforminf.nogoodlsc.exceptions", "count"),
    ("convergence.FunctionSequence.model.hit_frac", "frac"),
    ("slopes.ekeland_point.iterations", "count"),
    ("sumrules.product_mesh.nodes", "count"),
    ("cli.RunReport.to_json.bytes", "bytes"),
    ("cli.import_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("trace.uncovered_frac", "frac"),
]


class TraceCoverageError(RuntimeError):
    """A listed function or method is absent from the program."""


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


class Recorder:
    """In-memory spans and counters of one traced run."""

    def __init__(self):
        self.stack: List[list] = []  # open frames: [name, child seconds, child pairwise calls]
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.covered = 0.0  # seconds under outermost spans
        self._seen: Dict[str, set] = defaultdict(set)
        self._keep: list = []

    def begin_task(self) -> None:
        """Start a task: repeat detection and span coverage restart."""
        self._seen.clear()
        self._keep.clear()
        self.covered = 0.0

    def _repeat(self, counter: str, key, keep=None) -> None:
        self.counts[counter + ".calls"] += 1
        seen = self._seen[counter]
        if key in seen:
            self.counts[counter + ".repeats"] += 1
        else:
            seen.add(key)
            if keep is not None:  # keeps id() keys unique for the task
                self._keep.append(keep)

    # after-call hooks: (args, kwargs, result, frame)
    def _pairwise(self, args, kwargs, result, frame):
        A, B = args[1], args[2]
        cells = A.shape[0] * B.shape[0]
        self.counts["geometry.pairwise.cells"] += cells
        self.counts["geometry.pairwise.bytes_computed"] += cells * A.shape[1] * 8

    def _point_set(self, args, kwargs, result, frame):
        self.counts["geometry.PointSet.of.points"] += len(result.points)

    def _envelope(self, args, kwargs, result, frame):
        self.counts["functions.pasch_hausdorff.nodes"] += result.values.size

    def _values_on(self, args, kwargs, result, frame):
        f = _arg(args, kwargs, 0, "f")
        self._repeat("functions.values_on", (id(f), _arg(args, kwargs, 1, "mesh")), keep=f)

    def _nodes(self, args, kwargs, result, frame):
        self._repeat("functions.MeshSpec.nodes", args[0])

    def _index_map(self, args, kwargs, result, frame):
        self.counts["functions.MeshSpec.index_map.keys"] += args[0].node_count

    def _cloud(self, args, kwargs, result, frame):
        cloud = getattr(result, "cloud", result)
        self.counts["functions.sample_clouds.points"] += len(cloud.points)

    def _uniform_infimum(self, args, kwargs, result, frame):
        rungs = len(_arg(args, kwargs, 3, "cfg").delta_ladder)
        self.counts["uniforminf.uniform_infimum.rungs"] += rungs
        self._exact_visits(_arg(args, kwargs, 0, "f"), rungs)

    def _exact_scan(self, args, kwargs, result, frame):
        self._exact_visits(_arg(args, kwargs, 0, "f"), 1)

    def _exact_visits(self, f, passes):
        if f.variant.value == "finite_exception":
            self.counts["uniforminf.exact.visits"] += len(f.exceptions) * passes

    def _nogoodlsc(self, args, kwargs, result, frame):
        self.counts["uniforminf.nogoodlsc.exceptions"] += len(result.exceptions)

    def _ekeland(self, args, kwargs, result, frame):
        # one pairwise for the start distances, one per move test, one
        # for the postcondition
        self.counts["slopes.ekeland_point.iterations"] += frame[2] - 2

    def _product_mesh(self, args, kwargs, result, frame):
        self.counts["sumrules.product_mesh.nodes"] += result.node_count

    def _to_json(self, args, kwargs, result, frame):
        self.counts["cli.RunReport.to_json.bytes"] += len(result.encode())

    # wrappers
    def span(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == PAIRWISE and stack and stack[-1][0] == PAIRWISE:
                return fn(*args, **kwargs)  # BoxNorm delegating to its base Norm
            frame = [name, 0.0, 0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += took - frame[1]
                if stack:
                    stack[-1][1] += took
                    if name == PAIRWISE:
                        stack[-1][2] += 1
                else:
                    self.covered += took
            if hook is not None:
                hook(args, kwargs, result, frame)
            return result
        return wrapper

    def counted(self, counter: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    def sequence_model(self, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def model(seq, n):
            counts["convergence.FunctionSequence.model.calls"] += 1
            if n in seq._models:
                counts["convergence.FunctionSequence.model.hits"] += 1
            return fn(seq, n)
        return model

    def metrics(self, import_s: float, overhead_frac: float,
                uncovered_frac: float) -> Dict[str, Dict[str, float]]:
        """Every per-layer metric by name, with its unit."""
        out: Dict[str, Dict[str, float]] = {}
        for name, _, _ in SPANS:
            out[name + ".calls"] = {"value": self.calls[name], "unit": "count"}
            out[name + ".self_s"] = {"value": self.self_s[name], "unit": "s"}

        def frac(num, den):
            return self.counts[num] / self.counts[den] if self.counts[den] else 0.0

        derived = {
            "functions.values_on.repeat_frac":
                frac("functions.values_on.repeats", "functions.values_on.calls"),
            "functions.MeshSpec.nodes.repeat_frac":
                frac("functions.MeshSpec.nodes.repeats", "functions.MeshSpec.nodes.calls"),
            "convergence.FunctionSequence.model.hit_frac":
                frac("convergence.FunctionSequence.model.hits",
                     "convergence.FunctionSequence.model.calls"),
            "cli.import_s": import_s,
            "trace.overhead_frac": overhead_frac,
            "trace.uncovered_frac": uncovered_frac,
        }
        for name, unit in COUNTERS:
            value = derived[name] if name in derived else self.counts[name]
            out[name] = {"value": value, "unit": unit}
        return out


def _epislope_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "epislope" or name.startswith("epislope.")) and m is not None]


def _rebind(target: Tuple[str, str], make: Callable[[Callable], Callable], label: str) -> None:
    """Replace one listed function or method by ``make(original)``."""
    module_name, attr = target
    home = sys.modules.get("epislope." + module_name)
    if home is None:
        raise TraceCoverageError(f"{label}: module epislope.{module_name} is not loaded")
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(home, cls_name, None)
        raw = getattr(cls, "__dict__", {}).get(meth)
        if raw is None:
            raise TraceCoverageError(f"{label}: epislope.{module_name}.{attr} is missing")
        if isinstance(raw, staticmethod):
            setattr(cls, meth, staticmethod(make(raw.__func__)))
        else:
            setattr(cls, meth, make(raw))
        return
    original = getattr(home, attr, None)
    if not callable(original):
        raise TraceCoverageError(f"{label}: epislope.{module_name}.{attr} is missing")
    wrapper = make(original)
    bound = 0
    for module in _epislope_modules():
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)
                bound += 1
    if bound == 0:
        raise TraceCoverageError(f"{label}: epislope.{module_name}.{attr} was never bound")


def install(rec: Recorder) -> None:
    """Wrap every listed layer function for the rest of the process."""
    import epislope.cli  # noqa: F401  loads every module that is traced

    for name, targets, hook in SPANS:
        after = getattr(rec, hook) if hook else None
        for target in targets:
            _rebind(target, lambda fn, name=name, after=after: rec.span(name, fn, after), name)
    for counter, targets in COUNTED:
        for target in targets:
            _rebind(target, lambda fn, counter=counter: rec.counted(counter, fn), counter)
    _rebind(("convergence", "FunctionSequence.model"), rec.sequence_model,
            "convergence.FunctionSequence.model")
