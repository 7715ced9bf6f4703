"""Structure of the package: every import sits at module level and is
used by its module, the relative imports between modules form no cycle, so
the modules load in one order, outside ``verdict`` no status literal
sets a status except at the listed sites, ``uniforminf`` chooses
between its exact and mesh evaluators at one site, one function of
``uniforminf`` applies its rung rule, and no sequence of ``convergence``
caches its members."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "epislope"
MODULES = {p.stem: ast.parse(p.read_text(), filename=str(p))
           for p in sorted(PACKAGE.glob("*.py"))}


def _imports_inside_functions(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    yield f"line {inner.lineno} in {getattr(node, 'name', 'lambda')}"


def _relative_targets(tree):
    """Modules of this package that a module imports at module level."""
    for node in tree.body:
        if not isinstance(node, ast.ImportFrom) or node.level != 1:
            continue
        if node.module is not None:
            yield node.module.split(".")[0]
        else:  # from . import name: a submodule, or a name of __init__
            for alias in node.names:
                yield alias.name if alias.name in MODULES else "__init__"


GRAPH = {name: sorted(set(_relative_targets(tree))) for name, tree in MODULES.items()}


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_import_inside_a_function(module):
    assert list(_imports_inside_functions(MODULES[module])) == []


def _unused_imports(tree):
    """Names bound by module-level imports that the module never reads;
    ``from __future__`` imports bind no name."""
    bound = [alias.asname or alias.name.split(".")[0]
             for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"__init__"}))
def test_every_import_is_used(module):
    """``__init__`` is exempt: its imports are the public re-exports."""
    assert _unused_imports(MODULES[module]) == []


def test_the_import_check_finds_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .geometry import Norm, _row_blocks\n"
        "def f(x: Norm):\n"
        "    return np.abs(x)\n")
    assert _unused_imports(tree) == ["os", "_row_blocks"]


def _cycle(graph):
    """One import cycle as a list of modules, or None."""
    state = {}

    def visit(name, path):
        state[name] = "open"
        for target in graph.get(name, ()):
            if state.get(target) == "open":
                return path[path.index(target):] + [target]
            if target not in state:
                found = visit(target, path + [target])
                if found:
                    return found
        state[name] = "done"
        return None

    for name in sorted(graph):
        if name not in state:
            found = visit(name, [name])
            if found:
                return found
    return None


def test_relative_imports_have_no_cycle():
    assert _cycle(GRAPH) is None


def test_the_cycle_check_finds_a_cycle():
    assert _cycle({"a": ["b"], "b": ["c"], "c": ["a"]}) == ["a", "b", "c", "a"]
    assert _cycle({"a": ["b"], "b": [], "c": ["a", "b"]}) is None


def test_modules_load_in_one_order():
    order = ["extreal", "verdict", "geometry", "regions", "functions", "uniforminf",
             "convergence", "slopes", "sumrules", "catalogue", "cli"]
    assert sorted(order + ["__init__"]) == sorted(MODULES)
    for position, name in enumerate(order):
        assert set(GRAPH[name]) <= set(order[:position]) | {"__init__"}, name


STATUS_LITERALS = {"HOLDS", "FAILS", "INCONCLUSIVE"}
# (module, function) of each status literal outside verdict.py that sets a
# status without verdict.decide, and why no excess decides it there.
STATUS_ALLOWLIST = {
    ("cli", "_strong_slope"): "reports an estimate; it states nothing to decide",
    ("cli", "reproduce_example_4_2"): "an exact rational equality check, not a tolerance",
    ("convergence", "_hit_or_miss"): "vacuous branch: the probe triggers neither part",
}


def _status_settings(tree):
    """(enclosing function, literal) for every ``Status.HOLDS``,
    ``Status.FAILS`` or ``Status.INCONCLUSIVE`` that is neither a comparison
    operand nor a dict key: each such literal sets a status."""
    parent = {child: node for node in ast.walk(tree)
              for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and node.attr in STATUS_LITERALS
                and isinstance(node.value, ast.Name) and node.value.id == "Status"):
            continue
        up = parent[node]
        if isinstance(up, ast.Compare) or (isinstance(up, ast.Dict) and node in up.keys):
            continue
        while up in parent and not isinstance(up, (ast.FunctionDef, ast.AsyncFunctionDef)):
            up = parent[up]
        yield getattr(up, "name", "<module>"), node.attr


def test_statuses_are_set_by_the_decision_rule():
    sites = {(module, function) for module, tree in MODULES.items() if module != "verdict"
             for function, _ in _status_settings(tree)}
    assert sites == set(STATUS_ALLOWLIST)


def test_the_status_check_finds_a_hand_written_ladder():
    ladder = ast.parse(
        "EXIT = {Status.HOLDS: 0}\n"
        "def f(v, x):\n"
        "    if v.status is Status.FAILS:\n"
        "        return Verdict(Status.HOLDS if x else Status.INCONCLUSIVE, 0.0)\n")
    assert sorted(_status_settings(ladder)) == [("f", "HOLDS"), ("f", "INCONCLUSIVE")]



def _enclosing(tree, match):
    """Dotted path of the functions and classes around every node for
    which ``match(node)`` holds, in source order."""
    parent = {child: node for node in ast.walk(tree)
              for child in ast.iter_child_nodes(node)}
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    sites = []
    for node in ast.walk(tree):
        if not match(node):
            continue
        path, up = [], node
        while up in parent:
            up = parent[up]
            if isinstance(up, scopes):
                path.append(up.name)
        sites.append((node.lineno, ".".join(reversed(path)) or "<module>"))
    return [name for _, name in sorted(sites)]


def _variant_dispatches(tree):
    return _enclosing(tree, lambda node: isinstance(node, ast.Attribute)
                      and node.attr == "FINITE_EXCEPTION"
                      and isinstance(node.value, ast.Name) and node.value.id == "Variant")


def _mesh_refusals(tree):
    return _enclosing(tree, lambda node: isinstance(node, ast.Compare)
                      and isinstance(node.left, ast.Name) and node.left.id == "mesh"
                      and isinstance(node.ops[0], ast.Is)
                      and isinstance(node.comparators[0], ast.Constant)
                      and node.comparators[0].value is None)


def test_uniforminf_chooses_its_evaluator_at_one_site():
    """The exact/mesh choice is made once, in ``_layers``, and a missing
    mesh is refused once, by the mesh evaluator."""
    assert _variant_dispatches(MODULES["uniforminf"]) == ["_layers"]
    assert _mesh_refusals(MODULES["uniforminf"]) == ["_MeshLayers.__init__"]


def test_the_dispatch_check_finds_a_second_branch():
    tree = ast.parse(
        "def _layers(f, mesh):\n"
        "    return A() if f.variant is Variant.FINITE_EXCEPTION else B(mesh)\n"
        "class B:\n"
        "    def __init__(self, mesh):\n"
        "        if mesh is None:\n"
        "            raise ValueError\n"
        "def plain(f, S, mesh):\n"
        "    if f.variant is Variant.FINITE_EXCEPTION:\n"
        "        return 0\n"
        "    if mesh is None:\n"
        "        raise ValueError\n")
    assert _variant_dispatches(tree) == ["_layers", "plain"]
    assert _mesh_refusals(tree) == ["B.__init__", "plain"]


def _rung_rule_raises(tree):
    """Every ``raise InvariantError(...)`` (the ladder and penalty-schedule
    monotonicity checks) and every raise naming ``_NO_NODE``."""
    def match(node):
        if not isinstance(node, ast.Raise) or node.exc is None:
            return False
        func = getattr(node.exc, "func", None)
        return (isinstance(func, ast.Name) and func.id == "InvariantError"
                or any(isinstance(inner, ast.Name) and inner.id == "_NO_NODE"
                       for inner in ast.walk(node.exc)))
    return _enclosing(tree, match)


def test_uniforminf_applies_its_rung_rule_at_one_site():
    """Exact rungs, both mesh kernels and the penalty schedule go through
    ``_sup_of_rungs``: it alone refuses an empty largest rung and raises
    the monotonicity errors."""
    assert set(_rung_rule_raises(MODULES["uniforminf"])) == {"_sup_of_rungs"}


def test_the_rung_rule_check_finds_a_second_raiser():
    tree = ast.parse(
        "def _sup_of_rungs(rungs):\n"
        "    raise InvariantError('not monotone')\n"
        "class Layers:\n"
        "    def uniform_infimum(self):\n"
        "        raise InvariantError('not monotone')\n"
        "def _kernel(dist):\n"
        "    if not dist.any():\n"
        "        raise ValueError(_NO_NODE)\n"
        "    raise ValueError('another refusal')\n")
    assert _rung_rule_raises(tree) == ["_sup_of_rungs", "Layers.uniform_infimum", "_kernel"]


def _default_factory_fields(tree):
    """Dotted names of the class fields whose ``field(...)`` call passes a
    ``default_factory``: a mutable per-instance default, as a cache is."""
    return _enclosing(tree, lambda node: isinstance(node, ast.keyword)
                      and node.arg == "default_factory")


def test_no_convergence_dataclass_has_a_default_factory():
    """A sequence of sets or functions generates each member on demand; a
    mutable default such as a per-index dict is how a cache would return."""
    assert _default_factory_fields(MODULES["convergence"]) == []


def test_the_default_factory_check_finds_a_cache():
    tree = ast.parse(
        "@dataclass\n"
        "class SetSequence:\n"
        "    generator: Callable\n"
        "    _cache: Dict[int, PointSet] = field(default_factory=dict, repr=False)\n")
    assert _default_factory_fields(tree) == ["SetSequence"]
