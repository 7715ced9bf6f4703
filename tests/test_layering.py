"""Import structure of the package: every import sits at module level, and
the relative imports between modules form no cycle, so the modules load
in one order."""

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
