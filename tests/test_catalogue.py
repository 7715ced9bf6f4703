"""Catalogue guard: the ``epislope catalogue --json`` listing and a full
numeric description of every instance payload must reproduce their
committed golden files byte for byte, and two ``get`` calls of one
instance must share no mutable object.

The golden files pin what every builder returns (payload keys, meshes,
model node values as ``float.hex``, regions, probes, oracle samples,
sequence members, generator draws and schedules), so a rewrite of
``catalogue.py`` can be checked without running any operation on it.
Regenerate them only for a deliberate change of instances, with

    PYTHONPATH=src python tests/test_catalogue.py

which rewrites both files from the current code.
"""

import contextlib
import dataclasses
import enum
import io
import json
import pathlib
import sys
import types
from fractions import Fraction

import numpy as np
import pytest

from epislope import catalogue
from epislope.cli import main
from epislope.functions import FunctionModel, Variant, values_on

GOLDEN = pathlib.Path(__file__).parent / "golden"
LISTING = GOLDEN / "catalogue.json"
PAYLOADS = GOLDEN / "catalogue_payloads.json"
SEED = catalogue.DEFAULT_SEED
SEQUENCE_NS = (1, 2, 64)
GENERATOR_DRAWS = (0, 1)


def _hex(x):
    return float(x).hex()


def _hexes(values):
    """Node values as one space-separated string of ``float.hex``."""
    return " ".join(_hex(v) for v in np.asarray(values, dtype=float))


def _point(p):
    return [_hex(c) for c in p]


def _mesh(mesh):
    return {"box": [[_hex(lo), _hex(hi)] for lo, hi in mesh.box],
            "h": [_hex(s) for s in mesh.h]}


def _norm(norm):
    return norm.kind.value


def _model(f: FunctionModel):
    out = {"name": f.name, "variant": f.variant.value, "norm": _norm(f.norm),
           "hint": None if f.lipschitz_hint is None else _hex(f.lipschitz_hint)}
    if f.variant is Variant.FINITE_EXCEPTION:
        out.update(default=str(f.default), exceptions=len(f.exceptions))
    else:
        out["mesh"] = _mesh(f.mesh)
        out["values"] = _hexes(values_on(f, f.mesh))
    return out


def _region(S):
    if S is None:
        return None
    return {"type": type(S).__name__, "center": _point(S.center),
            "radius": _hex(S.radius), "norm": _norm(S.norm)}


def _oracle(oracle, mesh):
    samples = [[_point(e) for e in oracle.at(tuple(map(float, p)))]
               for p in mesh.nodes()]
    return {"provenance": oracle.provenance, "samples": samples}


def describe(name):
    """Every number an instance payload carries, JSON-ready."""
    p = catalogue.get(name, seed=SEED)
    out = {"keys": list(p), "kind": p["kind"], "role": p["role"]}
    if "mesh" in p:
        out["mesh"] = _mesh(p["mesh"])
    if "cfg" in p:
        out["cfg"] = p["cfg"].schedule_dict()
    kind = p["kind"]
    if kind == "function":
        out["model"] = _model(p["model"])
        out["region"] = _region(p["region"])
        out["probes"] = [_point(x) for x in p["probes"]]
    elif kind == "exact":
        out["model"] = _model(p["model"])
        out.update(N=p["N"], I=p["I"])
    elif kind == "sequence":
        seq = p["seq_factory"]()
        out["limit"] = _model(p["limit"])
        out["probe"] = _point(p["probe"])
        out["cor52"] = p["cor52"]
        out["seq"] = {"box": [[_hex(lo), _hex(hi)] for lo, hi in seq.box],
                      "norm": _norm(seq.norm),
                      "members": {str(n): _model(seq.generator(n)) for n in SEQUENCE_NS}}
    elif kind == "generator":
        draws = {}
        for i in GENERATOR_DRAWS:
            made = p["make"](i)
            if isinstance(made, FunctionModel):
                draws[str(i)] = _model(made)
            else:
                f, g, xstar = made
                draws[str(i)] = {"f": _model(f), "g": _model(g), "xstar": _point(xstar)}
        out["make"] = draws
    elif kind == "sum":
        ds = p["sum"]
        out["components"] = [_model(f) for f in ds.components]
        out["oracles"] = (None if p["oracles"] is None
                          else [_oracle(o, p["mesh"]) for o in p["oracles"]])
        out["xbar"] = _point(p["xbar"])
    else:
        raise AssertionError(f"unknown kind {kind!r}")
    return out


def payload_text():
    doc = {name: describe(name) for name in catalogue.names()}
    return json.dumps(doc, indent=1) + "\n"


def listing_text():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["catalogue", "--json"]) == 0
    return buf.getvalue()


def test_listing_matches_golden():
    assert listing_text().encode() == LISTING.read_bytes()


def test_payloads_match_golden():
    assert payload_text().encode() == PAYLOADS.read_bytes()


_IMMUTABLE = (type(None), bool, int, float, complex, str, bytes, Fraction,
              enum.Enum, type, types.BuiltinFunctionType)


def _mutables(obj, seen=None):
    """Every mutable object reachable from obj: containers, arrays,
    non-frozen dataclasses and the cells of closures.  Plain functions
    are code, not state, and are walked through but not reported."""
    seen = {} if seen is None else seen
    if isinstance(obj, _IMMUTABLE) or id(obj) in seen:
        return seen
    if isinstance(obj, types.FunctionType):
        seen[id(obj)] = None
        for cell in obj.__closure__ or ():
            _mutables(cell.cell_contents, seen)
        for value in obj.__defaults__ or ():
            _mutables(value, seen)
        return seen
    if isinstance(obj, np.ndarray):
        seen[id(obj)] = obj
        return seen
    if isinstance(obj, (tuple, frozenset)):
        seen[id(obj)] = None
        for value in obj:
            _mutables(value, seen)
        return seen
    if isinstance(obj, (list, set)):
        seen[id(obj)] = obj
        for value in obj:
            _mutables(value, seen)
        return seen
    if isinstance(obj, dict):
        seen[id(obj)] = obj
        for value in obj.values():
            _mutables(value, seen)
        return seen
    if dataclasses.is_dataclass(obj):
        frozen = type(obj).__dataclass_params__.frozen
        seen[id(obj)] = None if frozen else obj
        for f in dataclasses.fields(obj):
            _mutables(getattr(obj, f.name), seen)
        return seen
    seen[id(obj)] = obj  # an unknown type counts as mutable
    return seen


@pytest.mark.parametrize("name", catalogue.names())
def test_two_gets_share_no_mutable_object(name):
    first = [o for o in _mutables(catalogue.get(name, seed=SEED)).values() if o is not None]
    second = [o for o in _mutables(catalogue.get(name, seed=SEED)).values() if o is not None]
    assert first and second
    ids = {id(o) for o in first}
    shared = [type(o).__name__ for o in second if id(o) in ids]
    assert not shared, shared
    arrays = [a for a in first if isinstance(a, np.ndarray)]
    for b in (o for o in second if isinstance(o, np.ndarray)):
        assert not any(np.shares_memory(a, b) for a in arrays)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    LISTING.write_text(listing_text())
    PAYLOADS.write_text(payload_text())
    print(f"wrote {LISTING} and {PAYLOADS}", file=sys.stderr)
