"""Named instance catalogue.

Every instance the CLI or the acceptance suites touch lives here under a
stable name with a role tag.  Randomized instances draw all randomness
from a single seed (TOOLKIT_SEED, default 20260823) so that runs are
reproducible byte for byte.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from .convergence import FunctionSequence
from .functions import FunctionModel, MeshSpec, pasch_hausdorff, values_on
from .geometry import EUCLIDEAN
from .regions import Ball
from .slopes import SubdifferentialOracle
from .sumrules import DecoupledSum
from .uniforminf import nogoodlsc
from .verdict import AT_NODE, LimitConfig

SEED_ENV = "TOOLKIT_SEED"
DEFAULT_SEED = 20260823


def resolve_seed(seed: Optional[int] = None) -> int:
    if seed is not None:
        return int(seed)
    env = os.environ.get(SEED_ENV)
    return int(env) if env else DEFAULT_SEED


def default_mesh() -> MeshSpec:
    return MeshSpec.line(-1.0, 1.0, 0.01)


def coarse_mesh() -> MeshSpec:
    """Base mesh for product-space instances (products are brute force)."""
    return MeshSpec.line(-1.0, 1.0, 0.05)


# coarser delta ladder for product-space and exact-rational instances: the
# smallest rung stays at or above half the mesh step so off-diagonal
# witnesses are visible, and above N/dim for the exact counterexample
COARSE_DELTAS = tuple(0.5 / (2 ** k) for k in range(5))


def coarse_config() -> LimitConfig:
    return LimitConfig(delta_ladder=COARSE_DELTAS)


@dataclass(frozen=True)
class CatalogueEntry:
    name: str
    role: str
    kind: str
    build: Callable[[int], Dict]


_REGISTRY: Dict[str, CatalogueEntry] = {}


def _register(name: str, role: str, kind: str):
    def deco(fn):
        _REGISTRY[name] = CatalogueEntry(name=name, role=role, kind=kind, build=fn)
        return fn
    return deco


def names() -> List[str]:
    return list(_REGISTRY)


def entries() -> List[CatalogueEntry]:
    return list(_REGISTRY.values())


def get(name: str, seed: Optional[int] = None) -> Dict:
    if name not in _REGISTRY:
        raise KeyError(f"unknown catalogue instance '{name}'")
    entry = _REGISTRY[name]
    payload = entry.build(resolve_seed(seed))
    payload.setdefault("name", entry.name)
    payload.setdefault("kind", entry.kind)
    payload.setdefault("role", entry.role)
    return payload


def _node_value_model(mesh: MeshSpec, fn, name: str, hint=None) -> FunctionModel:
    vals = np.array([fn(float(p[0])) for p in mesh.nodes()])
    return FunctionModel.tabulated(mesh, vals, lipschitz_hint=hint, name=name)


def random_piecewise(rng: np.random.Generator, mesh: MeshSpec,
                     name: str = "piecewise") -> FunctionModel:
    """Continuous piecewise-linear function with slopes in [-8, 8]."""
    anchors = np.linspace(mesh.box[0][0], mesh.box[0][1], 9)
    steps = rng.uniform(-2.0, 2.0, size=8)  # 2.0 / 0.25 = slope bound 8
    vals = np.concatenate([[rng.uniform(-1.0, 1.0)],
                           np.cumsum(steps) + rng.uniform(-1.0, 1.0)])
    nodes = mesh.nodes()[:, 0]
    return FunctionModel.tabulated(mesh, np.interp(nodes, anchors, vals),
                                   lipschitz_hint=8.0, name=name)


# ---------------------------------------------------------------- functions

@_register("quadratic-at-origin", "penalty-limit and robustness driver", "function")
def _quadratic(seed):
    mesh = default_mesh()
    model = _node_value_model(mesh, lambda x: x * x, "x^2", hint=2.0)
    return {"model": model, "mesh": mesh,
            "region": Ball((0.0,), 0.5, EUCLIDEAN), "probes": [(0.0,), (0.5,)]}


@_register("abs-kink", "kink slope and membership driver", "function")
def _abs(seed):
    mesh = default_mesh()
    model = _node_value_model(mesh, abs, "|x|", hint=1.0)
    return {"model": model, "mesh": mesh,
            "region": Ball((0.0,), 0.5, EUCLIDEAN), "probes": [(0.0,), (0.25,)]}


@_register("indicator-origin", "indicator penalty driver", "function")
def _ind_origin(seed):
    mesh = default_mesh()
    model = _node_value_model(mesh, lambda x: 0.0 if abs(x) < AT_NODE else math.inf,
                              "ind{0}")
    return {"model": model, "mesh": mesh,
            "region": Ball((0.0,), 0.5, EUCLIDEAN), "probes": [(0.0,)]}


@_register("indicator-interval", "indicator penalty driver", "function")
def _ind_interval(seed):
    mesh = default_mesh()
    model = _node_value_model(
        mesh, lambda x: 0.0 if abs(x) <= 0.25 + 1e-9 else math.inf, "ind[-1/4,1/4]")
    return {"model": model, "mesh": mesh,
            "region": Ball((0.0,), 0.5, EUCLIDEAN), "probes": [(0.0,), (0.25,)]}


@_register("step-jump", "lower semicontinuous jump driver", "function")
def _step(seed):
    mesh = default_mesh()
    model = _node_value_model(mesh, lambda x: 0.0 if x < 0.25 - 1e-9 else 1.0,
                              "step@0.25")
    return {"model": model, "mesh": mesh,
            "region": Ball((0.0,), 0.5, EUCLIDEAN), "probes": [(0.0,)]}


@_register("dip-near-shell", "penalty-limit driver with an off-region dip", "function")
def _dip(seed):
    mesh = default_mesh()
    model = _node_value_model(mesh, lambda x: -0.5 if abs(x - 0.9) < AT_NODE else 0.0,
                              "dip@0.9")
    return {"model": model, "mesh": mesh,
            "region": Ball((0.0,), 0.5, EUCLIDEAN), "probes": [(0.0,)]}


@_register("two-wells", "multimodal slope and penalty driver", "function")
def _two_wells(seed):
    mesh = default_mesh()
    model = _node_value_model(mesh, lambda x: min((x - 0.5) ** 2, (x + 0.5) ** 2),
                              "two-wells", hint=1.0)
    return {"model": model, "mesh": mesh,
            "region": Ball((0.0,), 0.5, EUCLIDEAN),
            "probes": [(0.5,), (-0.5,), (0.0,)]}


@_register("frechet-kink", "subdifferential membership driver", "function")
def _frechet_kink(seed):
    mesh = default_mesh()
    model = _node_value_model(mesh, abs, "|x|", hint=1.0)
    return {"model": model, "mesh": mesh, "region": None, "probes": [(0.0,)]}


@_register("piecewise-random", "seeded envelope and tilt driver", "generator")
def _piecewise_random(seed):
    mesh = default_mesh()
    def make(i: int) -> FunctionModel:
        rng = np.random.default_rng([seed, 11, i])
        return random_piecewise(rng, mesh, name=f"piecewise[{i}]")
    return {"make": make, "mesh": mesh}


@_register("tilt-pairs", "graph/epigraph tilt driver", "generator")
def _tilt_pairs(seed):
    mesh = MeshSpec.line(-1.0, 1.0, 0.05)
    def make(i: int):
        rng = np.random.default_rng([seed, 23, i])
        f = random_piecewise(rng, mesh, name=f"tilt-f[{i}]")
        g = random_piecewise(rng, mesh, name=f"tilt-g[{i}]")
        # odd indices push g far below f so the gaps come out positive;
        # even indices leave the graphs crossing (zero gaps)
        if i % 2 == 1:
            g = FunctionModel.tabulated(mesh, g.values - 30.0, norm=g.norm,
                                        name=g.name)
        xstar = (float(rng.uniform(-2.0, 2.0)),)
        return f, g, xstar
    return {"make": make, "mesh": mesh}


# ------------------------------------------------------------ exact rational

@_register("nogood-slice", "exact counterexample: uniform infimum below the plain infimum", "exact")
def _nogood(seed):
    cfg = coarse_config()
    model = nogoodlsc(N=3, I=256, delta_min=min(COARSE_DELTAS))
    return {"model": model, "cfg": cfg, "N": 3, "I": 256}


# -------------------------------------------------------------- sequences

def _envelope_payload(base: FunctionModel, mesh: MeshSpec, probe, cor52: bool):
    def factory() -> FunctionSequence:
        return FunctionSequence(lambda n: pasch_hausdorff(base, n, mesh),
                                box=mesh.box, norm=base.norm)
    return {"seq_factory": factory, "limit": base, "mesh": mesh,
            "probe": probe, "cor52": cor52}


@_register("envelope-of-jump", "Lipschitz regularization of a jump; slope stability driver", "sequence")
def _env_jump(seed):
    mesh = default_mesh()
    base = _node_value_model(mesh, lambda x: 0.0 if x < 0.25 - 1e-9 else 1.0,
                             "step@0.25")
    return _envelope_payload(base, mesh, (0.0,), cor52=True)


@_register("envelope-of-kink", "Lipschitz regularization of a kink; slope stability driver", "sequence")
def _env_kink(seed):
    mesh = default_mesh()
    base = _node_value_model(mesh, abs, "|x|", hint=1.0)
    return _envelope_payload(base, mesh, (0.0,), cor52=True)


@_register("envelope-of-quadratic", "Lipschitz regularization of a smooth well; slope stability driver", "sequence")
def _env_quad(seed):
    mesh = default_mesh()
    base = _node_value_model(mesh, lambda x: 4.0 * x * x, "4x^2", hint=8.0)
    return _envelope_payload(base, mesh, (0.0,), cor52=True)


@_register("envelope-of-two-wells", "Lipschitz regularization of a two-well landscape", "sequence")
def _env_wells(seed):
    mesh = default_mesh()
    base = _node_value_model(mesh, lambda x: min((x - 0.5) ** 2, (x + 0.5) ** 2),
                             "two-wells", hint=1.0)
    return _envelope_payload(base, mesh, (0.5,), cor52=True)


def _perturbed_payload(base: FunctionModel, mesh: MeshSpec, wiggle, probe,
                       cor52: bool):
    nodes = mesh.nodes()[:, 0]
    base_vals = values_on(base, mesh)

    def factory() -> FunctionSequence:
        def make(n):
            return FunctionModel.tabulated(mesh, base_vals + wiggle(nodes) / n,
                                           norm=base.norm,
                                           name=f"{base.name}+u/{n}")
        return FunctionSequence(make, box=mesh.box, norm=base.norm)

    return {"seq_factory": factory, "limit": base, "mesh": mesh,
            "probe": probe, "cor52": cor52}


@_register("perturbed-linear", "uniform 1/n perturbations of a kink; slope stability driver", "sequence")
def _pert_linear(seed):
    mesh = default_mesh()
    base = _node_value_model(mesh, abs, "|x|", hint=1.0)
    return _perturbed_payload(base, mesh, lambda t: np.cos(5.0 * t), (0.0,),
                              cor52=True)


@_register("perturbed-quadratic", "uniform 1/n perturbations of a smooth well", "sequence")
def _pert_quad(seed):
    mesh = default_mesh()
    base = _node_value_model(mesh, lambda x: x * x, "x^2", hint=2.0)
    # wiggle is flat at the probe: witness slopes then settle within tol at
    # finite n instead of carrying an O(1/n) excess
    return _perturbed_payload(base, mesh, lambda t: np.cos(3.0 * t), (0.0,),
                              cor52=True)


# ------------------------------------------------------------ decoupled sums

def _abs_oracle() -> SubdifferentialOracle:
    def at(x):
        if abs(x[0]) < AT_NODE:
            return [(-1.0,), (0.0,), (1.0,)]
        return [(math.copysign(1.0, x[0]),)]
    return SubdifferentialOracle(at, provenance="convex piecewise-linear")


def _linear_oracle(slope: float) -> SubdifferentialOracle:
    return SubdifferentialOracle(lambda x: [(slope,)], provenance="gradient")


def _quadratic_oracle() -> SubdifferentialOracle:
    return SubdifferentialOracle(lambda x: [(2.0 * x[0],)], provenance="gradient")


def _shifted_abs_oracle(a: float) -> SubdifferentialOracle:
    def at(x):
        if abs(x[0] - a) < AT_NODE:
            return [(-1.0,), (0.0,), (1.0,)]
        return [(math.copysign(1.0, x[0] - a),)]
    return SubdifferentialOracle(at, provenance="convex piecewise-linear")


@_register("sum-smooth-kink", "sum-rule witness driver: smooth plus kink", "sum")
def _sum_smooth_kink(seed):
    mesh = coarse_mesh()
    f1 = _node_value_model(mesh, lambda x: x * x, "x^2", hint=2.0)
    f2 = _node_value_model(mesh, abs, "|x|", hint=1.0)
    return {"sum": DecoupledSum((f1, f2)),
            "oracles": [_quadratic_oracle(), _abs_oracle()],
            "xbar": (0.0,), "mesh": mesh, "cfg": coarse_config()}


@_register("sum-cancel", "sum-rule witness driver: cancelling gradients", "sum")
def _sum_cancel(seed):
    mesh = coarse_mesh()
    f1 = _node_value_model(mesh, lambda x: x, "x", hint=1.0)
    f2 = _node_value_model(mesh, lambda x: -x, "-x", hint=1.0)
    return {"sum": DecoupledSum((f1, f2)),
            "oracles": [_linear_oracle(1.0), _linear_oracle(-1.0)],
            "xbar": (0.0,), "mesh": mesh, "cfg": coarse_config()}


@_register("sum-offnode-kink", "sum-rule witness driver: kink off the node grid", "sum")
def _sum_offnode(seed):
    mesh = coarse_mesh()
    a = 0.525
    f1 = _node_value_model(mesh, lambda x: abs(x - a), "|x-a|", hint=1.0)
    f2 = _node_value_model(mesh, lambda x: 0.0, "0", hint=0.0)
    return {"sum": DecoupledSum((f1, f2)),
            "oracles": [_shifted_abs_oracle(a), _linear_oracle(0.0)],
            "xbar": (0.0,), "mesh": mesh, "cfg": coarse_config()}


@_register("decouple-lipschitz-lsc", "decoupling holds: Lipschitz plus lsc", "sum")
def _dec_lip(seed):
    mesh = coarse_mesh()
    f1 = _node_value_model(mesh, abs, "|x|", hint=1.0)
    f2 = _node_value_model(mesh, lambda x: 0.0 if x < 0.25 - 1e-9 else 1.0,
                           "step@0.25")
    return {"sum": DecoupledSum((f1, f2)), "oracles": None,
            "xbar": (0.0,), "mesh": mesh, "cfg": coarse_config()}


@_register("decouple-indicator-pair", "decoupling holds: local uniform minimum", "sum")
def _dec_ind(seed):
    mesh = coarse_mesh()
    ind = _node_value_model(mesh, lambda x: 0.0 if abs(x) < AT_NODE else math.inf,
                            "ind{0}")
    return {"sum": DecoupledSum((ind, ind)), "oracles": None,
            "xbar": (0.0,), "mesh": mesh, "cfg": coarse_config()}


@_register("decouple-interleaved-fail", "decoupling fails: interleaved negative spikes", "sum")
def _dec_fail(seed):
    mesh = coarse_mesh()
    nodes = mesh.nodes()[:, 0]
    idx = np.arange(len(nodes))
    origin = np.abs(nodes) < AT_NODE
    v1 = np.where(origin, 0.0, np.where(idx % 2 == 0, -1.0, np.inf))
    v2 = np.where(origin, 0.0, np.where(idx % 2 == 1, -1.0, np.inf))
    f1 = FunctionModel.tabulated(mesh, v1, name="even-spikes")
    f2 = FunctionModel.tabulated(mesh, v2, name="odd-spikes")
    return {"sum": DecoupledSum((f1, f2)), "oracles": None,
            "xbar": (0.0,), "mesh": mesh, "cfg": coarse_config()}


@_register("decouple-boundary", "decoupling boundary case inside the inconclusive band", "sum")
def _dec_boundary(seed):
    mesh = coarse_mesh()
    ind = _node_value_model(mesh, lambda x: 0.0 if abs(x) < AT_NODE else math.inf,
                            "ind{0}")
    bump = _node_value_model(mesh, lambda x: 0.01 if abs(x) < AT_NODE else 0.0,
                             "bump@0")
    return {"sum": DecoupledSum((ind, bump)), "oracles": None,
            "xbar": (0.0,), "mesh": mesh, "cfg": coarse_config()}
