"""Named instance catalogue.

Every instance the CLI or the acceptance suites touch lives here under a
stable name with a role tag.  Randomized instances draw all randomness
from a single seed (TOOLKIT_SEED, default 20260823) so that runs are
reproducible byte for byte.

Each line formula is defined once, with its label and Lipschitz hint, and
tabulated on the mesh of each instance that uses it.  Each instance kind
(function, sequence, decoupled sum) has one payload builder, so a
registration states only what differs from the others of its kind.
``get`` builds its payload afresh: two calls share no model, array, list,
sum or oracle.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .convergence import FunctionSequence
from .functions import FunctionModel, MeshSpec, pasch_hausdorff, values_on
from .geometry import EUCLIDEAN, Point
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


# ----------------------------------------------------------- line formulas

class _Formula(NamedTuple):
    """A named function of one real variable with its Lipschitz hint."""

    label: str
    fn: Callable[[float], float]
    hint: Optional[float] = None

    def on(self, mesh: MeshSpec) -> FunctionModel:
        """The formula tabulated at the nodes of a line mesh."""
        vals = np.array([self.fn(float(p[0])) for p in mesh.nodes()])
        return FunctionModel.tabulated(mesh, vals, lipschitz_hint=self.hint, name=self.label)


_OFF_NODE_KINK = 0.525  # between the coarse nodes 0.5 and 0.55

_SQUARE = _Formula("x^2", lambda x: x * x, 2.0)
_ABS = _Formula("|x|", abs, 1.0)
_STEEP_SQUARE = _Formula("4x^2", lambda x: 4.0 * x * x, 8.0)
_STEP = _Formula("step@0.25", lambda x: 0.0 if x < 0.25 - 1e-9 else 1.0)
_IND_ORIGIN = _Formula("ind{0}", lambda x: 0.0 if abs(x) < AT_NODE else math.inf)
_IND_INTERVAL = _Formula("ind[-1/4,1/4]", lambda x: 0.0 if abs(x) <= 0.25 + 1e-9 else math.inf)
_DIP = _Formula("dip@0.9", lambda x: -0.5 if abs(x - 0.9) < AT_NODE else 0.0)
_TWO_WELLS = _Formula("two-wells", lambda x: min((x - 0.5) ** 2, (x + 0.5) ** 2), 1.0)
_IDENTITY = _Formula("x", lambda x: x, 1.0)
_NEGATION = _Formula("-x", lambda x: -x, 1.0)
_SHIFTED_ABS = _Formula("|x-a|", lambda x: abs(x - _OFF_NODE_KINK), 1.0)
_ZERO = _Formula("0", lambda x: 0.0, 0.0)
_BUMP = _Formula("bump@0", lambda x: 0.01 if abs(x) < AT_NODE else 0.0)


class _Spikes(NamedTuple):
    """0 at the origin, -1 at every other node of a line mesh (the even or
    the odd indices) and +inf at the rest: a pair with both parities has no
    common finite node but the origin."""

    label: str
    parity: int

    def on(self, mesh: MeshSpec) -> FunctionModel:
        nodes = mesh.nodes()[:, 0]
        idx = np.arange(len(nodes))
        origin = np.abs(nodes) < AT_NODE
        vals = np.where(origin, 0.0, np.where(idx % 2 == self.parity, -1.0, np.inf))
        return FunctionModel.tabulated(mesh, vals, name=self.label)


# ---------------------------------------------------------------- functions

_ORIGIN_BALL = Ball((0.0,), 0.5, EUCLIDEAN)


def _function(name: str, role: str, formula: _Formula, probes: Sequence[Point],
              region: Optional[Ball] = _ORIGIN_BALL) -> None:
    """Register ``formula`` on the default mesh with a region and probes."""
    def build(seed):
        mesh = default_mesh()
        return {"model": formula.on(mesh), "mesh": mesh, "region": region,
                "probes": list(probes)}
    _register(name, role, "function")(build)


_function("quadratic-at-origin", "penalty-limit and robustness driver", _SQUARE, [(0.0,), (0.5,)])
_function("abs-kink", "kink slope and membership driver", _ABS, [(0.0,), (0.25,)])
_function("indicator-origin", "indicator penalty driver", _IND_ORIGIN, [(0.0,)])
_function("indicator-interval", "indicator penalty driver", _IND_INTERVAL, [(0.0,), (0.25,)])
_function("step-jump", "lower semicontinuous jump driver", _STEP, [(0.0,)])
_function("dip-near-shell", "penalty-limit driver with an off-region dip", _DIP, [(0.0,)])
_function("two-wells", "multimodal slope and penalty driver", _TWO_WELLS, [(0.5,), (-0.5,), (0.0,)])
_function("frechet-kink", "subdifferential membership driver", _ABS, [(0.0,)], region=None)


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

def _sequence(name: str, role: str, formula: _Formula, probe: Point,
              wiggle: Optional[Callable[[np.ndarray], np.ndarray]] = None) -> None:
    """Register a sequence converging to ``formula`` on the default mesh:
    its Pasch-Hausdorff envelopes f_n, or with a ``wiggle`` u the uniform
    perturbations f_n = f + u / n."""
    def build(seed):
        mesh = default_mesh()
        base = formula.on(mesh)
        if wiggle is None:
            def make(n):
                return pasch_hausdorff(base, n, mesh)
        else:
            nodes = mesh.nodes()[:, 0]
            base_vals = values_on(base, mesh)

            def make(n):
                return FunctionModel.tabulated(mesh, base_vals + wiggle(nodes) / n,
                                               norm=base.norm, name=f"{base.name}+u/{n}")

        def factory() -> FunctionSequence:
            return FunctionSequence(make, box=mesh.box, norm=base.norm)
        return {"seq_factory": factory, "limit": base, "mesh": mesh,
                "probe": probe, "cor52": True}
    _register(name, role, "sequence")(build)


_sequence("envelope-of-jump", "Lipschitz regularization of a jump; slope stability driver", _STEP, (0.0,))
_sequence("envelope-of-kink", "Lipschitz regularization of a kink; slope stability driver", _ABS, (0.0,))
_sequence("envelope-of-quadratic", "Lipschitz regularization of a smooth well; slope stability driver",
          _STEEP_SQUARE, (0.0,))
_sequence("envelope-of-two-wells", "Lipschitz regularization of a two-well landscape", _TWO_WELLS, (0.5,))
_sequence("perturbed-linear", "uniform 1/n perturbations of a kink; slope stability driver", _ABS, (0.0,),
          wiggle=lambda t: np.cos(5.0 * t))
# the wiggle is flat at the probe: witness slopes then settle within tol at
# finite n instead of carrying an O(1/n) excess
_sequence("perturbed-quadratic", "uniform 1/n perturbations of a smooth well", _SQUARE, (0.0,),
          wiggle=lambda t: np.cos(3.0 * t))


# ------------------------------------------------------------ decoupled sums

def _gradient(slope: Callable[[float], float]):
    """(oracle sample, provenance) of a smooth function: its derivative."""
    return (lambda x: [(slope(x[0]),)]), "gradient"


def _kink(a: float):
    """(oracle sample, provenance) of |x - a|: the sign, or {-1, 0, 1} at the kink."""
    def at(x):
        if abs(x[0] - a) < AT_NODE:
            return [(-1.0,), (0.0,), (1.0,)]
        return [(math.copysign(1.0, x[0] - a),)]
    return at, "convex piecewise-linear"


def _sum(name: str, role: str, f1, f2,
         oracles: Optional[Sequence[Tuple[Callable, str]]] = None) -> None:
    """Register the decoupled sum f1(x_1) + f2(x_2) of two line formulas (or
    anything with ``on(mesh)``) on the coarse mesh at xbar = 0, with one
    (sample, provenance) oracle per component or none."""
    def build(seed):
        mesh = coarse_mesh()
        first = f1.on(mesh)
        second = first if f2 is f1 else f2.on(mesh)
        return {"sum": DecoupledSum((first, second)),
                "oracles": None if oracles is None else [
                    SubdifferentialOracle(at, provenance=p) for at, p in oracles],
                "xbar": (0.0,), "mesh": mesh, "cfg": coarse_config()}
    _register(name, role, "sum")(build)


_sum("sum-smooth-kink", "sum-rule witness driver: smooth plus kink", _SQUARE, _ABS,
     [_gradient(lambda t: 2.0 * t), _kink(0.0)])
_sum("sum-cancel", "sum-rule witness driver: cancelling gradients", _IDENTITY, _NEGATION,
     [_gradient(lambda t: 1.0), _gradient(lambda t: -1.0)])
_sum("sum-offnode-kink", "sum-rule witness driver: kink off the node grid", _SHIFTED_ABS, _ZERO,
     [_kink(_OFF_NODE_KINK), _gradient(lambda t: 0.0)])
_sum("decouple-lipschitz-lsc", "decoupling holds: Lipschitz plus lsc", _ABS, _STEP)
_sum("decouple-indicator-pair", "decoupling holds: local uniform minimum", _IND_ORIGIN, _IND_ORIGIN)
_sum("decouple-interleaved-fail", "decoupling fails: interleaved negative spikes",
     _Spikes("even-spikes", 0), _Spikes("odd-spikes", 1))
_sum("decouple-boundary", "decoupling boundary case inside the inconclusive band", _IND_ORIGIN, _BUMP)
