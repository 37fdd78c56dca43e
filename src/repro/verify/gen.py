"""Seeded workload generator for the differential fuzzer.

Every case is a pure function of ``(seed, index)`` via
``np.random.SeedSequence([seed, index])`` — no global state, no clock,
no platform-dependent draws — so a reproducer stored in the corpus
regenerates bit-identically on any machine (the seed-stability suite
asserts this in a ``spawn``-ed child and in a ``forkserver`` child).

A :class:`Case` bundles everything one fuzz iteration needs: a random
module graph (mixed dense/butterfly/pixelfly/low-rank/circulant/fastfood
layers with odd shapes and degenerate dims), a random
:class:`~repro.ipu.machine.IPUSpec` (tile counts, memory budgets near
the OOM boundary, excluded tiles) and a random run configuration (jobs,
cache on/off, memory planner on/off, fault plans).  Cases round-trip
through plain JSON dicts so the shrinker and the committed corpus can
serialise them.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from repro import nn
from repro.ipu.machine import GC200, IPUSpec
from repro.utils import KiB

__all__ = [
    "ACTIVATIONS",
    "DIMS",
    "LAYER_KINDS",
    "Case",
    "LayerSpec",
    "RunConfig",
    "build_model",
    "canonical_json",
    "case_from_dict",
    "case_to_dict",
    "generate_case",
    "generate_cases",
]

#: Linear-layer parameterisations the generator can draw.
LAYER_KINDS = (
    "dense",
    "butterfly",
    "lowrank",
    "circulant",
    "fastfood",
    "pixelfly",
)

#: Per-layer activations (``"none"`` keeps the map affine, which the
#: metamorphic-linearity oracle requires on at least some cases).
ACTIVATIONS = ("none", "relu", "tanh", "sigmoid")

#: The feature-size ladder: deliberately odd and degenerate (1, 3, 7…)
#: alongside the powers of two the structured kinds need.
DIMS = (1, 2, 3, 4, 6, 7, 8, 12, 16, 24, 32, 48, 64)

#: Tile-memory buckets (KiB): tiny budgets sit near the OOM boundary so
#: the cached-vs-cold oracle also exercises cached compile *failures*.
TILE_MEMORY_KIB = (32, 48, 64, 128, 624)


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class LayerSpec:
    """One generated layer: a linear kind plus its trailing activation."""

    kind: str
    out_features: int = 0
    rank: int = 1
    block_size: int = 4
    nblocks: int = 1
    increasing_stride: bool = True
    bias: bool = True
    activation: str = "none"
    seed: int = 0


@dataclass(frozen=True)
class RunConfig:
    """How a case is executed: parallelism, cache, planner, faults."""

    jobs: int = 1
    cache: bool = True
    plan_memory: bool = False
    fault_seed: int | None = None
    transient_rate: float = 0.0
    ecc_rate: float = 0.0
    stall_rate: float = 0.0

    @property
    def faulted(self) -> bool:
        return self.fault_seed is not None and (
            self.transient_rate > 0
            or self.ecc_rate > 0
            or self.stall_rate > 0
        )


@dataclass(frozen=True)
class Case:
    """One fuzz iteration: model, device spec and run configuration."""

    seed: int
    index: int
    batch: int
    in_features: int
    layers: tuple[LayerSpec, ...]
    n_tiles: int
    tile_memory_kib: int
    reserved_tile_kib: int
    excluded_tiles: tuple[int, ...] = ()
    run: RunConfig = field(default_factory=RunConfig)

    def spec(self) -> IPUSpec:
        """The case's device, derived from GC200 by field replacement."""
        return dataclasses.replace(
            GC200,
            name=f"fuzz-{self.seed}-{self.index}",
            n_tiles=self.n_tiles,
            tile_memory_bytes=self.tile_memory_kib * KiB,
            reserved_tile_bytes=self.reserved_tile_kib * KiB,
        )

    @property
    def n_layers(self) -> int:
        return len(self.layers)


# -- model construction --------------------------------------------------------


def _make_linear(spec: LayerSpec, in_features: int):
    """Instantiate one linear layer; returns ``(module, out_features)``."""
    if spec.kind == "dense":
        return (
            nn.Linear(
                in_features, spec.out_features, bias=spec.bias,
                seed=spec.seed,
            ),
            spec.out_features,
        )
    if spec.kind == "butterfly":
        return (
            nn.ButterflyLinear(
                in_features,
                spec.out_features,
                bias=spec.bias,
                increasing_stride=spec.increasing_stride,
                nblocks=spec.nblocks,
                seed=spec.seed,
            ),
            spec.out_features,
        )
    if spec.kind == "lowrank":
        return (
            nn.LowRankLinear(
                in_features,
                spec.out_features,
                rank=spec.rank,
                bias=spec.bias,
                seed=spec.seed,
            ),
            spec.out_features,
        )
    if spec.kind == "circulant":
        return (
            nn.CirculantLinear(in_features, bias=spec.bias, seed=spec.seed),
            in_features,
        )
    if spec.kind == "fastfood":
        return (
            nn.FastfoodLinear(in_features, bias=spec.bias, seed=spec.seed),
            in_features,
        )
    if spec.kind == "pixelfly":
        return (
            nn.PixelflyLinear(
                in_features,
                block_size=spec.block_size,
                rank=spec.rank,
                bias=spec.bias,
                seed=spec.seed,
            ),
            in_features,
        )
    raise ValueError(f"unknown layer kind {spec.kind!r}")


def _make_activation(name: str):
    return {
        "none": None,
        "relu": nn.ReLU(),
        "tanh": nn.Tanh(),
        "sigmoid": nn.Sigmoid(),
    }[name]


def build_model(case: Case):
    """Materialise the case's :class:`~repro.nn.Sequential` model.

    Raises (``ValueError`` from a layer constructor) when the case is
    structurally invalid — the shrinker uses that as its validity probe.
    """
    modules = []
    features = case.in_features
    for spec in case.layers:
        layer, features = _make_linear(spec, features)
        modules.append(layer)
        activation = _make_activation(spec.activation)
        if activation is not None:
            modules.append(activation)
    return nn.Sequential(*modules)


def out_features(case: Case) -> int:
    """The model's output width without building it."""
    features = case.in_features
    for spec in case.layers:
        if spec.kind in ("dense", "butterfly", "lowrank"):
            features = spec.out_features
    return features


# -- generation ----------------------------------------------------------------


def _draw_layer(rng: np.random.Generator, in_features: int) -> LayerSpec:
    kinds = ["dense", "butterfly", "lowrank", "circulant"]
    if _is_pow2(in_features) and in_features >= 4:
        kinds.append("fastfood")
    if _is_pow2(in_features) and in_features >= 16:
        kinds.append("pixelfly")
    kind = kinds[int(rng.integers(len(kinds)))]
    out = int(DIMS[int(rng.integers(len(DIMS)))])
    rank = 1
    if kind == "lowrank":
        rank = int(rng.integers(1, 1 + min(4, in_features, out)))
    if kind == "pixelfly":
        rank = int(rng.integers(1, 3))
    return LayerSpec(
        kind=kind,
        out_features=out if kind in ("dense", "butterfly", "lowrank") else 0,
        rank=rank,
        block_size=int(rng.choice([4, 8])) if kind == "pixelfly" else 4,
        nblocks=int(rng.integers(1, 3)) if kind == "butterfly" else 1,
        increasing_stride=bool(rng.integers(2)),
        bias=bool(rng.random() < 0.8),
        activation=str(
            rng.choice(ACTIVATIONS, p=[0.45, 0.2, 0.2, 0.15])
        ),
        seed=int(rng.integers(0, 2**16)),
    )


def generate_case(seed: int, index: int) -> Case:
    """The pure generator: ``(seed, index)`` -> :class:`Case`.

    Deterministic across processes and platforms; the committed corpus
    relies on this (see ``tests/verify/test_seed_stability.py``).
    """
    rng = np.random.default_rng(
        np.random.SeedSequence([int(seed), int(index)])
    )
    batch = int(rng.choice([1, 2, 3, 4, 5, 8, 16]))
    in_features = int(DIMS[int(rng.integers(len(DIMS)))])
    layers = []
    features = in_features
    for _ in range(int(rng.integers(1, 5))):
        layer = _draw_layer(rng, features)
        layers.append(layer)
        if layer.kind in ("dense", "butterfly", "lowrank"):
            features = layer.out_features

    n_tiles = int(rng.integers(4, 65))
    tile_memory_kib = int(rng.choice(TILE_MEMORY_KIB))
    reserved_tile_kib = 16 if tile_memory_kib >= 64 else 4
    excluded: tuple[int, ...] = ()
    if rng.random() < 0.3 and n_tiles >= 6:
        k = int(rng.integers(1, 1 + n_tiles // 3))
        excluded = tuple(
            sorted(int(t) for t in rng.choice(n_tiles, size=k, replace=False))
        )

    fault_seed = None
    transient = ecc = stall = 0.0
    if rng.random() < 0.35:
        fault_seed = int(rng.integers(0, 2**31))
        transient = float(rng.choice([0.0, 0.05, 0.1]))
        ecc = float(rng.choice([0.0, 0.05, 0.1]))
        stall = float(rng.choice([0.0, 0.05]))
    run = RunConfig(
        jobs=2 if rng.random() < 0.12 else 1,
        cache=bool(rng.random() < 0.8),
        plan_memory=bool(rng.random() < 0.5),
        fault_seed=fault_seed,
        transient_rate=transient,
        ecc_rate=ecc,
        stall_rate=stall,
    )
    return Case(
        seed=int(seed),
        index=int(index),
        batch=batch,
        in_features=in_features,
        layers=tuple(layers),
        n_tiles=n_tiles,
        tile_memory_kib=tile_memory_kib,
        reserved_tile_kib=reserved_tile_kib,
        excluded_tiles=excluded,
        run=run,
    )


def generate_cases(seed: int, n: int, start: int = 0) -> list[Case]:
    """Cases ``start .. start+n-1`` of stream *seed*."""
    return [generate_case(seed, index) for index in range(start, start + n)]


# -- serialisation -------------------------------------------------------------


def case_to_dict(case: Case) -> dict:
    """Plain-JSON form of a case (tuples become lists)."""
    d = dataclasses.asdict(case)
    d["layers"] = [dataclasses.asdict(layer) for layer in case.layers]
    d["excluded_tiles"] = list(case.excluded_tiles)
    d["run"] = dataclasses.asdict(case.run)
    return d


def case_from_dict(d: dict) -> Case:
    """Inverse of :func:`case_to_dict`."""
    return Case(
        seed=int(d["seed"]),
        index=int(d["index"]),
        batch=int(d["batch"]),
        in_features=int(d["in_features"]),
        layers=tuple(LayerSpec(**layer) for layer in d["layers"]),
        n_tiles=int(d["n_tiles"]),
        tile_memory_kib=int(d["tile_memory_kib"]),
        reserved_tile_kib=int(d["reserved_tile_kib"]),
        excluded_tiles=tuple(int(t) for t in d["excluded_tiles"]),
        run=RunConfig(**d["run"]),
    )


def canonical_json(case: Case) -> str:
    """Byte-stable JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(
        case_to_dict(case), sort_keys=True, separators=(",", ":")
    )
