"""Table 5 — pixelfly hyper-parameter sweep on the IPU.

The paper varies one of {butterfly size, block size, low-rank size} while
holding the other two fixed, for every combination of the fixed pair, and
reports the *maximum standard deviation* of training time, accuracy and
parameter count attributable to each knob.  Its conclusions:

* low-rank size barely moves execution time (dense matmul is the IPU's
  cheap path) but moves accuracy the most;
* block size moves execution time the most;
* butterfly size moves the parameter count the most.

We regenerate the full grid.  Accuracy per configuration comes from a short
real training run on the synthetic dataset (configurable budget); time is
the simulated IPU training-step time integrated over the steps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro import nn
from repro.bench.parallel import run_grid
from repro.guard import GuardPolicy
from repro.bench.reporting import Table
from repro.datasets import load_cifar10
from repro.experiments.config import TABLE3
from repro.ipu.machine import GC200
from repro.ipu.poptorch import IPUModule

__all__ = [
    "SweepPoint",
    "SweepSummary",
    "default_grid",
    "evaluate_config",
    "run",
    "summarize",
    "render",
]

#: The paper's parameter ranges (Table 5).
BUTTERFLY_SIZES = [2, 4, 16, 128]
BLOCK_SIZES = [8, 16, 32]
RANK_SIZES = [2, 4, 64, 128]

#: Seeds each configuration's initialisation and batch order.
TRAIN_SEED = 2


def default_grid() -> list[tuple[int, int, int]]:
    """(butterfly_size, block_size, rank) combinations."""
    return list(itertools.product(BUTTERFLY_SIZES, BLOCK_SIZES, RANK_SIZES))


@dataclass(frozen=True)
class SweepPoint:
    """Metrics of one pixelfly configuration."""

    butterfly_size: int
    block_size: int
    rank: int
    time_s: float
    accuracy: float
    n_params: int


@dataclass(frozen=True)
class SweepSummary:
    """Mean and max-std per metric for one varied knob (a Table 5 block)."""

    varied: str
    time_mean: float
    time_max_std: float
    accuracy_mean: float
    accuracy_max_std: float
    params_mean: float
    params_max_std: float


def evaluate_config(
    butterfly_size: int,
    block_size: int,
    rank: int,
    train: nn.ArrayDataset,
    test: nn.ArrayDataset,
    epochs: int = 2,
) -> SweepPoint:
    """Train one pixelfly SHL configuration and collect its metrics."""
    hp, seed = TABLE3, TRAIN_SEED
    dim = hp.hidden_dim
    model = nn.Sequential(
        nn.PixelflyLinear(
            dim,
            block_size=block_size,
            butterfly_size=butterfly_size,
            rank=rank,
            seed=seed,
        ),
        nn.ReLU(),
        nn.Linear(dim, 10, seed=1),
    )
    trainer = nn.Trainer(
        model,
        nn.SGD(model.parameters(), lr=hp.learning_rate, momentum=hp.momentum),
    )
    history = trainer.fit(
        nn.DataLoader(train, hp.batch_size, seed=seed), epochs=epochs
    )
    _, acc = trainer.evaluate(nn.DataLoader(test, 250, shuffle=False))
    step = IPUModule(
        model, in_features=dim, batch=hp.batch_size, spec=GC200
    ).training_step_time() + GC200.host_step_overhead_s
    return SweepPoint(
        butterfly_size=butterfly_size,
        block_size=block_size,
        rank=rank,
        time_s=step * history.steps,
        accuracy=acc,
        n_params=model.param_count(),
    )


def _evaluate_config_worker(config: tuple, seed_seq) -> SweepPoint:
    """Grid worker: reload the dataset and train one configuration.

    Each worker re-derives the synthetic dataset from ``(n_train,
    n_test)`` — a pure function of those arguments — instead of
    pickling the arrays, so results match the serial path exactly.
    """
    bf, bs, r, epochs, n_train, n_test = config
    train, test = load_cifar10(n_train=n_train, n_test=n_test, seed=0)
    return evaluate_config(bf, bs, r, train, test, epochs=epochs)


def run(
    grid: list[tuple[int, int, int]] | None = None,
    epochs: int = 2,
    n_train: int = 2000,
    n_test: int = 1000,
    jobs: int = 1,
    guard: GuardPolicy | None = None,
) -> list[SweepPoint]:
    """Evaluate the whole grid (short training budget per point)."""
    grid = grid or default_grid()
    if jobs == 1 and guard is None:
        # Serial path loads the dataset once and shares it across points.
        train, test = load_cifar10(n_train=n_train, n_test=n_test, seed=0)
        return [
            evaluate_config(bf, bs, r, train, test, epochs=epochs)
            for bf, bs, r in grid
        ]
    configs = [(bf, bs, r, epochs, n_train, n_test) for bf, bs, r in grid]
    points = run_grid(
        _evaluate_config_worker,
        configs,
        jobs=jobs,
        guard=guard,
        name="table5",
    )
    return [point for point in points if point is not None]


def _attr(point: SweepPoint, name: str) -> float:
    return float(getattr(point, name))


def summarize(points: list[SweepPoint]) -> list[SweepSummary]:
    """The paper's reduction: vary one knob, hold the others, take max std.

    For each knob, group the points by the values of the other two knobs;
    within each group the knob varies alone.  The reported std is the
    maximum group std (the paper's ``max_std``); the mean is over all
    points.
    """
    knobs = ["butterfly_size", "block_size", "rank"]
    out = []
    for knob in knobs:
        others = [k for k in knobs if k != knob]
        groups: dict[tuple, list[SweepPoint]] = {}
        for p in points:
            key = tuple(getattr(p, o) for o in others)
            groups.setdefault(key, []).append(p)
        max_stds = {}
        for metric in ["time_s", "accuracy", "n_params"]:
            stds = [
                float(np.std([_attr(p, metric) for p in group]))
                for group in groups.values()
                if len(group) > 1
            ]
            max_stds[metric] = max(stds) if stds else 0.0
        out.append(
            SweepSummary(
                varied=knob,
                time_mean=float(np.mean([p.time_s for p in points])),
                time_max_std=max_stds["time_s"],
                accuracy_mean=float(np.mean([p.accuracy for p in points])),
                accuracy_max_std=max_stds["accuracy"],
                params_mean=float(np.mean([p.n_params for p in points])),
                params_max_std=max_stds["n_params"],
            )
        )
    return out


def render(
    points: list[SweepPoint] | None = None,
    jobs: int = 1,
    guard: GuardPolicy | None = None,
) -> str:
    """Text rendering of the Table 5 reproduction."""
    points = points if points is not None else run(jobs=jobs, guard=guard)
    summaries = summarize(points)
    table = Table(
        title=(
            "Table 5: pixelfly sweep on the IPU — max std per varied "
            "parameter (others held fixed)"
        ),
        columns=[
            "varied",
            "time mean [s]",
            "time max_std",
            "acc mean [%]",
            "acc max_std",
            "params mean",
            "params max_std",
        ],
    )
    for s in summaries:
        table.add_row(
            s.varied,
            s.time_mean,
            s.time_max_std,
            s.accuracy_mean * 100,
            s.accuracy_max_std * 100,
            round(s.params_mean),
            round(s.params_max_std),
        )
    return table.render()

