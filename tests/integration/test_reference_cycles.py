"""Lowering, compiling, training and request generation make no reference
cycle, so what they allocate is freed when its last user drops it.

Each call runs once to warm imports and caches, then again with the
cyclic collector off; whatever ``gc.collect()`` then finds is garbage that
would have stayed alive until the collector next ran.  In a compile sweep
that garbage is whole lowered graphs, and it raises the process's peak
memory.
"""

import gc

import pytest

from repro import nn
from repro.datasets.cifar10 import load_cifar10
from repro.experiments import fig6, fig7, generations, table4
from repro.experiments.config import METHODS, shl_model
from repro.gpu.torchsim import GPUModule
from repro.ipu.machine import GC2
from repro.ipu.poptorch import IPUModule
from repro.serve.workload import WorkloadSpec, generate_requests


def _cyclic_garbage(call) -> int:
    """Objects the cyclic collector reclaims after a warm *call*."""
    call()
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def _nested():
    return nn.Sequential(
        nn.Sequential(nn.Linear(256, 256), nn.ReLU()),
        nn.Sequential(nn.Sequential(nn.LayerNorm(256)), nn.Linear(256, 10)),
    )


MODELS = [
    *[pytest.param(lambda m=m: shl_model(m, dim=256), id=m) for m in METHODS],
    pytest.param(_nested, id="nested"),
]


@pytest.mark.parametrize("build", MODELS)
def test_ipu_lowering(build):
    assert _cyclic_garbage(
        lambda: IPUModule(build(), 256, 50).forward_report()
    ) == 0


@pytest.mark.parametrize("build", MODELS)
def test_gpu_lowering(build):
    assert _cyclic_garbage(
        lambda: GPUModule(build(), 256, 50).forward_time()
    ) == 0


@pytest.mark.parametrize(
    "run",
    [
        pytest.param(lambda: fig6.run(sizes=[128]), id="fig6"),
        pytest.param(lambda: fig7.run(sizes=[128]), id="fig7"),
        pytest.param(lambda: generations.run(specs=(GC2,)), id="generations"),
    ],
)
def test_compile_sweeps(run):
    assert _cyclic_garbage(run) == 0


@pytest.mark.parametrize("method", METHODS)
def test_table4_training(method):
    train, test = load_cifar10(n_train=60, n_test=20, seed=0)
    assert _cyclic_garbage(
        lambda: table4.run_method(method, train, test, epochs=1)
    ) == 0


def test_request_generation():
    spec = WorkloadSpec(seed=3, n_requests=50)
    assert _cyclic_garbage(lambda: generate_requests(spec)) == 0
