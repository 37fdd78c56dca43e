"""Weight layers draw their initial values on the first read of ``.data``.

Every layer derives one private generator per parameter in its
constructor, so drawing later gives the bytes drawing at once gives:
whatever order the parameters are first read in, and after a deep copy
or a pickle round trip of a model nothing has read yet.  Reading only
shapes draws nothing, so lowering a model to a device allocates no
weights.
"""

import copy
import pickle
import tracemalloc

import numpy as np
import pytest

from repro import nn
from repro.experiments.config import METHODS, shl_model
from repro.gpu.torchsim import GPUModule
from repro.ipu.poptorch import IPUModule
from repro.nn import Parameter, init
from repro.utils import as_rng, derive_rng

SEED = 7

LAYERS = {
    "linear": lambda: nn.Linear(48, 80, seed=SEED),
    "linear-nobias": lambda: nn.Linear(48, 80, bias=False, seed=SEED),
    "butterfly": lambda: nn.ButterflyLinear(40, 64, seed=SEED),
    "butterfly-2blocks": lambda: nn.ButterflyLinear(
        64, 64, nblocks=2, seed=SEED
    ),
    "pixelfly-rank0": lambda: nn.PixelflyLinear(
        128, block_size=16, rank=0, seed=SEED
    ),
    "pixelfly-rank1": lambda: nn.PixelflyLinear(
        128, block_size=16, rank=1, seed=SEED
    ),
    "lowrank": lambda: nn.LowRankLinear(48, 80, rank=3, seed=SEED),
    "circulant": lambda: nn.CirculantLinear(64, seed=SEED),
    "fastfood": lambda: nn.FastfoodLinear(64, seed=SEED),
}
LAYERS.update(
    {f"shl-{method}": (lambda m=method: shl_model(m, dim=128, seed=SEED))
     for method in METHODS}
)

INITIALISERS = ("kaiming_uniform", "uniform_fan_in", "normal", "rotations")


def fingerprint(params) -> list[tuple]:
    """(name, bytes, dtype, shape) of each parameter, reading ``.data``."""
    return [
        (name, p.data.tobytes(), p.data.dtype, p.data.shape)
        for name, p in params
    ]


def registration_order(model) -> list[tuple]:
    return fingerprint(model.named_parameters())


def reverse_order(model) -> list[tuple]:
    return fingerprint(list(model.named_parameters())[::-1])[::-1]


@pytest.fixture
def draws(monkeypatch) -> list[str]:
    """Names of the initialisers called, in call order.  Patched in
    before a model is built, so its parameters hold the counting
    wrappers."""
    calls: list[str] = []
    for name in INITIALISERS:
        def counting(shape, _real=getattr(init, name), _name=name, **kw):
            calls.append(_name)
            return _real(shape, **kw)

        monkeypatch.setattr(init, name, counting)
    return calls


@pytest.mark.parametrize("build", LAYERS.values(), ids=LAYERS.keys())
class TestSameBytesHoweverReached:
    def test_reverse_order(self, build):
        assert reverse_order(build()) == registration_order(build())

    def test_deep_copy_of_undrawn_model(self, build):
        model = build()
        twin = copy.deepcopy(model)
        want = registration_order(model)
        assert reverse_order(twin) == want

    def test_pickle_round_trip_of_undrawn_model(self, build):
        model = build()
        twin = pickle.loads(pickle.dumps(model))
        assert reverse_order(twin) == registration_order(model)

    def test_shape_queries_draw_nothing(self, build, draws):
        model = build()
        queried = [(p.shape, p.ndim, p.size) for p in model.parameters()]
        count = model.param_count()
        assert draws == []
        drawn = [(p.data.shape, p.data.ndim, p.data.size)
                 for p in model.parameters()]
        assert queried == drawn
        assert count == sum(size for _, _, size in drawn)
        assert draws  # the wrappers were live: reading .data drew

    def test_load_state_dict_draws_nothing(self, build, draws):
        state = build().state_dict()
        calls_to_build_state = len(draws)
        model = build()
        model.load_state_dict(state)
        assert len(draws) == calls_to_build_state
        for name, p in model.named_parameters():
            assert p.data.tobytes() == state[name].tobytes()
        assert len(draws) == calls_to_build_state


def test_linear_draws_what_init_gives_directly():
    layer = nn.Linear(48, 80, seed=SEED)
    rng = as_rng(SEED)
    weight = init.kaiming_uniform(
        (80, 48), fan_in=48, rng=derive_rng(rng, "weight")
    )
    bias = init.uniform_fan_in((80,), fan_in=48, rng=derive_rng(rng, "bias"))
    got_bias, got_weight = layer.bias.data, layer.weight.data
    assert (got_weight.tobytes(), got_weight.dtype, got_weight.shape) == (
        weight.tobytes(), weight.dtype, weight.shape
    )
    assert (got_bias.tobytes(), got_bias.dtype, got_bias.shape) == (
        bias.tobytes(), bias.dtype, bias.shape
    )


class TestContract:
    def test_assigning_before_reading_discards_the_draw(self, draws):
        layer = nn.Linear(3, 2, bias=False, seed=SEED)
        value = np.arange(12.0).reshape(4, 3)
        layer.weight.data = value
        assert layer.weight.data is value
        assert layer.weight.shape == (4, 3) and layer.weight.size == 12
        assert draws == []

    def test_first_read_draws_once(self, draws):
        layer = nn.Linear(3, 2, bias=False, seed=SEED)
        first = layer.weight.data
        assert layer.weight.data is first
        assert draws == ["kaiming_uniform"]

    def test_eager_parameter_is_unchanged(self):
        value = np.ones((2, 3))
        p = Parameter(value)
        assert p.data is value and p.shape == (2, 3) and p.size == 6

    def test_initialiser_that_breaks_the_recorded_shape_raises(self):
        # Two levels are a size-4 butterfly: 2 pairs per level, not 3.
        p = Parameter.drawn(init.rotations, (2, 3, 2, 2), rng=as_rng(0))
        assert p.shape == (2, 3, 2, 2)
        with pytest.raises(RuntimeError, match="rotations drew shape"):
            p.data


@pytest.mark.parametrize("bridge", ["ipu", "gpu"])
def test_lowering_allocates_no_dense_weight(bridge):
    """The drawn (4096, 4096) float64 weight alone is 128 MiB."""
    n = 4096
    tracemalloc.start()
    try:
        model = nn.Linear(n, n, bias=False, seed=0)
        if bridge == "ipu":
            assert IPUModule(model, in_features=n, batch=256).fits()
        else:
            assert GPUModule(model, in_features=n, batch=256).forward_time() > 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
