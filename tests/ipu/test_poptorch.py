"""Tests for the PopTorch-style nn -> IPU bridge."""

import pytest

from repro import nn
from repro.gpu.torchsim import GPUModule
from repro.ipu.compiler import graph_fingerprint
from repro.ipu.machine import GC200
from repro.ipu.poptorch import IPUModule, lower_model
from repro.utils import log2_int


def shl(layer, out_dim=10):
    return nn.Sequential(layer, nn.ReLU(), nn.Linear(1024, out_dim, seed=1))


#: Models fed an input width their layers do not chain with: (model,
#: in_features, the layer the error names, its width, the width it gets).
UNCHAINED = [
    pytest.param(lambda: nn.Linear(8, 8), 16, "Linear", 8, 16, id="linear"),
    pytest.param(
        lambda: nn.Sequential(nn.Linear(8, 8), nn.ReLU(), nn.Linear(16, 4)),
        8, "Linear", 16, 8, id="sequential",
    ),
    pytest.param(
        lambda: nn.Sequential(
            nn.Sequential(nn.Linear(8, 8), nn.ReLU()),
            nn.Sequential(nn.Sequential(nn.Linear(16, 4))),
        ),
        8, "Linear", 16, 8, id="nested",
    ),
    pytest.param(
        lambda: nn.ButterflyLinear(16, 16), 8, "ButterflyLinear", 16, 8,
        id="butterfly",
    ),
    pytest.param(
        lambda: nn.PixelflyLinear(64, block_size=8), 32, "PixelflyLinear",
        64, 32, id="pixelfly",
    ),
    pytest.param(
        lambda: nn.FastfoodLinear(16), 8, "FastfoodLinear", 16, 8,
        id="fastfood",
    ),
    pytest.param(
        lambda: nn.CirculantLinear(16), 8, "CirculantLinear", 16, 8,
        id="circulant",
    ),
    pytest.param(
        lambda: nn.LowRankLinear(16, 16), 8, "LowRankLinear", 16, 8,
        id="lowrank",
    ),
]


class Strange(nn.Module):
    def forward(self, x):
        return x


def _flat_and_nested():
    """One model as a flat ``Sequential`` and nested three deep, sharing
    every layer object."""
    layers = [
        nn.Linear(64, 64, seed=0),
        nn.ReLU(),
        nn.LayerNorm(64),
        nn.ButterflyLinear(64, 64, seed=0),
        nn.PixelflyLinear(64, block_size=8, rank=2, seed=0),
        nn.Tanh(),
        nn.Linear(64, 10, seed=1),
    ]
    flat = nn.Sequential(*layers)
    nested = nn.Sequential(
        nn.Sequential(layers[0], layers[1]),
        nn.Sequential(nn.Sequential(layers[2]), layers[3], nn.Sequential()),
        layers[4],
        nn.Sequential(nn.Sequential(layers[5], layers[6])),
    )
    return flat, nested


class TestLowering:
    def test_linear_produces_matmul_graph(self):
        module = IPUModule(nn.Linear(256, 128, seed=0), 256, 32)
        codelets = module.graph.codelets_used()
        assert "MatMulPartialAMP" in codelets

    def test_butterfly_has_log_n_stage_compute_sets(self):
        layer = nn.ButterflyLinear(256, 256, bias=False, seed=0)
        module = IPUModule(layer, 256, 32)
        stage_sets = [
            cs for cs in module.graph.compute_sets
            if "butterfly/level" in cs.name
        ]
        assert len(stage_sets) == log2_int(256)

    def test_butterfly_never_uses_amp(self):
        layer = nn.ButterflyLinear(128, 128, bias=False, seed=0)
        module = IPUModule(layer, 128, 16)
        assert "MatMulPartialAMP" not in module.graph.codelets_used()

    def test_pixelfly_mixes_blocksparse_and_amp_lowrank(self):
        layer = nn.PixelflyLinear(128, block_size=16, rank=4, seed=0)
        module = IPUModule(layer, 128, 16)
        codelets = module.graph.codelets_used()
        assert "BlockSparseMatMul" in codelets
        assert "MatMulPartialAMP" in codelets  # the low-rank terms

    def test_fastfood_has_two_fwht_pyramids(self):
        layer = nn.FastfoodLinear(64, seed=0)
        module = IPUModule(layer, 64, 8)
        h1 = [
            cs for cs in module.graph.compute_sets if "H1" in cs.name
        ]
        h2 = [
            cs for cs in module.graph.compute_sets if "H2" in cs.name
        ]
        assert len(h1) == len(h2) == log2_int(64)

    def test_circulant_uses_fused_fft(self):
        layer = nn.CirculantLinear(64, seed=0)
        module = IPUModule(layer, 64, 8)
        fft_sets = [
            cs for cs in module.graph.compute_sets if "circulant" in cs.name
        ]
        # rfft + spectrum mul + irfft (+ bias): far fewer than 2 log n.
        assert 3 <= len(fft_sets) <= 4

    def test_unsupported_module_rejected(self):
        with pytest.raises(TypeError, match="support"):
            lower_model(Strange(), GC200, batch=4, in_features=8)

    @pytest.mark.parametrize("bridge, device", [
        (IPUModule, "IPU"), (GPUModule, "GPU"),
    ])
    def test_nested_unsupported_layer_rejected(self, bridge, device):
        model = nn.Sequential(
            nn.Linear(8, 8), nn.Sequential(nn.ReLU(), Strange())
        )
        with pytest.raises(
            TypeError, match=f"^{device} lowering does not support Strange$"
        ):
            bridge(model, in_features=8, batch=4)

    def test_nested_sequential_lowers_like_its_flat_twin(self):
        flat, nested = (
            IPUModule(model, 64, 16) for model in _flat_and_nested()
        )
        assert graph_fingerprint(nested.graph) == graph_fingerprint(
            flat.graph
        )
        assert nested.param_bytes == flat.param_bytes
        assert nested.forward_report().total_s == flat.forward_report().total_s

    def test_nested_sequential_launches_its_flat_twins_kernels(self):
        flat, nested = (
            GPUModule(model, 64, 16) for model in _flat_and_nested()
        )
        assert nested.kernels == flat.kernels
        assert nested.param_bytes == flat.param_bytes

    def test_validation(self):
        with pytest.raises(ValueError):
            IPUModule(nn.Linear(8, 8), in_features=8, batch=0)

    @pytest.mark.parametrize("bridge", [IPUModule, GPUModule])
    @pytest.mark.parametrize("build, in_features, name, wants, gets", UNCHAINED)
    def test_unchained_widths_rejected(
        self, bridge, build, in_features, name, wants, gets
    ):
        """Both lowerings check each weight layer's input width, so a
        model that cannot run is never costed."""
        match = f"{name} takes {wants} input features, but its input has {gets}"
        with pytest.raises(ValueError, match=match):
            bridge(build(), in_features=in_features, batch=4)

    def test_param_bytes_counted(self):
        module = IPUModule(nn.Linear(64, 32, bias=False, seed=0), 64, 8)
        assert module.param_bytes == 4 * 64 * 32


class TestTiming:
    def test_forward_time_positive_and_reported(self):
        module = IPUModule(shl(nn.Linear(1024, 1024, seed=0)), 1024, 50)
        report = module.forward_report()
        assert report.total_s > 0
        assert module.forward_time() == report.total_s

    def test_training_step_exceeds_forward(self):
        module = IPUModule(shl(nn.Linear(1024, 1024, seed=0)), 1024, 50)
        assert module.training_step_time() > module.forward_time()

    def test_host_io_adds_stream_time(self):
        plain = IPUModule(nn.Linear(512, 512, seed=0), 512, 512)
        stream = IPUModule(
            nn.Linear(512, 512, seed=0), 512, 512, host_io=True
        )
        assert stream.forward_time() > plain.forward_time()

    def test_table4_ipu_method_ordering(self):
        """Within-IPU Table 4 ordering: pixelfly slowest, fastfood next,
        circulant and low-rank at or below baseline."""
        times = {}
        for name, layer in [
            ("baseline", nn.Linear(1024, 1024, seed=0)),
            ("butterfly", nn.ButterflyLinear(1024, 1024, seed=0)),
            ("fastfood", nn.FastfoodLinear(1024, seed=0)),
            ("circulant", nn.CirculantLinear(1024, seed=0)),
            ("lowrank", nn.LowRankLinear(1024, 1024, rank=1, seed=0)),
            (
                "pixelfly",
                nn.PixelflyLinear(1024, block_size=32, rank=96, seed=0),
            ),
        ]:
            times[name] = IPUModule(shl(layer), 1024, 50).training_step_time()
        assert times["pixelfly"] > times["fastfood"] > times["baseline"]
        assert times["butterfly"] > times["baseline"]
        assert times["circulant"] <= times["baseline"] * 1.1
        assert times["lowrank"] < times["baseline"]


class TestMemory:
    def test_butterfly_graph_far_smaller_than_linear(self):
        # The paper's whole point: butterfly shrinks the memory footprint.
        n = 2048
        lin = IPUModule(nn.Linear(n, n, bias=False, seed=0), n, n)
        bf = IPUModule(nn.ButterflyLinear(n, n, bias=False, seed=0), n, n)
        assert bf.param_bytes < lin.param_bytes / 40

    def test_profile_exposes_fig7_quantities(self):
        module = IPUModule(
            nn.ButterflyLinear(256, 256, bias=False, seed=0), 256, 256
        )
        profile = module.profile()
        assert profile.n_compute_sets >= log2_int(256)
        assert profile.n_vertices > 0
        assert profile.total_bytes > profile.variable_bytes

    def test_fits_accessor(self):
        module = IPUModule(nn.Linear(64, 64, seed=0), 64, 8)
        assert module.fits()

    def test_compile_memoised(self):
        module = IPUModule(nn.Linear(64, 64, seed=0), 64, 8)
        assert module.compile() is module.compile()

