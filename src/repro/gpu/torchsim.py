"""PyTorch-on-GPU bridge: lower :mod:`repro.nn` models to kernel sequences.

The GPU-side counterpart of :mod:`repro.ipu.poptorch`.  Each layer type maps
to the kernel sequence its PyTorch implementation actually launches:

* ``Linear`` — one cuBLAS GEMM (FP32 or TF32 depending on ``tensor_cores``)
  plus a fused bias/epilogue stream.
* ``ButterflyLinear`` — ``log2 n`` levels, each several small elementwise /
  permute kernels (Dao's pure-PyTorch butterfly step): launch-bound at
  small N, bandwidth-bound at large N.  Tensor cores never engage — the
  structural reason the GPU needs N ≳ 2^11 before butterfly wins (Fig 6).
* ``PixelflyLinear`` — gather, batched block einsum (poor efficiency: tiny
  batched GEMMs through the pure-torch fallback), scatter-add, two low-rank
  cuBLAS GEMMs, adds.
* ``FastfoodLinear`` — two per-stage FWHT pyramids (launch-heavy) plus
  diagonal scales and a permutation gather.
* ``CirculantLinear`` — three cuFFT-class kernels (library-fused).

``GPUModule.training_step_time`` models fwd + bwd (2x fwd device work) +
optimiser kernels + the per-step framework overhead common to all methods.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gpu.kernels import KernelCost, stream_cost
from repro.gpu.machine import A30, GPUSpec
from repro.gpu.simulator import GPUDevice
from repro.nn.layers import (
    BatchNorm1d,
    LayerNorm,
    Linear,
    ReLU,
    Sigmoid,
    Tanh,
    check_input_width,
    leaf_layers,
)
from repro.nn.module import Module
from repro.nn.structured import (
    ButterflyLinear,
    CirculantLinear,
    FastfoodLinear,
    LowRankLinear,
    PixelflyLinear,
)
from repro.obs import get_tracer
from repro.utils import log2_int

__all__ = ["GPUModule", "lower_model_gpu"]

#: Kernels PyTorch launches per butterfly level (view + twiddle multiply +
#: pairwise combine + re-interleave in Dao's implementation).
KERNELS_PER_BUTTERFLY_LEVEL = 3

#: Memory passes over the activation per butterfly level across those
#: kernels (reads + writes of materialised intermediates).
PASSES_PER_BUTTERFLY_LEVEL = 6.0


def _matmul_impl(tensor_cores: bool) -> str:
    return "pytorch_tf32" if tensor_cores else "pytorch_fp32"


@dataclass
class _GPULowering:
    device: GPUDevice
    batch: int
    tensor_cores: bool
    kernels: list[KernelCost] = field(default_factory=list)
    param_bytes: int = 0

    @property
    def spec(self) -> GPUSpec:
        return self.device.spec

    def add(self, cost: KernelCost) -> None:
        self.kernels.append(cost)

    def add_stream(self, name: str, nbytes: int, passes: float = 2.0) -> None:
        """An elementwise kernel reading+writing *nbytes* of activation."""
        self.add(stream_cost(self.spec, nbytes, name=name, passes=passes))

    def matmul(self, m: int, n: int, k: int, name: str) -> None:
        cost = self.device.matmul_cost(
            m, n, k, impl=_matmul_impl(self.tensor_cores)
        )
        self.add(
            KernelCost(
                name=name,
                time_s=cost.time_s,
                flops=cost.flops,
                bytes_moved=cost.bytes_moved,
            )
        )


def _lower_linear_gpu(low: _GPULowering, layer: Linear) -> int:
    low.param_bytes += 4 * layer.weight.size
    low.matmul(low.batch, layer.out_features, layer.in_features, "linear/mm")
    if layer.bias is not None:
        low.param_bytes += 4 * layer.bias.size
        low.add_stream("linear/bias", 4 * low.batch * layer.out_features)
    return layer.out_features


def _lower_butterfly_gpu(low: _GPULowering, layer: ButterflyLinear) -> int:
    n = layer.n
    levels = log2_int(n) * getattr(layer, "nblocks", 1)
    low.param_bytes += 4 * sum(
        getattr(layer, name).size for name in layer._twiddle_names
    )
    act_bytes = 4 * low.batch * n
    per_kernel_passes = PASSES_PER_BUTTERFLY_LEVEL / KERNELS_PER_BUTTERFLY_LEVEL
    for level in range(levels):
        for kern in range(KERNELS_PER_BUTTERFLY_LEVEL):
            low.add_stream(
                f"butterfly/l{level}k{kern}",
                act_bytes,
                passes=per_kernel_passes,
            )
    if layer.bias is not None:
        low.param_bytes += 4 * layer.bias.size
        low.add_stream("butterfly/bias", 4 * low.batch * layer.out_features)
    return layer.out_features


def _lower_pixelfly_gpu(low: _GPULowering, layer: PixelflyLinear) -> int:
    pattern = layer.pattern
    n = layer.features
    bs = pattern.block_size
    low.param_bytes += 4 * layer.blocks.size
    act_bytes = 4 * low.batch * n
    gathered_bytes = 4 * pattern.n_blocks * bs * low.batch
    # Gather input block-columns into einsum layout.
    low.add_stream("pixelfly/gather", gathered_bytes)
    # Batched block einsum: tiny per-block GEMMs fall back to the
    # gather-einsum path — far from cuBLAS efficiency, never tensor cores.
    flops = 2 * pattern.n_blocks * bs * bs * low.batch
    rate = low.spec.peak_flops_fp32 * low.spec.batched_gather_efficiency
    time_s = low.spec.kernel_launch_s + max(
        flops / rate, gathered_bytes * 2 / low.spec.effective_bandwidth
    )
    low.add(
        KernelCost("pixelfly/block_einsum", time_s, flops, gathered_bytes * 2)
    )
    # Scatter-add back to row blocks.
    low.add_stream("pixelfly/scatter", gathered_bytes)
    if layer.u is not None:
        r = pattern.rank
        low.param_bytes += 4 * (layer.u.size + layer.v.size)
        low.matmul(low.batch, r, n, "pixelfly/lowrank_v")
        low.matmul(low.batch, n, r, "pixelfly/lowrank_u")
        low.add_stream("pixelfly/add_lowrank", act_bytes)
    if layer.residual:
        low.add_stream("pixelfly/residual", act_bytes)
    if layer.bias is not None:
        low.param_bytes += 4 * layer.bias.size
        low.add_stream("pixelfly/bias", act_bytes)
    return n


def _lower_fastfood_gpu(low: _GPULowering, layer: FastfoodLinear) -> int:
    n = layer.features
    levels = log2_int(n)
    low.param_bytes += 4 * (layer.b.size + layer.g.size + layer.s.size)
    act_bytes = 4 * low.batch * n
    low.add_stream("fastfood/B", act_bytes)
    for level in range(levels):
        low.add_stream(f"fastfood/H1_l{level}", act_bytes)
    low.add_stream("fastfood/permute", act_bytes)
    low.add_stream("fastfood/G", act_bytes)
    for level in range(levels):
        low.add_stream(f"fastfood/H2_l{level}", act_bytes)
    low.add_stream("fastfood/S", act_bytes)
    if layer.bias is not None:
        low.param_bytes += 4 * layer.bias.size
        low.add_stream("fastfood/bias", act_bytes)
    return n


def _lower_circulant_gpu(low: _GPULowering, layer: CirculantLinear) -> int:
    n = layer.features
    low.param_bytes += 4 * layer.c.size
    act_bytes = 4 * low.batch * n
    # cuFFT batched transforms: library-fused, ~5 passes worth of traffic.
    low.add_stream("circulant/rfft", act_bytes, passes=5.0)
    low.add_stream("circulant/spectrum_mul", act_bytes)
    low.add_stream("circulant/irfft", act_bytes, passes=5.0)
    if layer.bias is not None:
        low.param_bytes += 4 * layer.bias.size
        low.add_stream("circulant/bias", act_bytes)
    return n


def _lower_lowrank_gpu(low: _GPULowering, layer: LowRankLinear) -> int:
    low.param_bytes += 4 * (layer.u.size + layer.v.size)
    low.matmul(low.batch, layer.rank, layer.in_features, "lowrank/v")
    low.matmul(low.batch, layer.out_features, layer.rank, "lowrank/u")
    if layer.bias is not None:
        low.param_bytes += 4 * layer.bias.size
        low.add_stream("lowrank/bias", 4 * low.batch * layer.out_features)
    return layer.out_features


#: Each weight layer type and the function that lowers it.
_WEIGHT_LOWERINGS = (
    (Linear, _lower_linear_gpu),
    (ButterflyLinear, _lower_butterfly_gpu),
    (PixelflyLinear, _lower_pixelfly_gpu),
    (FastfoodLinear, _lower_fastfood_gpu),
    (CirculantLinear, _lower_circulant_gpu),
    (LowRankLinear, _lower_lowrank_gpu),
)


def _lower_layer_gpu(low: _GPULowering, layer: Module, features: int) -> int:
    """Append one leaf *layer*'s kernels for an input of width *features*;
    returns its output width."""
    for layer_type, lower_weight in _WEIGHT_LOWERINGS:
        if isinstance(layer, layer_type):
            check_input_width(layer, features)
            return lower_weight(low, layer)
    if isinstance(layer, (ReLU, Tanh, Sigmoid)):
        low.add_stream("activation", 4 * low.batch * features)
        return features
    if isinstance(layer, (BatchNorm1d, LayerNorm)):
        low.param_bytes += 4 * 2 * features  # gamma + beta
        low.add_stream("norm/stats", 4 * low.batch * features)
        low.add_stream("norm/apply", 4 * low.batch * features)
        return features
    raise TypeError(f"GPU lowering does not support {type(layer).__name__}")


def lower_model_gpu(
    model: Module,
    device: GPUDevice,
    batch: int,
    in_features: int,
    tensor_cores: bool = False,
) -> _GPULowering:
    """Lower *model*'s forward pass to a GPU kernel sequence."""
    if batch <= 0 or in_features <= 0:
        raise ValueError("batch and in_features must be positive")
    low = _GPULowering(device=device, batch=batch, tensor_cores=tensor_cores)
    features = in_features
    for layer in leaf_layers(model):
        features = _lower_layer_gpu(low, layer, features)
    return low


@dataclass
class GPUModule:
    """A model lowered onto the GPU cost model (PyTorch stand-in)."""

    model: Module
    in_features: int
    batch: int
    tensor_cores: bool = False
    spec: GPUSpec = A30

    def __post_init__(self) -> None:
        self.device = GPUDevice(self.spec)
        self._lowering = lower_model_gpu(
            self.model,
            self.device,
            self.batch,
            self.in_features,
            tensor_cores=self.tensor_cores,
        )

    @property
    def kernels(self) -> list[KernelCost]:
        """The forward-pass kernel sequence."""
        return self._lowering.kernels

    @property
    def param_bytes(self) -> int:
        return self._lowering.param_bytes

    #: Virtual tracer track the simulated GPU kernel timeline lives on.
    TRACE_TRACK = "gpu"

    def _trace_kernels(self) -> None:
        """Emit the forward kernel sequence as spans on the GPU track."""
        tracer = get_tracer()
        if not tracer.enabled:
            return
        for kernel in self.kernels:
            tracer.add_span(
                kernel.name,
                kernel.time_s,
                self.TRACE_TRACK,
                category="kernel",
                flops=kernel.flops,
                bytes_moved=kernel.bytes_moved,
            )

    def forward_time(self) -> float:
        """Seconds for one forward pass."""
        self._trace_kernels()
        return sum(k.time_s for k in self.kernels)

    def training_step_time(self) -> float:
        """Seconds per training step: overhead + fwd + bwd + optimiser.

        Backward launches roughly the forward sequence twice over
        (grad-input and grad-weight kernels); SGD-with-momentum touches
        each parameter tensor with ~5 memory passes.
        """
        fwd = self.forward_time()
        n_tensors = sum(1 for _ in self.model.parameters())
        opt = n_tensors * self.spec.kernel_launch_s + (
            5.0 * self.param_bytes / self.spec.effective_bandwidth
        )
        step_s = self.spec.train_step_overhead_s + 3.0 * fwd + opt
        tracer = get_tracer()
        if tracer.enabled:
            tracer.add_span(
                "backward+optimizer",
                step_s - fwd,
                self.TRACE_TRACK,
                category="kernel",
                forward_s=fwd,
                optimizer_s=opt,
                overhead_s=self.spec.train_step_overhead_s,
            )
        return step_s
