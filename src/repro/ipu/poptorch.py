"""PopTorch-style bridge: lower :mod:`repro.nn` models onto the IPU simulator.

``IPUModule`` walks a model (``Sequential`` of supported layers) and emits a
forward dataflow graph — one or more compute sets per layer, with the layer
type deciding the codelet class:

* ``Linear`` / ``LowRankLinear`` lower to planned AMP matmuls (poplin) —
  the *only* path that reaches the AMP units, mirroring the real hardware
  and the paper's explanation of butterfly's modest IPU speedups.
* ``ButterflyLinear`` lowers to ``log2 n`` gather-rate butterfly-stage
  compute sets (PopTorch turns the per-level strided einsum into generic
  vertices).
* ``PixelflyLinear`` lowers to a block-gather/matmul/scatter pipeline plus
  two low-rank matmuls — more arithmetic and more supersteps than
  butterfly, the overhead the paper blames for pixelfly's IPU slowdown.
* ``FastfoodLinear`` lowers to two full FWHT stage pyramids plus diagonal
  scales and a permutation — the largest compute-set count of all methods,
  matching its worst-of-table IPU training time (Table 4).
* ``CirculantLinear`` lowers to three library-fused FFT compute sets
  (poplibs has a fused FFT; PyTorch's per-stage FWHT does not).

Timing: ``forward_report`` estimates one forward pass; ``training_step_time``
models forward + backward (2x the forward's device work — the standard two
extra GEMM-equivalents per layer) + optimiser update compute sets, all under
a single engine run.  Host streaming of inputs/outputs is included exactly
when ``host_io=True`` (the paper's Note 4 measurement mode).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.ipu.compiler import CompiledGraph, GraphProfile, compile_graph
from repro.ipu.executor import ExecutionReport, Executor
from repro.ipu.graph import Edge, Graph
from repro.ipu.machine import GC200, IPUSpec
from repro.ipu.poplin import emit_matmul
from repro.nn.layers import (
    BatchNorm1d,
    LayerNorm,
    Linear,
    ReLU,
    Sequential,
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
from repro.nn.tensor import Tensor
from repro.utils import log2_int

__all__ = ["IPUModule", "lower_model", "module_signature"]

#: Minimum elements a generic vertex should process — below this the
#: per-vertex overhead dominates, so the lowering uses fewer tiles.
MIN_ELEMENTS_PER_VERTEX = 512


def _tiles_for(
    elements: int, spec: IPUSpec, min_per_vertex: int = MIN_ELEMENTS_PER_VERTEX
) -> int:
    """How many tiles to spread *elements* of generic work over."""
    return max(1, min(spec.n_tiles, elements // min_per_vertex))


def _chunks(total: int, parts: int) -> np.ndarray:
    """Split *total* into *parts* near-even chunk sizes."""
    return total // parts + (np.arange(parts) < total % parts)


class _Lowering:
    """Mutable state while emitting a model's forward graph."""

    def __init__(self, graph: Graph, spec: IPUSpec, batch: int) -> None:
        self.graph = graph
        self.spec = spec
        self.batch = batch
        self.counter = 0
        self.param_bytes = 0

    def fresh(self, hint: str) -> str:
        self.counter += 1
        return f"{hint}_{self.counter}"

    def new_activation(self, features: int, hint: str = "act") -> str:
        name = self.fresh(hint)
        self.graph.add_variable(name, (self.batch, features))
        return name

    def new_param(self, shape: tuple[int, ...], hint: str) -> str:
        name = self.fresh(hint)
        var = self.graph.add_variable(name, shape)
        self.param_bytes += var.total_bytes
        return name

    # -- generic emitters -----------------------------------------------------

    def emit_elementwise(
        self,
        codelet: str,
        cs_name: str,
        in_vars: list[str],
        out_var: str,
        elements: int,
        params: dict | None = None,
        remote_inputs: bool = False,
    ) -> None:
        """One compute set of elementwise vertices spread across tiles."""
        cs = self.graph.add_compute_set(cs_name)
        n_tiles = _tiles_for(elements, self.spec)
        chunk = _chunks(elements, n_tiles)
        self.graph.add_vertices(
            cs,
            codelet,
            np.arange(n_tiles),
            inputs=[Edge(v, chunk, local=not remote_inputs) for v in in_vars],
            outputs=[Edge(out_var, chunk, local=True)],
            params=params,
        )

    def emit_stage_pyramid(
        self,
        codelet: str,
        cs_prefix: str,
        levels: int,
        x_var: str,
        features: int,
        params_per_vertex,
        aux_var: str | None = None,
        aux_elements_per_vertex: int = 0,
    ) -> str:
        """``levels`` compute sets of stage vertices, ping-ponging buffers.

        Each level reshuffles the activation across tiles (remote inputs —
        the exchange cost of strided butterfly/FWHT/FFT access patterns).
        Only two staging buffers are allocated and alternated — Poplar's
        liveness analysis would reuse the storage the same way, so a
        ``log n``-level pyramid costs 2 activations of memory, not
        ``log n``.  Returns the final activation variable.
        """
        ping = self.new_activation(features, hint=f"{cs_prefix}_ping")
        pong = self.new_activation(features, hint=f"{cs_prefix}_pong")
        cur = x_var
        for level in range(levels):
            nxt = ping if level % 2 == 0 else pong
            cs = self.graph.add_compute_set(f"{cs_prefix}/level{level}")
            total_pairs = (features // 2) * self.batch
            n_tiles = _tiles_for(total_pairs * 2, self.spec)
            pairs = _chunks(total_pairs, n_tiles)
            inputs = [Edge(cur, 2 * pairs)]
            if aux_var is not None:
                inputs.append(
                    Edge(aux_var, aux_elements_per_vertex, local=True)
                )
            self.graph.add_vertices(
                cs,
                codelet,
                np.arange(n_tiles),
                inputs=inputs,
                outputs=[Edge(nxt, 2 * pairs, local=True)],
                params=params_per_vertex(level, pairs),
            )
            cur = nxt
        return cur

    def emit_bias_add(self, x_var: str, features: int, hint: str) -> str:
        bias = self.new_param((features,), f"{hint}_bias")
        out = self.new_activation(features, hint=f"{hint}_biased")
        self.emit_elementwise(
            "ElementwiseBinary",
            f"{hint}/bias",
            [x_var, bias],
            out,
            elements=self.batch * features,
            params={"op": "add"},
        )
        return out

    def emit_matmul_layer(
        self,
        x_var: str,
        in_features: int,
        out_features: int,
        hint: str,
    ) -> str:
        """Planned AMP matmul: activation (B, in) @ weight (in, out)."""
        weight = self.new_param((in_features, out_features), f"{hint}_w")
        out = self.new_activation(out_features, hint=f"{hint}_out")
        emit_matmul(
            self.graph,
            self.spec,
            x_var,
            weight,
            out,
            m=self.batch,
            n=out_features,
            k=in_features,
            name=self.fresh(hint),
        )
        return out


# ---------------------------------------------------------------------------
# Per-layer lowerings
# ---------------------------------------------------------------------------


def _lower_linear(low: _Lowering, layer: Linear, x: str) -> tuple[str, int]:
    out = low.emit_matmul_layer(
        x, layer.in_features, layer.out_features, "linear"
    )
    if layer.bias is not None:
        out = low.emit_bias_add(out, layer.out_features, "linear")
    return out, layer.out_features


def _lower_butterfly(
    low: _Lowering, layer: ButterflyLinear, x: str
) -> tuple[str, int]:
    n = layer.n
    levels = log2_int(n)
    if layer.in_features < n:
        padded = low.new_activation(n, hint="bfly_pad")
        low.emit_elementwise(
            "Copy",
            "butterfly/pad",
            [x],
            padded,
            elements=low.batch * layer.in_features,
        )
        x = padded
    pairs_per_level = (n // 2) * low.batch
    n_tiles = _tiles_for(pairs_per_level * 2, low.spec)
    twiddle_per_vertex = math.ceil((n // 2) * 4 / n_tiles)
    out = x
    for block in range(getattr(layer, "nblocks", 1)):
        twiddle = low.new_param((levels, n // 2, 2, 2), "bfly_twiddle")
        out = low.emit_stage_pyramid(
            "ButterflyStage",
            f"butterfly{block}" if block else "butterfly",
            levels,
            out,
            n,
            params_per_vertex=lambda level, pairs: {"n_pairs": pairs},
            aux_var=twiddle,
            aux_elements_per_vertex=twiddle_per_vertex,
        )
    if layer.out_features < n:
        sliced = low.new_activation(layer.out_features, hint="bfly_slice")
        low.emit_elementwise(
            "Copy",
            "butterfly/slice",
            [out],
            sliced,
            elements=low.batch * layer.out_features,
        )
        out = sliced
    if layer.bias is not None:
        out = low.emit_bias_add(out, layer.out_features, "butterfly")
    return out, layer.out_features


def _lower_pixelfly(
    low: _Lowering, layer: PixelflyLinear, x: str
) -> tuple[str, int]:
    pattern = layer.pattern
    n = layer.features
    bs = pattern.block_size
    blocks = low.new_param((pattern.n_blocks, bs, bs), "pxf_blocks")
    sparse_out = low.new_activation(n, hint="pxf_sparse")

    # Block-sparse product: vertices partition the active blocks; each
    # gathers its input block-columns over the exchange and computes dense
    # bs x bs x batch products at the generic (non-AMP) block rate.
    cs = low.graph.add_compute_set("pixelfly/blocksparse")
    total_flops = 2 * pattern.n_blocks * bs * bs * low.batch
    # Parallelism: one vertex per (block, 64-row batch chunk) — the einsum
    # batches over blocks and coarse batch slabs, so small mini-batches
    # (like Table 4's 50) leave most tiles idle.
    batch_chunks = max(1, low.batch // 64)
    n_tiles = max(
        1, min(low.spec.n_tiles, pattern.n_blocks * batch_chunks)
    )
    nblk = _chunks(pattern.n_blocks, n_tiles)
    busy = np.flatnonzero(nblk)
    nblk = nblk[busy]
    low.graph.add_vertices(
        cs,
        "BlockSparseMatMul",
        busy,
        inputs=[
            Edge(x, nblk * bs * low.batch),
            Edge(blocks, nblk * bs * bs, local=True),
        ],
        outputs=[Edge(sparse_out, nblk * bs * low.batch, local=True)],
        params={"flops": total_flops // n_tiles},
    )
    # Scatter-reduce: blocks mapping to the same output row-block are summed.
    reduced = low.new_activation(n, hint="pxf_reduced")
    low.emit_elementwise(
        "ReduceAdd",
        "pixelfly/scatter_reduce",
        [sparse_out],
        reduced,
        elements=low.batch * n,
        remote_inputs=True,
    )
    out = reduced
    if layer.u is not None:
        r = pattern.rank
        mid = low.emit_matmul_layer(x, n, r, "pxf_lowrank_v")
        lr_out = low.emit_matmul_layer(mid, r, n, "pxf_lowrank_u")
        combined = low.new_activation(n, hint="pxf_sum")
        low.emit_elementwise(
            "ElementwiseBinary",
            "pixelfly/add_lowrank",
            [out, lr_out],
            combined,
            elements=low.batch * n,
            params={"op": "add"},
        )
        out = combined
    if layer.residual:
        res = low.new_activation(n, hint="pxf_res")
        low.emit_elementwise(
            "ElementwiseBinary",
            "pixelfly/residual",
            [out, x],
            res,
            elements=low.batch * n,
            params={"op": "add"},
        )
        out = res
    if layer.bias is not None:
        out = low.emit_bias_add(out, n, "pixelfly")
    return out, n


def _lower_fastfood(
    low: _Lowering, layer: FastfoodLinear, x: str
) -> tuple[str, int]:
    n = layer.features
    levels = log2_int(n)

    def diag(cur: str, hint: str) -> str:
        d = low.new_param((n,), f"ff_{hint}")
        out = low.new_activation(n, hint=f"ff_{hint}_out")
        low.emit_elementwise(
            "DiagScale",
            f"fastfood/{hint}",
            [cur, d],
            out,
            elements=low.batch * n,
        )
        return out

    cur = diag(x, "B")
    cur = low.emit_stage_pyramid(
        "FWHTStage",
        "fastfood/H1",
        levels,
        cur,
        n,
        params_per_vertex=lambda level, pairs: {"elements": 2 * pairs},
    )
    # Permutation: a full remote reshuffle (gather by fixed indices).
    permuted = low.new_activation(n, hint="ff_perm")
    low.emit_elementwise(
        "Copy",
        "fastfood/permute",
        [cur],
        permuted,
        elements=low.batch * n,
        remote_inputs=True,
    )
    cur = diag(permuted, "G")
    cur = low.emit_stage_pyramid(
        "FWHTStage",
        "fastfood/H2",
        levels,
        cur,
        n,
        params_per_vertex=lambda level, pairs: {"elements": 2 * pairs},
    )
    cur = diag(cur, "S")
    if layer.bias is not None:
        cur = low.emit_bias_add(cur, n, "fastfood")
    return cur, n


def _lower_circulant(
    low: _Lowering, layer: CirculantLinear, x: str
) -> tuple[str, int]:
    n = layer.features
    levels = max(1, int(math.ceil(math.log2(max(n, 2)))))
    low.new_param((n,), "circ_c")  # the defining vector (spectrum cached)
    # poplibs exposes a fused FFT: one compute set per transform, not one
    # per stage — the library advantage PyTorch's FWHT lacks.
    pairs = (n // 2) * low.batch

    def fft_cs(cur: str, hint: str) -> str:
        out = low.new_activation(n, hint=hint)
        cs = low.graph.add_compute_set(f"circulant/{hint}")
        # Library-fused FFT spreads much finer than per-stage generic code.
        n_tiles = _tiles_for(pairs * 2, low.spec, min_per_vertex=64)
        chunk = _chunks(pairs, n_tiles)
        low.graph.add_vertices(
            cs,
            "FFTStage",
            np.arange(n_tiles),
            inputs=[Edge(cur, 2 * chunk)],
            outputs=[Edge(out, 2 * chunk, local=True)],
            # Fused library FFT: all log n stages inside the vertex.
            params={"n_pairs": chunk * levels},
        )
        return out

    cur = fft_cs(x, "rfft")
    spec_mul = low.new_activation(n, hint="circ_specmul")
    low.emit_elementwise(
        "ElementwiseBinary",
        "circulant/spectrum_mul",
        [cur, cur],
        spec_mul,
        elements=low.batch * n,
        params={"op": "mul"},
    )
    cur = fft_cs(spec_mul, "irfft")
    if layer.bias is not None:
        cur = low.emit_bias_add(cur, n, "circulant")
    return cur, n


def _lower_lowrank(
    low: _Lowering, layer: LowRankLinear, x: str
) -> tuple[str, int]:
    mid = low.emit_matmul_layer(x, layer.in_features, layer.rank, "lr_v")
    out = low.emit_matmul_layer(mid, layer.rank, layer.out_features, "lr_u")
    if layer.bias is not None:
        out = low.emit_bias_add(out, layer.out_features, "lowrank")
    return out, layer.out_features


def _lower_activation(
    low: _Lowering, op: str, x: str, features: int, hint: str
) -> str:
    out = low.new_activation(features, hint=f"{hint}_out")
    low.emit_elementwise(
        "ElementwiseUnary",
        f"{hint}/{op}",
        [x],
        out,
        elements=low.batch * features,
        params={"op": op},
    )
    return out


def module_signature(module: Module) -> tuple | None:
    """Canonical structural identity of *module* for the compilation cache.

    Captures exactly the attributes the lowering reads — layer sizes,
    block/rank/stride structure, bias presence — and nothing weight-valued,
    so two models that lower to identical graphs share a signature.
    Returns ``None`` for module types the walk does not recognise, which
    makes the cache fall back to fingerprinting the built graph.
    """
    if isinstance(module, Sequential):
        parts = []
        for child in module:
            sig = module_signature(child)
            if sig is None:
                return None
            parts.append(sig)
        return ("seq",) + tuple(parts)
    if isinstance(module, LowRankLinear):
        return (
            "lowrank", module.in_features, module.out_features,
            module.rank, module.bias is not None,
        )
    if isinstance(module, Linear):
        return (
            "linear", module.in_features, module.out_features,
            module.bias is not None,
        )
    if isinstance(module, ButterflyLinear):
        return (
            "butterfly", module.in_features, module.out_features, module.n,
            module.nblocks, module.increasing_stride,
            module.bias is not None,
        )
    if isinstance(module, PixelflyLinear):
        return (
            "pixelfly", module.features, module.block_size,
            module.butterfly_size, module.rank, module.pattern.n_blocks,
            module.residual, module.u is not None, module.bias is not None,
        )
    if isinstance(module, FastfoodLinear):
        return ("fastfood", module.features, module.bias is not None)
    if isinstance(module, CirculantLinear):
        return ("circulant", module.features, module.bias is not None)
    if isinstance(module, (ReLU, Tanh, Sigmoid, BatchNorm1d, LayerNorm)):
        return (type(module).__name__.lower(),)
    return None


#: Each weight layer type and the function that lowers it.
_WEIGHT_LOWERINGS = (
    (Linear, _lower_linear),
    (ButterflyLinear, _lower_butterfly),
    (PixelflyLinear, _lower_pixelfly),
    (FastfoodLinear, _lower_fastfood),
    (CirculantLinear, _lower_circulant),
    (LowRankLinear, _lower_lowrank),
)


def _lower_layer(
    low: _Lowering, layer: Module, x: str, features: int
) -> tuple[str, int]:
    """Emit one leaf *layer* reading activation *x* of width *features*;
    returns its output activation and width."""
    for layer_type, lower_weight in _WEIGHT_LOWERINGS:
        if isinstance(layer, layer_type):
            check_input_width(layer, features)
            return lower_weight(low, layer, x)
    if isinstance(layer, ReLU):
        return _lower_activation(low, "relu", x, features, "relu"), features
    if isinstance(layer, (Tanh, Sigmoid)):
        # Costed like any other elementwise op.
        return _lower_activation(low, "square", x, features, "act"), features
    if isinstance(layer, (BatchNorm1d, LayerNorm)):
        # Two supersteps: reduce for statistics, then normalise+affine.
        stats = low.new_activation(features, hint="norm_stats")
        low.emit_elementwise(
            "ReduceAdd",
            "norm/stats",
            [x],
            stats,
            elements=low.batch * features,
            remote_inputs=isinstance(layer, BatchNorm1d),
        )
        out = low.new_activation(features, hint="norm_out")
        low.emit_elementwise(
            "ElementwiseBinary",
            "norm/apply",
            [x, stats],
            out,
            elements=low.batch * features,
            params={"op": "mul"},
        )
        return out, features
    raise TypeError(f"IPU lowering does not support {type(layer).__name__}")


def lower_model(
    model: Module, spec: IPUSpec, batch: int, in_features: int,
    host_io: bool = False,
) -> tuple[Graph, int]:
    """Emit the forward graph of *model*; returns (graph, param_bytes)."""
    if batch <= 0 or in_features <= 0:
        raise ValueError("batch and in_features must be positive")
    graph = Graph(spec.n_tiles, name=f"ipu_{type(model).__name__}")
    low = _Lowering(graph, spec, batch)
    x = low.new_activation(in_features, hint="input")
    if host_io:
        graph.add_host_write(x)
    features = in_features
    for layer in leaf_layers(model):
        x, features = _lower_layer(low, layer, x, features)
    if host_io:
        graph.add_host_read(x)
    sig = module_signature(model)
    if sig is not None:
        graph.provenance = (
            "poptorch.lower", sig, batch, in_features, bool(host_io)
        )
    return graph, low.param_bytes


@dataclass
class IPUModule:
    """A model lowered onto the IPU simulator (PopTorch stand-in).

    Parameters mirror the real workflow: wrap the model, pick a batch size,
    then query compiled-graph statistics and timing estimates.
    """

    model: Module
    in_features: int
    batch: int
    spec: IPUSpec = GC200
    host_io: bool = False
    #: Compile with the liveness-driven memory planner: staging buffers
    #: with disjoint live ranges share tile memory (see
    #: :mod:`repro.ipu.memplan`).
    plan_memory: bool = False

    def __post_init__(self) -> None:
        self._graph, self.param_bytes = lower_model(
            self.model, self.spec, self.batch, self.in_features,
            host_io=self.host_io,
        )
        self._compiled: CompiledGraph | None = None

    @property
    def graph(self) -> Graph:
        return self._graph

    def compile(self, check_fit: bool = False) -> CompiledGraph:
        """Compile (memoised) and return the compiled graph."""
        if self._compiled is None:
            self._compiled = compile_graph(
                self._graph,
                self.spec,
                check_fit=check_fit,
                plan_memory=self.plan_memory,
            )
        return self._compiled

    def fits(self) -> bool:
        """True iff the forward graph fits in tile memory."""
        return self.compile().memory.fits

    def forward(self, x) -> np.ndarray:
        """Numeric forward of up to ``batch`` input rows.

        The device executes one fixed compiled batch shape, so fewer
        rows are padded with zeros up to ``batch`` before the model runs
        and the padding rows are stripped from the result.  Because
        every call goes through the *same* padded shape and every layer
        this repo ships is row-independent, a batch of requests returns
        bit-identical bytes to running each request alone — the
        micro-batcher's correctness precondition, pinned down by the
        ``batched_forward`` verify oracle and
        ``tests/ipu/test_batched_forward.py``.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"expected (rows, {self.in_features}) input, "
                f"got shape {x.shape}"
            )
        rows = x.shape[0]
        if not 1 <= rows <= self.batch:
            raise ValueError(
                f"got {rows} rows; the compiled batch holds "
                f"1..{self.batch}"
            )
        padded = np.zeros((self.batch, self.in_features), dtype=x.dtype)
        padded[:rows] = x
        return self.model(Tensor(padded)).data[:rows]

    def profile(self) -> GraphProfile:
        """Fig 5 / Fig 7 statistics of the forward graph."""
        return self.compile().profile()

    def forward_report(self) -> ExecutionReport:
        """Estimated timing of one forward pass."""
        return Executor(self.compile()).estimate()

    def forward_time(self) -> float:
        """Seconds for one forward pass (including engine overhead)."""
        return self.forward_report().total_s

    def training_step_time(self) -> float:
        """Seconds for one training step (fwd + bwd + optimiser update).

        Backward re-runs the layer pipeline with roughly twice the device
        work (grad-input and grad-weight products per layer); the optimiser
        adds one elementwise compute set per parameter tensor.  Everything
        shares a single engine run, as PopTorch compiles the full step.

        Each step also streams the input mini-batch from the host, as
        PopTorch training does (the paper's Note 4).
        """
        fwd = self.forward_report()
        device_work = fwd.total_s - fwd.engine_overhead_s
        n_param_tensors = sum(1 for _ in self.model.parameters())
        update_s = (
            n_param_tensors * self.spec.sync_cycles / self.spec.clock_hz
            + (self.param_bytes / 4) / self.spec.vector_flops_per_second
        )
        stream_s = 0.0
        if not self.host_io:  # avoid double counting
            stream_s = (
                self.batch * self.in_features * 4
            ) / self.spec.effective_host_bandwidth
        return fwd.engine_overhead_s + 3.0 * device_work + update_s + stream_s
