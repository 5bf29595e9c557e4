"""spmv-csr: sparse matrix-vector multiply on CSR (SHOC).

The evaluation's most-used benchmark: it appears in Case Study I (CPU
work-item scheduling, Fig 8), Case Study II (GPU data placement, Fig 9)
and Case Study IV (input-dependent scalar-vs-vector selection, Fig 11).
Its irregularity — data-dependent row lengths — is exactly what static
heuristics cannot see, so DySel always profiles it in hybrid
partial-productive mode.

Kernel shapes, following SHOC:

* **scalar** — one work-item per row, serial dot product.  On the GPU the
  per-thread-sequential walk over ``val``/``col`` is uncoalesced.
* **vector** — one warp (32 lanes) per row with a scratchpad reduction.
  Coalesced, but rows shorter than a warp waste lanes — catastrophic on
  the diagonal matrix (Fig 11b's 22.73×).

The **workload unit** is a 4-row block: the vector kernel's work-group
(128 threads) covers exactly one unit (``wa_factor`` 1), the scalar
kernel's covers 32 (128 rows).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Mapping, Tuple

import numpy as np

from ..compiler.heuristics.jang import jang_placement
from ..compiler.heuristics.porple import GpuGeneration, porple_placement
from ..compiler.transforms.placement import place
from ..compiler.transforms.schedule import reorder_loops
from ..compiler.variants import VariantPool
from ..config import DEFAULT_CONFIG, ReproConfig
from ..kernel.buffers import Buffer
from ..kernel.ir import (
    GATHER_STRIDE,
    AccessPattern,
    KernelIR,
    Loop,
    LoopBound,
    MemoryAccess,
)
from ..kernel.kernel import KernelSpec, KernelVariant
from ..kernel.signature import ArgSpec, KernelSignature
from .base import BenchmarkCase
from .matrices import CsrMatrix, diagonal_csr, random_csr, segment_sums

#: Rows per workload unit.
ROWS_PER_UNIT = 4
#: Work-items per work-group (SHOC's block size).
WORK_GROUP_THREADS = 128
#: Warp width the vector kernel reduces over.
VECTOR_LANES = 32


def spmv_signature() -> KernelSignature:
    """The kernel contract every spmv-csr variant implements."""
    return KernelSignature(
        "spmv_csr",
        (
            ArgSpec("matrix", is_buffer=False),
            ArgSpec("val"),
            ArgSpec("col"),
            ArgSpec("x"),
            ArgSpec("y", is_output=True),
        ),
    )


def _executor(args: Mapping[str, object], unit_start: int, unit_end: int) -> None:
    """Shared functional body: y[rows] = A[rows] · x (all variants agree)."""
    matrix: CsrMatrix = args["matrix"]  # type: ignore[assignment]
    r0 = unit_start * ROWS_PER_UNIT
    r1 = min(unit_end * ROWS_PER_UNIT, matrix.rows)
    if r0 >= r1:
        return
    val = args["val"].data  # type: ignore[union-attr]
    col = args["col"].data  # type: ignore[union-attr]
    x = args["x"].data  # type: ignore[union-attr]
    y = args["y"].data  # type: ignore[union-attr]
    ptr = matrix.indptr[r0 : r1 + 1]
    lo, hi = int(ptr[0]), int(ptr[-1])
    products = (val[lo:hi] * x[col[lo:hi]]).astype(np.float32, copy=False)
    segment_sums(products, ptr, y[r0:r1])


def _block_stats_eval(field: str) -> Callable:
    """Evaluator reading a per-block statistic from the bound matrix."""

    def evaluate(args: Mapping[str, object], unit_ids: np.ndarray) -> np.ndarray:
        matrix: CsrMatrix = args["matrix"]  # type: ignore[assignment]
        stats = matrix.block_stats(ROWS_PER_UNIT)
        return getattr(stats, field)[unit_ids]

    return evaluate


def _vector_strip_trips(args: Mapping[str, object], unit_ids: np.ndarray) -> np.ndarray:
    """Warp-strips per unit: each row takes ceil(nnz/32) coalesced strips.

    Approximated from the block maximum (warps in a work-group run in
    lockstep with the longest row of the block).
    """
    matrix: CsrMatrix = args["matrix"]  # type: ignore[assignment]
    stats = matrix.block_stats(ROWS_PER_UNIT)
    return ROWS_PER_UNIT * np.ceil(stats.nnz_max[unit_ids] / VECTOR_LANES)


def _nnz_footprint(args: Mapping[str, object], unit_ids: np.ndarray) -> np.ndarray:
    """Bytes of val/col a unit touches (its own nonzeros)."""
    matrix: CsrMatrix = args["matrix"]  # type: ignore[assignment]
    stats = matrix.block_stats(ROWS_PER_UNIT)
    return 4.0 * np.maximum(stats.nnz_sum[unit_ids], 1.0)


def _row_stride_bytes(
    args: Mapping[str, object], unit_ids: np.ndarray
) -> np.ndarray:
    """Dynamic across-thread stride of the scalar kernel's val/col walks.

    Adjacent threads start ``row_nnz`` elements apart, so short rows make
    the walk coalesced (the diagonal matrix) while long rows make every
    lane hit its own line (the random matrix) — Fig 11b's mechanism.
    """
    matrix: CsrMatrix = args["matrix"]  # type: ignore[assignment]
    stats = matrix.block_stats(ROWS_PER_UNIT)
    return 4.0 * np.maximum(stats.nnz_mean[unit_ids], 1.0)


def _x_footprint(args: Mapping[str, object], unit_ids: np.ndarray) -> np.ndarray:
    """Byte span of x a unit gathers from (banded inputs are tiny)."""
    matrix: CsrMatrix = args["matrix"]  # type: ignore[assignment]
    stats = matrix.block_stats(ROWS_PER_UNIT)
    return np.maximum(stats.x_span_bytes[unit_ids], 4.0)


def scalar_variant(device_kind: str) -> KernelVariant:
    """SHOC's scalar CSR kernel: one work-item per row.

    CPU IR uses the canonical depth-first order (rows outer, nonzeros
    inner) with stride metadata so the schedule transform can derive the
    breadth-first alternative; GPU IR marks ``val``/``col`` as
    per-thread-sequential (uncoalesced across the warp).
    """
    loops = (
        Loop("wi_r", LoopBound(static_trips=ROWS_PER_UNIT), is_work_item_loop=True),
        Loop(
            "nnz",
            LoopBound(
                evaluator=_block_stats_eval("nnz_mean"),
                description="CSR row length",
            ),
        ),
    )
    stream_pattern = (
        AccessPattern.UNIT_STRIDE if device_kind == "cpu" else AccessPattern.UNIT_STRIDE
    )
    accesses = (
        MemoryAccess(
            "val",
            False,
            stream_pattern,
            4.0,
            loop="nnz",
            scope=("wi_r", "nnz"),
            strides_by_loop=(("wi_r", GATHER_STRIDE), ("nnz", 4)),
            footprint_hint=_nnz_footprint,
            stride_evaluator=_row_stride_bytes,
        ),
        MemoryAccess(
            "col",
            False,
            stream_pattern,
            4.0,
            loop="nnz",
            scope=("wi_r", "nnz"),
            strides_by_loop=(("wi_r", GATHER_STRIDE), ("nnz", 4)),
            footprint_hint=_nnz_footprint,
            stride_evaluator=_row_stride_bytes,
        ),
        MemoryAccess(
            "x",
            False,
            AccessPattern.GATHER,
            4.0,
            loop="nnz",
            scope=("wi_r", "nnz"),
            strides_by_loop=(("wi_r", GATHER_STRIDE), ("nnz", GATHER_STRIDE)),
            working_set_hint="x",
            footprint_hint=_x_footprint,
        ),
        MemoryAccess(
            "y",
            True,
            AccessPattern.COALESCED if device_kind == "gpu" else AccessPattern.UNIT_STRIDE,
            4.0,
            loop="wi_r",
            scope=("wi_r",),
            strides_by_loop=(("wi_r", 4), ("nnz", 0)),
        ),
    )
    ir = KernelIR(
        loops=loops,
        accesses=accesses,
        flops_per_trip=2.0,
        divergence=0.3,
        work_group_threads=WORK_GROUP_THREADS,
        notes=("scalar CSR (one work-item per row)",),
    )
    return KernelVariant(
        name="scalar",
        ir=ir,
        executor=_executor,
        wa_factor=WORK_GROUP_THREADS // ROWS_PER_UNIT,
        work_group_size=WORK_GROUP_THREADS,
        description="serial dot product per row",
    )


def vector_variant(device_kind: str) -> KernelVariant:
    """SHOC's vector CSR kernel: one warp per row, scratchpad reduction.

    ``val``/``col`` strips are coalesced but padded to full warps, so the
    touched volume is ``32 × 8`` bytes per strip regardless of how few
    lanes are useful — the lane-waste mechanism behind Fig 11b.  On the
    CPU, the scratchpad reduction lowers to memory copies with no benefit
    (the paper's §4.4 observation).
    """
    loops = (
        Loop("wi_row", LoopBound(static_trips=ROWS_PER_UNIT), is_work_item_loop=True),
        Loop(
            "strip",
            LoopBound(
                evaluator=lambda args, ids: np.maximum(
                    _vector_strip_trips(args, ids) / ROWS_PER_UNIT, 1.0
                ),
                description="warp strips per row",
            ),
        ),
    )
    lane_bytes = float(VECTOR_LANES * 4)
    accesses = (
        MemoryAccess(
            "val",
            False,
            AccessPattern.COALESCED,
            lane_bytes,
            loop="strip",
            scope=("wi_row", "strip"),
            strides_by_loop=(("wi_row", GATHER_STRIDE), ("strip", 4)),
            footprint_hint=_nnz_footprint,
        ),
        MemoryAccess(
            "col",
            False,
            AccessPattern.COALESCED,
            lane_bytes,
            loop="strip",
            scope=("wi_row", "strip"),
            strides_by_loop=(("wi_row", GATHER_STRIDE), ("strip", 4)),
            footprint_hint=_nnz_footprint,
        ),
        MemoryAccess(
            "x",
            False,
            AccessPattern.GATHER,
            lane_bytes,
            loop="strip",
            scope=("wi_row", "strip"),
            strides_by_loop=(
                ("wi_row", GATHER_STRIDE),
                ("strip", GATHER_STRIDE),
            ),
            working_set_hint="x",
            footprint_hint=_x_footprint,
        ),
        MemoryAccess(
            "y",
            True,
            AccessPattern.COALESCED if device_kind == "gpu" else AccessPattern.UNIT_STRIDE,
            4.0,
            loop="wi_row",
            scope=("wi_row",),
            strides_by_loop=(("wi_row", 4), ("strip", 0)),
        ),
    )
    if device_kind == "cpu":
        # The CPU lowering has no real warps: every strip's 32-wide
        # multiply and tree reduction are serialized through the
        # scratchpad emulation (the "copy cost without any benefit" the
        # paper calls out in §4.4), and the code generator serializes two
        # work-groups per TBB task to keep task granularity sane (§5.2's
        # granularity tradeoff).
        flops_per_trip = 2.0 * VECTOR_LANES + 320.0
        wa_factor = 2
    else:
        # Each strip does 32 multiply-adds plus a 5-step tree reduction.
        flops_per_trip = 2.0 * VECTOR_LANES + 10.0
        wa_factor = 1
    ir = KernelIR(
        loops=loops,
        accesses=accesses,
        flops_per_trip=flops_per_trip,
        divergence=0.05,
        scratchpad_bytes=WORK_GROUP_THREADS * 4,
        uses_barrier=True,
        work_group_threads=WORK_GROUP_THREADS,
        notes=("vector CSR (one warp per row, scratchpad reduction)",),
    )
    return KernelVariant(
        name="vector",
        ir=ir,
        executor=_executor,
        wa_factor=wa_factor,
        work_group_size=WORK_GROUP_THREADS,
        description="warp-per-row dot product with scratchpad reduction",
    )


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------

_MATRIX_CACHE: Dict[Tuple[str, int, int], CsrMatrix] = {}


def get_matrix(
    kind: str, size: int, config: ReproConfig = DEFAULT_CONFIG
) -> CsrMatrix:
    """The evaluation's two inputs, cached per (kind, size, seed).

    ``kind`` is ``"random"`` (SHOC default, 1% density) or ``"diagonal"``.
    """
    key = (kind, size, config.seed)
    if key not in _MATRIX_CACHE:
        if kind == "random":
            _MATRIX_CACHE[key] = random_csr(size, size, 0.01, config)
        elif kind == "diagonal":
            _MATRIX_CACHE[key] = diagonal_csr(size)
        else:
            raise ValueError(f"unknown matrix kind {kind!r}")
    return _MATRIX_CACHE[key]


def make_args_factory(
    matrix: CsrMatrix, config: ReproConfig = DEFAULT_CONFIG
) -> Callable[[], Dict[str, object]]:
    """Argument factory binding a matrix and a fresh output vector."""
    rng = config.rng("spmv_x", matrix.label)
    x_data = rng.standard_normal(matrix.cols).astype(np.float32)

    def make_args() -> Dict[str, object]:
        return {
            "matrix": matrix,
            "val": Buffer("val", matrix.data, writable=False),
            "col": Buffer("col", matrix.indices, writable=False),
            "x": Buffer("x", x_data, writable=False),
            "y": Buffer("y", np.zeros(matrix.rows, dtype=np.float32)),
        }

    return make_args


def make_checker(matrix: CsrMatrix) -> Callable[[Mapping[str, object]], bool]:
    """Output validator against the reference multiply."""

    def check(args: Mapping[str, object]) -> bool:
        x = args["x"].data  # type: ignore[union-attr]
        y = args["y"].data  # type: ignore[union-attr]
        return bool(np.allclose(y, matrix.multiply(x), rtol=1e-4, atol=1e-4))

    return check


def workload_units(matrix: CsrMatrix) -> int:
    """Units (4-row blocks) of one launch over the whole matrix."""
    return (matrix.rows + ROWS_PER_UNIT - 1) // ROWS_PER_UNIT


# ----------------------------------------------------------------------
# Case-study pools
# ----------------------------------------------------------------------


def schedule_case(
    matrix_kind: str,
    size: int = 16384,
    config: ReproConfig = DEFAULT_CONFIG,
    iterations: int = 1,
) -> BenchmarkCase:
    """Case Study I (Fig 8): scalar kernel × {DFO, BFO} schedules on CPU.

    Two candidates, matching the paper's "2 schedules for spmv-csr".
    """
    matrix = get_matrix(matrix_kind, size, config)
    base = scalar_variant("cpu")
    dfo = reorder_loops(base, ("wi_r", "nnz"), label="DFO")
    bfo = reorder_loops(base, ("nnz", "wi_r"), label="BFO")
    pool = VariantPool(
        spec=KernelSpec(signature=spmv_signature()),
        variants=(dfo, bfo),
    )
    return BenchmarkCase(
        name=f"spmv-csr/cpu/schedules/{matrix_kind}",
        pool=pool,
        make_args=make_args_factory(matrix, config),
        workload_units=workload_units(matrix),
        iterations=iterations,
        check=make_checker(matrix),
        notes="Case Study I: LC scheduling, CPU",
    )


def placement_case(
    size: int = 16384,
    config: ReproConfig = DEFAULT_CONFIG,
    iterations: int = 1,
) -> BenchmarkCase:
    """Case Study II (Fig 9): scalar kernel × 4 placement policies on GPU.

    Three PORPLE policies (one per GPU generation) plus the Jang et al.
    rule-based policy, each produced by *running* the reimplemented
    heuristic — so the baseline selectors and the pool stay consistent.
    """
    matrix = get_matrix("random", size, config)
    make_args = make_args_factory(matrix, config)
    args = make_args()
    buffers = {
        name: args[name]
        for name in ("val", "col", "x")
    }
    base = scalar_variant("gpu")
    variants = []
    for generation in GpuGeneration:
        policy = porple_placement(base.ir, buffers, generation)
        placements = {
            name: space
            for name, space in policy.items()
            if space.value != "global"
        }
        if placements:
            variant = place(base, placements, label=f"porple-{generation.value}")
        else:
            variant = dataclasses.replace(
                base, name=f"{base.name},porple-{generation.value}"
            )
        variants.append(variant)
    jang_policy = jang_placement(base.ir, buffers)
    jang_placements = {
        name: space
        for name, space in jang_policy.items()
        if space.value != "global"
    }
    variants.append(place(base, jang_placements, label="jang"))
    pool = VariantPool(
        spec=KernelSpec(signature=spmv_signature()),
        variants=tuple(variants),
    )
    return BenchmarkCase(
        name="spmv-csr/gpu/placement/random",
        pool=pool,
        make_args=make_args,
        workload_units=workload_units(matrix),
        iterations=iterations,
        check=make_checker(matrix),
        notes="Case Study II: data placement, GPU",
    )


def input_dependent_case(
    device_kind: str,
    matrix_kind: str,
    size: int = 16384,
    config: ReproConfig = DEFAULT_CONFIG,
    iterations: int = 1,
) -> BenchmarkCase:
    """Case Study IV (Fig 11): scalar vs vector, per input matrix.

    On the CPU the candidates are additionally crossed with the DFO/BFO
    schedules (Fig 11a's four pure bars); on the GPU the two SHOC kernels
    compete directly (Fig 11b).
    """
    matrix = get_matrix(matrix_kind, size, config)
    if device_kind == "cpu":
        scalar = scalar_variant("cpu")
        vector = vector_variant("cpu")
        variants = (
            reorder_loops(scalar, ("wi_r", "nnz"), label="DFO"),
            reorder_loops(scalar, ("nnz", "wi_r"), label="BFO"),
            reorder_loops(vector, ("wi_row", "strip"), label="DFO"),
            reorder_loops(vector, ("strip", "wi_row"), label="BFO"),
        )
    elif device_kind == "gpu":
        variants = (scalar_variant("gpu"), vector_variant("gpu"))
    else:
        raise ValueError(f"unknown device kind {device_kind!r}")
    pool = VariantPool(
        spec=KernelSpec(signature=spmv_signature()),
        variants=variants,
    )
    return BenchmarkCase(
        name=f"spmv-csr/{device_kind}/scalar-vs-vector/{matrix_kind}",
        pool=pool,
        make_args=make_args_factory(matrix, config),
        workload_units=workload_units(matrix),
        iterations=iterations,
        check=make_checker(matrix),
        notes="Case Study IV: input-dependent selection",
    )
