"""kmeans: cluster-assignment kernel (Rodinia).

Appears in Fig 8 (LC scheduling on CPU, 3 candidate schedules).  Each
work-item assigns one point to its nearest centroid; the loop nest over a
unit is (wi_p, c, d) — points, clusters, features.  Rodinia's kmeans is
iterative (assign, update, repeat), so DySel profiles the first iteration
only.

The 3 schedules match the paper's count for kmeans: the reduction over
``d`` cannot be hoisted outside the cluster loop it feeds, leaving
(wi_p, c, d), (c, wi_p, d) and (c, d, wi_p) as the legal interchange
family.  The last one strides through the feature matrix point-by-point —
the worst order (paper's ~2.95× bar).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Tuple

import numpy as np

from ..compiler.transforms.schedule import reorder_loops
from ..compiler.transforms.vectorize import auto_vectorize
from ..compiler.variants import VariantPool
from ..config import DEFAULT_CONFIG, ReproConfig
from ..kernel.buffers import Buffer
from ..kernel.ir import (
    AccessPattern,
    KernelIR,
    Loop,
    LoopBound,
    MemoryAccess,
)
from ..kernel.kernel import KernelSpec, KernelVariant
from ..kernel.signature import ArgSpec, KernelSignature
from .base import BenchmarkCase

#: Points per workload unit.
POINTS_PER_UNIT = 16
#: Feature dimensionality and cluster count (Rodinia-scale defaults).
FEATURES = 32
CLUSTERS = 8
#: Default point count.
DEFAULT_POINTS = 65536
#: Ranges of at least this many points find the nearest centroid in one
#: pass per cluster; smaller ones (profiling slices, eager chunks) keep
#: ``np.argmin``, whose fixed cost is lower.  ``argmin`` pays about 40 ns
#: per row; the crossover lay between 1,024 and 2,048 points on a 2-vCPU
#: x86 VM.
COLUMN_PASS_POINTS = 1536

#: The legal loop orders (see module docstring).
LEGAL_ORDERS: Tuple[Tuple[str, ...], ...] = (
    ("wi_p", "c", "d"),
    ("c", "wi_p", "d"),
    ("c", "d", "wi_p"),
)


def kmeans_signature() -> KernelSignature:
    """The kernel contract every kmeans variant implements."""
    return KernelSignature(
        "kmeans_assign",
        (
            ArgSpec("features"),
            ArgSpec("centroids"),
            ArgSpec("assign", is_output=True),
        ),
    )


def _executor(args: Mapping[str, object], unit_start: int, unit_end: int) -> None:
    """Assign each point in the unit range to its nearest centroid."""
    features = args["features"].data  # type: ignore[union-attr]
    centroids = args["centroids"].data  # type: ignore[union-attr]
    assign = args["assign"].data  # type: ignore[union-attr]
    p0 = unit_start * POINTS_PER_UNIT
    p1 = min(unit_end * POINTS_PER_UNIT, features.shape[0])
    if p0 >= p1:
        return
    # Squared euclidean distances via the expansion trick: |c|^2 - 2 x.c.
    distances = features[p0:p1] @ centroids.T
    c_norm = np.sum(centroids * centroids, axis=1)
    if p1 - p0 < COLUMN_PASS_POINTS:
        # Computed in the matmul's own result.
        distances *= 2.0
        np.subtract(c_norm, distances, out=distances)
        assign[p0:p1] = np.argmin(distances, axis=1)
        return
    # One row per cluster: the same two operations per element, written
    # transposed, so the nearest centroid takes a pass per cluster.
    columns = np.empty(distances.shape[::-1], distances.dtype)
    np.multiply(distances.T, 2.0, out=columns)
    np.subtract(c_norm[:, None], columns, out=columns)
    nearest_columns(columns, assign[p0:p1])


def nearest_columns(columns: np.ndarray, out: np.ndarray) -> None:
    """Write ``np.argmin(columns, axis=0)`` to ``out``, one pass per row.

    A point's index is the count of its leading clusters whose distance
    differs from its minimum: the first index of the minimum, as
    ``argmin`` takes it, ties and ``-0.0 == 0.0`` included.  A NaN
    minimum (``argmin`` returns the first NaN) falls back to ``argmin``.
    """
    minimum = np.minimum.reduce(columns)
    if np.isnan(minimum).any():
        out[...] = np.argmin(columns, axis=0)
        return
    differs = columns[0] != minimum
    out[...] = differs
    for column in columns[1:-1]:
        differs &= column != minimum
        out += differs


def base_variant() -> KernelVariant:
    """Rodinia's assignment kernel: one work-item per point."""
    row_bytes = 4 * FEATURES
    block_bytes = float(POINTS_PER_UNIT * row_bytes)
    table_bytes = float(CLUSTERS * row_bytes)
    loops = (
        Loop("wi_p", LoopBound(static_trips=POINTS_PER_UNIT), is_work_item_loop=True),
        Loop("c", LoopBound(static_trips=CLUSTERS)),
        Loop("d", LoopBound(static_trips=FEATURES)),
    )
    accesses = (
        MemoryAccess(
            "features",
            False,
            AccessPattern.UNIT_STRIDE,
            4.0,
            loop="d",
            scope=("wi_p", "c", "d"),
            strides_by_loop=(("wi_p", row_bytes), ("c", 0), ("d", 4)),
            footprint_hint=block_bytes,
        ),
        MemoryAccess(
            "centroids",
            False,
            AccessPattern.BROADCAST,
            4.0,
            loop="d",
            scope=("wi_p", "c", "d"),
            strides_by_loop=(("wi_p", 0), ("c", row_bytes), ("d", 4)),
            footprint_hint=table_bytes,
        ),
        MemoryAccess(
            "assign",
            True,
            AccessPattern.UNIT_STRIDE,
            4.0,
            loop="wi_p",
            scope=("wi_p",),
            strides_by_loop=(("wi_p", 4), ("c", 0), ("d", 0)),
        ),
    )
    ir = KernelIR(
        loops=loops,
        accesses=accesses,
        flops_per_trip=3.0,
        divergence=0.0,
        work_group_threads=64,
        notes=("kmeans assignment (one work-item per point)",),
    )
    return KernelVariant(
        name="assign",
        ir=ir,
        executor=_executor,
        wa_factor=1,
        work_group_size=64,
        description="nearest-centroid assignment",
    )


def make_args_factory(
    points: int = DEFAULT_POINTS, config: ReproConfig = DEFAULT_CONFIG
) -> Callable[[], Dict[str, object]]:
    """Argument factory with fixed random points/centroids."""
    rng = config.rng("kmeans", points)
    features = rng.standard_normal((points, FEATURES)).astype(np.float32)
    centroids = rng.standard_normal((CLUSTERS, FEATURES)).astype(np.float32)

    def make_args() -> Dict[str, object]:
        return {
            "features": Buffer("features", features, writable=False),
            "centroids": Buffer("centroids", centroids, writable=False),
            "assign": Buffer("assign", np.full(points, -1, dtype=np.int32)),
        }

    return make_args


def make_checker(points: int = DEFAULT_POINTS, config: ReproConfig = DEFAULT_CONFIG):
    """Output validator against a vectorized argmin reference."""
    return _checker(make_args_factory(points, config)())


def _checker(inputs: Mapping[str, object]):
    """Validator for the points and centroids an argument factory drew."""
    features = inputs["features"].data  # type: ignore[union-attr]
    centroids = inputs["centroids"].data  # type: ignore[union-attr]
    cross = features @ centroids.T
    c_norm = np.sum(centroids * centroids, axis=1)
    expected = np.argmin(c_norm[None, :] - 2.0 * cross, axis=1)

    def check(args: Mapping[str, object]) -> bool:
        assign = args["assign"].data  # type: ignore[union-attr]
        return bool(np.array_equal(assign, expected))

    return check


def workload_units(points: int = DEFAULT_POINTS) -> int:
    """Point blocks of one launch."""
    return (points + POINTS_PER_UNIT - 1) // POINTS_PER_UNIT


def schedule_family(points: int = DEFAULT_POINTS) -> List:
    """(order, variant) pairs for the 3 legal schedules."""
    base = base_variant()
    family = []
    for order in LEGAL_ORDERS:
        label = ">".join(order)
        family.append(
            (order, auto_vectorize(reorder_loops(base, order, label=label)))
        )
    return family


def schedule_case(
    points: int = DEFAULT_POINTS,
    config: ReproConfig = DEFAULT_CONFIG,
    iterations: int = 1,
) -> BenchmarkCase:
    """Fig 8: the 3 legal loop orders on the CPU."""
    make_args = make_args_factory(points, config)
    variants = tuple(variant for _, variant in schedule_family(points))
    pool = VariantPool(
        spec=KernelSpec(signature=kmeans_signature()),
        variants=variants,
    )
    return BenchmarkCase(
        name="kmeans/cpu/schedules",
        pool=pool,
        make_args=make_args,
        workload_units=workload_units(points),
        iterations=iterations,
        check=_checker(make_args()),
        notes="Case Study I: LC scheduling, CPU",
    )
