"""Sparse matrix substrate: CSR and JDS formats, evaluation inputs.

The evaluation's input-dependent experiments hinge on two matrices
(paper §4.1, §4.4):

* a **random** sparse matrix (SHOC's default: uniformly random nonzeros,
  ~1% density) whose rows hold many scattered nonzeros — in-kernel loops
  run long and the dense-vector gather has poor locality;
* a **diagonal** (banded) matrix with a single nonzero per row — in-kernel
  loops run once and the gather is perfectly local.

Besides CSR, spmv-jds uses the JDS (jagged diagonal) format Parboil's
benchmark employs: rows sorted by length and stored diagonal-major so
work-items can stream column slices.

Block statistics (per-block nnz sums/maxima, column spans) are what the
IR's data-dependent evaluators read; they are precomputed once per
(matrix, block size) and cached on the matrix object.

Matrices are frozen: the dataclasses cannot be rebound and their arrays
are made read-only at construction, so a matrix bound to a launch is a
fixed input whose price the cost model may reuse (see
:func:`repro.kernel.buffers.frozen_record`).  The block-statistics cache
fills in later but derives from the frozen arrays, so it is marked
``DERIVED``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Tuple

import numpy as np

from ..config import DEFAULT_CONFIG, ReproConfig
from ..errors import WorkloadError
from ..kernel.buffers import DERIVED


def _freeze_arrays(record: object) -> None:
    """Clear the ``writeable`` flag of every array field of ``record``."""
    for item in fields(record):
        value = getattr(record, item.name)
        if isinstance(value, np.ndarray):
            value.setflags(write=False)


def segment_sums(values: np.ndarray, ptr: np.ndarray, out: np.ndarray) -> None:
    """``out[i] = sum(values[ptr[i] - ptr[0] : ptr[i + 1] - ptr[0]])``.

    One ``np.add.reduceat`` over the segments that start inside
    ``values`` sets the output bits; empty segments, to which reduceat
    would hand a neighbour's element, are zeroed in place.
    """
    starts = ptr[:-1] - ptr[0]
    live = int(np.searchsorted(starts, len(values)))
    out[:live] = np.add.reduceat(values, starts[:live])
    out[ptr[1:] == ptr[:-1]] = 0.0


@dataclass(frozen=True)
class BlockStats:
    """Per-block row statistics driving data-dependent IR evaluators."""

    rows_per_block: int
    #: Total nonzeros per block.
    nnz_sum: np.ndarray
    #: Maximum row length per block.
    nnz_max: np.ndarray
    #: Mean row length per block.
    nnz_mean: np.ndarray
    #: Byte span of the dense-vector columns a block touches (gather
    #: locality: tiny for banded matrices, ~the whole vector for random).
    x_span_bytes: np.ndarray

    def __post_init__(self) -> None:
        _freeze_arrays(self)


@dataclass(frozen=True)
class CsrMatrix:
    """Compressed-sparse-row matrix (float32 data, int32 indices)."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: Tuple[int, int]
    label: str = "csr"
    _stats: Dict[int, BlockStats] = field(
        default_factory=dict, repr=False, metadata={DERIVED: True}
    )

    def __post_init__(self) -> None:
        rows, _cols = self.shape
        if len(self.indptr) != rows + 1:
            raise WorkloadError(
                f"matrix {self.label!r}: indptr length {len(self.indptr)} "
                f"!= rows + 1 ({rows + 1})"
            )
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.indices):
            raise WorkloadError(f"matrix {self.label!r}: malformed indptr")
        if len(self.indices) != len(self.data):
            raise WorkloadError(
                f"matrix {self.label!r}: indices/data length mismatch"
            )
        _freeze_arrays(self)

    @property
    def rows(self) -> int:
        """Number of rows."""
        return self.shape[0]

    @property
    def cols(self) -> int:
        """Number of columns."""
        return self.shape[1]

    @property
    def nnz(self) -> int:
        """Number of stored nonzeros."""
        return int(len(self.data))

    @property
    def row_nnz(self) -> np.ndarray:
        """Row lengths."""
        return np.diff(self.indptr)

    def multiply(self, x: np.ndarray) -> np.ndarray:
        """Reference y = A·x (float32)."""
        y = np.zeros(self.rows, dtype=np.float32)
        # Segmented reduction; float32 accumulation matches the kernels.
        products = self.data * x[self.indices]
        row_ids = np.repeat(
            np.arange(self.rows), self.row_nnz.astype(np.int64)
        )
        np.add.at(y, row_ids, products.astype(np.float32))
        return y

    def block_stats(self, rows_per_block: int) -> BlockStats:
        """Per-block statistics for ``rows_per_block``-row blocks (cached)."""
        if rows_per_block < 1:
            raise WorkloadError(
                f"rows_per_block must be >= 1, got {rows_per_block}"
            )
        cached = self._stats.get(rows_per_block)
        if cached is not None:
            return cached
        rows = self.rows
        num_blocks = (rows + rows_per_block - 1) // rows_per_block
        row_nnz = self.row_nnz.astype(np.int64)
        nnz_sum = np.zeros(num_blocks, dtype=np.int64)
        nnz_max = np.zeros(num_blocks, dtype=np.int64)
        x_span = np.zeros(num_blocks, dtype=np.int64)
        starts = np.arange(num_blocks) * rows_per_block
        boundaries = self.indptr[
            np.minimum(np.arange(num_blocks + 1) * rows_per_block, rows)
        ]
        nnz_sum = np.diff(boundaries)
        for block in range(num_blocks):
            lo = starts[block]
            hi = min(lo + rows_per_block, rows)
            lengths = row_nnz[lo:hi]
            nnz_max[block] = int(lengths.max()) if lengths.size else 0
            cols = self.indices[self.indptr[lo] : self.indptr[hi]]
            if cols.size:
                x_span[block] = (int(cols.max()) - int(cols.min()) + 1) * 4
        stats = BlockStats(
            rows_per_block=rows_per_block,
            nnz_sum=nnz_sum.astype(float),
            nnz_max=nnz_max.astype(float),
            nnz_mean=nnz_sum / max(1, rows_per_block),
            x_span_bytes=x_span.astype(float),
        )
        self._stats[rows_per_block] = stats
        return stats


@dataclass(frozen=True)
class JdsMatrix:
    """Jagged-diagonal-storage matrix (Parboil's spmv-jds layout).

    Rows are sorted by decreasing length; the j-th nonzeros of all rows
    form one "jagged diagonal" stored contiguously, so consecutive rows'
    j-th elements are adjacent in memory.
    """

    #: Row permutation: jds row r corresponds to original row perm[r].
    perm: np.ndarray
    #: Start offset of each jagged diagonal in data/indices.
    diag_ptr: np.ndarray
    #: Rows participating in each diagonal (non-increasing).
    diag_rows: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: Tuple[int, int]
    #: Sorted row lengths (per jds row).
    row_nnz: np.ndarray
    label: str = "jds"

    def __post_init__(self) -> None:
        _freeze_arrays(self)

    @property
    def rows(self) -> int:
        """Number of rows."""
        return self.shape[0]

    @property
    def max_row_nnz(self) -> int:
        """Longest row (number of jagged diagonals)."""
        return int(self.row_nnz[0]) if len(self.row_nnz) else 0

    def multiply(self, x: np.ndarray) -> np.ndarray:
        """Reference y = A·x in the original row order."""
        y_sorted = np.zeros(self.rows, dtype=np.float32)
        for j in range(len(self.diag_ptr) - 1):
            lo, hi = int(self.diag_ptr[j]), int(self.diag_ptr[j + 1])
            count = hi - lo
            y_sorted[:count] += (
                self.data[lo:hi] * x[self.indices[lo:hi]]
            ).astype(np.float32)
        y = np.zeros(self.rows, dtype=np.float32)
        y[self.perm] = y_sorted
        return y


def csr_to_jds(matrix: CsrMatrix) -> JdsMatrix:
    """Convert CSR to JDS (sort rows by length, store diagonal-major)."""
    row_nnz = matrix.row_nnz.astype(np.int64)
    perm = np.argsort(-row_nnz, kind="stable")
    sorted_nnz = row_nnz[perm]
    max_nnz = int(sorted_nnz[0]) if len(sorted_nnz) else 0

    diag_ptr = [0]
    data_parts = []
    index_parts = []
    diag_rows = []
    for j in range(max_nnz):
        participating = int(np.searchsorted(-sorted_nnz, -(j + 1), side="right"))
        diag_rows.append(participating)
        rows = perm[:participating]
        offsets = matrix.indptr[rows] + j
        data_parts.append(matrix.data[offsets])
        index_parts.append(matrix.indices[offsets])
        diag_ptr.append(diag_ptr[-1] + participating)
    return JdsMatrix(
        perm=perm,
        diag_ptr=np.asarray(diag_ptr, dtype=np.int64),
        diag_rows=np.asarray(diag_rows, dtype=np.int64),
        indices=(
            np.concatenate(index_parts)
            if index_parts
            else np.zeros(0, dtype=matrix.indices.dtype)
        ),
        data=(
            np.concatenate(data_parts)
            if data_parts
            else np.zeros(0, dtype=matrix.data.dtype)
        ),
        shape=matrix.shape,
        row_nnz=sorted_nnz,
        label=f"{matrix.label}-jds",
    )


def random_csr(
    rows: int = 4096,
    cols: int = 4096,
    density: float = 0.01,
    config: ReproConfig = DEFAULT_CONFIG,
) -> CsrMatrix:
    """SHOC-style random sparse matrix (default 1% density).

    The paper uses 16k×16k; the default here is 4k×4k to keep simulation
    fast — same regime (long rows, whole-vector gather working set).
    Experiments that need the paper's exact size pass ``rows=cols=16384``.
    """
    if not 0 < density <= 1:
        raise WorkloadError(f"density must be in (0, 1], got {density}")
    rng = config.rng("random_csr", rows, cols, density)
    per_row = rng.binomial(cols, density, size=rows).astype(np.int64)
    per_row = np.maximum(per_row, 1)
    indptr = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(per_row, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int32)
    bounds = indptr.tolist()
    for r in range(rows):
        lo, hi = bounds[r], bounds[r + 1]
        row = rng.choice(cols, size=hi - lo, replace=False)
        row.sort()
        indices[lo:hi] = row
    data = rng.standard_normal(indptr[-1]).astype(np.float32)
    return CsrMatrix(
        indptr=indptr,
        indices=indices,
        data=data,
        shape=(rows, cols),
        label=f"random{rows}x{cols}@{density}",
    )


def banded_random_csr(
    rows: int = 8192,
    density: float = 0.01,
    config: ReproConfig = DEFAULT_CONFIG,
) -> CsrMatrix:
    """Half random, half diagonal: a heterogeneous matrix.

    The top half has SHOC-random rows (many scattered nonzeros, the
    vector kernel's regime); the bottom half is a diagonal band (single
    nonzeros, the scalar kernel's regime).  No single pure variant is
    best everywhere — the input the paper's future-work *mixed execution*
    idea (§4.1) is about.
    """
    half = rows // 2
    top = random_csr(half, rows, density, config)
    indptr = np.concatenate(
        [top.indptr, top.indptr[-1] + np.arange(1, rows - half + 1)]
    ).astype(np.int64)
    indices = np.concatenate(
        [top.indices, np.arange(half, rows, dtype=np.int32)]
    )
    data = np.concatenate(
        [top.data, np.full(rows - half, 2.0, dtype=np.float32)]
    )
    return CsrMatrix(
        indptr=indptr,
        indices=indices,
        data=data,
        shape=(rows, rows),
        label=f"banded-random{rows}@{density}",
    )


def diagonal_csr(rows: int = 262144) -> CsrMatrix:
    """Diagonal matrix: one nonzero per row (the paper's 2M case).

    Defaults to 256k rows for simulation speed; the locality regime (one
    trip per row, perfectly banded gather) is size-independent.
    """
    indptr = np.arange(rows + 1, dtype=np.int64)
    indices = np.arange(rows, dtype=np.int32)
    data = np.full(rows, 2.0, dtype=np.float32)
    return CsrMatrix(
        indptr=indptr,
        indices=indices,
        data=data,
        shape=(rows, rows),
        label=f"diagonal{rows}",
    )
