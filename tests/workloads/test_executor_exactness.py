"""Executors compute whole unit ranges in array operations, bit for bit.

Each workload's executor is compared with its earlier body, kept here
verbatim as the reference (module constants are qualified by their
module, because stencil and cutcp both name ``UNIT_Y``/``UNIT_Z``).  The
earlier bodies made one Python call per stencil grid row, counted a
histogram range in one ``np.bincount`` and built full-size temporaries;
every output element must still come out with the same bits, so the
comparisons are on ``tobytes()`` (``np.array_equal`` treats ``-0.0`` and
``0.0`` as equal).  Float outputs start as NaN, so a cell an executor
does not write shows up.

The earlier spmv-csr and cutcp bodies dropped the last element of the
range's last non-empty segment when empty segments trailed it (their
reduceat indices were clipped into that segment).  The reference
therefore runs them on the input cut after the range's last non-empty
segment, where they are right, and expects zeros for the trailing empty
segments.

kmeans has two references: the body with full-size temporaries, and
the row-wise ``argmin`` body that came after it.  Ranges from
``kmeans.COLUMN_PASS_POINTS`` points on find the nearest centroid in one
pass per cluster, so they are also compared on inputs made of ties,
zeros, NaN and infinities, where ``argmin``'s first-index rule decides.
"""

import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.config import ReproConfig
from repro.kernel import Buffer
from repro.workloads import cutcp, histogram, kmeans, spmv_csr, spmv_jds, stencil
from repro.workloads.matrices import CsrMatrix, csr_to_jds

#: Replay locally with ``REPRO_CHAOS_SEED=<seed>`` (same convention as
#: the chaos suite; the CI flakiness job randomizes it).
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


# ----------------------------------------------------------------------
# The earlier executor bodies
# ----------------------------------------------------------------------


def _row_step(src, dst, z: int, y: int, nz: int, ny: int) -> None:
    """One output row; boundary cells copy through (Parboil's halo)."""
    if z == 0 or z == nz - 1 or y == 0 or y == ny - 1:
        dst[z, y, :] = src[z, y, :]
        return
    row = src[z, y, 1:-1]
    dst[z, y, 1:-1] = (
        stencil.C0 * row
        + stencil.C1
        * (
            src[z, y, :-2]
            + src[z, y, 2:]
            + src[z, y - 1, 1:-1]
            + src[z, y + 1, 1:-1]
            + src[z - 1, y, 1:-1]
            + src[z + 1, y, 1:-1]
        )
    )
    dst[z, y, 0] = src[z, y, 0]
    dst[z, y, -1] = src[z, y, -1]


def old_stencil(args, unit_start: int, unit_end: int) -> None:
    """Units are UNIT_Y×UNIT_Z row blocks in (z-block, y-block) order."""
    nx, ny, nz = args["grid"]
    src = args["a_in"].data
    dst = args["a_out"].data
    y_blocks = ny // stencil.UNIT_Y
    for unit in range(unit_start, unit_end):
        zb, yb = divmod(unit, y_blocks)
        for dz in range(stencil.UNIT_Z):
            for dy in range(stencil.UNIT_Y):
                _row_step(
                    src, dst, zb * stencil.UNIT_Z + dz, yb * stencil.UNIT_Y + dy, nz, ny
                )


def old_histogram(args, unit_start: int, unit_end: int) -> None:
    """Accumulate the unit range's elements into the shared histogram."""
    data = args["data"].data
    hist = args["hist"].data
    e0 = unit_start * histogram.ELEMS_PER_UNIT
    e1 = min(unit_end * histogram.ELEMS_PER_UNIT, len(data))
    if e0 >= e1:
        return
    hist += np.bincount(data[e0:e1], minlength=histogram.BINS).astype(hist.dtype)


def old_kmeans(args, unit_start: int, unit_end: int) -> None:
    """Assign each point in the unit range to its nearest centroid."""
    features = args["features"].data
    centroids = args["centroids"].data
    assign = args["assign"].data
    p0 = unit_start * kmeans.POINTS_PER_UNIT
    p1 = min(unit_end * kmeans.POINTS_PER_UNIT, features.shape[0])
    if p0 >= p1:
        return
    block = features[p0:p1]
    # Squared euclidean distances via the expansion trick.
    cross = block @ centroids.T
    c_norm = np.sum(centroids * centroids, axis=1)
    distances = c_norm[None, :] - 2.0 * cross
    assign[p0:p1] = np.argmin(distances, axis=1).astype(np.int32)


def argmin_kmeans(args, unit_start: int, unit_end: int) -> None:
    """Assign each point in the unit range to its nearest centroid."""
    features = args["features"].data
    centroids = args["centroids"].data
    assign = args["assign"].data
    p0 = unit_start * kmeans.POINTS_PER_UNIT
    p1 = min(unit_end * kmeans.POINTS_PER_UNIT, features.shape[0])
    if p0 >= p1:
        return
    # Squared euclidean distances via the expansion trick, computed in
    # the matmul's own result: |c|^2 - 2 x.c.
    distances = features[p0:p1] @ centroids.T
    distances *= 2.0
    np.subtract(np.sum(centroids * centroids, axis=1), distances, out=distances)
    assign[p0:p1] = np.argmin(distances, axis=1)


def old_spmv_csr(args, unit_start: int, unit_end: int) -> None:
    """Shared functional body: y[rows] = A[rows] · x (all variants agree)."""
    matrix = args["matrix"]
    r0 = unit_start * spmv_csr.ROWS_PER_UNIT
    r1 = min(unit_end * spmv_csr.ROWS_PER_UNIT, matrix.rows)
    if r0 >= r1:
        return
    val = args["val"].data
    col = args["col"].data
    x = args["x"].data
    y = args["y"].data
    lo = int(matrix.indptr[r0])
    hi = int(matrix.indptr[r1])
    if hi == lo:
        y[r0:r1] = 0.0
        return
    products = (val[lo:hi] * x[col[lo:hi]]).astype(np.float32)
    offsets = (matrix.indptr[r0:r1] - lo).astype(np.int64)
    lengths = np.diff(np.append(offsets, hi - lo))
    sums = np.add.reduceat(products, np.minimum(offsets, hi - lo - 1))
    # reduceat misbehaves for empty rows; mask them to zero.
    y[r0:r1] = np.where(lengths > 0, sums, 0.0).astype(np.float32)


def old_spmv_jds(args, unit_start: int, unit_end: int) -> None:
    """y[original rows] = A[sorted rows in range] · x."""
    matrix = args["matrix"]
    data = args["data"].data
    col = args["col"].data
    x = args["x"].data
    y = args["y"].data
    r0 = unit_start * spmv_jds.ROWS_PER_UNIT
    r1 = min(unit_end * spmv_jds.ROWS_PER_UNIT, matrix.rows)
    if r0 >= r1:
        return
    accum = np.zeros(r1 - r0, dtype=np.float32)
    max_nnz = int(matrix.row_nnz[r0]) if r0 < len(matrix.row_nnz) else 0
    for j in range(max_nnz):
        rows_in_diag = int(matrix.diag_rows[j])
        if rows_in_diag <= r0:
            break
        hi = min(rows_in_diag, r1)
        lo_off = int(matrix.diag_ptr[j])
        seg = slice(lo_off + r0, lo_off + hi)
        accum[: hi - r0] += (data[seg] * x[col[seg]]).astype(np.float32)
    y[matrix.perm[r0:r1]] = accum


def old_cutcp(args, unit_start: int, unit_end: int) -> None:
    """Accumulate potentials for the lattice points of the unit range."""
    geometry = args["geometry"]
    out = args["potential"].data
    points_per_unit = cutcp.UNIT_X * cutcp.UNIT_Y * cutcp.UNIT_Z
    p0 = unit_start * points_per_unit
    p1 = min(unit_end * points_per_unit, geometry.num_points)
    if p0 >= p1:
        return
    lo = int(geometry.point_ptr[p0])
    hi = int(geometry.point_ptr[p1])
    if hi == lo:
        out[p0:p1] = 0.0
        return
    offsets = (geometry.point_ptr[p0:p1] - lo).astype(np.int64)
    lengths = np.diff(np.append(offsets, hi - lo))
    sums = np.add.reduceat(
        geometry.contribution[lo:hi], np.minimum(offsets, hi - lo - 1)
    )
    out[p0:p1] = np.where(lengths > 0, sums, 0.0).astype(np.float32)


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def outputs_after(executor, make_args, unit_start: int, unit_end: int):
    """Run ``executor`` on fresh arguments; the bytes of every output."""
    args = make_args()
    executor(args, unit_start, unit_end)
    return {
        name: value.data.tobytes()
        for name, value in args.items()
        if isinstance(value, Buffer) and value.writable
    }


def assert_same_outputs(new, old, make_args, unit_start: int, unit_end: int):
    expected = outputs_after(old, make_args, unit_start, unit_end)
    assert outputs_after(new, make_args, unit_start, unit_end) == expected


def unit_range(draw, units: int, max_len: int = None):
    """A non-empty unit range inside ``[0, units)``."""
    start = draw(st.integers(min_value=0, max_value=units - 1))
    longest = units - start if max_len is None else min(units - start, max_len)
    return start, start + draw(st.integers(min_value=1, max_value=longest))


def rng_of(draw):
    return np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32)))


def live_end(ptr: np.ndarray, start: int, end: int) -> int:
    """End of the last non-empty segment in ``[start, end)`` (``end`` if
    every segment there is empty)."""
    live = np.flatnonzero(ptr[start + 1 : end + 1] > ptr[start:end])
    return start + int(live[-1]) + 1 if live.size else end


def segments(draw, count: int) -> np.ndarray:
    """``count + 1`` segment pointers; segments are often empty, and a
    run of empty ones often trails."""
    rng = rng_of(draw)
    lengths = rng.integers(0, draw(st.sampled_from([2, 5, 40])), size=count)
    lengths[rng.uniform(size=count) < draw(st.sampled_from([0.0, 0.3, 0.7]))] = 0
    trailing = draw(st.integers(min_value=0, max_value=count))
    lengths[count - trailing :] = 0
    ptr = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(lengths, out=ptr[1:])
    return ptr


# ----------------------------------------------------------------------
# stencil
# ----------------------------------------------------------------------


@st.composite
def stencil_inputs(draw):
    """Small grids (``ny``/``nz`` not always multiples of the unit) and
    ranges that cross z-block rows and touch every boundary plane."""
    nx = draw(st.integers(min_value=1, max_value=24))
    ny = draw(st.integers(min_value=stencil.UNIT_Y, max_value=4 * stencil.UNIT_Y + 3))
    nz = draw(st.integers(min_value=stencil.UNIT_Z, max_value=5 * stencil.UNIT_Z + 1))
    grid = (nx, ny, nz)
    a_in = rng_of(draw).standard_normal((nz, ny, nx)).astype(np.float32)

    def make_args():
        return {
            "grid": grid,
            "a_in": Buffer("a_in", a_in, writable=False),
            "a_out": Buffer("a_out", np.full_like(a_in, np.nan)),
        }

    return make_args, *unit_range(draw, stencil.workload_units(grid))


class TestStencil:
    @seed(CHAOS_SEED)
    @settings(max_examples=150, deadline=None)
    @given(inputs=stencil_inputs())
    def test_matches_the_row_by_row_body(self, inputs):
        make_args, start, end = inputs
        assert_same_outputs(stencil._executor, old_stencil, make_args, start, end)

    @pytest.mark.parametrize("grid", [(16, 20, 5), (256, 256, 32)])
    def test_whole_launch_in_uneven_pieces(self, grid):
        """Pieces of a launch together write what one call writes."""
        make_args = stencil.make_args_factory(grid, ReproConfig())
        units = stencil.workload_units(grid)
        whole = outputs_after(old_stencil, make_args, 0, units)
        args = make_args()
        cuts = sorted({0, 1, units // 3, min(units // 3 + 5, units), units - 1, units})
        for start, end in zip(cuts, cuts[1:]):
            stencil._executor(args, start, end)
        assert args["a_out"].data.tobytes() == whole["a_out"]


# ----------------------------------------------------------------------
# histogram
# ----------------------------------------------------------------------


@st.composite
def histogram_inputs(draw):
    """Ranges that are not multiples of the count chunk, int32 and int64
    data, and sometimes a value at or past ``BINS`` (or below zero) in
    the data; the histogram is sometimes wider than ``BINS``."""
    elems = draw(st.integers(min_value=1, max_value=3 * histogram.COUNT_CHUNK + 999))
    rng = rng_of(draw)
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    data = rng.integers(0, histogram.BINS, size=elems).astype(dtype)
    stray = draw(st.sampled_from([None, histogram.BINS, histogram.BINS + 7, -1]))
    if stray is not None:
        data[draw(st.integers(min_value=0, max_value=elems - 1))] = stray
    bins = draw(st.sampled_from([histogram.BINS, histogram.BINS + 8]))
    counts = rng.integers(0, 1000, size=bins)

    def make_args():
        return {
            "data": Buffer("data", data, writable=False),
            "hist": Buffer("hist", counts.copy()),
        }

    units = -(-elems // histogram.ELEMS_PER_UNIT)
    return make_args, *unit_range(draw, units)


def outcome(executor, make_args, unit_start: int, unit_end: int):
    """The exception type an executor raised (or None) and the output."""
    args = make_args()
    before = args["hist"].data.tobytes()
    try:
        executor(args, unit_start, unit_end)
    except Exception as exc:  # the type is what is compared
        assert args["hist"].data.tobytes() == before, "raised after writing"
        return type(exc), args["hist"].data.tobytes()
    return None, args["hist"].data.tobytes()


class TestHistogram:
    @seed(CHAOS_SEED)
    @settings(max_examples=150, deadline=None)
    @given(inputs=histogram_inputs())
    def test_matches_the_single_bincount_body(self, inputs):
        make_args, start, end = inputs
        expected = outcome(old_histogram, make_args, start, end)
        assert outcome(histogram._executor, make_args, start, end) == expected

    def test_a_value_past_the_bins_raises_untouched(self):
        data = np.zeros(3 * histogram.COUNT_CHUNK, dtype=np.int32)
        data[-1] = histogram.BINS
        args = {
            "data": Buffer("data", data, writable=False),
            "hist": Buffer("hist", np.zeros(histogram.BINS, dtype=np.int64)),
        }
        units = len(data) // histogram.ELEMS_PER_UNIT
        with pytest.raises(ValueError):
            histogram._executor(args, 0, units)
        assert not args["hist"].data.any()


# ----------------------------------------------------------------------
# kmeans
# ----------------------------------------------------------------------

#: 4,096 units of points and a partial last unit.
KMEANS_POINTS = 4096 * kmeans.POINTS_PER_UNIT + 5


@pytest.fixture(scope="module")
def kmeans_args():
    return kmeans.make_args_factory(KMEANS_POINTS, ReproConfig())


#: Units of the shortest range the executor assigns in cluster columns.
CROSSOVER_UNITS = -(-kmeans.COLUMN_PASS_POINTS // kmeans.POINTS_PER_UNIT)

#: Distance entries that ``argmin`` treats specially: equal values, both
#: zeros, NaN (the first one wins) and both infinities.
SPECIAL_DISTANCES = (0.0, -0.0, 1.0, 1.0, -1.0, 2.5, np.inf, -np.inf, np.nan)


@st.composite
def kmeans_inputs(draw):
    """Points and centroids that make tied, zero, NaN and infinite
    distances, and ranges on both sides of the column-pass crossover.

    Small integer coordinates make exact ties common; duplicated
    centroids tie every point; a NaN or infinite coordinate makes a NaN
    or infinite distance for its point (or, in a centroid, its whole
    cluster).  The last unit is sometimes partial, so a range of
    ``CROSSOVER_UNITS`` units can fall just short of the crossover.
    """
    rng = rng_of(draw)
    dtype = draw(st.sampled_from([np.float32, np.float32, np.float64]))
    clusters = draw(st.sampled_from([1, 2, 3, kmeans.CLUSTERS, 11]))
    dims = draw(st.sampled_from([1, 3, kmeans.FEATURES]))
    length = draw(
        st.sampled_from(
            [1, 7, CROSSOVER_UNITS - 1, CROSSOVER_UNITS, CROSSOVER_UNITS + 1]
        )
        | st.integers(min_value=1, max_value=3 * CROSSOVER_UNITS)
    )
    start = draw(st.integers(min_value=0, max_value=3))
    points = (start + length) * kmeans.POINTS_PER_UNIT - draw(
        st.sampled_from([0, 0, 1, kmeans.POINTS_PER_UNIT - 1])
    )
    if draw(st.booleans()):
        features = rng.integers(-2, 3, size=(points, dims)).astype(dtype)
        centroids = rng.integers(-2, 3, size=(clusters, dims)).astype(dtype)
    else:
        features = rng.standard_normal((points, dims)).astype(dtype)
        centroids = rng.standard_normal((clusters, dims)).astype(dtype)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        centroids[rng.integers(clusters)] = centroids[rng.integers(clusters)]
    share = draw(st.sampled_from([0.0, 0.01, 0.3]))
    for row in np.flatnonzero(rng.uniform(size=points) < share):
        value = draw(st.sampled_from([0.0, np.nan, np.inf, -np.inf]))
        if draw(st.booleans()):
            features[row] = value
        else:
            features[row, rng.integers(dims)] = value
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        centroids[rng.integers(clusters), rng.integers(dims)] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf])
        )

    def make_args():
        return {
            "features": Buffer("features", features, writable=False),
            "centroids": Buffer("centroids", centroids, writable=False),
            "assign": Buffer("assign", np.full(points, -1, dtype=np.int32)),
        }

    return make_args, start, start + length


class TestKmeans:
    @seed(CHAOS_SEED)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_the_temporaries_body(self, kmeans_args, data):
        units = kmeans.workload_units(KMEANS_POINTS)
        start, end = unit_range(data.draw, units, max_len=4096)
        assert_same_outputs(kmeans._executor, old_kmeans, kmeans_args, start, end)

    @seed(CHAOS_SEED)
    @settings(max_examples=200, deadline=None)
    @given(inputs=kmeans_inputs())
    def test_matches_the_row_argmin_body(self, inputs):
        make_args, start, end = inputs
        with np.errstate(invalid="ignore", over="ignore"):
            assert_same_outputs(
                kmeans._executor, argmin_kmeans, make_args, start, end
            )

    @pytest.mark.parametrize(
        "points", [kmeans.COLUMN_PASS_POINTS - 1, kmeans.COLUMN_PASS_POINTS]
    )
    def test_both_sides_of_the_crossover_run(self, points, monkeypatch):
        """Guard against vacuity: one point fewer keeps ``argmin``."""
        shapes = []

        def spy(columns, out):
            shapes.append(columns.shape)
            out[...] = np.argmin(columns, axis=0)

        monkeypatch.setattr(kmeans, "nearest_columns", spy)
        make_args = kmeans.make_args_factory(points, ReproConfig())
        kmeans._executor(make_args(), 0, kmeans.workload_units(points))
        columns = points >= kmeans.COLUMN_PASS_POINTS
        assert shapes == ([(kmeans.CLUSTERS, points)] if columns else [])

    @seed(CHAOS_SEED)
    @settings(max_examples=300, deadline=None)
    @given(
        columns=st.integers(min_value=1, max_value=9).flatmap(
            lambda clusters: st.lists(
                st.lists(
                    st.sampled_from(SPECIAL_DISTANCES),
                    min_size=clusters,
                    max_size=clusters,
                ),
                min_size=1,
                max_size=40,
            )
        ),
        dtype=st.sampled_from([np.float32, np.float64]),
    )
    def test_nearest_columns_is_the_first_argmin(self, columns, dtype):
        """Ties, ``-0.0 == 0.0``, NaN and infinite rows, bit for bit."""
        columns = np.ascontiguousarray(np.array(columns, dtype=dtype).T)
        out = np.full(columns.shape[1], -1, dtype=np.int32)
        kmeans.nearest_columns(columns, out)
        expected = np.argmin(columns, axis=0).astype(np.int32)
        assert out.tobytes() == expected.tobytes()


# ----------------------------------------------------------------------
# spmv-csr and spmv-jds
# ----------------------------------------------------------------------


@st.composite
def csr_matrices(draw):
    """Hand-built CSR matrices with empty rows, trailing ones included
    (``random_csr`` never makes an empty row)."""
    rows = draw(st.integers(min_value=1, max_value=70))
    cols = draw(st.integers(min_value=1, max_value=50))
    indptr = segments(draw, rows)
    rng = rng_of(draw)
    nnz = int(indptr[-1])
    matrix = CsrMatrix(
        indptr=indptr,
        indices=rng.integers(0, cols, size=nnz).astype(np.int32),
        data=rng.standard_normal(nnz).astype(np.float32),
        shape=(rows, cols),
    )
    return matrix, rng.standard_normal(cols).astype(np.float32)


def csr_args(matrix: CsrMatrix, x: np.ndarray):
    def make_args():
        return {
            "matrix": matrix,
            "val": Buffer("val", matrix.data, writable=False),
            "col": Buffer("col", matrix.indices, writable=False),
            "x": Buffer("x", x, writable=False),
            "y": Buffer("y", np.full(matrix.rows, np.nan, dtype=np.float32)),
        }

    return make_args


def cut_csr(matrix: CsrMatrix, rows: int) -> CsrMatrix:
    """The first ``rows`` rows of ``matrix``."""
    nnz = int(matrix.indptr[rows])
    return CsrMatrix(
        matrix.indptr[: rows + 1],
        matrix.indices[:nnz],
        matrix.data[:nnz],
        (rows, matrix.cols),
    )


def old_spmv_csr_defect_free(args, unit_start: int, unit_end: int) -> None:
    """The earlier body on the matrix cut after the range's last
    non-empty row, then zeros for the empty rows after it."""
    matrix = args["matrix"]
    r0 = unit_start * spmv_csr.ROWS_PER_UNIT
    r1 = min(unit_end * spmv_csr.ROWS_PER_UNIT, matrix.rows)
    end = live_end(matrix.indptr, r0, r1)
    old_spmv_csr({**args, "matrix": cut_csr(matrix, end)}, unit_start, unit_end)
    args["y"].data[end:r1] = 0.0


class TestSpmvCsr:
    @seed(CHAOS_SEED)
    @settings(max_examples=150, deadline=None)
    @given(inputs=csr_matrices(), data=st.data())
    def test_matches_the_masked_reduceat_body(self, inputs, data):
        matrix, x = inputs
        units = spmv_csr.workload_units(matrix)
        start, end = unit_range(data.draw, units)
        assert_same_outputs(
            spmv_csr._executor, old_spmv_csr_defect_free, csr_args(matrix, x),
            start, end,
        )

    def test_trailing_empty_rows_keep_every_product(self):
        """Row 0 holds 1, 2 and 4 and rows 1-3 are empty: the sum is 7
        (the earlier body read 3, dropping the row's last product)."""
        matrix = CsrMatrix(
            indptr=np.array([0, 3, 3, 3, 3]),
            indices=np.array([0, 1, 2], dtype=np.int32),
            data=np.array([1.0, 2.0, 4.0], dtype=np.float32),
            shape=(4, 3),
        )
        make_args = csr_args(matrix, np.ones(3, dtype=np.float32))
        args = make_args()
        spmv_csr._executor(args, 0, 1)
        assert args["y"].data.tolist() == [7.0, 0.0, 0.0, 0.0]
        old_args = make_args()
        old_spmv_csr(old_args, 0, 1)
        assert old_args["y"].data.tolist() == [3.0, 0.0, 0.0, 0.0]


class TestSpmvJds:
    @seed(CHAOS_SEED)
    @settings(max_examples=100, deadline=None)
    @given(inputs=csr_matrices(), data=st.data())
    def test_matches_the_per_diagonal_cast_body(self, inputs, data):
        csr, x = inputs
        matrix = csr_to_jds(csr)

        def make_args():
            return {
                "matrix": matrix,
                "data": Buffer("data", matrix.data, writable=False),
                "col": Buffer("col", matrix.indices, writable=False),
                "x": Buffer("x", x, writable=False),
                "y": Buffer("y", np.full(matrix.rows, np.nan, dtype=np.float32)),
            }

        units = -(-matrix.rows // spmv_jds.ROWS_PER_UNIT)
        start, end = unit_range(data.draw, units)
        assert_same_outputs(spmv_jds._executor, old_spmv_jds, make_args, start, end)


# ----------------------------------------------------------------------
# cutcp
# ----------------------------------------------------------------------

POINTS_PER_UNIT = cutcp.UNIT_X * cutcp.UNIT_Y * cutcp.UNIT_Z


@st.composite
def cutcp_inputs(draw):
    """A duck-typed geometry whose points often have no atom in range,
    trailing points included."""
    num_points = draw(st.integers(min_value=1, max_value=5 * POINTS_PER_UNIT))
    point_ptr = segments(draw, num_points)
    contribution = (
        rng_of(draw).standard_normal(int(point_ptr[-1])).astype(np.float32)
    )
    geometry = SimpleNamespace(
        point_ptr=point_ptr, contribution=contribution, num_points=num_points
    )

    def make_args():
        return {
            "geometry": geometry,
            "atoms": Buffer("atoms", np.zeros(1, dtype=np.float32), writable=False),
            "potential": Buffer(
                "potential", np.full(num_points, np.nan, dtype=np.float32)
            ),
        }

    return make_args, *unit_range(draw, -(-num_points // POINTS_PER_UNIT))


def old_cutcp_defect_free(args, unit_start: int, unit_end: int) -> None:
    """The earlier body on the geometry cut after the range's last point
    with an atom in range, then zeros for the points after it."""
    geometry = args["geometry"]
    p0 = unit_start * POINTS_PER_UNIT
    p1 = min(unit_end * POINTS_PER_UNIT, geometry.num_points)
    end = live_end(geometry.point_ptr, p0, p1)
    cut = SimpleNamespace(
        point_ptr=geometry.point_ptr[: end + 1],
        contribution=geometry.contribution,
        num_points=end,
    )
    old_cutcp({**args, "geometry": cut}, unit_start, unit_end)
    args["potential"].data[end:p1] = 0.0


class TestCutcp:
    @seed(CHAOS_SEED)
    @settings(max_examples=150, deadline=None)
    @given(inputs=cutcp_inputs())
    def test_matches_the_masked_reduceat_body(self, inputs):
        make_args, start, end = inputs
        assert_same_outputs(
            cutcp._executor, old_cutcp_defect_free, make_args, start, end
        )
