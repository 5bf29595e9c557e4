"""Tests for the spmv-jds workload."""

import os

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.compiler.heuristics.lc import lc_select_schedule
from repro.config import ReproConfig
from repro.device import make_cpu, make_gpu
from repro.harness.runner import run_pure
from repro.modes import ProfilingMode
from repro.workloads import spmv_jds
from repro.workloads.matrices import JdsMatrix
from repro.workloads.spmv_jds import ROWS_PER_UNIT

SIZE = 1024

#: Replay locally with ``REPRO_CHAOS_SEED=<seed>`` (same convention as
#: the chaos suite; the CI flakiness job randomizes it).
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


@pytest.fixture(scope="module")
def config():
    return ReproConfig()


class TestFunctional:
    def test_schedule_variants_correct(self, config):
        case = spmv_jds.schedule_case(SIZE, config)
        cpu = make_cpu(config)
        for name in case.pool.variant_names:
            assert run_pure(case, cpu, name, config).valid, name

    @pytest.mark.parametrize("device_kind", ["cpu", "gpu"])
    def test_mixed_variants_correct(self, device_kind, config):
        case = spmv_jds.mixed_case(device_kind, SIZE, config)
        device = make_cpu(config) if device_kind == "cpu" else make_gpu(config)
        for name in case.pool.variant_names:
            assert run_pure(case, device, name, config).valid, name

    def test_irregular_kernel_is_hybrid(self, config):
        assert (
            spmv_jds.schedule_case(SIZE, config).pool.mode
            is ProfilingMode.HYBRID
        )

    def test_version_counts_match_paper(self, config):
        assert len(spmv_jds.mixed_case("cpu", SIZE, config).pool.variants) == 2
        assert len(spmv_jds.mixed_case("gpu", SIZE, config).pool.variants) == 4


class TestPaperShapes:
    def test_bfo_wins_and_lc_agrees(self, config):
        """JDS is built for row-major streaming: BFO wins, LC knows it."""
        case = spmv_jds.schedule_case(SIZE, config)
        cpu = make_cpu(config)
        times = {
            name: run_pure(case, cpu, name, config).elapsed_cycles
            for name in case.pool.variant_names
        }
        assert times["base,BFO"] < times["base,DFO"]
        assert lc_select_schedule(
            spmv_jds.schedule_family(SIZE, config)
        ).name.endswith("BFO")

    def test_gpu_texture_best_up_redundant(self, config):
        """Fig 10b's spmv-jds: texture-only best; unroll+prefetch on top
        slightly worse; base worst."""
        case = spmv_jds.mixed_case("gpu", 2048, config)
        gpu = make_gpu(config)
        times = {
            name: run_pure(case, gpu, name, config).elapsed_cycles
            for name in case.pool.variant_names
        }
        assert min(times, key=times.get) == "base,texture"
        combo = times["base,unroll2,prefetch,texture"]
        assert combo / times["base,texture"] < 1.05  # near-tie (paper 0.8%)
        assert times["base"] == max(times.values())

    def test_cpu_base_beats_gpu_port(self, config):
        case = spmv_jds.mixed_case("cpu", SIZE, config)
        cpu = make_cpu(config)
        times = {
            name: run_pure(case, cpu, name, config).elapsed_cycles
            for name in case.pool.variant_names
        }
        assert times["base"] < times["gpu-port"]
        assert times["gpu-port"] / times["base"] > 3.0


def reference_diag_trips(args, unit_ids):
    """Mean nonzeros per row unit by unit, one ``np.mean`` each."""
    matrix = args["matrix"]
    sums = np.zeros(len(unit_ids))
    for index, unit in enumerate(np.asarray(unit_ids)):
        lo = int(unit) * ROWS_PER_UNIT
        hi = min(lo + ROWS_PER_UNIT, matrix.rows)
        sums[index] = float(np.mean(matrix.row_nnz[lo:hi])) if hi > lo else 0.0
    return np.maximum(sums, 1.0)


def matrix_with_row_nnz(row_nnz):
    """A JDS matrix carrying only the row lengths the evaluator reads."""
    rows = len(row_nnz)
    empty = np.zeros(0, dtype=np.int64)
    return JdsMatrix(
        perm=np.arange(rows),
        diag_ptr=empty,
        diag_rows=empty,
        indices=empty,
        data=np.zeros(0, dtype=np.float32),
        shape=(rows, rows),
        row_nnz=row_nnz,
    )


@st.composite
def diag_trip_inputs(draw):
    """Sorted row lengths of any count (partial last unit included),
    with consecutive or scattered unit ids that may repeat or run past
    the last row."""
    rows = draw(st.integers(min_value=1, max_value=6 * ROWS_PER_UNIT))
    high = draw(st.sampled_from([1, 3, 40, 5000, 1 << 20]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32)))
    row_nnz = -np.sort(-rng.integers(0, high, size=rows))
    row_nnz = row_nnz.astype(draw(st.sampled_from([np.int32, np.int64])))
    units = -(-rows // ROWS_PER_UNIT)
    if draw(st.booleans()):
        start = draw(st.integers(min_value=0, max_value=units + 1))
        count = draw(st.integers(min_value=0, max_value=units + 2))
        unit_ids = np.arange(start, start + count, dtype=np.int64)
    else:
        unit_ids = np.array(
            draw(st.lists(st.integers(min_value=0, max_value=units + 2), max_size=12)),
            dtype=np.int64,
        )
    return {"matrix": matrix_with_row_nnz(row_nnz)}, unit_ids


class TestDiagTrips:
    @seed(CHAOS_SEED)
    @settings(max_examples=150, deadline=None)
    @given(inputs=diag_trip_inputs())
    def test_matches_the_per_unit_loop_exactly(self, inputs):
        args, unit_ids = inputs
        trips = spmv_jds._diag_trips(args, unit_ids)
        expected = reference_diag_trips(args, unit_ids)
        assert trips.shape == expected.shape
        assert (trips == expected).all()

    def test_pool_matrices_match_the_per_unit_loop(self, config):
        """Every unit of the matrices the pools and replays build."""
        for size in (512, 1000, SIZE, 8192):
            args = {"matrix": spmv_jds.get_matrix(size, config)}
            unit_ids = np.arange(spmv_jds.workload_units(args["matrix"]) + 2)
            expected = reference_diag_trips(args, unit_ids)
            assert (spmv_jds._diag_trips(args, unit_ids) == expected).all()
