"""Tests for the spmv-csr workload: correctness and paper-shape checks."""

import numpy as np
import pytest

from repro.config import ReproConfig
from repro.device import make_cpu, make_gpu
from repro.harness.runner import evaluate_case, run_pure
from repro.modes import ProfilingMode
from repro.workloads import spmv_csr
from repro.workloads.matrices import random_csr


@pytest.fixture(scope="module")
def config():
    return ReproConfig()


class TestFunctional:
    @pytest.mark.parametrize("device_kind", ["cpu", "gpu"])
    @pytest.mark.parametrize("kind", ["random", "diagonal"])
    def test_every_variant_correct(self, device_kind, kind, config):
        case = spmv_csr.input_dependent_case(device_kind, kind, 1024, config)
        device = make_cpu(config) if device_kind == "cpu" else make_gpu(config)
        for name in case.pool.variant_names:
            result = run_pure(case, device, name, config)
            assert result.valid, name

    def test_hybrid_mode_recommended(self, config):
        case = spmv_csr.input_dependent_case("gpu", "random", 1024, config)
        assert case.pool.mode is ProfilingMode.HYBRID

    def test_partial_tail_block(self, config):
        """A matrix whose rows don't divide the unit size still works."""
        from repro.workloads.matrices import diagonal_csr

        matrix = diagonal_csr(1022)  # not a multiple of 4
        args = spmv_csr.make_args_factory(matrix, config)()
        checker = spmv_csr.make_checker(matrix)
        units = spmv_csr.workload_units(matrix)
        variant = spmv_csr.scalar_variant("cpu")
        from repro.kernel import WorkRange

        variant.execute(args, WorkRange(0, units))
        assert checker(args)


class TestPaperShapes:
    def test_gpu_winner_flips_with_input(self, config):
        """Fig 11b: vector wins random, scalar wins diagonal."""
        gpu = make_gpu(config)
        random_case = spmv_csr.input_dependent_case("gpu", "random", 2048, config)
        diag_case = spmv_csr.input_dependent_case("gpu", "diagonal", 32768, config)
        rand = {
            name: run_pure(random_case, gpu, name, config).elapsed_cycles
            for name in random_case.pool.variant_names
        }
        diag = {
            name: run_pure(diag_case, gpu, name, config).elapsed_cycles
            for name in diag_case.pool.variant_names
        }
        assert rand["vector"] < rand["scalar"]
        assert diag["scalar"] < diag["vector"]
        # Magnitudes: catastrophic on diagonal, material on random.
        assert diag["vector"] / diag["scalar"] > 5.0
        assert rand["scalar"] / rand["vector"] > 1.5

    def test_cpu_schedule_flips_with_input(self, config):
        """Fig 11a: DFO wins random, BFO wins diagonal (scalar kernel)."""
        cpu = make_cpu(config)
        random_case = spmv_csr.schedule_case("random", 2048, config)
        diag_case = spmv_csr.schedule_case("diagonal", 32768, config)
        rand = {
            name: run_pure(random_case, cpu, name, config).elapsed_cycles
            for name in random_case.pool.variant_names
        }
        diag = {
            name: run_pure(diag_case, cpu, name, config).elapsed_cycles
            for name in diag_case.pool.variant_names
        }
        assert rand["scalar,DFO"] < rand["scalar,BFO"]
        assert diag["scalar,BFO"] < diag["scalar,DFO"]

    def test_dysel_selects_right_variant_per_input(self, config):
        gpu = make_gpu(config)
        for kind, size, expected in (
            ("random", 2048, "vector"),
            ("diagonal", 32768, "scalar"),
        ):
            case = spmv_csr.input_dependent_case(
                "gpu", kind, size, config, iterations=10
            )
            evaluation = evaluate_case(case, gpu, config, dysel_flows=("sync",))
            assert evaluation.dysel["sync"].selected == expected
            assert evaluation.dysel["sync"].valid
            overhead = evaluation.relative(evaluation.dysel["sync"])
            assert overhead < 1.10


class TestPlacementCase:
    def test_pool_has_four_policies(self, config):
        case = spmv_csr.placement_case(2048, config)
        assert len(case.pool.variants) == 4
        names = " ".join(case.pool.variant_names)
        assert "porple-fermi" in names
        assert "porple-kepler" in names
        assert "porple-maxwell" in names
        assert "jang" in names

    def test_fermi_policy_wins_on_kepler(self, config):
        """The paper's Fig 9 irony, reproduced."""
        gpu = make_gpu(config)
        case = spmv_csr.placement_case(4096, config)
        times = {
            name: run_pure(case, gpu, name, config).elapsed_cycles
            for name in case.pool.variant_names
        }
        best = min(times, key=times.get)
        assert "porple-fermi" in best
        worst = max(times, key=times.get)
        assert "jang" in worst


class TestMatrixCache:
    SIZE = 256

    def test_two_seeds_get_two_matrices(self):
        first = spmv_csr.get_matrix("random", self.SIZE, ReproConfig(seed=101))
        second = spmv_csr.get_matrix("random", self.SIZE, ReproConfig(seed=102))
        fresh = random_csr(self.SIZE, self.SIZE, 0.01, ReproConfig(seed=102))
        assert second is not first
        assert not np.array_equal(second.indices, first.indices)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(second, name), getattr(fresh, name))

    def test_same_seed_returns_the_cached_matrix(self):
        first = spmv_csr.get_matrix("random", self.SIZE, ReproConfig(seed=101))
        again = spmv_csr.get_matrix("random", self.SIZE, ReproConfig(seed=101))
        assert again is first
