"""Tests for the cutcp workload."""

import numpy as np
import pytest

from repro.config import ReproConfig
from repro.device import make_cpu, make_gpu
from repro.harness.runner import run_pure
from repro.modes import ProfilingMode
from repro.workloads import cutcp

LATTICE = (32, 32, 8)
ATOMS = 2000


@pytest.fixture(scope="module")
def config():
    return ReproConfig()


@pytest.fixture(scope="module")
def geometry(config):
    return cutcp.get_geometry(LATTICE, ATOMS, config)


class TestFunctional:
    def test_reference_matches_executor(self, geometry, config):
        from repro.kernel import WorkRange

        args = cutcp.make_args_factory(geometry)()
        variant = cutcp.base_variant("cpu")
        variant.execute(args, WorkRange(0, cutcp.workload_units(geometry)))
        assert cutcp.make_checker(geometry)(args)

    @pytest.mark.parametrize("device_kind", ["cpu", "gpu"])
    def test_mixed_variants_correct(self, device_kind, config, geometry):
        case = cutcp.mixed_case(device_kind, LATTICE, ATOMS, config)
        device = make_cpu(config) if device_kind == "cpu" else make_gpu(config)
        for name in case.pool.variant_names:
            assert run_pure(case, device, name, config).valid, name

    def test_sixty_legal_schedules(self):
        assert len(cutcp.legal_orders()) == 60
        for order in cutcp.legal_orders():
            assert order.index("bin") < order.index("atom")

    def test_static_bounds_fully_productive(self, config):
        case = cutcp.mixed_case("gpu", LATTICE, ATOMS, config)
        assert case.pool.mode is ProfilingMode.FULLY


class TestPaperShapes:
    def test_tiling_asymmetry(self, config, geometry):
        # The default lattice: large enough that the coarsened variant
        # fills the device (toy lattices leave SMs idle in the tail).
        cpu, gpu = make_cpu(config), make_gpu(config)
        cpu_case = cutcp.mixed_case("cpu", config=config)
        gpu_case = cutcp.mixed_case("gpu", config=config)
        cpu_times = {
            name: run_pure(cpu_case, cpu, name, config).elapsed_cycles
            for name in cpu_case.pool.variant_names
        }
        gpu_times = {
            name: run_pure(gpu_case, gpu, name, config).elapsed_cycles
            for name in gpu_case.pool.variant_names
        }
        cpu_best = min(cpu_times, key=cpu_times.get)
        gpu_best = min(gpu_times, key=gpu_times.get)
        assert "tiled" not in cpu_best
        assert "tiled" in gpu_best


class TestGeometryCache:
    LATTICE = (8, 8, 4)
    ATOMS = 200

    def test_two_seeds_get_two_geometries(self):
        first = cutcp.get_geometry(self.LATTICE, self.ATOMS, ReproConfig(seed=101))
        second = cutcp.get_geometry(
            self.LATTICE, self.ATOMS, ReproConfig(seed=102)
        )
        fresh = cutcp._Geometry(self.LATTICE, self.ATOMS, ReproConfig(seed=102))
        assert second is not first
        assert not np.array_equal(second.contribution, first.contribution)
        assert np.array_equal(second.contribution, fresh.contribution)
        assert np.array_equal(second.point_ptr, fresh.point_ptr)

    def test_same_seed_returns_the_cached_geometry(self):
        first = cutcp.get_geometry(self.LATTICE, self.ATOMS, ReproConfig(seed=101))
        again = cutcp.get_geometry(self.LATTICE, self.ATOMS, ReproConfig(seed=101))
        assert again is first
