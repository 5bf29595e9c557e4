"""End-to-end integration scenarios across the whole stack."""

import numpy as np
import pytest

from repro import (
    DySelContext,
    DySelRuntime,
    ReproConfig,
    make_cpu,
    make_gpu,
)
from repro.kernel import AccessPattern
from repro.workloads import spmv_csr
from tests.conftest import (
    axpy_output_ok,
    axpy_signature,
    make_axpy_args,
    make_axpy_variant,
)


class TestMultiKernelApplication:
    """An application with two independent kernels: selections and caches
    must not interfere."""

    def _runtime(self, cpu, config):
        from repro.compiler.variants import VariantPool
        from repro.kernel import KernelSignature, ArgSpec
        from repro.kernel.kernel import KernelSpec
        import dataclasses

        runtime = DySelRuntime(cpu, config)
        pool_a = VariantPool(
            spec=KernelSpec(signature=axpy_signature()),
            variants=(
                make_axpy_variant("fast"),
                make_axpy_variant("slow", AccessPattern.STRIDED),
            ),
        )
        sig_b = KernelSignature(
            "axpy2", (ArgSpec("x"), ArgSpec("y", is_output=True))
        )
        pool_b = VariantPool(
            spec=KernelSpec(signature=sig_b),
            variants=(
                dataclasses.replace(
                    make_axpy_variant("slow2", AccessPattern.STRIDED),
                ),
                dataclasses.replace(make_axpy_variant("fast2")),
            ),
        )
        runtime.register_pool(pool_a)
        runtime.register_pool(pool_b)
        return runtime

    def test_independent_selections(self, cpu, config):
        runtime = self._runtime(cpu, config)
        args_a = make_axpy_args(512, config)
        args_b = make_axpy_args(512, config)
        result_a = runtime.launch_kernel("axpy", args_a, 512)
        result_b = runtime.launch_kernel("axpy2", args_b, 512)
        assert result_a.selected == "fast"
        assert result_b.selected == "fast2"
        assert axpy_output_ok(args_a)
        assert axpy_output_ok(args_b)
        # Caches are per-kernel.
        assert runtime.cache.lookup("axpy").selected == "fast"
        assert runtime.cache.lookup("axpy2").selected == "fast2"

    def test_cache_invalidation_triggers_reprofile(self, cpu, config):
        runtime = self._runtime(cpu, config)
        args = make_axpy_args(512, config)
        runtime.launch_kernel("axpy", args, 512)
        runtime.cache.invalidate("axpy")
        result = runtime.launch_kernel("axpy", args, 512, profiling=False)
        # No cache: falls back to the pool default without profiling.
        assert not result.profiled
        assert result.selected == "fast"


class TestCrossDevice:
    def test_same_pool_both_devices(self, config, axpy_spec):
        """One pool can serve runtimes on different devices; each profiles
        its own device.  COALESCED beats STRIDED on both device models."""
        from repro.compiler.variants import VariantPool

        pool = VariantPool(
            spec=axpy_spec,
            variants=(
                make_axpy_variant("fast", AccessPattern.COALESCED),
                make_axpy_variant(
                    "slow", AccessPattern.STRIDED, stride_bytes=256
                ),
            ),
        )
        for device in (make_cpu(config), make_gpu(config)):
            runtime = DySelRuntime(device, config)
            runtime.register_pool(pool)
            args = make_axpy_args(512, config)
            result = runtime.launch_kernel("axpy", args, 512)
            assert result.selected == "fast", device.kind
            assert axpy_output_ok(args)

    def test_device_dependent_selection(self, config):
        """The paper's core premise: the same pool has different winners
        on different devices (spmv random: scalar wins CPU, vector GPU)."""
        from repro.harness.runner import run_dysel

        cpu_case = spmv_csr.input_dependent_case("cpu", "random", 2048, config)
        gpu_case = spmv_csr.input_dependent_case("gpu", "random", 2048, config)
        cpu_run = run_dysel(cpu_case, make_cpu(config), config=config)
        gpu_run = run_dysel(gpu_case, make_gpu(config), config=config)
        assert cpu_run.selected.startswith("scalar")
        assert gpu_run.selected == "vector"
        assert cpu_run.valid and gpu_run.valid


class TestReproducibility:
    def test_identical_runs_bit_identical(self, config, fast_slow_pool):
        def one_run():
            runtime = DySelRuntime(make_cpu(config), config)
            runtime.register_pool(fast_slow_pool)
            args = make_axpy_args(512, config)
            result = runtime.launch_kernel("axpy", args, 512)
            return result.elapsed_cycles, result.selected, args["y"].data.copy()

        t1, s1, y1 = one_run()
        t2, s2, y2 = one_run()
        assert t1 == t2
        assert s1 == s2
        assert np.array_equal(y1, y2)

    def test_different_seeds_different_timing(self, fast_slow_pool):
        def elapsed(seed):
            config = ReproConfig(seed=seed)
            runtime = DySelRuntime(make_cpu(config), config)
            runtime.register_pool(fast_slow_pool)
            args = make_axpy_args(512, config)
            return runtime.launch_kernel("axpy", args, 512).elapsed_cycles

        assert elapsed(1) != elapsed(2)


class TestPaperInterfaceEndToEnd:
    def test_fig6_workflow(self, gpu, config):
        """The paper's Fig 6 usage, end to end on the GPU model."""
        context = DySelContext(gpu, config)
        sig = axpy_signature()
        context.DySelAddKernel(sig, make_axpy_variant("a"), wa_factor=2)
        context.DySelAddKernel(
            sig,
            make_axpy_variant("b", AccessPattern.STRIDED),
            initial_default=True,
        )
        args = make_axpy_args(1024, config)
        result = context.DySelLaunchKernel(
            "axpy", args, 1024, mode="hybrid_sync"
        )
        assert result.selected == "a"
        assert axpy_output_ok(args)
        # Second launch with profiling off reuses the selection.
        args2 = make_axpy_args(1024, config)
        again = context.DySelLaunchKernel(
            "axpy", args2, 1024, profiling=False
        )
        assert not again.profiled
        assert again.selected == "a"


class TestFaultTolerance:
    def test_executor_exception_propagates_cleanly(self, cpu, config, axpy_spec):
        """A broken variant fails the launch loudly, not silently."""
        from repro.compiler.variants import VariantPool
        from repro.kernel.kernel import KernelVariant

        def broken(args, start, end):
            raise RuntimeError("kaboom")

        good = make_axpy_variant("good")
        bad = KernelVariant(
            name="bad", ir=good.ir, executor=broken, wa_factor=1
        )
        runtime = DySelRuntime(cpu, config)
        runtime.register_pool(
            VariantPool(spec=axpy_spec, variants=(good, bad))
        )
        args = make_axpy_args(512, config)
        with pytest.raises(RuntimeError, match="kaboom"):
            runtime.launch_kernel("axpy", args, 512)

    def test_readonly_input_never_mutated(self, cpu, config, fast_slow_pool):
        runtime = DySelRuntime(cpu, config)
        runtime.register_pool(fast_slow_pool)
        args = make_axpy_args(512, config)
        snapshot = args["x"].data.copy()
        runtime.launch_kernel("axpy", args, 512)
        assert np.array_equal(args["x"].data, snapshot)
