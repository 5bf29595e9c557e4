"""Integration tests for DySelRuntime: launches across modes and flows."""

import dataclasses

import pytest

from repro.core import DySelRuntime, LaunchContext
from repro.core.runtime import ProfilingDemotionWarning
from repro.errors import LaunchError
from repro.kernel.kernel import WorkRange
from repro.modes import OrchestrationFlow, ProfilingMode
from tests.conftest import (
    AXPY_UNIT,
    axpy_output_ok,
    make_axpy_args,
    make_axpy_variant,
)

UNITS = 512


@pytest.fixture
def runtime(cpu, config, fast_slow_pool):
    rt = DySelRuntime(cpu, config)
    rt.register_pool(fast_slow_pool)
    return rt


class TestLaunchBasics:
    def test_selects_fast_and_computes(self, runtime, config):
        args = make_axpy_args(UNITS, config)
        result = runtime.launch_kernel("axpy", args, UNITS)
        assert result.selected == "fast"
        assert result.profiled
        assert result.elapsed_cycles > 0
        assert axpy_output_ok(args)

    def test_unknown_kernel(self, runtime, config):
        with pytest.raises(LaunchError):
            runtime.launch_kernel("nope", {}, 10)

    def test_all_modes_produce_correct_output(self, runtime, config):
        for mode in ProfilingMode:
            args = make_axpy_args(UNITS, config)
            result = runtime.launch_kernel(
                "axpy", args, UNITS, mode=mode, flow=OrchestrationFlow.SYNC
            )
            assert result.selected == "fast", mode
            assert axpy_output_ok(args), mode

    def test_async_flows_produce_correct_output(self, runtime, config):
        for mode in (ProfilingMode.FULLY, ProfilingMode.HYBRID):
            args = make_axpy_args(UNITS, config)
            result = runtime.launch_kernel(
                "axpy", args, UNITS, mode=mode, flow=OrchestrationFlow.ASYNC
            )
            assert result.flow is OrchestrationFlow.ASYNC
            assert axpy_output_ok(args), mode

    def test_swap_falls_back_to_sync(self, runtime, config):
        args = make_axpy_args(UNITS, config)
        result = runtime.launch_kernel(
            "axpy",
            args,
            UNITS,
            mode=ProfilingMode.SWAP,
            flow=OrchestrationFlow.ASYNC,
        )
        assert result.flow is OrchestrationFlow.SYNC
        assert "forced synchronous" in result.reason
        assert axpy_output_ok(args)


class TestActivationFlag:
    def test_cached_selection_reused(self, runtime, config):
        args = make_axpy_args(UNITS, config)
        first = runtime.launch_kernel("axpy", args, UNITS)
        assert first.profiled
        args2 = make_axpy_args(UNITS, config)
        second = runtime.launch_kernel("axpy", args2, UNITS, profiling=False)
        assert not second.profiled
        assert second.selected == first.selected
        assert axpy_output_ok(args2)

    def test_iterative_time_accumulates(self, runtime, config):
        args = make_axpy_args(UNITS, config)
        runtime.launch_kernel("axpy", args, UNITS)
        t1 = runtime.engine.now
        runtime.launch_kernel("axpy", args, UNITS, profiling=False)
        assert runtime.engine.now > t1

    def test_profiled_iteration_slower_than_cached(self, cpu, config, fast_slow_pool):
        """The amortization story: later iterations are cheaper."""
        rt = DySelRuntime(cpu, config)
        rt.register_pool(fast_slow_pool)
        args = make_axpy_args(UNITS, config)
        first = rt.launch_kernel("axpy", args, UNITS)
        second = rt.launch_kernel("axpy", args, UNITS, profiling=False)
        assert second.elapsed_cycles < first.elapsed_cycles


class TestSmallWorkload:
    def test_small_launch_skips_profiling(self, runtime, config):
        args = make_axpy_args(16, config)
        result = runtime.launch_kernel("axpy", args, 16)
        assert not result.profiled
        assert "small workload" in result.reason
        assert axpy_output_ok(args)

    def test_zero_units(self, runtime, config):
        args = make_axpy_args(1, config)
        result = runtime.launch_kernel("axpy", args, 0)
        assert not result.profiled


class TestSelectionQuality:
    def test_picks_true_best_without_noise(self, cpu, quiet_config, fast_slow_pool):
        rt = DySelRuntime(cpu, quiet_config)
        rt.register_pool(fast_slow_pool)
        args = make_axpy_args(UNITS, quiet_config)
        result = rt.launch_kernel("axpy", args, UNITS)
        assert result.selected == "fast"
        record = result.record
        assert record is not None
        assert len(record.measurements) == 2

    def test_initial_variant_override(self, runtime, config):
        args = make_axpy_args(UNITS, config)
        result = runtime.launch_kernel(
            "axpy",
            args,
            UNITS,
            flow=OrchestrationFlow.ASYNC,
            initial_variant="slow",
        )
        # Even with the worst initial default, the final pick is right.
        assert result.selected == "fast"
        assert axpy_output_ok(args)

    def test_overhead_near_oracle(self, cpu, config, fast_slow_pool):
        """DySel's elapsed time must stay close to a pure-best run."""
        from repro.device.engine import ExecutionEngine, Priority
        from repro.kernel import WorkRange

        engine = ExecutionEngine(cpu, config)
        args = make_axpy_args(UNITS, config)
        task = engine.submit(
            fast_slow_pool.variant("fast"),
            args,
            WorkRange(0, UNITS),
            priority=Priority.BATCH,
        )
        engine.wait(task)
        oracle = engine.now

        rt = DySelRuntime(cpu, config)
        rt.register_pool(fast_slow_pool)
        args2 = make_axpy_args(UNITS, config)
        result = rt.launch_kernel("axpy", args2, UNITS)
        assert result.elapsed_cycles / oracle < 1.15


class TestStaleSelectionCache:
    """Regression: re-registration must never launch a stale cached pick."""

    def replacement_pool(self, axpy_spec):
        from repro.compiler.variants import VariantPool

        return VariantPool(
            spec=axpy_spec,
            variants=(make_axpy_variant("v2a"), make_axpy_variant("v2b")),
        )

    def test_reregistration_invalidates_cached_selection(
        self, runtime, config, axpy_spec
    ):
        args = make_axpy_args(UNITS, config)
        first = runtime.launch_kernel("axpy", args, UNITS)
        assert first.selected == "fast"
        assert "axpy" in runtime.cache

        runtime.register_pool(self.replacement_pool(axpy_spec))
        assert "axpy" not in runtime.cache

        args2 = make_axpy_args(UNITS, config)
        second = runtime.launch_kernel("axpy", args2, UNITS, profiling=False)
        assert second.selected == "v2a"  # new pool's default, never "fast"
        assert "no cached selection" in second.reason
        assert axpy_output_ok(args2)

    def test_add_kernel_invalidates_cached_selection(self, runtime, config):
        args = make_axpy_args(UNITS, config)
        runtime.launch_kernel("axpy", args, UNITS)
        assert "axpy" in runtime.cache
        runtime.add_kernel("axpy", make_axpy_variant("extra"))
        # The cached winner was chosen against the old candidate set.
        assert "axpy" not in runtime.cache

    def test_bare_registry_replacement_still_safe(
        self, runtime, config, axpy_spec
    ):
        """Defense in depth: even a registry mutated behind the runtime's
        back cannot launch a variant the current pool does not have."""
        args = make_axpy_args(UNITS, config)
        runtime.launch_kernel("axpy", args, UNITS)  # caches "fast"
        runtime.registry.register_pool(self.replacement_pool(axpy_spec))
        assert "axpy" in runtime.cache  # facade bypassed: still stale

        args2 = make_axpy_args(UNITS, config)
        second = runtime.launch_kernel("axpy", args2, UNITS, profiling=False)
        assert second.selected == "v2a"
        assert "not in the current pool" in second.reason
        assert "axpy" not in runtime.cache  # policy evicted it


class TestPlanDemotion:
    """Regression: an infeasible profiling plan demotes, never raises."""

    def coprime_pool(self, axpy_spec, spec=None):
        """wa factors 7/11/13: the fair slice is LCM = 1001 units, so a
        1024-unit launch fits one slice (hybrid) but not three (fully)."""
        from repro.compiler.variants import VariantPool

        return VariantPool(
            spec=spec if spec is not None else axpy_spec,
            variants=(
                make_axpy_variant("w7", wa_factor=7),
                make_axpy_variant("w11", wa_factor=11),
                make_axpy_variant("w13", wa_factor=13),
            ),
        )

    def test_infeasible_fully_demotes_to_hybrid(self, cpu, config, axpy_spec):
        rt = DySelRuntime(cpu, config)
        rt.register_pool(self.coprime_pool(axpy_spec))
        args = make_axpy_args(1024, config)
        with pytest.warns(ProfilingDemotionWarning, match="demoted to hybrid"):
            result = rt.launch_kernel(
                "axpy",
                args,
                1024,
                mode=ProfilingMode.FULLY,
                flow=OrchestrationFlow.SYNC,
            )
        assert result.profiled
        assert result.mode is ProfilingMode.HYBRID
        assert "demoted to hybrid" in result.reason
        assert "infeasible" in result.reason
        assert axpy_output_ok(args)

    def test_workload_below_fair_slice_demotes_to_profiling_off(
        self, cpu, config, axpy_spec
    ):
        """960 units pass the small-workload policy (137 base groups) but
        cannot host even one 1001-unit fair slice."""
        rt = DySelRuntime(cpu, config)
        rt.register_pool(self.coprime_pool(axpy_spec))
        args = make_axpy_args(960, config)
        with pytest.warns(ProfilingDemotionWarning):
            result = rt.launch_kernel(
                "axpy",
                args,
                960,
                mode=ProfilingMode.FULLY,
                flow=OrchestrationFlow.SYNC,
            )
        assert not result.profiled
        assert result.selected == "w7"  # pool default
        assert "demoted to profiling-off" in result.reason
        assert axpy_output_ok(args)

    def test_unsandboxable_pool_demotes_to_profiling_off(self, config):
        """When the hybrid fallback is impossible too (no declared outputs
        to sandbox), the launch still completes with the pool default."""
        from repro.device import make_cpu
        from repro.kernel import ArgSpec, KernelSignature, KernelSpec

        spec = KernelSpec(
            signature=KernelSignature(
                "axpy", (ArgSpec("x"), ArgSpec("y"))  # no outputs declared
            )
        )
        cfg = dataclasses.replace(config, verify="off")
        rt = DySelRuntime(make_cpu(cfg), cfg)
        rt.register_pool(self.coprime_pool(None, spec=spec))
        args = make_axpy_args(1024, cfg)
        with pytest.warns(
            ProfilingDemotionWarning, match="profiling-off"
        ):
            result = rt.launch_kernel(
                "axpy",
                args,
                1024,
                mode=ProfilingMode.FULLY,
                flow=OrchestrationFlow.SYNC,
            )
        assert not result.profiled
        assert result.selected == "w7"
        assert "demoted to profiling-off" in result.reason


class TestLaunchContext:
    """Serving inputs reach the runtime as one ``LaunchContext``."""

    SLICE = WorkRange(128, 256)

    def test_ranged_launch_that_asks_to_profile_is_rejected(
        self, runtime, config
    ):
        args = make_axpy_args(UNITS, config)
        context = LaunchContext(work_range=self.SLICE)
        with pytest.raises(LaunchError, match="never profiles"):
            runtime.launch_kernel(
                "axpy", args, len(self.SLICE), context=context
            )
        with pytest.raises(LaunchError, match="never profiles"):
            runtime.launch_kernel(
                "axpy",
                args,
                len(self.SLICE),
                profiling=False,
                context=dataclasses.replace(context, drift_rearm=True),
            )
        assert not args["y"].data.any()  # nothing ran

    def test_ranged_profiling_off_launch_writes_exactly_its_slice(
        self, runtime, config
    ):
        args = make_axpy_args(UNITS, config)
        result = runtime.launch_kernel(
            "axpy",
            args,
            len(self.SLICE),
            profiling=False,
            context=LaunchContext(work_range=self.SLICE),
        )
        assert not result.profiled
        assert result.source == "default"
        x, y = args["x"].data, args["y"].data
        lo, hi = self.SLICE.start * AXPY_UNIT, self.SLICE.end * AXPY_UNIT
        assert (y[lo:hi] == 2.0 * x[lo:hi]).all()
        assert not y[:lo].any() and not y[hi:].any()

    def test_range_must_cover_the_launch_units(self, runtime, config):
        with pytest.raises(LaunchError, match="covers 128 unit"):
            runtime.launch_kernel(
                "axpy",
                make_axpy_args(UNITS, config),
                UNITS,
                profiling=False,
                context=LaunchContext(work_range=self.SLICE),
            )

    def test_pinned_context_runs_the_pinned_variant(self, runtime, config):
        args = make_axpy_args(UNITS, config)
        result = runtime.launch_kernel(
            "axpy",
            args,
            UNITS,
            profiling=False,
            context=LaunchContext(pinned_variant="slow"),
        )
        assert result.selected == "slow"
        assert result.source == "pinned"
        assert axpy_output_ok(args)

    def test_demotion_keeps_the_planning_source(self, cpu, config, axpy_spec):
        rt = DySelRuntime(cpu, config)
        rt.register_pool(TestPlanDemotion().coprime_pool(axpy_spec))
        with pytest.warns(ProfilingDemotionWarning):
            result = rt.launch_kernel(
                "axpy",
                make_axpy_args(960, config),
                960,
                mode=ProfilingMode.FULLY,
                flow=OrchestrationFlow.SYNC,
            )
        assert not result.profiled
        assert result.reason.startswith("profiling activated")
        assert result.source == "profiling"


class TestLargePoolStress:
    def test_ten_variant_pool(self, cpu, config, axpy_spec):
        """The paper's 2-10 candidate regime, at the top end."""
        from repro.compiler.variants import VariantPool
        from repro.kernel import AccessPattern

        variants = [make_axpy_variant("v0", AccessPattern.UNIT_STRIDE)]
        for i in range(1, 10):
            variants.append(
                make_axpy_variant(
                    f"v{i}", AccessPattern.STRIDED, stride_bytes=64 + 8 * i
                )
            )
        pool = VariantPool(spec=axpy_spec, variants=tuple(variants))
        rt = DySelRuntime(cpu, config)
        rt.register_pool(pool)
        args = make_axpy_args(2048, config)
        result = rt.launch_kernel("axpy", args, 2048)
        assert result.selected == "v0"
        assert axpy_output_ok(args)
