"""Unit tests for the sync/async orchestration flows."""

import pytest

from repro.compiler.analyses.safe_point import safe_point_plan
from repro.core.orchestrator import run_async, run_sync
from repro.core.productive import plan_profiling
from repro.device.engine import ExecutionEngine
from repro.errors import ProfilingError
from repro.kernel.launch import LaunchConfig
from repro.modes import ProfilingMode
from tests.conftest import axpy_output_ok, axpy_signature, make_axpy_args

UNITS = 512


def setup(pool, device, config, mode=ProfilingMode.FULLY):
    engine = ExecutionEngine(device, config)
    args = make_axpy_args(UNITS, config)
    launch = LaunchConfig.create(axpy_signature(), args, UNITS)
    safe = safe_point_plan(
        pool.variants, device.spec.compute_units, UNITS
    )
    plan = plan_profiling(pool, mode, launch, safe)
    return engine, launch, plan


class TestSync:
    def test_selects_and_completes(self, fast_slow_pool, cpu, config):
        engine, launch, plan = setup(fast_slow_pool, cpu, config)
        outcome = run_sync(engine, fast_slow_pool, plan, launch, config)
        assert outcome.record.selected == "fast"
        assert outcome.eager_chunks == 0
        assert outcome.end_cycles > outcome.profiling_done_cycles
        assert axpy_output_ok(launch.args)

    def test_measurements_for_every_candidate(self, fast_slow_pool, cpu, config):
        engine, launch, plan = setup(fast_slow_pool, cpu, config)
        outcome = run_sync(engine, fast_slow_pool, plan, launch, config)
        assert {m.variant for m in outcome.record.measurements} == {
            "fast",
            "slow",
        }

    def test_empty_remainder_ok(self, fast_slow_pool, cpu, config):
        engine = ExecutionEngine(cpu, config)
        args = make_axpy_args(UNITS, config)
        launch = LaunchConfig.create(axpy_signature(), args, UNITS)
        safe = safe_point_plan(
            fast_slow_pool.variants, cpu.spec.compute_units, UNITS,
            max_workload_fraction=1.0,
        )
        plan = plan_profiling(fast_slow_pool, ProfilingMode.FULLY, launch, safe)
        # Force-profile everything by shrinking the remainder manually.
        outcome = run_sync(engine, fast_slow_pool, plan, launch, config)
        assert outcome.record.selected is not None


class TestAsync:
    def test_selects_and_completes(self, fast_slow_pool, cpu, config):
        engine, launch, plan = setup(fast_slow_pool, cpu, config)
        outcome = run_async(engine, fast_slow_pool, plan, launch, config)
        assert outcome.record.selected == "fast"
        assert axpy_output_ok(launch.args)

    def test_eager_chunks_dispatch_on_cpu(self, fast_slow_pool, cpu, config):
        engine, launch, plan = setup(fast_slow_pool, cpu, config)
        outcome = run_async(engine, fast_slow_pool, plan, launch, config)
        assert outcome.eager_chunks > 0
        assert outcome.eager_units > 0

    def test_gpu_barely_eager_dispatches(self, fast_slow_pool, gpu, config):
        """§5.1: host query latency exceeds micro-profile time on GPU."""
        engine, launch, plan = setup(fast_slow_pool, gpu, config)
        outcome = run_async(engine, fast_slow_pool, plan, launch, config)
        assert outcome.eager_chunks <= 2
        assert axpy_output_ok(launch.args)

    def test_initial_variant_override(self, fast_slow_pool, cpu, config):
        engine, launch, plan = setup(fast_slow_pool, cpu, config)
        outcome = run_async(
            engine, fast_slow_pool, plan, launch, config, initial_variant="slow"
        )
        assert outcome.record.selected == "fast"
        assert axpy_output_ok(launch.args)

    def test_bad_initial_name_rejected(self, fast_slow_pool, cpu, config):
        from repro.errors import RegistrationError

        engine, launch, plan = setup(fast_slow_pool, cpu, config)
        with pytest.raises(RegistrationError):
            run_async(
                engine,
                fast_slow_pool,
                plan,
                launch,
                config,
                initial_variant="nope",
            )

    def test_swap_mode_rejected(self, fast_slow_pool, cpu, config):
        engine, launch, plan = setup(
            fast_slow_pool, cpu, config, mode=ProfilingMode.SWAP
        )
        with pytest.raises(ProfilingError, match="asynchronously"):
            run_async(engine, fast_slow_pool, plan, launch, config)

    def test_async_not_slower_than_sync_much(self, fast_slow_pool, cpu, config):
        sync_engine, sync_launch, sync_plan = setup(fast_slow_pool, cpu, config)
        sync = run_sync(sync_engine, fast_slow_pool, sync_plan, sync_launch, config)
        async_engine, async_launch, async_plan = setup(fast_slow_pool, cpu, config)
        asyn = run_async(
            async_engine, fast_slow_pool, async_plan, async_launch, config
        )
        assert asyn.elapsed_cycles <= sync.elapsed_cycles * 1.1
