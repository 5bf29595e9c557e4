"""Unit tests for the discrete-event execution engine."""

import dataclasses

import pytest

from repro.device.engine import ExecutionEngine, Priority
from repro.errors import EngineError
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultRule
from repro.kernel import AccessPattern, WorkRange
from tests.conftest import (
    axpy_output_ok,
    forced_engine_path,
    make_axpy_args,
    make_axpy_variant,
)


class TestBasicExecution:
    def test_submit_and_wait(self, cpu, config):
        engine = ExecutionEngine(cpu, config)
        variant = make_axpy_variant("v")
        args = make_axpy_args(32, config)
        task = engine.submit(variant, args, WorkRange(0, 32), measure=True)
        end = engine.wait(task)
        assert task.finished
        assert end > 0
        assert engine.now >= end
        assert axpy_output_ok(args)

    def test_functional_execution_at_submit(self, cpu, config):
        engine = ExecutionEngine(cpu, config)
        variant = make_axpy_variant("v")
        args = make_axpy_args(4, config)
        engine.submit(variant, args, WorkRange(0, 4))
        # Output is already written even before simulation advances.
        assert axpy_output_ok(args)

    def test_zero_work_task_completes_immediately(self, cpu, config):
        engine = ExecutionEngine(cpu, config)
        variant = make_axpy_variant("v")
        args = make_axpy_args(2, config)
        task = engine.submit(variant, args, WorkRange(1, 1))
        assert task.finished
        assert task.true_span_cycles == 0.0

    def test_launch_overhead_charged(self, cpu, config):
        engine = ExecutionEngine(cpu, config)
        before = engine.now
        variant = make_axpy_variant("v")
        args = make_axpy_args(1, config)
        task = engine.submit(variant, args, WorkRange(0, 1))
        assert engine.now > before  # host share
        assert task.arrival_time > engine.now  # device share still pending
        assert engine.launch_count == 1

    def test_unfinished_span_raises(self, cpu, config):
        engine = ExecutionEngine(cpu, config)
        variant = make_axpy_variant("v")
        args = make_axpy_args(8, config)
        task = engine.submit(variant, args, WorkRange(0, 8))
        with pytest.raises(EngineError):
            _ = task.true_span_cycles


class TestConcurrency:
    def test_parallel_speedup(self, cpu, config):
        """N units across 4 cores must beat serial by ~4x."""
        variant = make_axpy_variant("v", trips=200)
        args = make_axpy_args(64, config)

        engine = ExecutionEngine(cpu, config)
        task = engine.submit(variant, args, WorkRange(0, 64))
        engine.wait(task)
        parallel_span = task.true_span_cycles

        from repro.device.cost import CostModel

        serial = CostModel(cpu).launch_cycles(variant, args, WorkRange(0, 64))
        assert parallel_span < serial / 3.0
        assert parallel_span > serial / 4.5

    def test_utilization_high_for_saturating_batch(self, cpu, config):
        engine = ExecutionEngine(cpu, config)
        variant = make_axpy_variant("v", trips=100)
        args = make_axpy_args(64, config)
        engine.wait(engine.submit(variant, args, WorkRange(0, 64)))
        assert engine.utilization() > 0.8


class TestPriorities:
    def test_profiling_preempts_queued_batch_work(self, cpu, config):
        """A profiling task submitted after a long batch still gets units
        as they free up, ahead of remaining batch work."""
        engine = ExecutionEngine(cpu, config)
        slow = make_axpy_variant("slow", AccessPattern.STRIDED, trips=500)
        fast = make_axpy_variant("fast", trips=10)
        args = make_axpy_args(64, config)

        batch = engine.submit(slow, args, WorkRange(0, 60), priority=Priority.BATCH)
        profile = engine.submit(
            fast, args, WorkRange(60, 64), priority=Priority.PROFILING, measure=True
        )
        engine.wait(profile)
        engine.wait(batch)
        # The profiling task must finish well before the batch does.
        assert profile.last_end < batch.last_end

    def test_fifo_within_priority(self, cpu, quiet_config):
        engine = ExecutionEngine(cpu, quiet_config)
        variant = make_axpy_variant("v", trips=100)
        args = make_axpy_args(16, quiet_config)
        first = engine.submit(variant, args, WorkRange(0, 8))
        second = engine.submit(variant, args, WorkRange(8, 16))
        engine.wait_all([first, second])
        assert first.first_start <= second.first_start


class TestPolling:
    def test_poll_costs_query_latency(self, gpu, config):
        engine = ExecutionEngine(gpu, config)
        variant = make_axpy_variant("v", trips=2000)
        args = make_axpy_args(128, config)
        task = engine.submit(variant, args, WorkRange(0, 128))
        before = engine.now
        done = engine.poll(task)
        assert engine.now == pytest.approx(
            before + gpu.spec.host_query_latency
        )
        assert not done

    def test_poll_eventually_true(self, cpu, config):
        engine = ExecutionEngine(cpu, config)
        variant = make_axpy_variant("v", trips=10)
        args = make_axpy_args(4, config)
        task = engine.submit(variant, args, WorkRange(0, 4))
        for _ in range(100000):
            if engine.poll(task):
                break
        else:
            pytest.fail("task never completed")
        assert task.finished

    def test_quiet_passes_land_on_the_deadline_pass(self, cpu, config):
        """A task that outlasts the deadline: the step lands on the first
        pass that starts past it, on the per-poll fold's float."""
        engine = ExecutionEngine(cpu, config)
        variant = make_axpy_variant("v", trips=2000)
        task = engine.submit(
            variant, make_axpy_args(64, config), WorkRange(0, 64)
        )
        deadline = engine.now + 2_050.0
        expected = engine.now
        while expected <= deadline:
            expected += cpu.spec.host_query_latency
        assert engine.poll_quiet_passes([task], (), deadline) == 21
        assert engine.now == expected
        assert engine.poll_quiet_passes([task], (), deadline) == 0

    def test_no_quiet_passes_without_query_latency(self, cpu, config):
        """A zero query latency never moves the host clock: no step."""
        spec = dataclasses.replace(cpu.spec, host_query_latency=0.0)
        engine = ExecutionEngine(type(cpu)(spec, cpu.memory, config), config)
        task = engine.submit(
            make_axpy_variant("v"), make_axpy_args(4, config), WorkRange(0, 4)
        )
        assert engine.poll_quiet_passes([task]) == 0
        assert engine.poll_quiet_passes([]) == 0

    def test_quiet_passes_refuse_a_task_that_cannot_finish(self, cpu, config):
        """A hung task with no deadline would be polled forever."""
        engine = ExecutionEngine(cpu, config)
        engine.injector = FaultInjector(
            FaultPlan([FaultRule(kind=FaultKind.HANG)], seed=1)
        )
        task = engine.submit(
            make_axpy_variant("v"), make_axpy_args(4, config), WorkRange(0, 4)
        )
        assert task.hung
        with pytest.raises(EngineError, match="stuck"):
            engine.poll_quiet_passes([task])


class TestMeasurement:
    def test_measured_interval_close_to_true(self, cpu, quiet_config):
        engine = ExecutionEngine(cpu, quiet_config)
        variant = make_axpy_variant("v", trips=100)
        args = make_axpy_args(16, quiet_config)
        task = engine.submit(variant, args, WorkRange(0, 16), measure=True)
        engine.wait(task)
        assert task.measured is not None
        assert task.measured.measured_cycles == pytest.approx(
            task.true_span_cycles, rel=1e-6
        )

    def test_unmeasured_task_has_no_interval(self, cpu, config):
        engine = ExecutionEngine(cpu, config)
        variant = make_axpy_variant("v")
        args = make_axpy_args(4, config)
        task = engine.submit(variant, args, WorkRange(0, 4))
        engine.wait(task)
        assert task.measured is None


class TestFastBatch:
    def test_fast_batch_matches_forced_event_path_exactly(
        self, cpu, quiet_config
    ):
        """Two back-to-back waits schedule identically in runs and with
        the forced per-work-group path, to the float."""
        variant = make_axpy_variant("v", trips=50)
        units = 4196

        def run(drain):
            args = make_axpy_args(units, quiet_config)
            with forced_engine_path(drain):
                engine = ExecutionEngine(cpu, quiet_config)
                first = engine.submit(variant, args, WorkRange(0, units // 2))
                engine.wait(first)
                second = engine.submit(
                    variant, args, WorkRange(units // 2, units)
                )
                engine.wait(second)
            return (
                [(t.first_start, t.last_end) for t in (first, second)],
                engine.now,
                engine.utilization(),
                sorted(engine._unit_heap),
            )

        assert run(drain=True) == run(drain=False)


class TestBarrier:
    def test_barrier_drains_everything(self, cpu, config):
        engine = ExecutionEngine(cpu, config)
        variant = make_axpy_variant("v", trips=50)
        args = make_axpy_args(32, config)
        tasks = [
            engine.submit(variant, args, WorkRange(i * 8, (i + 1) * 8))
            for i in range(4)
        ]
        engine.barrier()
        assert all(task.finished for task in tasks)

    def test_host_compute_advances_clock(self, cpu, config):
        engine = ExecutionEngine(cpu, config)
        before = engine.now
        engine.host_compute(500.0)
        assert engine.now == before + 500.0
        with pytest.raises(EngineError):
            engine.host_compute(-1.0)
