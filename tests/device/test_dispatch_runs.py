"""Where a run of work-groups ends, against the per-work-group reference.

``ExecutionEngine._advance_to`` dispatches the head batch in runs: while
the earliest free time is at most ``min(horizon, nextafter(next_arrival,
-inf))``.  The boundaries are where a run could go wrong by one
work-group, so each case here sits exactly on one: an arrival due at a
unit's free time, a work-group starting exactly at the horizon, and an
advance that can make no progress at all.  Every case is played on the
run dispatcher and on the per-work-group reference
(``forced_engine_path(drain=False)``), and every observable must be
``==``.

The CPU model has 4 units and a 6,000-cycle launch overhead: a submit
moves the host clock by 1,500 cycles, and its work-groups arrive 4,500
cycles later.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ReproConfig
from repro.device import make_cpu
from repro.device.engine import ExecutionEngine, Priority
from repro.errors import EngineError
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultRule
from repro.kernel import WorkRange
from tests.conftest import forced_engine_path, make_axpy_args, make_axpy_variant

PATHS = {"runs": True, "reference": False}


def priced_engine(config, durations):
    """A CPU engine whose submissions take ``durations`` in order."""
    engine = ExecutionEngine(make_cpu(config), config)
    costs = [np.array(d) for d in reversed(durations)]
    engine.cost_model.workgroup_cycles = lambda *_: costs.pop()
    return engine


def snapshot(engine, tasks):
    """Everything a dispatch could sway, as comparable values."""
    return {
        "tasks": [
            (
                task.first_start,
                task.last_end,
                task.completed_work_groups,
                task.finished,
                task.measured,
            )
            for task in tasks
        ],
        "busy": engine._busy_cycles,
        "free_times": sorted(engine._unit_heap),
        "now": engine.now,
        "rng": engine.clock._rng.bit_generator.state,
    }


def on_both_paths(scenario):
    """``scenario()``'s result on each path; asserts they are equal."""
    results = {}
    for label, drain in PATHS.items():
        with forced_engine_path(drain):
            results[label] = scenario()
    assert results["runs"] == results["reference"]
    return results["runs"]


def test_arrival_at_a_free_time_preempts_the_next_work_group():
    """A profiling task due at 7,500 — when the batch's first wave ends
    — takes every unit before the batch's fifth work-group starts."""
    config = ReproConfig().without_noise()

    def scenario():
        engine = priced_engine(config, [[1_500.0] * 12, [100.0] * 4])
        variant = make_axpy_variant("v", trips=4)
        args = make_axpy_args(1, config)
        batch = engine.submit(variant, args, WorkRange(0, 1), measure=True)
        profiling = engine.submit(
            variant,
            args,
            WorkRange(0, 1),
            priority=Priority.PROFILING,
            measure=True,
        )
        engine.barrier()
        return snapshot(engine, [batch, profiling]), profiling.arrival_time

    state, arrival = on_both_paths(scenario)
    (batch, profiling) = state["tasks"]
    assert arrival == 6_000.0 + 1_500.0  # the batch's first wave ends here
    assert profiling[:2] == (7_500.0, 7_600.0)
    # The batch's last two waves start after the profiling task's end.
    assert batch[:2] == (6_000.0, 7_600.0 + 2 * 1_500.0)


def test_work_group_starting_at_the_horizon_is_dispatched():
    """An advance to 7,000 dispatches the second wave, which starts at
    7,000, and not the third, which would start at 8,000."""
    config = ReproConfig().without_noise()

    def scenario():
        engine = priced_engine(config, [[1_000.0] * 12])
        task = engine.submit(
            make_axpy_variant("v", trips=4),
            make_axpy_args(1, config),
            WorkRange(0, 1),
            measure=True,
        )
        engine.host_compute(7_000.0 - engine.now)
        bounded = snapshot(engine, [task])
        engine.wait(task)
        return bounded, snapshot(engine, [task])

    bounded, finished = on_both_paths(scenario)
    assert bounded["now"] == 7_000.0
    assert bounded["tasks"][0][2] == 8
    assert bounded["free_times"] == [8_000.0] * 4
    assert finished["tasks"][0][:3] == (6_000.0, 9_000.0, 12)


@pytest.mark.parametrize("wait", ["wait", "wait_all"])
def test_waits_on_a_hung_task_raise_stuck(wait):
    """Nothing can finish a hung task, so ``wait`` and ``wait_all`` raise
    instead of spinning, after draining the work that can finish."""
    config = ReproConfig(seed=7)

    def scenario():
        engine = ExecutionEngine(make_cpu(config), config)
        engine.injector = FaultInjector(
            FaultPlan([FaultRule(kind=FaultKind.HANG, variant="hung")], seed=3)
        )
        good = engine.submit(
            make_axpy_variant("good", trips=16),
            make_axpy_args(24, config),
            WorkRange(0, 24),
            measure=True,
        )
        hung = engine.submit(
            make_axpy_variant("hung", trips=16),
            make_axpy_args(24, config),
            WorkRange(0, 24),
            priority=Priority.PROFILING,
            measure=True,
        )
        assert hung.hung
        with pytest.raises(EngineError, match="stuck") as raised:
            if wait == "wait":
                engine.wait(hung)
            else:
                engine.wait_all([good, hung])
        return str(raised.value), snapshot(engine, [good, hung])

    message, state = on_both_paths(scenario)
    assert "cannot finish" in message
    good, hung = state["tasks"]
    assert good[3]
    assert hung[2] == 0 and not hung[3]
