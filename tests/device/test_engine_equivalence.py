"""Equivalence harness: the engine's default paths and the reference agree.

Extends ``test_fast_batch_property``: where that suite drives one
single-task batch, this one runs whole *scenarios* — contended
mixed-priority queues, interleaved host polls, waits and host compute,
deadline waits with injected hangs, latency faults, noise on and off — through
the default paths (dispatch in runs, quiet poll passes in closed form)
and the reference (one work-group and one poll at a time), and asserts
exact equality of every observable: task intervals, measured cycles,
host clock, utilization, unit free times, launch counts, trace events,
and output buffers.  Zero tolerance: comparisons are ``==`` /
``array_equal``, never ``allclose`` — the default paths claim
bit-identity, not approximation.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, seed, settings, strategies as st  # noqa: E402

#: Replay locally with ``REPRO_CHAOS_SEED=<seed>`` (same convention as
#: the chaos suite; the CI flakiness job randomizes it).
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
chaos_seed = seed(CHAOS_SEED)

from repro.config import ReproConfig  # noqa: E402
from repro.core.runtime import DySelRuntime  # noqa: E402
from repro.device import make_cpu  # noqa: E402
from repro.device.engine import ExecutionEngine, Priority  # noqa: E402
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultRule  # noqa: E402
from repro.kernel import AccessPattern, WorkRange  # noqa: E402
from repro.modes import OrchestrationFlow, ProfilingMode  # noqa: E402
from repro.obs import reconcile  # noqa: E402
from tests.conftest import (  # noqa: E402
    forced_engine_path,
    make_axpy_args,
    make_axpy_variant,
)

#: The two scheduling paths, as ``(drain, quiet_passes)`` forcings of
#: :func:`forced_engine_path`.  ``event`` dispatches one work-group at a
#: time (the per-work-group reference) and polls one poll at a time;
#: ``fast`` dispatches in runs and covers quiet poll passes in closed
#: form.
PATHS = {
    "event": (False, False),
    "fast": (True, True),
}


def snapshot(engine, tasks, argsets):
    """Every observable a scenario exposes, as comparable values."""
    return {
        "tasks": [
            (
                task.first_start,
                task.last_end,
                task.completed_work_groups,
                task.total_work_groups,
                task.finished,
                None
                if task.measured is None
                else (
                    task.measured.true_cycles,
                    task.measured.measured_cycles,
                ),
            )
            for task in tasks
        ],
        "now": engine.now,
        "utilization": engine.utilization(),
        "unit_heap": sorted(engine._unit_heap),
        "launches": engine.launch_count,
        "outputs": [np.array(args["y"].data, copy=True) for args in argsets],
    }


def assert_snapshots_equal(reference, other, label):
    """Exact equality of two scenario snapshots."""
    for key in ("tasks", "now", "utilization", "unit_heap", "launches"):
        assert reference[key] == other[key], (label, key)
    for ref_y, other_y in zip(reference["outputs"], other["outputs"]):
        assert np.array_equal(ref_y, other_y), (label, "outputs")


def run_scenario(config, plan, drain, quiet_passes, engine_cls=ExecutionEngine):
    """Drive one submit/poll/wait scenario under a forced path."""
    with forced_engine_path(drain, quiet_passes):
        engine = engine_cls(make_cpu(config), config)
        tasks, argsets = [], []
        for step in plan:
            pattern = (
                AccessPattern.STRIDED
                if step["strided"]
                else AccessPattern.UNIT_STRIDE
            )
            variant = make_axpy_variant("v", pattern, trips=step["trips"])
            args = make_axpy_args(step["units"], config)
            task = engine.submit(
                variant,
                args,
                WorkRange(0, step["units"]),
                priority=step["priority"],
                measure=step["measure"],
            )
            tasks.append(task)
            argsets.append(args)
            target = tasks[step["target"] % len(tasks)]
            if step["sync"] == "poll":
                engine.poll(target)
            elif step["sync"] == "wait":
                engine.wait(target)
            if step["host"]:
                engine.host_compute(step["host"])
        engine.wait_all(tasks)
        engine.barrier()
        return snapshot(engine, tasks, argsets)


@st.composite
def scenarios(draw):
    """A short seeded program of submits and host-side sync points."""
    steps = draw(st.integers(min_value=2, max_value=5))
    plan = []
    for _ in range(steps):
        plan.append(
            {
                "units": draw(st.integers(min_value=4, max_value=48)),
                "trips": draw(st.integers(min_value=8, max_value=24)),
                "priority": draw(st.sampled_from(list(Priority))),
                "measure": draw(st.booleans()),
                "strided": draw(st.booleans()),
                "sync": draw(st.sampled_from(["none", "none", "poll", "wait"])),
                "target": draw(st.integers(min_value=0, max_value=steps - 1)),
                # Long enough, or not, for the step's own launch to arrive.
                "host": draw(st.sampled_from([0.0, 0.0, 0.0, 4_600.0, 7_000.0])),
            }
        )
    return plan


def step(units, priority, sync="none", target=0, host=0.0):
    """A scenario step of the unit-stride 20-trip axpy, whose work-groups
    take 1,250 cycles each on the noise-free CPU."""
    return {
        "units": units,
        "trips": 20,
        "priority": priority,
        "measure": True,
        "strided": False,
        "sync": sync,
        "target": target,
        "host": host,
    }


#: The batch's units free up together at 9,750 + k × 1,250 once the
#: waited-on profiling task ends; the last profiling task arrives at
#: 17,250 (9,750 + 1,500 + 6,000), exactly on such a free time, and must
#: take the units before the batch's next wave.
ARRIVAL_AT_A_FREE_TIME = [
    step(48, Priority.BATCH),
    step(4, Priority.PROFILING, sync="wait", target=1),
    step(4, Priority.BATCH),
    step(4, Priority.PROFILING),
]
#: Host compute ends at 7,250, when the batch's second wave starts: that
#: advance dispatches the wave and no later one, so the profiling task
#: arriving at 13,250 takes the units when the wave running then ends.
HORIZON_AT_A_START = [
    step(48, Priority.BATCH, host=5_750.0),
    step(4, Priority.PROFILING),
]


@chaos_seed
@settings(max_examples=25, deadline=None)
@given(
    plan=scenarios(),
    noisy=st.booleans(),
    root_seed=st.integers(min_value=0, max_value=2**20),
)
@example(plan=ARRIVAL_AT_A_FREE_TIME, noisy=False, root_seed=0)
@example(plan=HORIZON_AT_A_START, noisy=False, root_seed=0)
def test_scenarios_agree_across_all_paths(plan, noisy, root_seed):
    """Contended mixed-priority scenarios are path-invariant, exactly."""
    config = ReproConfig(seed=root_seed)
    if not noisy:
        config = config.without_noise()
    reference = run_scenario(config, plan, *PATHS["event"])
    for label in ("fast",):
        result = run_scenario(config, plan, *PATHS[label])
        assert_snapshots_equal(reference, result, label)


def test_boundary_examples_sit_on_their_boundaries():
    """Guard against vacuity: on the reference path, each explicit
    example's profiling task starts where its comment says, which
    holds only while a work-group takes 1,250 cycles."""
    config = ReproConfig().without_noise()
    arrival = run_scenario(config, ARRIVAL_AT_A_FREE_TIME, *PATHS["event"])
    batch, profiling = arrival["tasks"][0], arrival["tasks"][3]
    assert profiling[:2] == (17_250.0, 18_500.0)
    assert batch[:2] == (6_000.0, 18_500.0 + 4 * 1_250.0)
    horizon = run_scenario(config, HORIZON_AT_A_START, *PATHS["event"])
    batch, profiling = horizon["tasks"]
    assert profiling[:2] == (13_500.0, 14_750.0)
    assert batch[:2] == (6_000.0, 14_750.0 + 6 * 1_250.0)


@pytest.mark.parametrize("noisy", [False, True])
def test_deadline_waits_and_hang_cleanup_agree(noisy):
    """A hung task, deadline expiry, and cancel leave identical state."""
    config = ReproConfig(seed=7)
    if not noisy:
        config = config.without_noise()

    def run(drain, quiet_passes):
        with forced_engine_path(drain, quiet_passes):
            engine = ExecutionEngine(make_cpu(config), config)
            plan = FaultPlan(
                [FaultRule(kind=FaultKind.HANG, variant="hung")], seed=3
            )
            engine.injector = FaultInjector(plan)
            hung_variant = make_axpy_variant("hung", trips=16)
            good_variant = make_axpy_variant("good", trips=16)
            hung_args = make_axpy_args(24, config)
            good_args = make_axpy_args(24, config)
            hung = engine.submit(
                hung_variant, hung_args, WorkRange(0, 24), measure=True
            )
            good = engine.submit(
                good_variant,
                good_args,
                WorkRange(0, 24),
                priority=Priority.EAGER,
                measure=True,
            )
            finished = engine.wait_deadline(hung, deadline=engine.now + 5000.0)
            assert not finished
            engine.cancel(hung)
            engine.wait(good)
            engine.barrier()
            return snapshot(engine, [hung, good], [hung_args, good_args])

    reference = run(*PATHS["event"])
    for label in ("fast",):
        assert_snapshots_equal(reference, run(*PATHS[label]), label)


@pytest.mark.parametrize("noisy", [False, True])
def test_latency_faults_agree(noisy):
    """Injected latency scaling perturbs both paths identically."""
    config = ReproConfig(seed=11)
    if not noisy:
        config = config.without_noise()
    plan = [
        {
            "units": 32,
            "trips": 16,
            "priority": Priority.BATCH,
            "measure": True,
            "strided": False,
            "sync": "none",
            "target": 0,
        }
    ] * 3

    def run(drain, quiet_passes):
        with forced_engine_path(drain, quiet_passes):
            engine = ExecutionEngine(make_cpu(config), config)
            engine.injector = FaultInjector(
                FaultPlan(
                    [
                        FaultRule(
                            kind=FaultKind.LATENCY,
                            magnitude=3.0,
                            after=1,
                            count=1,
                        )
                    ],
                    seed=5,
                )
            )
            tasks, argsets = [], []
            for step in plan:
                variant = make_axpy_variant("v", trips=step["trips"])
                args = make_axpy_args(step["units"], config)
                tasks.append(
                    engine.submit(
                        variant,
                        args,
                        WorkRange(0, step["units"]),
                        measure=True,
                    )
                )
                argsets.append(args)
            engine.wait_all(tasks)
            engine.barrier()
            return snapshot(engine, tasks, argsets)

    reference = run(*PATHS["event"])
    for label in ("fast",):
        assert_snapshots_equal(reference, run(*PATHS[label]), label)


@pytest.mark.parametrize(
    "mode", [ProfilingMode.FULLY, ProfilingMode.HYBRID, ProfilingMode.SWAP]
)
@pytest.mark.parametrize(
    "flow", [OrchestrationFlow.SYNC, OrchestrationFlow.ASYNC]
)
def test_traced_launches_identical_and_reconcile(fast_slow_pool, mode, flow):
    """Full runtime launches emit identical, reconcile-clean traces.

    The trace is the richest observable the stack exposes — every host
    op, profile span, and selection decision with its cycle stamps — so
    identical event streams across paths subsume interval equality, and
    ``reconcile`` proves each stream is internally consistent too.
    """
    units = 192

    def run(drain, quiet_passes):
        with forced_engine_path(drain, quiet_passes):
            config = dataclasses.replace(ReproConfig(), trace=True)
            runtime = DySelRuntime(make_cpu(config), config)
            runtime.register_pool(fast_slow_pool)
            args = make_axpy_args(units, config)
            result = runtime.launch_kernel(
                "axpy", args, units, mode=mode, flow=flow
            )
            events = [
                (
                    event.kind,
                    event.name,
                    event.start_cycles,
                    event.end_cycles,
                    tuple(sorted((event.args or {}).items())),
                )
                for event in runtime.tracer.events
            ]
            problems = reconcile(
                runtime.tracer.events,
                elapsed_cycles=result.elapsed_cycles,
                workload_units=units,
            )
            return result, events, problems, np.array(
                args["y"].data, copy=True
            )

    ref_result, ref_events, ref_problems, ref_y = run(*PATHS["event"])
    assert ref_problems == []
    for label in ("fast",):
        result, events, problems, y = run(*PATHS[label])
        assert problems == [], label
        assert events == ref_events, label
        assert result.elapsed_cycles == ref_result.elapsed_cycles, label
        assert result.selected == ref_result.selected, label
        assert np.array_equal(y, ref_y), label
