"""The unit heap holds bare free times, and no schedule can tell.

``ExecutionEngine._unit_heap`` once held ``(free_time, unit_id)`` pairs.
The id only broke ties between equal free times, and a work-group takes
the earliest time and leaves its end in its place, so replacing either
of two equal times leaves the same multiset.  Nothing reads a unit id:
no start, end, busy-cycle fold, measurement or trace field.

``TupleHeapEngine`` keeps the engine's per-work-group dispatcher over
the pair heap as the reference.  Both engines run the same seeded
scenarios, built to make ties: equal durations on an all-zero heap,
mixed priorities, bounded advances (polls, host compute) that dispatch
part of the queue before a wait dispatches the rest.  Task spans, busy
cycles, the horizon, the sorted free times, the host clock and the
clock's RNG state must all be equal.
"""

from __future__ import annotations

import heapq
import os
from typing import List, Tuple

import numpy as np
from hypothesis import example, given, seed, settings, strategies as st

from repro.config import NoiseModel, ReproConfig
from repro.device import make_cpu, make_gpu
from repro.device.engine import ExecutionEngine, Priority, TaskHandle
from repro.kernel import WorkRange
from tests.conftest import make_axpy_args, make_axpy_variant

#: Replay locally with ``REPRO_CHAOS_SEED=<seed>`` (same convention as
#: the chaos suite; the CI flakiness job randomizes it).
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


class TupleHeapEngine(ExecutionEngine):
    """The per-work-group engine with its earlier ``(free_time, unit_id)``
    heap."""

    def __init__(self, device, config=None) -> None:
        super().__init__(device, config)
        units = device.spec.compute_units
        self._unit_heap: List[Tuple[float, int]] = [(0.0, i) for i in range(units)]
        heapq.heapify(self._unit_heap)

    def _device_horizon(self) -> float:
        return max(t for t, _ in self._unit_heap)

    def _advance_to(
        self, horizon: float, stop: Tuple[TaskHandle, ...] = ()
    ) -> bool:
        progressed = False
        profiling, eager, batch_work = self._ready
        arrivals = self._arrivals
        unit_heap = self._unit_heap
        while True:
            queue = profiling or eager or batch_work
            if not queue:
                if not arrivals:
                    return progressed
                next_arrival = arrivals[0][0]
                if next_arrival > horizon:
                    return progressed
                self._deliver_arrivals(next_arrival)
                continue

            free_time, unit = unit_heap[0]
            if arrivals and arrivals[0][0] <= free_time:
                # Deliver anything arriving by the dispatch instant so
                # higher priority work can claim the unit.
                self._deliver_arrivals(free_time)
                queue = profiling or eager or batch_work
            batch = queue[0]
            task = batch.task
            arrival = task.arrival_time
            start = free_time if free_time > arrival else arrival
            if start > horizon:
                # Nothing can start inside the horizon yet.
                return progressed
            durations = batch.durations
            duration = float(durations[batch.index])
            batch.index += 1
            end = start + duration
            heapq.heapreplace(unit_heap, (end, unit))
            self._busy_cycles += duration
            if start < task.first_start:
                task.first_start = start
            if end > task.last_end:
                task.last_end = end
            task.completed_work_groups += 1
            if batch.index == len(durations):
                # A task's work-groups are one batch: exhausting it
                # finishes the task.
                queue.popleft()
                self._finalize(task)
                if stop and any(task is t for t in stop):
                    return True
            progressed = True


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------

#: Few distinct durations, so equal free times keep recurring.
DURATIONS = (50.0, 100.0, 100.0, 100.0, 250.0, 1_000.0)
#: Host work between submissions: some end before a launch's arrival
#: (launch overhead is 6,000 cycles on the CPU, 3,500 on the GPU), some
#: inside its work-groups, some after them.
HOST_CYCLES = (0.0, 120.0, 4_600.0, 4_800.0, 7_000.0, 30_000.0)

steps = st.one_of(
    st.tuples(
        st.just("submit"),
        st.sampled_from(list(Priority)),
        st.booleans(),
        st.lists(st.sampled_from(DURATIONS), min_size=1, max_size=48),
    ),
    st.tuples(st.just("compute"), st.sampled_from(HOST_CYCLES)),
    st.tuples(st.just("poll"), st.integers(min_value=0, max_value=63)),
    st.tuples(st.just("wait"), st.integers(min_value=0, max_value=63)),
)


def run(engine_cls, make_device, config, plan):
    """Play ``plan`` on a fresh engine; everything the heap could sway."""
    engine = engine_cls(make_device(config), config)
    variant = make_axpy_variant("v", trips=4)
    args = make_axpy_args(1, config)
    costs: List[np.ndarray] = []
    engine.cost_model.workgroup_cycles = lambda *_: costs.pop()
    tasks: List[TaskHandle] = []
    for step in plan:
        kind = step[0]
        if kind == "submit":
            _, priority, measure, durations = step
            costs.append(np.array(durations))
            tasks.append(
                engine.submit(
                    variant, args, WorkRange(0, 1), priority=priority, measure=measure
                )
            )
        elif kind == "compute":
            engine.host_compute(step[1])
        elif tasks and kind == "poll":
            engine.poll(tasks[step[1] % len(tasks)])
        elif tasks:
            engine.wait(tasks[step[1] % len(tasks)])
    engine.barrier()
    heap = engine._unit_heap
    free_times = sorted(
        entry[0] if isinstance(entry, tuple) else entry for entry in heap
    )
    return {
        "tasks": [
            (
                task.first_start,
                task.last_end,
                task.completed_work_groups,
                task.measured,
            )
            for task in tasks
        ],
        "busy": engine._busy_cycles,
        "horizon": engine._device_horizon(),
        "free_times": free_times,
        "now": engine.now,
        "rng": engine.clock._rng.bit_generator.state,
    }


#: A profiling launch arriving at 7,500, exactly when the batch's sixth
#: wave of 250-cycle work-groups ends: it takes the units first.
ARRIVAL_AT_A_FREE_TIME = [
    ("submit", Priority.BATCH, True, [250.0] * 48),
    ("submit", Priority.PROFILING, True, [100.0] * 4),
]
#: Host compute ends at 7,000, when the batch's second wave starts: that
#: advance dispatches the wave and no later one, so the profiling launch
#: arriving at 13,000 takes the units before the batch's eighth wave.
HORIZON_AT_A_START = [
    ("submit", Priority.BATCH, True, [1_000.0] * 48),
    ("compute", 5_500.0),
    ("submit", Priority.PROFILING, True, [100.0] * 4),
]


@seed(CHAOS_SEED)
@settings(max_examples=150, deadline=None)
@given(
    plan=st.lists(steps, min_size=1, max_size=14),
    make_device=st.sampled_from([make_cpu, make_gpu]),
    jitter=st.sampled_from([0.0, 0.0, 0.02]),
    quantum=st.sampled_from([1e-12, 1.0, 64.0]),
    root_seed=st.integers(min_value=0, max_value=2**20),
)
@example(
    plan=ARRIVAL_AT_A_FREE_TIME,
    make_device=make_cpu,
    jitter=0.0,
    quantum=1.0,
    root_seed=0,
)
@example(
    plan=HORIZON_AT_A_START,
    make_device=make_cpu,
    jitter=0.0,
    quantum=1.0,
    root_seed=0,
)
def test_free_times_schedule_like_unit_pairs(
    plan, make_device, jitter, quantum, root_seed
):
    config = ReproConfig(
        seed=root_seed,
        noise=NoiseModel(execution_jitter=jitter, timer_quantum=quantum),
    )
    expected = run(TupleHeapEngine, make_device, config, plan)
    assert run(ExecutionEngine, make_device, config, plan) == expected


def test_ties_occur_and_both_paths_run():
    """Guard against vacuity: the scenario shape makes equal free times
    on the heap, ends a run at a bounded advance's horizon, and ends
    another at an arrival that preempts the queued batch."""
    config = ReproConfig(noise=NoiseModel(execution_jitter=0.0))
    plan = [
        ("submit", Priority.BATCH, True, [100.0] * 400),
        ("compute", 4_800.0),
        ("submit", Priority.PROFILING, True, [100.0] * 6),
        ("submit", Priority.EAGER, False, [50.0] * 7),
    ]
    engine = ExecutionEngine(make_cpu(config), config)
    costs = [np.array(step[3]) for step in reversed(plan) if step[0] == "submit"]
    engine.cost_model.workgroup_cycles = lambda *_: costs.pop()
    variant = make_axpy_variant("v", trips=4)
    args = make_axpy_args(1, config)
    first = engine.submit(variant, args, WorkRange(0, 1), measure=True)
    engine.host_compute(4_800.0)
    assert 0 < first.completed_work_groups < first.total_work_groups
    assert len(set(engine._unit_heap)) < len(engine._unit_heap)
    profiling = engine.submit(
        variant, args, WorkRange(0, 1), priority=Priority.PROFILING
    )
    engine.submit(variant, args, WorkRange(0, 1), priority=Priority.EAGER)
    engine.barrier()
    assert first.first_start < profiling.first_start < first.last_end
    assert run(ExecutionEngine, make_cpu, config, plan) == run(
        TupleHeapEngine, make_cpu, config, plan
    )


def test_boundary_examples_sit_on_their_boundaries():
    """Guard against vacuity: each explicit example's profiling launch
    starts where its comment says, on the pair-heap reference."""
    config = ReproConfig(noise=NoiseModel(execution_jitter=0.0))
    arrival = run(TupleHeapEngine, make_cpu, config, ARRIVAL_AT_A_FREE_TIME)
    batch, profiling = arrival["tasks"]
    assert profiling[:2] == (7_500.0, 7_600.0)
    assert batch[:2] == (6_000.0, 7_600.0 + 6 * 250.0)
    horizon = run(TupleHeapEngine, make_cpu, config, HORIZON_AT_A_START)
    batch, profiling = horizon["tasks"]
    assert profiling[:2] == (13_000.0, 13_100.0)
    assert batch[:2] == (6_000.0, 13_100.0 + 5 * 1_000.0)
