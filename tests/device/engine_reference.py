"""The engine's per-work-group dispatcher, kept as the exactness reference.

:func:`advance_per_work_group` is the event loop ``ExecutionEngine``
dispatched with before it sent work-groups out in runs: one loop turn
per work-group, re-reading the earliest free time, delivering arrivals
and re-picking the head batch every time.  ``forced_engine_path(drain=
False)`` in ``tests/conftest.py`` swaps it in for
``ExecutionEngine._advance_to``, so the equivalence harness, the golden
guard and ``benchmarks/bench_engine.py`` compare the run dispatcher with
it.  It reads the engine's private state and must change only when that
state's layout does.
"""

from __future__ import annotations

import heapq
from typing import Tuple

from repro.device.engine import TaskHandle


def advance_per_work_group(
    self, horizon: float, stop: Tuple[TaskHandle, ...] = ()
) -> bool:
    """Schedule work-groups with start times up to ``horizon``.

    Returns True if any progress was made.  Returns as soon as a task
    in ``stop`` finishes.
    """
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

        free_time = unit_heap[0]
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
        heapq.heapreplace(unit_heap, end)
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
