"""Discrete-event execution engine for simulated devices.

The engine plays the role of TBB (CPU) and the CUDA driver + block
scheduler (GPU): it dispatches work-groups onto ``compute_units``
concurrent execution units, honoring priorities — profiling work beats
eager work beats batch work, like DySel's prioritized task groups (§3.2) —
and charging kernel-launch overhead and host query latency (§3.3, §5.1).

Causality is host-driven: the engine never simulates past the host clock
(``now``) on its own.  Host-side operations (submit, poll, wait, barrier)
advance the host clock, and only then does the device schedule work-groups
whose start times fall inside the advanced window.  This makes the
asynchronous flow faithful: an eager chunk submitted after a poll really
competes with whatever is still running at that host time.

Functional execution (the variant actually writing its output buffers)
happens at submission; simulated timing is independent of functional
results, matching how a deterministic kernel's output does not depend on
when it is scheduled.

Measurement mimics the paper's in-kernel clock instrumentation (Fig 7):
a task's interval spans the earliest work-group start to the latest
work-group end among its work-groups, read through the quantized noisy
timer.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import math
import sys
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..config import ReproConfig
from ..errors import EngineError
from ..kernel.kernel import KernelVariant, WorkRange
from ..obs.events import EventKind
from ..obs.tracer import make_tracer
from .base import Device
from .clock import MeasuredInterval, NoisyClock
from .cost import CostModel

#: Fraction of the kernel-launch overhead spent on the *host* side of the
#: launch call (driver entry / task-group spawn); the remainder is
#: device-side setup before the first work-group starts.
HOST_LAUNCH_FRACTION = 0.25

#: Shared empty duration array for finalized/cancelled tasks.
_NO_DURATIONS = np.zeros(0)


class _Batch:
    """Queued work-groups of one task: a duration array and a cursor.

    The dispatcher consumes groups in runs by advancing ``index``.
    """

    __slots__ = ("task", "durations", "index")

    def __init__(self, task: "TaskHandle") -> None:
        self.task = task
        self.durations = task._durations
        self.index = 0


def _exact_polls(x0: float, latency: float) -> int:
    """How many polls from ``x0`` the closed form ``x0 + n·L`` is exact for.

    Take ``2**e <= x0 < 2**(e+1)``, so ``ulp(x0) = 2**(e-52)``.  When
    ``L`` is an integer multiple of ``ulp(x0)``, every ``x0 + k·L`` up
    to ``2**(e+1)`` is representable, so each fold step ``fl(y + L)`` is
    exact and the fold's n-th value is ``x0 + n·L``.  ``fl(x0 +
    fl(n·L))`` computes the same value: ``n·L <= 2**e`` is a multiple of
    ``ulp(x0)``, so it is exact too.  Returns the largest ``n`` with
    ``x0 + n·L <= 2**(e+1)``; 0 when ``L`` is no multiple of
    ``ulp(x0)`` or ``x0`` has no binade (zero, or subnormal).
    """
    if not x0 >= sys.float_info.min:
        return 0
    mantissa, exponent = math.frexp(x0)  # x0 = mantissa · 2**exponent
    ulp = math.ldexp(1.0, exponent - 53)
    steps = latency / ulp  # exact: ulp is a power of two
    if not 1.0 <= steps <= 2.0**52 or not steps.is_integer():
        return 0
    # (2**exponent - x0) / ulp, exactly: 1 - mantissa is exact (Sterbenz).
    return int(math.ldexp(1.0 - mantissa, 53)) // int(steps)


class _PollInstants:
    """The host clock after ``n`` polls of latency ``L`` from ``x0``.

    The per-poll loop reaches the left fold ``x0 + L + L + …``, one
    rounding per poll.  Up to poll ``exact`` (:func:`_exact_polls`) that
    is the closed form ``x0 + n·L``, read and searched with integer
    arithmetic and exact comparisons.  Past it (a power of two crossed,
    ``L`` no multiple of ``ulp(x0)``, or ``x0`` zero) the fold itself
    is built on demand with ``np.add.accumulate``, from the closed
    form's last value.
    """

    __slots__ = ("x0", "latency", "exact", "_tail")

    def __init__(self, x0: float, latency: float) -> None:
        self.x0 = x0
        self.latency = latency
        self.exact = _exact_polls(x0, latency)
        #: The fold from poll ``exact`` on (``None`` until needed).
        self._tail: Optional[np.ndarray] = None

    def at(self, n: int) -> float:
        """The host clock after ``n`` polls."""
        if n <= self.exact:
            return self.x0 + n * self.latency
        return float(self._folded(n)[n - self.exact])

    def first(self, at: float, side: str = "left") -> int:
        """The first poll whose instant is at or (``side="right"``)
        strictly after ``at``: ``searchsorted`` over the fold."""
        x0, latency, exact = self.x0, self.latency, self.exact
        left = side == "left"
        last = x0 + exact * latency
        if last > at or left and last == at:
            n = min(int((at - x0) / latency), exact) if at > x0 else 0
            while n:
                prior = x0 + (n - 1) * latency
                if not (prior > at or left and prior == at):
                    break
                n -= 1
            while True:
                instant = x0 + n * latency
                if instant > at or left and instant == at:
                    return n
                n += 1
        tail = self._folded(exact + 1)
        while True:
            n = int(tail.searchsorted(at, side))
            if n < len(tail):
                return exact + n
            reach = int((at - float(tail[-1])) / latency)
            tail = self._folded(exact + len(tail) + max(reach, 1))

    def first_pass(
        self, at: float, offset: int, count: int, side: str = "left"
    ) -> int:
        """Pass of the first poll at position ``offset`` (1..``count``)
        of a ``count``-poll pass whose instant is at or (``side="right"``)
        after ``at``."""
        n = max(self.first(at, side), 1)
        return (n + (offset - n) % count - 1) // count

    def series(self, polls: int) -> List[float]:
        """The instants of polls ``1..polls``."""
        x0, latency = self.x0, self.latency
        closed = min(polls, self.exact)
        out = [x0 + n * latency for n in range(1, closed + 1)]
        if polls > closed:
            # ``closed == exact`` here: tail[k] is poll ``exact + k``.
            out += self._folded(polls)[1 : polls + 1 - closed].tolist()
        return out

    def _folded(self, n: int) -> np.ndarray:
        """The fold from poll ``exact`` through at least poll ``n``."""
        tail = self._tail
        if tail is None:
            tail = np.array([self.at(self.exact)])
        size = len(tail)
        need = n - self.exact + 1
        if need > size:
            steps = np.full(max(need, 2 * size) - size + 1, self.latency)
            steps[0] = tail[-1]
            tail = np.concatenate((tail, np.add.accumulate(steps)[1:]))
        self._tail = tail
        return tail


class Priority(enum.IntEnum):
    """Dispatch priority classes (lower value wins)."""

    PROFILING = 0
    EAGER = 1
    BATCH = 2


@dataclass
class TaskHandle:
    """One submitted kernel execution (a set of work-groups).

    Exposes completion state and the measured interval once finished.
    ``true_cycles``/``measured`` are populated by the engine; callers
    (the DySel runtime) must only read ``measured`` — ``true_*`` fields
    exist for the oracle and tests.
    """

    task_id: int
    variant: KernelVariant
    units: WorkRange
    priority: Priority
    stream: Optional[str]
    measure: bool
    submit_time: float
    arrival_time: float
    #: Work-group durations (jittered), dispatched in index order.  The
    #: array may be a read-only view shared with the cost-kernel memo;
    #: the engine never writes through it (consumption state lives on the
    #: ready-queue :class:`_Batch`, not here).
    _durations: np.ndarray = field(
        default_factory=lambda: _NO_DURATIONS, repr=False
    )
    total_work_groups: int = 0
    completed_work_groups: int = 0
    first_start: float = float("inf")
    last_end: float = 0.0
    measured: Optional[MeasuredInterval] = None
    #: Injected hang: the task was accepted but will never be scheduled.
    hung: bool = False
    #: The host gave up on this task (deadline expiry / fault cleanup).
    cancelled: bool = False

    @property
    def finished(self) -> bool:
        """True once every work-group has completed (never for a hang)."""
        if self.hung or self.cancelled:
            return False
        return self.completed_work_groups >= self.total_work_groups

    @property
    def true_span_cycles(self) -> float:
        """Ground-truth profiled interval (first start to last end)."""
        if not self.finished:
            raise EngineError(
                f"task {self.task_id} not finished; span unavailable"
            )
        if self.total_work_groups == 0:
            return 0.0
        return self.last_end - self.first_start


class ExecutionEngine:
    """Event-driven scheduler for one device."""

    def __init__(self, device: Device, config: Optional[ReproConfig] = None) -> None:
        self.device = device
        self.config = config if config is not None else device.config
        # The engine owns its clock so a per-run config (e.g. noise
        # disabled for oracle runs) takes effect regardless of how the
        # device was built.
        self.clock = NoisyClock(self.config, device.spec.name)
        self.cost_model = CostModel(device)
        #: Observability hook (:mod:`repro.obs`): recording when
        #: ``config.trace`` is set, the shared no-op otherwise.  Hot paths
        #: guard on ``tracer.enabled`` so the disabled configuration pays
        #: one branch per call.
        self.tracer = make_tracer(self.config)
        self._now = 0.0
        units = device.spec.compute_units
        #: Min-heap of unit free times.  Units are interchangeable: a
        #: work-group takes the earliest free time and leaves its end in
        #: its place, so no unit id is kept (replacing either of two equal
        #: times leaves the same multiset).
        self._unit_heap: List[float] = [0.0] * units
        #: Pending device-side arrivals: (arrival_time, seq, task).
        self._arrivals: List[Tuple[float, int, TaskHandle]] = []
        #: Ready work, one deque of per-task :class:`_Batch`es per
        #: priority, indexed by the priority's value (most urgent first).
        self._ready: Tuple[Deque[_Batch], ...] = tuple(
            deque() for _ in Priority
        )
        self._seq = itertools.count()
        self._busy_cycles = 0.0
        self._launch_count = 0
        #: Optional fault injector (:mod:`repro.faults`); when installed,
        #: it owns functional execution and may sabotage submissions.
        self.injector = None

    # ------------------------------------------------------------------
    # Host-side API
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current host clock, in device cycles."""
        return self._now

    @property
    def launch_count(self) -> int:
        """Number of kernel launches submitted so far."""
        return self._launch_count

    def utilization(self) -> float:
        """Fraction of unit-cycles spent busy since time zero."""
        elapsed = self._device_horizon()
        if elapsed <= 0:
            return 0.0
        return self._busy_cycles / (elapsed * self.device.spec.compute_units)

    def submit(
        self,
        variant: KernelVariant,
        args: Mapping[str, object],
        units: WorkRange,
        priority: Priority = Priority.BATCH,
        stream: Optional[str] = None,
        measure: bool = False,
    ) -> TaskHandle:
        """Launch a variant over a workload-unit range.

        Functionally executes the variant immediately (writing its output
        buffers); schedules its work-groups for timing.  The host clock
        advances by the host-side share of the launch overhead; the
        work-groups become dispatchable after the device-side share.

        With a fault injector installed the injector owns functional
        execution: it may raise a :class:`~repro.errors.VariantFault`
        (the submission never becomes a task — a crashed kernel launch),
        slow the task's work-groups, or hang it (the task is returned
        but will never finish; use :meth:`wait_deadline`).
        """
        overhead = self.device.spec.kernel_launch_overhead
        self._now += overhead * HOST_LAUNCH_FRACTION
        arrival = self._now + overhead * (1.0 - HOST_LAUNCH_FRACTION)
        self._launch_count += 1

        if self.injector is None:
            variant.execute(args, units)
            hang = False
            latency_scale = 1.0
        else:
            outcome = self.injector.intercept(variant, args, units)
            hang = outcome.hang
            latency_scale = outcome.latency_scale

        true_costs = self.cost_model.workgroup_cycles(variant, args, units)
        durations = self.clock.jitter_durations(true_costs)
        if latency_scale != 1.0:
            # Elementwise multiply: bit-identical to scaling each float.
            durations = durations * latency_scale
        # No copy when the costs came back from the memo unscaled: the
        # read-only cached array flows straight onto the ready queue.
        durations = np.ascontiguousarray(durations, dtype=np.float64)

        task = TaskHandle(
            task_id=next(self._seq),
            variant=variant,
            units=units,
            priority=priority,
            stream=stream,
            measure=measure,
            submit_time=self._now,
            arrival_time=arrival,
            _durations=durations,
            total_work_groups=int(durations.size),
        )
        if hang:
            # Accepted by the driver, never scheduled: the task sits
            # outside the arrival queue so barriers still drain, and only
            # a deadline wait (then ``cancel``) gets the host unstuck.
            task.hung = True
        elif task.total_work_groups == 0:
            task.first_start = arrival
            task.last_end = arrival
            self._finalize(task)
        else:
            heapq.heappush(self._arrivals, (arrival, next(self._seq), task))
        if self.tracer.enabled:
            self.tracer.instant(
                EventKind.TASK_SUBMIT,
                variant.name,
                self._now,
                task_id=task.task_id,
                units=len(units),
                start_unit=units.start,
                end_unit=units.end,
                priority=priority.name.lower(),
                stream=stream,
                work_groups=task.total_work_groups,
            )
        return task

    def poll(self, task: TaskHandle) -> bool:
        """Query a task's completion status (costs host query latency).

        Models ``cudaStreamQuery`` (§3.3): the query itself takes longer
        than a micro-profile often does, which is what limits eager
        dispatch on GPUs (§5.1).
        """
        self._now += self.device.spec.host_query_latency
        self._advance_to(self._now)
        done = task.finished and task.last_end <= self._now
        if self.tracer.enabled:
            self._trace_poll(task, self._now, done)
        return done

    def _trace_poll(self, task: TaskHandle, at: float, done: bool) -> None:
        """Emit one ``HOST_POLL`` instant."""
        self.tracer.instant(
            EventKind.HOST_POLL,
            task.variant.name,
            at,
            task_id=task.task_id,
            finished=done,
            latency_cycles=self.device.spec.host_query_latency,
        )

    def poll_quiet_passes(
        self,
        pending: Sequence[TaskHandle],
        eager: Sequence[TaskHandle] = (),
        deadline: float = float("inf"),
    ) -> int:
        """Cover the leading quiet passes of an async poll loop in one step.

        The async flow polls each ``pending`` task once per pass.  A pass
        is *quiet* when no poll sees its task done (``last_end`` at or
        before the poll) and no ``eager`` task is done at the pass's end;
        a pass that starts past ``deadline`` is not.  Returns the passes
        covered.  ``now`` lands on the first non-quiet pass's start, the
        float the per-poll fold ``now + L + L + …`` reaches
        (:class:`_PollInstants`); the dispatcher stops by that pass's end
        (its start for the deadline pass), so polling it poll by poll
        stays bit-identical.
        """
        count = len(pending)
        latency = self.device.spec.host_query_latency
        inf = float("inf")
        if not count or latency <= 0 or self._now > deadline:
            return 0
        instants = _PollInstants(self._now, latency)
        watching = [(task, n) for n, task in enumerate(pending, 1)]
        watching += [(task, count) for task in eager]
        flip = stop = inf  # first non-quiet pass: by a finish / the deadline
        early = None  # no advance yet; then: did it stop at the deadline?
        while True:
            # One read of each watched task's state per advance.
            unfinished = []
            for entry in watching:
                task = entry[0]
                if task.finished:
                    flip = min(
                        flip,
                        instants.first_pass(task.last_end, entry[1], count),
                    )
                else:
                    unfinished.append(entry)
            if early is not None and len(unfinished) == len(watching):
                # The last advance finished no watched task.
                if not early:
                    break
                stop = instants.first_pass(deadline, count, count, "right") + 1
            watching = unfinished
            end = min(stop, flip + 1)
            horizon = instants.at(end * count) if end < inf else inf
            early = stop == inf and horizon > deadline  # not yet located
            self._advance_to(
                deadline if early else horizon,
                stop=tuple([entry[0] for entry in watching]),
            )
        covered = min(flip, stop)
        if covered == inf:
            raise EngineError("poll loop is stuck: no watched task can finish")
        polls = covered * count
        self._now = instants.at(polls)
        if self.tracer.enabled:
            for n, at in enumerate(instants.series(polls)):
                self._trace_poll(pending[n % count], at, False)
        return covered

    def wait(self, task: TaskHandle) -> float:
        """Block the host until a task completes; returns completion time."""
        blocked_at = self._now
        self._drain_task(task)
        self._now = max(self._now, task.last_end)
        if self.tracer.enabled:
            self.tracer.span(
                EventKind.HOST_WAIT,
                task.variant.name,
                blocked_at,
                self._now,
                task_id=task.task_id,
            )
        return task.last_end

    def wait_all(self, tasks: List[TaskHandle]) -> float:
        """Block the host until all tasks complete (device synchronize)."""
        blocked_at = self._now
        end = self._now
        for task in tasks:
            self._drain_task(task)
            end = max(end, task.last_end)
        self._now = max(self._now, end)
        if self.tracer.enabled:
            self.tracer.span(
                EventKind.HOST_WAIT,
                f"{len(tasks)} task(s)",
                blocked_at,
                self._now,
            )
        return self._now

    def wait_deadline(self, task: TaskHandle, deadline: float) -> bool:
        """Block until a task completes or the host clock hits ``deadline``.

        Returns True if the task finished.  Unlike :meth:`wait`, a task
        that cannot make progress (an injected hang) does not wedge the
        host: the clock advances to the deadline, other work keeps
        flowing, and the caller decides what to do with the straggler
        (usually :meth:`cancel`).  An infinite ``deadline`` waits like
        :meth:`wait`; its ``HOST_WAIT`` span records ``deadline`` as
        ``None``.
        """
        blocked_at = self._now
        deadline = max(deadline, self._now)
        while not task.finished:
            if not self._advance_to(deadline, stop=(task,)):
                break
        finished = task.finished
        if finished:
            self._now = max(self._now, task.last_end)
        else:
            self._now = max(self._now, deadline)
            self._advance_to(self._now)
        if self.tracer.enabled:
            self.tracer.span(
                EventKind.HOST_WAIT,
                task.variant.name,
                blocked_at,
                self._now,
                task_id=task.task_id,
                deadline=deadline if deadline < float("inf") else None,
                timed_out=not finished,
            )
        return finished

    def cancel(self, task: TaskHandle) -> None:
        """Abandon a task the host has given up on (hang cleanup).

        Undelivered work-groups are dropped; already-dispatched ones
        complete (a real device cannot claw back in-flight blocks, and
        their cycles stay in the utilization accounting).  The task is
        marked ``cancelled`` and will never read as finished.
        """
        self._arrivals = [
            entry for entry in self._arrivals if entry[2] is not task
        ]
        heapq.heapify(self._arrivals)
        for queue in self._ready:
            if any(batch.task is task for batch in queue):
                kept = [batch for batch in queue if batch.task is not task]
                queue.clear()
                queue.extend(kept)
        task._durations = _NO_DURATIONS
        task.cancelled = True
        if self.tracer.enabled:
            self.tracer.instant(
                EventKind.TASK_CANCEL,
                task.variant.name,
                self._now,
                task_id=task.task_id,
                completed_work_groups=task.completed_work_groups,
            )

    def barrier(self) -> float:
        """Drain every outstanding work-group (``cudaDeviceSynchronize``)."""
        blocked_at = self._now
        self._advance_to(float("inf"))
        self._now = max(self._now, self._device_horizon())
        if self.tracer.enabled:
            self.tracer.span(
                EventKind.BARRIER, "device", blocked_at, self._now
            )
        return self._now

    def host_compute(self, cycles: float) -> None:
        """Charge host-side work (selection compare, bookkeeping)."""
        if cycles < 0:
            raise EngineError(f"host_compute cycles must be >= 0: {cycles}")
        self._now += cycles
        self._advance_to(self._now)

    # ------------------------------------------------------------------
    # Simulation core
    # ------------------------------------------------------------------

    def _drain_task(self, task: TaskHandle) -> None:
        """Advance simulation until the given task finishes."""
        guard = 0
        while not task.finished:
            progressed = self._advance_to(float("inf"), stop=(task,))
            guard += 1
            if not progressed and not task.finished:
                raise EngineError(
                    f"task {task.task_id} cannot finish: engine is stuck "
                    f"(ready={sum(len(q) for q in self._ready)}, "
                    f"arrivals={len(self._arrivals)})"
                )
            if guard > 10_000_000:
                raise EngineError("engine livelock detected")

    def _device_horizon(self) -> float:
        """Latest unit free time (device-side frontier)."""
        return max(self._unit_heap)

    def _deliver_arrivals(self, up_to: float) -> None:
        """Move tasks whose submit time has passed onto the ready queues."""
        while self._arrivals and self._arrivals[0][0] <= up_to:
            _, _, task = heapq.heappop(self._arrivals)
            self._ready[task.priority].append(_Batch(task))

    def _advance_to(
        self, horizon: float, stop: Tuple[TaskHandle, ...] = ()
    ) -> bool:
        """Schedule work-groups with start times up to ``horizon``.

        Returns True if any progress was made.  Returns as soon as a task
        in ``stop`` finishes.

        Work-groups go out in runs of the head batch: once the arrivals
        due by the earliest free time are delivered, the batch dispatches
        while that free time is at most ``limit``, that is no later than
        the horizon and strictly before the next arrival, which could
        bring higher-priority work.  Free times never decrease, so a run
        that passes ``limit`` is over.
        """
        progressed = False
        profiling, eager, batch_work = self._ready
        arrivals = self._arrivals
        unit_heap = self._unit_heap
        heapreplace = heapq.heapreplace
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
            # Starts never decrease, so a run's first start is its least.
            if start < task.first_start:
                task.first_start = start
            limit = horizon
            if arrivals:
                limit = min(horizon, math.nextafter(arrivals[0][0], -math.inf))
            durations = batch.durations
            index = batch.index
            last_end = task.last_end
            busy = self._busy_cycles
            # The run's first work-group always goes: ``free_time`` is
            # below the next arrival and at most the horizon.
            for duration in memoryview(durations)[index:]:
                free_time = unit_heap[0]
                if free_time > limit:
                    break
                start = free_time if free_time > arrival else arrival
                end = start + duration
                heapreplace(unit_heap, end)
                if end > last_end:
                    last_end = end
                busy += duration
                index += 1
            task.completed_work_groups += index - batch.index
            task.last_end = last_end
            batch.index = index
            self._busy_cycles = busy
            progressed = True
            if index == len(durations):
                # A task's work-groups are one batch: exhausting it
                # finishes the task.
                queue.popleft()
                self._finalize(task)
                if stop and any(task is t for t in stop):
                    return True

    def _finalize(self, task: TaskHandle) -> None:
        """Complete a task: read its (noisy) measurement, emit its span."""
        if task.measure and task.measured is None:
            span = task.true_span_cycles
            task.measured = self.clock.read_interval(span)
