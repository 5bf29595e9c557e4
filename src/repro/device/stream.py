"""Streams: named in-order submission queues (CUDA-stream analogue).

DySel's GPU runtime launches each profiling candidate on its own stream so
candidates profile concurrently, then either synchronizes the device (sync
flow) or polls stream status while eagerly dispatching (async flow, §3.3).
A :class:`Stream` wraps the engine with per-stream task tracking and the
query/synchronize operations those flows use.

:class:`StreamPool` is the serving layer's admission substrate: a bounded,
thread-safe set of reusable streams per device.  Each admitted request
leases one stream for its lifetime, which (a) bounds how many requests can
be in flight on one device at once and (b) tags every batch submission
with the request's stream name, so a recorded trace shows per-request
queues (:mod:`repro.serve`).
"""

from __future__ import annotations

import threading
from typing import List, Mapping, Optional

from ..errors import StreamError
from ..kernel.kernel import KernelVariant, WorkRange
from .engine import ExecutionEngine, Priority, TaskHandle


class Stream:
    """An in-order submission queue on one device."""

    def __init__(self, engine: ExecutionEngine, name: str) -> None:
        if not name:
            raise StreamError("stream name must be non-empty")
        self.engine = engine
        self.name = name
        self.tasks: List[TaskHandle] = []
        self._destroyed = False

    def submit(
        self,
        variant: KernelVariant,
        args: Mapping[str, object],
        units: WorkRange,
        priority: Priority = Priority.BATCH,
        measure: bool = False,
    ) -> TaskHandle:
        """Launch a kernel on this stream."""
        self._check_alive()
        task = self.engine.submit(
            variant, args, units, priority=priority, stream=self.name,
            measure=measure,
        )
        self.tasks.append(task)
        return task

    def query(self) -> bool:
        """``cudaStreamQuery``: has all work on this stream completed?

        Costs host query latency (see §5.1: the query often takes longer
        than the micro-profile it is checking on).
        """
        self._check_alive()
        for task in self.tasks:
            if not task.finished:
                return self.engine.poll(task)
        # All finished; one poll still pays the host round-trip.
        if self.tasks:
            return self.engine.poll(self.tasks[-1])
        return True

    def synchronize(self) -> float:
        """Block until all work on this stream completes."""
        self._check_alive()
        return self.engine.wait_all(self.tasks)

    def destroy(self) -> None:
        """Release the stream; further use raises."""
        self._check_alive()
        self._destroyed = True

    def _check_alive(self) -> None:
        """Refuse operations on a destroyed stream."""
        if self._destroyed:
            raise StreamError(f"stream {self.name!r} was destroyed")

    def __repr__(self) -> str:
        state = "destroyed" if self._destroyed else f"{len(self.tasks)} tasks"
        return f"Stream({self.name!r}, {state})"


class StreamPool:
    """A bounded, thread-safe pool of reusable streams on one device.

    ``acquire`` blocks while all ``capacity`` streams are leased — that is
    the serving layer's per-device admission control: at most ``capacity``
    requests can be in flight on the device at once, the rest queue at the
    pool.  Streams are recycled rather than destroyed; a released stream
    keeps its name, so trace lanes stay stable across requests.
    """

    def __init__(
        self, engine: ExecutionEngine, capacity: int, prefix: str = "serve"
    ) -> None:
        """Create ``capacity`` streams named ``{prefix}-0 .. {prefix}-N``."""
        if capacity < 1:
            raise StreamError(
                f"stream pool capacity must be >= 1, got {capacity}"
            )
        self.engine = engine
        self.capacity = capacity
        self._free: List[Stream] = [
            Stream(engine, f"{prefix}-{i}") for i in range(capacity)
        ]
        self._leased: int = 0
        #: Acquirers blocked in ``wait_for``: a release notifies only
        #: while there is one.
        self._waiting: int = 0
        self._cond = threading.Condition()

    def acquire(self, timeout: Optional[float] = None) -> Stream:
        """Lease a stream, blocking until one frees up.

        A free stream is taken at once; only a caller that finds none
        waits on the condition.  Raises :class:`StreamError` when
        ``timeout`` (seconds) elapses first — serving callers surface
        that as an admission failure rather than deadlocking the client
        thread.
        """
        with self._cond:
            if not self._free:
                self._waiting += 1
                try:
                    free = self._cond.wait_for(
                        self._free.__len__, timeout=timeout
                    )
                finally:
                    self._waiting -= 1
                if not free:
                    raise StreamError(
                        f"no stream available after {timeout}s "
                        f"({self._leased}/{self.capacity} leased)"
                    )
            stream = self._free.pop()
            self._leased += 1
            return stream

    def release(self, stream: Stream) -> None:
        """Return a leased stream to the pool (clearing its task list)."""
        with self._cond:
            stream.tasks.clear()
            self._free.append(stream)
            self._leased -= 1
            if self._waiting:
                self._cond.notify()

    @property
    def in_flight(self) -> int:
        """How many streams are currently leased."""
        with self._cond:
            return self._leased

    def __repr__(self) -> str:
        return f"StreamPool({self._leased}/{self.capacity} leased)"
