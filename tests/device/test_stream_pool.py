"""StreamPool: the serving layer's bounded, thread-safe stream leases.

A free stream is leased without waiting on the pool's condition, and a
release notifies only while an acquirer waits; what callers see stays the
same: recycled names, a lease count, blocking at capacity, and the same
``StreamError`` on a timed-out acquire.
"""

import sys
import threading

import pytest

from repro.device.engine import ExecutionEngine
from repro.device.stream import StreamPool
from repro.errors import StreamError

#: Generous bound on every join and wait below; a healthy run takes
#: milliseconds.
JOIN_TIMEOUT = 10.0


@pytest.fixture
def engine(cpu, config):
    return ExecutionEngine(cpu, config)


class TestLeases:
    def test_names_are_recycled(self, engine):
        pool = StreamPool(engine, capacity=3, prefix="lane")
        names = {f"lane-{i}" for i in range(3)}
        seen = set()
        for _ in range(10):
            leased = [pool.acquire() for _ in range(3)]
            assert {stream.name for stream in leased} == names
            seen.update(stream.name for stream in leased)
            for stream in leased:
                pool.release(stream)
        assert seen == names

    def test_release_clears_the_task_list(self, engine):
        pool = StreamPool(engine, capacity=1)
        stream = pool.acquire()
        stream.tasks.append(object())
        pool.release(stream)
        assert pool.acquire().tasks == []

    def test_in_flight_counts_leases(self, engine):
        pool = StreamPool(engine, capacity=4)
        assert pool.in_flight == 0
        leased = [pool.acquire() for _ in range(3)]
        assert pool.in_flight == 3
        pool.release(leased.pop())
        assert pool.in_flight == 2
        for stream in leased:
            pool.release(stream)
        assert pool.in_flight == 0

    def test_capacity_must_be_positive(self, engine):
        with pytest.raises(StreamError, match="capacity must be >= 1"):
            StreamPool(engine, capacity=0)


class TestBlocking:
    def test_full_pool_blocks_until_a_release(self, engine):
        """A capacity-1 pool holds a second thread until the first lease
        is released, then hands it the same stream."""
        pool = StreamPool(engine, capacity=1)
        held = pool.acquire()
        leased = []
        acquired = threading.Event()

        def second():
            leased.append(pool.acquire(timeout=JOIN_TIMEOUT))
            acquired.set()

        thread = threading.Thread(target=second)
        thread.start()
        try:
            assert not acquired.wait(0.2)
            assert pool.in_flight == 1
        finally:
            pool.release(held)
        assert acquired.wait(JOIN_TIMEOUT)
        thread.join(JOIN_TIMEOUT)
        assert not thread.is_alive()
        assert [stream.name for stream in leased] == [held.name]
        assert pool.in_flight == 1

    def test_timed_out_acquire_raises(self, engine):
        pool = StreamPool(engine, capacity=1)
        pool.acquire()
        with pytest.raises(StreamError) as caught:
            pool.acquire(timeout=0.01)
        assert str(caught.value) == (
            "no stream available after 0.01s (1/1 leased)"
        )
        assert pool.in_flight == 1

    def test_threads_never_exceed_capacity(self, engine):
        """Eight threads lease and release a three-stream pool in a
        tight loop: no more than three leases are ever held at once, no
        stream is held twice, and every lease is returned."""
        capacity, threads, rounds = 3, 8, 200
        pool = StreamPool(engine, capacity=capacity)
        guard = threading.Lock()
        holders = {}
        peak = [0]
        errors = []

        def client():
            try:
                for _ in range(rounds):
                    stream = pool.acquire(timeout=JOIN_TIMEOUT)
                    with guard:
                        assert stream.name not in holders
                        holders[stream.name] = threading.get_ident()
                        peak[0] = max(peak[0], len(holders))
                    with guard:
                        del holders[stream.name]
                    pool.release(stream)
            except Exception as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=client) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(JOIN_TIMEOUT)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        assert 1 <= peak[0] <= capacity
        assert pool.in_flight == 0
        assert len(pool._free) == capacity
