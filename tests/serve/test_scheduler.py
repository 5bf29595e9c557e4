"""Scheduler behaviour: one micro-profile per class, warm stores,
invalidation, and concurrent traces that still reconcile."""

import threading

import pytest

from repro.config import ReproConfig
from repro.device import make_cpu
from repro.device.cost import cost_memo_stats, statically_priced
from repro.device.engine import ExecutionEngine
from repro.errors import ServeError
from repro.obs.export import reconcile
from repro.obs.events import EventKind
from repro.serve import LaunchScheduler, SelectionStore, ServeRequest
from repro.workloads import histogram, kmeans, spmv_csr
from repro.workloads.base import BenchmarkCase
from repro.harness import run_served
from tests.conftest import axpy_output_ok, make_axpy_args

UNITS = 512


def make_fleet(config, count=4):
    """A homogeneous simulated CPU fleet."""
    return tuple(make_cpu(config) for _ in range(count))


def make_batch(config, count, units=UNITS):
    """Identical-class requests with fresh argument mappings each."""
    return [
        ServeRequest(
            kernel="axpy",
            args=make_axpy_args(units, config),
            workload_units=units,
        )
        for _ in range(count)
    ]


def make_scheduler(config, pool, devices=4, **kwargs):
    scheduler = LaunchScheduler(make_fleet(config, devices), **kwargs)
    scheduler.register_pool(pool)
    return scheduler


class TestSingleProfilePerClass:
    def test_concurrent_same_class_profiles_once(self, fast_slow_pool, config):
        scheduler = make_scheduler(config, fast_slow_pool)
        batch = make_batch(config, 16)
        outcomes = scheduler.serve_all(batch, clients=8)
        assert sum(o.profiled for o in outcomes) == 1
        assert len({o.workload_class for o in outcomes}) == 1
        for request in batch:
            assert axpy_output_ok(request.args)

    def test_two_threads_one_microprofile(self, fast_slow_pool, config):
        """The ISSUE regression: a same-class race must not double-profile."""
        scheduler = make_scheduler(config, fast_slow_pool, devices=2)
        barrier = threading.Barrier(2)
        outcomes = []
        lock = threading.Lock()

        def client():
            request = ServeRequest(
                kernel="axpy",
                args=make_axpy_args(UNITS, config),
                workload_units=UNITS,
            )
            barrier.wait()
            outcome = scheduler.launch(request)
            with lock:
                outcomes.append(outcome)

        threads = [threading.Thread(target=client) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sum(o.profiled for o in outcomes) == 1
        loser = next(o for o in outcomes if not o.profiled)
        assert loser.lease is None

    def test_distinct_classes_profile_independently(
        self, fast_slow_pool, config
    ):
        scheduler = make_scheduler(config, fast_slow_pool)
        batch = make_batch(config, 4, units=256) + make_batch(
            config, 4, units=4096
        )
        outcomes = scheduler.serve_all(batch, clients=4)
        assert len({o.workload_class for o in outcomes}) == 2
        assert sum(o.profiled for o in outcomes) == 2

    def test_profiled_launch_publishes_selection(self, fast_slow_pool, config):
        scheduler = make_scheduler(config, fast_slow_pool)
        scheduler.serve_all(make_batch(config, 8), clients=4)
        assert len(scheduler.store) == 1
        (key,) = scheduler.store.keys()
        entry = scheduler.store.lookup(key)
        assert entry.selected == "fast"
        assert entry.kernel == "axpy"


class TestWarmStore:
    def test_warm_store_eliminates_profiling(
        self, fast_slow_pool, config, tmp_path
    ):
        path = str(tmp_path / "store.json")
        cold = make_scheduler(config, fast_slow_pool)
        cold.serve_all(make_batch(config, 8), clients=4)
        cold.store.save(path)

        warm = make_scheduler(
            config, fast_slow_pool, store=SelectionStore.load(path)
        )
        outcomes = warm.serve_all(make_batch(config, 8), clients=4)
        assert sum(o.profiled for o in outcomes) == 0
        assert all(o.store_hit for o in outcomes)
        assert all(o.result.selected == "fast" for o in outcomes)
        assert warm.stats.profiling_latency_cycles == 0.0

    def test_initial_registration_keeps_loaded_entries(
        self, fast_slow_pool, config, tmp_path
    ):
        """Startup pool registration must not evict a freshly-loaded store."""
        path = str(tmp_path / "store.json")
        cold = make_scheduler(config, fast_slow_pool)
        cold.serve_all(make_batch(config, 4), clients=2)
        cold.store.save(path)

        store = SelectionStore.load(path)
        assert len(store) == 1
        make_scheduler(config, fast_slow_pool, store=store)
        assert len(store) == 1


class TestWarmLaunchDrain:
    def test_serving_sized_warm_launch_drains_analytically(
        self, fast_slow_pool, config, monkeypatch
    ):
        """A warm store-hit launch of at most 512 work-groups dispatches
        all of its work-groups in one ``_advance_to`` call: one run,
        whatever the queue size."""
        scheduler = make_scheduler(config, fast_slow_pool, devices=1)
        scheduler.launch(make_batch(config, 1)[0])  # profiles, publishes

        submitted, advances = [], []
        submit = ExecutionEngine.submit
        advance = ExecutionEngine._advance_to

        def recording_submit(self, *args, **kwargs):
            task = submit(self, *args, **kwargs)
            submitted.append(task)
            return task

        def recording_advance(self, horizon, stop=()):
            before = sum(task.completed_work_groups for task in submitted)
            progressed = advance(self, horizon, stop)
            after = sum(task.completed_work_groups for task in submitted)
            advances.append(after - before)
            return progressed

        monkeypatch.setattr(ExecutionEngine, "submit", recording_submit)
        monkeypatch.setattr(ExecutionEngine, "_advance_to", recording_advance)
        outcome = scheduler.launch(make_batch(config, 1)[0])

        assert outcome.store_hit and not outcome.profiled
        assert [task.total_work_groups for task in submitted] == [UNITS]
        assert UNITS <= 512
        assert [count for count in advances if count] == [UNITS]
        assert submitted[0].finished


def warm_launch_memo_delta(case, config):
    """Serve three same-class requests of ``case`` on one device; return
    the first outcome, the third, and the third's (memo hits, memo
    misses)."""
    scheduler = LaunchScheduler(make_fleet(config, 1))
    scheduler.register_pool(case.pool)

    def launch():
        request = ServeRequest(
            kernel=case.pool.name,
            args=case.fresh_args(),
            workload_units=case.workload_units,
        )
        outcome = scheduler.launch(request)
        assert case.validate(request.args)
        return outcome

    first = launch()  # profiles (or picks) and publishes
    launch()  # first whole-launch pricing of the winner
    before = cost_memo_stats()
    outcome = launch()
    after = cost_memo_stats()
    return first, outcome, (
        after["hits"] - before["hits"],
        after["misses"] - before["misses"],
    )


class TestWarmLaunchMemo:
    def test_warm_kmeans_launch_is_priced_from_the_memo(self, config):
        """kmeans's footprints are constants, so its variants are
        statically priced: once a whole-launch range has been priced, a
        warm store-hit launch of the same class derives nothing."""
        case = kmeans.schedule_case(256 * kmeans.POINTS_PER_UNIT, config)
        first, outcome, (hits, misses) = warm_launch_memo_delta(case, config)
        assert first.profiled  # profiles slices, publishes
        assert outcome.store_hit and not outcome.profiled
        assert (hits, misses) == (1, 0)

    @pytest.mark.parametrize("workload", ["spmv-csr", "histogram"])
    def test_warm_data_priced_launch_is_priced_from_the_memo(
        self, workload, config
    ):
        """spmv-csr and histogram-atomic price the input they read.  Every
        request binds the same frozen input, so a warm store-hit launch
        is one memo hit as well."""
        if workload == "spmv-csr":
            case = spmv_csr.input_dependent_case("cpu", "random", 1024, config)
        else:
            case = histogram.swap_case("uniform", 1 << 14, config)
        _first, outcome, (hits, misses) = warm_launch_memo_delta(case, config)
        assert outcome.store_hit and not outcome.profiled
        served = case.pool.variant(outcome.result.selected)
        assert not statically_priced(served.ir)
        assert (hits, misses) == (1, 0)


class TestInvalidation:
    def test_reregistration_evicts_persisted_selections(
        self, fast_slow_pool, config
    ):
        scheduler = make_scheduler(config, fast_slow_pool)
        scheduler.serve_all(make_batch(config, 4), clients=2)
        assert len(scheduler.store) == 1
        scheduler.register_pool(fast_slow_pool)  # replacement, not startup
        assert len(scheduler.store) == 0

    def test_next_request_reprofiles_after_invalidation(
        self, fast_slow_pool, config
    ):
        scheduler = make_scheduler(config, fast_slow_pool)
        scheduler.serve_all(make_batch(config, 4), clients=2)
        scheduler.register_pool(fast_slow_pool)
        outcomes = scheduler.serve_all(make_batch(config, 4), clients=2)
        assert sum(o.profiled for o in outcomes) == 1


class TestTraces:
    def test_concurrent_device_traces_reconcile(self, fast_slow_pool):
        config = ReproConfig(trace=True)
        scheduler = make_scheduler(config, fast_slow_pool)
        scheduler.serve_all(make_batch(config, 16), clients=8)
        traces = scheduler.device_traces()
        assert any(events for events in traces.values())
        for device, events in traces.items():
            assert reconcile(events) == [], device

    def test_scheduler_trace_records_serving_events(self, fast_slow_pool):
        config = ReproConfig(trace=True)
        scheduler = make_scheduler(config, fast_slow_pool)
        scheduler.serve_all(make_batch(config, 8), clients=4)
        # Cold requests that lose the profile lease run without waiting
        # for the publish, so whether one of the eight hits depends on
        # thread timing.  The publish is done once serve_all returns:
        # one more request of the class is certain to hit.
        scheduler.launch(make_batch(config, 1)[0])
        kinds = [event.kind for event in scheduler.tracer.events]
        assert kinds.count(EventKind.SERVE_ENQUEUE) == 9
        assert kinds.count(EventKind.SERVE_ADMIT) == 9
        assert kinds.count(EventKind.PROFILE_LEASE_GRANT) == 1
        assert kinds.count(EventKind.STORE_HIT) >= 1


class TestFleet:
    def test_requires_a_device(self):
        with pytest.raises(ServeError):
            LaunchScheduler(())

    def test_unknown_device_name_rejected(self, fast_slow_pool, config):
        scheduler = make_scheduler(config, fast_slow_pool, devices=2)
        assert scheduler.devices == ("cpu0", "cpu1")
        with pytest.raises(ServeError):
            scheduler.runtime("tpu9")

    def test_outcomes_preserve_request_order(self, fast_slow_pool, config):
        scheduler = make_scheduler(config, fast_slow_pool)
        batch = make_batch(config, 8)
        outcomes = scheduler.serve_all(batch, clients=4)
        assert [o.request for o in outcomes] == batch

    def test_accounting_covers_every_request(self, fast_slow_pool, config):
        scheduler = make_scheduler(config, fast_slow_pool)
        outcomes = scheduler.serve_all(make_batch(config, 12), clients=8)
        stats = scheduler.stats
        assert stats.requests == 12
        assert (
            stats.profiled_launches + stats.store_hits + stats.eager_launches
            == 12
        )
        assert sum(stats.per_device.values()) == 12
        assert set(stats.per_device) <= set(scheduler.devices)
        assert 0.0 < stats.profile_rate <= 1.0
        assert sum(o.profiled for o in outcomes) == stats.profiled_launches

    def test_serve_all_rejects_bad_client_count(self, fast_slow_pool, config):
        scheduler = make_scheduler(config, fast_slow_pool)
        with pytest.raises(ServeError):
            scheduler.serve_all([], clients=0)

    @pytest.mark.parametrize("held", [None, 0, 1])
    def test_equal_finishes_go_to_fewer_leased_streams(
        self, fast_slow_pool, config, held
    ):
        """An idle fleet projects equal finishes on every device; the
        device with fewer leased streams wins, else the first."""
        scheduler = make_scheduler(config, fast_slow_pool, devices=2)
        if held is not None:
            scheduler._workers[held].streams.acquire()
        (outcome,) = scheduler.serve_all(make_batch(config, 1), clients=1)
        expected = {None: "cpu0", 0: "cpu1", 1: "cpu0"}[held]
        assert outcome.device == expected


class TestHarnessEntryPoint:
    def test_run_served_validates_and_returns_scheduler(
        self, fast_slow_pool, config
    ):
        case = BenchmarkCase(
            name="axpy/serve",
            pool=fast_slow_pool,
            make_args=lambda: make_axpy_args(UNITS, config),
            workload_units=UNITS,
            check=axpy_output_ok,
        )
        outcomes, scheduler = run_served(
            case, make_fleet(config), requests=8, clients=4, config=config
        )
        assert len(outcomes) == 8
        assert sum(o.profiled for o in outcomes) == 1
        assert scheduler.stats.requests == 8
