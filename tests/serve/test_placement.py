"""Mixed CPU+GPU fleets: placement as a dimension of the selection tuple.

End-to-end checks that the scheduler's two-level dispatch (kind via
``decide_placement``, device within kind) composes with the store, the
static cost-bound priors, quarantine, and the trace vocabulary.
"""

import dataclasses

import pytest

from repro.config import AnalyzeSettings, ReproConfig
from repro.device import make_cpu, make_gpu
from repro.errors import LaunchAbortedError, ServeError
from repro.obs.events import EventKind
from repro.obs.export import reconcile, summarize
from repro.serve import LaunchScheduler, ServeRequest
from repro.workloads import spmv_csr
from tests.conftest import make_axpy_args

SIZE = 200  # -> 50 workload units
SPLIT_SIZE = 1024  # -> 256 workload units; mixed-fleet alignment is 32


def mixed_scheduler(config, cpus=1, gpus=1, **kwargs):
    devices = tuple(make_cpu(config) for _ in range(cpus)) + tuple(
        make_gpu(config) for _ in range(gpus)
    )
    scheduler = LaunchScheduler(devices, **kwargs)
    if cpus:
        scheduler.register_pool(
            spmv_csr.input_dependent_case("cpu", "random", SIZE, config).pool,
            device_kind="cpu",
        )
    if gpus:
        scheduler.register_pool(
            spmv_csr.input_dependent_case("gpu", "random", SIZE, config).pool,
            device_kind="gpu",
        )
    return scheduler


def spmv_request(config, **kwargs):
    """A fresh spmv request (args are device-kind independent)."""
    case = spmv_csr.input_dependent_case("cpu", "random", SIZE, config)
    return ServeRequest(
        kernel=case.pool.name,
        args=case.fresh_args(),
        workload_units=case.workload_units,
        **kwargs,
    )


class TestKindScopedRegistration:
    def test_unknown_kind_rejected(self, config, fast_slow_pool):
        scheduler = LaunchScheduler((make_cpu(config),))
        with pytest.raises(ServeError, match="no 'gpu' devices"):
            scheduler.register_pool(fast_slow_pool, device_kind="gpu")

    def test_kind_scoped_pools_share_one_kernel_name(self, config):
        scheduler = mixed_scheduler(config)
        cpu_rt = scheduler.runtime("cpu0")
        gpu_rt = scheduler.runtime("gpu1")
        assert "spmv_csr" in cpu_rt.registry
        assert "spmv_csr" in gpu_rt.registry
        # Kind-specific variants: 4 CPU schedules vs 2 GPU kernels.
        assert len(cpu_rt.registry.pool("spmv_csr").variants) == 4
        assert len(gpu_rt.registry.pool("spmv_csr").variants) == 2

    def test_unregistered_kernel_raises(self, config):
        scheduler = mixed_scheduler(config)
        with pytest.raises(ServeError, match="not registered on any"):
            scheduler.launch(
                ServeRequest(kernel="nope", args={}, workload_units=8)
            )


class TestPlacementEndToEnd:
    def test_mixed_fleet_serves_and_validates(self, config):
        scheduler = mixed_scheduler(config, cpus=2, gpus=2)
        case = spmv_csr.input_dependent_case("cpu", "random", SIZE, config)
        outcomes = []
        for _ in range(8):
            request = spmv_request(config)
            outcomes.append(scheduler.launch(request))
            assert case.check(request.args)
        assert all(o.placement for o in outcomes)
        assert sum(scheduler.stats.placements.values()) == 8

    def test_cold_placement_uses_static_prior_then_warms(self):
        """The cold->warm basis flip: first placements lean on the static
        cost-bound prior, later ones on the store-measured EWMA."""
        config = dataclasses.replace(
            ReproConfig(), analyze=AnalyzeSettings(dominance=True)
        )
        scheduler = mixed_scheduler(config)
        first = scheduler.launch(spmv_request(config))
        assert "static cost-bound placement" in first.placement
        # Warm every kind's class so the EWMA exists fleet-wide.
        scheduler.launch(spmv_request(config, device_kind="cpu"))
        scheduler.launch(spmv_request(config, device_kind="gpu"))
        warm = scheduler.launch(spmv_request(config))
        assert "store-measured placement" in warm.placement

    def test_pinned_kind_is_honored(self, config):
        scheduler = mixed_scheduler(config, cpus=2, gpus=2)
        for kind, device_prefix in (("cpu", "cpu"), ("gpu", "gpu")):
            outcome = scheduler.launch(
                spmv_request(config, device_kind=kind)
            )
            assert outcome.device.startswith(device_prefix)
            assert outcome.placement.startswith("pinned device kind")

    def test_unknown_pinned_kind_noted_and_ignored(self, config):
        scheduler = mixed_scheduler(config)
        outcome = scheduler.launch(spmv_request(config, device_kind="tpu"))
        assert "pinned device kind 'tpu' is unknown (ignored)" in (
            outcome.placement
        )

    def test_dynamic_load_policy_balances(self, config):
        scheduler = mixed_scheduler(
            config, cpus=2, gpus=2, placement_policy="dynamic-load"
        )
        for _ in range(12):
            scheduler.launch(spmv_request(config))
        # Load balancing touches both kinds rather than camping on one.
        assert set(scheduler.stats.placements) == {"cpu", "gpu"}

    def test_bad_placement_policy_rejected(self, config):
        with pytest.raises(ServeError, match="unknown placement_policy"):
            LaunchScheduler(
                (make_cpu(config),), placement_policy="round-robin"
            )


class TestQuarantinePlacement:
    def quarantine_kind(self, scheduler, config, kind):
        pool = spmv_csr.input_dependent_case(
            kind, "random", SIZE, config
        ).pool
        for variant in pool.variant_names:
            for _ in range(config.faults.quarantine_threshold):
                scheduler.store.quarantine.note_fault(
                    pool.name, variant, "test"
                )

    def test_fully_quarantined_kind_excluded(self, config):
        scheduler = mixed_scheduler(config, cpus=1, gpus=1)
        self.quarantine_kind(scheduler, config, "gpu")
        outcome = scheduler.launch(spmv_request(config))
        assert outcome.device.startswith("cpu")
        assert "single eligible device kind" in outcome.placement
        assert "'gpu' quarantined" in outcome.placement

    def test_all_kinds_quarantined_aborts_structurally(self, config):
        """Placement falls through so the runtime raises its structured
        abort (with per-variant detail), exactly as pre-fleet."""
        scheduler = mixed_scheduler(config, cpus=1, gpus=1)
        self.quarantine_kind(scheduler, config, "cpu")
        self.quarantine_kind(scheduler, config, "gpu")
        with pytest.raises(LaunchAbortedError) as excinfo:
            scheduler.launch(spmv_request(config))
        assert excinfo.value.kernel == "spmv_csr"
        assert excinfo.value.quarantined


class TestPlacementTracing:
    def test_placement_events_on_mixed_fleet(self):
        config = ReproConfig(trace=True)
        scheduler = mixed_scheduler(config)
        scheduler.launch(spmv_request(config))
        kinds = [e.kind for e in scheduler.tracer.events]
        assert EventKind.PLACEMENT in kinds
        event = next(
            e
            for e in scheduler.tracer.events
            if e.kind is EventKind.PLACEMENT
        )
        assert set(event.args["projected"]) == {"cpu", "gpu"}
        assert event.args["device_kind"] in ("cpu", "gpu")

    def test_no_placement_events_on_homogeneous_fleet(self, fast_slow_pool):
        """Single-kind fleets keep their pre-fleet trace shape."""
        config = ReproConfig(trace=True)
        scheduler = LaunchScheduler(
            tuple(make_cpu(config) for _ in range(2))
        )
        scheduler.register_pool(fast_slow_pool)
        scheduler.launch(
            ServeRequest(
                kernel="axpy",
                args=make_axpy_args(512, config),
                workload_units=512,
            )
        )
        kinds = [e.kind for e in scheduler.tracer.events]
        assert EventKind.PLACEMENT not in kinds

    def test_summary_counts_placements_and_traces_reconcile(self):
        config = ReproConfig(trace=True)
        scheduler = mixed_scheduler(config, cpus=2, gpus=2)
        for _ in range(6):
            scheduler.launch(spmv_request(config))
        summary = summarize(scheduler.tracer.events)
        assert summary.placements == 6
        assert "placement decision(s)" in summary.format()
        for events in scheduler.device_traces().values():
            assert reconcile(events) == []


def dominance_config():
    return dataclasses.replace(
        ReproConfig(), analyze=AnalyzeSettings(dominance=True)
    )


def counting(monkeypatch, owner, name):
    """Count calls of ``owner.name`` (an instance attribute shadows it)."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestPlacementReason:
    """``ServeOutcome.placement`` holds the reason placement gave."""

    def test_one_kind_fleet_records_single_eligible_kind(
        self, config, fast_slow_pool
    ):
        scheduler = LaunchScheduler(tuple(make_cpu(config) for _ in range(2)))
        scheduler.register_pool(fast_slow_pool)
        for _ in range(3):
            outcome = scheduler.launch(
                ServeRequest(
                    kernel="axpy",
                    args=make_axpy_args(512, config),
                    workload_units=512,
                )
            )
            assert outcome.placement == "single eligible device kind"

    def test_mixed_fleet_records_the_winners_basis(self):
        config = dominance_config()
        scheduler = mixed_scheduler(config)
        cold = scheduler.launch(spmv_request(config))
        assert cold.placement == "static cost-bound placement"
        scheduler.launch(spmv_request(config, device_kind="cpu"))
        scheduler.launch(spmv_request(config, device_kind="gpu"))
        warm = scheduler.launch(spmv_request(config))
        assert warm.placement == "store-measured placement"

    def test_mixed_fleet_without_priors_records_load(self, config):
        scheduler = mixed_scheduler(config)
        outcome = scheduler.launch(spmv_request(config))
        assert outcome.placement == "dynamic load placement"


class TestPlacementInputs:
    """Placement reads a quarantine flag only when more than one kind
    bids, and a static prior only for a cold class; nothing it decides
    changes."""

    def test_quarantined_kind_of_a_mixed_fleet_is_noted(self):
        config = ReproConfig(trace=True)
        scheduler = mixed_scheduler(config, cpus=1, gpus=1)
        TestQuarantinePlacement().quarantine_kind(scheduler, config, "gpu")
        outcome = scheduler.launch(spmv_request(config))
        note = (
            "single eligible device kind; "
            "'gpu' quarantined (excluded from placement)"
        )
        assert outcome.device.startswith("cpu")
        assert outcome.placement == note
        (event,) = [
            e
            for e in scheduler.tracer.events
            if e.kind is EventKind.PLACEMENT
        ]
        assert event.args["reason"] == note
        assert set(event.args["projected"]) == {"cpu"}

    def test_quarantined_kind_takes_no_split_part(self, config):
        scheduler = mixed_scheduler(config, cpus=2, gpus=2)
        TestQuarantinePlacement().quarantine_kind(scheduler, config, "gpu")
        case = spmv_csr.input_dependent_case("cpu", "random", SPLIT_SIZE, config)
        request = ServeRequest(
            kernel=case.pool.name,
            args=case.fresh_args(),
            workload_units=case.workload_units,
        )
        split = scheduler.launch_split(request, parts=4)
        assert split.devices == ("cpu0", "cpu1")
        assert case.check(request.args)

    def test_lone_kind_reads_no_quarantine_flag(
        self, monkeypatch, config, fast_slow_pool
    ):
        """The runtime's own check is the one ledger read per launch."""
        scheduler = LaunchScheduler(tuple(make_cpu(config) for _ in range(2)))
        scheduler.register_pool(fast_slow_pool)
        reads = counting(monkeypatch, scheduler.store.quarantine, "quarantined")
        for launches in range(1, 4):
            scheduler.launch(
                ServeRequest(
                    kernel="axpy",
                    args=make_axpy_args(512, config),
                    workload_units=512,
                )
            )
            assert len(reads) == launches

    def test_mixed_fleet_reads_every_kinds_flag(self, monkeypatch, config):
        scheduler = mixed_scheduler(config)
        reads = counting(monkeypatch, scheduler.store.quarantine, "quarantined")
        scheduler.launch(spmv_request(config))
        # One read per bidding kind, and the runtime's own.
        assert len(reads) == 3

    def test_lone_kind_fully_quarantined_still_aborts(
        self, config, fast_slow_pool
    ):
        scheduler = LaunchScheduler((make_cpu(config),))
        scheduler.register_pool(fast_slow_pool)
        for variant in fast_slow_pool.variant_names:
            for _ in range(config.faults.quarantine_threshold):
                scheduler.store.quarantine.note_fault("axpy", variant, "test")
        with pytest.raises(LaunchAbortedError) as excinfo:
            scheduler.launch(
                ServeRequest(
                    kernel="axpy",
                    args=make_axpy_args(512, config),
                    workload_units=512,
                )
            )
        assert set(excinfo.value.quarantined) == set(
            fast_slow_pool.variant_names
        )

    def test_cold_class_places_by_static_prior_beside_warm_ones(self):
        """A kernel's warm classes do not hide the prior from a cold one."""
        config = dominance_config()
        scheduler = mixed_scheduler(config)
        for kind in ("cpu", "gpu"):
            scheduler.launch(spmv_request(config, device_kind=kind))
        assert "store-measured" in scheduler.launch(
            spmv_request(config)
        ).placement
        large = spmv_csr.input_dependent_case("cpu", "random", 4 * SIZE, config)
        cold = scheduler.launch(
            ServeRequest(
                kernel=large.pool.name,
                args=large.fresh_args(),
                workload_units=large.workload_units,
            )
        )
        assert not cold.store_hit
        assert cold.placement == "static cost-bound placement"

    def test_warm_class_asks_for_no_static_prior(self, monkeypatch):
        config = dominance_config()
        scheduler = mixed_scheduler(config)
        priors = counting(monkeypatch, scheduler, "_static_unit_cost")
        scheduler.launch(spmv_request(config))
        assert sorted(kind for _, kind in priors) == ["cpu", "gpu"]
        for kind in ("cpu", "gpu"):
            scheduler.launch(spmv_request(config, device_kind=kind))
        del priors[:]
        for _ in range(3):
            outcome = scheduler.launch(spmv_request(config))
            assert outcome.placement == "store-measured placement"
        assert priors == []

    def test_warm_split_asks_for_no_static_prior(self, monkeypatch):
        config = dominance_config()
        scheduler = mixed_scheduler(config, cpus=2, gpus=2)
        case = spmv_csr.input_dependent_case("cpu", "random", SPLIT_SIZE, config)

        def request(**kwargs):
            return ServeRequest(
                kernel=case.pool.name,
                args=case.fresh_args(),
                workload_units=case.workload_units,
                **kwargs,
            )

        for kind in ("cpu", "gpu"):
            scheduler.launch(request(device_kind=kind))
        priors = counting(monkeypatch, scheduler, "_static_unit_cost")
        split_request = request()
        split = scheduler.launch_split(split_request, parts=4)
        assert priors == []
        assert len(split.parts) > 1
        assert case.check(split_request.args)
