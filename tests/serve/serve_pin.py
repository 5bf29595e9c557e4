"""A seeded one-client serving replay, recorded for pinning.

``test_serve_pin`` replays the scenario below and compares every field
against ``serve_pin.json``, a snapshot written by this module.  It pins
what :class:`~repro.serve.LaunchScheduler` decides and measures on a
fleet with every serving feature armed: static dominance pruning, the
drift loop, the selection predictor, QoS contracts with profiling
backpressure, auto-splitting, and seeded fault plans.  Regenerate the
snapshot (only when a change to serving behaviour is intended) with::

    PYTHONPATH=src python -m tests.serve.serve_pin > tests/serve/serve_pin.json

The traffic comes from :mod:`repro.traffic`: each phase is one seeded
:class:`~repro.traffic.TrafficGenerator` schedule over a synthetic axpy
catalog, replayed in arrival order from one closed-loop client.  Between
phases the scenario changes what the fleet sees, so every branch of the
serve path fires at least once (:data:`BRANCHES`): a profile lease held
by hand, backpressure held by hand, a latency fault that drifts the
pinned class, a crash that knocks a predicted variant onto a sibling,
and crashes that quarantine a variant.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.analyze.costbound import clear_cache
from repro.compiler.variants import VariantPool
from repro.config import AnalyzeSettings, ReproConfig
from repro.device import make_cpu
from repro.drift import DriftConfig
from repro.faults import FaultKind, FaultPlan, FaultRule
from repro.kernel import AccessPattern, KernelSpec
from repro.predict import PredictConfig
from repro.serve import (
    LaunchScheduler,
    QoSConfig,
    SelectionStore,
    SplitOutcome,
    TenantSpec,
)
from repro.serve.qos import AdmissionController
from repro.serve.signature import derive_signature
from repro.traffic import (
    FixedSizes,
    ParetoSizes,
    PoissonArrivals,
    TenantProfile,
    TrafficGenerator,
    TrafficReplayer,
)
from repro.workloads.base import BenchmarkCase

from tests.conftest import (
    axpy_output_ok,
    axpy_signature,
    make_axpy_args,
    make_axpy_variant,
)

#: Every serve-path branch the scenario must reach.
BRANCHES = (
    "store hit",
    "lease-held profile",
    "lease not granted",
    "prediction applied",
    "prediction rejected",
    "prediction faulted onto a sibling",
    "cold deferral",
    "drift re-arm",
    "drift deferral",
    "split part",
    "quarantine fallback",
)

#: The pinned class's size: served from the store throughout.
PINNED_UNITS = 512

#: Requests of at least this many units split across the fleet.
SPLIT_THRESHOLD = 16384

#: Fleet devices (CPU): two, so a split has somewhere to go.
DEVICES = 2


def axpy_pool() -> VariantPool:
    """fast < mid by construction; slow is statically dominated."""
    return VariantPool(
        spec=KernelSpec(signature=axpy_signature()),
        variants=(
            make_axpy_variant("fast"),
            make_axpy_variant("mid", AccessPattern.STRIDED, stride_bytes=32),
            make_axpy_variant(
                "slow",
                AccessPattern.STRIDED,
                stride_bytes=128,
                flops_per_trip=512.0,
            ),
        ),
    )


def catalog(pool: VariantPool, config: ReproConfig):
    """One ``axpy`` workload; a case per (clamped) size bucket."""

    def build(units: int, _config) -> BenchmarkCase:
        n = max(64, min(SPLIT_THRESHOLD, units))
        return BenchmarkCase(
            name=f"axpy/{n}",
            pool=pool,
            make_args=lambda: make_axpy_args(n, config),
            workload_units=n,
            check=axpy_output_ok,
        )

    return {"axpy": build}


class HeldAdmission(AdmissionController):
    """Admission whose backpressure can also be held on by hand.

    A one-client replay never queues, so real pressure never builds;
    ``held`` stands in for an overloaded fleet.
    """

    held = False

    @property
    def deferring(self) -> bool:
        return self.held or super().deferring


@dataclass(frozen=True)
class Phase:
    """One schedule of the scenario and what the fleet sees meanwhile."""

    name: str
    seed: int
    horizon: float
    sizes: object
    #: Rules installed on every device for the phase (none: clean).
    faults: Tuple[FaultRule, ...] = ()
    #: Hold the profile lease of this many units' class by hand.
    hold_lease_units: Optional[int] = None
    #: Hold backpressure on for the whole phase.
    backpressure: bool = False


PHASES = (
    # Cold classes profile under their lease and train the predictor;
    # repeats are store hits that freeze the pinned class's baseline.
    Phase("train", 11, 1.0, ParetoSizes(1.1, min_units=128, max_units=1024)),
    Phase("warm", 12, 0.4, FixedSizes(PINNED_UNITS)),
    # A cold class whose lease someone else holds runs eagerly; once the
    # lease is free the predictor serves it.
    Phase("lease", 13, 0.1, FixedSizes(2048), hold_lease_units=2048),
    # Small classes: the predictor guesses, the small-workload gate wins.
    Phase("small", 14, 0.1, FixedSizes(64)),
    # The predicted variant crashes once: a sibling finishes the batch.
    Phase(
        "predict-fault",
        15,
        0.1,
        FixedSizes(4096),
        faults=(FaultRule(FaultKind.CRASH, variant="fast", count=1),),
    ),
    # Overload while a latency fault slows the pinned selection: drift
    # confirms, and its re-profile defers.
    Phase(
        "drift",
        16,
        0.4,
        FixedSizes(PINNED_UNITS),
        faults=(
            FaultRule(
                FaultKind.LATENCY, variant="fast", count=None, magnitude=4.0
            ),
        ),
        backpressure=True,
    ),
    # Still overloaded: a cold class defers its micro-profile.
    Phase("overload", 17, 0.1, FixedSizes(8192), backpressure=True),
    # Pressure clears: the drifted class re-profiles, the deferred class
    # warms up, and the largest requests split across the fleet.
    Phase(
        "recover", 18, 0.5, ParetoSizes(0.9, min_units=512, max_units=16384)
    ),
    # Seeded crashes on the store's winner until it is quarantined.
    Phase(
        "quarantine",
        19,
        0.3,
        FixedSizes(1024),
        faults=(
            FaultRule(
                FaultKind.CRASH, variant="fast", count=None, probability=0.7
            ),
        ),
    ),
)


def _fields(outcome, branch: str) -> Dict[str, object]:
    result = outcome.result
    return {
        "branch": branch,
        "device": outcome.device,
        "workload_class": outcome.workload_class,
        "selected": result.selected,
        "profiled": result.profiled,
        "reason": result.reason,
        "start_cycles": result.start_cycles,
        "end_cycles": result.end_cycles,
        "store_hit": outcome.store_hit,
        "lease": outcome.lease,
        "latency_cycles": outcome.latency_cycles,
    }


def record() -> Dict[str, object]:
    """Replay the scenario; per-request fields, stats and store."""
    clear_cache()
    config = ReproConfig(analyze=AnalyzeSettings(dominance=True))
    pool = axpy_pool()
    clock = _Clock()
    store = SelectionStore(
        clock=clock,
        drift=DriftConfig(warmup=4, confirm=2, cooldown=4),
        predict=PredictConfig(min_examples=3, confidence_threshold=0.5),
    )
    qos = QoSConfig(
        tenants=(TenantSpec("client", priority=0, deadline_cycles=2.0e5),)
    )
    scheduler = LaunchScheduler(
        tuple(make_cpu(config) for _ in range(DEVICES)),
        config=config,
        store=store,
        split_threshold=SPLIT_THRESHOLD,
        qos=qos,
    )
    admission = HeldAdmission(qos, scheduler.admission.capacity)
    scheduler.admission = admission
    scheduler.register_pool(pool)
    replayer = TrafficReplayer(config, catalog(pool, config))

    requests: List[Dict[str, object]] = []
    offset = 0.0
    for phase in PHASES:
        profile = TenantProfile(
            "client",
            PoissonArrivals(rate=40.0),
            phase.sizes,
            workloads=("axpy",),
            priority=0,
        )
        schedule = TrafficGenerator(
            (profile,), seed=phase.seed, horizon=phase.horizon
        ).generate()
        plan = FaultPlan(phase.faults, seed=phase.seed) if phase.faults else None
        for name in scheduler.devices:
            runtime = scheduler.runtime(name)
            if plan is None:
                runtime.clear_faults()
            else:
                runtime.install_faults(plan)
        admission.held = phase.backpressure
        hold = phase.hold_lease_units
        for row in schedule.requests:
            clock.now = offset + row.time
            case = replayer.case_for(row.workload, row.units)
            request = replayer.serve_requests(
                replace(schedule, requests=(row,))
            )[0]
            key = derive_signature(
                request.kernel, "cpu", request.args, request.workload_units
            ).key
            held = hold == case.workload_units
            if held:
                # Someone else is profiling this class: its first request
                # finds the lease taken.
                scheduler.leases.acquire(key, -1)
                hold = None
            before = _Before(scheduler, key, request.kernel)
            outcome = scheduler.launch(request)
            assert case.check(request.args), (phase.name, row)
            if held:
                scheduler.leases.release(key, -1)
            if isinstance(outcome, SplitOutcome):
                for part in outcome.parts:
                    requests.append(
                        {"phase": phase.name, **_fields(part, "split part")}
                    )
                continue
            requests.append(
                {
                    "phase": phase.name,
                    **_fields(outcome, before.branch(scheduler, outcome)),
                }
            )
        offset += phase.horizon
    admission.held = False
    return {
        "requests": requests,
        "stats": asdict(scheduler.stats),
        "store": scheduler.store.entry_payloads(),
        "quarantined": list(store.quarantine.quarantined(pool.name)),
    }


class _Clock:
    """The store clock: the current request's arrival time."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class _Before:
    """What the fleet looked like just before one request was served."""

    def __init__(self, scheduler, key: str, kernel: str) -> None:
        stats = scheduler.stats
        self.predicted = stats.predicted_launches
        self.deferred = stats.profiles_deferred
        predictor = scheduler.store.predictor
        guess = predictor.predict(key)
        self.guess = guess.variant if predictor.confident(guess) else None
        self.quarantined = bool(
            scheduler.store.quarantine.quarantined(kernel)
        )

    def branch(self, scheduler, outcome) -> str:
        """Name the serve-path branch one whole request took."""
        result = outcome.result
        stats = scheduler.stats
        if self.quarantined:
            return "quarantine fallback"
        if stats.profiles_deferred > self.deferred:
            return "cold deferral" if outcome.deferred else "drift deferral"
        if result.reason.startswith("drift re-activation"):
            return "drift re-arm"
        if outcome.store_hit:
            return "store hit"
        if outcome.lease is None:
            return "lease not granted"
        if stats.predicted_launches > self.predicted:
            return "prediction applied"
        if self.guess is not None:
            if result.reason.startswith("predicted selection"):
                return "prediction faulted onto a sibling"
            return "prediction rejected"
        return "lease-held profile"


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
