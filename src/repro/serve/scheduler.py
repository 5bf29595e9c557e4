"""The concurrent launch scheduler: many clients, many devices, one brain.

:class:`LaunchScheduler` is the serving front-end over a fleet of
simulated devices.  Each device gets its own :class:`DySelRuntime` (one
engine, one clock, one trace timeline) plus a bounded
:class:`~repro.device.stream.StreamPool`; client threads call
:meth:`LaunchScheduler.launch` concurrently and the scheduler:

1. **enqueues** the request (``SERVE_ENQUEUE``),
2. **admits** it onto the least-loaded device by leasing a stream from
   that device's pool (``SERVE_ADMIT``) — pool capacity is the per-device
   admission limit,
3. resolves the request's **workload class** (input-aware signature,
   :mod:`repro.serve.signature`) and consults the persistent
   :class:`~repro.serve.store.SelectionStore`:

   * **warm** — a live entry pins the stored winner; the launch runs
     profiling-off (``STORE_HIT``),
   * **cold** — the request races for the class's *profile lease*
     (:mod:`repro.serve.lease`); the winner consults the armed
     selection predictor (:mod:`repro.predict`) — a confident guess
     skips the micro-profile outright (``PREDICTION``) — otherwise
     micro-profiles (``PROFILE_LEASE_GRANT``/``STEAL``,
     ``PREDICTION_FALLBACK``) and publishes the selection; everyone
     else runs eagerly with the current-best variant,

4. serializes engine access per device (simulated engines are
   single-clocked), runs the launch, releases stream and lease.

This generalizes the paper's asynchronous flow (§2.4) from
chunks-within-a-launch to launches-within-a-fleet: profiling happens once
per (pool, device-kind, workload-class) while the rest of the traffic
keeps flowing with the best answer known so far.

Scheduler-level events land on the scheduler's own tracer, whose "time"
axis is a monotonically increasing admission sequence number — request
ordering, not device cycles (each device keeps its own cycle timeline, so
a fleet has no single clock).  Per-device launch traces remain available
from each runtime and reconcile with :func:`repro.obs.export.reconcile`.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..analyze.dominance import cold_start_estimate, policy_from_settings
from ..compiler.analyses.safe_point import lcm_of
from ..compiler.variants import VariantPool
from ..config import ReproConfig
from ..core.policy import (
    PLACEMENT_POLICIES,
    LaunchContext,
    PlacementCandidate,
    PlacementDecision,
    decide_placement,
)
from ..core.runtime import DySelRuntime, LaunchResult
from ..device.base import Device
from ..device.stream import StreamPool
from ..errors import AdmissionRejected, ServeError
from ..faults.plan import FaultPlan
from ..kernel.kernel import WorkRange
from ..modes import OrchestrationFlow, ProfilingMode
from ..obs.events import EventKind, TraceEvent
from ..obs.tracer import NULL_TRACER, RecordingTracer
from ..predict import Prediction
from .lease import ProfileLeaseTable
from .qos import AdmissionController, QoSConfig, TenantSpec
from .signature import WorkloadSignature, derive_signature
from .store import SelectionStore

#: Default streams (= concurrently admitted requests) per device.
DEFAULT_STREAMS_PER_DEVICE = 4

#: Default profile-lease steal timeout, in store-clock seconds.
DEFAULT_LEASE_TIMEOUT = 30.0

#: A served request's outcome class with every field bound except the
#: request-level stamps (``tenant``, ``latency_cycles``,
#: ``deadline_cycles``, ``deadline_missed``): calling it builds the
#: outcome, once per request, with whichever stamps apply.
_Served = Callable[..., object]


def partition_units(
    units: int, weights: Sequence[float], align: int
) -> List[Tuple[int, int]]:
    """Split ``[0, units)`` into ``len(weights)`` aligned half-open parts.

    Part sizes are proportional to ``weights`` (a faster device gets a
    larger share), with every interior cut snapped to a multiple of
    ``align`` — the LCM of the pools' work-assignment factors, so any
    variant the policy later picks can start a part on a work-group
    boundary.  The tail part absorbs the unaligned remainder.  Parts
    may come back empty when rounding collapses a cut; callers skip
    those (and their devices).
    """
    if units < 0:
        raise ServeError(f"units must be >= 0, got {units}")
    if align < 1:
        raise ServeError(f"align must be >= 1, got {align}")
    total = sum(weights)
    if total <= 0 or len(weights) <= 1:
        return [(0, units)]
    ranges: List[Tuple[int, int]] = []
    prev = 0
    acc = 0.0
    for weight in weights[:-1]:
        acc += weight
        cut = int(round(units * acc / total / align)) * align
        cut = max(prev, min(cut, units))
        ranges.append((prev, cut))
        prev = cut
    ranges.append((prev, units))
    return ranges


@dataclass(frozen=True)
class ServeRequest:
    """One client launch request.

    ``args`` must be a fresh mapping per request (output buffers are
    written); ``signature`` overrides the derived workload class when the
    caller knows better than the feature extractor.
    """

    kernel: str
    args: Mapping[str, object]
    workload_units: int
    mode: Optional[ProfilingMode] = None
    flow: OrchestrationFlow = OrchestrationFlow.ASYNC
    signature: Optional[WorkloadSignature] = None
    #: Pin the placement dimension: run on this device kind (``"cpu"``,
    #: ``"gpu"``), bypassing the placement policy the way a pinned
    #: variant bypasses selection.  A pinned kind that is unknown or
    #: fully quarantined is ignored with an explicit note.
    device_kind: Optional[str] = None
    #: Split this launch across up to this many devices
    #: (:meth:`LaunchScheduler.launch_split`); ``None`` leaves the
    #: request whole unless the scheduler's ``split_threshold`` says
    #: otherwise.
    split: Optional[int] = None
    #: Tenant identity for QoS accounting and admission fairness;
    #: ``None`` serves under the scheduler's default tenant contract.
    tenant: Optional[str] = None
    #: Admission priority class override (0 is highest); ``None``
    #: inherits the tenant's configured class.
    priority: Optional[int] = None
    #: Per-request latency budget in fleet cycles; ``None`` inherits
    #: the tenant's configured deadline (or no deadline at all).
    deadline_cycles: Optional[float] = None


@dataclass(frozen=True)
class ServeOutcome:
    """What the scheduler did with one request."""

    request: ServeRequest
    #: Device the request was admitted to.
    device: str
    #: Workload-class key the selection was cached under.
    workload_class: str
    #: The underlying launch's result.
    result: LaunchResult
    #: Whether this request ran the micro-profile for its class.
    profiled: bool
    #: Whether a persisted selection served this request.
    store_hit: bool
    #: ``"granted"``/``"stolen"`` when this request held the profile
    #: lease, else ``None``.
    lease: Optional[str]
    #: Admission sequence number (the scheduler-trace time axis).
    sequence: int
    #: Why the request landed on this device kind: the reason
    #: :func:`~repro.core.policy.decide_placement` gave, with its
    #: quarantine and pinned-kind notes.  A one-kind fleet records
    #: ``"single eligible device kind"``; a mixed fleet records the
    #: winner's basis (``"store-measured placement"``, ``"static
    #: cost-bound placement"``, ``"dynamic load placement"``) or
    #: ``"pinned device kind"``; a split part records ``"split part
    #: i/n"``.
    placement: str = ""
    #: Tenant the request was accounted to (``"default"`` when the
    #: request carried none).
    tenant: str = "default"
    #: Fleet-cycle sojourn of this request: total cycles the fleet's
    #: device clocks advanced between enqueue and completion.  On an
    #: otherwise-idle fleet this is the launch's own elapsed cycles;
    #: under load it also counts the work the request waited behind,
    #: which is what tail-latency percentiles must see.
    latency_cycles: float = 0.0
    #: The latency budget this request was held to (``None`` = none).
    deadline_cycles: Optional[float] = None
    #: Whether ``latency_cycles`` exceeded the budget.
    deadline_missed: bool = False

    @property
    def deferred(self) -> bool:
        """Whether profiling backpressure deferred this class's lease."""
        return self.lease == ProfileLeaseTable.DEFERRED


@dataclass(frozen=True)
class SplitOutcome:
    """One large launch served as stitched per-device parts.

    Each part ran a disjoint :class:`~repro.kernel.kernel.WorkRange` of
    the original workload against the *same* argument buffers, so the
    output needs no explicit stitching — part ``i`` wrote exactly the
    output slice its range covers.  Parts never micro-profile (they ride
    whatever selection their class already has), so splitting composes
    with warm stores, prediction, and quarantine but never races the
    profile lease.
    """

    request: ServeRequest
    #: Per-part outcomes, in range order.
    parts: Tuple[ServeOutcome, ...]
    #: The half-open unit ranges the parts covered, in order.
    ranges: Tuple[Tuple[int, int], ...]
    #: Admission sequence number of the split itself.
    sequence: int
    #: Tenant the split was accounted to (see :class:`ServeOutcome`).
    tenant: str = "default"
    #: Fleet-cycle sojourn of the whole split (see :class:`ServeOutcome`).
    latency_cycles: float = 0.0
    #: The latency budget the split was held to (``None`` = none).
    deadline_cycles: Optional[float] = None
    #: Whether ``latency_cycles`` exceeded the budget.
    deadline_missed: bool = False

    @property
    def devices(self) -> Tuple[str, ...]:
        """Device each part ran on, in range order."""
        return tuple(part.device for part in self.parts)

    @property
    def elapsed_cycles(self) -> float:
        """Stitched makespan: the slowest part's elapsed cycles.

        Parts run on independent device clocks, so the launch as a whole
        is done when its slowest part is.
        """
        return max(
            (part.result.elapsed_cycles for part in self.parts),
            default=0.0,
        )


@dataclass
class TenantStats:
    """One tenant's service record over a scheduler's lifetime.

    ``latencies`` holds every served request's fleet-cycle sojourn
    (:attr:`ServeOutcome.latency_cycles`), so tail percentiles are exact
    over the run rather than approximated from a sketch — serving runs
    here are bounded benchmark/test traffic, not unbounded production
    streams.
    """

    requests: int = 0
    deadline_misses: int = 0
    admission_rejects: int = 0
    profiles_deferred: int = 0
    latencies: List[float] = field(default_factory=list)

    def percentile(self, q: float) -> float:
        """Linear-interpolated latency percentile (``q`` in [0, 100])."""
        if not 0.0 <= q <= 100.0:
            raise ServeError(f"percentile must be in [0, 100], got {q}")
        if not self.latencies:
            return 0.0
        data = sorted(self.latencies)
        pos = (len(data) - 1) * q / 100.0
        lo = int(pos)
        hi = min(lo + 1, len(data) - 1)
        frac = pos - lo
        return data[lo] * (1.0 - frac) + data[hi] * frac

    @property
    def p50(self) -> float:
        """Median latency, in fleet cycles."""
        return self.percentile(50.0)

    @property
    def p99(self) -> float:
        """99th-percentile latency, in fleet cycles."""
        return self.percentile(99.0)

    @property
    def p999(self) -> float:
        """99.9th-percentile latency, in fleet cycles."""
        return self.percentile(99.9)


@dataclass
class ServeStats:
    """Aggregate counters over one scheduler's lifetime."""

    requests: int = 0
    profiled_launches: int = 0
    store_hits: int = 0
    eager_launches: int = 0
    #: Cold classes served by the predictor without a micro-profile.
    predicted_launches: int = 0
    #: Cold classes that paid the micro-profile despite an armed
    #: predictor (untrained, under-confident, or gated out).
    prediction_fallbacks: int = 0
    profiling_latency_cycles: float = 0.0
    workload_units: int = 0
    per_device: Dict[str, int] = field(default_factory=dict)
    #: Requests placed per device kind (the placement dimension).
    placements: Dict[str, int] = field(default_factory=dict)
    #: Launches served as stitched multi-device splits.
    split_launches: int = 0
    #: Requests refused by the bounded admission queue.
    admission_rejects: int = 0
    #: Served requests whose latency exceeded their deadline budget.
    deadline_misses: int = 0
    #: Cold-class micro-profiles postponed by backpressure.
    profiles_deferred: int = 0
    #: Per-tenant service records (latency percentiles live here).
    tenants: Dict[str, TenantStats] = field(default_factory=dict)

    def tenant(self, name: str) -> TenantStats:
        """Get-or-create one tenant's record (callers hold the lock)."""
        if name not in self.tenants:
            self.tenants[name] = TenantStats()
        return self.tenants[name]

    @property
    def profile_rate(self) -> float:
        """Fraction of requests that paid a micro-profile."""
        if self.requests <= 0:
            return 0.0
        return self.profiled_launches / self.requests


class _DeviceWorker:
    """One device's serving state: runtime, stream pool, engine lock."""

    def __init__(
        self,
        device: Device,
        config: ReproConfig,
        streams_per_device: int,
        index: int,
    ) -> None:
        self.name = f"{device.kind}{index}"
        self.runtime = DySelRuntime(device, config)
        self.streams = StreamPool(
            self.runtime.engine, streams_per_device, prefix=f"{self.name}"
        )
        #: Simulated engines advance one global clock per device; two
        #: threads interleaving host calls would corrupt it.  The lock
        #: serializes launches per device — cross-device launches still
        #: overlap, which is where fleet throughput comes from.
        self.lock = threading.Lock()
        self._load_lock = threading.Lock()
        self._pending_cycles = 0.0
        self._completed_cycles = 0.0
        self._completed_launches = 0

    @property
    def device_kind(self) -> str:
        """The device's architecture kind (selections transfer within it)."""
        return self.runtime.device.kind

    def estimate_cost(
        self,
        known_cost: Optional[float],
        static_cost: Optional[float] = None,
    ) -> float:
        """Estimated cycles one request will cost on this device.

        Prefers the caller's workload-class estimate (from the selection
        store); then the static cost-bound midpoint for the kernel (the
        cold-start prior from :mod:`repro.analyze.costbound`, available
        before any store entry exists); then this device's observed mean
        launch cost; then zero before any launch has completed.
        """
        if known_cost is not None:
            return known_cost
        if static_cost is not None:
            return static_cost
        with self._load_lock:
            if self._completed_launches > 0:
                return self._completed_cycles / self._completed_launches
        return 0.0

    def commit(self, estimated_cycles: float) -> None:
        """Reserve one admitted request's estimated cycles."""
        with self._load_lock:
            self._pending_cycles += estimated_cycles

    def complete(self, estimated_cycles: float, elapsed_cycles: float) -> None:
        """Retire an admitted request: drop its reservation, log its cost."""
        with self._load_lock:
            self._pending_cycles = max(
                0.0, self._pending_cycles - estimated_cycles
            )
            self._completed_cycles += elapsed_cycles
            self._completed_launches += 1

    def abort(self, estimated_cycles: float) -> None:
        """Drop a reservation whose launch failed (cost stays unknown)."""
        with self._load_lock:
            self._pending_cycles = max(
                0.0, self._pending_cycles - estimated_cycles
            )

    def projected_clock(self) -> float:
        """Estimated device clock once current in-flight work finishes.

        The engine clock only advances when a launch completes, so a
        device with several admitted-but-unfinished requests looks idle
        by clock alone; the pending reservations cover that gap.
        """
        with self._load_lock:
            return self.runtime.engine.now + self._pending_cycles


class _Bid(NamedTuple):
    """One device kind's bid for a request, before its load is read."""

    kind: str
    #: The kind's workers that have the kernel registered.
    workers: List[_DeviceWorker]
    signature: WorkloadSignature
    #: Store-measured cycles of the request (warm class), else ``None``.
    measured: Optional[float]
    #: Static cost-bound prior of the request (cold class), else ``None``.
    static: Optional[float]
    #: Whether the kind's whole pool is quarantined (read only when more
    #: than one kind bids).
    quarantined: bool


class LaunchScheduler:
    """Thread-safe multi-device serving front-end (see module docstring)."""

    def __init__(
        self,
        devices: Sequence[Device],
        config: Optional[ReproConfig] = None,
        store: Optional[SelectionStore] = None,
        streams_per_device: int = DEFAULT_STREAMS_PER_DEVICE,
        lease_timeout: Optional[float] = DEFAULT_LEASE_TIMEOUT,
        fault_plan: Optional[FaultPlan] = None,
        placement_policy: str = "cost-model",
        split_threshold: Optional[int] = None,
        qos: Optional[QoSConfig] = None,
    ) -> None:
        """Build a scheduler over a fleet of devices.

        Parameters
        ----------
        devices:
            The simulated fleet; one runtime + stream pool per device.
            Kinds may mix (CPU + GPU): placement becomes part of the
            selection tuple (:func:`repro.core.policy.decide_placement`).
        config:
            Shared :class:`ReproConfig` (defaults to the first device's);
            ``config.trace`` also enables the scheduler-level tracer.
        store:
            Persistent selection store; defaults to a fresh in-memory
            store (no TTL).  Pass a loaded store for warm starts.
        streams_per_device:
            Stream-pool capacity = per-device admission limit.
        lease_timeout:
            Profile-lease steal timeout in store-clock seconds (``None``
            disables stealing).
        fault_plan:
            Chaos-testing fault plan (:mod:`repro.faults`); installs one
            injector per device runtime, arming the hardened launch
            paths fleet-wide.  ``None`` (the default) serves clean.
        placement_policy:
            How the device-kind dimension is resolved on mixed fleets:
            ``"cost-model"`` (default) picks the least projected finish
            time — load plus the store-measured EWMA estimate when warm,
            else the static cost-bound prior; ``"dynamic-load"`` picks
            the least projected load alone (the oneDPL
            ``dynamic_load_policy`` rule).
        split_threshold:
            Auto-split launches of at least this many workload units
            across the fleet (:meth:`launch_split`); ``None`` (default)
            splits only on explicit ``ServeRequest.split``.
        qos:
            Admission control, per-tenant fairness, deadlines, and
            profiling backpressure (:class:`~repro.serve.qos.QoSConfig`).
            ``None`` (the default) serves exactly as before: unbounded
            admission, no tenant ordering, no deferral — per-request
            deadlines are still honored for latency accounting.
        """
        if not devices:
            raise ServeError("a scheduler needs at least one device")
        if placement_policy not in PLACEMENT_POLICIES:
            raise ServeError(
                f"unknown placement_policy {placement_policy!r} "
                f"(expected one of {list(PLACEMENT_POLICIES)})"
            )
        if split_threshold is not None and split_threshold < 1:
            raise ServeError(
                f"split_threshold must be >= 1 or None, got {split_threshold}"
            )
        self.placement_policy = placement_policy
        self.split_threshold = split_threshold
        self.config = config if config is not None else devices[0].config
        self.store = store if store is not None else SelectionStore()
        self._workers = [
            _DeviceWorker(device, self.config, streams_per_device, i)
            for i, device in enumerate(devices)
        ]
        #: Device kinds in fleet order (first appearance wins), and the
        #: workers serving each kind.
        self._kinds: List[str] = list(
            dict.fromkeys(w.device_kind for w in self._workers)
        )
        self._kind_workers: Dict[str, List[_DeviceWorker]] = {}
        for worker in self._workers:
            self._kind_workers.setdefault(worker.device_kind, []).append(
                worker
            )
        # One fleet, one fault ledger: a variant that misbehaves for one
        # client is barred for every client, and the ledger rides along
        # in the store's save/load snapshots.  The scheduler's config
        # governs its thresholds (a loaded store carries entries, not
        # policy).
        self.store.quarantine.policy = self.config.faults
        for worker in self._workers:
            worker.runtime.quarantine = self.store.quarantine
            if fault_plan is not None:
                worker.runtime.install_faults(fault_plan)
        self.leases = ProfileLeaseTable(
            timeout=lease_timeout, clock=self.store._clock
        )
        self.tracer = (
            RecordingTracer() if self.config.trace else NULL_TRACER
        )
        self.stats = ServeStats()
        self.qos = qos
        self.admission: Optional[AdmissionController] = None
        if qos is not None:
            capacity = (
                qos.max_inflight
                if qos.max_inflight is not None
                else streams_per_device * len(self._workers)
            )
            self.admission = AdmissionController(qos, capacity)
        self._seq = itertools.count()
        self._stats_lock = threading.Lock()
        self._dispatch_lock = threading.Lock()
        for worker in self._workers:
            worker.runtime.add_invalidation_hook(self._on_invalidate)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register_pool(
        self, pool: VariantPool, device_kind: Optional[str] = None
    ) -> None:
        """Register a kernel pool on the fleet.

        ``device_kind`` restricts the registration to devices of one kind
        — how heterogeneous fleets register kind-specific pools (the CPU
        variants of a kernel on the CPUs, the GPU variants on the GPUs)
        under one kernel signature name.  ``None`` (the default)
        registers on every device, preserving the homogeneous behavior.
        """
        if device_kind is not None and device_kind not in self._kind_workers:
            raise ServeError(
                f"no {device_kind!r} devices in this fleet "
                f"(kinds: {self._kinds})"
            )
        targets = (
            self._workers
            if device_kind is None
            else self._kind_workers[device_kind]
        )
        for worker in targets:
            worker.runtime.register_pool(pool)

    def _static_unit_cost(
        self, kernel: str, device_kind: str
    ) -> Optional[float]:
        """The kernel's static per-unit cost prior on one device kind.

        The midpoint of the pool default's static cost interval
        (:func:`repro.analyze.dominance.cold_start_estimate`, whose cost
        bounds are memoized by the pool's IR, so a re-registered pool is
        priced afresh).  ``None`` when ``config.analyze.dominance`` is
        off, the kernel is unknown on that kind, or the interval is
        unbounded — dispatch then falls back to observed means exactly
        as before.
        """
        settings = self.config.analyze
        if not settings.dominance:
            return None
        workers = self._kind_workers.get(device_kind)
        if not workers or kernel not in workers[0].runtime.registry:
            return None
        return cold_start_estimate(
            workers[0].runtime.registry.pool(kernel),
            device_kind,
            policy=policy_from_settings(settings),
        )

    def _on_invalidate(self, kernel: str, why: str) -> None:
        """Runtime invalidation hook → evict persisted selections too."""
        evicted = self.store.invalidate_kernel(kernel)
        if evicted and self.tracer.enabled:
            self.tracer.instant(
                EventKind.STORE_EVICT,
                kernel,
                float(next(self._seq)),
                evicted=evicted,
                reason=why,
            )

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def _fleet_cycles(self) -> float:
        """Sum of every device clock: the fleet's total-work axis.

        A fleet has no single clock, but the *sum* of device clocks
        advances exactly by the cycles executed anywhere, so the delta
        between two reads is "fleet work done meanwhile" — a
        deterministic, queueing-sensitive latency axis.  On an idle
        fleet a request's delta is its own elapsed cycles; under load it
        also counts everything the request waited behind.
        """
        return sum(worker.runtime.engine.now for worker in self._workers)

    def _tenant_spec(self, request: ServeRequest) -> Optional[TenantSpec]:
        """The request's QoS contract (``None`` when QoS is off)."""
        if self.qos is None:
            return None
        return self.qos.spec(request.tenant)

    def _deadline_for(
        self, request: ServeRequest, spec: Optional[TenantSpec]
    ) -> Optional[float]:
        """Resolve the latency budget: request override, else contract."""
        if request.deadline_cycles is not None:
            return request.deadline_cycles
        return spec.deadline_cycles if spec is not None else None

    def _defer_profiling(self) -> bool:
        """Whether profiling backpressure is currently engaged."""
        return self.admission is not None and self.admission.deferring

    def _record_deferral(
        self, request: ServeRequest, key: str, seq: int, what: str
    ) -> None:
        """Account one backpressure-deferred profile lease."""
        tenant = request.tenant if request.tenant is not None else "default"
        with self._stats_lock:
            self.stats.profiles_deferred += 1
            self.stats.tenant(tenant).profiles_deferred += 1
        if self.tracer.enabled:
            self.tracer.instant(
                EventKind.PROFILE_DEFERRED,
                request.kernel,
                float(seq),
                workload_class=key,
                tenant=tenant,
                what=what,
                pressure=self.admission.pressure(),
            )

    def launch(self, request: ServeRequest):
        """Serve one request (blocking; safe to call from many threads).

        Returns a :class:`ServeOutcome` — or a :class:`SplitOutcome`
        when the request asked to be split (``ServeRequest.split``) or
        the scheduler's ``split_threshold`` promotes it.  With a QoS
        config installed the request first passes admission control,
        which may block (queue) or raise
        :class:`~repro.errors.AdmissionRejected` (bounded queue full).
        """
        spec = self._tenant_spec(request)
        tenant = request.tenant if request.tenant is not None else (
            spec.name if spec is not None else "default"
        )
        deadline = self._deadline_for(request, spec)
        enq_cycles = self._fleet_cycles()
        admitted = False
        if self.admission is not None:
            assert spec is not None
            priority = (
                request.priority
                if request.priority is not None
                else spec.priority
            )
            try:
                bypasses = self.admission.admit(
                    tenant, priority, spec.weight, deadline
                )
            except AdmissionRejected as exc:
                with self._stats_lock:
                    self.stats.admission_rejects += 1
                    self.stats.tenant(tenant).admission_rejects += 1
                if self.tracer.enabled:
                    self.tracer.instant(
                        EventKind.ADMISSION,
                        request.kernel,
                        float(next(self._seq)),
                        tenant=tenant,
                        admitted=False,
                        queue_depth=exc.queue_depth,
                        limit=exc.limit,
                    )
                raise
            admitted = True
            if self.tracer.enabled:
                self.tracer.instant(
                    EventKind.ADMISSION,
                    request.kernel,
                    float(next(self._seq)),
                    tenant=tenant,
                    admitted=True,
                    priority=priority,
                    bypasses=bypasses,
                )
        try:
            if self._should_split(request):
                served = self._split(request)
            else:
                served = self._serve_whole(request, enqueue=True)
        finally:
            if admitted:
                self.admission.release(tenant)
        return self._finalize(request, served, tenant, deadline, enq_cycles)

    def _finalize(
        self,
        request: ServeRequest,
        served: _Served,
        tenant: str,
        deadline: Optional[float],
        enq_cycles: float,
    ):
        """Build the served outcome with its latency and deadline stamps."""
        latency = max(0.0, self._fleet_cycles() - enq_cycles)
        missed = deadline is not None and latency > deadline
        with self._stats_lock:
            record = self.stats.tenant(tenant)
            record.requests += 1
            record.latencies.append(latency)
            if missed:
                record.deadline_misses += 1
                self.stats.deadline_misses += 1
        if missed and self.tracer.enabled:
            self.tracer.instant(
                EventKind.DEADLINE_MISS,
                request.kernel,
                float(next(self._seq)),
                tenant=tenant,
                deadline_cycles=deadline,
                latency_cycles=latency,
            )
        return served(
            tenant=tenant,
            latency_cycles=latency,
            deadline_cycles=deadline,
            deadline_missed=missed,
        )

    def _should_split(self, request: ServeRequest) -> bool:
        """Whether this request gets the multi-device split path."""
        if request.split is not None:
            return request.split > 1
        return (
            self.split_threshold is not None
            and request.workload_units >= self.split_threshold
            and len(self._workers) > 1
        )

    def _placement_bids(self, request: ServeRequest) -> List[_Bid]:
        """Per-device-kind bids for one request, in fleet kind order.

        For each kind that has the kernel registered: the workload-class
        signature (kinds cost independently — the kind is part of the
        key), the store-measured cost when the class is warm there, the
        static cost-bound prior when it is cold (a measured cost wins
        wherever both could apply: :meth:`_DeviceWorker.estimate_cost`,
        ``decide_placement`` and :meth:`launch_split`), and — only when
        more than one kind bids — whether the kind's whole pool is
        quarantined.  A lone kind's flag could not decide anything:
        :meth:`_dispatch` clears it and :meth:`launch_split` ignores it,
        and the runtime still bars quarantined variants on every launch.
        Loads are read by the caller.  Raises when no kind has the
        kernel.
        """
        kinds = []
        for kind in self._kinds:
            workers = [
                w
                for w in self._kind_workers[kind]
                if request.kernel in w.runtime.registry
            ]
            if workers:
                kinds.append((kind, workers))
        if not kinds:
            raise ServeError(
                f"kernel {request.kernel!r} is not registered on any "
                f"device (fleet kinds: {self._kinds})"
            )
        contested = len(kinds) > 1
        units = request.workload_units
        bids: List[_Bid] = []
        for kind, workers in kinds:
            signature = request.signature or derive_signature(
                request.kernel, kind, request.args, units
            )
            entry = self.store.peek(signature.key)
            measured = static = None
            if entry is not None:
                measured = entry.cycles_per_unit * units
            else:
                unit_cost = self._static_unit_cost(request.kernel, kind)
                if unit_cost is not None:
                    static = unit_cost * units
            bids.append(
                _Bid(
                    kind,
                    workers,
                    signature,
                    measured,
                    static,
                    contested
                    and self._pool_quarantined(request.kernel, workers[0]),
                )
            )
        return bids

    def _pool_quarantined(self, kernel: str, worker: _DeviceWorker) -> bool:
        """Whether every variant of the worker's ``kernel`` pool is barred."""
        pool = worker.runtime.registry.pool(kernel)
        barred = self.store.quarantine.quarantined(pool.name)
        return all(name in barred for name in pool.variant_names)

    def _dispatch(
        self, request: ServeRequest, seq: int
    ) -> Tuple[_DeviceWorker, WorkloadSignature, float, PlacementDecision]:
        """Two-level cost-aware dispatch: pick a kind, then a device.

        The *kind* is the placement dimension of the selection tuple,
        resolved by :func:`repro.core.policy.decide_placement` under the
        scheduler's placement policy (store-measured EWMA estimates once
        the class is warm, static cost-bound priors cold, projected load
        always).  Within the chosen kind the earliest projected finish
        wins, and the winner's estimate is reserved on its pending load.
        Both choices happen under the dispatch lock, so concurrent
        clients don't pile onto the same momentarily-idle device; each
        worker's projected clock is read once there and serves both its
        kind's load and its own rank.

        When every kind's pool is fully quarantined the quarantine flags
        are ignored here: dispatch still picks a device and the runtime
        raises its structured ``LaunchAbortedError`` (with the
        quarantined-variant detail), exactly as before placement
        existed.
        """
        bids = self._placement_bids(request)
        cleared = all(bid.quarantined for bid in bids)
        with self._dispatch_lock:
            loads = [
                [w.projected_clock() for w in bid.workers] for bid in bids
            ]
            candidates = [
                PlacementCandidate(
                    device_kind=bid.kind,
                    load_cycles=min(load),
                    measured_cycles=bid.measured,
                    static_cycles=bid.static,
                    quarantined=bid.quarantined and not cleared,
                )
                for bid, load in zip(bids, loads)
            ]
            decision = decide_placement(
                request.kernel,
                candidates,
                policy=self.placement_policy,
                pinned_kind=request.device_kind,
            )
            for bid, load in zip(bids, loads):
                if bid.kind == decision.device_kind:
                    break
            # Earliest projected finish; fewer leased streams break a tie
            # (read only then).
            best = None
            for w, clock in zip(bid.workers, load):
                guess = w.estimate_cost(bid.measured, bid.static)
                finish = clock + guess
                if (
                    best is None
                    or finish < best[0]
                    or (
                        finish == best[0]
                        and w.streams.in_flight < best[1].streams.in_flight
                    )
                ):
                    best = (finish, w, guess)
            _, worker, estimate = best
            worker.commit(estimate)
        if self.tracer.enabled and (
            len(candidates) > 1 or request.device_kind is not None
        ):
            self.tracer.instant(
                EventKind.PLACEMENT,
                request.kernel,
                float(seq),
                device=worker.name,
                device_kind=bid.kind,
                reason=decision.reason,
                projected={
                    k: round(v, 3) for k, v in decision.projected.items()
                },
            )
        return worker, bid.signature, estimate, decision

    # ------------------------------------------------------------------
    # Work splitting
    # ------------------------------------------------------------------

    def _split_alignment(
        self, kind_workers: Dict[str, List[_DeviceWorker]], kernel: str
    ) -> int:
        """Unit alignment every split cut must respect.

        The LCM of the work-assignment factors across every eligible
        kind's pool: any variant the per-part policy later picks can
        then start its part on a work-group boundary (ranged launches
        require aligned starts; see
        :meth:`repro.kernel.kernel.KernelVariant.groups_for_units`).
        """
        factors: List[int] = []
        for workers in kind_workers.values():
            pool = workers[0].runtime.registry.pool(kernel)
            factors.extend(v.wa_factor for v in pool.variants)
        return lcm_of(factors) if factors else 1

    def launch_split(
        self, request: ServeRequest, parts: Optional[int] = None
    ) -> SplitOutcome:
        """Split one large launch across the fleet and stitch the parts.

        The workload's unit range is partitioned into up to ``parts``
        (default: ``request.split``, else one per eligible device)
        contiguous aligned sub-ranges, sized inversely to each target
        device kind's estimated cycles per unit (store-measured EWMA
        when warm, static cost-bound prior cold, equal shares when
        neither exists), and each part runs as a ranged profiling-off
        launch on its own device — against the *same* argument buffers,
        whose disjoint output slices stitch the result by construction.
        Parts never micro-profile or publish; the class warms up through
        whole launches only.

        Quarantined kinds are excluded from splitting the way they are
        excluded from placement; a fleet (or request) that cannot
        sustain more than one part degrades to a normal
        :meth:`launch`-style single-device serve, still wrapped in a
        :class:`SplitOutcome`.
        """
        return self._split(request, parts)()

    def _split(
        self, request: ServeRequest, parts: Optional[int] = None
    ) -> _Served:
        """Serve :meth:`launch_split`; the outcome waits for its stamps."""
        seq = next(self._seq)
        if self.tracer.enabled:
            self.tracer.instant(
                EventKind.SERVE_ENQUEUE,
                request.kernel,
                float(seq),
                workload_units=request.workload_units,
                split_requested=parts or request.split,
            )
        whole = replace(request, split=None)
        bids = {bid.kind: bid for bid in self._placement_bids(request)}
        eligible_kinds = [
            kind for kind, bid in bids.items() if not bid.quarantined
        ] or list(bids)
        if request.device_kind is not None and (
            request.device_kind in eligible_kinds
        ):
            eligible_kinds = [request.device_kind]
        workers = [w for kind in eligible_kinds for w in bids[kind].workers]
        align = self._split_alignment(
            {kind: bids[kind].workers for kind in eligible_kinds},
            request.kernel,
        )
        units = request.workload_units
        max_parts = min(
            parts if parts is not None else (request.split or len(workers)),
            len(workers),
            max(1, units // align),
        )
        if max_parts <= 1:
            return partial(
                SplitOutcome,
                request=request,
                parts=(self._serve_whole(whole)(),),
                ranges=((0, units),),
                sequence=seq,
            )
        # Least-loaded devices first; a part per chosen device.
        chosen = sorted(workers, key=lambda w: w.projected_clock())[
            :max_parts
        ]

        def unit_cost(worker: _DeviceWorker) -> Optional[float]:
            bid = bids[worker.device_kind]
            for basis in (bid.measured, bid.static):
                if basis is not None and units > 0:
                    return basis / units
            return None

        per_unit = [unit_cost(w) for w in chosen]
        if any(c is None or c <= 0 for c in per_unit):
            weights = [1.0] * len(chosen)
        else:
            weights = [1.0 / c for c in per_unit]
        ranges = partition_units(units, weights, align)
        assignments = [
            (worker, WorkRange(start, end))
            for worker, (start, end) in zip(chosen, ranges)
            if end > start
        ]
        if self.tracer.enabled:
            self.tracer.instant(
                EventKind.SPLIT_LAUNCH,
                request.kernel,
                float(seq),
                parts=len(assignments),
                devices=[w.name for w, _ in assignments],
                ranges=[(r.start, r.end) for _, r in assignments],
                align=align,
            )
        outcomes: List[ServeOutcome] = []
        for index, (worker, work_range) in enumerate(assignments):
            part_seq = next(self._seq)
            part_units = len(work_range)
            part = replace(
                whole,
                workload_units=part_units,
                device_kind=worker.device_kind,
            )
            part_sig = request.signature or derive_signature(
                request.kernel, worker.device_kind, request.args, part_units
            )
            cost = unit_cost(worker)
            estimate = worker.estimate_cost(
                cost * part_units if cost is not None else None
            )
            worker.commit(estimate)
            stream = worker.streams.acquire()
            try:
                outcomes.append(
                    self._serve_admitted(
                        part,
                        worker,
                        stream,
                        part_seq,
                        part_sig,
                        estimate,
                        placement=(
                            f"split part {index + 1}/{len(assignments)}"
                        ),
                        work_range=work_range,
                    )()
                )
            finally:
                worker.streams.release(stream)
        with self._stats_lock:
            self.stats.split_launches += 1
        return partial(
            SplitOutcome,
            request=request,
            parts=tuple(outcomes),
            ranges=tuple((r.start, r.end) for _, r in assignments),
            sequence=seq,
        )

    def _serve_whole(
        self, request: ServeRequest, enqueue: bool = False
    ) -> _Served:
        """Serve one whole request on one device.

        ``enqueue`` traces the ``SERVE_ENQUEUE`` instant — the plain
        :meth:`launch` path; the split path traces its own enqueue for
        the parent request and serves degraded singletons silently.
        """
        seq = next(self._seq)
        if enqueue and self.tracer.enabled:
            self.tracer.instant(
                EventKind.SERVE_ENQUEUE,
                request.kernel,
                float(seq),
                workload_units=request.workload_units,
                **(
                    {"tenant": request.tenant}
                    if request.tenant is not None
                    else {}
                ),
            )
        worker, signature, estimate, placement = self._dispatch(request, seq)
        stream = worker.streams.acquire()
        try:
            return self._serve_admitted(
                request,
                worker,
                stream,
                seq,
                signature,
                estimate,
                placement=placement.reason,
            )
        finally:
            worker.streams.release(stream)

    def _serve_admitted(
        self,
        request,
        worker,
        stream,
        seq,
        signature,
        estimate,
        placement: str = "",
        work_range: Optional[WorkRange] = None,
    ) -> _Served:
        """Run an admitted request (stream leased, cost reserved).

        What the scheduler knows about the launch — the store's pinned
        selection, the leased stream, a drift re-arm, a prediction, the
        split range, backpressure — goes into one
        :class:`~repro.core.policy.LaunchContext`, built in one place.
        ``work_range`` marks a split part: parts never race the profile
        lease, never re-arm drift, and never publish — they ride the
        selection their class already has (store entry, else pool
        default) so splitting cannot perturb selection state.
        """
        if self.tracer.enabled:
            self.tracer.instant(
                EventKind.SERVE_ADMIT,
                request.kernel,
                float(seq),
                device=worker.name,
                stream=stream.name,
            )
        key = signature.key
        entry = self.store.lookup(key)
        lease: Optional[str] = None
        profiling = deferred = drift_rearm = False
        prediction: Optional[Prediction] = None
        drift = self.store.drift
        with contextlib.ExitStack() as stack:
            if (
                entry is not None
                and work_range is None
                and drift is not None
                and drift.should_rearm(key)
            ):
                if self._defer_profiling():
                    # Backpressure: leave the drift episode open (no
                    # claim consumed) and serve pinned; a launch after
                    # pressure clears re-profiles the class.
                    self._record_deferral(
                        request, key, seq, what="drift re-profile"
                    )
                # A confirmed drift wants this class re-profiled.  The
                # claim is consume-once and the profile lease rides
                # along, so concurrent launches of a drifting class
                # produce exactly one re-profile per episode; the claim
                # goes back on exit unless the re-profile completes it.
                elif stack.enter_context(drift.claiming(key)):
                    lease = stack.enter_context(
                        self.leases.holding(key, seq)
                    )
                    drift_rearm = lease is not None
            pinned = None
            if entry is not None and not drift_rearm:
                pinned = entry.selected
                if self.tracer.enabled:
                    self.tracer.instant(
                        EventKind.STORE_HIT,
                        request.kernel,
                        float(seq),
                        workload_class=key,
                        selected=entry.selected,
                        samples=entry.samples,
                    )
            elif entry is None and work_range is None:
                if self._defer_profiling():
                    # Overload: run this cold class on the policy's best
                    # known variant without racing for the lease,
                    # publishing nothing — the class stays cold, so
                    # profiling resumes (and the store still converges to
                    # the measured oracle) once pressure clears.
                    lease = self.leases.defer(key)
                    profiling = deferred = True
                    self._record_deferral(
                        request, key, seq, what="micro-profile"
                    )
                else:
                    # ``holding`` releases in a finally, so a launch that
                    # raises (fault-aborted, verification refusal) cannot
                    # wedge the class's lease until the steal timeout.
                    lease = stack.enter_context(
                        self.leases.holding(key, seq)
                    )
                    profiling = lease is not None
                    if profiling and self.tracer.enabled:
                        kind = (
                            EventKind.PROFILE_LEASE_GRANT
                            if lease == ProfileLeaseTable.GRANTED
                            else EventKind.PROFILE_LEASE_STEAL
                        )
                        self.tracer.instant(
                            kind,
                            request.kernel,
                            float(seq),
                            workload_class=key,
                            device=worker.name,
                        )
                    if profiling:
                        prediction = self._consult_predictor(
                            request, key, seq
                        )
            context = LaunchContext(
                pinned_variant=pinned,
                stream_name=stream.name,
                drift_rearm=drift_rearm,
                predicted=prediction,
                work_range=work_range,
                deferred=deferred,
            )
            held = lease in (
                ProfileLeaseTable.GRANTED,
                ProfileLeaseTable.STOLEN,
            )
            result = None
            try:
                with worker.lock:
                    result = worker.runtime.launch_kernel(
                        request.kernel,
                        request.args,
                        request.workload_units,
                        profiling=profiling,
                        mode=request.mode,
                        flow=request.flow,
                        context=context,
                    )
                worker.complete(estimate, result.elapsed_cycles)
                if held:
                    predicted = self._settle_prediction(
                        request, key, seq, prediction, result
                    )
                    self._publish(key, request, result, predicted=predicted)
                    if result.profiled:
                        self._close_drift_episode(
                            key,
                            request,
                            result,
                            seq,
                            stale_predicted=(
                                entry is not None and entry.predicted
                            ),
                        )
            finally:
                if result is None:
                    worker.abort(estimate)

        served_from_store = entry is not None and not drift_rearm
        self._observe_drift(key, request, result, served_from_store, seq)
        self._account(request, worker, result, served_from_store)
        return partial(
            ServeOutcome,
            request=request,
            device=worker.name,
            workload_class=key,
            result=result,
            profiled=result.profiled,
            store_hit=served_from_store,
            lease=lease,
            sequence=seq,
            placement=placement,
        )

    def _consult_predictor(
        self, request: ServeRequest, key: str, seq: int
    ) -> Optional[Prediction]:
        """The predictor's confident guess for a cold class, or ``None``.

        Called only by the lease holder of a cold workload class — the
        one launch that would otherwise micro-profile.  An untrained or
        under-confident model falls back to that micro-profile and the
        fallback is recorded (``PREDICTION_FALLBACK``), so predicted
        serving is always auditable from the trace alone.
        """
        predictor = self.store.predictor
        if predictor is None:
            return None
        candidate = predictor.predict(key)
        if predictor.confident(candidate):
            return candidate
        with self._stats_lock:
            self.stats.prediction_fallbacks += 1
        if self.tracer.enabled:
            self.tracer.instant(
                EventKind.PREDICTION_FALLBACK,
                request.kernel,
                float(seq),
                workload_class=key,
                reason=(
                    "untrained" if candidate is None else "below threshold"
                ),
                confidence=(
                    None if candidate is None else candidate.confidence
                ),
            )
        return None

    def _settle_prediction(
        self,
        request: ServeRequest,
        key: str,
        seq: int,
        prediction: Optional[Prediction],
        result: LaunchResult,
    ) -> bool:
        """Account one lease-held launch's prediction; whether it applied.

        The policy may reject a prediction (drift re-arm, dominance
        exclusion, variant gone from the pool) or resolve the launch by
        a stronger gate whose fallback variant merely coincides with the
        guess — only a plan from the policy's predicted branch counts,
        and only when the predicted variant finished the batch (a fault
        can hand it to a sibling).
        """
        if prediction is None:
            return False
        applied = (
            result.source == "predicted"
            and result.selected == prediction.variant
        )
        with self._stats_lock:
            if applied:
                self.stats.predicted_launches += 1
            else:
                self.stats.prediction_fallbacks += 1
        if not self.tracer.enabled:
            return applied
        if applied:
            self.tracer.instant(
                EventKind.PREDICTION,
                request.kernel,
                float(seq),
                workload_class=key,
                variant=prediction.variant,
                confidence=prediction.confidence,
            )
        else:
            self.tracer.instant(
                EventKind.PREDICTION_FALLBACK,
                request.kernel,
                float(seq),
                workload_class=key,
                reason="rejected by policy",
                confidence=prediction.confidence,
            )
        return applied

    def _publish(
        self,
        key: str,
        request: ServeRequest,
        result: LaunchResult,
        predicted: bool = False,
    ) -> None:
        """Persist a lease holder's selection for future warm lookups.

        Micro-profiled launches publish the winner's measured cycles per
        unit; launches the runtime demoted to profiling-off (small
        workload, single-variant pool, infeasible plan) publish the
        variant that actually ran with a coarse elapsed-based estimate —
        still worth persisting, because it stops every later request of
        this class from re-racing for the lease.  Predicted launches
        publish the same way but flagged ``predicted``: the entry serves
        and drifts like a measured one without feeding the predictor's
        own training set.
        """
        if result.record is not None and result.record.selected is not None:
            cycles = result.record.best_measurement().cycles_per_unit
        elif request.workload_units > 0:
            cycles = result.elapsed_cycles / request.workload_units
        else:
            return
        self.store.publish(
            key,
            kernel=request.kernel,
            selected=result.selected,
            cycles_per_unit=cycles,
            mode=result.mode.value if result.mode is not None else None,
            flow=result.flow.value if result.flow is not None else None,
            predicted=predicted,
        )

    def _observe_drift(
        self,
        key: str,
        request: ServeRequest,
        result: LaunchResult,
        served_from_store: bool,
        seq: int,
    ) -> None:
        """Feed one pinned-replay launch into the fleet's drift loop.

        Only store-served (pinned, profiling-off) launches feed the
        detector: they replay one fixed variant, so their cycles per
        unit track the *selection's* throughput under live traffic.
        Cold eager launches and profiled launches mix variant churn and
        profiling overhead into the measurement and are skipped.
        """
        drift = self.store.drift
        if drift is None or not served_from_store or result.profiled:
            return
        drift.observe_launch(
            key,
            request.kernel,
            result.selected,
            result.elapsed_cycles,
            request.workload_units,
            self.tracer,
            float(seq),
            workload_class=key,
        )

    def _close_drift_episode(
        self,
        key: str,
        request: ServeRequest,
        result: LaunchResult,
        seq: int,
        stale_predicted: bool = False,
    ) -> None:
        """Close the class's open drift episode with the fresh winner.

        Called for every lease-held publish (drift re-profiles *and*
        cold re-profiles of a class whose decayed entry already
        expired), so an episode cannot be left dangling by whichever
        path re-measured first.  A no-op when no episode is open.

        ``stale_predicted`` marks an episode whose demoted entry came
        from the predictor: the re-measured winner is fed back as a
        weighted training correction
        (:meth:`repro.predict.SelectionPredictor.correct`), so a model
        that drifted wrong stops repeating the mistake.
        """
        drift = self.store.drift
        if drift is None:
            return
        episode = drift.complete_launch(
            key,
            request.kernel,
            result.selected,
            self.tracer,
            float(seq),
            workload_class=key,
        )
        if (
            episode is not None
            and stale_predicted
            and self.store.predictor is not None
        ):
            self.store.predictor.correct(key, result.selected)

    def _account(self, request, worker, result, store_hit: bool) -> None:
        """Fold one served request into the aggregate counters."""
        with self._stats_lock:
            self.stats.requests += 1
            self.stats.workload_units += request.workload_units
            self.stats.profiled_launches += int(result.profiled)
            self.stats.store_hits += int(store_hit)
            self.stats.eager_launches += int(
                not result.profiled and not store_hit
            )
            self.stats.profiling_latency_cycles += (
                result.profiling_latency_cycles
            )
            self.stats.per_device[worker.name] = (
                self.stats.per_device.get(worker.name, 0) + 1
            )
            self.stats.placements[worker.device_kind] = (
                self.stats.placements.get(worker.device_kind, 0) + 1
            )

    def serve_all(
        self, requests: Sequence[ServeRequest], clients: int = 8
    ) -> List[ServeOutcome]:
        """Serve many requests from a pool of ``clients`` threads.

        Outcomes are returned in request order regardless of completion
        order.  This is the benchmark's (and tests') entry point for
        simulating concurrent traffic.
        """
        if clients < 1:
            raise ServeError(f"clients must be >= 1, got {clients}")
        if clients == 1:
            return [self.launch(request) for request in requests]
        with ThreadPoolExecutor(max_workers=clients) as executor:
            return list(executor.map(self.launch, requests))

    # ------------------------------------------------------------------
    # Fleet introspection
    # ------------------------------------------------------------------

    @property
    def devices(self) -> Tuple[str, ...]:
        """Names of the fleet's devices (``cpu0``, ``gpu1``, ...)."""
        return tuple(worker.name for worker in self._workers)

    def runtime(self, device: str) -> DySelRuntime:
        """The runtime serving one named device."""
        for worker in self._workers:
            if worker.name == device:
                return worker.runtime
        raise ServeError(
            f"unknown device {device!r} (fleet: {list(self.devices)})"
        )

    def makespan_cycles(self) -> float:
        """Fleet makespan: the furthest-advanced device clock.

        Device clocks are independent, so the fleet's simulated wall time
        for a batch of requests is the maximum over devices — the number
        throughput comparisons divide by.
        """
        return max(
            worker.runtime.engine.now for worker in self._workers
        )

    def device_traces(self) -> Dict[str, Tuple[TraceEvent, ...]]:
        """Each device's recorded launch trace (empty when tracing off).

        Per-device traces are sequential (the engine lock serializes
        launches per device) and therefore reconcile with
        :func:`repro.obs.export.reconcile` individually.
        """
        return {
            worker.name: worker.runtime.tracer.events
            for worker in self._workers
        }
