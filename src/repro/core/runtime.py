"""DySelRuntime: the launch-facing runtime (paper Fig 6b).

``launch_kernel`` resolves the kernel pool and asks the launch policy
for a plan (:func:`repro.core.policy.decide`: small-workload
deactivation, activation flag, cached selections, and the caller's
:class:`~repro.core.policy.LaunchContext`).  A profiling plan is gated
through the static pool verifier (:mod:`repro.analyze`, level set by
``ReproConfig.verify``), laid out by safe point analysis and the
productive profiling layout, and run in the gated orchestration flow on
the device's execution engine; a profiling-off plan runs one batch.  One
runtime owns one engine, so simulated time accumulates across launches —
which is how iterative experiments (profile the first iteration, reuse the
selection) measure amortized overhead.

Failure philosophy: a launch that *could* run productively never dies on
a profiling-layout technicality.  An infeasible profiling plan (the fair
slice does not fit the workload) demotes — fully-productive falls back to
hybrid when the verifier allows it, otherwise profiling is switched off
and the pool default runs — with the demotion recorded in
``LaunchResult.reason`` and a :class:`ProfilingDemotionWarning`, matching
the verification gate's warn-level behaviour.  Each demotion derives a
profiling-off plan from the current one, so ``LaunchResult.source``
still names the policy branch that planned the launch.

With ``ReproConfig.trace`` set, every launch emits structured events
(:mod:`repro.obs`): ``LaunchBegin``/``LaunchEnd`` brackets, gate and plan
demotions, cache traffic, per-variant profile spans, eager chunks, and
the remainder batch — enough to reconstruct the paper's Fig 4 timelines
from a recorded trace.
"""

from __future__ import annotations

import contextlib
import warnings
from dataclasses import dataclass, replace
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..analyze.diagnostics import VerificationReport
from ..analyze.dominance import (
    policy_from_settings,
    pool_cost_bounds,
    prune_pool,
)
from ..analyze.gate import gate_launch
from ..analyze.manager import PoolVerifier
from ..analyze.passes import VerifyOverrides
from ..compiler.analyses.safe_point import safe_point_plan
from ..compiler.variants import VariantPool
from ..config import ReproConfig
from ..device.base import Device
from ..device.cost import invalidate_cost_memo, ir_hash
from ..device.engine import ExecutionEngine
from ..drift import DriftConfig, ReselectionController
from ..errors import (
    AnalysisError,
    LaunchAbortedError,
    LaunchError,
    ProfilingError,
    ProfilingFaultError,
    RegistrationError,
)
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan, FaultRecord
from ..faults.quarantine import VariantQuarantine
from ..kernel.kernel import KernelSpec, KernelVariant, WorkRange
from ..kernel.launch import LaunchConfig
from ..modes import OrchestrationFlow, ProfilingMode
from ..obs.events import EventKind
from . import policy
from .orchestrator import _run_batch_with_fallback, run_async, run_sync
from .policy import PAPER_LAUNCH, LaunchContext
from .productive import ProfilingPlan, plan_profiling
from .registry import DySelKernelRegistry
from .selection import SelectionCache, SelectionRecord


class ProfilingDemotionWarning(UserWarning):
    """A profiling plan was infeasible and the launch was demoted."""


@dataclass(frozen=True)
class LaunchResult:
    """What one ``launch_kernel`` call produced.

    ``elapsed_cycles`` covers everything the evaluation's timing covers
    (paper §4.1): profiling time, profiling launch overheads, and the
    remaining workload's compute time.
    """

    kernel: str
    selected: str
    profiled: bool
    mode: Optional[ProfilingMode]
    flow: Optional[OrchestrationFlow]
    start_cycles: float
    end_cycles: float
    reason: str = ""
    record: Optional[SelectionRecord] = None
    eager_chunks: int = 0
    eager_units: int = 0
    profiling_latency_cycles: float = 0.0
    #: The ``policy.decide`` branch that planned this launch
    #: (:attr:`~repro.core.policy.LaunchPlan.source`); runtime demotions
    #: keep it and note themselves in ``reason``.
    source: str = ""

    @property
    def elapsed_cycles(self) -> float:
        """Wall time of the launch on the device clock."""
        return self.end_cycles - self.start_cycles


class DySelRuntime:
    """The DySel runtime bound to one (simulated) device."""

    def __init__(
        self,
        device: Device,
        config: Optional[ReproConfig] = None,
        registry: Optional[DySelKernelRegistry] = None,
    ) -> None:
        self.device = device
        self.config = config if config is not None else device.config
        self.registry = registry if registry is not None else DySelKernelRegistry()
        self.engine = ExecutionEngine(device, self.config)
        self.cache = SelectionCache()
        #: Static pool verifier; verdicts are cached per pool, so gating
        #: costs one pass-manager run per (pool, overrides) lifetime.
        self.verifier = PoolVerifier()
        #: Observability hook: shared with the engine, so launch-level
        #: and engine-level events land on one timeline.
        self.tracer = self.engine.tracer
        #: Callbacks fired whenever a registration change invalidates a
        #: kernel's selection state (``callback(kernel_sig, why)``).  The
        #: serving layer registers one per runtime so persistent-store
        #: entries die together with the in-memory cache entry.
        self._invalidation_hooks: List[Callable[[str, str], None]] = []
        #: Repeat-offender ledger: variants that keep faulting are barred
        #: from selection until parole (see :mod:`repro.faults`).  The
        #: serving layer may replace this with a store-shared ledger so
        #: quarantines persist across worker runtimes.
        self.quarantine = VariantQuarantine(self.config.faults)
        #: Cache of quarantine-restricted pools, keyed by
        #: ``(kernel, barred-names)`` so repeat launches under a stable
        #: quarantine set do not rebuild the filtered pool each time.
        self._restricted_pools: Dict[
            Tuple[str, Tuple[str, ...]], VariantPool
        ] = {}
        #: Cache of dominance-pruned profiling candidate pools, keyed by
        #: ``(kernel, active-variant-names)`` — the active set changes
        #: with quarantine, and a replaced pool object fails the identity
        #: check, so a stale pruned pool is never reused.  Only consulted
        #: when ``ReproConfig.analyze.dominance`` is on.
        self._dominance_pools: Dict[
            Tuple[str, Tuple[str, ...]],
            Tuple[VariantPool, VariantPool, Tuple[str, ...]],
        ] = {}
        #: Optional drift feedback loop (:mod:`repro.drift`): when armed
        #: via :meth:`enable_drift`, profiling-off launches feed their
        #: measured cycles per unit into the detector and a confirmed
        #: drift re-arms profiling for the next launch of that kernel.
        #: ``None`` (the default) keeps the runtime's behaviour exactly
        #: as before — the serving layer drives its own controller per
        #: workload class instead.
        self.drift: Optional[ReselectionController] = None

    # ------------------------------------------------------------------
    # Fault injection (chaos testing)
    # ------------------------------------------------------------------

    def install_faults(self, plan: FaultPlan) -> FaultInjector:
        """Install a :class:`FaultPlan` on this runtime's engine.

        Every launch already runs the hardened paths — transient retries,
        deadline waits, productive-slice repair, quarantine and the
        degradation ladder (``docs/faults.md``).  The injector makes
        variants fault, and gives waits a finite hang deadline; without
        one nothing faults and every wait is unbounded.
        """
        injector = FaultInjector(plan)
        self.engine.injector = injector
        return injector

    def clear_faults(self) -> None:
        """Remove any installed fault injector (back to clean runs)."""
        self.engine.injector = None

    # ------------------------------------------------------------------
    # Drift adaptation
    # ------------------------------------------------------------------

    def enable_drift(
        self,
        config: Optional[DriftConfig] = None,
        controller: Optional[ReselectionController] = None,
    ) -> ReselectionController:
        """Arm the drift → re-profile feedback loop on this runtime.

        With drift enabled, every profiling-off launch feeds its measured
        cycles per workload unit into a per-kernel
        :class:`~repro.drift.DriftDetector`; a confirmed throughput
        change re-arms the profiling activation flag for the next launch
        of that kernel (``policy.decide`` reason
        ``"drift re-activation"``), and the re-selection episode is
        recorded on the returned controller.  Pass ``controller`` to
        share one across runtimes (the serving layer does its own wiring
        through the selection store instead).
        """
        if controller is not None:
            self.drift = controller
        else:
            self.drift = ReselectionController(config)
        return self.drift

    def add_invalidation_hook(
        self, hook: Callable[[str, str], None]
    ) -> None:
        """Subscribe to selection invalidations (``hook(kernel, why)``).

        Fired on every registration change that can stale derived
        selection state — pool extension via :meth:`add_kernel` and
        wholesale re-registration via :meth:`register_pool` — whether or
        not this runtime's own in-memory cache held an entry (an external
        store may hold selections this runtime never made).
        """
        self._invalidation_hooks.append(hook)

    # ------------------------------------------------------------------
    # Registration facade
    # ------------------------------------------------------------------

    def declare_kernel(self, spec: KernelSpec) -> None:
        """Declare a kernel signature (see :class:`DySelKernelRegistry`)."""
        self.registry.declare(spec)

    def add_kernel(
        self,
        kernel_sig: str,
        implementation: KernelVariant,
        initial_default: bool = False,
    ) -> None:
        """Register one implementation (``DySelAddKernel``, Fig 6a).

        Extending a pool invalidates any cached selection for it: the
        cached winner was chosen against the *old* candidate set, and a
        ``profiling=False`` launch must not silently ignore the new
        variant (nor crash on a name that a replacement removed).
        """
        self.registry.add_kernel(kernel_sig, implementation, initial_default)
        self._invalidate_selection(
            kernel_sig,
            "pool extended by add_kernel",
            ir_hashes=self._pool_ir_hashes(kernel_sig),
        )

    def register_pool(self, pool: VariantPool) -> None:
        """Register a compiler-built pool in one call.

        Re-registering a signature replaces the previous pool (see
        :meth:`DySelKernelRegistry.register_pool`) and invalidates its
        cached selection.  A *first* registration invalidates nothing:
        selections loaded from a persistent store must survive the
        routine pool registration that every serving process performs at
        startup.
        """
        replacing = pool.name in self.registry
        stale_hashes = self._pool_ir_hashes(pool.name) if replacing else ()
        self.registry.register_pool(pool)
        if replacing:
            hashes = set(stale_hashes)
            hashes.update(ir_hash(variant.ir) for variant in pool.variants)
            self._invalidate_selection(
                pool.name, "pool re-registered", ir_hashes=hashes
            )

    def _pool_ir_hashes(self, kernel_sig: str) -> Tuple[str, ...]:
        """IR hashes of a signature's currently registered variants."""
        try:
            pool = self.registry.pool(kernel_sig)
        except RegistrationError:
            return ()
        return tuple(ir_hash(variant.ir) for variant in pool.variants)

    def _invalidate_selection(
        self,
        kernel_sig: str,
        why: str,
        ir_hashes: Optional[Iterable[str]] = None,
    ) -> None:
        """Evict a kernel's cached selection after a registration change.

        Invalidation hooks fire unconditionally (external stores may hold
        selections this runtime never cached); the in-memory eviction and
        its trace event only happen when there was an entry to evict.
        With ``ir_hashes`` given, the engine's cost-kernel memo entries
        for those IRs are dropped too — a re-registered pool may ship a
        structurally different variant under the same name, and stale
        cost arrays must die with the stale selection.
        """
        for hook in self._invalidation_hooks:
            hook(kernel_sig, why)
        if ir_hashes:
            invalidate_cost_memo(ir_hashes)
        if kernel_sig not in self.cache:
            return
        stale = self.cache.lookup(kernel_sig)
        self.cache.invalidate(kernel_sig)
        if self.tracer.enabled:
            self.tracer.instant(
                EventKind.CACHE_INVALIDATE,
                kernel_sig,
                self.engine.now,
                stale_variant=stale.selected if stale else None,
                reason=why,
            )

    # ------------------------------------------------------------------
    # Launch
    # ------------------------------------------------------------------

    def launch_kernel(
        self,
        kernel_sig: str,
        args: Mapping[str, object],
        workload_units: int,
        profiling: bool = True,
        mode: Optional[ProfilingMode] = None,
        flow: OrchestrationFlow = OrchestrationFlow.ASYNC,
        initial_variant: Optional[str] = None,
        override_side_effects: bool = False,
        context: LaunchContext = PAPER_LAUNCH,
    ) -> LaunchResult:
        """Launch a kernel (``DySelLaunchKernel``, Fig 6b).

        Parameters
        ----------
        kernel_sig:
            Declared kernel signature name.
        args:
            Concrete argument mapping (validated against the signature).
        workload_units:
            Total workload units of this launch.
        profiling:
            The profiling activation flag (§3.1): off reuses the cached
            selection (or the pool default).
        mode:
            Productive profiling mode override; defaults to the compiler's
            recommendation from uniform-workload/side-effect analyses.
        flow:
            Orchestration flow; the paper's default is asynchronous.
            Swap-mode pools fall back to synchronous (Table 1).
        initial_variant:
            Async-flow initial default override (``Kdefault``).
        override_side_effects:
            The paper's programmer override (§3.4): asserts that global
            atomics are race-free across work-groups, downgrading the
            verifier's conservative atomics findings from ERROR to
            WARNING so fully/hybrid profiling stays available.
        context:
            What the caller knows beyond the paper's flags
            (:class:`~repro.core.policy.LaunchContext`): the serving
            layer's pinned selection, stream, drift re-arm, prediction,
            work range and backpressure.  The default is a plain paper
            launch.
        """
        if kernel_sig not in self.registry:
            raise LaunchError(f"kernel {kernel_sig!r} is not registered")
        work_range = context.work_range
        if work_range is not None:
            if len(work_range) != workload_units:
                raise LaunchError(
                    f"kernel {kernel_sig!r}: work_range {work_range!r} "
                    f"covers {len(work_range)} unit(s) but workload_units="
                    f"{workload_units}; pass the range's own unit count"
                )
            if profiling or context.drift_rearm:
                raise LaunchError(
                    f"kernel {kernel_sig!r}: a ranged launch never "
                    f"profiles (work_range {work_range!r}); split parts "
                    "ride their class's selection, so pass profiling=False"
                )
        if self.engine.injector is not None:
            self.engine.injector.kernel = kernel_sig
        pool = self._active_pool(kernel_sig, self.registry.pool(kernel_sig))
        profile_pool, dominated = self._dominance_candidates(
            kernel_sig, pool
        )
        launch = LaunchConfig.create(
            pool.spec.signature, args, workload_units
        )
        tracer = self.tracer
        if tracer.enabled:
            ranged = {}
            if work_range is not None:
                ranged = {"work_start": work_range.start, "work_end": work_range.end}
            tracer.instant(
                EventKind.LAUNCH_BEGIN,
                kernel_sig,
                self.engine.now,
                workload_units=workload_units,
                profiling_requested=profiling,
                requested_flow=flow.value,
                requested_mode=mode.value if mode is not None else None,
                launch_index=self.engine.launch_count,
                **ranged,
            )
            if dominated and profiling:
                tracer.instant(
                    EventKind.DOMINANCE_PRUNE,
                    kernel_sig,
                    self.engine.now,
                    pruned=list(dominated),
                    survivors=list(profile_pool.variant_names),
                    margin=self.config.analyze.dominance_margin,
                    device_kind=self.device.kind,
                )

        # The runtime's own drift loop re-arms a profiling-off launch; the
        # claim goes back on exit unless the re-profile completes it.
        claims = (
            self.drift.claiming(kernel_sig)
            if self.drift is not None
            and not (profiling or context.drift_rearm)
            and work_range is None
            else contextlib.nullcontext(False)
        )
        with claims as claimed:
            if claimed:
                context = replace(context, drift_rearm=True)
            plan = policy.decide(
                pool,
                workload_units,
                profiling,
                self.cache,
                self.config,
                tracer,
                self.engine.now,
                dominated=dominated,
                context=context,
            )
            if plan.profile:
                result = self._launch_profiled(
                    pool,
                    profile_pool,
                    launch,
                    replace(
                        plan,
                        mode=mode if mode is not None else pool.mode,
                        flow=flow,
                    ),
                    context,
                    initial_variant,
                    override_side_effects,
                )
            else:
                result = self._launch_without_profiling(
                    pool, launch, plan, context
                )
            if claimed and result.profiled:
                self.drift.complete_launch(
                    kernel_sig,
                    kernel_sig,
                    result.selected,
                    tracer,
                    self.engine.now,
                )
        if tracer.enabled:
            tracer.instant(
                EventKind.LAUNCH_END,
                kernel_sig,
                result.end_cycles,
                selected=result.selected,
                profiled=result.profiled,
                mode=result.mode.value if result.mode is not None else None,
                flow=result.flow.value if result.flow is not None else None,
                elapsed_cycles=result.elapsed_cycles,
                profiling_latency_cycles=result.profiling_latency_cycles,
                eager_chunks=result.eager_chunks,
                eager_units=result.eager_units,
                reason=result.reason,
            )
        if not plan.profile and self.drift is not None:
            self.drift.observe_launch(
                kernel_sig,
                kernel_sig,
                result.selected,
                result.elapsed_cycles,
                workload_units,
                tracer,
                self.engine.now,
            )
        return result

    def _launch_profiled(
        self,
        pool: VariantPool,
        profile_pool: VariantPool,
        launch: LaunchConfig,
        plan: policy.LaunchPlan,
        context: LaunchContext,
        initial_variant: Optional[str],
        override_side_effects: bool,
    ) -> LaunchResult:
        """Gate, lay out and run a profiling plan over ``profile_pool``.

        The verification gate resolves the plan's requested (mode, flow);
        an infeasible layout or a profile that loses every candidate
        demotes to a profiling-off plan derived from this one.
        """
        assert plan.mode is not None and plan.flow is not None
        report: Optional[VerificationReport] = None
        if self.config.verify != "off":
            report = self.verifier.verify(
                pool,
                compute_units=self.device.spec.compute_units,
                overrides=VerifyOverrides(
                    atomics_race_free=override_side_effects
                ),
                device_kind=self.device.kind,
                settings=self.config.analyze,
            )
            gate = gate_launch(report, plan.mode, plan.flow, self.config.verify)
            if self.tracer.enabled:
                self.tracer.instant(
                    EventKind.GATE_DECISION,
                    pool.name,
                    self.engine.now,
                    requested=f"{plan.mode.value}_{plan.flow.value}",
                    resolved=f"{gate.mode.value}_{gate.flow.value}",
                    demoted=gate.demoted,
                    note=gate.note,
                )
            if gate.note:
                plan = plan.noted(gate.note)
            plan = replace(plan, mode=gate.mode, flow=gate.flow)
        elif (
            plan.flow is OrchestrationFlow.ASYNC
            and not plan.mode.supports_async
        ):
            # Pre-verifier fallback (verify="off"): Table 1's silent
            # swap → synchronous demotion.
            plan = replace(
                plan.noted("swap mode forced synchronous flow"),
                flow=OrchestrationFlow.SYNC,
            )

        laid_out = self._lay_out(profile_pool, plan, launch, report)
        if laid_out is None:
            # Nothing profilable fits this launch: run the pool default
            # without profiling instead of failing the launch.
            demoted = plan.demoted(
                pool.initial_default,
                "profiling plan infeasible; demoted to profiling-off with "
                "the pool default",
            )
            return self._launch_without_profiling(
                pool, launch, demoted, context
            )
        layout, plan = laid_out
        try:
            if plan.flow is OrchestrationFlow.SYNC:
                outcome = run_sync(
                    self.engine, profile_pool, layout, launch, self.config
                )
            else:
                outcome = run_async(
                    self.engine,
                    profile_pool,
                    layout,
                    launch,
                    self.config,
                    initial_variant=initial_variant,
                )
        except ProfilingFaultError as exc:
            return self._degrade_after_faults(pool, launch, plan, exc, context)
        self.cache.record(outcome.record)
        if outcome.faults:
            self._note_faults(pool.name, outcome.faults)
        assert outcome.record.selected is not None
        return LaunchResult(
            kernel=pool.name,
            selected=outcome.record.selected,
            profiled=True,
            mode=plan.mode,
            flow=plan.flow,
            start_cycles=outcome.start_cycles,
            end_cycles=outcome.end_cycles,
            reason=plan.reason,
            record=outcome.record,
            eager_chunks=outcome.eager_chunks,
            eager_units=outcome.eager_units,
            profiling_latency_cycles=outcome.profiling_latency_cycles,
            source=plan.source,
        )

    def _lay_out(
        self,
        pool: VariantPool,
        plan: policy.LaunchPlan,
        launch: LaunchConfig,
        report: Optional[VerificationReport],
    ) -> Optional[Tuple[ProfilingPlan, policy.LaunchPlan]]:
        """Lay out the profiling plan, demoting when it does not fit.

        The workload passed the small-workload policy, yet safe point
        analysis can find no fair slice (a huge LCM of work assignment
        factors), or the slice can exceed what the launch has
        (fully-productive needs K slices).  Rather than fail a launch
        that plain execution handles, fully-productive retries as hybrid
        (one shared slice, K−1 sandboxes) where the verifier allows it;
        anything still infeasible returns ``None`` (profiling-off).
        Every demotion warns and is traced.
        """
        mode = plan.mode
        assert mode is not None and plan.flow is not None
        try:
            safe = safe_point_plan(
                pool.variants,
                compute_units=self.device.spec.compute_units,
                workload_units=launch.workload_units,
                multiplier=self.config.safe_point_multiplier,
            )
        except AnalysisError as exc:
            note = f"safe point analysis infeasible ({exc})"
            self._demote_layout(pool.name, mode, note, exc)
            return None
        try:
            return plan_profiling(pool, mode, launch, safe), plan
        except ProfilingError as exc:
            error = exc

        note = f"profiling plan infeasible for {mode.value} ({error})"
        # Hybrid runs in the requested flow if the verifier allows it
        # there, else synchronously (no report: verification is off).
        hybrid_flows = [
            flow
            for flow in (plan.flow, OrchestrationFlow.SYNC)
            if report is None or report.is_legal(ProfilingMode.HYBRID, flow)
        ]
        if mode is ProfilingMode.FULLY and hybrid_flows:
            try:
                layout = plan_profiling(pool, ProfilingMode.HYBRID, launch, safe)
            except ProfilingError:
                pass
            else:
                note += "; demoted to hybrid"
                flow = hybrid_flows[0]
                self._demote_layout(
                    pool.name, mode, note, error, f"hybrid_{flow.value}"
                )
                hybrid = replace(
                    plan.noted(note), mode=ProfilingMode.HYBRID, flow=flow
                )
                return layout, hybrid
        self._demote_layout(pool.name, mode, note, error)
        return None

    def _demote_layout(
        self,
        kernel: str,
        mode: ProfilingMode,
        note: str,
        error: Exception,
        to: str = "profiling-off",
    ) -> None:
        """Warn about and trace one layout demotion (to hybrid or off)."""
        if to == "profiling-off":
            note += "; demoted to profiling-off (pool default)"
        self._warn_demotion(kernel, note, stacklevel=6)
        if self.tracer.enabled:
            self.tracer.instant(
                EventKind.PLAN_DEMOTION,
                kernel,
                self.engine.now,
                from_mode=mode.value,
                to=to,
                error=str(error),
            )

    def _warn_demotion(
        self, kernel: str, note: str, stacklevel: int = 5
    ) -> None:
        """Emit the profiling-demotion warning for one launch."""
        warnings.warn(
            f"kernel {kernel!r}: {note}. The launch continues; set a "
            "larger workload or a smaller safe_point_multiplier to keep "
            "profiling active.",
            ProfilingDemotionWarning,
            stacklevel=stacklevel,
        )

    # ------------------------------------------------------------------
    # Fault handling: quarantine filtering and the degradation ladder
    # ------------------------------------------------------------------

    def _active_pool(
        self, kernel_sig: str, pool: VariantPool
    ) -> VariantPool:
        """Filter quarantined variants out of the registered pool.

        A quarantined variant must not be profiled, selected eagerly, or
        replayed from a cached selection; barring it from the pool the
        policy sees covers all three (``policy.decide`` already evicts
        cached winners that are no longer in the pool).  Raises
        :class:`LaunchAbortedError` when every variant is barred —
        nothing can run until parole.
        """
        barred = self.quarantine.quarantined(kernel_sig)
        if not barred:
            return pool
        kept = tuple(v for v in pool.variants if v.name not in barred)
        if not kept:
            raise LaunchAbortedError(
                f"kernel {kernel_sig!r}: every variant is quarantined "
                f"({', '.join(barred)}); nothing can run until parole",
                kernel=kernel_sig,
                quarantined=barred,
            )
        key = (kernel_sig, barred)
        cached = self._restricted_pools.get(key)
        if cached is not None:
            return cached
        default = pool.initial_default
        if default in barred:
            default = kept[0].name
        restricted = VariantPool(
            spec=pool.spec,
            variants=kept,
            mode=pool.mode,
            initial_default=default,
        )
        self._restricted_pools[key] = restricted
        return restricted

    def _dominance_candidates(
        self, kernel_sig: str, pool: VariantPool
    ) -> Tuple[VariantPool, Tuple[str, ...]]:
        """The micro-profiling candidate pool after dominance pruning.

        With ``ReproConfig.analyze.dominance`` off (the default) the pool
        passes through untouched.  On, each variant's static cost
        interval (:mod:`repro.analyze.costbound`, per-unit bounds so the
        verdict holds for every workload size) is compared against the
        best upper bound; variants whose lower bound exceeds it by the
        safety margin are excluded from *profiling only* — the returned
        names never leave the correctness pool, so quarantine fallback,
        pinning, and differential testing still see them.  Composes with
        quarantine: ``pool`` here is already the quarantine-filtered
        active pool, and the cache key includes its variant names.
        """
        settings = self.config.analyze
        if not settings.dominance or len(pool.variants) <= 1:
            return pool, ()
        key = (kernel_sig, pool.variant_names)
        hit = self._dominance_pools.get(key)
        if hit is not None and hit[0] is pool:
            return hit[1], hit[2]
        verdict = pool_cost_bounds(
            pool,
            self.device.kind,
            policy=policy_from_settings(settings),
            margin=settings.dominance_margin,
        )
        pruned_pool, dominated = prune_pool(pool, verdict)
        self._dominance_pools[key] = (pool, pruned_pool, dominated)
        return pruned_pool, dominated

    def _note_faults(
        self, kernel_sig: str, faults: Sequence[FaultRecord]
    ) -> None:
        """Book observed faults into the quarantine ledger.

        Each record counts one strike against its variant; crossing the
        policy threshold quarantines it, emits a trace event, and fires
        the selection-invalidation hooks (a persisted selection pinning a
        now-quarantined variant must not be replayed).
        """
        for record in faults:
            newly = self.quarantine.note_fault(
                kernel_sig, record.variant, record.kind
            )
            if not newly:
                continue
            if self.tracer.enabled:
                self.tracer.instant(
                    EventKind.VARIANT_QUARANTINE,
                    record.variant,
                    self.engine.now,
                    kernel=kernel_sig,
                    fault_kind=record.kind,
                    fault_count=self.quarantine.fault_count(
                        kernel_sig, record.variant
                    ),
                )
            self._invalidate_selection(
                kernel_sig,
                f"variant {record.variant!r} quarantined after repeated "
                "faults",
            )

    def _degrade_after_faults(
        self,
        pool: VariantPool,
        launch: LaunchConfig,
        plan: policy.LaunchPlan,
        exc: ProfilingFaultError,
        context: LaunchContext,
    ) -> LaunchResult:
        """Profiling lost every candidate: degrade to a profiling-off run.

        The degraded run re-executes the *whole* workload (overwriting
        any garbage a corrupt candidate scribbled into productive slices)
        with the best remaining default: prefer variants that neither
        faulted in this launch nor sit in quarantine, then fall back to
        faulted-but-unquarantined ones.  When nothing remains the launch
        aborts with :class:`LaunchAbortedError`.
        """
        kernel_sig = pool.name
        self._note_faults(kernel_sig, exc.faults)
        faulted = tuple(sorted({f.variant for f in exc.faults}))
        if self.tracer.enabled:
            self.tracer.instant(
                EventKind.LAUNCH_DEGRADED,
                kernel_sig,
                self.engine.now,
                faults=len(exc.faults),
                faulted=list(faulted),
                error=str(exc),
            )
        active = [
            name
            for name in pool.variant_names
            if not self.quarantine.is_quarantined(kernel_sig, name)
        ]
        if not active:
            raise LaunchAbortedError(
                f"kernel {kernel_sig!r}: profiling faulted on every "
                "candidate and no variant survives quarantine",
                kernel=kernel_sig,
                quarantined=self.quarantine.quarantined(kernel_sig),
                faulted=faulted,
            ) from exc
        clean = [name for name in active if name not in faulted]
        default = clean[0] if clean else active[0]
        note = (
            "profiling faulted on every candidate; degraded to "
            f"profiling-off with {default!r}"
        )
        self._warn_demotion(kernel_sig, note)
        return self._launch_without_profiling(
            pool, launch, plan.demoted(default, note), context
        )

    def _launch_without_profiling(
        self,
        pool: VariantPool,
        launch: LaunchConfig,
        plan: policy.LaunchPlan,
        context: LaunchContext,
    ) -> LaunchResult:
        """Run the planned variant over the launch's units in one batch.

        The batch covers the whole workload, or ``context.work_range``
        (the fleet scheduler's split parts).  It runs through the
        orchestrator's fallback chain: the planned variant first, then —
        only once it faults — every non-quarantined sibling, until one
        finishes the whole range cleanly.  Exhausting the chain aborts
        the launch.
        """
        assert plan.variant_name is not None
        span = context.work_range
        if span is None:
            span = WorkRange(0, launch.workload_units)
        start = self.engine.now
        faults: List[FaultRecord] = []
        try:
            selected = _run_batch_with_fallback(
                self.engine,
                pool,
                plan.variant_name,
                lambda name: self.quarantine.is_quarantined(pool.name, name),
                launch.args,
                span,
                self.config,
                faults,
                stage="batch",
                stream=context.stream_name,
            )
        except ProfilingFaultError as exc:
            self._note_faults(pool.name, exc.faults)
            raise LaunchAbortedError(
                f"kernel {pool.name!r}: every runnable variant "
                "faulted on the batch run",
                kernel=pool.name,
                quarantined=self.quarantine.quarantined(pool.name),
                faulted=tuple(sorted({f.variant for f in exc.faults})),
            ) from exc
        if faults:
            self._note_faults(pool.name, faults)
        if selected != plan.variant_name:
            plan = plan.noted(
                f"default {plan.variant_name!r} faulted, batch completed "
                f"by {selected!r}"
            )
        return LaunchResult(
            kernel=pool.name,
            selected=selected,
            profiled=False,
            mode=None,
            flow=None,
            start_cycles=start,
            end_cycles=self.engine.now,
            reason=plan.reason,
            source=plan.source,
        )
