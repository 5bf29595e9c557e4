"""Launch-time policy: when does DySel actually profile?

Paper §2.1: profiling-based selection is deactivated for small workloads —
launches under ~128 work-groups are both rare (Fig 2) and too small for
the optimization level to matter, while profiling overhead would be
proportionally large.  Paper §3.1: the *profiling activation flag* lets
iterative applications profile only their first iteration; later launches
reuse the cached selection.

A cached selection is only trusted after validation against the *current*
pool: re-registration can replace or extend a pool after a selection was
cached, and a stale winner must never be launched (it may not exist any
more) nor silently preferred over newly registered variants.  Stale
entries are evicted here and the launch falls back to the pool default
with an explicit reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Sequence

from ..compiler.variants import VariantPool
from ..config import ReproConfig
from ..errors import LaunchError
from ..kernel.kernel import WorkRange
from ..modes import OrchestrationFlow, ProfilingMode
from ..obs.events import EventKind
from ..obs.tracer import NULL_TRACER, Tracer
from ..predict import Prediction
from .selection import SelectionCache, SelectionRecord


@dataclass(frozen=True)
class LaunchContext:
    """What a caller knows about one launch beyond the paper's flags.

    :meth:`~repro.core.runtime.DySelRuntime.launch_kernel` takes the
    paper's launch parameters (Fig 6b) plus one context; the default is a
    plain paper launch, and the serving layer fills one per admitted
    request.  :func:`decide` ranks each input against the others.

    * ``pinned_variant`` — with ``profiling=False``, run exactly this
      variant (a persisted selection); validated against the pool.
    * ``stream_name`` — the stream a profiling-off batch is attributed to
      (profiled launches use their own per-candidate streams).
    * ``drift_rearm`` — with ``profiling=False``, re-profile this launch: a
      confirmed drift (:mod:`repro.drift`) wants a fresh measurement.
    * ``predicted`` — a confident model guess (:mod:`repro.predict`) that
      may replace the micro-profile.
    * ``work_range`` — run only this half-open sub-range of the units,
      writing exactly its output slice (the fleet's split parts).
      ``workload_units`` must be its length, and a ranged launch that
      asks to profile raises :class:`~repro.errors.LaunchError`.
    * ``deferred`` — profiling backpressure (:mod:`repro.serve.qos`): a
      launch that would profile runs profiling-off instead.
    """

    pinned_variant: Optional[str] = None
    stream_name: Optional[str] = None
    drift_rearm: bool = False
    predicted: Optional[Prediction] = None
    work_range: Optional[WorkRange] = None
    deferred: bool = False


#: The context of a plain paper launch (no serving inputs).
PAPER_LAUNCH = LaunchContext()


@dataclass(frozen=True)
class LaunchPlan:
    """One launch's course: profile, or run one variant without profiling.

    :func:`decide` returns it; the runtime executes it.  ``source`` names
    the :func:`decide` branch that planned the launch — ``"drift"``,
    ``"pinned"``, ``"cached"``, ``"default"``, ``"small-workload"``,
    ``"single-variant"``, ``"dominance"``, ``"predicted"``,
    ``"deferred"`` or ``"profiling"`` — and is copied onto
    :class:`~repro.core.runtime.LaunchResult`, so callers never parse
    ``reason``.  For a profiling plan the runtime fills ``mode`` and
    ``flow`` (the requested pair, then the gated one), and every
    demotion derives a new plan (:meth:`demoted`) that keeps ``source``
    and appends its note to ``reason``.
    """

    profile: bool
    variant_name: Optional[str] = None
    reason: str = ""
    source: str = ""
    mode: Optional[ProfilingMode] = None
    flow: Optional[OrchestrationFlow] = None

    def noted(self, note: str) -> "LaunchPlan":
        """This plan with ``note`` appended to its reason."""
        return replace(self, reason=f"{self.reason}; {note}")

    def demoted(self, variant_name: str, note: str) -> "LaunchPlan":
        """The profiling-off plan that runs ``variant_name`` instead."""
        return replace(
            self.noted(note),
            profile=False,
            variant_name=variant_name,
            mode=None,
            flow=None,
        )


def _validated_cached(
    pool: VariantPool,
    cache: SelectionCache,
    tracer: Tracer,
    now: float,
) -> tuple:
    """The cached selection if it names a current variant, else evict it.

    Returns ``(record or None, stale_note)``; ``stale_note`` is non-empty
    when a stale entry was found and evicted.
    """
    cached: Optional[SelectionRecord] = cache.lookup(pool.name)
    if cached is None:
        return None, ""
    if cached.selected in pool.variant_names:
        return cached, ""
    stale_note = (
        f"cached selection {cached.selected!r} is not in the current pool "
        f"(variants: {list(pool.variant_names)}); "
    )
    cache.invalidate(pool.name)
    if tracer.enabled:
        tracer.instant(
            EventKind.CACHE_INVALIDATE,
            pool.name,
            now,
            stale_variant=cached.selected,
            reason="cached variant no longer in pool",
        )
    return None, stale_note


def _base_groups(pool: VariantPool, workload_units: int) -> int:
    """Work-groups of the finest-grained variant (the §2.1 size proxy)."""
    return workload_units // max(1, min(v.wa_factor for v in pool.variants))


def decide(
    pool: VariantPool,
    workload_units: int,
    profiling_requested: bool,
    cache: SelectionCache,
    config: ReproConfig,
    tracer: Tracer = NULL_TRACER,
    now: float = 0.0,
    dominated: Sequence[str] = (),
    context: LaunchContext = PAPER_LAUNCH,
) -> LaunchPlan:
    """Plan one launch from the paper's flag and the caller's context.

    Precedence: an explicit ``profiling=False`` wins (use the pinned
    variant if given, else the cached selection if one exists *and still
    names a pool variant*, else the pool's default); a cached selection is
    reused only when the caller deactivated profiling — re-requesting
    profiling re-profiles, which is how callers handle changed inputs; a
    small workload deactivates profiling regardless.

    ``context.drift_rearm`` is the drift loop's override
    (:mod:`repro.drift`): a confirmed throughput drift re-arms profiling
    for exactly this launch even though the caller deactivated it,
    *unless* the workload is too small to profile or the pool has
    nothing to select — then the re-arm is moot and the normal
    profiling-off path runs (the caller's claim goes back, so a later,
    larger launch retries).

    ``context.pinned_variant`` is the serving layer's instruction
    (persistent selection store, :mod:`repro.serve`): run exactly this
    variant without profiling.  It is validated against the current pool
    like a cached selection — a pinned name the pool no longer contains
    is ignored with an explicit reason rather than launched blind.

    ``dominated`` names variants the static cost-bound analysis excluded
    from the micro-profiling candidate set
    (:mod:`repro.analyze.dominance`): they stay in the correctness pool,
    but profiling plans are built over the survivors only, and when a
    single candidate survives, profiling is skipped outright — its
    outcome is statically known.  Each exclusion is recorded in the
    plan's reason as ``"statically dominated"``.

    ``context.predicted`` is the serving layer's model guess
    (:mod:`repro.predict`), already vetted against the confidence
    threshold by the caller.  It is deliberately the *weakest* input:
    it only converts a launch that would otherwise micro-profile into a
    profiling-off run of the predicted variant (``"predicted
    selection"``), so it can never override the small-workload,
    single-variant, pinned, or quarantine gates (a quarantined variant
    is not in ``pool`` at all), never applies to a drift re-arm (the
    episode wants a real measurement), and only chooses among the
    dominance survivors — a predicted variant the static analysis
    excluded falls back to profiling with an explicit note.

    ``context.deferred`` is the serving layer's profiling
    *backpressure* flag (:mod:`repro.serve.qos`): the fleet is
    overloaded, so a launch that would micro-profile (or re-profile for
    drift) runs profiling-off on the best variant already known — cached
    selection if valid, else the pool default — with an explicit
    ``"deferred by backpressure"`` reason.  Deferral is *weaker than
    prediction* (a confident predicted variant still serves; it costs no
    profiling) and irrelevant to every branch that was not going to
    profile anyway (pinned, cached, small-workload, single-variant,
    profiling-off).

    ``tracer``/``now`` report cache traffic to :mod:`repro.obs` when
    tracing is on (``now`` is the engine clock at decision time).
    """
    cached, stale_note = _validated_cached(pool, cache, tracer, now)
    if (
        context.drift_rearm
        and not profiling_requested
        and len(pool.variants) > 1
        and _base_groups(pool, workload_units)
        >= config.small_workload_threshold
    ):
        if context.deferred:
            return _deferred_plan(
                pool, cached, stale_note, kind="drift re-profile"
            )
        return LaunchPlan(
            profile=True, reason="drift re-activation", source="drift"
        )
    pinned = context.pinned_variant
    if pinned is not None and not profiling_requested:
        if pinned in pool.variant_names:
            return LaunchPlan(
                profile=False,
                variant_name=pinned,
                reason="profiling deactivated; pinned selection reused",
                source="pinned",
            )
        stale_note += (
            f"pinned selection {pinned!r} is not in the current "
            f"pool (variants: {list(pool.variant_names)}); "
        )
    if not profiling_requested:
        if cached is not None:
            if tracer.enabled:
                tracer.instant(
                    EventKind.CACHE_HIT,
                    pool.name,
                    now,
                    selected=cached.selected,
                )
            return LaunchPlan(
                profile=False,
                variant_name=cached.selected,
                reason="profiling deactivated; cached selection reused",
                source="cached",
            )
        return LaunchPlan(
            profile=False,
            variant_name=pool.initial_default,
            reason=(
                f"profiling deactivated; {stale_note}no cached selection, "
                "using default"
            ),
            source="default",
        )

    base_groups = _base_groups(pool, workload_units)
    if base_groups < config.small_workload_threshold:
        if cached is not None and tracer.enabled:
            tracer.instant(
                EventKind.CACHE_HIT, pool.name, now, selected=cached.selected
            )
        name = cached.selected if cached is not None else pool.initial_default
        return LaunchPlan(
            profile=False,
            variant_name=name,
            reason=(
                f"small workload ({base_groups} work-groups < "
                f"{config.small_workload_threshold}); profiling deactivated"
            ),
            source="small-workload",
        )

    if len(pool.variants) == 1:
        return LaunchPlan(
            profile=False,
            variant_name=pool.variants[0].name,
            reason="single-variant pool; nothing to select",
            source="single-variant",
        )

    excluded = tuple(n for n in dominated if n in pool.variant_names)
    survivors = tuple(n for n in pool.variant_names if n not in excluded)
    notes = ""
    if excluded:
        note = (
            f"{', '.join(repr(n) for n in excluded)} statically dominated"
            " (excluded from profiling)"
        )
        if len(survivors) == 1:
            return LaunchPlan(
                profile=False,
                variant_name=survivors[0],
                reason=(
                    f"single non-dominated candidate; {note}; "
                    "profiling skipped"
                ),
                source="dominance",
            )
        notes = f"; {note}"

    predicted = context.predicted
    if predicted is not None and not context.drift_rearm:
        if predicted.variant in survivors:
            return LaunchPlan(
                profile=False,
                variant_name=predicted.variant,
                reason=(
                    f"predicted selection ({predicted.variant!r}, "
                    f"confidence {predicted.confidence:.2f})"
                    f"{notes}"
                ),
                source="predicted",
            )
        notes += (
            f"; predicted {predicted.variant!r} is not a profiling "
            "candidate"
        )

    if context.deferred:
        return _deferred_plan(
            pool, cached, stale_note, kind="micro-profile", notes=notes
        )
    return LaunchPlan(
        profile=True, reason=f"profiling activated{notes}", source="profiling"
    )


def _deferred_plan(
    pool: VariantPool,
    cached: Optional[SelectionRecord],
    stale_note: str,
    kind: str,
    notes: str = "",
) -> LaunchPlan:
    """A backpressure-deferred launch: profiling-off on the known best.

    ``kind`` names what was postponed: ``"micro-profile"`` (a cold class)
    or ``"drift re-profile"`` (a confirmed-drift re-arm).
    """
    if cached is not None:
        name, basis = cached.selected, "using cached selection"
    else:
        name, basis = pool.initial_default, f"{stale_note}using pool default"
    return LaunchPlan(
        profile=False,
        variant_name=name,
        reason=f"{kind} deferred by backpressure; {basis}{notes}",
        source="deferred",
    )


# ----------------------------------------------------------------------
# Placement: the device-kind dimension of the selection tuple
# ----------------------------------------------------------------------

#: Placement policies accepted by :func:`decide_placement`.
PLACEMENT_POLICIES = ("cost-model", "dynamic-load")


@dataclass(frozen=True)
class PlacementCandidate:
    """One device kind's bid for a launch, as seen by the scheduler.

    ``load_cycles`` is the least-loaded same-kind worker's projected
    clock (cycles of already-committed work).  ``measured_cycles`` is the
    store's EWMA estimate for this (kernel, kind, class) scaled to the
    request — ``None`` until the class has been profiled on this kind.
    ``static_cycles`` is the static cost-bound interval midpoint from
    :mod:`repro.analyze.costbound` scaled the same way — ``None`` when
    the analysis could not bound the pool on this kind.  ``quarantined``
    marks a kind whose *entire* pool is currently barred by
    :class:`~repro.faults.quarantine.VariantQuarantine`; such kinds are
    excluded from placement the way quarantined variants are excluded
    from selection.
    """

    device_kind: str
    load_cycles: float = 0.0
    measured_cycles: Optional[float] = None
    static_cycles: Optional[float] = None
    quarantined: bool = False

    @property
    def cost_basis(self) -> str:
        """Which estimate a cost-model placement would use for this kind."""
        if self.measured_cycles is not None:
            return "measured"
        if self.static_cycles is not None:
            return "static"
        return "load"

    @property
    def projected_cycles(self) -> float:
        """Projected finish time under the cost-model policy."""
        cost = self.measured_cycles
        if cost is None:
            cost = self.static_cycles
        if cost is None:
            cost = 0.0
        return self.load_cycles + cost


@dataclass(frozen=True)
class PlacementDecision:
    """Where one launch should run, and why.

    The ``reason`` vocabulary mirrors the variant-selection reasons of
    :func:`decide` so traces read uniformly: ``"pinned device kind"``
    (caller forced the kind), ``"single eligible device kind"`` (nothing
    to choose), ``"dynamic load placement"`` (least projected load wins),
    ``"store-measured placement"`` / ``"static cost-bound placement"``
    (cost-model policy; the winner's estimate came from warm EWMA state
    or from the cold-start static interval midpoint).  Quarantine and
    stale-pin notes are appended the same way :func:`decide` appends
    dominance notes.
    """

    device_kind: str
    reason: str
    projected: Mapping[str, float] = field(default_factory=dict)


def decide_placement(
    kernel: str,
    candidates: Sequence[PlacementCandidate],
    policy: str = "cost-model",
    pinned_kind: Optional[str] = None,
) -> PlacementDecision:
    """Resolve the device-kind dimension for one launch.

    Pure function over the per-kind :class:`PlacementCandidate` bids the
    scheduler assembled, so the precedence rules are testable the same
    way :func:`decide` is.  Precedence, strongest first:

    1. Kinds whose whole pool is quarantined are ineligible (noted).
    2. ``pinned_kind`` wins when it is eligible; a pinned kind that is
       unknown or quarantined is ignored with an explicit note and the
       normal policy runs — mirroring how a stale pinned *variant* falls
       through in :func:`decide`.
    3. A single eligible kind is chosen outright.
    4. ``policy="dynamic-load"`` picks the least projected load
       (the oneDPL ``dynamic_load_policy`` rule).
    5. ``policy="cost-model"`` picks the least *projected finish time*:
       load plus the store-measured EWMA estimate when the class is warm
       on that kind, else the static cost-bound midpoint, else load
       alone.  The reason names the winner's basis, so a trace shows
       cold-start placements flip from ``"static cost-bound placement"``
       to ``"store-measured placement"`` as the store warms.

    Raises :class:`~repro.errors.LaunchError` when no kind is eligible
    or ``policy`` is unknown.
    """
    if policy not in PLACEMENT_POLICIES:
        raise LaunchError(
            f"unknown placement policy {policy!r} "
            f"(expected one of {list(PLACEMENT_POLICIES)})"
        )
    if not candidates:
        raise LaunchError(
            f"kernel {kernel!r}: no device-kind candidates for placement"
        )
    eligible = [c for c in candidates if not c.quarantined]
    barred = [c.device_kind for c in candidates if c.quarantined]
    notes = ""
    if barred:
        notes = (
            f"; {', '.join(repr(k) for k in sorted(barred))} quarantined "
            "(excluded from placement)"
        )
    if not eligible:
        raise LaunchError(
            f"kernel {kernel!r}: every device kind is quarantined "
            f"({', '.join(repr(k) for k in sorted(barred))}); "
            "placement impossible"
        )
    projected = {c.device_kind: c.projected_cycles for c in eligible}
    if pinned_kind is not None:
        chosen = next(
            (c for c in eligible if c.device_kind == pinned_kind), None
        )
        if chosen is not None:
            return PlacementDecision(
                device_kind=chosen.device_kind,
                reason=f"pinned device kind{notes}",
                projected=projected,
            )
        known = {c.device_kind for c in candidates}
        why = "quarantined" if pinned_kind in known else "unknown"
        notes = (
            f"; pinned device kind {pinned_kind!r} is {why} (ignored)"
            + notes
        )
    if len(eligible) == 1:
        return PlacementDecision(
            device_kind=eligible[0].device_kind,
            reason=f"single eligible device kind{notes}",
            projected=projected,
        )
    if policy == "dynamic-load":
        winner = min(eligible, key=lambda c: (c.load_cycles, c.device_kind))
        return PlacementDecision(
            device_kind=winner.device_kind,
            reason=f"dynamic load placement{notes}",
            projected=projected,
        )
    winner = min(eligible, key=lambda c: (c.projected_cycles, c.device_kind))
    basis_reason = {
        "measured": "store-measured placement",
        "static": "static cost-bound placement",
        "load": "dynamic load placement",
    }[winner.cost_basis]
    return PlacementDecision(
        device_kind=winner.device_kind,
        reason=f"{basis_reason}{notes}",
        projected=projected,
    )
