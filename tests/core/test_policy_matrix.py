"""Exhaustive matrix over ``policy.decide``'s inputs.

Every combination of (activation flag x cache state x workload size x
pinned selection x drift re-arm x pool shape) is checked against an
independent oracle of the documented precedence, proving each
``LaunchPlan.reason`` branch reachable, the mapping stable, and each
plan's ``source`` the branch its reason names.  The serving inputs
(pinned selection, drift re-arm, prediction, backpressure) reach
``decide`` as one :class:`~repro.core.LaunchContext`; the matrix is a
table over those contexts (:data:`CONTEXTS`).  A directed section covers
the quarantine interaction (the runtime filters barred variants *before*
``decide`` sees the pool).
"""

import itertools
from dataclasses import replace

import pytest

from repro.compiler.variants import VariantPool
from repro.core import LaunchContext, policy
from repro.core.runtime import DySelRuntime
from repro.core.selection import (
    SelectionCache,
    SelectionRecord,
    VariantMeasurement,
)
from repro.modes import OrchestrationFlow, ProfilingMode
from repro.predict import Prediction
from tests.conftest import axpy_signature, make_axpy_args, make_axpy_variant

# ----------------------------------------------------------------------
# The matrix axes
# ----------------------------------------------------------------------

FLAG = (True, False)
CACHE = ("empty", "cached", "stale")
SIZE = ("small", "large")
PINNED = (None, "slow", "gone")
DRIFT = (False, True)
POOL = ("multi", "single")

MATRIX = tuple(itertools.product(FLAG, CACHE, SIZE, PINNED, DRIFT, POOL))

#: The context half of the matrix: one LaunchContext per (pinned, drift).
CONTEXTS = {
    (pinned, drift): LaunchContext(pinned_variant=pinned, drift_rearm=drift)
    for pinned, drift in itertools.product(PINNED, DRIFT)
}

#: Every reason category ``decide`` can produce.
CATEGORIES = (
    "drift re-activation",
    "profiling activated",
    "pinned reused",
    "cached reused",
    "default fallback",
    "small workload",
    "single variant",
)

#: The ``LaunchPlan.source`` of each reason category (the directed
#: sections add the dominance, prediction and backpressure branches).
SOURCE_OF = {
    "drift re-activation": "drift",
    "profiling activated": "profiling",
    "pinned reused": "pinned",
    "cached reused": "cached",
    "default fallback": "default",
    "small workload": "small-workload",
    "single variant": "single-variant",
    "single survivor": "dominance",
    "predicted": "predicted",
    "micro-profile deferred": "deferred",
    "drift re-profile deferred": "deferred",
}


def build_pool(shape):
    from repro.kernel import KernelSpec

    variants = (make_axpy_variant("fast"),)
    if shape == "multi":
        variants += (make_axpy_variant("slow"),)
    return VariantPool(
        spec=KernelSpec(signature=axpy_signature()), variants=variants
    )


def build_cache(state):
    cache = SelectionCache()
    if state == "empty":
        return cache
    selected = "fast" if state == "cached" else "evicted-variant"
    record = SelectionRecord(
        kernel="axpy", mode=ProfilingMode.FULLY, flow=OrchestrationFlow.SYNC
    )
    record.observe(
        VariantMeasurement(
            variant=selected,
            measured_cycles=10.0,
            profiled_units=4,
            productive=True,
        )
    )
    cache.record(record)
    return cache


def units_for(size, config):
    if size == "small":
        return max(1, config.small_workload_threshold // 4)
    return config.small_workload_threshold * 4


def categorize(reason):
    """Map a concrete reason string onto its category."""
    if reason == "drift re-activation":
        return "drift re-activation"
    if reason == "profiling activated":
        return "profiling activated"
    if reason == "profiling deactivated; pinned selection reused":
        return "pinned reused"
    if reason == "profiling deactivated; cached selection reused":
        return "cached reused"
    if reason.startswith("profiling deactivated;") and reason.endswith(
        "using default"
    ):
        return "default fallback"
    if reason.startswith("small workload ("):
        return "small workload"
    if reason == "single-variant pool; nothing to select":
        return "single variant"
    raise AssertionError(f"unrecognized reason {reason!r}")


def plan_for(cell, config, **extra):
    """``decide`` over one matrix cell, its context extended by ``extra``."""
    flag, cache_state, size, pinned, drift, pool_shape = cell
    return policy.decide(
        build_pool(pool_shape),
        units_for(size, config),
        flag,
        build_cache(cache_state),
        config,
        context=replace(CONTEXTS[pinned, drift], **extra),
    )


def decide_with(pool, units, flag, cache, config, dominated=(), **context):
    """``decide`` with a context built from keyword fields."""
    return policy.decide(
        pool,
        units,
        flag,
        cache,
        config,
        dominated=dominated,
        context=LaunchContext(**context),
    )


def oracle(flag, cache_state, size, pinned, drift, pool_shape):
    """Independent restatement of the documented precedence order."""
    multi = pool_shape == "multi"
    large = size == "large"
    cached_valid = cache_state == "cached"
    # "slow" only exists in the multi pool; "gone" never does.
    pinned_valid = pinned == "slow" and multi
    if drift and not flag and multi and large:
        return "drift re-activation"
    if pinned is not None and not flag and pinned_valid:
        return "pinned reused"
    if not flag:
        return "cached reused" if cached_valid else "default fallback"
    if not large:
        return "small workload"
    if not multi:
        return "single variant"
    return "profiling activated"


@pytest.mark.parametrize(
    "flag,cache_state,size,pinned,drift,pool_shape", MATRIX
)
def test_matrix_cell(flag, cache_state, size, pinned, drift, pool_shape, config):
    cell = (flag, cache_state, size, pinned, drift, pool_shape)
    pool = build_pool(pool_shape)
    plan = plan_for(cell, config)
    expected = oracle(*cell)
    assert categorize(plan.reason) == expected
    assert plan.source == SOURCE_OF[expected]

    # Structural invariants of every plan.
    if plan.profile:
        assert plan.variant_name is None
    else:
        assert plan.variant_name in pool.variant_names
    assert plan.profile == (
        expected in ("drift re-activation", "profiling activated")
    )

    # Stability: the same inputs produce the same plan (fresh cache,
    # because a stale entry is evicted on first sight by design).
    assert plan_for(cell, config) == plan


def test_matrix_reaches_every_reason_category(config):
    reached = set()
    sources = set()
    for cell in MATRIX:
        plan = plan_for(cell, config)
        reached.add(categorize(plan.reason))
        sources.add(plan.source)
    assert reached == set(CATEGORIES)
    assert sources == {SOURCE_OF[category] for category in CATEGORIES}


class TestPrecedenceEdges:
    """Directed checks of the orderings the matrix oracle encodes."""

    def test_drift_rearm_beats_pinned_and_cache(self, fast_slow_pool, config):
        decision = decide_with(
            fast_slow_pool,
            config.small_workload_threshold * 4,
            False,
            build_cache("cached"),
            config,
            pinned_variant="slow",
            drift_rearm=True,
        )
        assert decision.profile
        assert decision.reason == "drift re-activation"

    def test_drift_rearm_never_overrides_small_workload(
        self, fast_slow_pool, config
    ):
        decision = decide_with(
            fast_slow_pool,
            max(1, config.small_workload_threshold // 4),
            False,
            SelectionCache(),
            config,
            drift_rearm=True,
        )
        assert not decision.profile

    def test_drift_rearm_moot_on_single_variant(self, config):
        pool = build_pool("single")
        decision = decide_with(
            pool,
            config.small_workload_threshold * 4,
            False,
            SelectionCache(),
            config,
            drift_rearm=True,
        )
        assert not decision.profile
        assert decision.variant_name == "fast"

    def test_explicit_profiling_ignores_drift_flag(
        self, fast_slow_pool, config
    ):
        """profiling=True already re-profiles; drift adds nothing."""
        decision = decide_with(
            fast_slow_pool,
            config.small_workload_threshold * 4,
            True,
            SelectionCache(),
            config,
            drift_rearm=True,
        )
        assert decision.profile
        assert decision.reason == "profiling activated"

    def test_stale_pinned_and_stale_cache_both_noted(
        self, fast_slow_pool, config
    ):
        cache = build_cache("stale")
        decision = decide_with(
            fast_slow_pool,
            config.small_workload_threshold * 4,
            False,
            cache,
            config,
            pinned_variant="gone",
        )
        assert not decision.profile
        assert decision.variant_name == "fast"  # pool default
        assert "evicted-variant" in decision.reason
        assert "'gone'" in decision.reason
        assert cache.lookup("axpy") is None  # stale entry evicted


class TestPredictionAxis:
    """The prediction input is the weakest in the precedence order: over
    the whole matrix it may only convert a would-be micro-profile into a
    profiling-off predicted run — every other gate's decision must be
    byte-identical with and without it."""

    PREDICTED = Prediction(variant="fast", confidence=0.91)

    def decide(self, cell, config, predicted):
        return plan_for(cell, config, predicted=predicted)

    @pytest.mark.parametrize(
        "flag,cache_state,size,pinned,drift,pool_shape", MATRIX
    )
    def test_matrix_cell_with_prediction(
        self, flag, cache_state, size, pinned, drift, pool_shape, config
    ):
        cell = (flag, cache_state, size, pinned, drift, pool_shape)
        baseline = self.decide(cell, config, None)
        decision = self.decide(cell, config, self.PREDICTED)
        if (
            categorize(baseline.reason) == "profiling activated"
            and not drift
        ):
            assert not decision.profile
            assert decision.variant_name == "fast"
            assert decision.reason.startswith(
                "predicted selection ('fast', confidence 0.91)"
            )
            assert decision.source == SOURCE_OF["predicted"]
        else:
            # Every other gate — small workload, single variant, pinned,
            # cached, drift re-arm — is untouched by the prediction.
            assert decision == baseline

    def test_prediction_never_overrides_drift_rearm(self, config):
        decision = self.decide(
            (True, "empty", "large", None, True, "multi"),
            config,
            self.PREDICTED,
        )
        assert decision.profile
        assert decision.reason == "profiling activated"

    def test_predicted_variant_missing_from_pool_falls_back(
        self, fast_slow_pool, config
    ):
        decision = decide_with(
            fast_slow_pool,
            config.small_workload_threshold * 4,
            True,
            SelectionCache(),
            config,
            predicted=Prediction(variant="gone", confidence=0.99),
        )
        assert decision.profile
        assert "predicted 'gone' is not a profiling candidate" in (
            decision.reason
        )

    def test_prediction_only_chooses_among_dominance_survivors(
        self, config
    ):
        pool = build_pool("multi")  # fast + slow
        predicted_dominated = decide_with(
            pool,
            config.small_workload_threshold * 4,
            True,
            SelectionCache(),
            config,
            dominated=("fast",),
            predicted=Prediction(variant="fast", confidence=0.99),
        )
        # Excluding 'fast' leaves a single survivor, which wins before
        # the prediction is even consulted.
        assert not predicted_dominated.profile
        assert predicted_dominated.variant_name == "slow"
        assert "statically dominated" in predicted_dominated.reason
        assert predicted_dominated.source == SOURCE_OF["single survivor"]

    def test_prediction_notes_ride_along_with_dominance(self, config):
        from repro.kernel import KernelSpec

        pool = VariantPool(
            spec=KernelSpec(signature=axpy_signature()),
            variants=(
                make_axpy_variant("fast"),
                make_axpy_variant("slow"),
                make_axpy_variant("mid"),
            ),
        )
        decision = decide_with(
            pool,
            config.small_workload_threshold * 4,
            True,
            SelectionCache(),
            config,
            dominated=("slow",),
            predicted=Prediction(variant="mid", confidence=0.88),
        )
        assert not decision.profile
        assert decision.variant_name == "mid"
        assert decision.reason.startswith("predicted selection ('mid'")
        assert "'slow' statically dominated" in decision.reason

    def test_quarantine_gate_beats_prediction(
        self, cpu, config, fast_slow_pool
    ):
        """A quarantined variant is filtered from the pool before
        ``decide`` runs, so predicting it falls back to profiling."""
        runtime = DySelRuntime(cpu, config)
        runtime.register_pool(fast_slow_pool)
        for _ in range(config.faults.quarantine_threshold):
            runtime.quarantine.note_fault("axpy", "slow", "test")
        units = config.small_workload_threshold * 4
        result = runtime.launch_kernel(
            "axpy",
            make_axpy_args(units, config),
            units,
            context=LaunchContext(
                predicted=Prediction(variant="slow", confidence=0.99)
            ),
        )
        assert result.selected != "slow"
        assert not result.reason.startswith("predicted selection")
        assert result.source != "predicted"


class TestPlacementAxis:
    """Matrix over ``policy.decide_placement``'s device-kind dimension.

    Fleet shape x placement policy x pinned kind x store warmth, checked
    against an independent oracle of the documented precedence.  The
    candidate loads/costs are chosen so the cold (static cost-bound) and
    warm (store-measured EWMA) winners *differ*, proving the basis is
    actually consulted rather than the reason merely relabelled.
    """

    FLEET = ("cpu-only", "gpu-only", "mixed", "gpu-quarantined")
    POLICY = ("cost-model", "dynamic-load")
    PIN = (None, "cpu", "gpu", "tpu")
    WARMTH = ("bare", "cold", "warm")

    PLACEMENT_MATRIX = tuple(
        itertools.product(FLEET, POLICY, PIN, WARMTH)
    )

    PLACEMENT_CATEGORIES = (
        "pinned", "single", "dynamic", "static", "measured"
    )

    def build_candidates(self, fleet, warmth):
        def bid(kind, load, static, measured, quarantined=False):
            return policy.PlacementCandidate(
                device_kind=kind,
                load_cycles=load,
                static_cycles=static if warmth == "cold" else None,
                measured_cycles=measured if warmth == "warm" else None,
                quarantined=quarantined,
            )

        # gpu is least loaded; gpu wins cold (static), cpu wins warm
        # (measured) — the EWMA contradicts the static prior on purpose.
        cpu = bid("cpu", load=100.0, static=500.0, measured=50.0)
        gpu = bid(
            "gpu",
            load=40.0,
            static=200.0,
            measured=300.0,
            quarantined=fleet == "gpu-quarantined",
        )
        if fleet == "cpu-only":
            return [cpu]
        if fleet == "gpu-only":
            return [gpu]
        return [cpu, gpu]

    @staticmethod
    def categorize(reason):
        for prefix, category in (
            ("pinned device kind", "pinned"),
            ("single eligible device kind", "single"),
            ("dynamic load placement", "dynamic"),
            ("static cost-bound placement", "static"),
            ("store-measured placement", "measured"),
        ):
            if reason.startswith(prefix):
                return category
        raise AssertionError(f"unrecognized placement reason {reason!r}")

    @staticmethod
    def oracle(fleet, placement_policy, pinned, warmth):
        """Independent restatement of the placement precedence."""
        eligible = {
            "cpu-only": {"cpu"},
            "gpu-only": {"gpu"},
            "mixed": {"cpu", "gpu"},
            "gpu-quarantined": {"cpu"},
        }[fleet]
        if pinned in eligible:
            return "pinned", pinned
        if len(eligible) == 1:
            return "single", next(iter(eligible))
        if placement_policy == "dynamic-load":
            return "dynamic", "gpu"  # load 40 < 100
        if warmth == "bare":
            return "dynamic", "gpu"  # cost-model degrades to load
        if warmth == "cold":
            return "static", "gpu"  # 40+200 < 100+500
        return "measured", "cpu"  # 100+50 < 40+300

    @pytest.mark.parametrize(
        "fleet,placement_policy,pinned,warmth", PLACEMENT_MATRIX
    )
    def test_matrix_cell(self, fleet, placement_policy, pinned, warmth):
        candidates = self.build_candidates(fleet, warmth)
        decision = policy.decide_placement(
            "axpy", candidates, policy=placement_policy, pinned_kind=pinned
        )
        category, kind = self.oracle(fleet, placement_policy, pinned, warmth)
        assert self.categorize(decision.reason) == category
        assert decision.device_kind == kind
        # Projected map covers exactly the eligible kinds.
        assert set(decision.projected) == {
            c.device_kind for c in candidates if not c.quarantined
        }
        # Quarantined kinds are always noted, never chosen.
        if fleet == "gpu-quarantined":
            assert decision.device_kind != "gpu"
            assert "'gpu' quarantined (excluded from placement)" in (
                decision.reason
            )
        # Stability.
        again = policy.decide_placement(
            "axpy", candidates, policy=placement_policy, pinned_kind=pinned
        )
        assert again == decision

    def test_matrix_reaches_every_reason_category(self):
        reached = set()
        for fleet, placement_policy, pinned, warmth in (
            self.PLACEMENT_MATRIX
        ):
            decision = policy.decide_placement(
                "axpy",
                self.build_candidates(fleet, warmth),
                policy=placement_policy,
                pinned_kind=pinned,
            )
            reached.add(self.categorize(decision.reason))
        assert reached == set(self.PLACEMENT_CATEGORIES)

    def test_pinned_quarantined_kind_ignored_with_note(self):
        decision = policy.decide_placement(
            "axpy",
            self.build_candidates("gpu-quarantined", "warm"),
            pinned_kind="gpu",
        )
        assert decision.device_kind == "cpu"
        assert "pinned device kind 'gpu' is quarantined (ignored)" in (
            decision.reason
        )

    def test_pinned_unknown_kind_ignored_with_note(self):
        decision = policy.decide_placement(
            "axpy",
            self.build_candidates("mixed", "warm"),
            pinned_kind="tpu",
        )
        assert "pinned device kind 'tpu' is unknown (ignored)" in (
            decision.reason
        )
        assert self.categorize(decision.reason) == "measured"

    def test_all_kinds_quarantined_raises(self):
        from repro.errors import LaunchError

        candidates = [
            policy.PlacementCandidate(device_kind=k, quarantined=True)
            for k in ("cpu", "gpu")
        ]
        with pytest.raises(LaunchError, match="placement impossible"):
            policy.decide_placement("axpy", candidates)

    def test_no_candidates_raises(self):
        from repro.errors import LaunchError

        with pytest.raises(LaunchError, match="no device-kind candidates"):
            policy.decide_placement("axpy", [])

    def test_unknown_policy_raises(self):
        from repro.errors import LaunchError

        with pytest.raises(LaunchError, match="unknown placement policy"):
            policy.decide_placement(
                "axpy",
                self.build_candidates("mixed", "warm"),
                policy="round-robin",
            )

    def test_projected_tie_breaks_lexicographically(self):
        candidates = [
            policy.PlacementCandidate(device_kind=k, load_cycles=10.0)
            for k in ("gpu", "cpu")
        ]
        decision = policy.decide_placement("axpy", candidates)
        assert decision.device_kind == "cpu"


class TestQuarantineInteraction:
    """The runtime bars quarantined variants before ``decide`` runs, so
    the policy sees a restricted pool (and stale winners self-evict)."""

    def quarantine(self, runtime, variant):
        for _ in range(runtime.config.faults.quarantine_threshold):
            runtime.quarantine.note_fault("axpy", variant, "test")
        assert runtime.quarantine.is_quarantined("axpy", variant)

    def test_quarantined_winner_is_not_replayed(
        self, cpu, config, fast_slow_pool
    ):
        runtime = DySelRuntime(cpu, config)
        runtime.register_pool(fast_slow_pool)
        units = config.small_workload_threshold * 4
        first = runtime.launch_kernel(
            "axpy", make_axpy_args(units, config), units
        )
        assert first.profiled
        self.quarantine(runtime, first.selected)
        replay = runtime.launch_kernel(
            "axpy", make_axpy_args(units, config), units, profiling=False
        )
        assert replay.selected != first.selected

    def test_quarantine_to_single_variant_stops_profiling(
        self, cpu, config, fast_slow_pool
    ):
        runtime = DySelRuntime(cpu, config)
        runtime.register_pool(fast_slow_pool)
        self.quarantine(runtime, "slow")
        units = config.small_workload_threshold * 4
        result = runtime.launch_kernel(
            "axpy", make_axpy_args(units, config), units
        )
        assert not result.profiled
        assert result.selected == "fast"
        assert "single-variant pool" in result.reason


class TestBackpressureAxis:
    """The serving layer's ``deferred`` flag (profiling backpressure,
    :mod:`repro.serve.qos`) may only convert a would-be profile — a cold
    micro-profile or a drift re-profile — into a profiling-off launch on
    the best-known variant.  Every branch that was not going to profile
    anyway must be byte-identical with and without it."""

    DEFERRED_CATEGORIES = (
        "micro-profile deferred",
        "drift re-profile deferred",
    )

    @staticmethod
    def categorize_deferred(reason):
        """``categorize`` extended with the two backpressure reasons."""
        if reason.startswith("micro-profile deferred by backpressure;"):
            return "micro-profile deferred"
        if reason.startswith("drift re-profile deferred by backpressure;"):
            return "drift re-profile deferred"
        return categorize(reason)

    def decide(self, cell, config, deferred):
        return plan_for(cell, config, deferred=deferred)

    @pytest.mark.parametrize(
        "flag,cache_state,size,pinned,drift,pool_shape", MATRIX
    )
    def test_matrix_cell_with_backpressure(
        self, flag, cache_state, size, pinned, drift, pool_shape, config
    ):
        cell = (flag, cache_state, size, pinned, drift, pool_shape)
        baseline = self.decide(cell, config, False)
        decision = self.decide(cell, config, True)
        base_category = categorize(baseline.reason)
        if base_category == "profiling activated":
            expected = "micro-profile deferred"
        elif base_category == "drift re-activation":
            expected = "drift re-profile deferred"
        else:
            # Small workload, single variant, pinned, cached, default:
            # none of these profile, so backpressure changes nothing.
            assert decision == baseline
            return
        assert not decision.profile
        assert self.categorize_deferred(decision.reason) == expected
        assert decision.source == SOURCE_OF[expected]
        # The fallback basis is oracle-checked, not just relabelled:
        # a valid cached selection serves; anything else (empty or
        # stale cache) drops to the pool default.
        if cache_state == "cached":
            assert "using cached selection" in decision.reason
        else:
            assert "using pool default" in decision.reason
        if cache_state == "stale":
            assert "evicted-variant" in decision.reason
        pool = build_pool(pool_shape)
        assert decision.variant_name in pool.variant_names

    def test_matrix_reaches_both_deferred_categories(self, config):
        reached = set()
        for cell in MATRIX:
            decision = self.decide(cell, config, True)
            reached.add(self.categorize_deferred(decision.reason))
        assert set(self.DEFERRED_CATEGORIES) <= reached

    def test_prediction_beats_deferral(self, config):
        """A confident prediction costs no profiling, so backpressure
        has nothing to defer — the predicted serve goes through."""
        predicted = Prediction(variant="fast", confidence=0.93)
        decision = decide_with(
            build_pool("multi"),
            units_for("large", config),
            True,
            SelectionCache(),
            config,
            predicted=predicted,
            deferred=True,
        )
        assert not decision.profile
        assert decision.reason.startswith("predicted selection ('fast'")
        assert "deferred" not in decision.reason

    def test_deferral_unused_when_dominance_leaves_one_survivor(
        self, config
    ):
        decision = decide_with(
            build_pool("multi"),
            units_for("large", config),
            True,
            SelectionCache(),
            config,
            dominated=("fast",),
            deferred=True,
        )
        assert not decision.profile
        assert decision.variant_name == "slow"
        assert "statically dominated" in decision.reason
        assert "deferred" not in decision.reason

    def test_deferred_drift_rearm_leaves_cached_serving(self, config):
        """A deferred drift re-profile keeps serving the (possibly
        drifted) cached selection — stale-but-correct beats unprofiled."""
        decision = decide_with(
            build_pool("multi"),
            units_for("large", config),
            False,
            build_cache("cached"),
            config,
            drift_rearm=True,
            deferred=True,
        )
        assert not decision.profile
        assert decision.reason == (
            "drift re-profile deferred by backpressure; "
            "using cached selection"
        )
        assert decision.variant_name == "fast"

    def test_deferred_cold_class_exact_reason(self, config):
        decision = decide_with(
            build_pool("multi"),
            units_for("large", config),
            True,
            SelectionCache(),
            config,
            deferred=True,
        )
        assert decision.reason == (
            "micro-profile deferred by backpressure; using pool default"
        )
        assert decision.variant_name == "fast"
