"""The cost-kernel memo: a pure cache with correct invalidation.

The memo (:mod:`repro.device.cost`) turns repeated cost derivations for
the same workload class into dictionary lookups.  These tests pin down
the contract: hits are bit-identical to the computation they skip, only
statically priced wa-aligned launches are cached, entries die when their
pool is re-registered or extended, and the generation counter keeps an
in-flight computation from resurrecting a doomed entry (the
re-register-mid-launch race).
"""

from __future__ import annotations

import dataclasses
import os
import threading

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.analyze.catalog import example_entries
from repro.core.runtime import DySelRuntime
from repro.device import make_cpu, make_gpu
from repro.device.cost import (
    CostModel,
    clear_cost_memo,
    cost_memo_stats,
    invalidate_cost_memo,
    ir_hash,
    statically_priced,
)
from repro.errors import IRError, KernelError
from repro.kernel import (
    AccessPattern,
    KernelIR,
    KernelVariant,
    Loop,
    LoopBound,
    MemoryAccess,
    WorkRange,
)
from repro.workloads import (
    cutcp,
    histogram,
    kmeans,
    particle_filter,
    sgemm,
    spmv_csr,
    spmv_jds,
    stencil,
)
from tests.conftest import (
    AXPY_UNIT,
    axpy_executor,
    fast_slow_pool_build,
    make_axpy_args,
    make_axpy_variant,
)

#: Replay locally with ``REPRO_CHAOS_SEED=<seed>`` (same convention as
#: the chaos suite; the CI flakiness job randomizes it).
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


def make_dynamic_variant(name: str, kind: str) -> KernelVariant:
    """An axpy variant whose pricing depends on runtime data."""
    trips = 16

    def unit_trips(args, unit_ids):
        return np.full(np.asarray(unit_ids).size, float(trips))

    def unit_stride(args, unit_ids):
        return np.full(np.asarray(unit_ids).size, 64.0)

    bound = LoopBound(
        evaluator=unit_trips if kind == "loop" else None,
        static_trips=None if kind == "loop" else trips,
    )
    access_extra = {}
    if kind == "stride":
        access_extra["stride_evaluator"] = unit_stride
    if kind == "footprint":
        access_extra["footprint_hint"] = unit_stride
    ir = KernelIR(
        loops=(Loop("k", bound),),
        accesses=(
            MemoryAccess(
                "x",
                False,
                AccessPattern.UNIT_STRIDE,
                4.0 * AXPY_UNIT / trips,
                loop="k",
                **access_extra,
            ),
            MemoryAccess(
                "y",
                True,
                AccessPattern.UNIT_STRIDE,
                4.0 * AXPY_UNIT / trips,
                loop="k",
            ),
        ),
        flops_per_trip=32.0,
        work_group_threads=AXPY_UNIT,
    )
    return KernelVariant(
        name=name, ir=ir, executor=axpy_executor, work_group_size=AXPY_UNIT
    )


class TestMemoBasics:
    def test_second_evaluation_hits_and_matches(self, quiet_config):
        model = CostModel(make_cpu(quiet_config))
        variant = make_axpy_variant("v", trips=16)
        args = make_axpy_args(64, quiet_config)
        cold = model.workgroup_cycles(variant, args, WorkRange(0, 64))
        warm = model.workgroup_cycles(variant, args, WorkRange(0, 64))
        stats = cost_memo_stats()
        assert stats == {"entries": 1, "hits": 1, "misses": 1}
        assert warm is cold
        assert np.array_equal(
            warm,
            model._workgroup_cycles_uncached(variant, args, WorkRange(0, 64)),
        )

    def test_cached_array_is_read_only(self, quiet_config):
        model = CostModel(make_cpu(quiet_config))
        variant = make_axpy_variant("v", trips=16)
        args = make_axpy_args(32, quiet_config)
        cycles = model.workgroup_cycles(variant, args, WorkRange(0, 32))
        assert not cycles.flags.writeable
        with pytest.raises(ValueError):
            cycles[0] = 0.0

    def test_aligned_slices_share_one_entry(self, quiet_config):
        """Profiling slices at different offsets hit the same entry.

        wa-aligned starts make the group partition a function of range
        *length* alone, so the memo key omits the offset — and the cached
        values must still match a from-scratch derivation at each offset.
        """
        model = CostModel(make_cpu(quiet_config))
        variant = make_axpy_variant("v", trips=16, wa_factor=4)
        args = make_axpy_args(96, quiet_config)
        ranges = [WorkRange(0, 16), WorkRange(16, 32), WorkRange(64, 80)]
        results = [
            model.workgroup_cycles(variant, args, units) for units in ranges
        ]
        assert cost_memo_stats() == {"entries": 1, "hits": 2, "misses": 1}
        for units, cycles in zip(ranges, results):
            assert np.array_equal(
                cycles, model._workgroup_cycles_uncached(variant, args, units)
            )

    def test_misaligned_start_is_not_cached(self, quiet_config):
        model = CostModel(make_cpu(quiet_config))
        variant = make_axpy_variant("v", trips=16, wa_factor=4)
        args = make_axpy_args(32, quiet_config)
        model.workgroup_cycles(variant, args, WorkRange(4, 32))
        # Start 6 is not a multiple of wa_factor 4: the uncached path
        # must reject it exactly as it did before the memo existed.
        with pytest.raises(KernelError):
            model.workgroup_cycles(variant, args, WorkRange(6, 32))
        assert cost_memo_stats()["entries"] == 1

    def test_distinct_devices_get_distinct_entries(self, quiet_config):
        cpu_model = CostModel(make_cpu(quiet_config))
        gpu_model = CostModel(make_gpu(quiet_config))
        variant = make_axpy_variant("v", trips=16)
        args = make_axpy_args(32, quiet_config)
        cpu_cycles = cpu_model.workgroup_cycles(variant, args, WorkRange(0, 32))
        gpu_cycles = gpu_model.workgroup_cycles(variant, args, WorkRange(0, 32))
        assert cost_memo_stats()["entries"] == 2
        assert not np.array_equal(cpu_cycles, gpu_cycles)

    def test_buffer_shape_is_part_of_the_key(self, quiet_config):
        model = CostModel(make_cpu(quiet_config))
        variant = make_axpy_variant("v", trips=16)
        small = make_axpy_args(32, quiet_config)
        large = make_axpy_args(64, quiet_config)
        model.workgroup_cycles(variant, small, WorkRange(0, 32))
        model.workgroup_cycles(variant, large, WorkRange(0, 32))
        assert cost_memo_stats() == {"entries": 2, "hits": 0, "misses": 2}


class TestStaticallyPriced:
    @pytest.mark.parametrize("kind", ["loop", "stride", "footprint"])
    def test_data_dependent_irs_are_never_cached(self, kind, quiet_config):
        variant = make_dynamic_variant("dyn", kind)
        assert not statically_priced(variant.ir)
        model = CostModel(make_cpu(quiet_config))
        args = make_axpy_args(32, quiet_config)
        first = model.workgroup_cycles(variant, args, WorkRange(0, 32))
        second = model.workgroup_cycles(variant, args, WorkRange(0, 32))
        assert cost_memo_stats() == {"entries": 0, "hits": 0, "misses": 0}
        assert first.flags.writeable and second.flags.writeable
        assert np.array_equal(first, second)

    def test_static_axpy_is_statically_priced(self):
        assert statically_priced(make_axpy_variant("v").ir)

    def test_evaluator_blind_hash_is_why_dynamic_is_excluded(self):
        """Two IRs differing only in evaluator bodies hash identically —
        the documented reason they must never share a memo entry."""
        first = make_dynamic_variant("a", "stride")
        second = make_dynamic_variant("b", "stride")
        assert first.ir is not second.ir
        assert ir_hash(first.ir) == ir_hash(second.ir)


def with_x_footprint(variant: KernelVariant, footprint) -> KernelVariant:
    """The variant with ``footprint_hint`` set on its ``x`` access."""
    x, *rest = variant.ir.accesses
    access = dataclasses.replace(x, footprint_hint=footprint)
    return dataclasses.replace(
        variant, ir=variant.ir.with_(accesses=(access, *rest))
    )


class TestConstantFootprint:
    def test_constant_footprint_is_statically_priced_and_cached(
        self, quiet_config
    ):
        variant = with_x_footprint(make_axpy_variant("v"), 4096.0)
        assert statically_priced(variant.ir)
        model = CostModel(make_cpu(quiet_config))
        args = make_axpy_args(32, quiet_config)
        cold = model.workgroup_cycles(variant, args, WorkRange(0, 32))
        warm = model.workgroup_cycles(variant, args, WorkRange(0, 32))
        assert cost_memo_stats() == {"entries": 1, "hits": 1, "misses": 1}
        assert warm is cold

    def test_constant_prices_like_the_equivalent_evaluator(self, quiet_config):
        """A constant is the array the old ``np.full`` closures built."""
        constant = with_x_footprint(make_axpy_variant("c"), 4096.0)
        closure = with_x_footprint(
            make_axpy_variant("e"),
            lambda args, unit_ids: np.full(unit_ids.shape, 4096.0),
        )
        model = CostModel(make_cpu(quiet_config))
        args = make_axpy_args(32, quiet_config)
        assert np.array_equal(
            model.workgroup_cycles(constant, args, WorkRange(0, 32)),
            model.workgroup_cycles(closure, args, WorkRange(0, 32)),
        )

    def test_hash_tells_footprint_values_apart(self, quiet_config):
        """IRs identical except for a constant footprint's value never
        share a memo entry, and neither does the evaluator form (a gather
        prices its footprint's cache level)."""
        base = make_axpy_variant("v", AccessPattern.GATHER)
        small = with_x_footprint(base, 1024.0)
        large = with_x_footprint(base, 1 << 26)
        closure = with_x_footprint(
            base, lambda args, unit_ids: np.full(unit_ids.shape, 1024.0)
        )
        hashes = {ir_hash(v.ir) for v in (base, small, large, closure)}
        assert len(hashes) == 4
        model = CostModel(make_cpu(quiet_config))
        args = make_axpy_args(32, quiet_config)
        small_cycles = model.workgroup_cycles(small, args, WorkRange(0, 32))
        large_cycles = model.workgroup_cycles(large, args, WorkRange(0, 32))
        assert cost_memo_stats() == {"entries": 2, "hits": 0, "misses": 2}
        assert not np.array_equal(small_cycles, large_cycles)

    @pytest.mark.parametrize(
        "footprint", [-1.0, float("nan"), float("inf"), -float("inf")]
    )
    def test_negative_or_non_finite_constant_is_rejected(self, footprint):
        with pytest.raises(IRError, match="footprint_hint"):
            with_x_footprint(make_axpy_variant("v"), footprint)

    def test_zero_constant_is_accepted(self):
        assert statically_priced(
            with_x_footprint(make_axpy_variant("v"), 0).ir
        )


def _pool_variants(*cases):
    return [variant for case in cases for variant in case.pool.variants]


class TestCatalogPricing:
    def test_constant_footprint_workloads_are_statically_priced(self, config):
        """Every variant of the kmeans, cutcp, stencil and sgemm pools."""
        variants = _pool_variants(
            kmeans.schedule_case(8192, config),
            cutcp.schedule_case((16, 16, 8), 2000, config),
            cutcp.mixed_case("cpu", (16, 16, 8), 2000, config),
            cutcp.mixed_case("gpu", (16, 16, 8), 2000, config),
            stencil.schedule_case((32, 32, 4), config),
            stencil.mixed_case("cpu", (32, 32, 4), config),
            stencil.mixed_case("gpu", (32, 32, 4), config),
            sgemm.vectorization_case(64, config),
            sgemm.schedule_case(64, config),
            sgemm.mixed_case("cpu", 64, config),
            sgemm.mixed_case("gpu", 64, config),
        )
        assert len(variants) > 80
        assert [v.name for v in variants if not statically_priced(v.ir)] == []

    def test_data_dependent_workloads_stay_uncached(self, config):
        """Input-dependent pricing must never reach the memo."""
        variants = _pool_variants(
            spmv_csr.schedule_case("random", 1024, config),
            spmv_csr.placement_case(1024, config),
            spmv_csr.input_dependent_case("cpu", "random", 1024, config),
            spmv_jds.vectorization_case(1024, config),
            spmv_jds.schedule_case(1024, config),
            spmv_jds.mixed_case("gpu", 1024, config),
            particle_filter.placement_case(4000, config),
        )
        swap = histogram.swap_case("uniform", 1 << 14, config)
        variants.append(swap.pool.variant("atomic"))
        assert [v.name for v in variants if statically_priced(v.ir)] == []


@pytest.fixture(scope="module")
def static_catalog():
    """(label, variant, args, units) for every statically priced variant
    of the example catalog, with one argument mapping per case."""
    found = []
    for label, entry in example_entries():
        args = entry.case.fresh_args()
        for variant in entry.case.pool.variants:
            if statically_priced(variant.ir):
                found.append(
                    (label, variant, args, entry.case.workload_units)
                )
    return found


class TestMemoPositionIndependence:
    def test_catalog_covers_the_constant_footprint_workloads(
        self, static_catalog
    ):
        labels = {label.split("/")[0] for label, *_ in static_catalog}
        assert {"kmeans", "cutcp", "stencil", "sgemm"} <= labels
        assert any(variant.wa_factor > 1 for _, variant, *_ in static_catalog)

    @seed(CHAOS_SEED)
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_hit_at_any_aligned_range_equals_uncached(
        self, static_catalog, data
    ):
        """The memo keys on range length alone: an entry filled at one
        wa-aligned start serves every other wa-aligned start of that
        length with exactly the array a fresh derivation gives there."""
        label, variant, args, units = data.draw(
            st.sampled_from(static_catalog), label="variant"
        )
        make_device = data.draw(st.sampled_from([make_cpu, make_gpu]))
        model = CostModel(make_device())
        wa = variant.wa_factor
        starts = st.integers(0, (units - 1) // wa).map(lambda g: g * wa)
        start, fill_start = data.draw(starts), data.draw(starts)
        length = data.draw(st.integers(1, units - max(start, fill_start)))
        here = WorkRange(start, start + length)
        clear_cost_memo()
        model.workgroup_cycles(
            variant, args, WorkRange(fill_start, fill_start + length)
        )
        hit = model.workgroup_cycles(variant, args, here)
        assert cost_memo_stats() == {"entries": 1, "hits": 1, "misses": 1}
        uncached = model._workgroup_cycles_uncached(variant, args, here)
        assert hit.shape == uncached.shape
        assert (hit == uncached).all(), (label, variant.name)


class TestInvalidation:
    def test_invalidate_by_hash_is_selective(self, quiet_config):
        model = CostModel(make_cpu(quiet_config))
        unit = make_axpy_variant("unit", AccessPattern.UNIT_STRIDE)
        strided = make_axpy_variant("strided", AccessPattern.STRIDED)
        args = make_axpy_args(32, quiet_config)
        model.workgroup_cycles(unit, args, WorkRange(0, 32))
        model.workgroup_cycles(strided, args, WorkRange(0, 32))
        assert cost_memo_stats()["entries"] == 2
        assert invalidate_cost_memo([ir_hash(unit.ir)]) == 1
        assert cost_memo_stats()["entries"] == 1
        model.workgroup_cycles(strided, args, WorkRange(0, 32))
        assert cost_memo_stats()["hits"] == 1

    def test_invalidate_all(self, quiet_config):
        model = CostModel(make_cpu(quiet_config))
        args = make_axpy_args(32, quiet_config)
        model.workgroup_cycles(
            make_axpy_variant("v"), args, WorkRange(0, 32)
        )
        assert invalidate_cost_memo() == 1
        assert cost_memo_stats()["entries"] == 0

    def test_pool_reregistration_drops_entries(self, quiet_config):
        runtime = DySelRuntime(make_cpu(quiet_config), quiet_config)
        runtime.register_pool(fast_slow_pool_build())
        args = make_axpy_args(64, quiet_config)
        runtime.launch_kernel("axpy", args, 64)
        assert cost_memo_stats()["entries"] > 0
        runtime.register_pool(fast_slow_pool_build())
        assert cost_memo_stats()["entries"] == 0

    def test_first_registration_invalidates_nothing(self, quiet_config):
        model = CostModel(make_cpu(quiet_config))
        variant = make_axpy_variant("unrelated", trips=32)
        args = make_axpy_args(32, quiet_config)
        model.workgroup_cycles(variant, args, WorkRange(0, 32))
        runtime = DySelRuntime(make_cpu(quiet_config), quiet_config)
        runtime.register_pool(fast_slow_pool_build())
        assert cost_memo_stats()["entries"] == 1

    def test_add_kernel_drops_pool_entries(self, quiet_config):
        runtime = DySelRuntime(make_cpu(quiet_config), quiet_config)
        runtime.register_pool(fast_slow_pool_build())
        args = make_axpy_args(64, quiet_config)
        runtime.launch_kernel("axpy", args, 64)
        assert cost_memo_stats()["entries"] > 0
        runtime.add_kernel(
            "axpy", make_axpy_variant("extra", trips=48)
        )
        # Entries for the pool's (pre-extension) variants are gone; a
        # relaunch against the extended pool starts cold.
        before = cost_memo_stats()
        runtime.launch_kernel("axpy", args, 64, profiling=False)
        after = cost_memo_stats()
        assert after["misses"] > before["misses"]


class TestReRegisterMidLaunchRace:
    def test_inflight_computation_cannot_repopulate(self, quiet_config):
        """Thread A prices a variant while thread B re-registers its pool.

        However the interleaving lands, a cost array derived *before*
        the invalidation must not survive *after* it: the generation
        counter captured at miss time blocks the late insert.
        """
        model = CostModel(make_cpu(quiet_config))
        variant = make_axpy_variant("fast", AccessPattern.UNIT_STRIDE)
        args = make_axpy_args(64, quiet_config)
        doomed = ir_hash(variant.ir)

        in_derivation = threading.Event()
        invalidated = threading.Event()
        original = CostModel._workgroup_cycles_uncached

        def stalled(self, *call):
            result = original(self, *call)
            in_derivation.set()
            # Hold the derived array until the other thread has raced an
            # invalidation past this computation.
            assert invalidated.wait(timeout=10.0)
            return result

        runtime = DySelRuntime(make_cpu(quiet_config), quiet_config)
        runtime.register_pool(fast_slow_pool_build())

        CostModel._workgroup_cycles_uncached = stalled
        try:
            worker = threading.Thread(
                target=model.workgroup_cycles,
                args=(variant, args, WorkRange(0, 64)),
            )
            worker.start()
            assert in_derivation.wait(timeout=10.0)
            CostModel._workgroup_cycles_uncached = original
            runtime.register_pool(fast_slow_pool_build())
            invalidated.set()
            worker.join(timeout=10.0)
            assert not worker.is_alive()
        finally:
            CostModel._workgroup_cycles_uncached = original

        # The worker's insert must have been dropped on the floor.
        for key in list(_memo_keys()):
            assert key[0] != doomed

    def test_generation_bump_without_race_still_caches(self, quiet_config):
        """Sanity: with no interleaved invalidation the insert lands."""
        model = CostModel(make_cpu(quiet_config))
        variant = make_axpy_variant("v", trips=16)
        args = make_axpy_args(32, quiet_config)
        model.workgroup_cycles(variant, args, WorkRange(0, 32))
        assert cost_memo_stats()["entries"] == 1


def _memo_keys():
    from repro.device import cost as cost_mod

    with cost_mod._MEMO_LOCK:
        return list(cost_mod._COST_MEMO.keys())
