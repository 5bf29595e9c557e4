"""The cost-kernel memo: a pure cache with correct invalidation.

The memo (:mod:`repro.device.cost`) turns repeated cost derivations for
the same workload class into dictionary lookups.  These tests pin down
the contract: hits are bit-identical to the computation they skip, only
wa-aligned launches are cached, a data-priced IR is cached only per
frozen input and its entry dies with that input, entries die when their
pool is re-registered or extended, and the generation counter keeps an
in-flight computation from resurrecting a doomed entry (the
re-register-mid-launch race).
"""

from __future__ import annotations

import dataclasses
import gc
import os
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.analyze.catalog import example_entries
from repro.core.runtime import DySelRuntime
from repro.device import cost as cost_mod
from repro.device import make_cpu, make_gpu
from repro.device.cpu import CpuDevice, CpuMemoryModel
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
    Buffer,
    KernelIR,
    KernelVariant,
    Loop,
    LoopBound,
    MemoryAccess,
    WorkRange,
)
from repro.kernel.buffers import DERIVED, frozen_array, frozen_record
from repro.workloads import (
    cutcp,
    histogram,
    kmeans,
    matrices,
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


def make_dynamic_variant(
    name: str, kind: str, scale: float = 1.0
) -> KernelVariant:
    """An axpy variant whose pricing is evaluator-driven; ``scale``
    multiplies what its evaluator returns."""
    trips = 16

    def unit_trips(args, unit_ids):
        return np.full(np.asarray(unit_ids).size, scale * trips)

    def unit_stride(args, unit_ids):
        return np.full(np.asarray(unit_ids).size, scale * 64.0)

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


def x_trips(args, unit_ids):
    """Trips read from the input: each unit loops ``1 + 8·|x|`` times
    over its first element, so a stale price shows as wrong cycles."""
    x = args["x"].data
    return 1.0 + 8.0 * np.abs(x[np.asarray(unit_ids) * AXPY_UNIT])


def make_data_variant() -> KernelVariant:
    """An axpy variant whose loop bound reads ``x``."""
    variant = make_dynamic_variant("data", "loop")
    loops = (Loop("k", LoopBound(evaluator=x_trips)),)
    return dataclasses.replace(variant, ir=variant.ir.with_(loops=loops))


DATA_VARIANT = make_data_variant()


def frozen_x(units: int, seed: int) -> np.ndarray:
    """A fresh frozen axpy input."""
    rng = np.random.default_rng(seed)
    return Buffer(
        "x",
        rng.standard_normal(units * AXPY_UNIT).astype(np.float32),
        writable=False,
    ).data


def axpy_args_over(x: np.ndarray) -> dict:
    """Axpy arguments binding ``x`` and a fresh output."""
    return {
        "x": Buffer("x", x, writable=False),
        "y": Buffer("y", np.zeros(x.size, dtype=np.float32)),
    }


@dataclasses.dataclass
class MutableTable:
    """A non-frozen record an evaluator could read."""

    table: np.ndarray


@dataclasses.dataclass(frozen=True)
class FrozenTable:
    """A frozen record; keyable only while what it holds is frozen."""

    table: object


@dataclasses.dataclass(frozen=True)
class TableWithCache:
    """A frozen record with a derived cache, like ``CsrMatrix._stats``."""

    table: np.ndarray
    cache: dict = dataclasses.field(default_factory=dict)


@dataclasses.dataclass(frozen=True)
class TableWithDerivedCache:
    """The same record with its cache marked derived."""

    table: np.ndarray
    cache: dict = dataclasses.field(
        default_factory=dict, metadata={DERIVED: True}
    )


def unfrozen_args(case: str, config) -> dict:
    """Axpy arguments with one input the memo must not key on."""
    args = make_axpy_args(32, config)
    x = args["x"].data
    if case == "writable-input":
        args["x"] = Buffer("x", x.copy())
    elif case == "read-only-view":
        base = x.copy()
        view = base[:]
        view.setflags(write=False)
        args["x"] = Buffer("x", view, writable=False)
    elif case == "mutable-record":
        args["table"] = MutableTable(Buffer("t", x.copy(), writable=False).data)
    elif case == "record-with-writable-array":
        args["table"] = FrozenTable(x.copy())
    elif case == "record-holding-a-buffer":
        args["table"] = FrozenTable(Buffer("t", x.copy()))
    elif case == "record-holding-a-list":
        args["table"] = FrozenTable([Buffer("t", x.copy(), writable=False).data])
    else:
        raise AssertionError(case)
    return args


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

    def test_equal_devices_share_entries_other_specs_do_not(self, quiet_config):
        """The device key is one small int per distinct device state:
        replicas built alike share it (and the memo entry), a device
        whose spec differs in one field gets its own."""
        variant = make_axpy_variant("v", trips=16)
        args = make_axpy_args(32, quiet_config)
        units = WorkRange(0, 32)
        first = CostModel(make_cpu(quiet_config))
        replica = CostModel(make_cpu(quiet_config))
        assert replica._device_key == first._device_key
        cycles = first.workgroup_cycles(variant, args, units)
        assert replica.workgroup_cycles(variant, args, units) is cycles
        assert cost_memo_stats() == {"entries": 1, "hits": 1, "misses": 1}

        cpu = make_cpu(quiet_config)
        spec = dataclasses.replace(
            cpu.spec,
            workgroup_dispatch_overhead=2 * cpu.spec.workgroup_dispatch_overhead,
        )
        slower = CostModel(
            CpuDevice(
                spec,
                CpuMemoryModel(spec, cpu.memory.levels, cpu.memory.dram),
                quiet_config,
            )
        )
        assert slower._device_key != first._device_key
        slower_cycles = slower.workgroup_cycles(variant, args, units)
        assert cost_memo_stats() == {"entries": 2, "hits": 1, "misses": 2}
        assert np.array_equal(
            slower_cycles, slower._workgroup_cycles_uncached(variant, args, units)
        )
        assert not np.array_equal(slower_cycles, cycles)

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
    def test_data_dependent_irs_are_cached(self, kind, quiet_config):
        """With frozen inputs, an IR with evaluators is cached too."""
        variant = make_dynamic_variant("dyn", kind)
        assert not statically_priced(variant.ir)
        model = CostModel(make_cpu(quiet_config))
        args = make_axpy_args(32, quiet_config)
        cold = model.workgroup_cycles(variant, args, WorkRange(0, 32))
        warm = model.workgroup_cycles(variant, args, WorkRange(0, 32))
        assert cost_memo_stats() == {"entries": 1, "hits": 1, "misses": 1}
        assert warm is cold
        uncached = model._workgroup_cycles_uncached(
            variant, args, WorkRange(0, 32)
        )
        assert (warm == uncached).all()

    @pytest.mark.parametrize(
        "case",
        [
            "writable-input",
            "read-only-view",
            "mutable-record",
            "record-with-writable-array",
            "record-holding-a-buffer",
            "record-holding-a-list",
        ],
    )
    @pytest.mark.parametrize("kind", ["loop", "stride", "footprint"])
    def test_unfrozen_inputs_are_never_cached(self, kind, case, quiet_config):
        variant = make_dynamic_variant("dyn", kind)
        model = CostModel(make_cpu(quiet_config))
        args = unfrozen_args(case, quiet_config)
        first = model.workgroup_cycles(variant, args, WorkRange(0, 32))
        second = model.workgroup_cycles(variant, args, WorkRange(0, 32))
        assert cost_memo_stats() == {"entries": 0, "hits": 0, "misses": 0}
        assert first.flags.writeable and second.flags.writeable
        assert (first == second).all()

    def test_unfrozen_inputs_do_not_stop_static_hits(self, quiet_config):
        """Static IRs keep their length-only key whatever the inputs."""
        variant = make_axpy_variant("v")
        model = CostModel(make_cpu(quiet_config))
        args = unfrozen_args("writable-input", quiet_config)
        model.workgroup_cycles(variant, args, WorkRange(0, 32))
        model.workgroup_cycles(variant, args, WorkRange(0, 32))
        assert cost_memo_stats() == {"entries": 1, "hits": 1, "misses": 1}

    def test_static_axpy_is_statically_priced(self):
        assert statically_priced(make_axpy_variant("v").ir)

    def test_evaluator_blind_hash_gets_separate_entries(self, quiet_config):
        """Two IRs differing only in evaluator bodies hash identically, so
        the key carries the evaluators too: each IR gets its own entry and
        its own price."""
        first = make_dynamic_variant("a", "loop")
        second = make_dynamic_variant("b", "loop", scale=2.0)
        assert first.ir is not second.ir
        assert ir_hash(first.ir) == ir_hash(second.ir)
        model = CostModel(make_cpu(quiet_config))
        args = make_axpy_args(32, quiet_config)
        units = WorkRange(0, 32)
        prices = [model.workgroup_cycles(v, args, units) for v in (first, second)]
        assert cost_memo_stats() == {"entries": 2, "hits": 0, "misses": 2}
        assert not np.array_equal(*prices)
        for variant, price in zip((first, second), prices):
            assert model.workgroup_cycles(variant, args, units) is price
            uncached = model._workgroup_cycles_uncached(variant, args, units)
            assert (price == uncached).all()


class TestFrozenInputs:
    def test_read_only_buffer_freezes_the_callers_array(self):
        data = np.arange(8, dtype=np.float32)
        Buffer("b", data, writable=False)
        assert frozen_array(data)
        with pytest.raises(ValueError):
            data[0] = 1.0

    def test_writable_buffer_leaves_the_array_writable(self):
        data = np.arange(8, dtype=np.float32)
        Buffer("b", data)
        data[0] = 1.0
        assert not frozen_array(data)

    def test_read_only_view_of_a_writable_base_is_not_frozen(self):
        base = np.arange(8, dtype=np.float32)
        view = Buffer("b", base[2:], writable=False).data
        with pytest.raises(ValueError):
            view[0] = 1.0
        assert not frozen_array(view)
        base.setflags(write=False)
        assert frozen_array(view)

    @pytest.mark.parametrize("fmt", ["csr", "jds"])
    def test_matrix_arrays_raise_on_write(self, fmt, config):
        csr = matrices.random_csr(64, 64, 0.05, config)
        matrix = csr if fmt == "csr" else matrices.csr_to_jds(csr)
        arrays = [
            getattr(matrix, item.name)
            for item in dataclasses.fields(matrix)
            if isinstance(getattr(matrix, item.name), np.ndarray)
        ]
        assert len(arrays) >= 3
        for array in arrays:
            assert frozen_array(array)
            with pytest.raises(ValueError):
                array[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            matrix.data = matrix.data.copy()

    def test_records_hold_only_frozen_values(self):
        frozen = Buffer("t", np.arange(4.0), writable=False).data
        assert frozen_record(FrozenTable(frozen))
        assert frozen_record(FrozenTable((frozen, 3, "label", None)))
        assert not frozen_record(FrozenTable((frozen, [1])))
        assert not frozen_record(FrozenTable(FrozenTable(frozen)))
        assert not frozen_record(FrozenTable(Buffer("t", frozen, writable=False)))
        assert not frozen_record(MutableTable(frozen))

    def test_only_a_derived_cache_is_exempt(self, config):
        frozen = Buffer("t", np.arange(4.0), writable=False).data
        assert not frozen_record(TableWithCache(frozen))
        assert frozen_record(TableWithDerivedCache(frozen))
        matrix = matrices.random_csr(64, 64, 0.05, config)
        matrix.block_stats(4)
        assert matrix._stats and frozen_record(matrix)
        assert frozen_record(matrices.csr_to_jds(matrix))

    def test_block_stats_are_frozen(self, config):
        stats = matrices.random_csr(64, 64, 0.05, config).block_stats(4)
        with pytest.raises(ValueError):
            stats.nnz_sum[0] = 0.0

    def test_new_input_with_equal_contents_misses(self, quiet_config):
        model = CostModel(make_cpu(quiet_config))
        x = frozen_x(4, seed=1)
        twin = frozen_x(4, seed=1)
        assert np.array_equal(x, twin) and x is not twin
        for array in (x, twin):
            model.workgroup_cycles(
                DATA_VARIANT, axpy_args_over(array), WorkRange(0, 4)
            )
        assert cost_memo_stats() == {"entries": 2, "hits": 0, "misses": 2}

    def test_rebuilt_buffers_over_the_same_array_hit(self, quiet_config):
        """Requests rebuild their Buffer objects around the same arrays."""
        model = CostModel(make_cpu(quiet_config))
        x = frozen_x(4, seed=1)
        for _ in range(3):
            model.workgroup_cycles(
                DATA_VARIANT, axpy_args_over(x), WorkRange(0, 4)
            )
        assert cost_memo_stats() == {"entries": 1, "hits": 2, "misses": 1}

    def test_scalar_arguments_key_by_value(self, quiet_config):
        model = CostModel(make_cpu(quiet_config))
        x = frozen_x(4, seed=1)
        for scale in (2, 2, 3):
            args = dict(axpy_args_over(x), scale=scale)
            model.workgroup_cycles(DATA_VARIANT, args, WorkRange(0, 4))
        assert cost_memo_stats() == {"entries": 2, "hits": 1, "misses": 2}


class TestInputLifetime:
    def test_dead_input_entry_serves_no_lookup(self, quiet_config):
        model = CostModel(make_cpu(quiet_config))
        units = WorkRange(0, 4)
        x = frozen_x(4, seed=1)
        model.workgroup_cycles(DATA_VARIANT, axpy_args_over(x), units)
        assert cost_memo_stats()["entries"] == 1
        watch = weakref.ref(x)
        dead_id = id(x)
        del x
        gc.collect()
        assert watch() is None
        assert cost_memo_stats()["entries"] == 0
        # A new input may land at the dead one's address; either way it
        # must be priced afresh, from its own contents.
        for seed_ in range(8):
            fresh = frozen_x(4, seed=100 + seed_)
            args = axpy_args_over(fresh)
            before = cost_memo_stats()
            price = model.workgroup_cycles(DATA_VARIANT, args, units)
            assert cost_memo_stats()["hits"] == before["hits"]
            uncached = model._workgroup_cycles_uncached(
                DATA_VARIANT, args, units
            )
            assert (price == uncached).all()
            if id(fresh) == dead_id:
                break

    def test_memo_holds_no_input_alive(self, quiet_config):
        model = CostModel(make_cpu(quiet_config))
        matrix = matrices.random_csr(64, 64, 0.05, quiet_config)
        case_args = spmv_csr.make_args_factory(matrix, quiet_config)()
        variant = spmv_csr.scalar_variant("cpu")
        model.workgroup_cycles(variant, case_args, WorkRange(0, 16))
        watch = weakref.ref(matrix)
        del matrix, case_args
        gc.collect()
        assert watch() is None
        assert cost_memo_stats()["entries"] == 0

    def test_entry_bound_holds_when_inputs_keep_changing(self, quiet_config):
        bound = cost_mod.MEMO_MAX_ENTRIES
        model = CostModel(make_cpu(quiet_config))
        alive = []
        for index in range(bound + 40):
            x = frozen_x(1, seed=index)
            alive.append(x)
            model.workgroup_cycles(
                DATA_VARIANT, axpy_args_over(x), WorkRange(0, 1)
            )
            assert len(cost_mod._COST_MEMO) <= bound
        assert cost_memo_stats() == {
            "entries": bound,
            "hits": 0,
            "misses": bound + 40,
        }
        # The oldest entries went first: the newest input still hits.
        model.workgroup_cycles(
            DATA_VARIANT, axpy_args_over(alive[-1]), WorkRange(0, 1)
        )
        assert cost_memo_stats()["hits"] == 1

    def test_prices_stay_exact_while_inputs_churn(self, quiet_config):
        """One thread launches while another replaces the input and
        collects garbage, so dead inputs' ids get reused under it."""
        model = CostModel(make_cpu(quiet_config))
        units = WorkRange(0, 4)
        current = [axpy_args_over(frozen_x(4, seed=CHAOS_SEED))]
        stop = threading.Event()
        mismatches = []

        def churn():
            round_ = 0
            while not stop.is_set():
                round_ += 1
                current[0] = axpy_args_over(frozen_x(4, seed=CHAOS_SEED + round_))
                if round_ % 4 == 0:
                    gc.collect()

        def launch():
            for _ in range(300):
                args = current[0]
                price = model.workgroup_cycles(DATA_VARIANT, args, units)
                uncached = model._workgroup_cycles_uncached(
                    DATA_VARIANT, args, units
                )
                if not (price == uncached).all():
                    mismatches.append((price, uncached))

        churner = threading.Thread(target=churn)
        churner.start()
        try:
            launch()
        finally:
            stop.set()
            churner.join(timeout=10.0)
        assert not churner.is_alive()
        assert mismatches == []
        stats = cost_memo_stats()
        assert stats["hits"] + stats["misses"] == 300


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


def _catalog(static: bool):
    """(label, variant, args, units) for every example-catalog variant
    that is (or is not) statically priced, with one argument mapping per
    case."""
    found = []
    for label, entry in example_entries():
        args = entry.case.fresh_args()
        for variant in entry.case.pool.variants:
            if statically_priced(variant.ir) == static:
                found.append(
                    (label, variant, args, entry.case.workload_units)
                )
    return found


@pytest.fixture(scope="module")
def static_catalog():
    """Every statically priced catalog variant (see :func:`_catalog`)."""
    return _catalog(static=True)


@pytest.fixture(scope="module")
def data_catalog():
    """Every data-priced catalog variant (see :func:`_catalog`)."""
    return _catalog(static=False)


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

    def test_catalog_covers_the_data_priced_workloads(self, data_catalog):
        labels = {label.split("/")[0] for label, *_ in data_catalog}
        assert {"spmv-csr", "spmv-jds", "particle-filter", "histogram"} <= labels
        assert any(variant.wa_factor > 1 for _, variant, *_ in data_catalog)

    @seed(CHAOS_SEED)
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_data_priced_hit_at_any_aligned_range_equals_uncached(
        self, data_catalog, data
    ):
        """A data-priced entry keys on the range start as well: a hit at
        a wa-aligned (start, length) is exactly a fresh derivation on the
        same input, and the same length at another start is a separate
        entry."""
        label, variant, args, units = data.draw(
            st.sampled_from(data_catalog), label="variant"
        )
        make_device = data.draw(st.sampled_from([make_cpu, make_gpu]))
        model = CostModel(make_device())
        wa = variant.wa_factor
        starts = st.integers(0, (units - 1) // wa).map(lambda g: g * wa)
        start, other = data.draw(starts), data.draw(starts)
        length = data.draw(st.integers(1, units - max(start, other)))
        here = WorkRange(start, start + length)
        clear_cost_memo()
        model.workgroup_cycles(variant, args, here)
        hit = model.workgroup_cycles(variant, args, here)
        assert cost_memo_stats() == {"entries": 1, "hits": 1, "misses": 1}
        uncached = model._workgroup_cycles_uncached(variant, args, here)
        assert hit.shape == uncached.shape
        assert (hit == uncached).all(), (label, variant.name)
        if other != start:
            model.workgroup_cycles(variant, args, WorkRange(other, other + length))
            assert cost_memo_stats() == {"entries": 2, "hits": 1, "misses": 2}


class TestOutputsStayOutOfTheKey:
    @pytest.mark.parametrize("make_device", [make_cpu, make_gpu])
    def test_evaluators_never_read_outputs(self, data_catalog, make_device):
        """Scrambling every buffer a data-priced IR writes leaves its
        price unchanged, which is why written buffers' contents stay out
        of the key."""
        model = CostModel(make_device())
        rng = np.random.default_rng(CHAOS_SEED)
        for label, variant, args, units in data_catalog:
            whole = WorkRange(0, units)
            price = model._workgroup_cycles_uncached(variant, args, whole)
            scrambled = dict(args)
            for name in variant.ir.written_buffers:
                out = args[name]
                noise = rng.integers(-1000, 1000, size=out.shape)
                scrambled[name] = Buffer(
                    name, noise.astype(out.dtype), space=out.space
                )
            again = model._workgroup_cycles_uncached(variant, scrambled, whole)
            assert (price == again).all(), (label, variant.name)


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
