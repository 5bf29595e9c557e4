"""Unit tests for the compile-time transforms."""

import numpy as np
import pytest

from repro.compiler.transforms import (
    add_prefetch,
    coarsen,
    enumerate_schedules,
    place,
    reorder_loops,
    tile_scratchpad,
    unroll,
    vectorize,
)
from repro.compiler.transforms.vectorize import auto_vectorize
from repro.errors import TransformError
from repro.kernel import (
    AccessPattern,
    KernelIR,
    KernelVariant,
    Loop,
    LoopBound,
    MemoryAccess,
)
from repro.kernel.buffers import MemorySpace
from tests.conftest import make_axpy_variant


def scheduled_variant():
    """A 2-loop variant with stride metadata for schedule tests."""
    ir = KernelIR(
        loops=(
            Loop("wi", LoopBound(static_trips=8), is_work_item_loop=True),
            Loop("k", LoopBound(static_trips=32)),
        ),
        accesses=(
            MemoryAccess(
                "x",
                False,
                AccessPattern.UNIT_STRIDE,
                4.0,
                loop="k",
                scope=("wi", "k"),
                strides_by_loop=(("wi", 1024), ("k", 4)),
            ),
            MemoryAccess(
                "y",
                True,
                AccessPattern.UNIT_STRIDE,
                4.0,
                loop="wi",
                scope=("wi",),
                strides_by_loop=(("wi", 4), ("k", 0)),
            ),
        ),
        flops_per_trip=2.0,
    )
    return KernelVariant("base", ir, lambda a, s, e: None)


class TestSchedule:
    def test_reorder_re_derives_patterns(self):
        variant = scheduled_variant()
        swapped = reorder_loops(variant, ("k", "wi"), label="BFO")
        x_access = swapped.ir.accesses[0]
        assert x_access.pattern is AccessPattern.STRIDED
        assert x_access.stride_bytes == 1024
        assert [l.name for l in swapped.ir.loops] == ["k", "wi"]
        assert swapped.name == "base,BFO"

    def test_reorder_preserves_hoisted_counts(self):
        variant = scheduled_variant()
        swapped = reorder_loops(variant, ("k", "wi"))
        y_access = swapped.ir.accesses[1]
        ids = np.arange(2)
        # y executes once per wi regardless of order (accumulator write).
        assert list(swapped.ir.access_trips(y_access, {}, ids)) == [8.0, 8.0]

    def test_hoisting_drops_invariant_inner_loops(self):
        variant = scheduled_variant()
        # Order with k outer: y's zero-stride k loop is not in scope anyway,
        # but x under (wi, k) keeps both.
        same = reorder_loops(variant, ("wi", "k"))
        x_access = same.ir.accesses[0]
        assert x_access.scope == ("wi", "k")

    def test_invalid_order_rejected(self):
        with pytest.raises(TransformError):
            reorder_loops(scheduled_variant(), ("wi",))
        with pytest.raises(TransformError):
            reorder_loops(scheduled_variant(), ("wi", "nope"))

    def test_enumerate_schedules_full_family(self):
        family = list(enumerate_schedules(scheduled_variant()))
        assert len(family) == 2
        names = {variant.name for _, variant in family}
        assert len(names) == 2  # unique names


class TestVectorize:
    def test_sets_width(self):
        variant = vectorize(make_axpy_variant("v"), 8)
        assert variant.ir.vector_width == 8
        assert variant.name.endswith("8-way")

    def test_scalar_label(self):
        assert vectorize(make_axpy_variant("v"), 1).name.endswith("scalar")

    def test_invalid_width(self):
        with pytest.raises(TransformError):
            vectorize(make_axpy_variant("v"), 0)
        with pytest.raises(TransformError):
            vectorize(make_axpy_variant("v"), 3)

    def test_auto_vectorize_unit_stride_body(self):
        variant = scheduled_variant()  # innermost k has stride 4
        assert auto_vectorize(variant).ir.vector_width == 8

    def test_auto_vectorize_rejects_strided_body(self):
        variant = reorder_loops(scheduled_variant(), ("k", "wi"))
        # innermost wi strides x by 1024: not vectorizable.
        assert auto_vectorize(variant).ir.vector_width == 1


class TestCoarsen:
    def test_multiplies_wa_factor(self):
        variant = coarsen(make_axpy_variant("v", wa_factor=2), 4)
        assert variant.wa_factor == 8

    def test_scales_traffic_and_flops(self):
        base = make_axpy_variant("v")
        variant = coarsen(base, 2, flops_scale=0.5, bytes_scale={"x": 0.25})
        assert variant.ir.flops_per_trip == base.ir.flops_per_trip * 0.5
        x = [a for a in variant.ir.accesses if a.buffer == "x"][0]
        x0 = [a for a in base.ir.accesses if a.buffer == "x"][0]
        assert x.bytes_per_trip == pytest.approx(0.25 * x0.bytes_per_trip)

    def test_invalid_inputs(self):
        with pytest.raises(TransformError):
            coarsen(make_axpy_variant("v"), 0)
        with pytest.raises(TransformError):
            coarsen(make_axpy_variant("v"), 2, flops_scale=0.0)
        with pytest.raises(TransformError):
            coarsen(make_axpy_variant("v"), 2, bytes_scale={"x": -1.0})


class TestTile:
    def test_records_scratchpad_and_barrier(self):
        variant = tile_scratchpad(
            make_axpy_variant("v"), 2048, {"x": 0.25}, wa_factor_scale=4
        )
        assert variant.ir.scratchpad_bytes == 2048
        assert variant.ir.uses_barrier
        assert variant.wa_factor == 4

    def test_unknown_buffer_rejected(self):
        with pytest.raises(TransformError, match="no access touches"):
            tile_scratchpad(make_axpy_variant("v"), 64, {"zzz": 0.5})

    def test_requires_positive_scratchpad(self):
        with pytest.raises(TransformError):
            tile_scratchpad(make_axpy_variant("v"), 0, {"x": 0.5})


class TestUnrollPrefetch:
    def test_unroll_multiplies(self):
        variant = unroll(unroll(make_axpy_variant("v"), 2), 2)
        assert variant.ir.unroll_factor == 4

    def test_unroll_needs_loop(self):
        import dataclasses

        base = make_axpy_variant("v")
        no_loops = dataclasses.replace(
            base, ir=base.ir.with_(loops=(), accesses=())
        )
        with pytest.raises(TransformError):
            unroll(no_loops, 2)

    def test_prefetch_flags_and_costs(self):
        base = make_axpy_variant("v")
        variant = add_prefetch(base)
        assert variant.ir.prefetch
        assert variant.ir.flops_per_trip > base.ir.flops_per_trip


class TestPlacement:
    def test_records_placement(self):
        variant = place(make_axpy_variant("v"), {"x": MemorySpace.TEXTURE})
        assert ("x", "texture") in variant.ir.placements

    def test_written_buffer_cannot_go_readonly(self):
        with pytest.raises(TransformError, match="written"):
            place(make_axpy_variant("v"), {"y": MemorySpace.TEXTURE})

    def test_untouched_buffer_rejected(self):
        with pytest.raises(TransformError):
            place(make_axpy_variant("v"), {"zzz": MemorySpace.TEXTURE})

    def test_placements_merge(self):
        variant = place(
            place(make_axpy_variant("v"), {"x": MemorySpace.TEXTURE}),
            {"x": MemorySpace.CONSTANT},
        )
        assert dict(variant.ir.placements)["x"] == "constant"

    def test_empty_rejected(self):
        with pytest.raises(TransformError):
            place(make_axpy_variant("v"), {})
