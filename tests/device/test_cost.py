"""Unit tests for the mechanistic cost model."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from repro.device import make_cpu, make_gpu
from repro.device.cost import CostModel
from repro.device.memory import ELEM_BYTES, AccessCost
from repro.kernel import AccessPattern, AtomicKind, Buffer, WorkRange
from repro.kernel.buffers import MemorySpace
from repro.workloads import histogram, particle_filter, spmv_csr, spmv_jds
from tests.conftest import make_axpy_args, make_axpy_variant


class TestWorkgroupCycles:
    def test_positive_and_shaped(self, cpu, config):
        model = CostModel(cpu)
        variant = make_axpy_variant("v")
        args = make_axpy_args(16, config)
        cycles = model.workgroup_cycles(variant, args, WorkRange(0, 16))
        assert cycles.shape == (16,)
        assert (cycles > 0).all()

    def test_empty_range(self, cpu, config):
        model = CostModel(cpu)
        variant = make_axpy_variant("v")
        args = make_axpy_args(4, config)
        assert model.workgroup_cycles(variant, args, WorkRange(2, 2)).size == 0

    def test_coarsening_aggregates_units(self, cpu, config):
        model = CostModel(cpu)
        fine = make_axpy_variant("fine", wa_factor=1)
        coarse = make_axpy_variant("coarse", wa_factor=4)
        args = make_axpy_args(16, config)
        fine_cycles = model.workgroup_cycles(fine, args, WorkRange(0, 16))
        coarse_cycles = model.workgroup_cycles(coarse, args, WorkRange(0, 16))
        assert coarse_cycles.shape == (4,)
        # Coarse groups carry 4 units of work but only one dispatch
        # overhead, so 4 * fine > coarse > sum-of-4-units-minus-overheads.
        assert coarse_cycles.sum() < fine_cycles.sum()
        dispatch = cpu.spec.workgroup_dispatch_overhead
        assert coarse_cycles.sum() == pytest.approx(
            fine_cycles.sum() - 12 * dispatch, rel=0.01
        )

    def test_strided_slower_than_unit(self, cpu, config):
        model = CostModel(cpu)
        fast = make_axpy_variant("fast", AccessPattern.UNIT_STRIDE)
        slow = make_axpy_variant("slow", AccessPattern.STRIDED)
        args = make_axpy_args(8, config)
        fast_total = model.launch_cycles(fast, args, WorkRange(0, 8))
        slow_total = model.launch_cycles(slow, args, WorkRange(0, 8))
        assert slow_total > fast_total

    def test_more_flops_cost_more(self, cpu, config):
        model = CostModel(cpu)
        light = make_axpy_variant("light", flops_per_trip=8.0)
        heavy = make_axpy_variant("heavy", flops_per_trip=8000.0)
        args = make_axpy_args(4, config)
        assert model.launch_cycles(heavy, args, WorkRange(0, 4)) > model.launch_cycles(
            light, args, WorkRange(0, 4)
        )


class TestVectorization:
    def test_vector_width_speeds_up_regular_compute(self, cpu, config):
        import dataclasses

        model = CostModel(cpu)
        scalar = make_axpy_variant("s", flops_per_trip=4000.0)
        vector = dataclasses.replace(
            scalar, name="v", ir=scalar.ir.with_(vector_width=8)
        )
        args = make_axpy_args(4, config)
        assert model.launch_cycles(vector, args, WorkRange(0, 4)) < model.launch_cycles(
            scalar, args, WorkRange(0, 4)
        )

    def test_divergence_penalizes_wide_vectors(self, cpu, config):
        import dataclasses

        model = CostModel(cpu)
        base = make_axpy_variant("b", flops_per_trip=4000.0)
        narrow = dataclasses.replace(
            base, name="n", ir=base.ir.with_(vector_width=4, divergence=0.5)
        )
        wide = dataclasses.replace(
            base, name="w", ir=base.ir.with_(vector_width=8, divergence=0.5)
        )
        args = make_axpy_args(4, config)
        narrow_cost = model.launch_cycles(narrow, args, WorkRange(0, 4))
        wide_cost = model.launch_cycles(wide, args, WorkRange(0, 4))
        # Wide is still faster on pure compute here, but by less than 2x.
        assert wide_cost < narrow_cost
        assert narrow_cost / wide_cost < 2.0


class TestPlacementEffects:
    def test_texture_helps_gpu_gathers(self, gpu, config):
        import dataclasses

        model = CostModel(gpu)
        base = make_axpy_variant("g", AccessPattern.GATHER)
        placed = dataclasses.replace(
            base,
            name="t",
            ir=base.ir.with_(placements=(("x", MemorySpace.TEXTURE.value),)),
        )
        args = make_axpy_args(8, config)
        assert model.launch_cycles(placed, args, WorkRange(0, 8)) < model.launch_cycles(
            base, args, WorkRange(0, 8)
        )

    def test_constant_hurts_gpu_gathers(self, gpu, config):
        import dataclasses

        model = CostModel(gpu)
        base = make_axpy_variant("g", AccessPattern.GATHER)
        placed = dataclasses.replace(
            base,
            name="c",
            ir=base.ir.with_(placements=(("x", MemorySpace.CONSTANT.value),)),
        )
        args = make_axpy_args(8, config)
        assert model.launch_cycles(placed, args, WorkRange(0, 8)) > model.launch_cycles(
            base, args, WorkRange(0, 8)
        )

    def test_placement_is_noop_on_cpu(self, cpu, config):
        import dataclasses

        model = CostModel(cpu)
        base = make_axpy_variant("g", AccessPattern.GATHER)
        placed = dataclasses.replace(
            base,
            name="t",
            ir=base.ir.with_(placements=(("x", MemorySpace.TEXTURE.value),)),
        )
        args = make_axpy_args(8, config)
        assert model.launch_cycles(placed, args, WorkRange(0, 8)) == pytest.approx(
            model.launch_cycles(base, args, WorkRange(0, 8))
        )


class TestBookkeeping:
    def test_unroll_reduces_cost(self, cpu, config):
        import dataclasses

        model = CostModel(cpu)
        base = make_axpy_variant("b", trips=1000)
        unrolled = dataclasses.replace(
            base, name="u", ir=base.ir.with_(unroll_factor=4)
        )
        args = make_axpy_args(4, config)
        assert model.launch_cycles(unrolled, args, WorkRange(0, 4)) < model.launch_cycles(
            base, args, WorkRange(0, 4)
        )

    def test_data_dependent_bounds_reach_costs(self, cpu, config):
        """Units with more work must cost more (the productive-profiling
        prerequisite: slice costs reflect slice data)."""
        from repro.kernel import KernelIR, Loop, LoopBound, MemoryAccess
        import dataclasses

        base = make_axpy_variant("d")
        dyn_ir = KernelIR(
            loops=(
                Loop(
                    "k",
                    LoopBound(
                        evaluator=lambda args, ids: (ids.astype(float) + 1) * 10
                    ),
                ),
            ),
            accesses=(
                MemoryAccess("x", False, AccessPattern.UNIT_STRIDE, 64.0, loop="k"),
            ),
            flops_per_trip=16.0,
        )
        variant = dataclasses.replace(base, ir=dyn_ir)
        model = CostModel(cpu)
        args = make_axpy_args(8, config)
        cycles = model.workgroup_cycles(variant, args, WorkRange(0, 8))
        assert (np.diff(cycles) > 0).all()


def counting_variant(variant, calls):
    """``variant`` with each loop-bound evaluator counting its calls."""

    def counted(loop):
        evaluator = loop.bound.evaluator
        if evaluator is None:
            return loop

        def evaluate(args, unit_ids):
            calls[loop.name] += 1
            return evaluator(args, unit_ids)

        bound = dataclasses.replace(loop.bound, evaluator=evaluate)
        return dataclasses.replace(loop, bound=bound)

    ir = variant.ir.with_(loops=tuple(counted(loop) for loop in variant.ir.loops))
    return dataclasses.replace(variant, ir=ir)


def reference_workgroup_cycles(device, variant, args, units):
    """The pricing formula derived count by count: flops, every access
    site and the loop bookkeeping each evaluate the loop bounds they
    multiply, as pricing did before bounds were shared."""
    ir = variant.ir
    ids = np.arange(units.start, units.end, dtype=np.int64)

    def product(loops):
        counts = np.ones(ids.size)
        for loop in loops:
            counts = counts * loop.bound.trips(args, ids)
        return counts

    def buffer_arg(name):
        value = args.get(name) if name else None
        return value if isinstance(value, Buffer) else None

    flops = ir.flops_fixed + ir.flops_per_trip * product(ir.loops)
    compute = device.compute_cycles(ir, flops, ir.work_group_threads)
    memory = device.memory
    cost = AccessCost.zero(ids.size)
    atomic = np.zeros(ids.size)
    for access in ir.accesses:
        if access.scope is None:
            scope = ir.enclosing_loops(access.loop)
        else:
            scope = [ir.loop_named(name) for name in access.scope]
        useful = access.bytes_per_trip * product(scope)
        buffer = buffer_arg(access.buffer)
        space = MemorySpace(
            dict(ir.placements).get(
                access.buffer,
                buffer.space.value if buffer is not None else "global",
            )
        )
        working_set = memory.working_set(
            access, args, ids, buffer, buffer_arg(access.working_set_hint)
        )
        stride = None
        if access.stride_evaluator is not None:
            stride = np.asarray(access.stride_evaluator(args, ids), dtype=float)
        cost = cost + memory.access_cost(
            access,
            useful,
            working_set,
            float(buffer.nbytes) if buffer is not None else float("inf"),
            ir,
            space,
            dynamic_stride=stride,
        )
        if access.atomic is AtomicKind.GLOBAL:
            atomic += useful / ELEM_BYTES * device.atomic_cycles_per_op()

    spec = device.spec
    bookkeeping = np.zeros(ids.size)
    instances = np.ones(ids.size)
    for index, loop in enumerate(ir.loops):
        iterations = instances * loop.bound.trips(args, ids)
        per_trip = spec.loop_overhead_cycles
        if index == len(ir.loops) - 1:
            per_trip /= ir.unroll_factor * max(1, ir.vector_width)
            if ir.prefetch:
                per_trip += 0.6
        bookkeeping += instances * spec.loop_setup_cycles
        bookkeeping += iterations * per_trip
        instances = iterations
    exposed = cost.latency_cycles + atomic + bookkeeping

    group_start, group_end = variant.groups_for_units(units)
    offsets = (
        np.arange(group_start, group_end, dtype=np.int64) * variant.wa_factor
        - units.start
    )
    fixed = (
        device.scratchpad_cycles_per_group(ir)
        + spec.workgroup_dispatch_overhead
    )
    return (
        np.maximum(
            np.add.reduceat(compute, offsets),
            np.add.reduceat(cost.bandwidth_cycles, offsets),
        )
        + np.add.reduceat(exposed, offsets)
        + fixed
    )


#: Cases whose pools carry data-dependent loop bounds, with the device
#: each is priced on.
ONE_PASS_CASES = {
    "histogram-skewed": (
        lambda config: histogram.swap_case("skewed", 40 * 1024 + 300, config),
        make_cpu,
    ),
    "spmv-csr-random": (
        lambda config: spmv_csr.input_dependent_case("cpu", "random", 2048, config),
        make_cpu,
    ),
    "spmv-jds": (lambda config: spmv_jds.schedule_case(1024, config), make_cpu),
    "particle-filter": (
        lambda config: particle_filter.placement_case(4000, config),
        make_gpu,
    ),
}


class TestOnePassPricing:
    @pytest.mark.parametrize("name", sorted(ONE_PASS_CASES))
    def test_each_loop_bound_evaluated_once_per_pricing(self, name, config):
        """One ``workgroup_cycles`` call runs every loop-bound evaluator
        exactly once, and prices exactly as the count-by-count formula."""
        build, make_device = ONE_PASS_CASES[name]
        case = build(config)
        device = make_device(config)
        model = CostModel(device)
        dynamic_loops = 0
        for variant in case.pool.variants:
            wa = variant.wa_factor
            for units in (
                WorkRange(0, case.workload_units),
                WorkRange(wa, min(case.workload_units, 5 * wa)),
            ):
                calls = Counter()
                args = case.fresh_args()
                cycles = model.workgroup_cycles(
                    counting_variant(variant, calls), args, units
                )
                dynamic = [
                    loop.name
                    for loop in variant.ir.loops
                    if loop.bound.evaluator is not None
                ]
                dynamic_loops += len(dynamic)
                assert calls == Counter(dict.fromkeys(dynamic, 1)), (
                    variant.name
                )
                expected = reference_workgroup_cycles(
                    device, variant, args, units
                )
                assert cycles.shape == expected.shape
                assert (cycles == expected).all(), variant.name
        assert dynamic_loops > 0, f"{name} prices no data-dependent bound"
