"""Soundness of the static cost intervals.

Two properties the whole dominance design rests on:

1. **Containment** — for any synthesizable variant, the noise-free cost
   model's measured launch cycles lie inside the static interval
   computed by :func:`repro.analyze.costbound.variant_cost_bound`, on
   every known device kind.
2. **Winner survival** — in any pool, the variant the noise-free cost
   model would pick is never in the dominance verdict's pruned set.

The oracle is :meth:`repro.device.cost.CostModel.launch_cycles` rather
than the engine because the engine adds a *variant-independent* launch
overhead plus jitter on top of the model; both cancel when comparing
variants, so they are deliberately out of the interval's scope (see
``docs/analysis.md``).

The bound runs the device's own pricing at widened endpoints, so this
suite guards the widening: the synthetic generator draws every input
that pricing reads (all access patterns, one to three loops mixing static
and evaluator bounds, stride evaluators, constant and evaluator
footprints, working-set hints, texture/constant/global placements, a
global-atomic write, and the vector-width, divergence, prefetch, unroll,
scratchpad and barrier transform state), and
:class:`TestExampleContainment` checks every example pool's real IRs.
"""

from __future__ import annotations

import os

import numpy as np
from hypothesis import given, seed, settings, strategies as st

from repro.analyze.catalog import example_entries
from repro.analyze.costbound import WideningPolicy, variant_cost_bound
from repro.analyze.dominance import pool_cost_bounds
from repro.config import ReproConfig
from repro.device import make_cpu, make_gpu
from repro.device.cost import CostModel
from repro.kernel import (
    AccessPattern,
    AtomicKind,
    KernelIR,
    KernelVariant,
    Loop,
    LoopBound,
    MemoryAccess,
    WorkRange,
)
from repro.kernel.buffers import Buffer, MemorySpace

from .conftest import make_pool
from tests.conftest import AXPY_UNIT, axpy_executor

#: Replay locally with ``REPRO_CHAOS_SEED=<seed>`` (same convention as
#: the chaos suite; the CI flakiness job randomizes it).
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

_QUIET = ReproConfig().without_noise()
_MODELS = {
    "cpu": CostModel(make_cpu(_QUIET)),
    "gpu": CostModel(make_gpu(_QUIET)),
}

#: Largest data-dependent trip count drawn: inside both widening
#: policies used here, the default ``(0, 4096)`` and ``(0, 64)``.
MAX_DATA_TRIPS = 64

#: Read buffers a drawn access may touch; ``h`` also serves as the
#: working-set hint.
_READ_BUFFERS = ("x", "h")

_SPACES = tuple(
    space.value
    for space in (MemorySpace.GLOBAL, MemorySpace.TEXTURE, MemorySpace.CONSTANT)
)


def per_unit(lo: int, hi: int, salt: int):
    """An evaluator whose per-unit values cycle through ``[lo, hi]``."""
    span = hi - lo + 1

    def evaluate(args, unit_ids):
        return (lo + (np.asarray(unit_ids) * salt) % span).astype(float)

    return evaluate


@st.composite
def evaluators(draw, max_value: int):
    """A data-dependent evaluator with values in ``[0, max_value]``."""
    lo = draw(st.integers(min_value=0, max_value=max_value))
    hi = draw(st.integers(min_value=lo, max_value=max_value))
    return per_unit(lo, hi, draw(st.integers(min_value=1, max_value=97)))


@st.composite
def loop_nests(draw):
    """One to three loops, each with a static or an evaluator bound."""
    loops = []
    for depth in range(draw(st.integers(min_value=1, max_value=3))):
        if draw(st.booleans()):
            bound = LoopBound(
                static_trips=draw(st.integers(min_value=0, max_value=64))
            )
        else:
            bound = LoopBound(
                evaluator=draw(evaluators(MAX_DATA_TRIPS)),
                description="drawn per-unit trips",
            )
        loops.append(Loop(f"l{depth}", bound))
    return tuple(loops)


@st.composite
def read_accesses(draw, loop_names):
    """A read of any pattern, with optional data-dependent facts."""
    pattern = draw(st.sampled_from(tuple(AccessPattern)))
    strided = pattern is AccessPattern.STRIDED
    return MemoryAccess(
        draw(st.sampled_from(_READ_BUFFERS)),
        False,
        pattern,
        draw(st.floats(min_value=0.0, max_value=512.0)),
        loop=draw(st.sampled_from((None,) + loop_names)),
        stride_bytes=draw(st.sampled_from((4, 32, 64, 256))) if strided else 0,
        working_set_hint=draw(st.sampled_from((None, "h"))),
        stride_evaluator=draw(st.none() | evaluators(1024)),
        footprint_hint=draw(
            st.none()
            | st.floats(min_value=0.0, max_value=float(1 << 24))
            | evaluators(1 << 24)
        ),
    )


@st.composite
def synthetic_variants(draw) -> KernelVariant:
    """A random but well-formed variant over the pricing inputs."""
    loops = draw(loop_nests())
    names = tuple(loop.name for loop in loops)
    reads = draw(st.lists(read_accesses(names), min_size=1, max_size=2))
    write = MemoryAccess(
        "y",
        True,
        draw(
            st.sampled_from((AccessPattern.UNIT_STRIDE, AccessPattern.COALESCED))
        ),
        draw(st.floats(min_value=1.0, max_value=512.0)),
        loop=draw(st.sampled_from((None,) + names)),
        atomic=draw(st.sampled_from((AtomicKind.NONE, AtomicKind.GLOBAL))),
    )
    placements = tuple(
        (name, draw(st.sampled_from(_SPACES)))
        for name in _READ_BUFFERS
        if draw(st.booleans())
    )
    ir = KernelIR(
        loops=loops,
        accesses=(*reads, write),
        flops_per_trip=draw(st.floats(min_value=0.0, max_value=8192.0)),
        flops_fixed=draw(st.floats(min_value=0.0, max_value=1024.0)),
        vector_width=draw(st.sampled_from((1, 2, 4, 8, 16, 32))),
        divergence=draw(st.floats(min_value=0.0, max_value=1.0)),
        scratchpad_bytes=draw(st.sampled_from((0, 512, 16384))),
        uses_barrier=draw(st.booleans()),
        unroll_factor=draw(st.integers(min_value=1, max_value=8)),
        prefetch=draw(st.booleans()),
        placements=placements,
        work_group_threads=draw(st.sampled_from((1, 16, AXPY_UNIT, 256))),
    )
    return KernelVariant(
        name=f"synth_{draw(st.integers(min_value=0, max_value=10**9))}",
        ir=ir,
        executor=axpy_executor,
        wa_factor=draw(st.integers(min_value=1, max_value=4)),
        work_group_size=AXPY_UNIT,
    )


#: Elements of the ``h`` buffer a launch may bind: L1-, L2- and
#: beyond-L2-sized on both devices.
hint_sizes = st.sampled_from((16, 1 << 14, 1 << 18))


def assert_units_inside(bound, model, variant, args, units: int, where: str):
    """Each unit's compute, bandwidth and exposed cycles lie inside the
    bound's interval for that component, so a widening that is unsound
    for one term fails even when another term's slack hides it in the
    launch total."""
    costs = model.unit_costs(variant.ir, args, np.arange(units))
    for component in ("compute", "bandwidth", "exposed"):
        interval = getattr(bound, component)
        cycles = getattr(costs, f"{component}_cycles")
        for value in (cycles.min(), cycles.max()):
            assert interval.contains(float(value), slack=1e-6), (
                f"{where}: {component} {value} outside {interval}"
            )


def launch_args(units: int, hint_elems: int = 16):
    """Buffers large enough for any drawn launch."""
    n = units * AXPY_UNIT
    return {
        "x": Buffer("x", np.zeros(n, dtype=np.float32)),
        "h": Buffer("h", np.zeros(hint_elems, dtype=np.float32)),
        "y": Buffer("y", np.zeros(n, dtype=np.float32), writable=True),
    }


class TestContainment:
    @seed(CHAOS_SEED)
    @settings(max_examples=40, deadline=None)
    @given(
        variant=synthetic_variants(),
        units=st.integers(min_value=1, max_value=32),
        hint_elems=hint_sizes,
    )
    def test_measured_cost_inside_static_interval(
        self, variant, units, hint_elems
    ):
        args = launch_args(units, hint_elems)
        work = WorkRange(0, units)
        for kind, model in _MODELS.items():
            measured = model.launch_cycles(variant, args, work)
            bound = variant_cost_bound(variant, kind)
            interval = bound.launch_interval(units)
            assert interval.contains(measured, slack=1e-6), (
                f"{kind}: measured {measured} outside {interval} "
                f"for {variant.name}"
            )
            assert_units_inside(bound, model, variant, args, units, kind)

    @seed(CHAOS_SEED)
    @settings(max_examples=40, deadline=None)
    @given(
        variant=synthetic_variants(),
        units=st.integers(min_value=1, max_value=32),
    )
    def test_per_unit_interval_brackets_any_launch(self, variant, units):
        # The asymptotic per-unit interval is what dominance prunes
        # with when the workload size is unknown; it must bracket the
        # exact launch interval at every unit count.
        bound = variant_cost_bound(variant, "cpu")
        launch = bound.launch_interval(units)
        per_unit = bound.per_unit_interval
        assert launch.lo >= per_unit.lo * units - 1e-6 * max(1.0, launch.lo)
        assert launch.hi <= per_unit.hi * units + 1e-6 * max(1.0, launch.hi)

    @seed(CHAOS_SEED)
    @settings(max_examples=20, deadline=None)
    @given(variant=synthetic_variants(), hint_elems=hint_sizes)
    def test_custom_widening_still_contains_constant_trips(
        self, variant, hint_elems
    ):
        # A tighter-but-still-correct widening policy keeps soundness:
        # every drawn data-dependent trip count is at most 64.
        policy = WideningPolicy(data_trip_bounds=(0.0, float(MAX_DATA_TRIPS)))
        args = launch_args(4, hint_elems)
        for kind, model in _MODELS.items():
            measured = model.launch_cycles(variant, args, WorkRange(0, 4))
            interval = variant_cost_bound(
                variant, kind, policy=policy
            ).launch_interval(4)
            assert interval.contains(measured, slack=1e-6), kind


class TestExampleContainment:
    def test_every_example_variant_inside_its_interval(self):
        """Real IRs carry what the generator only imitates: texture and
        constant placements, dynamic strides, global atomics, scratchpad
        and prefetch, on each pool's own input data."""
        checks = 0
        for label, entry in example_entries():
            case = entry.case
            work = WorkRange(0, case.workload_units)
            for kind, model in _MODELS.items():
                for variant in case.pool.variants:
                    args = case.fresh_args()
                    where = f"{label}/{variant.name} on {kind}"
                    measured = model.launch_cycles(variant, args, work)
                    bound = variant_cost_bound(variant, kind)
                    interval = bound.launch_interval(case.workload_units)
                    assert interval.contains(measured, slack=1e-6), (
                        f"{where}: measured {measured} outside {interval}"
                    )
                    assert_units_inside(
                        bound, model, variant, args, case.workload_units, where
                    )
                    checks += 1
        assert checks == 84


class TestWinnerSurvival:
    @seed(CHAOS_SEED)
    @settings(max_examples=40, deadline=None)
    @given(
        variants=st.lists(
            synthetic_variants(), min_size=2, max_size=6
        ),
        units=st.integers(min_value=1, max_value=32),
        hint_elems=hint_sizes,
    )
    def test_pruned_variant_is_never_the_measured_winner(
        self, variants, units, hint_elems
    ):
        named = tuple(
            KernelVariant(
                name=f"v{i}",
                ir=v.ir,
                executor=v.executor,
                wa_factor=v.wa_factor,
                work_group_size=v.work_group_size,
            )
            for i, v in enumerate(variants)
        )
        pool = make_pool(*named)
        args = launch_args(units, hint_elems)
        work = WorkRange(0, units)
        for kind, model in _MODELS.items():
            verdict = pool_cost_bounds(pool, kind)
            costs = {
                v.name: model.launch_cycles(v, args, work) for v in named
            }
            winner = min(costs, key=costs.get)
            assert winner not in verdict.pruned, (
                f"{kind}: measured winner {winner} "
                f"({costs[winner]:.1f} cycles) was statically pruned; "
                f"verdict={verdict.as_dict()}"
            )
