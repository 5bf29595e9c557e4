"""Property-based tests for productive-profiling and engine invariants.

These encode the correctness obligations of paper §2.2/Table 1 as
universally-quantified properties: for any pool geometry and workload
size, profiling plans must partition the workload correctly, keep their
space accounting within Table 1's bounds, and the engine must conserve
work.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.compiler.analyses.safe_point import safe_point_plan
from repro.compiler.variants import VariantPool
from repro.config import ReproConfig
from repro.core.productive import plan_profiling
from repro.device import make_cpu
from repro.device.engine import ExecutionEngine, Priority
from repro.errors import AnalysisError, ProfilingError
from repro.kernel import AccessPattern, WorkRange
from repro.kernel.kernel import KernelSpec
from repro.kernel.launch import LaunchConfig
from repro.modes import ProfilingMode
from tests.conftest import (
    axpy_signature,
    make_axpy_args,
    make_axpy_variant,
)

CONFIG = ReproConfig()

pool_strategy = st.lists(
    st.integers(1, 8), min_size=2, max_size=5
).map(
    lambda factors: VariantPool(
        spec=KernelSpec(signature=axpy_signature()),
        variants=tuple(
            make_axpy_variant(
                f"v{i}",
                AccessPattern.UNIT_STRIDE if i == 0 else AccessPattern.STRIDED,
                wa_factor=f,
            )
            for i, f in enumerate(factors)
        ),
    )
)


def _plan_for(pool, units, mode):
    launch = LaunchConfig.create(
        axpy_signature(), make_axpy_args(units, CONFIG), units
    )
    try:
        safe = safe_point_plan(pool.variants, 4, units)
        plan = plan_profiling(pool, mode, launch, safe)
    except (AnalysisError, ProfilingError):
        assume(False)
    return launch, plan


@settings(max_examples=40, deadline=None)
@given(pool_strategy, st.integers(64, 4096))
def test_fully_productive_partitions_workload(pool, units):
    """Profiled slices + remainder exactly tile [0, units), disjointly."""
    _launch, plan = _plan_for(pool, units, ProfilingMode.FULLY)
    cursor = 0
    for task in plan.tasks:
        assert task.units.start == cursor
        assert len(task.units) == plan.units_per_variant
        cursor = task.units.end
    assert plan.remainder.start == cursor
    assert plan.remainder.end == units
    assert plan.extra_copies == 0  # Table 1
    # Slices are aligned to each owner's work assignment factor.
    for task in plan.tasks:
        task.variant.groups_for_units(task.units)


@settings(max_examples=40, deadline=None)
@given(
    pool_strategy,
    st.integers(64, 4096),
    st.sampled_from([ProfilingMode.HYBRID, ProfilingMode.SWAP]),
)
def test_partial_modes_share_slice_and_bound_space(pool, units, mode):
    """Both partial modes profile one shared slice; space per Table 1."""
    _launch, plan = _plan_for(pool, units, mode)
    spans = {(t.units.start, t.units.end) for t in plan.tasks}
    assert spans == {(0, plan.units_per_variant)}
    assert plan.remainder == WorkRange(plan.units_per_variant, units)
    k = len(pool.variants)
    if mode is ProfilingMode.HYBRID:
        assert plan.extra_copies == k - 1
    else:
        assert plan.extra_copies == k
    assert plan.productive_task_count == 1


@settings(max_examples=30, deadline=None)
@given(pool_strategy, st.integers(64, 2048))
def test_profiled_plus_remainder_compute_whole_output(pool, units):
    """Executing all productive tasks plus the remainder with any variant
    yields the complete, correct output (the productive guarantee)."""
    launch, plan = _plan_for(pool, units, ProfilingMode.FULLY)
    for task in plan.tasks:
        task.variant.execute(task.args, task.units)
    pool.variants[0].execute(launch.args, plan.remainder)
    x = launch.args["x"].data
    y = launch.args["y"].data
    assert np.allclose(y, 2.0 * x)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(8, 512),
    st.integers(1, 4),
    st.integers(0, 2**31),
)
def test_engine_conserves_work(units, wa, seed):
    """Every submitted work-group completes exactly once; busy cycles
    equal the sum of all jittered durations."""
    config = ReproConfig(seed=seed)
    device = make_cpu(config)
    engine = ExecutionEngine(device, config)
    variant = make_axpy_variant("v", wa_factor=wa)
    args = make_axpy_args(units, config)
    tasks = []
    cut = (units // 2 // wa) * wa
    tasks.append(
        engine.submit(variant, args, WorkRange(0, cut), priority=Priority.PROFILING)
    )
    tasks.append(
        engine.submit(variant, args, WorkRange(cut, units), priority=Priority.BATCH)
    )
    engine.barrier()
    # The two tasks' group counts tile the workload's groups exactly
    # (``cut`` is wa-aligned by construction).
    total_groups = sum(task.total_work_groups for task in tasks)
    assert total_groups == variant.num_groups(units)
    for task in tasks:
        assert task.finished
        assert task.completed_work_groups == task.total_work_groups
        if task.total_work_groups:
            assert task.first_start >= task.arrival_time
            assert task.last_end >= task.first_start


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31), st.integers(64, 1024))
def test_makespan_bounded_by_serial_and_critical_path(seed, units):
    """Parallel makespan lies between serial/P and serial (+ overheads)."""
    config = ReproConfig(seed=seed)
    device = make_cpu(config)
    engine = ExecutionEngine(device, config)
    variant = make_axpy_variant("v", trips=64)
    args = make_axpy_args(units, config)
    task = engine.submit(variant, args, WorkRange(0, units))
    engine.wait(task)
    span = task.true_span_cycles
    serial = float(
        np.sum(engine.cost_model.workgroup_cycles(variant, args, WorkRange(0, units)))
    )
    cores = device.spec.compute_units
    # Jitter is ±~10% at most here; allow slack on both bounds.
    assert span >= serial / cores * 0.8
    assert span <= serial * 1.2
