"""Property: dispatch in runs is *exactly* the per-work-group loop, cheaper.

``ExecutionEngine._advance_to`` sends the head batch's work-groups out
in runs, one comparison per work-group, where the per-work-group
reference re-reads the queues and arrivals for every work-group.  The
runs claim bit-identical unit free times, task intervals, busy cycles,
and measurements — not an approximation.  This suite swaps the
reference in (``forced_engine_path(drain=False)``), runs both over the
same seeded workload, and asserts equality down to the float.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings, strategies as st  # noqa: E402

#: Replay locally with ``REPRO_CHAOS_SEED=<seed>`` (same convention as
#: the chaos suite; the CI flakiness job randomizes it).
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
chaos_seed = seed(CHAOS_SEED)

from repro.config import ReproConfig  # noqa: E402
from repro.device import make_cpu  # noqa: E402
from repro.device.engine import ExecutionEngine  # noqa: E402
from repro.kernel import AccessPattern, WorkRange  # noqa: E402
from tests.conftest import (  # noqa: E402
    forced_engine_path,
    make_axpy_args,
    make_axpy_variant,
)
from tests.device.engine_reference import advance_per_work_group  # noqa: E402


def run_batch(config, units, trips, pattern, drain):
    """One seeded single-task batch, in runs or (``drain=False``) per
    work-group.

    Returns ``(task, engine, y)``: the finished task, its engine (for
    clock/busy accounting), and the committed output vector.
    """
    variant = make_axpy_variant("v", pattern, trips=trips)
    args = make_axpy_args(units, config)
    engine = ExecutionEngine(make_cpu(config), config)
    with forced_engine_path(drain):
        task = engine.submit(variant, args, WorkRange(0, units), measure=True)
        engine.wait(task)
    return task, engine, np.array(args["y"].data, copy=True)


@chaos_seed
@settings(max_examples=20, deadline=None)
@given(
    units=st.integers(min_value=12, max_value=160),
    trips=st.integers(min_value=8, max_value=64),
    strided=st.booleans(),
    noisy=st.booleans(),
    root_seed=st.integers(min_value=0, max_value=2**20),
)
def test_fast_batch_is_exact(units, trips, strided, noisy, root_seed):
    """Identical intervals, busy cycles, measurement, clock, and output."""
    config = ReproConfig(seed=root_seed)
    if not noisy:
        config = config.without_noise()
    pattern = AccessPattern.STRIDED if strided else AccessPattern.UNIT_STRIDE
    fast_task, fast_engine, fast_y = run_batch(
        config, units, trips, pattern, drain=True
    )
    event_task, event_engine, event_y = run_batch(
        config, units, trips, pattern, drain=False
    )

    assert fast_task.finished and event_task.finished
    assert fast_task.completed_work_groups == event_task.completed_work_groups
    assert fast_task.first_start == event_task.first_start
    assert fast_task.last_end == event_task.last_end
    assert fast_task.true_span_cycles == event_task.true_span_cycles
    assert fast_task.measured is not None and event_task.measured is not None
    assert (
        fast_task.measured.measured_cycles
        == event_task.measured.measured_cycles
    )
    assert fast_engine.now == event_engine.now
    assert fast_engine.utilization() == event_engine.utilization()
    assert np.array_equal(fast_y, event_y)


def test_fast_path_actually_engages():
    """Guard against vacuity: the forced path swaps the per-work-group
    reference in for the run dispatcher, and puts the dispatcher back."""
    default = ExecutionEngine._advance_to
    assert default is not advance_per_work_group
    with forced_engine_path(drain=False):
        assert ExecutionEngine._advance_to is advance_per_work_group
    assert ExecutionEngine._advance_to is default


def test_drain_hook_patches_via_monkeypatch(monkeypatch, quiet_config):
    """The documented test hook: monkeypatching ``_advance_to`` with the
    reference is enough to steer the path (no engine-construction
    argument needed), and the per-work-group path still finishes and
    measures."""
    monkeypatch.setattr(
        ExecutionEngine, "_advance_to", advance_per_work_group
    )
    variant = make_axpy_variant("v", trips=16)
    args = make_axpy_args(32, quiet_config)
    engine = ExecutionEngine(make_cpu(quiet_config), quiet_config)
    task = engine.submit(variant, args, WorkRange(0, 32), measure=True)
    engine.wait(task)
    assert task.finished
    assert task.measured is not None
    assert np.allclose(args["y"].data, 2.0 * args["x"].data)


def test_split_batches_take_the_generalized_fast_path(quiet_config):
    """Two interleaved tasks go out in runs *and* agree exactly with the
    per-work-group reference: the second task's arrival ends the first
    task's run, and the next run starts where the reference would."""

    def run(drain):
        with forced_engine_path(drain):
            engine = ExecutionEngine(make_cpu(quiet_config), quiet_config)
            variant = make_axpy_variant("v", trips=16)
            args = make_axpy_args(64, quiet_config)
            first = engine.submit(variant, args, WorkRange(0, 32))
            second = engine.submit(variant, args, WorkRange(32, 64))
            engine.wait_all([first, second])
            return engine, first, second, args

    fast = run(drain=True)
    event = run(drain=False)
    for fast_task, event_task in zip(fast[1:3], event[1:3]):
        assert fast_task.finished and event_task.finished
        assert fast_task.first_start == event_task.first_start
        assert fast_task.last_end == event_task.last_end
    assert fast[0].now == event[0].now
    assert fast[0].utilization() == event[0].utilization()
    assert np.allclose(fast[3]["y"].data, 2.0 * fast[3]["x"].data)
