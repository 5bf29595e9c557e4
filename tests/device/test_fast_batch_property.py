"""Property: the fast-batch path is *exactly* the event path, cheaper.

``ExecutionEngine._try_fast_batch`` claims bit-identical unit free
times, task intervals, busy cycles, and measurements — not an
approximation.  The engine takes it on every unbounded advance with no
pending arrival; this suite forces the per-work-group path instead by
patching the hook to refuse (``forced_engine_path(drain=False)``), runs
both over the same seeded workload, and asserts equality down to the
float.
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


def run_batch(config, units, trips, pattern, drain):
    """One seeded single-task batch with the analytic drain on or off.

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


def test_fast_path_actually_engages(quiet_config):
    """Guard against vacuity: a wait on a small batch takes the fast path
    by default, and the forced per-work-group path does not."""
    taken = []

    class Probe(ExecutionEngine):
        def _try_fast_batch(self, horizon):
            result = super()._try_fast_batch(horizon)
            taken.append(result)
            return result

    variant = make_axpy_variant("v", trips=16)
    units = 64
    engine = Probe(make_cpu(quiet_config), quiet_config)
    task = engine.submit(
        variant, make_axpy_args(units, quiet_config), WorkRange(0, units)
    )
    engine.wait(task)
    assert taken == [True]

    taken.clear()
    with forced_engine_path(drain=False):
        engine = Probe(make_cpu(quiet_config), quiet_config)
        task = engine.submit(
            variant, make_axpy_args(units, quiet_config), WorkRange(0, units)
        )
        engine.wait(task)
    assert task.finished
    assert taken and not any(taken)


def test_drain_refuses_outside_its_preconditions(quiet_config):
    """The hook drains nothing while an arrival is pending or to a
    bounded horizon, and everything once neither holds."""
    engine = ExecutionEngine(make_cpu(quiet_config), quiet_config)
    task = engine.submit(
        make_axpy_variant("v", trips=16),
        make_axpy_args(32, quiet_config),
        WorkRange(0, 32),
    )
    assert engine._try_fast_batch(float("inf")) is False
    engine._deliver_arrivals(task.arrival_time)
    assert engine._try_fast_batch(task.arrival_time + 1e9) is False
    assert task.completed_work_groups == 0
    assert engine._try_fast_batch(float("inf")) is True
    assert task.finished


def test_drain_hook_patches_via_monkeypatch(monkeypatch, quiet_config):
    """The documented test hook: monkeypatching ``_try_fast_batch`` to
    refuse is enough to steer the path (no engine-construction argument
    needed), and the per-work-group path still finishes and measures."""
    monkeypatch.setattr(
        ExecutionEngine, "_try_fast_batch", lambda self, horizon: False
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
    """Two interleaved tasks drain through the fast path *and* agree
    exactly with the event path.

    The original fast path bailed out on multi-task queues; the
    generalized drain handles any ready mix (an unconditional greedy
    list schedule once arrivals are empty), so it must engage here —
    and the result must still be bit-identical."""
    taken = []

    class Probe(ExecutionEngine):
        def _try_fast_batch(self, horizon):
            result = super()._try_fast_batch(horizon)
            taken.append(result)
            return result

    def run(engine_cls, drain):
        with forced_engine_path(drain):
            engine = engine_cls(make_cpu(quiet_config), quiet_config)
            variant = make_axpy_variant("v", trips=16)
            args = make_axpy_args(64, quiet_config)
            first = engine.submit(variant, args, WorkRange(0, 32))
            second = engine.submit(variant, args, WorkRange(32, 64))
            engine.wait_all([first, second])
            return engine, first, second, args

    fast = run(Probe, drain=True)
    assert any(taken), "split batches no longer reach the fast path"
    event = run(ExecutionEngine, drain=False)
    for fast_task, event_task in zip(fast[1:3], event[1:3]):
        assert fast_task.finished and event_task.finished
        assert fast_task.first_start == event_task.first_start
        assert fast_task.last_end == event_task.last_end
    assert fast[0].now == event[0].now
    assert fast[0].utilization() == event[0].utilization()
    assert np.allclose(fast[3]["y"].data, 2.0 * fast[3]["x"].data)
