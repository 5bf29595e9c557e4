"""Property: quiet poll passes in closed form are the per-poll loop, exactly.

``run_async`` polls every pending candidate once per pass until the
slowest one finishes.  ``ExecutionEngine.poll_quiet_passes`` covers every
leading *quiet* pass (nothing observed, nothing submitted) in one step.
This suite runs the same seeded asynchronous launch twice — by default,
and with the closed form forced to cover nothing
(``forced_engine_path(drain=True, quiet_passes=False)``), so every poll
is taken one at a time — and compares every observable with ``==``:
the selection and its measurements, the host clock, the unit heap, every
task's interval and measurement, eager and fault accounting, the clock's
RNG state, the trace and the outputs.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, seed, settings, strategies as st  # noqa: E402

#: Replay locally with ``REPRO_CHAOS_SEED=<seed>`` (same convention as
#: the chaos suite; the CI flakiness job randomizes it).
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
chaos_seed = seed(CHAOS_SEED)

from repro.compiler.analyses.safe_point import safe_point_plan  # noqa: E402
from repro.compiler.variants import VariantPool  # noqa: E402
from repro.config import FaultPolicy, ReproConfig  # noqa: E402
from repro.core.orchestrator import run_async  # noqa: E402
from repro.core.productive import plan_profiling  # noqa: E402
from repro.device import make_cpu, make_gpu  # noqa: E402
from repro.device.engine import ExecutionEngine, Priority  # noqa: E402
from repro.errors import ProfilingFaultError  # noqa: E402
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultRule  # noqa: E402
from repro.kernel import AccessPattern, KernelSpec, WorkRange  # noqa: E402
from repro.kernel.launch import LaunchConfig  # noqa: E402
from repro.modes import ProfilingMode  # noqa: E402
from tests.conftest import (  # noqa: E402
    axpy_signature,
    forced_engine_path,
    make_axpy_args,
    make_axpy_variant,
)

#: Per-variant slowdowns (compute per trip) the pools draw from: wide
#: enough that the slowest candidate outlasts the fastest by hundreds of
#: polls on the CPU.
SLOWDOWNS = (1, 2, 4, 16, 64, 256)

#: Fault kinds a hardened run may inject (``None``: plain run).
FAULT_KINDS = (
    None,
    FaultKind.HANG,
    FaultKind.LATENCY,
    FaultKind.CRASH,
    FaultKind.TRANSIENT,
)


class RecordingEngine(ExecutionEngine):
    """Engine that keeps every task it accepts, for the comparison."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.tasks = []

    def submit(self, *args, **kwargs):
        task = super().submit(*args, **kwargs)
        self.tasks.append(task)
        return task


def build_pool(slowdowns, strided):
    """Variants ``v0..vn`` whose speeds spread by ``slowdowns``."""
    return VariantPool(
        spec=KernelSpec(signature=axpy_signature()),
        variants=tuple(
            make_axpy_variant(
                f"v{i}",
                AccessPattern.STRIDED if slow else AccessPattern.UNIT_STRIDE,
                flops_per_trip=32.0 * factor,
            )
            for i, (factor, slow) in enumerate(zip(slowdowns, strided))
        ),
    )


def run_launch(launch_spec, quiet_passes, polls=None):
    """One seeded asynchronous launch; every observable, comparable."""
    with forced_engine_path(True, quiet_passes):
        config = dataclasses.replace(
            ReproConfig(seed=launch_spec["seed"]),
            eager_chunk_units=launch_spec["chunk"],
            trace=launch_spec["traced"],
            faults=FaultPolicy(hang_deadline_cycles=launch_spec["deadline"]),
        )
        if not launch_spec["noisy"]:
            config = config.without_noise()
        make = make_gpu if launch_spec["gpu"] else make_cpu
        device = make(config)
        engine = RecordingEngine(device, config)
        if launch_spec["fault"] is not None:
            kind, target, after, count = launch_spec["fault"]
            engine.injector = FaultInjector(
                FaultPlan(
                    [
                        FaultRule(
                            kind=kind,
                            variant=target,
                            after=after,
                            count=count,
                            magnitude=8.0,
                        )
                    ],
                    seed=launch_spec["seed"],
                )
            )
        pool = build_pool(launch_spec["slowdowns"], launch_spec["strided"])
        units = launch_spec["units"]
        args = make_axpy_args(units, config)
        launch = LaunchConfig.create(axpy_signature(), args, units)
        safe = safe_point_plan(
            pool.variants, device.spec.compute_units, units
        )
        plan = plan_profiling(pool, ProfilingMode.FULLY, launch, safe)
        if polls is not None:
            poll = engine.poll

            def counting_poll(task):
                polls.append(task)
                return poll(task)

            engine.poll = counting_poll
        try:
            outcome = run_async(engine, pool, plan, launch, config)
            result = (
                outcome.record,
                outcome.start_cycles,
                outcome.profiling_done_cycles,
                outcome.end_cycles,
                outcome.eager_chunks,
                outcome.eager_units,
                outcome.faults,
                outcome.repaired_units,
            )
        except ProfilingFaultError as exc:
            outcome = None
            result = ("aborted", str(exc), exc.faults)
        return outcome, {
            "result": result,
            "now": engine.now,
            "unit_heap": list(engine._unit_heap),
            "busy": engine._busy_cycles,
            "tasks": [
                (
                    task.task_id,
                    task.variant.name,
                    task.units,
                    task.first_start,
                    task.last_end,
                    task.completed_work_groups,
                    task.measured,
                    task.hung,
                    task.cancelled,
                )
                for task in engine.tasks
            ],
            "rng": engine.clock._rng.bit_generator.state,
            "events": [
                (
                    event.kind,
                    event.name,
                    event.start_cycles,
                    event.end_cycles,
                    tuple(sorted((event.args or {}).items())),
                )
                for event in engine.tracer.events
            ]
            if launch_spec["traced"]
            else None,
            "y": np.array(args["y"].data, copy=True),
        }


def assert_same(reference, closed):
    """Exact equality of two launch snapshots (``y`` bitwise)."""
    for key in reference:
        if key == "y":
            assert np.array_equal(reference[key], closed[key]), key
        else:
            assert reference[key] == closed[key], key


@st.composite
def launches(draw):
    """A seeded asynchronous launch: pool, device, noise, faults, trace."""
    size = draw(st.integers(min_value=2, max_value=8))
    slowdowns = draw(
        st.lists(st.sampled_from(SLOWDOWNS), min_size=size, max_size=size)
    )
    kind = draw(st.sampled_from(FAULT_KINDS))
    fault = None
    if kind is not None:
        target = draw(
            st.one_of(st.none(), st.sampled_from([f"v{i}" for i in range(size)]))
        )
        fault = (
            kind,
            target,
            draw(st.integers(min_value=0, max_value=3)),
            draw(st.integers(min_value=1, max_value=2)),
        )
    return {
        "slowdowns": slowdowns,
        "strided": draw(
            st.lists(st.booleans(), min_size=size, max_size=size)
        ),
        "units": draw(st.sampled_from([256, 1024, 2048])),
        "chunk": draw(st.integers(min_value=1, max_value=4)),
        "gpu": draw(st.booleans()),
        "noisy": draw(st.booleans()),
        "traced": draw(st.booleans()),
        "fault": fault,
        "deadline": draw(st.sampled_from([200_000.0, 2_000_000.0])),
        "seed": draw(st.integers(min_value=0, max_value=2**20)),
    }


@chaos_seed
@settings(max_examples=40, deadline=None)
@given(launch_spec=launches())
def test_closed_form_polls_match_the_per_poll_loop(launch_spec):
    """Plain and hardened, traced and not: bit-identical to polling."""
    _, reference = run_launch(launch_spec, quiet_passes=False)
    _, closed = run_launch(launch_spec, quiet_passes=True)
    assert_same(reference, closed)


@st.composite
def engine_cases(draw):
    """Profiling tasks polled in order, watched eager tasks, a latency."""
    task = st.tuples(
        st.sampled_from(SLOWDOWNS), st.integers(min_value=1, max_value=8)
    )
    return {
        "profiles": draw(st.lists(task, min_size=1, max_size=5)),
        "eager": draw(st.lists(task, max_size=2)),
        "latency": draw(st.sampled_from([100.0, 7.3, 5000.0])),
        "gpu": draw(st.booleans()),
        "noisy": draw(st.booleans()),
        "deadline": draw(st.sampled_from([None, 20_000.0, 300_000.0])),
        "seed": draw(st.integers(min_value=0, max_value=2**20)),
    }


def build_engine(case):
    """A fresh engine with the case's tasks submitted, nothing polled."""
    config = ReproConfig(seed=case["seed"])
    if not case["noisy"]:
        config = config.without_noise()
    base = (make_gpu if case["gpu"] else make_cpu)(config)
    spec = dataclasses.replace(base.spec, host_query_latency=case["latency"])
    engine = ExecutionEngine(type(base)(spec, base.memory, config), config)

    def submit(name, factor, units, priority):
        return engine.submit(
            make_axpy_variant(name, flops_per_trip=32.0 * factor),
            make_axpy_args(units, config),
            WorkRange(0, units),
            priority=priority,
            measure=priority is Priority.PROFILING,
        )

    pending = [
        submit(f"p{i}", *task, Priority.PROFILING)
        for i, task in enumerate(case["profiles"])
    ]
    eager = [
        submit(f"e{i}", *task, Priority.EAGER)
        for i, task in enumerate(case["eager"])
    ]
    deadline = float("inf")
    if case["deadline"] is not None:
        deadline = engine.now + case["deadline"]
    return engine, pending, eager, deadline


def engine_state(engine, tasks):
    """Clock, dispatcher and every task, comparable with ``==``."""
    return (
        engine.now,
        list(engine._unit_heap),
        engine._busy_cycles,
        [
            (t.first_start, t.last_end, t.completed_work_groups, t.measured)
            for t in tasks
        ],
        engine.clock._rng.bit_generator.state,
    )


@chaos_seed
@settings(max_examples=60, deadline=None)
@given(case=engine_cases())
# An eager chunk that ends inside a pass's last poll interval: it is seen
# at that pass's end, not at the pass's other polls.
@example(
    case={
        "profiles": [(256, 1), (256, 1)],
        "eager": [(2, 1)],
        "latency": 100.0,
        "gpu": False,
        "noisy": False,
        "deadline": None,
        "seed": 1,
    }
)
def test_closed_form_lands_where_polling_does(case):
    """The covered passes are quiet when polled one by one, the next one
    is not, and once that pass is polled (or found past the deadline)
    clock, dispatcher, tasks and RNG equal the per-poll reference: the
    dispatcher never ran past the first non-quiet pass."""
    closed, pending, eager, deadline = build_engine(case)
    covered = closed.poll_quiet_passes(pending, eager, deadline)
    polled, ref_pending, ref_eager, _ = build_engine(case)
    for _ in range(covered):
        assert polled.now <= deadline
        assert not any([polled.poll(task) for task in ref_pending])
        assert not any(
            t.finished and t.last_end <= polled.now for t in ref_eager
        )
    assert closed.now == polled.now
    if polled.now <= deadline:
        done = [closed.poll(task) for task in pending]
        assert done == [polled.poll(task) for task in ref_pending]
        assert any(done) or any(
            t.finished and t.last_end <= polled.now for t in ref_eager
        )
    assert engine_state(closed, pending + eager) == engine_state(
        polled, ref_pending + ref_eager
    )


SLOW_POOL = {
    "slowdowns": [1, 256, 64, 16],
    "strided": [False, True, False, True],
    "units": 2048,
    "chunk": 1,
    "gpu": False,
    "noisy": True,
    "traced": False,
    "fault": None,
    "deadline": 400_000.0,
    "seed": 5,
}


class TestPollCount:
    def test_polls_scale_with_state_changes_not_time(self):
        """A CPU async launch of a slow-candidate pool polls once per
        candidate per state change: at most (observed finishes + eager
        submissions + 1) x K polls, where the per-poll loop pays one pass
        per ``host_query_latency`` until the slowest candidate ends."""
        polls = []
        outcome, _ = run_launch(SLOW_POOL, quiet_passes=True, polls=polls)
        candidates = len(SLOW_POOL["slowdowns"])
        finishes = len(outcome.record.measurements)
        bound = (finishes + outcome.eager_chunks + 1) * candidates
        assert finishes == candidates
        assert 0 < len(polls) <= bound

        reference = []
        run_launch(SLOW_POOL, quiet_passes=False, polls=reference)
        assert len(reference) > 10 * bound

    def test_a_hang_costs_one_step_not_deadline_over_latency_polls(self):
        """The hardened deadline is one more observation instant: a hung
        candidate no longer costs ``hang_deadline_cycles / L`` polls."""
        launch_spec = dict(
            SLOW_POOL, fault=(FaultKind.HANG, "v2", 0, 1), deadline=5_000_000.0
        )
        polls = []
        outcome, closed = run_launch(launch_spec, True, polls=polls)
        assert any(fault.kind == "hang" for fault in outcome.faults)
        candidates = len(SLOW_POOL["slowdowns"])
        assert len(polls) <= (candidates + outcome.eager_chunks + 1) * candidates
        _, reference = run_launch(launch_spec, quiet_passes=False)
        assert_same(reference, closed)


def _eager_setup(quiet_config):
    """A long profiling task and a one-unit eager chunk on one engine;
    the chunk runs beside the profile on a free unit."""
    engine = ExecutionEngine(make_cpu(quiet_config), quiet_config)
    slow = engine.submit(
        make_axpy_variant("slow", flops_per_trip=32.0 * 256),
        make_axpy_args(2, quiet_config),
        WorkRange(0, 2),
        priority=Priority.PROFILING,
        measure=True,
    )
    chunk = engine.submit(
        make_axpy_variant("fast"),
        make_axpy_args(1, quiet_config),
        WorkRange(0, 1),
        priority=Priority.EAGER,
    )
    return engine, slow, chunk


class TestEagerFlipOnEntry:
    """A watched eager chunk can be over before the call starts: an eager
    submit's host share (a quarter of the launch overhead) moves ``now``
    after the loop filtered its outstanding chunks.  The first pass then
    ends with that chunk observed, so it is not quiet."""

    def test_finished_chunk_makes_the_first_pass_non_quiet(
        self, quiet_config
    ):
        engine, slow, chunk = _eager_setup(quiet_config)
        while not (chunk.finished and chunk.last_end <= engine.now):
            engine.host_compute(100.0)
        assert slow.last_end > engine.now
        before = engine.now
        assert engine.poll_quiet_passes([slow], [chunk]) == 0
        assert engine.now == before

    def test_undispatched_chunk_already_over_is_found(self, quiet_config):
        """Over by the host clock but not yet dispatched: the call runs
        the dispatcher to it and still covers nothing."""
        engine, slow, chunk = _eager_setup(quiet_config)
        # Submissions advance the host clock without dispatching.
        for _ in range(8):
            engine.submit(
                make_axpy_variant("batch"),
                make_axpy_args(1, quiet_config),
                WorkRange(0, 1),
            )
        assert not chunk.finished
        before = engine.now
        assert engine.poll_quiet_passes([slow], [chunk]) == 0
        assert engine.now == before
        assert chunk.finished and chunk.last_end <= before

    def test_unwatched_chunk_does_not_stop_the_step(self, quiet_config):
        """With no eager chunk watched, polling runs until ``slow`` can be
        observed: the next pass sees it finished."""
        engine, slow, _ = _eager_setup(quiet_config)
        covered = engine.poll_quiet_passes([slow])
        assert covered > 0 and not slow.last_end <= engine.now
        assert engine.poll(slow)

    @pytest.mark.parametrize("traced", [False, True])
    def test_launch_with_a_chunk_over_on_entry_matches(self, traced):
        """An async launch that meets this case (a latency fault slows the
        first submission), end to end against the per-poll loop."""
        launch_spec = dict(
            SLOW_POOL,
            slowdowns=[256, 1],
            strided=[False, True],
            units=1024,
            chunk=4,
            noisy=False,
            traced=traced,
            fault=(FaultKind.LATENCY, None, 0, 2),
            seed=357329,
        )
        entries = []
        quiet = ExecutionEngine.poll_quiet_passes

        def spy(self, pending, eager=(), deadline=float("inf")):
            entries.append((list(eager), self.now))
            return quiet(self, pending, eager, deadline)

        ExecutionEngine.poll_quiet_passes = spy
        try:
            _, closed = run_launch(launch_spec, quiet_passes=True)
        finally:
            ExecutionEngine.poll_quiet_passes = quiet
        assert any(
            task.last_end <= at for eager, at in entries for task in eager
        ), "no eager chunk was over on entry: the case is not exercised"
        _, reference = run_launch(launch_spec, quiet_passes=False)
        assert_same(reference, closed)
