"""Property: poll instants in closed form are the sequential fold, exactly.

The per-poll loop moves the host clock by ``fl(y + L)`` once per poll.
``repro.device.engine._PollInstants`` reads the n-th instant as
``x0 + n·L`` while ``x0``'s binade keeps that exact and folds with
``np.add.accumulate`` past it; it finds first polls by exact comparisons
instead of ``searchsorted``.  This suite compares both with the
sequential fold: instants, first-poll indices on both sides, pass
indices, and a whole asynchronous launch whose polls cross a power of
two.
"""

from __future__ import annotations

import contextlib
import math
import os

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, seed, settings, strategies as st  # noqa: E402

#: Replay locally with ``REPRO_CHAOS_SEED=<seed>`` (same convention as
#: the chaos suite; the CI flakiness job randomizes it).
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
chaos_seed = seed(CHAOS_SEED)

import tests.core.test_async_polls as async_polls  # noqa: E402
from repro.device.engine import _exact_polls, _PollInstants  # noqa: E402
from repro.obs.events import EventKind  # noqa: E402

#: Poll latencies: the CPU's and the GPU's, and two that are no multiple
#: of most ulps (a decimal fraction and a small binary one).
LATENCIES = (100.0, 5000.0, 0.1, 3 * 2.0**-20)


def fold(x0, latency, polls):
    """The per-poll clock: ``polls + 1`` values of the sequential fold."""
    values = [x0]
    for _ in range(polls):
        values.append(values[-1] + latency)
    return np.array(values)


@st.composite
def starts(draw):
    """Zero, a power of two, or a few steps just below one (up to 2**52)."""
    kind = draw(st.sampled_from(["zero", "power", "below"]))
    if kind == "zero":
        return 0.0
    power = 2.0 ** draw(st.integers(min_value=-30, max_value=52))
    if kind == "power":
        return power
    below = draw(st.sampled_from(["ulps", "polls"]))
    steps = draw(st.integers(min_value=1, max_value=3000))
    if below == "ulps":
        return float(power - steps * math.ulp(power / 2))
    latency = draw(st.sampled_from(LATENCIES))
    return max(power - steps * latency, 0.0)


def probes(values, draw):
    """Search keys around the fold: its values, their float neighbours,
    midpoints and points before the start."""
    index = draw(st.integers(min_value=0, max_value=len(values) - 1))
    value = float(values[index])
    return [
        value,
        math.nextafter(value, -math.inf),
        math.nextafter(value, math.inf),
        value - 1.0,
        (value + float(values[min(index + 1, len(values) - 1)])) / 2,
    ]


class TestClosedForm:
    @chaos_seed
    @settings(max_examples=300, deadline=None)
    @given(
        x0=starts(),
        latency=st.sampled_from(LATENCIES),
        polls=st.integers(min_value=1, max_value=3000),
        data=st.data(),
    )
    @example(x0=2.0**54 - 300.0, latency=100.0, polls=10, data=None)
    @example(x0=2.0**55 - 400.0, latency=100.0, polls=10, data=None)
    @example(x0=2.0**56 - 20_000.0, latency=5000.0, polls=10, data=None)
    def test_instants_and_first_polls_equal_the_fold(
        self, x0, latency, polls, data
    ):
        reference = fold(x0, latency, polls)
        instants = _PollInstants(x0, latency)
        assert [instants.at(n) for n in range(polls + 1)] == reference.tolist()
        assert instants.series(polls) == reference[1:].tolist()
        keys = [float(v) for v in reference[:: max(1, polls // 7)]]
        if data is not None:
            keys += probes(reference, data.draw)
        for key in keys:
            for side in ("left", "right"):
                expected = int(np.searchsorted(reference, key, side))
                if expected == len(reference):
                    continue  # past the fold computed here
                fresh = _PollInstants(x0, latency)
                assert fresh.first(key, side) == expected, (key, side)

    @chaos_seed
    @settings(max_examples=200, deadline=None)
    @given(
        x0=starts(),
        latency=st.sampled_from(LATENCIES),
        count=st.integers(min_value=1, max_value=6),
        data=st.data(),
    )
    def test_first_pass_is_the_first_poll_of_that_position(
        self, x0, latency, count, data
    ):
        """The pass of the first poll at position ``offset`` at or after
        a time, against a scan of the fold."""
        reference = fold(x0, latency, 40 * count)
        key = data.draw(st.sampled_from(probes(reference, data.draw)))
        offset = data.draw(st.integers(min_value=1, max_value=count))
        side = data.draw(st.sampled_from(["left", "right"]))
        polls = [
            n
            for n in range(1, len(reference))
            if (n - offset) % count == 0
            and (reference[n] > key or side == "left" and reference[n] == key)
        ]
        if not polls:
            return  # past the fold computed here
        expected = (polls[0] - 1) // count
        instants = _PollInstants(x0, latency)
        assert instants.first_pass(key, offset, count, side) == expected

    @pytest.mark.parametrize(
        "x0, latency, exact",
        [
            (0.0, 100.0, 0),
            (2.0**20, 0.1, 0),  # 0.1 is no multiple of ulp(2**20)
            (2.0**22 - 250.0, 100.0, 2),
            (2.0**22, 100.0, (2**22) // 100),
            (2.0**54, 100.0, (2**54) // 100),  # ulp 4: 100 = 25 ulps
            (2.0**55, 100.0, 0),  # ulp 8: 100 is 12.5 ulps
            (2.0**55, 5000.0, (2**55) // 5000),
            (2.0**56, 5000.0, 0),  # ulp 16
        ],
    )
    def test_exact_span(self, x0, latency, exact):
        assert _exact_polls(x0, latency) == exact

    def test_crossing_a_power_of_two_rounds_where_the_fold_does(self):
        """Past 2**55 a 100-cycle poll is 12.5 ulps: the fold rounds each
        step to even, and ``x0 + n·L`` would not."""
        x0 = 2.0**55 - 200.0
        reference = fold(x0, 100.0, 6)
        instants = _PollInstants(x0, 100.0)
        assert instants.exact == 2
        assert [instants.at(n) for n in range(7)] == reference.tolist()
        assert reference[4] != x0 + 4 * 100.0


@contextlib.contextmanager
def engine_started_at(start):
    """Make ``test_async_polls.run_launch`` build an engine whose host
    clock has already advanced ``start`` cycles (``host_compute``)."""
    recording = async_polls.RecordingEngine

    class LateEngine(recording):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.host_compute(start)

    async_polls.RecordingEngine = LateEngine
    try:
        yield
    finally:
        async_polls.RecordingEngine = recording


def poll_instants(snapshot):
    return [
        event[2]
        for event in snapshot["events"]
        if event[0] is EventKind.HOST_POLL
    ]


def launch_across(launch_spec, power):
    """Run ``launch_spec`` both ways with its polls straddling ``power``.

    A probe run at time zero measures when polling starts and ends; the
    launch then starts so that ``power`` falls mid-way through its polls.
    """
    launch_spec = dict(launch_spec, traced=True)
    _, probe = async_polls.run_launch(launch_spec, quiet_passes=True)
    instants = poll_instants(probe)
    if not instants:
        return None, None
    middle = (instants[0] + instants[-1]) / 2
    start = power - middle
    with engine_started_at(start):
        _, reference = async_polls.run_launch(launch_spec, quiet_passes=False)
        _, closed = async_polls.run_launch(launch_spec, quiet_passes=True)
    return reference, closed


class TestLaunchAcrossAPowerOfTwo:
    """An async launch whose polls cross a power of two equals the
    per-poll loop in every observable ``test_async_polls`` compares."""

    @pytest.mark.parametrize(
        "gpu, power",
        [
            (False, 2.0**22),  # L stays a multiple of the ulp
            (False, 2.0**55),  # ulp 4 -> 8: the fold starts rounding
            (True, 2.0**56),  # ulp 8 -> 16 under a 5,000-cycle poll
        ],
    )
    def test_slow_pool_crosses(self, gpu, power):
        reference, closed = launch_across(
            dict(async_polls.SLOW_POOL, gpu=gpu), power
        )
        polls = poll_instants(reference)
        assert polls[0] < power <= polls[-1]
        async_polls.assert_same(reference, closed)

    @chaos_seed
    @settings(max_examples=15, deadline=None)
    @given(
        launch_spec=async_polls.launches(),
        exponent=st.sampled_from([24, 40, 53, 54, 55, 56]),
    )
    def test_random_launches_cross(self, launch_spec, exponent):
        reference, closed = launch_across(launch_spec, 2.0**exponent)
        if reference is None:
            return  # nothing polled (every candidate faulted at submit)
        async_polls.assert_same(reference, closed)
