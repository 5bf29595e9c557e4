"""Percentile math, the ten-beyond rule, and host-speed correction."""

import gc
import threading

import numpy as np
import pytest

from hostclock import (
    MIN_BEYOND,
    REF_NOMINAL_NS,
    HostClock,
    percentile,
    samples_beyond,
)


class TestPercentile:
    def test_exact_ranks(self):
        values = list(range(1, 102))  # 1..101
        assert percentile(values, 50.0) == 51
        assert percentile(values, 99.0) == 100
        assert percentile(values, 100.0) == 101

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 50.0)
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)


class TestBeyondRule:
    @pytest.mark.parametrize("count", [1, 2, 100, 901, 902, 1000, 1565, 4061])
    def test_counts_samples_strictly_above(self, count):
        values = list(np.random.default_rng(count).random(count))
        p99 = percentile(values, 99.0)
        assert samples_beyond(count, 99.0) == sum(v > p99 for v in values)

    def test_ten_beyond_p99_needs_about_nine_hundred_samples(self):
        assert samples_beyond(901, 99.0) == MIN_BEYOND - 1
        assert samples_beyond(902, 99.0) == MIN_BEYOND

    def test_no_samples(self):
        assert samples_beyond(0, 99.0) == 0


def drifting_clock(speed, times_ns, jitter=0.0, seed=0):
    """A HostClock whose reference slows by ``speed(t)`` (1.0 = nominal)."""
    rng = np.random.default_rng(seed)
    host = HostClock()
    for t in times_ns:
        noise = 1.0 + jitter * rng.standard_normal()
        host.add_sample(t, int(REF_NOMINAL_NS * speed(t) * noise))
    return host


class TestCorrection:
    def test_recovers_fixed_work_on_a_drifting_host(self):
        # The host slows from 1.0x to 1.6x and back over the run; a span
        # of fixed work W takes W * speed(t) raw.
        period = 2e9
        speed = lambda t: 1.3 - 0.3 * np.cos(2 * np.pi * t / period)  # noqa: E731
        refs = np.arange(0, 10e9, 50e6)
        host = drifting_clock(speed, refs, jitter=0.01)
        work = 2_000_000
        spans = np.arange(25e6, 9.9e9, 10e6)
        raw = [int(work * speed(t)) for t in spans]
        corrected = [
            host.correct(int(t - r / 2), r) for t, r in zip(spans, raw)
        ]
        assert max(raw) / min(raw) > 1.5
        assert np.median(corrected) == pytest.approx(work, rel=0.01)
        assert max(abs(c / work - 1.0) for c in corrected) < 0.05

    def test_one_slow_reference_does_not_move_the_correction(self):
        times = [i * 1_000_000 for i in range(20)]
        host = HostClock()
        for t in times:
            slow = 3.0 if t == 10_000_000 else 1.0
            host.add_sample(t, int(REF_NOMINAL_NS * slow))
        assert host.correct(10_000_000, 1000) == pytest.approx(1000)

    def test_samples_must_arrive_in_time_order(self):
        host = HostClock()
        host.add_sample(10, 1)
        with pytest.raises(ValueError):
            host.add_sample(5, 1)

    def test_correction_needs_samples(self):
        with pytest.raises(RuntimeError):
            HostClock().correct(0, 1)


class TestReferenceSample:
    def test_refuses_a_second_live_thread(self):
        release = threading.Event()
        worker = threading.Thread(target=release.wait, args=(10,))
        worker.start()
        try:
            with pytest.raises(RuntimeError, match="only one"):
                HostClock().sample()
        finally:
            release.set()
            worker.join(timeout=10)
        assert not worker.is_alive()

    def test_pauses_gc_during_the_reference_and_restores_it(
        self, monkeypatch
    ):
        import hostclock

        during = []
        monkeypatch.setattr(
            hostclock, "reference_kernel", lambda: during.append(gc.isenabled())
        )
        host = HostClock()
        host.sample()
        assert during == [False] and gc.isenabled()
        gc.disable()
        try:
            host.sample()
            assert not gc.isenabled()
        finally:
            gc.enable()
        assert len(host.samples) == 2
