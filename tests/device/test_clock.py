"""Unit tests for the noise clock (jitter + timer quantization)."""

import numpy as np
import pytest

from repro.config import ReproConfig
from repro.device.clock import NoisyClock


class TestJitter:
    def test_zero_jitter_is_identity(self):
        clock = NoisyClock(ReproConfig().without_noise(), "dev")
        durations = np.array([10.0, 20.0, 30.0])
        assert (clock.jitter_durations(durations) == durations).all()

    def test_jitter_perturbs_multiplicatively(self):
        clock = NoisyClock(ReproConfig().with_noise(execution_jitter=0.1), "dev")
        durations = np.full(1000, 100.0)
        jittered = clock.jitter_durations(durations)
        assert not np.allclose(jittered, durations)
        # Lognormal with sigma=0.1: values stay within a few sigma.
        assert jittered.min() > 50.0
        assert jittered.max() < 200.0
        # Median multiplier is ~1.
        assert abs(np.median(jittered) - 100.0) < 5.0

    def test_deterministic_per_seed(self):
        config = ReproConfig()
        a = NoisyClock(config, "dev").jitter_durations(np.full(10, 5.0))
        b = NoisyClock(config, "dev").jitter_durations(np.full(10, 5.0))
        assert (a == b).all()

    def test_independent_streams_per_device(self):
        config = ReproConfig()
        a = NoisyClock(config, "dev-a").jitter_durations(np.full(10, 5.0))
        b = NoisyClock(config, "dev-b").jitter_durations(np.full(10, 5.0))
        assert not (a == b).all()

    def test_empty_input(self):
        clock = NoisyClock(ReproConfig(), "dev")
        assert clock.jitter_durations(np.zeros(0)).size == 0


class TestTimer:
    def test_quantization_error_bounded(self):
        config = ReproConfig().with_noise(timer_quantum=100.0, execution_jitter=0.0)
        clock = NoisyClock(config, "dev")
        for true in (5.0, 73.0, 250.0, 10000.0):
            interval = clock.read_interval(true)
            assert abs(interval.measured_cycles - true) <= 100.0
            assert interval.measured_cycles % 100.0 == 0.0

    def test_fine_timer_is_accurate(self):
        config = ReproConfig().without_noise()
        clock = NoisyClock(config, "dev")
        interval = clock.read_interval(1234.5)
        assert interval.measured_cycles == pytest.approx(1234.5, abs=1e-6)

    def test_negative_interval_rejected(self):
        clock = NoisyClock(ReproConfig(), "dev")
        with pytest.raises(ValueError):
            clock.read_interval(-1.0)

    def test_tiny_intervals_lose_resolution(self):
        """The §3.3 motivation: coarse timers cannot rank tiny intervals."""
        config = ReproConfig().with_noise(timer_quantum=1000.0)
        clock = NoisyClock(config, "dev")
        readings = {clock.read_interval(10.0).measured_cycles for _ in range(50)}
        # With a 1000-cycle quantum a 10-cycle interval reads 0 or 1000.
        assert readings <= {0.0, 1000.0}
