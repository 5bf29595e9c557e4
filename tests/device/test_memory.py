"""Unit tests for the cache-hierarchy memory model machinery."""

import numpy as np
import pytest

from repro.errors import DeviceError
from repro.device.memory import AccessCost, CacheLevel, MemoryModel


def scalar(x) -> float:
    return float(np.asarray(x).reshape(-1)[0])


def model():
    levels = (
        CacheLevel("L1", 1024, 64, 4.0, 32.0),
        CacheLevel("L2", 64 * 1024, 64, 12.0, 16.0),
    )
    dram = CacheLevel("DRAM", float("inf"), 64, 200.0, 4.0)
    return MemoryModel(levels, dram)


class TestConstruction:
    def test_levels_must_be_sorted(self):
        levels = (
            CacheLevel("L2", 64 * 1024, 64, 12.0, 16.0),
            CacheLevel("L1", 1024, 64, 4.0, 32.0),
        )
        with pytest.raises(DeviceError, match="ordered"):
            MemoryModel(levels, CacheLevel("DRAM", float("inf"), 64, 200.0, 4.0))

    def test_bandwidth_must_not_rise_going_outward(self):
        # The static cost bound reads its best stream bandwidth from the
        # first level and its worst from DRAM; a faster outer level
        # would make both wrong.
        levels = (
            CacheLevel("L1", 1024, 64, 4.0, 32.0),
            CacheLevel("L2", 64 * 1024, 64, 12.0, 48.0),
        )
        with pytest.raises(DeviceError, match="bandwidth must not rise"):
            MemoryModel(levels, CacheLevel("DRAM", float("inf"), 64, 200.0, 4.0))
        with pytest.raises(DeviceError, match="bandwidth must not rise"):
            MemoryModel(
                levels[:1], CacheLevel("DRAM", float("inf"), 64, 200.0, 64.0)
            )

    def test_equal_bandwidths_are_accepted(self):
        levels = (
            CacheLevel("L1", 1024, 64, 4.0, 16.0),
            CacheLevel("L2", 64 * 1024, 64, 12.0, 16.0),
        )
        MemoryModel(levels, CacheLevel("DRAM", float("inf"), 64, 200.0, 16.0))

    def test_needs_a_level(self):
        with pytest.raises(DeviceError):
            MemoryModel((), CacheLevel("DRAM", float("inf"), 64, 200.0, 4.0))

    def test_invalid_level(self):
        with pytest.raises(DeviceError):
            CacheLevel("bad", 0, 64, 1.0, 1.0)
        with pytest.raises(DeviceError):
            CacheLevel("bad", 64, 64, -1.0, 1.0)


class TestBandwidth:
    def test_level_selection(self):
        m = model()
        bw = m.stream_bandwidth(np.array([512.0, 32768.0, 1e9]))
        assert list(bw) == [32.0, 16.0, 4.0]

    def test_scalar_input(self):
        assert float(model().stream_bandwidth(100.0)) == 32.0


class TestStrideAmplification:
    def test_unit_stride_no_amp(self):
        assert model().stride_amplification(4) == 1.0

    def test_amp_caps_at_line(self):
        m = model()
        assert m.stride_amplification(32) == 8.0
        assert m.stride_amplification(64) == 16.0
        assert m.stride_amplification(4096) == 16.0

    def test_invalid_stride(self):
        with pytest.raises(DeviceError):
            model().stride_amplification(0)


class TestGatherLatency:
    def test_monotone_in_working_set(self):
        m = model()
        ws = np.array([256.0, 2048.0, 1e5, 1e9])
        latency = m.gather_latency(ws)
        assert (np.diff(latency) >= 0).all()

    def test_tiny_set_is_l1_latency(self):
        m = model()
        assert scalar(m.gather_latency(100.0)) == pytest.approx(4.0)

    def test_huge_set_approaches_dram(self):
        m = model()
        assert scalar(m.gather_latency(1e12)) == pytest.approx(200.0, rel=0.01)


class TestGatherLatencyMixed:
    def test_fresh_when_traffic_matches_footprint(self):
        m = model()
        mixed = m.gather_latency_mixed(
            np.array([4096.0]), np.array([4096.0]), buffer_bytes=1e9
        )
        # Fresh: half the DRAM-ish source latency at least.
        assert scalar(mixed) >= 0.5 * scalar(m.gather_latency(1e9)) - 1e-9

    def test_resident_when_shared_structure(self):
        m = model()
        mixed = m.gather_latency_mixed(
            np.array([64.0]), np.array([32768.0]), buffer_bytes=32768.0
        )
        resident = scalar(m.gather_latency(32768.0))
        assert scalar(mixed) == pytest.approx(resident, rel=0.2)

    def test_resident_when_retouching(self):
        m = model()
        mixed = m.gather_latency_mixed(
            np.array([1e6]), np.array([512.0]), buffer_bytes=1e9
        )
        assert scalar(mixed) == pytest.approx(scalar(m.gather_latency(512.0)), rel=0.2)


class TestStreamCycles:
    def test_fresh_only(self):
        m = model()
        cycles = m.stream_cycles(
            np.array([1000.0]), np.array([1000.0]), buffer_bytes=1e9
        )
        assert scalar(cycles) == pytest.approx(1000.0 / 4.0)

    def test_reuse_served_from_cache(self):
        m = model()
        cycles = m.stream_cycles(
            np.array([10000.0]), np.array([100.0]), buffer_bytes=1e9
        )
        expected = 100.0 / 4.0 + 9900.0 / 32.0
        assert scalar(cycles) == pytest.approx(expected)

    def test_amplification_scales_traffic(self):
        m = model()
        base = m.stream_cycles(np.array([1000.0]), np.array([1000.0]), 1e9)
        amped = m.stream_cycles(
            np.array([1000.0]), np.array([1000.0]), 1e9, amplification=4.0
        )
        assert scalar(amped) == pytest.approx(4.0 * scalar(base))


class TestAccessCost:
    def test_zero(self):
        cost = AccessCost.zero(3)
        assert cost.bandwidth_cycles.shape == (3,)
        assert (cost.latency_cycles == 0).all()

    def test_addition(self):
        a = AccessCost(np.ones(2), np.full(2, 2.0))
        b = AccessCost(np.full(2, 3.0), np.ones(2))
        c = a + b
        assert list(c.bandwidth_cycles) == [4.0, 4.0]
        assert list(c.latency_cycles) == [3.0, 3.0]
