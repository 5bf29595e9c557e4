"""Unit tests for the CPU and GPU device models' architecture rules."""

import numpy as np
import pytest

from repro.errors import DeviceError
from repro.device.base import DeviceSpec
from repro.kernel import AccessPattern, KernelIR, Loop, LoopBound, MemoryAccess
from repro.kernel.buffers import MemorySpace


def scalar(x) -> float:
    return float(np.asarray(x).reshape(-1)[0])


class TestSpecs:
    def test_cpu_defaults(self, cpu):
        assert cpu.kind == "cpu"
        assert cpu.spec.compute_units == 4
        assert cpu.spec.max_vector_width == 8

    def test_gpu_defaults(self, gpu):
        assert gpu.kind == "gpu"
        assert gpu.spec.compute_units == 13
        assert gpu.spec.host_query_latency > cpu_query_latency(gpu)

    def test_spec_validation(self):
        with pytest.raises(DeviceError):
            DeviceSpec(
                name="bad",
                compute_units=0,
                clock_ghz=1.0,
                flops_per_cycle=1.0,
                max_vector_width=1,
                workgroup_dispatch_overhead=0.0,
                kernel_launch_overhead=0.0,
                host_query_latency=0.0,
                loop_overhead_cycles=0.0,
            )

    def test_cycles_to_seconds(self, cpu):
        assert cpu.spec.cycles_to_seconds(3.6e9) == pytest.approx(1.0)


def cpu_query_latency(gpu) -> float:
    from repro.device.cpu import make_cpu as mk

    return mk(gpu.config).spec.host_query_latency


def flat_ir(**overrides):
    defaults = dict(
        loops=(Loop("k", LoopBound(static_trips=10)),),
        accesses=(),
        flops_per_trip=100.0,
    )
    defaults.update(overrides)
    return KernelIR(**defaults)


class TestCpuComputeRules:
    def test_vector_scaling(self, cpu):
        flops = np.array([8000.0])
        scalar_cycles = cpu.compute_cycles(flat_ir(), flops, 64)
        wide = cpu.compute_cycles(flat_ir(vector_width=8), flops, 64)
        assert scalar(scalar_cycles) / scalar(wide) == pytest.approx(8.0)

    def test_divergence_mask_overhead_grows_with_width(self, cpu):
        flops = np.array([8000.0])
        w4 = cpu.compute_cycles(flat_ir(vector_width=4, divergence=0.5), flops, 64)
        w8 = cpu.compute_cycles(flat_ir(vector_width=8, divergence=0.5), flops, 64)
        # 8-way is still faster, but by less than 2x (mask overhead).
        assert scalar(w4) / scalar(w8) < 2.0

    def test_scratchpad_costs_on_cpu(self, cpu):
        assert cpu.scratchpad_cycles_per_group(flat_ir()) == 0.0
        cost = cpu.scratchpad_cycles_per_group(
            flat_ir(scratchpad_bytes=1024, uses_barrier=True)
        )
        assert cost > 0.0


class TestGpuComputeRules:
    def test_narrow_workgroup_underutilizes(self, gpu):
        flops = np.array([8000.0])
        wide = gpu.compute_cycles(flat_ir(), flops, 128)
        narrow = gpu.compute_cycles(flat_ir(), flops, 8)
        assert scalar(narrow) > scalar(wide)

    def test_divergence_penalty(self, gpu):
        flops = np.array([8000.0])
        clean = gpu.compute_cycles(flat_ir(), flops, 128)
        divergent = gpu.compute_cycles(flat_ir(divergence=1.0), flops, 128)
        assert scalar(divergent) == pytest.approx(2.0 * scalar(clean))

    def test_scratchpad_cheap_on_gpu(self, cpu, gpu):
        ir = flat_ir(scratchpad_bytes=4096, uses_barrier=True)
        assert gpu.scratchpad_cycles_per_group(ir) < cpu.scratchpad_cycles_per_group(ir)


def access(pattern, stride=0, **kw):
    return MemoryAccess("x", False, pattern, 4.0, loop="k", stride_bytes=stride, **kw)


class TestGpuMemoryRules:
    def _cost(self, gpu, pattern, space=MemorySpace.GLOBAL, ir=None, stride=0):
        ir = ir or flat_ir()
        a = access(pattern, stride)
        useful = np.array([4096.0])
        ws = np.array([4096.0])
        return gpu.memory.access_cost(a, useful, ws, 1e9, ir, space)

    def test_coalesced_beats_uncoalesced(self, gpu):
        coalesced = self._cost(gpu, AccessPattern.COALESCED)
        uncoalesced = self._cost(gpu, AccessPattern.UNIT_STRIDE)
        assert scalar(uncoalesced.bandwidth_cycles) > scalar(
            coalesced.bandwidth_cycles
        )

    def test_texture_gather_beats_global(self, gpu):
        glob = self._cost(gpu, AccessPattern.GATHER)
        tex = self._cost(gpu, AccessPattern.GATHER, MemorySpace.TEXTURE)
        assert scalar(tex.latency_cycles) < scalar(glob.latency_cycles)

    def test_constant_gather_worst(self, gpu):
        glob = self._cost(gpu, AccessPattern.GATHER)
        const = self._cost(gpu, AccessPattern.GATHER, MemorySpace.CONSTANT)
        assert scalar(const.latency_cycles) > scalar(glob.latency_cycles)

    def test_texture_streams_pay_bandwidth(self, gpu):
        glob = self._cost(gpu, AccessPattern.COALESCED)
        tex = self._cost(gpu, AccessPattern.COALESCED, MemorySpace.TEXTURE)
        assert scalar(tex.bandwidth_cycles) > scalar(glob.bandwidth_cycles)

    def test_constant_broadcast_near_free(self, gpu):
        glob = self._cost(gpu, AccessPattern.BROADCAST)
        const = self._cost(gpu, AccessPattern.BROADCAST, MemorySpace.CONSTANT)
        assert scalar(const.bandwidth_cycles) < scalar(glob.bandwidth_cycles)

    def test_prefetch_helps_global_not_texture(self, gpu):
        pref = flat_ir(prefetch=True)
        glob_plain = self._cost(gpu, AccessPattern.GATHER)
        glob_pref = self._cost(gpu, AccessPattern.GATHER, ir=pref)
        tex_plain = self._cost(gpu, AccessPattern.GATHER, MemorySpace.TEXTURE)
        tex_pref = self._cost(gpu, AccessPattern.GATHER, MemorySpace.TEXTURE, ir=pref)
        glob_gain = scalar(glob_plain.latency_cycles) / scalar(glob_pref.latency_cycles)
        tex_gain = scalar(tex_plain.latency_cycles) / scalar(tex_pref.latency_cycles)
        assert glob_gain > tex_gain

    def test_dynamic_stride_coalesces_short_rows(self, gpu):
        a = access(AccessPattern.UNIT_STRIDE)
        useful = np.array([4096.0])
        ws = np.array([4096.0])
        short = gpu.memory.access_cost(
            a, useful, ws, 1e9, flat_ir(), MemorySpace.GLOBAL,
            dynamic_stride=np.array([4.0]),
        )
        long = gpu.memory.access_cost(
            a, useful, ws, 1e9, flat_ir(), MemorySpace.GLOBAL,
            dynamic_stride=np.array([4096.0]),
        )
        assert scalar(short.bandwidth_cycles) < scalar(long.bandwidth_cycles)


class TestCpuMemoryRules:
    def _cost(self, cpu, pattern, ir=None, stride=0):
        ir = ir or flat_ir()
        a = access(pattern, stride)
        useful = np.array([4096.0])
        ws = np.array([4096.0])
        return cpu.memory.access_cost(
            a, useful, ws, 1e9, ir, MemorySpace.GLOBAL
        )

    def test_unit_stride_cheapest_stream(self, cpu):
        unit = self._cost(cpu, AccessPattern.UNIT_STRIDE)
        strided = self._cost(cpu, AccessPattern.STRIDED, stride=64)
        assert scalar(strided.bandwidth_cycles) > scalar(unit.bandwidth_cycles)

    def test_line_sized_stride_exposes_latency(self, cpu):
        strided = self._cost(cpu, AccessPattern.STRIDED, stride=256)
        assert scalar(strided.latency_cycles) > 0

    def test_small_stride_no_latency(self, cpu):
        strided = self._cost(cpu, AccessPattern.STRIDED, stride=8)
        assert scalar(strided.latency_cycles) == 0.0

    def test_vector_pack_penalty_on_gathers(self, cpu):
        plain = self._cost(cpu, AccessPattern.GATHER)
        packed = self._cost(
            cpu, AccessPattern.GATHER, ir=flat_ir(vector_width=8, divergence=0.3)
        )
        assert scalar(packed.latency_cycles) > scalar(plain.latency_cycles)

    def test_broadcast_near_free(self, cpu):
        broadcast = self._cost(cpu, AccessPattern.BROADCAST)
        unit = self._cost(cpu, AccessPattern.UNIT_STRIDE)
        assert scalar(broadcast.bandwidth_cycles) < scalar(unit.bandwidth_cycles)
