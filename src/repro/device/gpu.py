"""Simulated GPU (modeled after the paper's NVIDIA K20c, Kepler).

Architecture rules encoded here, with their paper correlates:

* **Warp coalescing** — a warp touching adjacent elements issues one
  transaction; per-thread-sequential or strided patterns amplify traffic
  (Fig 11b: scalar spmv-csr is 4.73× slower on the random matrix because
  adjacent threads walk different rows).
* **Lane utilization** — work assigned per warp that is narrower than the
  warp wastes lanes (Fig 11b: vector spmv-csr is 22.73× slower on the
  diagonal matrix, one useful lane out of 32).
* **Texture / constant paths** — read-only placements change the served
  cache path, the axis PORPLE and Jang et al. optimize (Fig 9).
* **Scratchpad** — real on-chip storage: staging costs little and the
  tiling transform's reduced global traffic is visible in the IR.
* **Launch and query overheads** — kernel launches cost microseconds and
  host stream queries are slower than micro-profiling itself, which is why
  async DySel degenerates to sync on GPUs (§5.1) and why tiny iterative
  spmv launches expose profiling overhead (§5.2).
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from ..config import DEFAULT_CONFIG, ReproConfig
from ..kernel.buffers import MemorySpace
from ..kernel.ir import AccessPattern, KernelIR, MemoryAccess
from .base import Device, DeviceSpec
from .memory import ELEM_BYTES, AccessCost, CacheLevel, MemoryModel


@dataclass(frozen=True)
class GpuSpec(DeviceSpec):
    """GPU-specific tuning knobs on top of the common spec.

    ``warp_size`` is the SIMT width; ``uncoalesced_amplification`` is the
    traffic blow-up of per-thread-sequential walks; ``latency_hiding``
    is the effective number of in-flight warps hiding gather latency;
    ``texture_latency_hiding`` the (better) figure on the texture path.
    """

    warp_size: int = 32
    uncoalesced_amplification: float = 24.0
    latency_hiding: float = 20.0
    texture_latency_hiding: float = 48.0
    #: Streaming bandwidth of the texture path relative to the global path
    #: (< 1: texture is a latency cache, not a streaming pipe).
    texture_stream_scale: float = 0.7


class GpuMemoryModel(MemoryModel):
    """Warp-level memory cost rules for the GPU."""

    def __init__(self, spec: GpuSpec, levels, dram) -> None:
        super().__init__(levels, dram)
        self._spec = spec

    def stream_cycles(
        self,
        useful_bytes,
        working_set,
        buffer_bytes: float,
        amplification: float = 1.0,
        space: MemorySpace = MemorySpace.GLOBAL,
    ):
        """Reuse-aware streaming with Kepler's L1 policy.

        Global loads bypass the L1 on Kepler — re-touches of a cached
        working set are served from L2 at best.  Texture-path streams do
        enjoy the read-only L1 cache.  (This asymmetry is why scratchpad
        tiling pays off on the GPU: explicit staging recovers the on-chip
        reuse the L1 will not provide.)
        """
        if space is MemorySpace.TEXTURE:
            return super().stream_cycles(
                useful_bytes, working_set, buffer_bytes, amplification
            )
        useful = np.asarray(useful_bytes, dtype=float) * amplification
        footprint = np.asarray(working_set, dtype=float) * amplification
        fresh = np.minimum(useful, footprint)
        reused = useful - fresh
        source_bw = self.stream_bandwidth(min(buffer_bytes * amplification, 1e18))
        l2 = self.levels[-1]
        cache_bw = np.where(
            footprint <= l2.size_bytes,
            l2.bytes_per_cycle,
            self.dram.bytes_per_cycle,
        )
        return fresh / source_bw + reused / cache_bw

    def access_cost(
        self,
        access: MemoryAccess,
        useful_bytes: np.ndarray,
        working_set: np.ndarray,
        buffer_bytes: float,
        ir: KernelIR,
        space: MemorySpace,
        dynamic_stride=None,
    ) -> AccessCost:
        """Cycles one variant's access stream costs on this memory system."""
        useful_bytes = np.asarray(useful_bytes, dtype=float)
        count = useful_bytes.size
        pattern = access.pattern

        # Streaming through the texture path trades bandwidth for the
        # read-only cache; through constant memory, divergent addresses
        # serialize on the broadcast bank (a classic placement pitfall).
        if space is MemorySpace.TEXTURE:
            stream_scale = 1.0 / self._spec.texture_stream_scale
        elif space is MemorySpace.CONSTANT:
            stream_scale = 8.0
        else:
            stream_scale = 1.0

        if pattern is AccessPattern.COALESCED:
            cycles = self.stream_cycles(
                useful_bytes, working_set, buffer_bytes, space=space
            )
            return AccessCost(cycles * stream_scale, np.zeros(count))

        if pattern is AccessPattern.UNIT_STRIDE:
            # Per-thread-sequential: each lane walks its own region, so a
            # warp touches up to warp_size distinct lines per trip.  When
            # the per-lane regions are short (dynamic stride near one
            # element), adjacent lanes touch adjacent lines and the walk
            # coalesces after all.
            max_amp = self._spec.uncoalesced_amplification
            if dynamic_stride is not None:
                amp = np.clip(
                    np.asarray(dynamic_stride, dtype=float) / ELEM_BYTES,
                    1.0,
                    max_amp,
                )
                fresh = self.stream_cycles(
                    useful_bytes, working_set, buffer_bytes, space=space
                )
                return AccessCost(fresh * amp * stream_scale, np.zeros(count))
            cycles = self.stream_cycles(
                useful_bytes, working_set, buffer_bytes, max_amp, space
            )
            return AccessCost(cycles * stream_scale, np.zeros(count))

        if pattern is AccessPattern.STRIDED:
            amp = min(
                self.stride_amplification(access.stride_bytes),
                self._spec.uncoalesced_amplification,
            )
            cycles = self.stream_cycles(
                useful_bytes, working_set, buffer_bytes, amp, space
            )
            return AccessCost(cycles * stream_scale, np.zeros(count))

        if pattern is AccessPattern.GATHER:
            elems = useful_bytes / ELEM_BYTES
            if space is MemorySpace.TEXTURE:
                # Read-only path: dedicated cache, deeper latency hiding.
                hiding = self._spec.texture_latency_hiding
                amp = 2.0
            elif space is MemorySpace.CONSTANT:
                # Divergent constant-bank reads serialize per distinct
                # address within a warp: latency hiding collapses.
                hiding = 4.0
                amp = 4.0
            else:
                hiding = self._spec.latency_hiding
                amp = 4.0
            # Divergent warps keep fewer loads in flight, shrinking the
            # latency hiding the scheduler can extract.
            hiding /= 1.0 + ir.divergence
            if ir.prefetch:
                # Software prefetching overlaps gather latency; largely
                # redundant once the texture path already hides it
                # (paper §4.3's spmv-jds observation).
                hiding *= 1.5 if space is not MemorySpace.TEXTURE else 1.05
            latency = self.gather_latency_mixed(
                useful_bytes, working_set, buffer_bytes
            ) / hiding
            bandwidth = self.stream_bandwidth(working_set)
            return AccessCost(
                useful_bytes * amp / bandwidth, elems * latency
            )

        if pattern is AccessPattern.BROADCAST:
            if space is MemorySpace.CONSTANT:
                # Constant cache broadcasts to the whole warp in one cycle.
                return AccessCost(useful_bytes / 256.0, np.zeros(count))
            bandwidth = self.stream_bandwidth(np.minimum(working_set, 64 * 1024))
            return AccessCost(useful_bytes / bandwidth, np.zeros(count))

        raise AssertionError(f"unhandled access pattern {pattern!r}")


class GpuDevice(Device):
    """SM-based GPU with SIMT warps, scratchpad, texture and constant paths."""

    kind = "gpu"

    def __init__(
        self,
        spec: GpuSpec,
        memory: GpuMemoryModel,
        config: ReproConfig,
    ) -> None:
        super().__init__(spec, memory, config)
        self._gpu_spec = spec

    def compute_cycles(
        self, ir: KernelIR, flops: np.ndarray, work_group_size: int
    ) -> np.ndarray:
        """Arithmetic cycles per work group for one variant's flops."""
        flops = np.asarray(flops, dtype=float)
        spec = self._gpu_spec
        # A narrow work-group cannot fill the SM's datapaths.
        occupancy = min(1.0, work_group_size / (2.0 * spec.warp_size))
        throughput = self.spec.flops_per_cycle * occupancy
        # Divergent warps execute both paths serially.
        penalty = 1.0 + ir.divergence
        return flops * penalty / throughput

    def scratchpad_cycles_per_group(self, ir: KernelIR) -> float:
        """Staging + barrier cycles the scratchpad costs per work group."""
        if ir.scratchpad_bytes == 0:
            return 0.0
        # Real on-chip storage: staging is cheap, barriers cost a pipeline
        # drain per work-group.
        copy = ir.scratchpad_bytes / 128.0
        barrier = 100.0 if ir.uses_barrier else 0.0
        return copy + barrier

    def atomic_cycles_per_op(self) -> float:
        """Cycles one global atomic operation costs."""
        # L2-serialized read-modify-write.
        return 60.0


def make_gpu(config: ReproConfig = DEFAULT_CONFIG) -> GpuDevice:
    """Build the default GPU model (K20c-like: 13 SMs, 1.25MB L2)."""
    spec = GpuSpec(
        name="gpu-k20c",
        compute_units=13,
        clock_ghz=0.705,
        flops_per_cycle=128.0,
        max_vector_width=32,
        workgroup_dispatch_overhead=350.0,
        kernel_launch_overhead=3500.0,
        host_query_latency=5000.0,
        loop_overhead_cycles=1.0,
        loop_setup_cycles=4.0,
    )
    levels = (
        CacheLevel("L1/tex", 48 * 1024, 128, 30.0, 64.0),
        CacheLevel("L2", 1280 * 1024, 128, 150.0, 24.0),
    )
    dram = CacheLevel("DRAM", float("inf"), 128, 400.0, 16.0)
    memory = GpuMemoryModel(spec, levels, dram)
    return GpuDevice(spec, memory, config)
