"""Static cost-bound analysis: sound cycle intervals per (variant, device).

This module produces a **sound interval** ``[lo, hi]`` (in engine cycles)
guaranteed to contain the noise-free cost the mechanistic cost model
(:mod:`repro.device.cost`) would charge.  It has no cost formula of its
own: it runs the device's :func:`~repro.device.cost.price_units` on two
pseudo-units, the best case and the worst case.  What the IR states
exactly (static trips, patterns, placements, transform state) is the same
for both; what only the *data* determines **widens** to endpoints —
data-dependent trips to the :class:`WideningPolicy` bounds, working sets
and dynamic strides to ``[0, inf]``, buffer sizes to ``inf`` — and the
memory model is a widened view of the device's own, whose data-dependent
primitives answer the cache hierarchy's best and worst case.  Everything
else the device prices is non-decreasing in the widened inputs, so the
two units price ``lo`` and ``hi``.

The interval brackets :meth:`repro.device.cost.CostModel.launch_cycles` —
the serialized work-group cycles the engine uses as its noise-free truth.
Kernel-launch overhead, measurement jitter and the timer quantum sit on
top of that in the engine and are *not* part of the interval; dominance
comparisons between variants of one pool are unaffected because those
terms are variant-independent.

Soundness contract (checked by the property suite and on every example
pool):

* the workload's data-dependent trip counts lie inside the policy's
  ``data_trip_bounds``;
* outside the primitives the view widens, a device's pricing never falls
  as trips, working sets or dynamic strides grow (true of the CPU and GPU
  models; a new device must keep it);
* buffers are served from their IR-declared placement (or the default
  global space) — re-binding a buffer into texture/constant space at
  launch time without an IR placement is outside the contract.

Results are cached module-wide, keyed by :func:`repro.device.cost.ir_hash`
(re-exported here; blind to evaluator bodies, which the bound never calls)
plus the device kind and widening policy, so verifying many pools over
shared IRs costs one evaluation each.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Dict, Optional, Tuple

import numpy as np

from ..device import make_cpu, make_gpu
from ..device.base import Device
from ..device.cost import ir_hash, placed_space, price_units, workgroup_fixed_cycles
from ..device.memory import MemoryModel
from ..kernel.buffers import MemorySpace
from ..kernel.ir import KernelIR, LoopBound, TripTable
from ..kernel.kernel import KernelVariant


@dataclass(frozen=True)
class Interval:
    """A closed interval ``[lo, hi]`` of nonnegative cycle counts.

    ``hi`` may be ``inf`` (an unbounded analysis result); ``lo`` is always
    finite.  Arithmetic is the standard interval arithmetic restricted to
    the nonnegative operations the analysis needs.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.lo) or self.lo < 0:
            raise ValueError(f"interval lo must be finite and >= 0, got {self.lo}")
        if self.hi < self.lo:
            raise ValueError(f"interval needs lo <= hi, got [{self.lo}, {self.hi}]")

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def scale(self, factor: float) -> "Interval":
        """Scale by a nonnegative constant."""
        if factor < 0:
            raise ValueError(f"scale factor must be >= 0, got {factor}")
        return Interval(self.lo * factor, self.hi * factor)

    def max_with(self, other: "Interval") -> "Interval":
        """Interval extension of ``max`` (endpoint-wise for nonneg args)."""
        return Interval(max(self.lo, other.lo), max(self.hi, other.hi))

    # -- queries -------------------------------------------------------

    @property
    def midpoint(self) -> float:
        """Center of the interval (``inf`` when unbounded)."""
        return (self.lo + self.hi) / 2.0

    @property
    def is_bounded(self) -> bool:
        """True when ``hi`` is finite."""
        return bool(np.isfinite(self.hi))

    def contains(self, value: float, slack: float = 0.0) -> bool:
        """Whether ``value`` lies inside, with relative float ``slack``."""
        lo = self.lo * (1.0 - slack)
        hi = self.hi * (1.0 + slack) if np.isfinite(self.hi) else self.hi
        return lo <= value <= hi

    def __contains__(self, value: float) -> bool:
        return self.contains(value)

    def __str__(self) -> str:
        hi = "inf" if not np.isfinite(self.hi) else f"{self.hi:.1f}"
        return f"[{self.lo:.1f}, {hi}]"


#: The fully-unknown interval (analysis gave up).
UNBOUNDED = Interval(0.0, float("inf"))


def point(value: float) -> Interval:
    """Exact (degenerate) interval for a statically-known quantity."""
    return Interval(value, value)


@dataclass(frozen=True)
class WideningPolicy:
    """Worst/best-case assumptions for statically-unknown quantities.

    ``data_trip_bounds`` brackets any data-dependent loop's per-unit trip
    count; workloads whose true trips exceed the upper bound void the
    soundness guarantee (widen the policy, not the claim).
    """

    data_trip_bounds: Tuple[float, float] = (0.0, 4096.0)

    def __post_init__(self) -> None:
        lo, hi = self.data_trip_bounds
        if lo < 0 or hi < lo:
            raise ValueError(
                f"data_trip_bounds must satisfy 0 <= lo <= hi, got {self.data_trip_bounds}"
            )


@dataclass(frozen=True)
class VariantCostBound:
    """Sound cost interval of one variant on one device kind.

    Component intervals are **per workload unit**; ``fixed_cycles`` is the
    exact per-work-group overhead (scratchpad staging + dispatch).  The
    derived intervals follow the cost model's aggregation: a work-group of
    ``n`` units costs ``max(sum compute, sum bandwidth) + sum exposed +
    fixed``, so a launch of ``U`` units in ``G`` groups is bracketed by
    ``U * unit_interval + G * fixed``.
    """

    variant: str
    device_kind: str
    compute: Interval
    bandwidth: Interval
    exposed: Interval
    fixed_cycles: float
    wa_factor: int
    widened: Tuple[str, ...] = ()

    @property
    def unit_interval(self) -> Interval:
        """Per-unit roofline interval (excludes per-group fixed cost)."""
        return self.compute.max_with(self.bandwidth) + self.exposed

    def launch_interval(self, workload_units: int) -> Interval:
        """Sound bracket of ``CostModel.launch_cycles`` for a launch."""
        if workload_units < 1:
            raise ValueError(f"workload_units must be >= 1, got {workload_units}")
        groups = -(-workload_units // max(1, self.wa_factor))
        return self.unit_interval.scale(workload_units) + point(
            self.fixed_cycles * groups
        )

    @property
    def per_unit_interval(self) -> Interval:
        """Per-unit interval valid for *any* workload size.

        The fixed cost amortizes to ``fixed / wa`` on full groups but a
        ragged final group can pay up to one whole ``fixed`` per unit, so
        the upper endpoint keeps the un-amortized term.
        """
        wa = max(1, self.wa_factor)
        unit = self.unit_interval
        return Interval(unit.lo + self.fixed_cycles / wa, unit.hi + self.fixed_cycles)


# ----------------------------------------------------------------------
# Device resolution and caching
# ----------------------------------------------------------------------

_DEVICE_FACTORIES = {"cpu": make_cpu, "gpu": make_gpu}
_DEVICE_CACHE: Dict[str, Device] = {}
_BOUND_CACHE: Dict[Tuple[str, str, WideningPolicy, str, int], VariantCostBound] = {}


def device_for_kind(kind: str) -> Optional[Device]:
    """Reference device model for a device kind (None when unknown).

    Cost formulas depend only on the device's spec and memory hierarchy,
    never on the runtime configuration, so one shared instance per kind
    serves every analysis.
    """
    if kind not in _DEVICE_FACTORIES:
        return None
    if kind not in _DEVICE_CACHE:
        _DEVICE_CACHE[kind] = _DEVICE_FACTORIES[kind]()
    return _DEVICE_CACHE[kind]


def clear_cache() -> None:
    """Drop all memoized cost bounds (tests / policy hot-swaps)."""
    _BOUND_CACHE.clear()


def cache_size() -> int:
    """Number of memoized (IR, device, policy) evaluations."""
    return len(_BOUND_CACHE)


# ----------------------------------------------------------------------
# Endpoint evaluation
# ----------------------------------------------------------------------


class _WidenedMemory:
    """Mixin placed ahead of a device's memory model class (:func:`_widened`).

    The device's own ``access_cost`` runs unchanged; stream cycles answer
    the first level's and DRAM's bandwidth, gather latencies the smallest
    and largest level latency.  ``stream_bandwidth`` stays exact: at
    working sets ``[0, inf]`` it too answers the first level and DRAM,
    which bracket every level because :class:`MemoryModel` rejects a
    hierarchy whose bandwidth rises going outward.  Each primitive notes
    what the analysis could not know; an access keeps its first note.
    """

    def _note(self, text: str) -> None:
        """Record ``text`` unless the current access already has a note."""
        if not self._noted and text not in self.notes:
            self.notes.append(text)
        self._noted = True

    def access_cost(self, access, *args, **kwargs):
        """The device's own formula, with the access's note reset."""
        self._pattern, self._noted = access.pattern.value, False
        return super().access_cost(access, *args, **kwargs)

    def stream_cycles(
        self, useful_bytes, working_set, buffer_bytes, amplification=1.0, space=None
    ):
        """Every byte at the first level's, then at DRAM's bandwidth."""
        self._note("stream working set unknown")
        return np.asarray(useful_bytes, dtype=float) * amplification / self._stream_bw

    def gather_latency(self, *_args, **_kwargs):
        """The smallest and the largest level latency."""
        self._note("gather hit rates unknown")
        return self._latency

    gather_latency_mixed = gather_latency

    def stride_amplification(self, stride_bytes):
        """Exact; notes that the strided stream's working set is unknown."""
        self._note(f"{self._pattern} working set unknown")
        return super().stride_amplification(stride_bytes)

    def stream_bandwidth(self, working_set_bytes):
        """Exact; notes that the access's working set is unknown."""
        self._note(f"{self._pattern} working set unknown")
        return super().stream_bandwidth(working_set_bytes)


class _StrideEndpoints:
    """Dynamic-stride endpoints ``[0, inf]`` that note the device reading
    them (through the numpy array protocol)."""

    def __init__(self, memory: _WidenedMemory) -> None:
        self._memory = memory

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        self._memory._note("dynamic stride unknown")
        return np.array([0.0, np.inf], dtype=dtype)


#: The two pseudo-units (best case, worst case) and their working sets.
_ENDPOINTS = np.arange(2, dtype=np.int64)
_WORKING_SETS = np.array([0.0, np.inf])


@lru_cache(maxsize=None)
def _widened_class(model_class: type) -> type:
    """``model_class`` with :class:`_WidenedMemory` ahead in its MRO."""
    return type(f"Widened{model_class.__name__}", (_WidenedMemory, model_class), {})


def _widened(memory: MemoryModel) -> _WidenedMemory:
    """A widened view of ``memory`` with an empty note list."""
    view = copy.copy(memory)
    view.__class__ = _widened_class(type(memory))
    latencies = [level.latency_cycles for level in (*memory.levels, memory.dram)]
    view._stream_bw = memory.stream_bandwidth(_WORKING_SETS)
    view._latency = np.array([min(latencies), max(latencies)])
    view.notes = []
    return view


def _endpoint_ir(ir: KernelIR, policy: WideningPolicy) -> KernelIR:
    """``ir`` with each data-dependent loop bound answering the policy's
    trip bounds on the two pseudo-units (static bounds stay)."""
    trips = np.array(policy.data_trip_bounds, dtype=float)
    endpoints = LoopBound(evaluator=lambda args, unit_ids: trips)
    loops = tuple(
        replace(loop, bound=endpoints) if loop.bound.is_data_dependent else loop
        for loop in ir.loops
    )
    return replace(ir, loops=loops)


def variant_cost_bound(
    variant: KernelVariant,
    device_kind: str,
    policy: WideningPolicy = WideningPolicy(),
) -> VariantCostBound:
    """Sound cost interval for one variant on one device kind.

    Unknown device kinds degrade to the unbounded interval — still sound,
    never able to prune.  Results are memoized by structural IR hash.
    """
    key = (
        ir_hash(variant.ir),
        device_kind,
        policy,
        variant.name,
        variant.wa_factor,
    )
    hit = _BOUND_CACHE.get(key)
    if hit is not None:
        return hit

    device = device_for_kind(device_kind)
    if device is None:
        bound = VariantCostBound(
            variant=variant.name,
            device_kind=device_kind,
            compute=UNBOUNDED,
            bandwidth=UNBOUNDED,
            exposed=UNBOUNDED,
            fixed_cycles=0.0,
            wa_factor=variant.wa_factor,
            widened=(f"unknown device kind {device_kind!r}",),
        )
        _BOUND_CACHE[key] = bound
        return bound

    ir = _endpoint_ir(variant.ir, policy)
    memory = _widened(device.memory)
    placements = dict(ir.placements)
    sites = [
        (
            MemorySpace(placed_space(placements, access, None)),
            _WORKING_SETS,
            math.inf,
            _StrideEndpoints(memory) if access.stride_evaluator else None,
        )
        for access in ir.accesses
    ]
    costs = price_units(device, memory, ir, TripTable(ir, {}, _ENDPOINTS), sites)
    widened = []
    if ir.has_data_dependent_bounds:
        widened.append("data-dependent loop bounds")
    bound = VariantCostBound(
        variant=variant.name,
        device_kind=device.kind,
        compute=Interval(*costs.compute_cycles.tolist()),
        bandwidth=Interval(*costs.bandwidth_cycles.tolist()),
        exposed=Interval(*costs.exposed_cycles.tolist()),
        fixed_cycles=float(workgroup_fixed_cycles(device, ir)),
        wa_factor=variant.wa_factor,
        widened=tuple(widened + memory.notes),
    )
    _BOUND_CACHE[key] = bound
    return bound
