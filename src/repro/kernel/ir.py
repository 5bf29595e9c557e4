"""Declarative kernel IR: what the compiler and cost model reason about.

Real DySel sits on top of an OpenCL/CUDA compiler that sees full kernel
source.  Our substitute is a compact IR capturing exactly the facts the
paper's machinery consumes:

* **loop structure** — work-item loops vs in-kernel loops and their bounds
  (static or data-dependent), which drives *uniform workload analysis*
  (paper §3.4) and the locality-centric scheduling baseline [17];
* **memory access descriptors** — per-buffer patterns (coalesced, strided,
  gather, broadcast) and volumes, which drive the mechanistic device cost
  model and the PORPLE/Jang data-placement baselines [7, 15];
* **atomics and output-range facts** — which drive *side effect analysis*
  and the choice of productive profiling mode (paper §2.3);
* **transform state** — vector width, tiling/coarsening factors, scratchpad
  usage, unrolling, prefetching — so compile-time transforms are visible to
  the cost model the same way generated code is visible to hardware.

Loop bounds and access volumes may be *data dependent*: they are evaluated
lazily against the actual launch arguments, vectorized over work-group ids.
This is what lets input sparsity flip the best variant at runtime (Case
Study IV) while remaining invisible to static analyses — exactly the
information asymmetry DySel exploits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping, Optional, Tuple, Union

import numpy as np

from ..errors import IRError

#: Signature of a data-dependent evaluator: (args, unit_ids) -> value
#: per work-group.  ``unit_ids`` is an int64 array of workload-unit ids; the result must be a float array of the same length.
#:
#: Contract: an evaluator is a pure function of ``unit_ids`` and of the
#: arguments the IR does not write.  It must not read a buffer the IR
#: writes (an in-place or read-modify-write kernel's data), nor state
#: held in a closure, a global or anything else outside ``args`` that can
#: change.  The cost model prices such an IR once per frozen input and
#: range (:meth:`repro.device.cost.CostModel.workgroup_cycles`), keyed on
#: the evaluator function and the identities of the unwritten arguments
#: only, so an evaluator that breaks the contract is served a stale price
#: without warning.
Evaluator = Callable[[Mapping[str, object], np.ndarray], np.ndarray]


class AccessPattern(enum.Enum):
    """How consecutive work-items in a work-group touch a buffer.

    The pattern determines memory cost on each device model:

    * ``COALESCED`` — adjacent work-items touch adjacent elements.  Ideal on
      GPU (one transaction per warp); on CPU this is a unit-stride stream
      *across* the vector lanes.
    * ``UNIT_STRIDE`` — each work-item streams sequentially through memory
      (unit stride *within* a work-item across loop trips).  Ideal on CPU;
      on GPU this is a strided (uncoalesced) pattern across a warp.
    * ``STRIDED`` — constant non-unit stride; cost grows with stride until a
      cache line per element is wasted.
    * ``GATHER`` — data-dependent indices (e.g. ``x[col[j]]`` in spmv);
      modelled as random within a working set.
    * ``BROADCAST`` — all work-items read the same address (e.g. kmeans
      centroids); served by caches / constant memory at near-zero cost.
    """

    COALESCED = "coalesced"
    UNIT_STRIDE = "unit_stride"
    STRIDED = "strided"
    GATHER = "gather"
    BROADCAST = "broadcast"


#: Sentinel stride marking a data-dependent (gather) index in
#: ``MemoryAccess.strides_by_loop``.
GATHER_STRIDE = -1


class AtomicKind(enum.Enum):
    """Atomicity of a memory access (side effect analysis input)."""

    NONE = "none"
    LOCAL = "local"  # work-group-local; never forces swap-based profiling
    GLOBAL = "global"  # forces swap-based profiling (paper §3.4)


@dataclass(frozen=True)
class LoopBound:
    """Trip count of one loop, possibly data dependent.

    ``static_trips`` gives the count when it is a compile-time constant.
    ``evaluator`` gives the count per workload unit when it depends on runtime
    data (CSR row lengths, ...); static analyses cannot see through it —
    only that it exists — which makes uniform workload analysis
    conservative, as the paper notes for uniform CSR matrices.  It must
    keep the :data:`Evaluator` contract: read only ``unit_ids`` and the
    arguments the IR does not write.
    """

    static_trips: Optional[int] = None
    evaluator: Optional[Evaluator] = None
    description: str = ""

    def __post_init__(self) -> None:
        if (self.static_trips is None) == (self.evaluator is None):
            raise IRError(
                "LoopBound needs exactly one of static_trips or evaluator; "
                f"got static_trips={self.static_trips!r}, "
                f"evaluator={'set' if self.evaluator else 'None'}"
            )
        if self.static_trips is not None and self.static_trips < 0:
            raise IRError(f"static_trips must be >= 0, got {self.static_trips}")

    @property
    def is_data_dependent(self) -> bool:
        """True when the trip count is only known at runtime."""
        return self.evaluator is not None

    def trips(
        self, args: Mapping[str, object], unit_ids: np.ndarray
    ) -> np.ndarray:
        """Evaluate trip counts for the given workload units (vectorized)."""
        if self.static_trips is not None:
            return np.full(len(unit_ids), float(self.static_trips))
        assert self.evaluator is not None
        trips = np.asarray(self.evaluator(args, unit_ids), dtype=float)
        if trips.shape != unit_ids.shape:
            raise IRError(
                f"loop-bound evaluator returned shape {trips.shape}, "
                f"expected {unit_ids.shape} ({self.description or 'bound'})"
            )
        return trips


@dataclass(frozen=True)
class Loop:
    """One loop in the kernel's (linearized) loop nest.

    ``is_work_item_loop`` distinguishes the implicit loops over work-items
    (materialized when lowering OpenCL to CPU code, cf. MCUDA/pocl) from the
    explicit in-kernel loops the programmer wrote.  The locality-centric
    scheduling baseline permutes exactly these two classes of loops.
    """

    name: str
    bound: LoopBound
    is_work_item_loop: bool = False
    has_early_exit: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise IRError("loop name must be non-empty")


@dataclass(frozen=True)
class MemoryAccess:
    """One static memory access site.

    Parameters
    ----------
    buffer:
        Kernel-argument name of the buffer touched.
    is_write:
        Direction; writes to overlapping ranges are what side effect
        analysis looks for.
    pattern:
        Access pattern across work-items (see :class:`AccessPattern`).
    bytes_per_trip:
        Bytes moved per execution of this site, *aggregated over the
        workload unit* (i.e. already multiplied by the work-items that
        process one unit where the site executes per work-item).
    loop:
        Name of the innermost loop containing this site, or None when the
        site executes once per work-group.  The site's execution count is
        the product of trip counts of that loop and all enclosing loops.
    stride_bytes:
        Element stride for ``STRIDED`` patterns (ignored otherwise).
    atomic:
        Atomicity (side effect analysis input).
    working_set_hint:
        Optional name of a buffer whose size bounds the gather working set
        (e.g. the dense vector in spmv); lets the cache model estimate
        gather hit rates.
    """

    buffer: str
    is_write: bool
    pattern: AccessPattern
    bytes_per_trip: float
    loop: Optional[str] = None
    #: Optional explicit execution scope: the set of loops whose trip
    #: counts multiply into this site's execution count.  Order
    #: independent, so loop interchange preserves counts (an accumulator
    #: hoisted out of the reduction loop stays hoisted under any order).
    #: When None, the scope is the prefix of the nest up to ``loop``.
    scope: Optional[Tuple[str, ...]] = None
    stride_bytes: int = 0
    atomic: AtomicKind = AtomicKind.NONE
    working_set_hint: Optional[str] = None
    #: Optional evaluator of the *dynamic* element stride in bytes between
    #: consecutive work-items' touches: (args, unit_ids) -> stride per
    #: unit.  Lets coalescing quality depend on the data (CSR row lengths:
    #: a 1-nnz-per-row matrix makes the "uncoalesced" scalar kernel
    #: perfectly coalesced).  When None, the static pattern governs.
    #: Like every evaluator it reads only ``unit_ids`` and the arguments
    #: the IR does not write (:data:`Evaluator`).
    stride_evaluator: Optional[Evaluator] = None
    #: Optional *per-unit* working-set footprint in bytes: a constant, or
    #: an evaluator (args, unit_ids) -> bytes touched by each unit.  When
    #: set, it overrides the buffer-size working set for cache-level
    #: selection and gather hit-rate estimation.  An evaluator is how input
    #: locality (e.g. the diagonal matrix's 1-nnz rows) reaches the cost
    #: model; a constant keeps the access statically priced.  An evaluator
    #: reads only ``unit_ids`` and the arguments the IR does not write
    #: (:data:`Evaluator`).
    footprint_hint: Optional[Union[float, Evaluator]] = None
    #: Optional per-loop byte strides of the access's index expression:
    #: how far the address moves per step of each loop variable.  Used by
    #: the schedule transform and the locality-centric heuristic to derive
    #: the pattern a given loop order produces.  Use GATHER_STRIDE for a
    #: data-dependent index.
    strides_by_loop: Optional[Tuple[Tuple[str, int], ...]] = None

    def __post_init__(self) -> None:
        if self.bytes_per_trip < 0:
            raise IRError(
                f"bytes_per_trip must be >= 0, got {self.bytes_per_trip} "
                f"for access to {self.buffer!r}"
            )
        hint = self.footprint_hint
        if not (hint is None or callable(hint) or 0 <= hint < float("inf")):
            raise IRError(
                f"constant footprint_hint must be finite and >= 0, got {hint} "
                f"for access to {self.buffer!r}"
            )
        if self.pattern is AccessPattern.STRIDED and self.stride_bytes <= 0:
            raise IRError(
                f"STRIDED access to {self.buffer!r} requires stride_bytes > 0"
            )


@dataclass(frozen=True)
class KernelIR:
    """Complete IR for one kernel variant.

    ``loops`` is the loop nest from outermost to innermost.  Accesses and
    arithmetic are attributed to loops by name.  All *per-trip* quantities
    are per work-group aggregates.

    Transform state fields describe what compile-time transforms were
    applied; they change the cost model's view exactly like generated code
    changes hardware behaviour, and some also change profiling requirements
    (coarsening/tiling change ``wa_factor`` on the variant, global atomics
    force swap-based profiling).
    """

    loops: Tuple[Loop, ...] = ()
    accesses: Tuple[MemoryAccess, ...] = ()
    #: Arithmetic per innermost-loop trip, per work-group (flop count).
    flops_per_trip: float = 0.0
    #: Fixed per-work-group arithmetic outside all loops.
    flops_fixed: float = 0.0
    #: SIMD width the variant was vectorized to (1 = scalar).
    vector_width: int = 1
    #: Fraction [0, 1] of dynamic control divergence across adjacent
    #: work-items; drives SIMD masking / warp-divergence penalties.
    divergence: float = 0.0
    #: Scratchpad bytes allocated per work-group (tiling / vector spmv).
    scratchpad_bytes: int = 0
    #: Whether the kernel synchronizes work-items with barriers.
    uses_barrier: bool = False
    #: Loop-unroll factor applied to the innermost loop (1 = none).
    unroll_factor: int = 1
    #: Whether software prefetching was applied.
    prefetch: bool = False
    #: Side-effect facts about output ranges (beyond atomics).
    output_ranges_overlap: bool = False
    output_range_varies: bool = False
    #: Data placement decisions: (buffer argument name, MemorySpace value).
    #: Applied at cost-evaluation time by re-binding the buffer's space;
    #: functional results never depend on placement.
    placements: Tuple[Tuple[str, str], ...] = ()
    #: Work-items (threads) per work-group; GPU compute-efficiency rules
    #: use it to model lane underutilization.
    work_group_threads: int = 64
    #: Free-form provenance notes ("tiled 16x16", "BFO schedule", ...).
    notes: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        names = [loop.name for loop in self.loops]
        if len(names) != len(set(names)):
            raise IRError(f"duplicate loop names in IR: {names}")
        known = set(names)
        for access in self.accesses:
            if access.loop is not None and access.loop not in known:
                raise IRError(
                    f"access to {access.buffer!r} references unknown loop "
                    f"{access.loop!r} (known: {sorted(known)})"
                )
        if self.vector_width < 1:
            raise IRError(f"vector_width must be >= 1, got {self.vector_width}")
        if self.unroll_factor < 1:
            raise IRError(f"unroll_factor must be >= 1, got {self.unroll_factor}")
        if not 0.0 <= self.divergence <= 1.0:
            raise IRError(f"divergence must be in [0, 1], got {self.divergence}")
        if self.scratchpad_bytes < 0:
            raise IRError(
                f"scratchpad_bytes must be >= 0, got {self.scratchpad_bytes}"
            )
        if self.work_group_threads < 1:
            raise IRError(
                f"work_group_threads must be >= 1, got {self.work_group_threads}"
            )
        for access in self.accesses:
            if access.strides_by_loop is not None:
                for loop_name, _stride in access.strides_by_loop:
                    if loop_name not in known:
                        raise IRError(
                            f"access to {access.buffer!r}: strides_by_loop "
                            f"references unknown loop {loop_name!r}"
                        )
            if access.scope is not None:
                for loop_name in access.scope:
                    if loop_name not in known:
                        raise IRError(
                            f"access to {access.buffer!r}: scope references "
                            f"unknown loop {loop_name!r}"
                        )

    # ------------------------------------------------------------------
    # Structure queries (used by analyses and the cost model)
    # ------------------------------------------------------------------

    def loop_named(self, name: str) -> Loop:
        """Look up a loop by name."""
        for loop in self.loops:
            if loop.name == name:
                return loop
        raise IRError(f"IR has no loop named {name!r}")

    def loop_depth(self, name: str) -> int:
        """Index of a loop within the nest (0 = outermost)."""
        for depth, loop in enumerate(self.loops):
            if loop.name == name:
                return depth
        raise IRError(f"IR has no loop named {name!r}")

    def enclosing_loops(self, name: Optional[str]) -> Tuple[Loop, ...]:
        """Loops enclosing (and including) the named loop.

        ``None`` means "outside all loops" and yields an empty tuple.
        """
        if name is None:
            return ()
        depth = self.loop_depth(name)
        return self.loops[: depth + 1]

    @property
    def in_kernel_loops(self) -> Tuple[Loop, ...]:
        """Explicit (non-work-item) loops."""
        return tuple(l for l in self.loops if not l.is_work_item_loop)

    @property
    def work_item_loops(self) -> Tuple[Loop, ...]:
        """Implicit work-item loops (CPU lowering)."""
        return tuple(l for l in self.loops if l.is_work_item_loop)

    @property
    def has_global_atomics(self) -> bool:
        """True when any access site uses a global atomic."""
        return any(a.atomic is AtomicKind.GLOBAL for a in self.accesses)

    @property
    def written_buffers(self) -> Tuple[str, ...]:
        """Buffer arguments this variant writes (its static write set).

        Order follows first write site; used by the pool verifier to check
        write sets against declared signature outputs and sandbox indices.
        """
        seen = []
        for access in self.accesses:
            if access.is_write and access.buffer not in seen:
                seen.append(access.buffer)
        return tuple(seen)

    @property
    def global_atomic_buffers(self) -> Tuple[str, ...]:
        """Buffers touched through global atomics (side-effect facts)."""
        seen = []
        for access in self.accesses:
            if access.atomic is AtomicKind.GLOBAL and access.buffer not in seen:
                seen.append(access.buffer)
        return tuple(seen)

    @property
    def has_data_dependent_bounds(self) -> bool:
        """True when any loop bound is only known at runtime."""
        return any(l.bound.is_data_dependent for l in self.loops)

    @property
    def has_early_exit(self) -> bool:
        """True when any loop may exit early."""
        return any(l.has_early_exit for l in self.loops)

    # ------------------------------------------------------------------
    # Quantitative evaluation (vectorized over work-groups)
    # ------------------------------------------------------------------

    # The counting methods below each build a :class:`TripTable` and read
    # their product from it; the cost model builds one per pricing and
    # shares it.

    def site_trips(
        self,
        site_loop: Optional[str],
        args: Mapping[str, object],
        unit_ids: np.ndarray,
    ) -> np.ndarray:
        """Execution count of a site attached to ``site_loop``, per unit.

        The count is the product of trip counts of the loop and all loops
        enclosing it; a site outside all loops executes once.
        """
        return TripTable(self, args, unit_ids).site(site_loop)

    def access_trips(
        self,
        access: "MemoryAccess",
        args: Mapping[str, object],
        unit_ids: np.ndarray,
    ) -> np.ndarray:
        """Execution count of an access site, per workload unit.

        An explicit ``scope`` multiplies exactly the named loops' trips
        (order independent); otherwise falls back to the nest prefix up to
        ``access.loop``.
        """
        return TripTable(self, args, unit_ids).access(access)

    def innermost_trips(
        self, args: Mapping[str, object], unit_ids: np.ndarray
    ) -> np.ndarray:
        """Total innermost-loop executions per workload unit.

        This is what ``flops_per_trip`` multiplies.  With an empty nest the
        kernel body runs once per unit.
        """
        return TripTable(self, args, unit_ids).innermost()

    def total_flops(
        self, args: Mapping[str, object], unit_ids: np.ndarray
    ) -> np.ndarray:
        """Arithmetic work per workload unit."""
        return TripTable(self, args, unit_ids).flops()

    def with_(self, **changes: object) -> "KernelIR":
        """Return a modified copy (transform helper)."""
        return replace(self, **changes)

    def with_note(self, note: str) -> "KernelIR":
        """Return a copy with a provenance note appended."""
        return replace(self, notes=self.notes + (note,))


class TripTable:
    """Per-unit trip counts of every loop in an IR, each evaluated once.

    Every execution count the cost model needs — flops, access-site
    counts, loop bookkeeping — is a product of these arrays, taken left
    to right starting from ones.  Sharing one table runs each
    data-dependent evaluator once per pricing instead of once per count.
    """

    __slots__ = ("ir", "units", "by_loop")

    def __init__(
        self, ir: KernelIR, args: Mapping[str, object], unit_ids: np.ndarray
    ) -> None:
        self.ir = ir
        self.units = len(unit_ids)
        #: Loop name -> trip count per unit, in nest order.
        self.by_loop = {
            loop.name: loop.bound.trips(args, unit_ids) for loop in ir.loops
        }

    def product(self, loop_names: Iterable[str]) -> np.ndarray:
        """Product of the named loops' trips per unit (ones when none)."""
        counts = np.ones(self.units)
        for name in loop_names:
            counts = counts * self.by_loop[name]
        return counts

    def site(self, site_loop: Optional[str]) -> np.ndarray:
        """See :meth:`KernelIR.site_trips`."""
        return self.product(
            loop.name for loop in self.ir.enclosing_loops(site_loop)
        )

    def access(self, access: MemoryAccess) -> np.ndarray:
        """See :meth:`KernelIR.access_trips`."""
        if access.scope is None:
            return self.site(access.loop)
        return self.product(access.scope)

    def innermost(self) -> np.ndarray:
        """See :meth:`KernelIR.innermost_trips` (every loop encloses the
        innermost one)."""
        return self.product(self.by_loop)

    def flops(self) -> np.ndarray:
        """See :meth:`KernelIR.total_flops`."""
        return self.ir.flops_fixed + self.ir.flops_per_trip * self.innermost()
