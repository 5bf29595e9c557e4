"""Mechanistic cost model: per-unit pricing, per-work-group aggregation.

:class:`CostModel` interprets a variant's IR against a device.  All IR
quantities (trip counts, byte volumes, flops) are defined **per workload
unit** — the finest decomposition of the launch.  A variant packs
``wa_factor`` units into each work-group, so the model:

1. evaluates per-unit compute, bandwidth and latency cycles (vectorized,
   honoring data-dependent loop bounds for exactly the units covered);
2. sums each component over every work-group's units;
3. combines with a roofline — bandwidth traffic overlaps compute; exposed
   latency (gathers, atomics), loop bookkeeping, scratchpad staging and
   the per-work-group dispatch overhead add on top.

Because per-unit quantities are evaluated for the *specific* units a
work-group covers, profiling a slice reflects that slice's data — the
property DySel's productive profiling relies on (paper §2.1), and the
reason profiling can be misled only by genuine workload irregularity, not
by model artifacts.

The DySel runtime never calls this module; it only observes measured
execution times from the engine — the same information asymmetry the real
system has.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

import numpy as np

from ..kernel.buffers import (
    SCALAR_TYPES,
    Buffer,
    MemorySpace,
    frozen_array,
    frozen_record,
)
from ..kernel.ir import AtomicKind, KernelIR, MemoryAccess, TripTable
from ..kernel.kernel import KernelVariant, WorkRange
from .base import Device
from .memory import ELEM_BYTES, AccessCost, MemoryModel


def ir_hash(ir: KernelIR) -> str:
    """Stable structural hash of an IR (derived once per IR object).

    Callables (data-dependent evaluators) are replaced by a fixed marker:
    static analyses never look through them, so two IRs differing only in
    evaluator bodies hash identically.  The cost-kernel memo therefore
    keys an IR that carries evaluators on the evaluator functions as well
    (:meth:`CostModel.workgroup_cycles`).  A constant ``footprint_hint``
    is hashed by value, so IRs differing only in footprint bytes never
    share an entry.
    """
    return _ir_facts(ir).hash


def statically_priced(ir: KernelIR) -> bool:
    """True when an IR's pricing cannot depend on runtime data.

    An IR is statically priced when no loop bound, stride, or footprint is
    evaluator-driven (a constant ``footprint_hint`` is fine): every
    per-unit cost term is then a function of IR constants and buffer
    shapes only, identical across units, so the cost-kernel memo keys it
    on range length alone.  An IR with evaluators is memoized per frozen
    input and range start instead (:meth:`CostModel.workgroup_cycles`).
    """
    return not _ir_facts(ir).evaluators


def _structural_hash(ir: KernelIR) -> str:
    """The digest behind :func:`ir_hash`."""
    parts = []
    for loop in ir.loops:
        bound = (
            f"static:{loop.bound.static_trips}"
            if loop.bound.static_trips is not None
            else "dynamic"
        )
        parts.append(
            f"loop:{loop.name}:{bound}:{loop.is_work_item_loop}:{loop.has_early_exit}"
        )
    for access in ir.accesses:
        hint = access.footprint_hint
        parts.append(
            "access:" + ":".join(
                str(x)
                for x in (
                    access.buffer,
                    access.is_write,
                    access.pattern.value,
                    access.bytes_per_trip,
                    access.loop,
                    access.scope,
                    access.stride_bytes,
                    access.atomic.value,
                    access.working_set_hint,
                    access.stride_evaluator is not None,
                    "evaluator" if callable(hint) else hint,
                    access.strides_by_loop,
                )
            )
        )
    parts.append(
        "scalars:" + ":".join(
            str(x)
            for x in (
                ir.flops_per_trip,
                ir.flops_fixed,
                ir.vector_width,
                ir.divergence,
                ir.scratchpad_bytes,
                ir.uses_barrier,
                ir.unroll_factor,
                ir.prefetch,
                ir.placements,
                ir.work_group_threads,
            )
        )
    )
    digest = hashlib.blake2b("\n".join(parts).encode(), digest_size=16)
    return digest.hexdigest()


@dataclass(frozen=True)
class _IRFacts:
    """The IR-level half of a memo key."""

    hash: str
    #: Every evaluator pricing reads, in IR order; empty exactly when the
    #: IR is statically priced.
    evaluators: Tuple[Callable, ...]
    #: Buffers the IR writes.  Evaluators never read them, so their
    #: contents stay out of a data-priced key.
    written: FrozenSet[str]
    #: Arguments whose size and space pricing reads: every accessed
    #: buffer and working-set hint, once each.
    sized: Tuple[str, ...]


_FACTS_ATTR = "_cost_memo_facts"


def _ir_facts(ir: KernelIR) -> _IRFacts:
    """The IR's memo facts, derived on first use and kept on the IR.

    ``KernelIR`` is frozen, so the facts never go stale.  Keeping them on
    the object (the way ``functools.cached_property`` does) makes a warm
    launch one attribute read instead of re-hashing the IR's nested
    tuples for a cache lookup.
    """
    facts = vars(ir).get(_FACTS_ATTR)
    if facts is None:
        evaluators = [
            loop.bound.evaluator
            for loop in ir.loops
            if loop.bound.evaluator is not None
        ]
        sized = {}
        for access in ir.accesses:
            if access.stride_evaluator is not None:
                evaluators.append(access.stride_evaluator)
            if callable(access.footprint_hint):
                evaluators.append(access.footprint_hint)
            sized[access.buffer] = None
            if access.working_set_hint:
                sized[access.working_set_hint] = None
        facts = _IRFacts(
            hash=_structural_hash(ir),
            evaluators=tuple(evaluators),
            written=frozenset(ir.written_buffers),
            sized=tuple(sized),
        )
        vars(ir)[_FACTS_ATTR] = facts
    return facts


# ----------------------------------------------------------------------
# Cost-kernel memo
# ----------------------------------------------------------------------
#
# For a statically priced IR, ``workgroup_cycles`` depends only on the IR
# structure, the device, the variant's packing factor, the *length* of the
# unit range (starts are wa-aligned, so group partitioning is position
# independent) and the shapes/placements of the buffers bound to each
# access.  One entry therefore serves every launch of the same workload
# class — repeated serving launches, profiling slices of equal length,
# eager chunks — and the cached array is returned as-is (read-only), so a
# warm launch derives nothing.
#
# An IR with evaluators prices the data its range covers, so its key adds
# the evaluator functions, the range start and the identity of every
# argument the IR does not write.  Those inputs must be frozen (see
# ``_frozen_inputs``); the entry holds them weakly and dies with the first
# of them.  This is sound only under the evaluator contract stated at
# ``repro.kernel.ir.Evaluator``: an evaluator is a pure function of its
# unit ids and of the arguments the IR does not write.

_MEMO_LOCK = threading.Lock()
_COST_MEMO: Dict[Tuple, "_Entry"] = {}
_MEMO_HITS = 0
_MEMO_MISSES = 0
#: Invalidation generation: a computation begun under an older generation
#: must not repopulate the memo after an invalidation raced past it.
_MEMO_GEN = 0
#: Entry bound.  A served replay fills a few dozen entries; the bound
#: matters when inputs keep changing, since each new input is a new key.
MEMO_MAX_ENTRIES = 1024


class _Entry:
    """A cached cost array and weak references to the inputs behind it.

    Weak references keep the memo from pinning input memory.  When any
    input dies its callback clears ``alive``, and from then on the entry
    serves no lookup, so an object that reuses a dead input's ``id`` can
    never be served the dead input's price.  The callback only flips a
    flag: garbage collection can run it while this thread holds
    ``_MEMO_LOCK``, so it must not take the lock.  It closes over the
    flag, not the entry, so a dropped entry is freed at once.
    """

    __slots__ = ("cycles", "alive", "refs")

    def __init__(self, cycles: np.ndarray, inputs: Tuple[object, ...]) -> None:
        alive = [True]

        def mark_dead(_ref: weakref.ref) -> None:
            alive[0] = False

        self.cycles = cycles
        self.alive = alive
        self.refs = tuple(weakref.ref(obj, mark_dead) for obj in inputs)


def _drop_dead() -> None:
    """Drop entries whose inputs have died (caller holds ``_MEMO_LOCK``)."""
    for key in [key for key, entry in _COST_MEMO.items() if not entry.alive[0]]:
        del _COST_MEMO[key]


def _store(key: Tuple, entry: _Entry) -> None:
    """Insert a filled entry (caller holds ``_MEMO_LOCK``).

    A live entry a racing thread stored first is kept; a dead one is
    replaced.  At the bound, dead entries go first, then the oldest.
    """
    existing = _COST_MEMO.get(key)
    if existing is not None and existing.alive[0]:
        return
    if existing is None and len(_COST_MEMO) >= MEMO_MAX_ENTRIES:
        _drop_dead()
        if len(_COST_MEMO) >= MEMO_MAX_ENTRIES:
            del _COST_MEMO[next(iter(_COST_MEMO))]
    _COST_MEMO[key] = entry


def cost_memo_stats() -> Dict[str, int]:
    """Current memo size (live entries) and hit/miss counters (monotonic
    until cleared)."""
    with _MEMO_LOCK:
        _drop_dead()
        return {
            "entries": len(_COST_MEMO),
            "hits": _MEMO_HITS,
            "misses": _MEMO_MISSES,
        }


def clear_cost_memo() -> None:
    """Drop every memo entry and reset the hit/miss counters."""
    global _MEMO_HITS, _MEMO_MISSES, _MEMO_GEN
    with _MEMO_LOCK:
        _COST_MEMO.clear()
        _MEMO_HITS = 0
        _MEMO_MISSES = 0
        _MEMO_GEN += 1


def invalidate_cost_memo(ir_hashes: Optional[Iterable[str]] = None) -> int:
    """Drop memo entries for the given IR hashes (all entries when None).

    Returns the number of live entries dropped.  Runs under the memo lock
    and bumps the generation counter, so a cost evaluation already in
    flight on another thread cannot re-insert a doomed entry after this
    returns (the pool re-registration race).
    """
    global _MEMO_GEN
    with _MEMO_LOCK:
        _MEMO_GEN += 1
        _drop_dead()
        if ir_hashes is None:
            dropped = len(_COST_MEMO)
            _COST_MEMO.clear()
            return dropped
        doomed_hashes = set(ir_hashes)
        doomed = [key for key in _COST_MEMO if key[0] in doomed_hashes]
        for key in doomed:
            del _COST_MEMO[key]
        return len(doomed)


#: One small int per distinct pricing-relevant device state.
_DEVICE_IDS: Dict[Tuple, int] = {}


def _device_id(state: Tuple) -> int:
    """The memo's stand-in for ``state``: equal states share one id.

    Specs, cache levels and DRAM rows are frozen dataclasses, so equal
    devices (fleet replicas) share entries.  Hashing them costs a few
    microseconds, which every pricing would pay in its memo key; an int
    costs nothing.  Ids outlive :func:`clear_cost_memo`, because live
    models hold them.
    """
    with _MEMO_LOCK:
        return _DEVICE_IDS.setdefault(state, len(_DEVICE_IDS))


def _frozen_inputs(
    args: Mapping[str, object], written: FrozenSet[str]
) -> Optional[Tuple[Tuple, Tuple[object, ...]]]:
    """Identity of every argument an IR does not write, or None when one
    is not frozen.

    Returns ``(identity, inputs)``: ``identity`` goes into the memo key
    and ``inputs`` are the objects the entry watches.  A :class:`Buffer`
    stands for its backing array (requests rebuild the buffers around the
    same arrays) and counts only when that array is frozen.  A scalar is
    keyed by value; any other argument must be a frozen record.
    """
    identity = []
    inputs = []
    for name, value in args.items():
        if name in written:
            continue
        if isinstance(value, Buffer):
            value = value.data
            if not frozen_array(value):
                return None
        elif isinstance(value, SCALAR_TYPES):
            identity.append((name, type(value), value))
            continue
        elif not frozen_record(value):
            return None
        identity.append((name, id(value)))
        inputs.append(value)
    return tuple(identity), tuple(inputs)


@dataclass(frozen=True)
class UnitCostBreakdown:
    """Per-unit cost components (arrays over units)."""

    compute_cycles: np.ndarray
    bandwidth_cycles: np.ndarray
    exposed_cycles: np.ndarray  # latency + atomics + loop overhead


#: What pricing reads about one access site besides the IR and trips:
#: ``(space, working_set, buffer_bytes, dynamic_stride)``.  A launch binds
#: it from its arguments; the static cost bound passes endpoints.
AccessSite = Tuple[MemorySpace, np.ndarray, float, Optional[np.ndarray]]


def placed_space(
    placements: Mapping[str, str], access: MemoryAccess, buffer: Optional[Buffer]
) -> str:
    """Memory space serving an access: its IR placement, else the bound
    buffer's space, else global."""
    default = buffer.space.value if buffer is not None else "global"
    return placements.get(access.buffer, default)


def workgroup_fixed_cycles(device: Device, ir: KernelIR) -> float:
    """Per-work-group cycles independent of the units it covers:
    scratchpad staging plus dispatch."""
    return (
        device.scratchpad_cycles_per_group(ir)
        + device.spec.workgroup_dispatch_overhead
    )


def price_units(
    device: Device,
    memory: MemoryModel,
    ir: KernelIR,
    trips: TripTable,
    sites: Iterable[AccessSite],
) -> UnitCostBreakdown:
    """Per-unit cost components of ``ir`` on ``device``: the one home of
    the pricing formula.

    ``sites`` holds one :data:`AccessSite` per ``ir.accesses`` entry;
    ``memory`` is ``device.memory``, or the static cost bound's widened
    view of it (:mod:`repro.analyze.costbound`).
    """
    compute = device.compute_cycles(ir, trips.flops(), ir.work_group_threads)
    cost = AccessCost.zero(trips.units)
    atomic_cycles = np.zeros(trips.units)
    for access, (space, working_set, buffer_bytes, stride) in zip(
        ir.accesses, sites
    ):
        useful_bytes = access.bytes_per_trip * trips.access(access)
        cost = cost + memory.access_cost(
            access, useful_bytes, working_set, buffer_bytes, ir, space, stride
        )
        if access.atomic is AtomicKind.GLOBAL:
            atomic_cycles += useful_bytes / ELEM_BYTES * device.atomic_cycles_per_op()

    exposed = (
        cost.latency_cycles + atomic_cycles + _loop_bookkeeping(device, ir, trips)
    )
    return UnitCostBreakdown(compute, cost.bandwidth_cycles, exposed)


def _loop_bookkeeping(device: Device, ir: KernelIR, trips: TripTable) -> np.ndarray:
    """Per-unit loop setup and trip bookkeeping cycles.

    Every loop charges a setup cost per *instance* (once per iteration
    of its enclosing loops) and a per-trip branch cost; only the
    innermost loop's trips are amortized by unrolling.  Short
    data-dependent inner loops are therefore setup-dominated, which is
    what makes loop order matter for irregular inputs (paper §4.4's
    DFO/BFO crossover).
    """
    spec = device.spec
    bookkeeping = np.zeros(trips.units)
    instances = np.ones(trips.units)
    for index, loop in enumerate(ir.loops):
        iterations = instances * trips.by_loop[loop.name]
        per_trip = spec.loop_overhead_cycles
        if index == len(ir.loops) - 1:
            # The innermost loop's bookkeeping amortizes over both
            # unrolling and SIMD lanes (a vectorized loop takes 1/w
            # as many trips).
            per_trip /= ir.unroll_factor * max(1, ir.vector_width)
            if ir.prefetch:
                # Prefetch instructions occupy an issue slot per trip.
                per_trip += 0.6
        bookkeeping += instances * spec.loop_setup_cycles
        bookkeeping += iterations * per_trip
        instances = iterations
    return bookkeeping


class CostModel:
    """Prices work-groups of a variant on one device."""

    def __init__(self, device: Device) -> None:
        self.device = device
        #: Memo key component identifying the pricing-relevant device
        #: state (see :func:`_device_id`).
        self._device_key = _device_id(
            (
                type(device).__qualname__,
                device.spec,
                device.memory.levels,
                device.memory.dram,
            )
        )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def workgroup_cycles(
        self,
        variant: KernelVariant,
        args: Mapping[str, object],
        units: WorkRange,
    ) -> np.ndarray:
        """True (noise-free) cycles for each work-group covering ``units``.

        ``units`` must be aligned to the variant's ``wa_factor`` (safe
        point analysis guarantees this for profiling slices; whole-launch
        ranges start at zero and are trivially aligned).

        Results are memoized per (IR hash, device, packing factor, range
        length, buffer shapes and placements).  A statically priced IR
        (:func:`statically_priced`) needs nothing more, so one entry
        serves every launch of a workload class.  An IR with evaluators
        also keys on its evaluator functions, the range start and the
        identity of every argument it does not write; when one of those
        inputs is not frozen the launch is priced uncached.  Hits return
        the cached (read-only) array.  The memo is a pure cache: hits
        are bit-identical to the computation they skip.
        """
        global _MEMO_HITS, _MEMO_MISSES
        if units.empty:
            return np.zeros(0)
        key, inputs = self._memo_key(variant, args, units)
        if key is not None:
            with _MEMO_LOCK:
                entry = _COST_MEMO.get(key)
                if entry is not None:
                    if entry.alive[0]:
                        _MEMO_HITS += 1
                        return entry.cycles
                    del _COST_MEMO[key]
                generation = _MEMO_GEN
        result = self._workgroup_cycles_uncached(variant, args, units)
        if key is not None:
            result.setflags(write=False)
            entry = _Entry(result, inputs)
            with _MEMO_LOCK:
                _MEMO_MISSES += 1
                if _MEMO_GEN == generation:
                    _store(key, entry)
        return result

    def _memo_key(
        self,
        variant: KernelVariant,
        args: Mapping[str, object],
        units: WorkRange,
    ) -> Tuple[Optional[Tuple], Tuple[object, ...]]:
        """Memo key for a launch and the inputs its entry watches, or
        ``(None, ())`` when the launch must not be cached.

        Only wa-aligned ranges qualify: alignment makes the group
        partition a function of the range *length* alone, so profiling
        slices of a statically priced IR at different offsets share one
        entry.  A misaligned range falls through to the uncached path
        (which rejects it the same way it always has).

        The size and space of each buffer an access or working-set hint
        names stand for the buffer: with the IR's placements (part of
        its hash) they fix every ``placed_space`` and byte size pricing
        reads.  The space enters as its string value, which hashes in C
        (an ``Enum`` member hashes through a Python-level ``__hash__``).
        """
        if units.start % variant.wa_factor != 0:
            return None, ()
        facts = _ir_facts(variant.ir)
        sizes = []
        for name in facts.sized:
            value = args.get(name)
            sizes.append(
                (value.data.nbytes, value.space.value)
                if isinstance(value, Buffer)
                else None
            )
        key = (
            facts.hash,
            self._device_key,
            variant.wa_factor,
            len(units),
            tuple(sizes),
        )
        if not facts.evaluators:
            return key, ()
        frozen = _frozen_inputs(args, facts.written)
        if frozen is None:
            return None, ()
        identity, inputs = frozen
        return key + (facts.evaluators, units.start, identity), inputs

    def _workgroup_cycles_uncached(
        self,
        variant: KernelVariant,
        args: Mapping[str, object],
        units: WorkRange,
    ) -> np.ndarray:
        """Full cost derivation (the memo's fill path)."""
        unit_ids = np.arange(units.start, units.end, dtype=np.int64)
        breakdown = self.unit_costs(variant.ir, args, unit_ids)

        offsets = variant.group_ids_for_units(units) * variant.wa_factor - units.start
        compute = np.add.reduceat(breakdown.compute_cycles, offsets)
        bandwidth = np.add.reduceat(breakdown.bandwidth_cycles, offsets)
        exposed = np.add.reduceat(breakdown.exposed_cycles, offsets)

        per_group_fixed = workgroup_fixed_cycles(self.device, variant.ir)
        return np.maximum(compute, bandwidth) + exposed + per_group_fixed

    def unit_costs(
        self,
        ir: KernelIR,
        args: Mapping[str, object],
        unit_ids: np.ndarray,
    ) -> UnitCostBreakdown:
        """Evaluate per-unit cost components for the given unit ids.

        Binds each loop bound once (:class:`TripTable`) and each access
        site's facts from ``args``, then prices them with
        :func:`price_units`.
        """
        ids = np.asarray(unit_ids, dtype=np.int64)
        trips = TripTable(ir, args, ids)
        memory = self.device.memory
        placements = dict(ir.placements)
        sites = []
        for access in ir.accesses:
            buffer = self._buffer_arg(args, access.buffer)
            hint = self._buffer_arg(args, access.working_set_hint)
            stride = access.stride_evaluator
            sites.append(
                (
                    MemorySpace(placed_space(placements, access, buffer)),
                    memory.working_set(access, args, ids, buffer, hint),
                    float(buffer.nbytes) if buffer is not None else float("inf"),
                    None if stride is None else np.asarray(stride(args, ids), float),
                )
            )
        return price_units(self.device, memory, ir, trips, sites)

    def launch_cycles(
        self,
        variant: KernelVariant,
        args: Mapping[str, object],
        units: WorkRange,
    ) -> float:
        """Total serialized cycles if the work-groups ran on one unit.

        Convenience for tests and analytical baselines; the engine computes
        actual makespans with concurrency.
        """
        return float(np.sum(self.workgroup_cycles(variant, args, units)))

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _buffer_arg(
        args: Mapping[str, object], name: Optional[str]
    ) -> Optional[Buffer]:
        """Resolve an argument to a Buffer, or None for scalars/missing."""
        if not name:
            return None
        value = args.get(name)
        return value if isinstance(value, Buffer) else None
