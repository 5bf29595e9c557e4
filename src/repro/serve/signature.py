"""Input-aware workload signatures: the persistent cache's key space.

A cached kernel selection is only reusable when the *workload shape* that
produced it recurs — the paper's Case Study IV (§4.4) shows the winning
variant flipping between a random and a diagonal matrix at the same size,
so "same kernel" is not a sufficient key.  This module derives a compact
:class:`WorkloadSignature` from a launch's arguments: coarse size buckets
plus sparsity/regularity features for sparse inputs, quantized so that
noise-level input variation maps to the same key while regime changes
(cache-resident vs DRAM-resident, regular vs irregular) map to different
keys.

A :class:`~repro.kernel.buffers.Buffer` (the exact class) contributes
its footprint bucket directly: a buffer is dense by construction, so it
skips the probes below.  Every other argument is duck-typed, not
imported from :mod:`repro.workloads` — anything exposing the CSR-matrix
surface (``rows``/``cols``/``nnz``/``row_nnz``) contributes sparsity
features, anything exposing a buffer surface (``data`` ndarray)
contributes footprint features — so user workloads outside the
benchmark suite get input-aware keys for free.  Both branches give a
buffer the same feature.

The features are sorted, so the order of the arguments does not matter.
Derivations of one class share one signature object, and with it one
joined key: the last 1,024 classes derived are kept.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from ..kernel.buffers import Buffer, frozen_record

#: Quantization step for the row-length coefficient of variation.  One
#: step separates "perfectly regular" (banded/diagonal, cv ~ 0) from
#: "mildly irregular" (uniform random, cv ~ 0.3) from "power-law" inputs.
CV_BUCKET_STEP = 0.25


def log2_bucket(value: float) -> int:
    """Floor-of-log2 size bucket (values < 1 collapse to bucket 0).

    Doubling the workload moves one bucket; same-regime sizes share one.
    """
    if value < 1:
        return 0
    return int(math.floor(math.log2(value)))


@dataclass(frozen=True)
class WorkloadSignature:
    """One launch's workload class, as a stable hashable key.

    ``features`` is a sorted tuple of ``(name, value)`` pairs — the
    bucketed observations extracted from the arguments.  Two launches
    with equal signatures are assumed interchangeable for selection
    purposes: a variant measured as fastest for one is trusted for the
    other without re-profiling.

    ``key``, the canonical string form and the persistent store's key,
    is joined once when the signature is built.  It is kept on the
    instance outside the fields, so equality, hashing and
    ``dataclasses.replace`` see only ``kernel``, ``device_kind`` and
    ``features`` (a replaced signature joins its own key).
    """

    kernel: str
    device_kind: str
    features: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        parts = [self.kernel, self.device_kind]
        parts.extend(f"{name}={value}" for name, value in self.features)
        object.__setattr__(self, "_key", "|".join(parts))

    @property
    def key(self) -> str:
        """Canonical string form, used as the persistent store's key."""
        return self._key

    def __str__(self) -> str:
        return self.key


def _sparse_features(name: str, value: object) -> Tuple[Tuple[str, str], ...]:
    """Sparsity/regularity features of one CSR-shaped argument."""
    rows = int(value.rows)  # type: ignore[attr-defined]
    cols = int(value.cols)  # type: ignore[attr-defined]
    nnz = int(value.nnz)  # type: ignore[attr-defined]
    row_nnz = np.asarray(value.row_nnz, dtype=float)  # type: ignore[attr-defined]
    features = [
        (f"{name}.rows^2", str(log2_bucket(rows))),
        (f"{name}.nnz^2", str(log2_bucket(nnz))),
    ]
    if nnz <= 0 or row_nnz.size == 0:
        # Degenerate sparsity (no stored entries, or no per-row shape
        # information).  Without an explicit marker these inputs would
        # silently drop the density/regularity features below and alias
        # with dense-regime classes that share the same size buckets.
        features.append((f"{name}.empty", "1"))
    if rows > 0 and cols > 0 and nnz > 0:
        density = nnz / (float(rows) * float(cols))
        # One bucket per decade of density: 1% and 0.8% share a key,
        # 1% and 0.01% do not.  Duplicate entries can push nnz past
        # rows*cols (density > 1), which would produce a *negative*
        # decade — clamp to bucket 0 ("dense"), same as density 1.0.
        bucket = (
            max(0, int(round(-math.log10(density))))
            if math.isfinite(density) and density > 0
            else 0
        )
        features.append((f"{name}.density^10", str(bucket)))
    if row_nnz.size:
        mean = float(row_nnz.mean())
        features.append((f"{name}.rownnz^2", str(log2_bucket(mean))))
        # Regularity: coefficient of variation of row lengths, the
        # feature behind the DFO/BFO crossover (short regular rows are
        # loop-setup-dominated; long irregular rows are not).
        cv = float(row_nnz.std() / mean) if mean > 0 else 0.0
        if not math.isfinite(cv):
            cv = 0.0
        features.append(
            (f"{name}.cv", str(int(round(cv / CV_BUCKET_STEP))))
        )
    return tuple(features)


#: Sparse features of frozen inputs, keyed by (argument name, ``id``):
#: each entry holds a weak reference to its input and the features.
_SPARSE_FEATURES: Dict[
    Tuple[str, int], Tuple[weakref.ref, Tuple[Tuple[str, str], ...]]
] = {}


def _forget(key: Tuple[str, int], ref: weakref.ref) -> None:
    """Drop the entry of a dead input (unless a live one replaced it).

    A weak reference's callback runs before its input's memory is freed,
    so no live input can hold the dead one's ``id`` yet.  It takes no
    lock, since garbage collection may run it inside any code.
    """
    entry = _SPARSE_FEATURES.get(key)
    if entry is not None and entry[0] is ref:
        _SPARSE_FEATURES.pop(key, None)


def _remembered(
    name: str, value: object
) -> Optional[Tuple[Tuple[str, str], ...]]:
    """The cached sparse features of argument ``name``, or None.

    Requests launch the same frozen matrix again and again, and its row
    lengths (``row_nnz`` may be computed on each read, the duck-type
    test's included), their mean and their spread cost more than the
    rest of a signature.  Only an input that
    :func:`~repro.kernel.buffers.frozen_record` accepts (the cost memo's
    predicate) is cached, since only its features cannot change; the
    predicate is checked again on every use.  The weak reference tells a
    live input from a dead one whose ``id`` was reused, and the entry
    goes when its input dies.
    """
    entry = _SPARSE_FEATURES.get((name, id(value)))
    if entry is None or entry[0]() is not value or not frozen_record(value):
        return None
    return entry[1]


def _remember(
    name: str, value: object, features: Tuple[Tuple[str, str], ...]
) -> None:
    """Cache the sparse features of a frozen input."""
    key = (name, id(value))
    _SPARSE_FEATURES[key] = (
        weakref.ref(value, lambda ref: _forget(key, ref)),
        features,
    )


@lru_cache(maxsize=1024)
def _footprint(name: str, nbytes: int) -> Tuple[str, str]:
    """Footprint bucket of a buffer-shaped argument of ``nbytes`` bytes.

    Requests bind the same few (name, size) pairs again and again, so
    the bucket is kept rather than re-derived.
    """
    return (f"{name}.bytes^2", str(log2_bucket(float(nbytes))))


def _is_sparse_like(value: object) -> bool:
    """Duck-typed CSR shape: rows/cols/nnz/row_nnz attributes."""
    return all(
        hasattr(value, attr) for attr in ("rows", "cols", "nnz", "row_nnz")
    )


def _is_buffer_like(value: object) -> bool:
    """Duck-typed dense buffer: a .data payload with .nbytes."""
    data = getattr(value, "data", None)
    return data is not None and hasattr(data, "nbytes")


@lru_cache(maxsize=1024)
def _signature(
    kernel: str, device_kind: str, features: Tuple[Tuple[str, str], ...]
) -> WorkloadSignature:
    """The signature of one class, shared by every derivation of it."""
    return WorkloadSignature(kernel, device_kind, features)


def derive_signature(
    kernel: str,
    device_kind: str,
    args: Mapping[str, object],
    workload_units: int,
) -> WorkloadSignature:
    """Derive the workload class of one launch.

    The units bucket always contributes (size regime); each argument
    contributes sparsity features (CSR-shaped), a footprint bucket
    (a :class:`~repro.kernel.buffers.Buffer`, or buffer-shaped), or
    nothing (scalars and opaque objects).  Sparse arguments suppress
    their redundant footprint feature.  A class derived before returns
    the signature it got then.
    """
    features = [("units^2", str(log2_bucket(workload_units)))]
    for name, value in args.items():
        if type(value) is Buffer:
            features.append(_footprint(name, value.data.nbytes))
            continue
        sparse = _remembered(name, value)
        if sparse is None and _is_sparse_like(value):
            sparse = _sparse_features(name, value)
            if frozen_record(value):
                _remember(name, value, sparse)
        if sparse is not None:
            features.extend(sparse)
        elif _is_buffer_like(value):
            features.append(
                _footprint(name, np.asarray(value.data).nbytes)  # type: ignore[attr-defined]
            )
    return _signature(kernel, device_kind, tuple(sorted(features)))
