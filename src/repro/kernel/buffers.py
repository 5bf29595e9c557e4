"""Device buffers: typed views over numpy arrays.

A :class:`Buffer` is the unit of data a kernel reads or writes.  It wraps a
numpy array and records which simulated *memory space* it lives in — the
data-placement optimization the paper evaluates in Case Study II moves
buffers between these spaces (global, scratchpad, texture, constant), which
changes access cost on the GPU model but never changes functional results.

Buffers also support the sandbox/private-output mechanics of partial
productive profiling (paper §2.2): :meth:`Buffer.sandbox_copy` creates a
throwaway clone for non-committing profiling runs, and
:meth:`Buffer.swap_contents` installs a private output as the final one.

Read-only buffers are *frozen*: ``Buffer(writable=False)`` clears the
backing array's numpy ``writeable`` flag, so a stray write raises instead
of silently changing an input.  The cost model relies on this contract to
price a data-reading kernel once per input (:func:`frozen_array`).
"""

from __future__ import annotations

import enum
from dataclasses import fields
from functools import lru_cache
from typing import FrozenSet, Optional, Tuple

import numpy as np

from ..errors import BufferError_


class MemorySpace(enum.Enum):
    """Simulated memory spaces a buffer can be placed in.

    These mirror the placement targets of PORPLE [7] and Jang et al. [15]:
    GPU global memory (DRAM through L2), scratchpad (shared memory),
    texture (read-only cache path), and constant memory.  On the CPU model
    every space is lowered to the uniform cache hierarchy — which is exactly
    why scratchpad tiling hurts on CPUs in Fig 10a (copy cost, no latency
    gain).
    """

    GLOBAL = "global"
    SCRATCHPAD = "scratchpad"
    TEXTURE = "texture"
    CONSTANT = "constant"


def frozen_array(array: object) -> bool:
    """True when ``array`` is an ndarray whose contents cannot change.

    That holds only when the array and every object on its ``.base``
    chain are read-only ndarrays: a read-only view of a writable base
    changes whenever the base is written, and a non-array base (a
    ``bytearray``, an ``mmap``) may be written outside numpy.
    """
    while array is not None:
        if not isinstance(array, np.ndarray) or array.flags.writeable:
            return False
        array = array.base
    return True


#: Values that are immutable by type: a frozen record may hold them, and
#: the cost model keys a launch argument of one of these types by value.
SCALAR_TYPES = (int, float, str, type(None), np.generic)

#: Dataclass field metadata key marking a cache derived from a record's
#: other fields (``CsrMatrix``'s per-block statistics): filling it in
#: changes no answer the record gives, so :func:`frozen_record` skips it.
DERIVED = "derived"


def _frozen_value(value: object) -> bool:
    """True for a frozen array, a scalar, or a tuple of these."""
    if isinstance(value, np.ndarray):
        return frozen_array(value)
    if isinstance(value, tuple):
        return all(_frozen_value(item) for item in value)
    return isinstance(value, SCALAR_TYPES)


@lru_cache(maxsize=None)
def _derived_fields(cls: type) -> FrozenSet[str]:
    """Names of the fields of dataclass ``cls`` marked :data:`DERIVED`."""
    return frozenset(
        item.name for item in fields(cls) if item.metadata.get(DERIVED)
    )


def frozen_record(value: object) -> bool:
    """True when ``value`` is a weakly referenceable frozen dataclass
    whose contents cannot change (a ``CsrMatrix``, say).

    Every attribute must be a frozen array, a scalar, or a tuple of
    these; only fields marked :data:`DERIVED` are exempt.  A list, a
    dict, a :class:`Buffer` or a nested record can change behind the
    record's identity, so holding one makes the record unfrozen.
    """
    cls = type(value)
    params = getattr(cls, "__dataclass_params__", None)
    if params is None or not params.frozen or not hasattr(cls, "__weakref__"):
        return False
    state = getattr(value, "__dict__", None)
    if state is None:
        return False
    derived = _derived_fields(cls)
    for name, item in state.items():
        if name not in derived and not _frozen_value(item):
            return False
    return True


class Buffer:
    """A named, typed device buffer backed by a numpy array.

    Parameters
    ----------
    name:
        Human-readable name used in error messages and access descriptors.
    data:
        The backing numpy array.  The buffer takes ownership of the array;
        callers should not mutate it except through kernel execution.
    space:
        The simulated memory space the buffer is placed in.
    writable:
        Whether kernels may write this buffer.  Placement into TEXTURE or
        CONSTANT space requires ``writable=False``, matching hardware.
        ``writable=False`` also freezes the caller's array: its numpy
        ``writeable`` flag is cleared, so any later write to it raises
        ``ValueError``.  (A view stays writable through a writable base;
        see :func:`frozen_array`.)
    """

    def __init__(
        self,
        name: str,
        data: np.ndarray,
        space: MemorySpace = MemorySpace.GLOBAL,
        writable: bool = True,
    ) -> None:
        if not isinstance(data, np.ndarray):
            raise BufferError_(
                f"buffer {name!r} requires a numpy array, got {type(data).__name__}"
            )
        if space in (MemorySpace.TEXTURE, MemorySpace.CONSTANT) and writable:
            raise BufferError_(
                f"buffer {name!r} in {space.value} space must be read-only"
            )
        if not writable:
            data.setflags(write=False)
        self.name = name
        self.data = data
        self.space = space
        self.writable = writable

    @property
    def nbytes(self) -> int:
        """Size of the backing storage in bytes."""
        return int(self.data.nbytes)

    @property
    def shape(self) -> Tuple[int, ...]:
        """Shape of the backing array."""
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        """Element dtype of the backing array."""
        return self.data.dtype

    def replaced(
        self,
        space: Optional[MemorySpace] = None,
        writable: Optional[bool] = None,
    ) -> "Buffer":
        """Return a buffer sharing this data but with placement changed.

        Data placement transforms use this: the numpy contents are shared
        (placement never changes functional behaviour), only the simulated
        space differs.  The shared array's flags never change: a read-only
        alias of writable data leaves it writable for the buffers that
        write it (so the alias is not frozen, see :func:`frozen_array`),
        and a writable alias of a read-only array is refused.
        """
        space = self.space if space is None else space
        writable = self.writable if writable is None else writable
        if writable and not self.data.flags.writeable:
            raise BufferError_(
                f"buffer {self.name!r} is read-only; copy its data to write it"
            )
        if writable or not self.data.flags.writeable:
            return Buffer(self.name, self.data, space=space, writable=writable)
        alias = Buffer(self.name, self.data)
        alias.space = space
        alias.writable = False
        return alias

    def sandbox_copy(self, label: str = "sandbox") -> "Buffer":
        """Return a deep copy for sandboxed profiling (hybrid mode).

        The copy is writable and placed in the same space; writes to it are
        discarded after profiling.
        """
        if not self.writable:
            raise BufferError_(
                f"cannot sandbox read-only buffer {self.name!r}; sandboxes "
                "exist to absorb writes"
            )
        return Buffer(
            f"{self.name}.{label}",
            self.data.copy(),
            space=self.space,
            writable=True,
        )

    def swap_contents(self, other: "Buffer") -> None:
        """Install ``other``'s contents as this buffer's contents.

        Swap-based partial-productive profiling keeps one private output per
        profiled variant; the winner's private output becomes the final
        output (paper Fig 3c).  Shapes and dtypes must match.
        """
        if other.data.shape != self.data.shape:
            raise BufferError_(
                f"cannot swap {other.name!r} (shape {other.data.shape}) into "
                f"{self.name!r} (shape {self.data.shape})"
            )
        if other.data.dtype != self.data.dtype:
            raise BufferError_(
                f"cannot swap {other.name!r} (dtype {other.data.dtype}) into "
                f"{self.name!r} (dtype {self.data.dtype})"
            )
        if not self.writable:
            raise BufferError_(f"cannot swap into read-only buffer {self.name!r}")
        self.data[...] = other.data

    def __repr__(self) -> str:
        return (
            f"Buffer({self.name!r}, shape={self.data.shape}, "
            f"dtype={self.data.dtype}, space={self.space.value}, "
            f"writable={self.writable})"
        )
