"""Kernel signatures: the contract all variants of a kernel share.

DySel's registration API (paper Fig 6a) keys the kernel pool by *kernel
signature*: every variant registered under one signature must consume the
same arguments and produce the same outputs, so the runtime can substitute
one for another freely.  :class:`KernelSignature` captures that contract and
validates concrete argument dictionaries against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple

from ..errors import SignatureError
from .buffers import Buffer


@dataclass(frozen=True)
class ArgSpec:
    """Declaration of one kernel argument.

    Parameters
    ----------
    name:
        Argument name; keys the argument dictionary at launch.
    is_buffer:
        True for device buffers, False for scalars.
    is_output:
        True if kernels write this argument.  Only buffers can be outputs.
        Output arguments are what sandboxing and swapping operate on
        (``sandbox_index`` in the paper's registration API identifies them).
    """

    name: str
    is_buffer: bool = True
    is_output: bool = False

    def __post_init__(self) -> None:
        if self.is_output and not self.is_buffer:
            raise SignatureError(
                f"argument {self.name!r}: scalars cannot be outputs"
            )


@dataclass(frozen=True)
class KernelSignature:
    """Named kernel contract shared by all variants in a pool.

    The set of declared argument names is built once, with the
    signature, and kept on the instance outside the fields (equality,
    hashing and ``dataclasses.replace`` see only ``name`` and ``args``).
    """

    name: str
    args: Tuple[ArgSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name:
            raise SignatureError("kernel signature name must be non-empty")
        seen: set = set()
        for spec in self.args:
            if spec.name in seen:
                raise SignatureError(
                    f"kernel {self.name!r}: duplicate argument {spec.name!r}"
                )
            seen.add(spec.name)
        object.__setattr__(self, "_names", frozenset(seen))

    @property
    def output_names(self) -> Tuple[str, ...]:
        """Names of output buffer arguments, in declaration order."""
        return tuple(a.name for a in self.args if a.is_output)

    @property
    def buffer_names(self) -> Tuple[str, ...]:
        """Names of all buffer arguments, in declaration order."""
        return tuple(a.name for a in self.args if a.is_buffer)

    def arg(self, name: str) -> ArgSpec:
        """Look up one argument spec by name."""
        for spec in self.args:
            if spec.name == name:
                return spec
        raise SignatureError(f"kernel {self.name!r} has no argument {name!r}")

    def validate(self, args: Mapping[str, object]) -> Dict[str, object]:
        """Validate a concrete argument mapping against this signature.

        Checks that every declared argument is present, buffers are
        :class:`Buffer` instances, output buffers are writable, and no
        undeclared arguments are passed.  Returns a plain dict copy, in
        declaration order.
        """
        if not self._names.issuperset(args):
            raise SignatureError(
                f"kernel {self.name!r}: unknown arguments "
                f"{sorted(set(args) - self._names)}"
            )
        validated: Dict[str, object] = {}
        for spec in self.args:
            if spec.name not in args:
                raise SignatureError(
                    f"kernel {self.name!r}: missing argument {spec.name!r}"
                )
            value = args[spec.name]
            if spec.is_buffer:
                if not isinstance(value, Buffer):
                    raise SignatureError(
                        f"kernel {self.name!r}: argument {spec.name!r} must be "
                        f"a Buffer, got {type(value).__name__}"
                    )
                if spec.is_output and not value.writable:
                    raise SignatureError(
                        f"kernel {self.name!r}: output {spec.name!r} is bound "
                        f"to read-only buffer {value.name!r}"
                    )
            validated[spec.name] = value
        return validated
