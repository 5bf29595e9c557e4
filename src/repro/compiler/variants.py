"""Variant pools: what the compiler hands to the DySel runtime.

A :class:`VariantPool` bundles the kernel contract, the candidate variants
(typically 2–10, paper §1), the compiler's recommended productive
profiling mode (from uniform-workload and side-effect analyses), and the
suggested initial default for asynchronous eager execution (paper §2.4's
``Kdefault``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..errors import RegistrationError
from ..kernel.kernel import KernelSpec, KernelVariant
from ..modes import ProfilingMode
from .analyses.safe_point import lcm_of
from .analyses.side_effect import analyze_side_effects
from .analyses.uniform import analyze_uniformity


def recommend_mode(variants: Sequence[KernelVariant]) -> ProfilingMode:
    """Compiler's conservative mode choice for a pool (paper §3.4).

    Side effects force swap-based profiling; otherwise a non-uniform
    workload forces hybrid; otherwise fully-productive applies.  Both
    analyses are conservative, and the launch API lets programmers
    override the result.
    """
    irs = [(variant.name, variant.ir) for variant in variants]
    if analyze_side_effects(irs).requires_swap:
        return ProfilingMode.SWAP
    if not analyze_uniformity(irs).uniform:
        return ProfilingMode.HYBRID
    return ProfilingMode.FULLY


@dataclass
class VariantPool:
    """The candidate set for one kernel signature.

    ``initial_default`` names the variant asynchronous eager execution
    starts with before profiling completes; when the compiler has no
    opinion it defaults to the first registered variant, mirroring how a
    conventional toolchain would simply ship its single static choice.
    """

    spec: KernelSpec
    variants: Tuple[KernelVariant, ...]
    mode: Optional[ProfilingMode] = None
    initial_default: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.variants:
            raise RegistrationError(
                f"kernel {self.spec.signature.name!r}: empty variant pool"
            )
        # The variant set is immutable after construction, so the name
        # tuple and the name -> variant map the launch path reads on
        # every request are built once here.
        self._by_name = {variant.name: variant for variant in self.variants}
        self._names = tuple(self._by_name)
        if len(self._names) != len(self.variants):
            names = [variant.name for variant in self.variants]
            duplicates = sorted(
                {name for name in names if names.count(name) > 1}
            )
            raise RegistrationError(
                f"kernel {self.spec.signature.name!r}: duplicate variant "
                f"names {duplicates}"
            )
        if self.mode is None:
            self.mode = recommend_mode(self.variants)
        if self.initial_default is None:
            self.initial_default = self.variants[0].name
        elif self.initial_default not in self._by_name:
            raise RegistrationError(
                f"kernel {self.spec.signature.name!r}: initial default "
                f"{self.initial_default!r} is not a registered variant"
            )

    @property
    def name(self) -> str:
        """Kernel signature name."""
        return self.spec.signature.name

    @property
    def variant_names(self) -> Tuple[str, ...]:
        """Registered variant names, in registration order."""
        return self._names

    @property
    def wa_lcm(self) -> int:
        """LCM of the pool's work-assignment factors (memoized).

        Eager chunking and mixed-plan slicing align every cut to this
        base on every launch; the variant set is immutable after
        construction, so the fold runs once per pool instead of once per
        launch on the orchestration hot path.
        """
        cached = self.__dict__.get("_wa_lcm")
        if cached is None:
            cached = lcm_of([variant.wa_factor for variant in self.variants])
            self.__dict__["_wa_lcm"] = cached
        return cached

    def variant(self, name: str) -> KernelVariant:
        """Look up one variant by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise RegistrationError(
                f"kernel {self.name!r} has no variant {name!r} "
                f"(registered: {list(self.variant_names)})"
            ) from None

    def with_initial_default(self, name: str) -> "VariantPool":
        """Return a copy with a different async-mode initial default."""
        return VariantPool(
            spec=self.spec,
            variants=self.variants,
            mode=self.mode,
            initial_default=name,
        )
