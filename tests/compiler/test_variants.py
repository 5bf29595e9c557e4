"""Unit tests for variant pools and the mode recommendation."""

import numpy as np
import pytest

from repro.compiler.variants import VariantPool, recommend_mode
from repro.errors import RegistrationError
from repro.kernel import (
    AccessPattern,
    AtomicKind,
    Loop,
    LoopBound,
    MemoryAccess,
)
from repro.modes import ProfilingMode
from tests.conftest import make_axpy_variant


def variant_with_ir(name, **ir_overrides):
    import dataclasses

    base = make_axpy_variant(name)
    return dataclasses.replace(base, ir=base.ir.with_(**ir_overrides))


class TestRecommendMode:
    def test_regular_pool_fully(self, fast_slow_pool):
        assert recommend_mode(fast_slow_pool.variants) is ProfilingMode.FULLY

    def test_irregular_pool_hybrid(self):
        dyn = variant_with_ir(
            "dyn",
            loops=(
                Loop("d", LoopBound(evaluator=lambda a, i: np.ones(len(i)))),
            ),
            accesses=(),
        )
        assert recommend_mode([dyn]) is ProfilingMode.HYBRID

    def test_atomics_pool_swap(self):
        atomic = variant_with_ir(
            "a",
            accesses=(
                MemoryAccess(
                    "y",
                    True,
                    AccessPattern.GATHER,
                    4.0,
                    atomic=AtomicKind.GLOBAL,
                ),
            ),
        )
        assert recommend_mode([atomic]) is ProfilingMode.SWAP

    def test_swap_beats_hybrid(self):
        """Side effects dominate irregularity in the mode lattice."""
        both = variant_with_ir(
            "b",
            loops=(
                Loop("d", LoopBound(evaluator=lambda a, i: np.ones(len(i)))),
            ),
            accesses=(
                MemoryAccess(
                    "y",
                    True,
                    AccessPattern.GATHER,
                    4.0,
                    atomic=AtomicKind.GLOBAL,
                ),
            ),
        )
        assert recommend_mode([both]) is ProfilingMode.SWAP


class TestVariantPool:
    def test_defaults(self, fast_slow_pool):
        assert fast_slow_pool.mode is ProfilingMode.FULLY
        assert fast_slow_pool.initial_default == "fast"
        assert fast_slow_pool.variant_names == ("fast", "slow")

    def test_lookup(self, fast_slow_pool):
        assert fast_slow_pool.variant("slow").name == "slow"
        with pytest.raises(RegistrationError):
            fast_slow_pool.variant("missing")

    def test_empty_pool_rejected(self, axpy_spec):
        with pytest.raises(RegistrationError):
            VariantPool(spec=axpy_spec, variants=())

    def test_duplicate_names_rejected(self, axpy_spec):
        with pytest.raises(RegistrationError, match="duplicate"):
            VariantPool(
                spec=axpy_spec,
                variants=(make_axpy_variant("v"), make_axpy_variant("v")),
            )

    def test_unknown_default_rejected(self, axpy_spec):
        with pytest.raises(RegistrationError):
            VariantPool(
                spec=axpy_spec,
                variants=(make_axpy_variant("v"),),
                initial_default="nope",
            )

    def test_with_initial_default(self, fast_slow_pool):
        changed = fast_slow_pool.with_initial_default("slow")
        assert changed.initial_default == "slow"
        assert fast_slow_pool.initial_default == "fast"
