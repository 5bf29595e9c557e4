"""Shared fixtures: devices, configs, and a tiny synthetic kernel family.

The synthetic "axpy" kernel gives most tests a controllable pool: variants
differ only in access pattern (unit-stride vs strided), so which one is
faster is known by construction, outputs are exactly checkable, and pools
of any size can be assembled cheaply.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator

import numpy as np
import pytest

from repro.config import ReproConfig
from repro.device import engine as engine_mod
from repro.device import make_cpu, make_gpu
from repro.kernel import (
    AccessPattern,
    ArgSpec,
    KernelIR,
    KernelSignature,
    KernelSpec,
    KernelVariant,
    Loop,
    LoopBound,
    MemoryAccess,
)
from repro.kernel.buffers import Buffer
from tests.device.engine_reference import advance_per_work_group

#: Elements each axpy workload unit scales.
AXPY_UNIT = 64


def _no_quiet_passes(self, pending, eager=(), deadline=float("inf")) -> int:
    """Stand-in poll closed form that covers nothing: poll by poll."""
    return 0


@contextlib.contextmanager
def forced_engine_path(drain: bool, quiet_passes: bool = True) -> Iterator[None]:
    """Pin the engine's scheduling path inside the block.

    ``drain=False`` swaps the per-work-group reference
    (:func:`tests.device.engine_reference.advance_per_work_group`) in
    for ``ExecutionEngine._advance_to``, so no work-group goes out in a
    run; ``quiet_passes=False`` patches
    ``ExecutionEngine.poll_quiet_passes`` to cover no pass, so the
    asynchronous flow polls one poll at a time.  Subclass probes that
    call ``super()`` see the patches too.
    """
    engine_cls = engine_mod.ExecutionEngine
    saved = (engine_cls._advance_to, engine_cls.poll_quiet_passes)
    if not drain:
        engine_cls._advance_to = advance_per_work_group
    if not quiet_passes:
        engine_cls.poll_quiet_passes = _no_quiet_passes
    try:
        yield
    finally:
        engine_cls._advance_to, engine_cls.poll_quiet_passes = saved


@pytest.fixture
def config() -> ReproConfig:
    """Deterministic default configuration."""
    return ReproConfig()


@pytest.fixture
def quiet_config() -> ReproConfig:
    """Configuration with noise disabled (exact timing assertions)."""
    return ReproConfig().without_noise()


@pytest.fixture
def cpu(config):
    """Default CPU model."""
    return make_cpu(config)


@pytest.fixture
def gpu(config):
    """Default GPU model."""
    return make_gpu(config)


def axpy_signature() -> KernelSignature:
    """y = 2 * x over float32 vectors."""
    return KernelSignature(
        "axpy",
        (ArgSpec("x"), ArgSpec("y", is_output=True)),
    )


def axpy_executor(args, unit_start: int, unit_end: int) -> None:
    """Functional body shared by all synthetic variants."""
    x = args["x"].data
    y = args["y"].data
    y[unit_start * AXPY_UNIT : unit_end * AXPY_UNIT] = (
        2.0 * x[unit_start * AXPY_UNIT : unit_end * AXPY_UNIT]
    )


def make_axpy_variant(
    name: str,
    pattern: AccessPattern = AccessPattern.UNIT_STRIDE,
    trips: int = 16,
    wa_factor: int = 1,
    stride_bytes: int = 0,
    flops_per_trip: float = 32.0,
) -> KernelVariant:
    """One synthetic variant; STRIDED patterns are slower by construction."""
    if pattern is AccessPattern.STRIDED and stride_bytes == 0:
        stride_bytes = 64
    ir = KernelIR(
        loops=(Loop("k", LoopBound(static_trips=trips)),),
        accesses=(
            MemoryAccess(
                "x",
                False,
                pattern,
                4.0 * AXPY_UNIT / trips,
                loop="k",
                stride_bytes=stride_bytes,
            ),
            MemoryAccess(
                "y",
                True,
                AccessPattern.UNIT_STRIDE,
                4.0 * AXPY_UNIT / trips,
                loop="k",
            ),
        ),
        flops_per_trip=flops_per_trip,
        work_group_threads=AXPY_UNIT,
    )
    return KernelVariant(
        name=name,
        ir=ir,
        executor=axpy_executor,
        wa_factor=wa_factor,
        work_group_size=AXPY_UNIT,
    )


def make_axpy_args(units: int, config: ReproConfig) -> Dict[str, object]:
    """Fresh argument mapping for an axpy launch over ``units`` units."""
    rng = config.rng("axpy-args", units)
    x = rng.standard_normal(units * AXPY_UNIT).astype(np.float32)
    return {
        "x": Buffer("x", x, writable=False),
        "y": Buffer("y", np.zeros(units * AXPY_UNIT, dtype=np.float32)),
    }


def axpy_output_ok(args) -> bool:
    """Whole-vector correctness check."""
    return bool(np.allclose(args["y"].data, 2.0 * args["x"].data))


@pytest.fixture
def axpy_spec() -> KernelSpec:
    """Kernel spec for the synthetic family."""
    return KernelSpec(signature=axpy_signature())


def fast_slow_pool_build():
    """A two-variant pool where 'fast' beats 'slow' by construction."""
    from repro.compiler.variants import VariantPool

    return VariantPool(
        spec=KernelSpec(signature=axpy_signature()),
        variants=(
            make_axpy_variant("fast", AccessPattern.UNIT_STRIDE),
            make_axpy_variant("slow", AccessPattern.STRIDED),
        ),
    )


@pytest.fixture
def fast_slow_pool(axpy_spec):
    """Fixture form of :func:`fast_slow_pool_build`."""
    from repro.compiler.variants import VariantPool

    return VariantPool(
        spec=axpy_spec,
        variants=(
            make_axpy_variant("fast", AccessPattern.UNIT_STRIDE),
            make_axpy_variant("slow", AccessPattern.STRIDED),
        ),
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_fixture_setup(fixturedef, request):
    """Clear the cost-kernel memo after any broader-scoped fixture sets up.

    Class-, module- and session-scoped fixtures set up before the
    function-scoped leak guard below; one that prices a statically priced
    kernel (building or running a case) fills the memo, which would make
    the guard fail at setup — and a guard that fails at setup never
    reaches the teardown that clears the memo, so every later test would
    error too.  The memo is a pure cache, so dropping it changes nothing
    the fixture built.
    """
    from repro.device.cost import clear_cost_memo

    yield
    if fixturedef.scope != "function":
        clear_cost_memo()


@pytest.fixture(autouse=True)
def _no_global_state_leaks():
    """Fail any test that leaves shared module state mutated.

    Cross-test pollution through these globals is the classic source of
    order-dependent flakiness, so the suite polices them instead of
    trusting every test to clean up:

    - ``repro.config.DEFAULT_CONFIG`` must stay the pristine defaults,
    - the shared ``NULL_TRACER`` must never be switched on,
    - ``ExecutionEngine._advance_to`` patches (which force the
      per-work-group path) must be undone,
    - ``ExecutionEngine.poll_quiet_passes`` patches (which force the
      per-poll loop) must be undone,
    - the process-wide cost-kernel memo must be empty when a test starts
      (each test sees cold caches; the memo is cleared after every test).
    """
    import repro.config as config_mod
    from repro.device.cost import clear_cost_memo, cost_memo_stats
    from repro.obs.tracer import NULL_TRACER

    assert cost_memo_stats()["entries"] == 0, (
        "cost-kernel memo not empty at test start"
    )
    default_before = config_mod.DEFAULT_CONFIG
    advance_before = engine_mod.ExecutionEngine._advance_to
    quiet_before = engine_mod.ExecutionEngine.poll_quiet_passes
    yield
    clear_cost_memo()
    assert config_mod.DEFAULT_CONFIG is default_before, (
        "test rebound repro.config.DEFAULT_CONFIG"
    )
    assert config_mod.DEFAULT_CONFIG == ReproConfig(), (
        "test mutated repro.config.DEFAULT_CONFIG in place"
    )
    assert NULL_TRACER.enabled is False, (
        "test enabled the shared NULL_TRACER"
    )
    assert engine_mod.ExecutionEngine._advance_to is advance_before, (
        "test left ExecutionEngine._advance_to patched"
    )
    assert engine_mod.ExecutionEngine.poll_quiet_passes is quiet_before, (
        "test left ExecutionEngine.poll_quiet_passes patched"
    )
