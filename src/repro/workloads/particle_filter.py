"""particle filter: resampling search kernel (Rodinia).

The ``find_index`` step of Rodinia's particle filter: for each particle,
locate the first CDF entry exceeding its resampling threshold.  The search
loop's trip count is data dependent and exits early — the archetypal
irregular workload, profiled hybrid partial-productively (paper §4.2).

It appears in **Fig 9** (GPU data placement): four policies compete — two
from the PORPLE models, one from the Jang et al. rules, and Rodinia's
original all-global placement, which trails the best by ~1.17×.  Both
model-driven baselines get this one right; DySel confirms the choice with
at most 4% overhead.

The **workload unit** is a block of 64 particles; the paper's input size
is 32,000 particles.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Mapping

import numpy as np

from ..compiler.heuristics.jang import jang_placement
from ..compiler.heuristics.porple import GpuGeneration, porple_placement
from ..compiler.transforms.placement import place
from ..compiler.variants import VariantPool
from ..config import DEFAULT_CONFIG, ReproConfig
from ..kernel.buffers import Buffer
from ..kernel.ir import (
    GATHER_STRIDE,
    AccessPattern,
    KernelIR,
    Loop,
    LoopBound,
    MemoryAccess,
)
from ..kernel.kernel import KernelSpec, KernelVariant
from ..kernel.signature import ArgSpec, KernelSignature
from .base import BenchmarkCase

#: Particles per workload unit.
PARTICLES_PER_UNIT = 64
#: The paper's input size.
DEFAULT_PARTICLES = 32000


def pf_signature() -> KernelSignature:
    """The kernel contract every find_index variant implements."""
    return KernelSignature(
        "pf_find_index",
        (
            ArgSpec("cdf"),
            ArgSpec("u"),
            ArgSpec("index_out", is_output=True),
        ),
    )


def _executor(args: Mapping[str, object], unit_start: int, unit_end: int) -> None:
    """index_out[p] = first i with cdf[i] >= u[p]."""
    cdf = args["cdf"].data  # type: ignore[union-attr]
    u = args["u"].data  # type: ignore[union-attr]
    out = args["index_out"].data  # type: ignore[union-attr]
    p0 = unit_start * PARTICLES_PER_UNIT
    p1 = min(unit_end * PARTICLES_PER_UNIT, len(u))
    if p0 >= p1:
        return
    found = np.searchsorted(cdf, u[p0:p1], side="left")
    out[p0:p1] = np.minimum(found, len(cdf) - 1).astype(np.int32)


def _search_trips(args: Mapping[str, object], unit_ids: np.ndarray) -> np.ndarray:
    """Mean linear-search length per particle of each unit.

    The kernel scans the CDF linearly from the start and exits at the
    match — its cost is the mean matched index.  The thresholds ``u`` are
    stratified (sorted), so later units search further: genuinely
    non-uniform work across work-groups.
    """
    cdf = args["cdf"].data  # type: ignore[union-attr]
    u = args["u"].data  # type: ignore[union-attr]
    trips = np.zeros(len(unit_ids))
    positions = np.searchsorted(cdf, u)
    for index, unit in enumerate(np.asarray(unit_ids)):
        p0 = int(unit) * PARTICLES_PER_UNIT
        p1 = min(p0 + PARTICLES_PER_UNIT, len(u))
        trips[index] = float(np.mean(positions[p0:p1])) if p1 > p0 else 0.0
    return np.maximum(trips, 1.0)


def base_variant() -> KernelVariant:
    """Rodinia's find_index: one work-item per particle, linear search."""

    def search_footprint(args, unit_ids: np.ndarray) -> np.ndarray:
        return 4.0 * _search_trips(args, unit_ids)

    loops = (
        Loop(
            "wi_p",
            LoopBound(static_trips=PARTICLES_PER_UNIT),
            is_work_item_loop=True,
        ),
        Loop(
            "search",
            LoopBound(evaluator=_search_trips, description="CDF scan length"),
            has_early_exit=True,
        ),
    )
    accesses = (
        MemoryAccess(
            "cdf",
            False,
            AccessPattern.GATHER,
            4.0,
            loop="search",
            scope=("wi_p", "search"),
            strides_by_loop=(("wi_p", GATHER_STRIDE), ("search", 4)),
            working_set_hint="cdf",
            # The scan touches a prefix of the CDF; early particles stay
            # cache-resident, late ones span the whole array.
            footprint_hint=search_footprint,
        ),
        MemoryAccess(
            "u",
            False,
            AccessPattern.COALESCED,
            4.0,
            loop="wi_p",
            scope=("wi_p",),
            strides_by_loop=(("wi_p", 4), ("search", 0)),
        ),
        MemoryAccess(
            "index_out",
            True,
            AccessPattern.COALESCED,
            4.0,
            loop="wi_p",
            scope=("wi_p",),
            strides_by_loop=(("wi_p", 4), ("search", 0)),
        ),
    )
    ir = KernelIR(
        loops=loops,
        accesses=accesses,
        flops_per_trip=2.0,
        divergence=0.4,  # early exits desynchronize the warp
        work_group_threads=PARTICLES_PER_UNIT,
        notes=("find_index (linear CDF scan per particle)",),
    )
    return KernelVariant(
        name="find_index",
        ir=ir,
        executor=_executor,
        wa_factor=1,
        work_group_size=PARTICLES_PER_UNIT,
        description="resampling index search",
    )


def make_args_factory(
    particles: int = DEFAULT_PARTICLES, config: ReproConfig = DEFAULT_CONFIG
) -> Callable[[], Dict[str, object]]:
    """Argument factory with a fixed random weight CDF and thresholds."""
    rng = config.rng("particle_filter", particles)
    weights = rng.uniform(0.1, 1.0, size=particles).astype(np.float32)
    cdf = np.cumsum(weights / weights.sum()).astype(np.float32)
    # Stratified thresholds, as Rodinia's resampling draws them.
    u0 = rng.uniform(0.0, 1.0 / particles)
    u = (u0 + np.arange(particles) / particles).astype(np.float32)

    def make_args() -> Dict[str, object]:
        return {
            "cdf": Buffer("cdf", cdf, writable=False),
            "u": Buffer("u", u, writable=False),
            "index_out": Buffer(
                "index_out", np.full(particles, -1, dtype=np.int32)
            ),
        }

    return make_args


def make_checker(
    particles: int = DEFAULT_PARTICLES, config: ReproConfig = DEFAULT_CONFIG
):
    """Output validator against numpy searchsorted."""
    return _checker(make_args_factory(particles, config)())


def _checker(inputs: Mapping[str, object]):
    """Validator for the CDF and thresholds an argument factory drew."""
    cdf = inputs["cdf"].data  # type: ignore[union-attr]
    u = inputs["u"].data  # type: ignore[union-attr]
    expected = np.minimum(
        np.searchsorted(cdf, u, side="left"), len(cdf) - 1
    )

    def check(args: Mapping[str, object]) -> bool:
        out = args["index_out"].data  # type: ignore[union-attr]
        return bool(np.array_equal(out, expected))

    return check


def workload_units(particles: int = DEFAULT_PARTICLES) -> int:
    """Particle blocks of one launch."""
    return (particles + PARTICLES_PER_UNIT - 1) // PARTICLES_PER_UNIT


def placement_variants(
    particles: int = DEFAULT_PARTICLES, config: ReproConfig = DEFAULT_CONFIG
) -> List[KernelVariant]:
    """The four Fig 9 policies: Rodinia original + PORPLE ×2 + Jang."""
    return _placement_variants(make_args_factory(particles, config)())


def _placement_variants(inputs: Mapping[str, object]) -> List[KernelVariant]:
    """The Fig 9 policies, placing the buffers an argument factory drew."""
    base = base_variant()
    buffers = {"cdf": inputs["cdf"], "u": inputs["u"]}
    variants = [dataclasses.replace(base, name=f"{base.name},rodinia")]
    for generation in (GpuGeneration.KEPLER, GpuGeneration.FERMI):
        policy = porple_placement(base.ir, buffers, generation)
        placements = {
            name: space
            for name, space in policy.items()
            if space.value != "global"
        }
        if placements:
            variants.append(
                place(base, placements, label=f"porple-{generation.value}")
            )
        else:
            variants.append(
                dataclasses.replace(
                    base, name=f"{base.name},porple-{generation.value}"
                )
            )
    jang_policy = jang_placement(base.ir, buffers)
    jang_placements = {
        name: space
        for name, space in jang_policy.items()
        if space.value != "global"
    }
    if jang_placements:
        variants.append(place(base, jang_placements, label="jang"))
    else:
        variants.append(dataclasses.replace(base, name=f"{base.name},jang"))
    return variants


def placement_case(
    particles: int = DEFAULT_PARTICLES,
    config: ReproConfig = DEFAULT_CONFIG,
    iterations: int = 1,
) -> BenchmarkCase:
    """Fig 9: data placement for particle filter on the GPU."""
    make_args = make_args_factory(particles, config)
    inputs = make_args()
    variants = tuple(_placement_variants(inputs))
    pool = VariantPool(
        spec=KernelSpec(signature=pf_signature()),
        variants=variants,
    )
    return BenchmarkCase(
        name="particle-filter/gpu/placement",
        pool=pool,
        make_args=make_args,
        workload_units=workload_units(particles),
        iterations=iterations,
        check=_checker(inputs),
        notes="Case Study II: data placement, GPU",
    )
