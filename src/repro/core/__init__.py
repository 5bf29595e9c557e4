"""DySel: the dynamic-selection runtime (the paper's contribution).

The runtime accepts a *pool* of kernel variants per kernel signature
(:mod:`~repro.core.registry`), and at launch time micro-profiles the
candidates on a small slice of the actual workload — productively, so
profiled work contributes to the final output
(:mod:`~repro.core.productive`) — then processes the remaining workload
with the winner (:mod:`~repro.core.orchestrator`, synchronous or
asynchronous flow).  Selection state persists across launches so iterative
solvers profile once (:mod:`~repro.core.selection`,
:mod:`~repro.core.policy`).

:mod:`~repro.core.api` exposes the paper-faithful functional facade
(``DySelAddKernel`` / ``DySelLaunchKernel``, Fig 6); most code should use
:class:`~repro.core.runtime.DySelRuntime` directly.
"""

from ..modes import OrchestrationFlow, ProfilingMode
from .api import DySelContext
from .policy import (
    LaunchContext,
    PlacementCandidate,
    PlacementDecision,
    decide_placement,
)
from .registry import DySelKernelRegistry
from .runtime import DySelRuntime, LaunchResult
from .selection import SelectionCache, SelectionRecord, VariantMeasurement

__all__ = [
    "DySelContext",
    "DySelKernelRegistry",
    "DySelRuntime",
    "LaunchContext",
    "LaunchResult",
    "OrchestrationFlow",
    "PlacementCandidate",
    "PlacementDecision",
    "ProfilingMode",
    "SelectionCache",
    "SelectionRecord",
    "VariantMeasurement",
    "decide_placement",
]
