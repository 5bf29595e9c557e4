"""Launch gating: how verification verdicts reach the runtime.

``gate_launch`` resolves a requested (mode, flow) against a pool's
:class:`VerificationReport` under the configured verification level
(:attr:`ReproConfig.verify`):

* ``"strict"`` — an illegal combination raises
  :class:`~repro.errors.VerificationError` carrying the full structured
  diagnostics (rule ids, variants, fix hints) instead of a bare
  ``LaunchError``.
* ``"warn"`` — an illegal combination is auto-demoted to the nearest
  legal one (see :meth:`VerificationReport.demote`) and a
  :class:`VerificationWarning` is emitted; launches that cannot be
  demoted (no legal combination at all) still raise.
* ``"off"`` — the gate is bypassed entirely (callers keep the
  pre-verifier fallback behaviour).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from ..errors import VerificationError
from ..modes import OrchestrationFlow, ProfilingMode
from .diagnostics import VerificationReport


class VerificationWarning(UserWarning):
    """A launch was auto-demoted or carries non-blocking findings."""


@dataclass(frozen=True)
class GateDecision:
    """Resolved launch parameters after gating."""

    mode: ProfilingMode
    flow: OrchestrationFlow
    #: Human-readable note appended to the launch reason ("" when the
    #: request passed unchanged).
    note: str = ""

    @property
    def demoted(self) -> bool:
        """Whether the gate changed the requested combination."""
        return bool(self.note)


def gate_launch(
    report: VerificationReport,
    mode: ProfilingMode,
    flow: OrchestrationFlow,
    level: str,
) -> GateDecision:
    """Apply the verification gate to one launch request."""
    if level == "off" or report.is_legal(mode, flow):
        return GateDecision(mode=mode, flow=flow)

    blocking = report.blocking(mode, flow)
    if level == "strict":
        raise VerificationError(
            report.explain(mode, flow), diagnostics=blocking
        )

    demoted = report.demote(mode, flow)
    if demoted is None:
        # Nothing legal: warn-mode cannot demote its way out.
        raise VerificationError(
            report.explain(mode, flow), diagnostics=blocking
        )
    new_mode, new_flow = demoted
    rules = ",".join(sorted({d.rule_id for d in blocking}))
    if new_mode is mode and flow is OrchestrationFlow.ASYNC:
        # The paper's Table 1 fallback: same mode, synchronous flow.
        note = f"swap mode forced synchronous flow ({rules})" if (
            mode is ProfilingMode.SWAP
        ) else (
            f"{mode.value} mode forced synchronous flow ({rules})"
        )
    else:
        note = (
            f"verifier demoted {mode.value}_{flow.value} to "
            f"{new_mode.value}_{new_flow.value} ({rules})"
        )
    warnings.warn(
        f"kernel {report.pool!r}: illegal launch "
        f"(mode={mode.value}, flow={flow.value}) auto-demoted to "
        f"{new_mode.value}_{new_flow.value}; blocking rules: {rules}. "
        "Set ReproConfig.verify='strict' to refuse instead.",
        VerificationWarning,
        stacklevel=4,
    )
    return GateDecision(mode=new_mode, flow=new_flow, note=note)
