"""Launch configuration: one kernel invocation's workload binding.

A :class:`LaunchConfig` binds concrete arguments and a workload-unit count
to a kernel signature.  It is what `DySelLaunchKernel` (paper Fig 6b)
receives in addition to the profiling flag and mode, and what the launch
census (Fig 2) records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from ..errors import LaunchError
from .buffers import Buffer
from .signature import KernelSignature


@dataclass
class LaunchConfig:
    """Concrete binding for one kernel launch.

    Parameters
    ----------
    signature:
        The kernel contract being launched.
    args:
        Argument mapping, validated against the signature.
    workload_units:
        Total workload units this launch covers (base-variant work-group
        count; variants with larger ``wa_factor`` launch proportionally
        fewer work-groups over the same units).
    """

    signature: KernelSignature
    args: Dict[str, object]
    workload_units: int

    def __post_init__(self) -> None:
        if self.workload_units < 0:
            raise LaunchError(
                f"workload_units must be >= 0, got {self.workload_units}"
            )
        self.args = self.signature.validate(self.args)

    @classmethod
    def create(
        cls,
        signature: KernelSignature,
        args: Mapping[str, object],
        workload_units: int,
    ) -> "LaunchConfig":
        """Validate and build a launch configuration.

        ``args`` is copied once, by :meth:`KernelSignature.validate`.
        """
        return cls(
            signature=signature, args=args, workload_units=workload_units
        )

    def output_buffers(self) -> Dict[str, Buffer]:
        """The output buffers of this launch, by argument name."""
        outputs: Dict[str, Buffer] = {}
        for name in self.signature.output_names:
            value = self.args[name]
            assert isinstance(value, Buffer)
            outputs[name] = value
        return outputs

    def with_args(self, overrides: Mapping[str, object]) -> "LaunchConfig":
        """Return a copy with some arguments rebound (sandboxing helper)."""
        new_args = dict(self.args)
        new_args.update(overrides)
        return LaunchConfig.create(self.signature, new_args, self.workload_units)
