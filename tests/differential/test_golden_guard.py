"""Golden refresh guard: the engine's closed forms change no output.

``test_differential`` checks each launch against ``goldens.json`` under
whatever path the engine picks by default.  This guard removes the
"whatever the engine picks": every catalog case × mode × flow runs twice
— once on the *default* path (dispatch in runs, quiet poll passes in
closed form), once on the *reference* path (one work-group at a time,
every poll taken one at a time) — and the two output digests and selections
must agree with each other and with the recorded golden.
A divergence here is the exact regression a closed form could
introduce: a schedule change that moves a slice boundary or flips a
winner while each individual run still looks self-consistent.
"""

from __future__ import annotations

import warnings

import pytest

from repro.core.runtime import DySelRuntime
from tests.conftest import forced_engine_path

from .catalog import CATALOG
from .test_differential import (
    FLOWS,
    MODES,
    REGEN,
    _load_goldens,
    build_case,
    output_digest,
)

#: ``(drain, quiet_passes)`` forcings of ``forced_engine_path`` under test.
FORCINGS = {
    "default": (True, True),
    "reference": (False, False),
}


def _launch_digest(case_id, mode, flow, drain, quiet_passes):
    with forced_engine_path(drain, quiet_passes):
        case, device, config = build_case(case_id)
        runtime = DySelRuntime(device, config)
        runtime.register_pool(case.pool)
        args = case.fresh_args()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = runtime.launch_kernel(
                case.pool.name,
                args,
                case.workload_units,
                mode=mode,
                flow=flow,
            )
        assert case.validate(args), (
            f"{case_id} diverges from its reference with "
            f"drain={drain}, quiet_passes={quiet_passes}"
        )
        return output_digest(case, args), result.selected


@pytest.mark.parametrize("flow", FLOWS, ids=lambda f: f.value)
@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("case_id", sorted(CATALOG))
def test_forced_paths_agree_with_each_other_and_the_golden(
    case_id, mode, flow
):
    if REGEN:
        pytest.skip("golden regeneration runs the primary suite only")
    digests = {
        label: _launch_digest(case_id, mode, flow, drain, quiet_passes)
        for label, (drain, quiet_passes) in FORCINGS.items()
    }
    on_digest, on_selected = digests["default"]
    off_digest, off_selected = digests["reference"]
    assert on_digest == off_digest, (
        f"{case_id}/{mode.value}/{flow.value}: the default path changed "
        "the committed output composition"
    )
    assert on_selected == off_selected, (
        f"{case_id}/{mode.value}/{flow.value}: the default path changed "
        f"the selection ({on_selected!r} vs {off_selected!r})"
    )
    key = f"{case_id}/{mode.value}/{flow.value}"
    goldens = _load_goldens()
    assert key in goldens, f"no golden for {key}"
    assert on_digest == goldens[key], (
        f"{key}: forced-path digest disagrees with the recorded golden"
    )
