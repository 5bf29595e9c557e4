"""The cost memo keys each sized buffer by its byte size and its space.

The space enters the key as its string value; two launches whose
buffers differ only in the space they are placed in must still get one
entry each, each equal to an uncached pricing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.device import make_cpu, make_gpu
from repro.device.cost import CostModel, cost_memo_stats
from repro.kernel import Buffer, MemorySpace, WorkRange

from tests.conftest import make_axpy_args, make_axpy_variant

UNITS = 32


def args_in(space: MemorySpace, config) -> dict:
    """Axpy arguments whose read-only input sits in ``space``."""
    args = make_axpy_args(UNITS, config)
    args["x"] = Buffer("x", args["x"].data, space=space, writable=False)
    return args


@pytest.mark.parametrize("make_device", [make_cpu, make_gpu])
def test_buffers_differing_only_in_space_get_separate_entries(
    make_device, quiet_config
):
    model = CostModel(make_device(quiet_config))
    variant = make_axpy_variant("v", trips=16)
    units = WorkRange(0, UNITS)
    spaces = (MemorySpace.GLOBAL, MemorySpace.TEXTURE, MemorySpace.CONSTANT)
    for space in spaces:
        args = args_in(space, quiet_config)
        cycles = model.workgroup_cycles(variant, args, units)
        assert np.array_equal(
            cycles, model._workgroup_cycles_uncached(variant, args, units)
        )
        assert model.workgroup_cycles(variant, args, units) is cycles
    assert cost_memo_stats() == {
        "entries": len(spaces),
        "hits": len(spaces),
        "misses": len(spaces),
    }


def test_the_key_holds_the_space_value(quiet_config):
    model = CostModel(make_gpu(quiet_config))
    variant = make_axpy_variant("v", trips=16)
    key, _ = model._memo_key(
        variant, args_in(MemorySpace.TEXTURE, quiet_config), WorkRange(0, UNITS)
    )
    spaces = [size[1] for size in key[4] if size is not None]
    assert "texture" in spaces
    assert all(type(space) is str for space in spaces)
