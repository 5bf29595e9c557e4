"""Each case's checker still tells a right output from a wrong one.

The cases of kmeans, histogram, spmv-jds, stencil, sgemm and particle
filter build their checker from the inputs their own argument factory
drew, and the public ``make_checker`` of each draws them afresh.  For
every such case builder, a reference output (the first variant's
executor over the whole range) must pass both checkers, and the same
output with one element changed must fail both: sharing the inputs made
no checker accept anything.
"""

import pytest

from repro.config import ReproConfig
from repro.workloads import (
    histogram,
    kmeans,
    particle_filter,
    sgemm,
    spmv_jds,
    stencil,
)

CONFIG = ReproConfig()
ELEMS = 8 * histogram.ELEMS_PER_UNIT
GRID = (32, 32, 4)

#: Small instances of every case builder whose checker reads drawn
#: inputs, each with the public checker for the same inputs.
BUILDERS = {
    "kmeans.schedule_case": (
        lambda: kmeans.schedule_case(512, CONFIG),
        lambda: kmeans.make_checker(512, CONFIG),
    ),
    "histogram.swap_case": (
        lambda: histogram.swap_case("skewed", ELEMS, CONFIG),
        lambda: histogram.make_checker("skewed", ELEMS, CONFIG),
    ),
    "spmv_jds.vectorization_case": (
        lambda: spmv_jds.vectorization_case(512, CONFIG),
        lambda: spmv_jds.make_checker(spmv_jds.get_matrix(512, CONFIG), CONFIG),
    ),
    "spmv_jds.schedule_case": (
        lambda: spmv_jds.schedule_case(512, CONFIG),
        lambda: spmv_jds.make_checker(spmv_jds.get_matrix(512, CONFIG), CONFIG),
    ),
    "spmv_jds.mixed_case": (
        lambda: spmv_jds.mixed_case("gpu", 512, CONFIG),
        lambda: spmv_jds.make_checker(spmv_jds.get_matrix(512, CONFIG), CONFIG),
    ),
    "stencil.schedule_case": (
        lambda: stencil.schedule_case(GRID, CONFIG),
        lambda: stencil.make_checker(GRID, CONFIG),
    ),
    "stencil.mixed_case": (
        lambda: stencil.mixed_case("cpu", GRID, CONFIG),
        lambda: stencil.make_checker(GRID, CONFIG),
    ),
    "sgemm.vectorization_case": (
        lambda: sgemm.vectorization_case(32, CONFIG),
        lambda: sgemm.make_checker(32, CONFIG),
    ),
    "sgemm.schedule_case": (
        lambda: sgemm.schedule_case(32, CONFIG),
        lambda: sgemm.make_checker(32, CONFIG),
    ),
    "sgemm.mixed_case": (
        lambda: sgemm.mixed_case("gpu", 32, CONFIG),
        lambda: sgemm.make_checker(32, CONFIG),
    ),
    "particle_filter.placement_case": (
        lambda: particle_filter.placement_case(512, CONFIG),
        lambda: particle_filter.make_checker(512, CONFIG),
    ),
}


@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_checkers_accept_the_reference_and_reject_one_changed_element(
    builder,
):
    build_case, build_checker = BUILDERS[builder]
    case = build_case()
    checkers = (case.check, build_checker())
    (output,) = case.pool.spec.signature.output_names
    args = case.fresh_args()
    case.pool.variants[0].executor(args, 0, case.workload_units)
    assert all(check(args) for check in checkers)

    changed = args[output].data.reshape(-1)
    changed[len(changed) // 2] += 1
    assert not any(check(args) for check in checkers)
