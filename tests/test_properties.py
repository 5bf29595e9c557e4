"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.compiler.analyses.safe_point import lcm_of, safe_point_plan
from repro.config import ReproConfig
from repro.core.selection import SelectionRecord, VariantMeasurement
from repro.device.memory import CacheLevel, MemoryModel
from repro.harness.census import BUCKETS, bucket_of
from repro.harness.report import geomean
from repro.kernel import NDRange, WorkRange
from repro.kernel.buffers import Buffer
from repro.modes import OrchestrationFlow, ProfilingMode
from tests.conftest import make_axpy_variant

# ----------------------------------------------------------------------
# WorkRange
# ----------------------------------------------------------------------

ranges = st.tuples(
    st.integers(0, 10000), st.integers(0, 10000)
).map(lambda t: WorkRange(min(t), max(t)))


@given(ranges, st.integers(-100, 20000))
def test_workrange_take_partitions(rng, count):
    first, rest = rng.take(count)
    assert first.start == rng.start
    assert first.end == rest.start
    assert rest.end == rng.end
    assert len(first) + len(rest) == len(rng)
    assert len(first) <= max(count, 0)


@given(ranges, ranges)
def test_workrange_intersect_commutes_and_bounds(a, b):
    ab = a.intersect(b)
    ba = b.intersect(a)
    assert (ab.start, ab.end) == (ba.start, ba.end)
    assert len(ab) <= min(len(a), len(b))


# ----------------------------------------------------------------------
# NDRange
# ----------------------------------------------------------------------


@given(
    st.integers(1, 20), st.integers(1, 20), st.integers(1, 5),
    st.integers(0, 10**6),
)
def test_ndrange_roundtrip(gx, gy, gz, seed):
    nd = NDRange(groups=(gx, gy, gz))
    gid = seed % nd.total_groups
    assert nd.linear_id(*nd.group_coords(gid)) == gid


# ----------------------------------------------------------------------
# Variant geometry
# ----------------------------------------------------------------------


@given(st.integers(1, 64), st.integers(0, 5000))
def test_variant_units_partition_exactly(wa, units):
    variant = make_axpy_variant("v", wa_factor=wa)
    groups = variant.num_groups(units)
    covered = variant.units_for_groups(0, groups, units)
    assert covered.start == 0
    assert covered.end == units
    if units:
        assert (groups - 1) * wa < units <= groups * wa


@given(st.integers(1, 32), st.integers(1, 32), st.integers(1, 32))
def test_lcm_properties(a, b, c):
    result = lcm_of([a, b, c])
    for value in (a, b, c):
        assert result % value == 0
    assert result <= a * b * c


@given(
    st.lists(st.integers(1, 16), min_size=1, max_size=6),
    st.integers(2, 64),
)
def test_safe_point_fairness_invariant(factors, units_exp):
    """Every variant's profiled unit count is identical and aligned."""
    workload = 1 << units_exp
    variants = [
        make_axpy_variant(f"v{i}", wa_factor=f) for i, f in enumerate(factors)
    ]
    try:
        plan = safe_point_plan(variants, compute_units=4, workload_units=workload)
    except Exception:
        assume(False)
        return
    base = lcm_of(factors)
    assert plan.units_per_variant % base == 0 or plan.units_per_variant == workload
    assert plan.units_per_variant <= workload
    for variant in variants:
        groups = plan.groups_per_variant[variant.name]
        assert groups * variant.wa_factor >= plan.units_per_variant


# ----------------------------------------------------------------------
# Selection record: running minimum is a true minimum
# ----------------------------------------------------------------------


@given(
    st.lists(
        st.floats(min_value=0.1, max_value=1e9, allow_nan=False),
        min_size=1,
        max_size=20,
    )
)
def test_selection_record_is_argmin(cycles):
    record = SelectionRecord(
        kernel="k", mode=ProfilingMode.FULLY, flow=OrchestrationFlow.SYNC
    )
    for index, value in enumerate(cycles):
        record.observe(
            VariantMeasurement(
                variant=f"v{index}",
                measured_cycles=value,
                profiled_units=4,
                productive=True,
            )
        )
    best_index = int(np.argmin(cycles))
    assert record.selected == f"v{best_index}"
    ranking = record.ranking()
    assert [m.measured_cycles for m in ranking] == sorted(
        m.measured_cycles for m in ranking
    )


# ----------------------------------------------------------------------
# Buffers: swap is involutive on contents
# ----------------------------------------------------------------------


@given(st.lists(st.floats(-1e6, 1e6, width=32), min_size=1, max_size=64))
def test_swap_installs_exact_contents(values):
    data = np.asarray(values, dtype=np.float32)
    final = Buffer("out", np.zeros_like(data))
    private = Buffer("priv", data.copy())
    final.swap_contents(private)
    assert np.array_equal(final.data, data)


# ----------------------------------------------------------------------
# Memory model: monotonicity invariants
# ----------------------------------------------------------------------


def _model():
    return MemoryModel(
        (
            CacheLevel("L1", 1 << 12, 64, 4.0, 32.0),
            CacheLevel("L2", 1 << 18, 64, 12.0, 16.0),
        ),
        CacheLevel("DRAM", float("inf"), 64, 200.0, 4.0),
    )


@given(
    st.lists(
        st.floats(min_value=1.0, max_value=1e12, allow_nan=False),
        min_size=2,
        max_size=16,
    )
)
def test_gather_latency_monotone(working_sets):
    model = _model()
    ws = np.sort(np.asarray(working_sets))
    latency = model.gather_latency(ws)
    assert (np.diff(latency) >= -1e-9).all()


@given(
    st.floats(min_value=1.0, max_value=1e9, allow_nan=False),
    st.floats(min_value=1.0, max_value=1e9, allow_nan=False),
)
def test_stream_cycles_positive_and_monotone_in_bytes(useful, ws):
    model = _model()
    small = model.stream_cycles(np.array([useful]), np.array([ws]), 1e12)
    big = model.stream_cycles(np.array([useful * 2]), np.array([ws]), 1e12)
    assert float(small[0]) > 0
    assert float(big[0]) >= float(small[0])


@given(st.floats(min_value=1.0, max_value=1e10), st.floats(min_value=1.0, max_value=1e10))
def test_bandwidth_decreases_with_working_set(a, b):
    model = _model()
    lo, hi = sorted((a, b))
    assert float(model.stream_bandwidth(hi)) <= float(model.stream_bandwidth(lo))


# ----------------------------------------------------------------------
# Census / report helpers
# ----------------------------------------------------------------------


@given(st.integers(128, 10**6))
def test_bucket_of_is_floor_bucket(work_groups):
    bucket = bucket_of(work_groups)
    assert bucket in BUCKETS
    assert bucket <= work_groups
    larger = [b for b in BUCKETS if b > bucket]
    if larger and work_groups >= larger[0]:
        pytest.fail("bucket_of did not pick the tightest bucket")


@given(
    st.lists(
        st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
        min_size=1,
        max_size=10,
    )
)
def test_geomean_bounds(values):
    mean = geomean(values)
    assert min(values) - 1e-9 <= mean <= max(values) + 1e-9


# ----------------------------------------------------------------------
# Config RNG determinism
# ----------------------------------------------------------------------


@given(st.integers(0, 2**31), st.text(max_size=20))
def test_rng_streams_reproducible(seed, label):
    config = ReproConfig(seed=seed)
    a = config.rng("stream", label).standard_normal(4)
    b = ReproConfig(seed=seed).rng("stream", label).standard_normal(4)
    assert (a == b).all()
