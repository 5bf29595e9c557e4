"""Interval arithmetic and static cost-bound units (repro.analyze.costbound)."""

import math

import pytest

from repro.analyze.costbound import (
    UNBOUNDED,
    Interval,
    WideningPolicy,
    cache_size,
    clear_cache,
    ir_hash,
    point,
    variant_cost_bound,
)
from tests.conftest import make_axpy_variant


class TestInterval:
    def test_validation_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_validation_rejects_negative_lower_bound(self):
        with pytest.raises(ValueError):
            Interval(-1.0, 1.0)

    def test_validation_rejects_infinite_lower_bound(self):
        with pytest.raises(ValueError):
            Interval(float("inf"), float("inf"))

    def test_add_is_endpointwise(self):
        assert Interval(1, 2) + Interval(3, 5) == Interval(4, 7)

    def test_scale(self):
        assert Interval(1, 2).scale(3.0) == Interval(3, 6)

    def test_max_with_is_endpointwise_max(self):
        assert Interval(1, 10).max_with(Interval(4, 6)) == Interval(4, 10)

    def test_midpoint_is_the_center(self):
        assert Interval(2, 6).midpoint == 4.0

    def test_unbounded_midpoint_is_infinite(self):
        assert math.isinf(UNBOUNDED.midpoint)
        assert not UNBOUNDED.is_bounded

    def test_point_contains_itself_only(self):
        p = point(5.0)
        assert 5.0 in p
        assert 5.000001 not in p
        assert p.contains(5.0 + 1e-9, slack=1e-6)

    def test_str_renders_both_endpoints(self):
        assert "3" in str(Interval(3, 4)) and "4" in str(Interval(3, 4))


class TestWideningPolicy:
    def test_default_trip_interval(self):
        assert WideningPolicy().data_trip_bounds == (0.0, 4096.0)

    def test_custom_bounds(self):
        policy = WideningPolicy(data_trip_bounds=(2.0, 8.0))
        assert policy.data_trip_bounds == (2.0, 8.0)
        with pytest.raises(ValueError):
            WideningPolicy(data_trip_bounds=(8.0, 2.0))


class TestVariantCostBound:
    def test_static_pool_interval_is_bounded(self):
        bound = variant_cost_bound(make_axpy_variant("v"), "cpu")
        assert bound.unit_interval.is_bounded
        assert bound.unit_interval.lo > 0
        assert not bound.widened or all(
            isinstance(reason, str) for reason in bound.widened
        )

    def test_launch_interval_scales_with_units(self):
        bound = variant_cost_bound(make_axpy_variant("v"), "cpu")
        one = bound.launch_interval(1)
        many = bound.launch_interval(10)
        assert many.lo >= one.lo * 10 - 1e-9
        assert many.hi >= one.hi

    def test_per_unit_interval_brackets_launch_interval(self):
        # launch cost per unit always lies inside the asymptotic per-unit
        # interval, for any unit count (the bound dominance prunes with).
        bound = variant_cost_bound(
            make_axpy_variant("v", wa_factor=4), "cpu"
        )
        for units in (1, 3, 4, 7, 64):
            launch = bound.launch_interval(units)
            per_unit = bound.per_unit_interval
            assert launch.lo >= per_unit.lo * units - 1e-9
            assert launch.hi <= per_unit.hi * units + 1e-9

    def test_unknown_device_kind_widens_to_unbounded(self):
        bound = variant_cost_bound(make_axpy_variant("v"), "tpu")
        assert not bound.unit_interval.is_bounded
        assert bound.widened

    def test_gpu_and_cpu_bounds_differ(self):
        variant = make_axpy_variant("v")
        cpu = variant_cost_bound(variant, "cpu")
        gpu = variant_cost_bound(variant, "gpu")
        assert cpu.unit_interval != gpu.unit_interval


class TestIrHashAndCache:
    def test_hash_is_stable(self):
        ir = make_axpy_variant("v").ir
        assert ir_hash(ir) == ir_hash(ir)

    def test_hash_distinguishes_structural_changes(self):
        a = make_axpy_variant("v", flops_per_trip=32.0).ir
        b = make_axpy_variant("v", flops_per_trip=64.0).ir
        assert ir_hash(a) != ir_hash(b)

    def test_bounds_are_cached_by_ir_hash(self):
        clear_cache()
        variant = make_axpy_variant("cached")
        first = variant_cost_bound(variant, "cpu")
        size_after_first = cache_size()
        second = variant_cost_bound(variant, "cpu")
        assert first is second
        assert cache_size() == size_after_first

    def test_policy_changes_miss_the_cache(self):
        clear_cache()
        variant = make_axpy_variant("cached")
        default = variant_cost_bound(variant, "cpu")
        widened = variant_cost_bound(
            variant, "cpu", policy=WideningPolicy(data_trip_bounds=(0, 8))
        )
        assert default is not widened
