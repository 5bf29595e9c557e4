"""Static cost-bound priors in the serve scheduler (cold-start balance)."""

import dataclasses

from repro.config import AnalyzeSettings, ReproConfig
from repro.device import make_cpu
from repro.serve import LaunchScheduler, SelectionStore, ServeRequest
from tests.conftest import (
    axpy_output_ok,
    fast_slow_pool_build,
    make_axpy_args,
)

UNITS = 512


def dominance_config() -> ReproConfig:
    return dataclasses.replace(
        ReproConfig().without_noise(),
        analyze=AnalyzeSettings(dominance=True),
    )


def make_scheduler(config, devices=2, **kwargs):
    scheduler = LaunchScheduler(
        tuple(make_cpu(config) for _ in range(devices)),
        config=config,
        **kwargs,
    )
    scheduler.register_pool(fast_slow_pool_build())
    return scheduler


class TestWorkerEstimate:
    def _worker(self, config):
        return make_scheduler(config)._workers[0]

    def test_known_cost_wins(self):
        worker = self._worker(dominance_config())
        assert worker.estimate_cost(123.0, static_cost=999.0) == 123.0

    def test_static_prior_beats_observed_mean(self):
        worker = self._worker(dominance_config())
        worker.complete(0.0, 500.0)
        assert worker.estimate_cost(None, static_cost=42.0) == 42.0

    def test_observed_mean_when_no_prior(self):
        worker = self._worker(dominance_config())
        worker.complete(0.0, 400.0)
        worker.complete(0.0, 600.0)
        assert worker.estimate_cost(None) == 500.0

    def test_zero_before_any_signal(self):
        assert self._worker(dominance_config()).estimate_cost(None) == 0.0


class TestStaticUnitCost:
    def test_positive_prior_with_dominance_on(self):
        scheduler = make_scheduler(dominance_config())
        prior = scheduler._static_unit_cost("axpy", "cpu")
        assert prior is not None and prior > 0

    def test_none_with_dominance_off(self):
        scheduler = make_scheduler(ReproConfig().without_noise())
        assert scheduler._static_unit_cost("axpy", "cpu") is None

    def test_none_for_unknown_kernel_or_kind(self):
        scheduler = make_scheduler(dominance_config())
        assert scheduler._static_unit_cost("nope", "cpu") is None
        assert scheduler._static_unit_cost("axpy", "tpu") is None

    def test_cached_none_does_not_outlive_first_registration(self):
        """Regression: a ``None`` prior cached before the kernel's
        *first* registration (which fires no invalidation hook) used to
        stay stale forever, hiding the static prior from dispatch."""
        config = dominance_config()
        scheduler = LaunchScheduler(
            (make_cpu(config), make_cpu(config)), config=config
        )
        assert scheduler._static_unit_cost("axpy", "cpu") is None
        scheduler.register_pool(fast_slow_pool_build())
        prior = scheduler._static_unit_cost("axpy", "cpu")
        assert prior is not None and prior > 0

    def test_reregistration_with_cheaper_default_updates_midpoint(self):
        """Regression: re-registering a pool whose default got cheaper
        must re-derive the cached midpoint, not keep serving the old
        one."""
        from repro.compiler.variants import VariantPool
        from repro.kernel import AccessPattern, KernelSpec
        from tests.conftest import axpy_signature, make_axpy_variant

        scheduler = make_scheduler(dominance_config())
        before = scheduler._static_unit_cost("axpy", "cpu")
        assert before is not None
        cheap = VariantPool(
            spec=KernelSpec(signature=axpy_signature()),
            variants=(
                make_axpy_variant(
                    "fast", AccessPattern.UNIT_STRIDE, flops_per_trip=1.0
                ),
                make_axpy_variant("slow", AccessPattern.STRIDED),
            ),
        )
        scheduler.register_pool(cheap)
        after = scheduler._static_unit_cost("axpy", "cpu")
        assert after is not None
        assert after < before


class TestServedBatch:
    def test_batch_with_store_and_priors_serves_correctly(self):
        config = dominance_config()
        scheduler = make_scheduler(config, store=SelectionStore())
        batch = [
            ServeRequest(
                kernel="axpy",
                args=make_axpy_args(UNITS, config),
                workload_units=UNITS,
            )
            for _ in range(8)
        ]
        outcomes = scheduler.serve_all(batch, clients=4)
        assert sum(o.profiled for o in outcomes) == 1
        for request in batch:
            assert axpy_output_ok(request.args)
        assert scheduler._static_unit_cost("axpy", "cpu") > 0
