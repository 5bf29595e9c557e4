"""Unit tests for the experiment runner."""

import pytest

from repro.harness.runner import (
    CaseEvaluation,
    evaluate_case,
    run_dysel,
    run_pure,
)
from repro.errors import HarnessError
from repro.workloads.base import BenchmarkCase
from tests.conftest import make_axpy_args, axpy_output_ok


@pytest.fixture
def case(fast_slow_pool, config):
    return BenchmarkCase(
        name="axpy/test",
        pool=fast_slow_pool,
        make_args=lambda: make_axpy_args(512, config),
        workload_units=512,
        check=axpy_output_ok,
    )


class TestRunPure:
    def test_times_and_validates(self, case, cpu, config):
        result = run_pure(case, cpu, "fast", config)
        assert result.valid
        assert result.elapsed_cycles > 0
        assert result.strategy == "pure:fast"

    def test_ordering_matches_construction(self, case, cpu, config):
        fast = run_pure(case, cpu, "fast", config)
        slow = run_pure(case, cpu, "slow", config)
        assert fast.elapsed_cycles < slow.elapsed_cycles

    def test_iterations_scale_time(self, fast_slow_pool, cpu, config):
        single = BenchmarkCase(
            name="one",
            pool=fast_slow_pool,
            make_args=lambda: make_axpy_args(512, config),
            workload_units=512,
        )
        triple = BenchmarkCase(
            name="three",
            pool=fast_slow_pool,
            make_args=lambda: make_axpy_args(512, config),
            workload_units=512,
            iterations=3,
        )
        t1 = run_pure(single, cpu, "fast", config).elapsed_cycles
        t3 = run_pure(triple, cpu, "fast", config).elapsed_cycles
        assert t3 == pytest.approx(3 * t1, rel=0.1)


class TestRunDysel:
    def test_profiles_once_by_default(self, fast_slow_pool, cpu, config):
        iterative = BenchmarkCase(
            name="it",
            pool=fast_slow_pool,
            make_args=lambda: make_axpy_args(512, config),
            workload_units=512,
            iterations=4,
            check=axpy_output_ok,
        )
        result = run_dysel(iterative, cpu, config=config)
        assert result.profiled_launches == 1
        assert result.valid

    def test_profile_every_iteration(self, fast_slow_pool, cpu, config):
        iterative = BenchmarkCase(
            name="it",
            pool=fast_slow_pool,
            make_args=lambda: make_axpy_args(512, config),
            workload_units=512,
            iterations=4,
        )
        result = run_dysel(
            iterative, cpu, profile_every_iteration=True, config=config
        )
        assert result.profiled_launches == 4


class TestEvaluateCase:
    def test_standard_comparison(self, case, cpu, config):
        evaluation = evaluate_case(case, cpu, config)
        assert evaluation.oracle.selected == "fast"
        assert evaluation.worst.selected == "slow"
        assert set(evaluation.dysel) == {"sync", "async-best", "async-worst"}
        assert evaluation.all_valid()
        for result in evaluation.dysel.values():
            assert evaluation.relative(result) < 1.5

    def test_relative_requires_positive_oracle(self, case, cpu, config):
        evaluation = CaseEvaluation(case="empty")
        with pytest.raises(HarnessError):
            _ = evaluation.oracle

    def test_unknown_flow_label(self, case, cpu, config):
        with pytest.raises(HarnessError):
            evaluate_case(case, cpu, config, dysel_flows=("warp-speed",))
