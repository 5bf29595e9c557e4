"""Tests for the histogram workload (swap-mode showcase)."""

import os

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.config import ReproConfig
from repro.device import make_gpu
from repro.harness.runner import evaluate_case, run_pure
from repro.kernel import Buffer
from repro.modes import OrchestrationFlow, ProfilingMode
from repro.workloads import histogram
from repro.workloads.histogram import BINS, ELEMS_PER_UNIT

ELEMS = 1 << 17

#: Replay locally with ``REPRO_CHAOS_SEED=<seed>`` (same convention as
#: the chaos suite; the CI flakiness job randomizes it).
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


@pytest.fixture(scope="module")
def config():
    return ReproConfig()


class TestFunctional:
    @pytest.mark.parametrize("distribution", ["uniform", "skewed"])
    def test_both_variants_correct(self, distribution, config):
        case = histogram.swap_case(distribution, ELEMS, config)
        gpu = make_gpu(config)
        for name in case.pool.variant_names:
            assert run_pure(case, gpu, name, config).valid, name

    def test_atomics_force_swap_mode(self, config):
        case = histogram.swap_case("uniform", ELEMS, config)
        assert case.pool.mode is ProfilingMode.SWAP

    def test_swap_profiled_run_is_exact(self, config):
        """Swap-mode DySel must not double- or under-count any element."""
        case = histogram.swap_case("uniform", ELEMS, config)
        gpu = make_gpu(config)
        evaluation = evaluate_case(case, gpu, config, dysel_flows=("sync",))
        assert evaluation.dysel["sync"].valid

    def test_async_falls_back_to_sync(self, config):
        from repro.harness.runner import run_dysel

        case = histogram.swap_case("uniform", ELEMS, config)
        gpu = make_gpu(config)
        result = run_dysel(case, gpu, flow=OrchestrationFlow.ASYNC, config=config)
        assert result.valid
        assert result.eager_chunks == 0  # sync fallback never eagers


class TestInputDependence:
    def test_winner_flips_with_distribution(self, config):
        gpu = make_gpu(config)
        uniform = histogram.swap_case("uniform", ELEMS, config)
        skewed = histogram.swap_case("skewed", ELEMS, config)
        uni = {
            name: run_pure(uniform, gpu, name, config).elapsed_cycles
            for name in uniform.pool.variant_names
        }
        skw = {
            name: run_pure(skewed, gpu, name, config).elapsed_cycles
            for name in skewed.pool.variant_names
        }
        assert uni["atomic"] < uni["privatized"]
        assert skw["privatized"] < skw["atomic"]

    def test_dysel_adapts(self, config):
        gpu = make_gpu(config)
        for dist, expected in (("uniform", "atomic"), ("skewed", "privatized")):
            case = histogram.swap_case(dist, ELEMS, config)
            evaluation = evaluate_case(case, gpu, config, dysel_flows=("sync",))
            assert evaluation.dysel["sync"].selected == expected


def reference_contention(args, unit_ids):
    """The contention factor unit by unit, one ``np.bincount`` each."""
    data = args["data"].data
    factors = np.ones(len(unit_ids))
    for index, unit in enumerate(np.asarray(unit_ids)):
        e0 = int(unit) * ELEMS_PER_UNIT
        e1 = min(e0 + ELEMS_PER_UNIT, len(data))
        if e1 <= e0:
            continue
        counts = np.bincount(data[e0:e1], minlength=BINS)
        factors[index] = 1.0 + 31.0 * float(counts.max()) / (e1 - e0)
    return factors


@st.composite
def contention_inputs(draw):
    """Data of any length (partial last unit included), values below and
    above ``BINS``, and consecutive or scattered unit ids that may repeat
    or run past the end of the data."""
    elems = draw(st.integers(min_value=1, max_value=5 * ELEMS_PER_UNIT))
    high = draw(st.sampled_from([4, BINS, BINS + 1, 3 * BINS, 5000]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32)))
    if draw(st.booleans()):
        data = rng.integers(0, high, size=elems)
    else:  # skewed: most elements in a few hot bins
        hot = rng.integers(0, min(high, 4), size=elems)
        data = np.where(rng.uniform(size=elems) < 0.8, hot, rng.integers(0, high, size=elems))
    data = data.astype(draw(st.sampled_from([np.int32, np.int64])))
    units = -(-elems // ELEMS_PER_UNIT)
    if draw(st.booleans()):
        start = draw(st.integers(min_value=0, max_value=units + 1))
        count = draw(st.integers(min_value=0, max_value=units + 2))
        unit_ids = np.arange(start, start + count, dtype=np.int64)
    else:
        unit_ids = np.array(
            draw(st.lists(st.integers(min_value=0, max_value=units + 2), max_size=12)),
            dtype=np.int64,
        )
    return {"data": Buffer("data", data, writable=False)}, unit_ids


class TestContention:
    @seed(CHAOS_SEED)
    @settings(max_examples=150, deadline=None)
    @given(inputs=contention_inputs())
    def test_matches_the_per_unit_loop_exactly(self, inputs):
        args, unit_ids = inputs
        factors = histogram._contention(args, unit_ids)
        expected = reference_contention(args, unit_ids)
        assert factors.shape == expected.shape
        assert (factors == expected).all()

    def test_values_past_the_bins_do_not_alias(self):
        """Unit 0 holds only the value BINS, unit 1 only the value 0: a
        table BINS wide would count both in one bin of unit 1."""
        data = np.concatenate(
            [np.full(ELEMS_PER_UNIT, BINS), np.arange(ELEMS_PER_UNIT) % BINS]
        )
        args = {"data": Buffer("data", data, writable=False)}
        factors = histogram._contention(args, np.arange(2))
        assert list(factors) == [32.0, 1.0 + 31.0 * 4 / ELEMS_PER_UNIT]
        assert (factors == reference_contention(args, np.arange(2))).all()
