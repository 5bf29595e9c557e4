"""Ablation: measurement noise vs selection accuracy (paper §5.2).

"Profiling accuracy can be a problem when the unit of workload is small
... the dynamic selection accuracy is 95%."  Sweeps execution jitter and
measures how often DySel still picks the true best variant across
reseeded runs, on a pool whose candidates are deliberately close.
"""

import dataclasses

from repro.core import DySelRuntime
from repro.compiler.variants import VariantPool
from repro.device import make_cpu

from conftest import record
from tests.conftest import (
    axpy_signature,
    make_axpy_args,
    make_axpy_variant,
)
from repro.kernel.kernel import KernelSpec

JITTERS = (0.0, 0.05, 0.15)


def close_pool():
    """Two variants ~6% apart: noise can plausibly flip the ranking."""
    return VariantPool(
        spec=KernelSpec(signature=axpy_signature()),
        variants=(
            make_axpy_variant("best", flops_per_trip=64.0),
            make_axpy_variant("close", flops_per_trip=68.0),
        ),
    )


def accuracy_at(jitter, config, trials):
    correct = 0
    for trial in range(trials):
        trial_config = dataclasses.replace(
            config.with_noise(execution_jitter=jitter), seed=config.seed + trial
        )
        runtime = DySelRuntime(make_cpu(trial_config), trial_config)
        runtime.register_pool(close_pool())
        args = make_axpy_args(512, trial_config)
        result = runtime.launch_kernel("axpy", args, 512)
        correct += int(result.selected == "best")
    return correct / trials


def run_sweep(config, quick):
    trials = 10 if quick else 40
    return {jitter: accuracy_at(jitter, config, trials) for jitter in JITTERS}


def test_noise_vs_accuracy(benchmark, config, quick):
    results = benchmark.pedantic(
        lambda: run_sweep(config, quick), rounds=1, iterations=1
    )
    print()
    for jitter, accuracy in results.items():
        print(f"  jitter {jitter:.2f}: accuracy {accuracy*100:.0f}%")
        record(benchmark, {f"jitter{jitter}.accuracy": accuracy})
    # Noise-free profiling is exact; accuracy degrades (weakly) with noise.
    assert results[0.0] == 1.0
    assert results[0.15] <= results[0.0]
