"""Engine benchmark: dispatch in runs vs the per-work-group reference.

Times the same workloads through the engine's dispatcher, which sends
work-groups out in runs, and through the per-work-group event loop it
replaced (``tests/device/engine_reference.py``, swapped in for
``ExecutionEngine._advance_to``), and measures the cost-kernel memo's
warm hit rate.  Both are bit-identical by construction (the
equivalence suite proves it); this benchmark shows what the runs buy
and gates against regressions (written to ``BENCH_engine.json``):

1. **uncontended** — one 64k-work-group noise-free batch.
2. **contended** — a mixed-priority three-task stream with interleaved
   host polls.
3. **memo** — repeated launches of one workload class; the warm hit
   rate must be at least 95%.

For (1) and (2) the two dispatchers are timed in ``PAIRS`` back-to-back
pairs whose order alternates, and the runs must clear ``MIN_SPEEDUP``×
the reference on the *median per-pair ratio*: both halves of a pair see
the same host speed, so a slow stretch of the machine moves both.

The benchmark also re-asserts exact equality of the two dispatchers'
observables on the workloads it times (a cheap in-situ slice of the
equivalence harness) and reconciles a traced runtime launch.

Run with ``--quick`` for CI-sized inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import numpy as np  # noqa: E402

from repro.config import ReproConfig  # noqa: E402
from repro.core.runtime import DySelRuntime  # noqa: E402
from repro.device import (  # noqa: E402
    clear_cost_memo,
    cost_memo_stats,
    make_cpu,
)
from repro.device.engine import ExecutionEngine, Priority  # noqa: E402
from repro.kernel import (  # noqa: E402
    AccessPattern,
    ArgSpec,
    KernelIR,
    KernelSignature,
    KernelSpec,
    KernelVariant,
    Loop,
    LoopBound,
    MemoryAccess,
    WorkRange,
)
from repro.kernel.buffers import Buffer  # noqa: E402
from repro.obs.export import reconcile, write_chrome_trace  # noqa: E402
from tests.device.engine_reference import advance_per_work_group  # noqa: E402

#: Acceptance floors (mirrored in EXPERIMENTS.md).  The speedup floor
#: is on the median per-pair reference/runs ratio, for both scenarios on
#: full and ``--quick`` inputs alike.
MIN_SPEEDUP = 2.0
MIN_MEMO_HIT_RATE = 0.95

#: Work-group sizes per scenario.
FULL_GROUPS = 65536
QUICK_GROUPS = 8192

#: Timed reference/runs pairs per scenario (odd: the median is one pair).
PAIRS = 9

#: The two dispatchers as ``runs`` forcings; False swaps the
#: per-work-group reference in for ``ExecutionEngine._advance_to``.
PATHS = (("reference", False), ("runs", True))

ELEMS_PER_UNIT = 8


def scale_executor(args, unit_start: int, unit_end: int) -> None:
    """y = 2x over the covered slice — cheap enough that functional
    execution does not drown the scheduling cost being measured."""
    lo = unit_start * ELEMS_PER_UNIT
    hi = unit_end * ELEMS_PER_UNIT
    args["y"].data[lo:hi] = 2.0 * args["x"].data[lo:hi]


def make_variant(name: str = "scale") -> KernelVariant:
    """One statically priced synthetic variant (memoizable costs)."""
    ir = KernelIR(
        loops=(Loop("k", LoopBound(static_trips=8)),),
        accesses=(
            MemoryAccess(
                "x",
                False,
                AccessPattern.UNIT_STRIDE,
                4.0 * ELEMS_PER_UNIT / 8,
                loop="k",
            ),
            MemoryAccess(
                "y",
                True,
                AccessPattern.UNIT_STRIDE,
                4.0 * ELEMS_PER_UNIT / 8,
                loop="k",
            ),
        ),
        flops_per_trip=float(ELEMS_PER_UNIT),
        work_group_threads=ELEMS_PER_UNIT,
    )
    return KernelVariant(
        name=name,
        ir=ir,
        executor=scale_executor,
        work_group_size=ELEMS_PER_UNIT,
    )


def make_args(units: int, config: ReproConfig) -> Dict[str, object]:
    rng = config.rng("bench-engine-args", units)
    x = rng.standard_normal(units * ELEMS_PER_UNIT).astype(np.float32)
    return {
        "x": Buffer("x", x, writable=False),
        "y": Buffer("y", np.zeros(units * ELEMS_PER_UNIT, dtype=np.float32)),
    }


class forced_path:
    """Pin the engine's dispatcher for one measurement."""

    def __init__(self, runs: bool) -> None:
        self.runs = runs

    def __enter__(self):
        self.saved = ExecutionEngine._advance_to
        if not self.runs:
            ExecutionEngine._advance_to = advance_per_work_group
        return self

    def __exit__(self, *exc):
        ExecutionEngine._advance_to = self.saved
        return False


def snapshot(engine, tasks) -> Tuple:
    """Dispatcher-invariant observables for the in-situ equality check."""
    return (
        tuple(
            (
                task.first_start,
                task.last_end,
                task.completed_work_groups,
                None
                if task.measured is None
                else task.measured.measured_cycles,
            )
            for task in tasks
        ),
        engine.now,
        engine.utilization(),
        tuple(sorted(engine._unit_heap)),
    )


def run_uncontended(groups: int, config: ReproConfig, runs: bool) -> Tuple:
    """One single-task batch; returns (snapshot, elapsed seconds)."""
    with forced_path(runs):
        variant = make_variant()
        args = make_args(groups, config)
        engine = ExecutionEngine(make_cpu(config), config)
        begin = time.perf_counter()
        task = engine.submit(
            variant, args, WorkRange(0, groups), measure=True
        )
        engine.wait(task)
        elapsed = time.perf_counter() - begin
        return snapshot(engine, [task]), elapsed


def run_contended(groups: int, config: ReproConfig, runs: bool) -> Tuple:
    """Mixed-priority three-task stream with interleaved host polls.

    Arguments are built before the clock starts, as in
    :func:`run_uncontended`: drawing them is not scheduling work.
    """
    per_task = groups // 3
    with forced_path(runs):
        variant = make_variant()
        engine = ExecutionEngine(make_cpu(config), config)
        argsets = [make_args(per_task, config) for _ in range(3)]
        begin = time.perf_counter()
        tasks: List = []
        for priority, args in zip(
            (Priority.BATCH, Priority.PROFILING, Priority.EAGER), argsets
        ):
            tasks.append(
                engine.submit(
                    variant,
                    args,
                    WorkRange(0, per_task),
                    priority=priority,
                    measure=True,
                )
            )
            engine.poll(tasks[0])
        engine.wait_all(tasks)
        engine.barrier()
        elapsed = time.perf_counter() - begin
        return snapshot(engine, tasks), elapsed


def measure_paths(scenario, groups: int, config: ReproConfig):
    """Time both dispatchers in ``PAIRS`` alternating pairs, checking
    equality.

    Returns the best seconds per dispatcher and the per-pair
    reference/runs ratios.
    """
    timings: Dict[str, List[float]] = {label: [] for label, _ in PATHS}
    snapshots: Dict[str, Tuple] = {}
    for pair in range(PAIRS):
        order = PATHS if pair % 2 == 0 else PATHS[::-1]
        for label, runs in order:
            snapshots[label], elapsed = scenario(groups, config, runs)
            timings[label].append(elapsed)
    if snapshots["runs"] != snapshots["reference"]:
        raise SystemExit(
            "equivalence violated: the runs disagree with the per-work-group "
            "reference on the benchmark workload"
        )
    ratios = [
        reference / runs
        for reference, runs in zip(timings["reference"], timings["runs"])
    ]
    return {label: min(times) for label, times in timings.items()}, ratios


def measure_memo(groups: int, config: ReproConfig, launches: int) -> Dict:
    """Warm hit rate over repeated launches of one workload class."""
    clear_cost_memo()
    variant = make_variant()
    engine = ExecutionEngine(make_cpu(config), config)
    for _ in range(launches):
        args = make_args(groups, config)
        task = engine.submit(variant, args, WorkRange(0, groups))
        engine.wait(task)
    stats = cost_memo_stats()
    total = stats["hits"] + stats["misses"]
    stats["hit_rate"] = stats["hits"] / total if total else 0.0
    stats["launches"] = launches
    clear_cost_memo()
    return stats


def traced_reconcile(trace_path: str) -> Tuple[int, List[str]]:
    """A traced runtime launch on the default path, reconciled."""
    from repro.compiler.variants import VariantPool

    config = ReproConfig(trace=True)
    runtime = DySelRuntime(make_cpu(config), config)
    spec = KernelSpec(
        signature=KernelSignature(
            "scale", (ArgSpec("x"), ArgSpec("y", is_output=True))
        )
    )
    runtime.register_pool(VariantPool(spec=spec, variants=(make_variant(),)))
    units = 512
    args = make_args(units, config)
    result = runtime.launch_kernel("scale", args, units)
    write_chrome_trace(runtime.tracer.events, trace_path)
    problems = reconcile(
        runtime.tracer.events,
        elapsed_cycles=result.elapsed_cycles,
        workload_units=units,
    )
    return len(runtime.tracer.events), problems


def run_benchmark(quick: bool, trace_path: str) -> Dict[str, object]:
    """Run all scenarios and return the BENCH_engine.json document."""
    groups = QUICK_GROUPS if quick else FULL_GROUPS
    quiet = ReproConfig().without_noise()
    noisy = ReproConfig()

    clear_cost_memo()
    uncontended, uncontended_ratios = measure_paths(
        run_uncontended, groups, quiet
    )
    contended, contended_ratios = measure_paths(run_contended, groups, noisy)
    memo = measure_memo(groups, quiet, launches=40)
    trace_events, trace_problems = traced_reconcile(trace_path)
    clear_cost_memo()

    uncontended_speedup = float(np.median(uncontended_ratios))
    contended_speedup = float(np.median(contended_ratios))
    return {
        "benchmark": "engine",
        "quick": quick,
        "workload": {
            "work_groups": groups,
            "pairs": PAIRS,
            "contended_tasks": 3,
            "memo_launches": memo["launches"],
        },
        "work_groups_per_sec": {
            "uncontended": {
                label: groups / seconds
                for label, seconds in uncontended.items()
            },
            "contended": {
                label: (3 * (groups // 3)) / seconds
                for label, seconds in contended.items()
            },
        },
        "seconds": {"uncontended": uncontended, "contended": contended},
        "pair_ratios": {
            "uncontended": uncontended_ratios,
            "contended": contended_ratios,
        },
        "memo": memo,
        "trace": {"events": trace_events, "problems": trace_problems},
        "acceptance": {
            "uncontended_speedup": uncontended_speedup,
            "uncontended_speedup_min": MIN_SPEEDUP,
            "uncontended_speedup_ok": uncontended_speedup >= MIN_SPEEDUP,
            "contended_speedup": contended_speedup,
            "contended_speedup_min": MIN_SPEEDUP,
            "contended_speedup_ok": contended_speedup >= MIN_SPEEDUP,
            "memo_hit_rate": memo["hit_rate"],
            "memo_hit_rate_min": MIN_MEMO_HIT_RATE,
            "memo_hit_rate_ok": memo["hit_rate"] >= MIN_MEMO_HIT_RATE,
            "paths_bit_identical_ok": True,  # measure_paths aborts otherwise
            "trace_reconciles_ok": not trace_problems,
        },
    }


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized inputs (seconds instead of minutes)",
    )
    parser.add_argument(
        "--output",
        default="BENCH_engine.json",
        help="where to write the results document",
    )
    parser.add_argument(
        "--trace",
        default="TRACE_engine.json",
        help="where to write the traced launch's Chrome trace",
    )
    args = parser.parse_args(argv)

    doc = run_benchmark(quick=args.quick, trace_path=args.trace)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")

    rates = doc["work_groups_per_sec"]
    acceptance = doc["acceptance"]
    print(f"engine benchmark ({'quick' if doc['quick'] else 'full'} inputs)")
    for scenario in ("uncontended", "contended"):
        row = rates[scenario]
        print(
            f"  {scenario:<11}: "
            + " / ".join(
                f"{label} {row[label]:,.0f} wg/s"
                for label, _ in PATHS
            )
            + f"  (median pair {acceptance[scenario + '_speedup']:.1f}x, "
            f"floor {acceptance[scenario + '_speedup_min']:.1f}x)"
        )
    print(
        f"  memo       : {100 * acceptance['memo_hit_rate']:.1f}% warm hits "
        f"over {doc['workload']['memo_launches']} launches "
        f"(floor {100 * acceptance['memo_hit_rate_min']:.0f}%)"
    )
    print(
        f"  trace      : {args.trace} ({doc['trace']['events']} events, "
        f"{len(doc['trace']['problems'])} problem(s))"
    )
    print(f"  written    : {args.output}")

    ok = (
        acceptance["uncontended_speedup_ok"]
        and acceptance["contended_speedup_ok"]
        and acceptance["memo_hit_rate_ok"]
        and acceptance["trace_reconciles_ok"]
    )
    if not ok:
        print("  ACCEPTANCE FAILED", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
