"""Run the benchmark over many seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/series.py --seeds 10 --sets 2

Every run is ``perfbench/run.py --trace 0`` in its own process, over
every workload of ``BENCHMARK.json`` at its ``run_seconds``.  Runs
interleave:
for each seed, every set runs every workload, and the workload order is
reversed on alternate runs, so slow drift of the host lands on all
workloads and sets alike.  For each workload, set and metric the summary
gives the median and the interquartile range as a share of the median
(``statistics.quantiles(values, n=4)``), and, with two sets, how much
worse the second set's median is than the first's; each is checked
against the metric's ``bound`` in ``BENCHMARK.json``.  Cycle metrics
must be identical in every set for a seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Metrics on the device clock: identical across runs of one seed.
CYCLE_METRICS = (
    "latency_cycles_p50",
    "latency_cycles_p99",
    "oracle_cycles_ratio",
)


def run_once(workload: str, seed: int, seconds: int) -> Dict:
    """One end-to-end benchmark run; its final JSON line."""
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}:\n"
            f"{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def worsening(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    if not first:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args(argv)

    runs: Dict[str, List[List[Dict]]] = {
        w: [[] for _ in range(args.sets)] for w in workloads
    }
    turn = 0
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for which in range(args.sets):
            order = workloads if turn % 2 == 0 else workloads[::-1]
            turn += 1
            for workload in order:
                result = run_once(workload, seed, bench["run_seconds"])
                result["seed"] = seed
                runs[workload][which].append(result)
                values = " ".join(
                    f"{name}={m['value']:.6g}"
                    for name, m in result["metrics"].items()
                )
                print(
                    f"seed {seed} set {which + 1} {workload}: correct="
                    f"{result['correct']} failed={result['failed']} {values}",
                    file=sys.stderr,
                )

    ok = True
    for workload in workloads:
        print(f"== {workload}")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            sets = [
                [r["metrics"][name]["value"] for r in runs[workload][s]]
                for s in range(args.sets)
            ]
            cells = [
                f"med {statistics.median(v):.6g} iqr {100 * spread(v):5.2f}%"
                for v in sets
            ]
            line = f"  {name:<24} " + " | ".join(cells)
            bound = metric["bound"]
            if len(sets[0]) >= 2:
                if max(spread(v) for v in sets) > bound:
                    ok = False
                    line += f"  SPREAD > bound {bound}"
                if args.sets >= 2:
                    worse = worsening(
                        statistics.median(sets[0]),
                        statistics.median(sets[1]),
                        metric["better"],
                    )
                    line += f"  set2 worse by {100 * worse:+.2f}%"
                    if worse > bound:
                        ok = False
                        line += f" > bound {bound}"
            if name in CYCLE_METRICS and args.sets >= 2:
                same = all(len(set(col)) == 1 for col in zip(*sets))
                line += "  identical" if same else "  DIFFER ACROSS SETS"
                ok = ok and same
            print(line)
        wrong = [
            r for s in runs[workload] for r in s
            if not r["correct"] or r["failed"]
        ]
        if wrong:
            ok = False
            print(f"  {len(wrong)} runs incorrect or with failures")
    print("all spreads and set medians within bounds" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
