"""Serving-replay benchmark: end-to-end and per-layer metrics on both clocks.

Usage (from the repository root)::

    python3 perfbench/run.py --workload warm_steady --seed 7 --seconds 12 --trace 0

Each phase of a run is a fresh interpreter (``perfbench/replay.py``), so
the program's module caches never leak from one measurement into the
next, and the program never sees anything but the seeded requests.

``--trace 0`` measures the end-to-end metrics: one ``replay`` phase
between ``setup`` phases, with ``setup_s`` the median of all their
set-ups.  Host-clock metrics are corrected for host-speed drift by the
reference kernel in :mod:`hostclock`; each raw value is printed beside
the corrected one.

``--trace 1`` measures the per-layer metrics: a plain ``replay`` phase,
a ``spans`` phase with every layer entry point wrapped, and an ``obs``
phase under ``ReproConfig(trace=True)``, each replaying the same
schedule.  The three must serve identical cycles.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The schedule, every phase
document and the spans' Chrome trace are written under
``perfbench/out/<workload>/seed<seed>-trace<0|1>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("warm_steady", "profile_churn", "adaptive_mix")

#: Seconds one phase may take before it is stopped.
PHASE_TIMEOUT = 170

#: Set-up-only phases before and after the replay in an end-to-end run
#: (``setup_s`` is the median over these and the replay's own set-up).
#: Over ten seeds, one process's set-up time spread by up to 13%
#: (interquartile range over the median), the median of five by 5-7%.
SETUPS_AROUND = 2

#: End-to-end metrics and their units (keys of the replay phase document).
END_TO_END = {
    "throughput_rps": "1/s",
    "request_wall_us_p50": "us",
    "request_wall_us_p99": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_cycles_p50": "cycles",
    "latency_cycles_p99": "cycles",
    "oracle_cycles_ratio": "ratio",
}

#: Host-clock metrics printed raw beside their corrected value.
RAW_OF = {
    "throughput_rps": "raw_throughput_rps",
    "request_wall_us_p50": "raw_request_wall_us_p50",
    "request_wall_us_p99": "raw_request_wall_us_p99",
    "setup_s": "raw_setup_s",
}

#: Layers whose self-time share and call count are reported.
SPAN_LAYERS = (
    "serve.scheduler",
    "serve.signature",
    "serve.placement",
    "serve.store",
    "serve.lease",
    "serve.qos",
    "predict",
    "drift",
    "core.runtime",
    "core.policy",
    "core.orchestrator",
    "core.productive",
    "analyze.gate",
    "analyze.dominance",
    "compiler.safe_point",
    "device.engine",
    "device.cost",
    "kernel.execute",
)

#: Per-layer counters taken from the spans phase's program counters.
COUNTERS = {
    "serve.store.hit_rate": "share",
    "serve.store.puts": "count",
    "serve.qos.deadline_miss_share": "share",
    "serve.split.launches": "count",
    "predict.applied_share": "share",
    "drift.episodes": "count",
    "core.orchestrator.profiled_share": "share",
    "core.orchestrator.profiling_cycles_share": "share",
    "core.orchestrator.eager_chunks": "count",
    "device.engine.tasks": "count",
    "device.engine.utilization": "share",
}

#: Set-up steps reported per layer: metric -> step name.
SETUP_STEPS = {
    "traffic.generate_ms": "traffic.generate",
    "workloads.build_ms": "workloads.build",
    "serve.register_ms": "serve.register",
    "serve.warmup_ms": "serve.warmup",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: Dict[str, str] = {name: "ms" for name in SETUP_STEPS}
    for layer in SPAN_LAYERS:
        units[f"{layer}.self_share"] = "share"
        units[f"{layer}.calls"] = "count"
    units.update(COUNTERS)
    units["device.engine.polls"] = "count"
    units["device.cost.memo_hit_rate"] = "share"
    units["obs.trace_overhead"] = "ratio"
    units["obs.events_per_request"] = "count"
    units["bench.span_overhead"] = "ratio"
    units["bench.ref_us"] = "us"
    units["bench.raw_throughput_rps"] = "1/s"
    return units


class PhaseError(RuntimeError):
    """A phase exited non-zero or wrote no document."""


def run_phase(
    phase: str, args: argparse.Namespace, out_dir: str, tag: str,
    extra: Tuple[str, ...] = (),
) -> Dict:
    """Run one phase in a fresh interpreter and read its document."""
    doc_path = os.path.join(out_dir, f"{tag}.json")
    if os.path.exists(doc_path):
        os.unlink(doc_path)
    command = [
        sys.executable,
        os.path.join(HERE, "replay.py"),
        "--phase", phase,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--out", doc_path,
    ]
    if args.schedule:
        command += ["--schedule", args.schedule]
    command += list(extra)
    env = dict(os.environ)
    # One client thread: keep BLAS from spinning threads of its own on
    # the other core, which would slow the reference kernel unevenly.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # The same dict layouts in every phase, so that string-hash
    # randomisation does not make one process faster than the next.
    env["PYTHONHASHSEED"] = "0"
    try:
        subprocess.run(
            command, env=env, check=True, timeout=PHASE_TIMEOUT,
            stdout=sys.stderr,
        )
    except subprocess.TimeoutExpired as exc:
        raise PhaseError(f"phase {tag} timed out") from exc
    except subprocess.CalledProcessError as exc:
        raise PhaseError(f"phase {tag} exited {exc.returncode}") from exc
    if not os.path.exists(doc_path):
        raise PhaseError(f"phase {tag} wrote no document")
    with open(doc_path, encoding="utf-8") as handle:
        return json.load(handle)


def phase_ok(doc: Dict) -> bool:
    """Whether a replaying phase served and checked every request."""
    return doc["failed"] == 0 and doc["warmup_failed"] == 0


def end_to_end(args, out_dir: str) -> Tuple[Dict, List[str], bool, Dict]:
    """``--trace 0``: set-up phases around one replay phase."""
    setups = [
        run_phase("setup", args, out_dir, f"setup-{i + 1}")
        for i in range(SETUPS_AROUND)
    ]
    schedule = os.path.join(out_dir, "schedule.json")
    replay = run_phase(
        "replay", args, out_dir, "replay",
        extra=("--save-schedule", schedule),
    )
    setups += [
        run_phase("setup", args, out_dir, f"setup-{SETUPS_AROUND + i + 1}")
        for i in range(SETUPS_AROUND)
    ]
    setup_values = [d["setup_s"] for d in setups] + [replay["setup_s"]]
    raw_setup = [d["raw_setup_s"] for d in setups] + [replay["raw_setup_s"]]
    values = {name: replay.get(name) for name in END_TO_END}
    values["setup_s"] = statistics.median(setup_values)
    raws = {raw: replay.get(raw) for raw in RAW_OF.values()}
    raws["raw_setup_s"] = statistics.median(raw_setup)
    lines = [
        f"workload {args.workload} seed {args.seed}: {replay['attempted']} "
        f"requests attempted, {replay['failed']} failed "
        f"(failed_share {replay['failed_share']:.4f}), "
        f"{replay['wall_samples']} host samples "
        f"({replay['wall_beyond_p99']} beyond p99)",
        f"bench.ref_us {replay['ref_us']:.1f} (nominal "
        f"{replay['ref_nominal_us']:.0f}); setup_s per phase "
        + ", ".join(f"{v:.3f}" for v in setup_values),
    ]
    for name, unit in END_TO_END.items():
        value = values[name]
        shown = "missing" if value is None else f"{value:.6g}"
        raw = RAW_OF.get(name)
        suffix = f"  (raw {raws[raw]:.6g})" if raw else ""
        lines.append(f"  {name:<24} {shown:>14} {unit}{suffix}")
    correct = phase_ok(replay)
    return values, lines, correct, replay


def per_layer(args, out_dir: str) -> Tuple[Dict, List[str], bool, Dict]:
    """``--trace 1``: plain, spans and obs replays of one schedule."""
    plain = run_phase(
        "replay", args, out_dir, "plain",
        extra=("--save-schedule", os.path.join(out_dir, "schedule.json")),
    )
    spans = run_phase(
        "spans", args, out_dir, "spans",
        extra=("--chrome-trace", os.path.join(out_dir, "spans.trace.json.gz")),
    )
    obs = run_phase("obs", args, out_dir, "obs")
    values: Dict[str, Optional[float]] = {}
    for metric, step in SETUP_STEPS.items():
        values[metric] = plain["setup_steps_ms"].get(step, 0.0)
    for layer in SPAN_LAYERS:
        values[f"{layer}.self_share"] = spans["self_shares"][layer]
        values[f"{layer}.calls"] = spans["layers"][layer]["calls"]
    for name in COUNTERS:
        values[name] = spans["counters"][name]
    values["device.engine.polls"] = spans["engine_polls"]
    cost_calls = spans["layers"]["device.cost"]["calls"]
    values["device.cost.memo_hit_rate"] = (
        spans["counters"]["cost_memo_hits"] / cost_calls if cost_calls else 0.0
    )
    values["obs.trace_overhead"] = obs["launch_ns"] / plain["launch_ns"]
    values["obs.events_per_request"] = obs["events"] / obs["attempted"]
    values["bench.span_overhead"] = spans["launch_ns"] / plain["launch_ns"]
    values["bench.ref_us"] = plain["ref_us"]
    values["bench.raw_throughput_rps"] = plain.get("raw_throughput_rps")
    same_cycles = (
        plain.get("served_cycles") == spans.get("served_cycles")
        == obs.get("served_cycles")
    )
    correct = (
        all(phase_ok(d) for d in (plain, spans, obs))
        and not obs["trace_defects"]
        and same_cycles
    )
    lines = [
        f"workload {args.workload} seed {args.seed}: {plain['attempted']} "
        f"requests per phase; {spans['spans_written']} spans written; "
        f"{spans['span_cost_ns']:.0f} ns of wrapper time per nested "
        f"call taken off its caller's self time; "
        f"{obs['events']} trace events, "
        f"{len(obs['trace_defects'])} reconcile defects; "
        f"identical cycles across phases: {same_cycles}",
    ]
    lines += [f"  trace defect: {d}" for d in obs["trace_defects"][:5]]
    units = per_layer_units()
    for name, unit in units.items():
        value = values.get(name)
        shown = "missing" if value is None else f"{value:.6g}"
        lines.append(f"  {name:<42} {shown:>14} {unit}")
    return values, lines, correct, plain


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Serving-replay benchmark (see module docstring)."
    )
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--schedule", help="replay a schedule saved by an earlier run"
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    out_dir = os.path.join(
        HERE, "out", args.workload, f"seed{args.seed}-trace{args.trace}"
    )
    os.makedirs(out_dir, exist_ok=True)
    measure = per_layer if args.trace else end_to_end
    try:
        values, lines, correct, doc = measure(args, out_dir)
    except PhaseError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    units = per_layer_units() if args.trace else END_TO_END
    missing = [name for name in units if values.get(name) is None]
    if missing:
        print(f"refusing to report: missing metrics {missing}", file=sys.stderr)
        return 1
    for note in doc.get("failure_notes", []):
        print(f"  failure: {note}")
    result = {
        "correct": bool(correct),
        "attempted": int(doc["attempted"]),
        "failed": int(doc["failed"]),
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
