"""One benchmark phase of one workload run, in a fresh interpreter.

``run.py`` starts this script once per phase, so module-level caches in
the program (matrix and geometry caches, the cost memo) never carry over
from one measurement to the next.  Phases:

- ``setup``:  build the workload and report its set-up time only.
- ``replay``: set up, replay the schedule with nothing wrapped, check
  every output, then compute per-case oracles (the end-to-end run).
- ``spans``:  the same replay with every layer entry point wrapped
  (:mod:`spans`); reports self-time shares net of the wrappers' own
  cost, and writes the spans as a gzipped Chrome trace.
- ``obs``:    the same replay under ``ReproConfig(trace=True)``; the
  recorded event stream must reconcile with zero defects.

The phase writes one JSON document to ``--out`` and exits 0; any
exception exits non-zero without writing it.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from hostclock import (  # noqa: E402
    MIN_BEYOND,
    REF_NOMINAL_NS,
    HostClock,
    percentile,
    reference_kernel,
    samples_beyond,
)

import scenario  # noqa: E402
from repro.device import make_cpu  # noqa: E402
from repro.device.cost import cost_memo_stats  # noqa: E402
from repro.device.engine import ExecutionEngine, Priority  # noqa: E402
from repro.kernel.kernel import WorkRange  # noqa: E402
from repro.obs.export import reconcile  # noqa: E402
from repro.serve import SplitOutcome  # noqa: E402
from spans import SpanRecorder, span_cost_ns  # noqa: E402

PHASES = ("setup", "replay", "spans", "obs")

#: Failure messages kept in a phase document (the count is exact).
MAX_FAILURE_NOTES = 5

#: Wrapper-cost calibration rounds on each side of a spans replay; one
#: round alone varies by about 20% with the host's speed.
SPAN_COST_ROUNDS = 20


def served_cycles(outcome) -> float:
    """Device cycles one served request took (split: its slowest part)."""
    if isinstance(outcome, SplitOutcome):
        return outcome.elapsed_cycles
    return outcome.result.elapsed_cycles


def _parts(outcome):
    if isinstance(outcome, SplitOutcome):
        return [part.result for part in outcome.parts]
    return [outcome.result]


def oracle_cycles(case, config) -> float:
    """Best noise-free cycles of one launch of the case, over its pool."""
    quiet = config.without_noise()
    device = make_cpu(quiet)
    best = math.inf
    for variant in case.pool.variants:
        engine = ExecutionEngine(device, quiet)
        task = engine.submit(
            variant,
            case.fresh_args(),
            WorkRange(0, case.workload_units),
            priority=Priority.BATCH,
        )
        engine.wait(task)
        best = min(best, engine.now)
    return best


def nominal_span_cost(host: HostClock) -> float:
    """:func:`spans.span_cost_ns` on the nominal host (``hostclock``).

    Each of ``SPAN_COST_ROUNDS`` rounds is scaled by the reference
    samples on either side of it; the median of the rounds.
    """
    costs = []
    before = host.sample()
    for _ in range(SPAN_COST_ROUNDS):
        cost = span_cost_ns()
        after = host.sample()
        costs.append(cost * REF_NOMINAL_NS / statistics.mean((before, after)))
        before = after
    return statistics.median(costs)


def _counters(setup) -> Dict[str, float]:
    """Program counters that the per-layer metrics take deltas of."""
    scheduler = setup.scheduler
    stats = scheduler.stats
    store = scheduler.store.stats
    drift = scheduler.store.drift
    return {
        "store_hits": store.hits,
        "store_lookups": store.hits + store.misses,
        "store_puts": store.puts,
        "predicted": stats.predicted_launches,
        "prediction_fallbacks": stats.prediction_fallbacks,
        "split_launches": stats.split_launches,
        "drift_episodes": len(drift.episodes) if drift is not None else 0,
        "engine_tasks": sum(
            scheduler.runtime(d).engine.launch_count
            for d in scheduler.devices
        ),
        "cost_memo_hits": cost_memo_stats()["hits"],
    }


def replay(setup, host: HostClock, recorder=None) -> Dict[str, object]:
    """Serve every row from one closed-loop client; check each output.

    Only the ``launch`` call is timed.  Fresh arguments are built just
    before it and outputs are checked just after it, outside the span;
    the reference kernel runs between requests every ``REF_INTERVAL_NS``.
    """
    scheduler = setup.scheduler
    before = _counters(setup)
    starts: List[int] = []
    raws: List[int] = []
    served: List[int] = []
    latency: List[float] = []
    cycles: List[float] = []
    oracle_keys = []
    raised = 0
    bad_outputs = 0
    notes: List[str] = []
    profiled = 0
    profiling_cycles = 0.0
    eager_chunks = 0
    deadline_misses = 0
    gc.collect()
    first_sample = len(host.samples)
    host.sample()
    for index, row in enumerate(setup.rows):
        request = setup.request(row)
        setup.clock.now = row.time
        if recorder is not None:
            recorder.request = index
            recorder.active = True
        start = time.perf_counter_ns()
        try:
            outcome = scheduler.launch(request)
        except Exception as exc:  # counted, reported, and never timed out
            outcome = None
            failure = f"request {index}: {type(exc).__name__}: {exc}"
        end = time.perf_counter_ns()
        if recorder is not None:
            recorder.active = False
            if recorder.stack:
                raise RuntimeError(f"request {index} left spans open")
        starts.append(start)
        raws.append(end - start)
        if outcome is None:
            raised += 1
            if len(notes) < MAX_FAILURE_NOTES:
                notes.append(failure)
        elif not setup.case(row).validate(request.args):
            bad_outputs += 1
            if len(notes) < MAX_FAILURE_NOTES:
                notes.append(f"request {index}: output failed its checker")
        else:
            served.append(index)
            latency.append(outcome.latency_cycles)
            cycles.append(served_cycles(outcome))
            oracle_keys.append((row.workload, row.units))
            deadline_misses += int(outcome.deadline_missed)
            results = _parts(outcome)
            profiled += int(any(r.profiled for r in results))
            profiling_cycles += sum(r.profiling_latency_cycles for r in results)
            eager_chunks += sum(r.eager_chunks for r in results)
        host.sample_if_due()
    host.sample()
    after = _counters(setup)
    delta = {key: after[key] - before[key] for key in before}
    return {
        "ref_ns": statistics.median(
            d for _, d in host.samples[first_sample:]
        ),
        "starts": starts,
        "raws": raws,
        "served": served,
        "latency": latency,
        "cycles": cycles,
        "oracle_keys": oracle_keys,
        "raised": raised,
        "bad_outputs": bad_outputs,
        "notes": notes,
        "profiled": profiled,
        "profiling_cycles": profiling_cycles,
        "eager_chunks": eager_chunks,
        "deadline_misses": deadline_misses,
        "delta": delta,
    }


def summarize(setup, host: HostClock, run: Dict[str, object]) -> Dict:
    """Both clocks' metrics of one replay (before the oracle pass)."""
    served = run["served"]
    starts, raws = run["starts"], run["raws"]
    corrected = [host.correct(s, r) for s, r in zip(starts, raws)]
    wall_us = [corrected[i] / 1e3 for i in served]
    raw_us = [raws[i] / 1e3 for i in served]
    attempted = len(raws)
    failed = run["raised"] + run["bad_outputs"]
    doc = {
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "failure_notes": run["notes"],
        "launch_ns": sum(corrected),
        "launch_raw_ns": sum(raws),
        "ref_us": host.median_ns() / 1e3,
        "wall_samples": len(wall_us),
        "wall_beyond_p99": samples_beyond(len(wall_us), 99.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if wall_us:
        doc.update(
            throughput_rps=len(served) / (sum(corrected) / 1e9),
            raw_throughput_rps=len(served) / (sum(raws) / 1e9),
            request_wall_us_p50=percentile(wall_us, 50.0),
            raw_request_wall_us_p50=percentile(raw_us, 50.0),
            latency_cycles_p50=percentile(run["latency"], 50.0),
            served_cycles=sum(run["cycles"]),
        )
    if doc["wall_beyond_p99"] >= MIN_BEYOND:
        # Too short a replay leaves these out, and run.py then refuses
        # to report a result.
        doc.update(
            request_wall_us_p99=percentile(wall_us, 99.0),
            raw_request_wall_us_p99=percentile(raw_us, 99.0),
            latency_cycles_p99=percentile(run["latency"], 99.0),
        )
    delta = run["delta"]
    n = max(1, len(served))
    total_cycles = sum(run["cycles"]) or 1.0
    predicted = delta["predicted"] + delta["prediction_fallbacks"]
    scheduler = setup.scheduler
    engines = [scheduler.runtime(d).engine for d in scheduler.devices]
    doc["counters"] = {
        "serve.store.hit_rate": (
            delta["store_hits"] / delta["store_lookups"]
            if delta["store_lookups"]
            else 0.0
        ),
        "serve.store.puts": delta["store_puts"],
        "serve.qos.deadline_miss_share": run["deadline_misses"] / n,
        "serve.split.launches": delta["split_launches"],
        "predict.applied_share": (
            delta["predicted"] / predicted if predicted else 0.0
        ),
        "drift.episodes": delta["drift_episodes"],
        "core.orchestrator.profiled_share": run["profiled"] / n,
        "core.orchestrator.profiling_cycles_share": (
            run["profiling_cycles"] / total_cycles
        ),
        "core.orchestrator.eager_chunks": run["eager_chunks"],
        "device.engine.tasks": delta["engine_tasks"],
        "device.engine.utilization": sum(e.utilization() for e in engines)
        / len(engines),
        "cost_memo_hits": delta["cost_memo_hits"],
    }
    return doc


def oracle_ratio(setup, run: Dict[str, object]) -> float:
    """Σ served cycles ÷ Σ each served request's noise-free oracle."""
    best: Dict[tuple, float] = {}
    total = 0.0
    for key in run["oracle_keys"]:
        if key not in best:
            case = setup.replayer.case_for(*key)
            best[key] = oracle_cycles(case, setup.config)
        total += best[key]
    return sum(run["cycles"]) / total


def check_warmup(setup) -> int:
    """Warm-up outputs that fail their checker (setup, so untimed)."""
    return sum(
        0 if case.validate(request.args) else 1
        for case, request in setup.warmup
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--phase", choices=PHASES, required=True)
    parser.add_argument("--workload", choices=scenario.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True, help="phase JSON document")
    parser.add_argument(
        "--schedule", help="replay this saved schedule instead of generating"
    )
    parser.add_argument(
        "--save-schedule", help="write the generated schedule here"
    )
    parser.add_argument(
        "--chrome-trace", help="spans phase: gzipped Chrome trace path"
    )
    args = parser.parse_args(argv)

    for _ in range(3):  # first runs pay one-time interpreter costs
        reference_kernel()
    host = HostClock()
    setup = scenario.build(
        args.workload,
        args.seed,
        args.seconds,
        host,
        schedule_path=args.schedule,
        trace=args.phase == "obs",
    )
    doc: Dict[str, object] = {
        "phase": args.phase,
        "workload": args.workload,
        "seed": args.seed,
        "requests": len(setup.rows),
        "setup_s": sum(setup.steps_ns.values()) / 1e9,
        "raw_setup_s": sum(setup.steps_raw_ns.values()) / 1e9,
        "setup_steps_ms": {k: v / 1e6 for k, v in setup.steps_ns.items()},
        "raw_setup_steps_ms": {
            k: v / 1e6 for k, v in setup.steps_raw_ns.items()
        },
        "warmup_failed": check_warmup(setup),
        "ref_nominal_us": REF_NOMINAL_NS / 1e3,
    }
    if args.save_schedule:
        setup.schedule.save(args.save_schedule)
    if args.phase != "setup":
        recorder = None
        if args.phase == "spans":
            recorder = SpanRecorder()
            recorder.install()
            span_costs = [nominal_span_cost(host)]
        if args.phase == "obs":
            events_before = _event_count(setup)
        try:
            run = replay(setup, host, recorder)
        finally:
            if recorder is not None:
                recorder.uninstall()
        doc.update(summarize(setup, host, run))
        if recorder is not None:
            # Calibrated on both sides of the replay, and taken back to
            # the host's median speed during it, as the spans ran.
            span_costs.append(nominal_span_cost(host))
            doc["span_cost_ns"] = (
                statistics.mean(span_costs) * run["ref_ns"] / REF_NOMINAL_NS
            )
            doc["layers"] = recorder.layer_totals()
            doc["self_shares"] = recorder.self_shares(doc["span_cost_ns"])
            doc["engine_polls"] = recorder.target_calls("device.engine", "poll")
            if args.chrome_trace:
                doc["spans_written"] = recorder.write_chrome_trace(
                    args.chrome_trace
                )
        if args.phase == "obs":
            doc["events"] = _event_count(setup) - events_before
            doc["trace_defects"] = _trace_defects(setup)
        if args.phase == "replay":
            doc["oracle_cycles_ratio"] = oracle_ratio(setup, run)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1)
    return 0


def _event_count(setup) -> int:
    scheduler = setup.scheduler
    return len(scheduler.tracer.events) + sum(
        len(events) for events in scheduler.device_traces().values()
    )


def _trace_defects(setup) -> List[str]:
    scheduler = setup.scheduler
    defects = list(reconcile(scheduler.tracer.events))
    for device, events in scheduler.device_traces().items():
        defects.extend(f"{device}: {d}" for d in reconcile(events))
    return defects


if __name__ == "__main__":
    sys.exit(main())
