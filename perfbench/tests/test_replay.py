"""Same-seed replays repeat on the device clock; metric names match."""

import argparse
import json
import os

import pytest

import run
import scenario
from hostclock import HostClock
from repro.traffic import TrafficReplayer

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))

#: Everything a replay reports that must not depend on host speed.
EXACT = (
    "attempted",
    "failed",
    "requests",
    "latency_cycles_p50",
    "served_cycles",
    "counters",
)


@pytest.mark.parametrize("workload", scenario.WORKLOADS)
def test_two_quick_same_seed_replays_agree_exactly(workload, tmp_path):
    args = argparse.Namespace(
        workload=workload, seed=5, seconds=0.5, schedule=None
    )
    first = run.run_phase("replay", args, str(tmp_path), "first")
    second = run.run_phase("replay", args, str(tmp_path), "second")
    assert first["failed"] == 0 and first["attempted"] > 0
    for key in EXACT:
        assert first[key] == second[key], key
    assert first["oracle_cycles_ratio"] == second["oracle_cycles_ratio"]
    # Too short for ten samples beyond p99: the tail is left out, so
    # run.py would refuse to report.
    assert "latency_cycles_p99" not in first


def test_saved_schedule_replays_the_same_requests(tmp_path):
    saved = str(tmp_path / "schedule.json")
    args = argparse.Namespace(
        workload="profile_churn", seed=9, seconds=0.5, schedule=None
    )
    generated = run.run_phase(
        "replay", args, str(tmp_path), "generated",
        extra=("--save-schedule", saved),
    )
    args.schedule = saved
    loaded = run.run_phase("replay", args, str(tmp_path), "loaded")
    for key in EXACT:
        assert generated[key] == loaded[key], key


def test_churn_ttl_expires_every_class_before_its_next_request():
    schedule = scenario.generate("profile_churn", seed=2, seconds=0.5)
    rows = schedule.requests
    ttl = scenario._churn_ttl(rows)
    last = {}
    for row in rows:
        key = (row.workload, row.units)
        if key in last:
            assert row.time - last[key] > ttl
        last[key] = row.time


def test_adaptive_mix_switches_only_the_pinned_class_at_half_time():
    schedule = scenario.generate("adaptive_mix", seed=4, seconds=1.0)
    served = scenario.served_rows("adaptive_mix", schedule)
    half = schedule.horizon / 2
    for before, after in zip(schedule.requests, served):
        pinned = before.tenant == "interactive" and before.workload.startswith(
            "spmv-csr/"
        )
        if pinned and before.time >= half:
            assert after.workload == "spmv-csr/diagonal"
        else:
            assert after == before


def test_setup_steps_are_timed_between_references(monkeypatch):
    built = []
    case_for = TrafficReplayer.case_for

    def recording_case_for(self, workload, units):
        built.append((workload, units))
        return case_for(self, workload, units)

    monkeypatch.setattr(TrafficReplayer, "case_for", recording_case_for)
    host = HostClock()
    setup = scenario.build("warm_steady", seed=3, seconds=0.2, host=host)
    assert set(setup.steps_raw_ns) == {
        "traffic.generate", "workloads.build", "serve.register",
        "serve.warmup",
    }
    assert len(host.samples) >= 4
    classes = {(r.workload, r.units) for r in setup.rows}
    assert len(setup.warmup) == len(classes)
    # Cases are built in a fixed order, whatever order they arrive in.
    assert built[: len(classes)] == sorted(classes)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {
        m["name"]: m["unit"] for m in bench["per_layer"]
    } == run.per_layer_units()
    assert [w["name"] for w in bench["workloads"]] == list(scenario.WORKLOADS)
    assert run.WORKLOADS == scenario.WORKLOADS
