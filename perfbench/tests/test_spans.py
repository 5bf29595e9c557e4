"""The span wrappers count a scripted launch exactly and leave no trace."""

import gzip
import json
import statistics

import pytest

from repro.config import ReproConfig
from repro.device import make_cpu
from repro.device.engine import ExecutionEngine
from repro.modes import OrchestrationFlow
from repro.serve import LaunchScheduler, ServeRequest
from repro.workloads import spmv_csr
from spans import LAYERS, SpanRecorder, span_cost_ns


def scripted_launch(recorder=None):
    """One cold spmv-csr launch: it micro-profiles in the async flow."""
    config = ReproConfig()
    case = spmv_csr.input_dependent_case("cpu", "random", 2048, config)
    scheduler = LaunchScheduler((make_cpu(config),), config=config)
    scheduler.register_pool(case.pool)
    request = ServeRequest(
        kernel=case.pool.name,
        args=case.fresh_args(),
        workload_units=case.workload_units,
    )
    if recorder is not None:
        recorder.request = 0
        recorder.active = True
    try:
        outcome = scheduler.launch(request)
    finally:
        if recorder is not None:
            recorder.active = False
    assert case.validate(request.args)
    return outcome


@pytest.fixture
def counted_polls(monkeypatch):
    """Polls of one async profile, counted by a plain patch."""
    calls = []
    original = ExecutionEngine.poll

    def poll(self, task):
        calls.append(task)
        return original(self, task)

    monkeypatch.setattr(ExecutionEngine, "poll", poll)
    outcome = scripted_launch()
    monkeypatch.undo()
    assert outcome.profiled
    assert outcome.result.flow is OrchestrationFlow.ASYNC
    assert calls
    return len(calls)


def test_wrappers_count_one_async_profile_exactly(counted_polls, tmp_path):
    recorder = SpanRecorder()
    recorder.install()
    try:
        outcome = scripted_launch(recorder)
    finally:
        recorder.uninstall()
    assert outcome.profiled
    assert recorder.target_calls("device.engine", "poll") == counted_polls
    totals = recorder.layer_totals()
    for layer in (
        "serve.scheduler",
        "serve.signature",
        "serve.placement",
        "core.runtime",
        "core.policy",
        "core.orchestrator",
        "core.productive",
        "compiler.safe_point",
    ):
        assert totals[layer]["calls"] == 1, layer
    assert totals["analyze.gate"]["calls"] == 2  # verify + gate_launch
    assert recorder.target_calls("core.orchestrator", "run_async") == 1
    assert totals["serve.qos"]["calls"] == 0
    # Self times partition the launch span exactly, and so do the shares
    # net of any per-call wrapper cost: every nested call is one child.
    assert sum(t["self_ns"] for t in totals.values()) == recorder.launch_ns()
    assert sum(recorder.child_calls) == sum(recorder.calls) - 1
    for cost in (0.0, 500.0):
        shares = recorder.self_shares(cost)
        assert sum(shares.values()) == pytest.approx(1.0)
    assert not recorder.stack

    path = tmp_path / "spans.trace.json.gz"
    written = recorder.write_chrome_trace(str(path))
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        events = json.load(handle)["traceEvents"]
    assert written == len(events) == sum(t["calls"] for t in totals.values())
    assert {e["args"]["request"] for e in events} == {0}


def test_uninstall_restores_every_original():
    before = {
        (id(owner), attr): (attr in vars(owner), vars(owner).get(attr))
        for pairs in LAYERS.values()
        for owner, attr in pairs
    }
    recorder = SpanRecorder()
    recorder.install()
    try:
        assert all(
            vars(owner)[attr] is not before[(id(owner), attr)][1]
            for pairs in LAYERS.values()
            for owner, attr in pairs
        )
        with pytest.raises(RuntimeError):
            recorder.install()
    finally:
        recorder.uninstall()
    after = {
        (id(owner), attr): (attr in vars(owner), vars(owner).get(attr))
        for pairs in LAYERS.values()
        for owner, attr in pairs
    }
    assert after == before


def test_inactive_wrappers_record_nothing():
    recorder = SpanRecorder()
    recorder.install()
    try:
        scripted_launch()
    finally:
        recorder.uninstall()
    assert sum(recorder.calls) == 0 and len(recorder.spans) == 0


def _busy(first, second):
    total = 0
    for i in range(40):
        total += i
    return total


def test_net_shares_take_the_wrapper_cost_off_the_caller():
    # A caller that does nothing but call a wrapped child: its raw self
    # time is almost all the child wrappers' bookkeeping.  Calibrations
    # alternate with the calls, so host drift lands on both alike.
    recorder = SpanRecorder()
    caller_index = recorder.targets.index(
        ("serve.scheduler", LaunchScheduler, "launch")
    )
    child_index = recorder.targets.index(
        ("device.engine", ExecutionEngine, "poll")
    )
    child = recorder.wrap(child_index, _busy)

    def caller():
        for _ in range(2_000):
            child(None, None)

    wrapped_caller = recorder.wrap(caller_index, caller)
    costs = []
    for _ in range(12):
        costs.append(span_cost_ns(calls=2_000))
        recorder.active = True
        wrapped_caller()
        recorder.active = False
    assert recorder.child_calls[caller_index] == 12 * 2_000
    raw = recorder.self_shares(0.0)["serve.scheduler"]
    net = recorder.self_shares(statistics.median(costs))["serve.scheduler"]
    assert min(costs) > 0.0
    assert raw > 0.3
    # Without the cost taken off, ``net`` would equal ``raw``; taken off
    # twice, it would be about ``-raw``.
    assert abs(net) < 0.6 * raw
