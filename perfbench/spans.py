"""Per-layer spans recorded from outside the program.

:meth:`SpanRecorder.install` wraps the public entry point of each layer
where its caller looks it up: methods on their class, and functions
imported by name in the module that imports them (``repro.core.runtime``
and ``repro.serve.scheduler``).  While the recorder is active, each
wrapped call records one span tagged with the request being served; a
span's self time is its duration minus its wrapped children's
durations.  Spans stay in memory and are written as a Chrome trace when
the run ends; :meth:`SpanRecorder.uninstall` restores every original
attribute.

A wrapper's own bookkeeping runs outside its timed window but inside
its caller's, so it would be charged to the caller's self time.
:func:`span_cost_ns` measures that cost per wrapped call, and
:meth:`SpanRecorder.self_shares` takes it off every caller once per
wrapped child and off the ``launch`` total.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from array import array
from typing import Dict, List, Tuple

from repro.analyze.manager import PoolVerifier
from repro.core import policy as policy_module
from repro.core import runtime as runtime_module
from repro.core.runtime import DySelRuntime
from repro.device.cost import CostModel
from repro.device.engine import ExecutionEngine
from repro.drift import ReselectionController
from repro.kernel.kernel import KernelVariant
from repro.predict import SelectionPredictor
from repro.serve import scheduler as scheduler_module
from repro.serve.lease import ProfileLeaseTable
from repro.serve.qos import AdmissionController
from repro.serve.scheduler import LaunchScheduler
from repro.serve.store import SelectionStore

#: Layer name -> the (owner, attribute) pairs its spans wrap.
LAYERS: Dict[str, Tuple[Tuple[object, str], ...]] = {
    "serve.scheduler": ((LaunchScheduler, "launch"),),
    "serve.signature": ((scheduler_module, "derive_signature"),),
    "serve.placement": ((scheduler_module, "decide_placement"),),
    "serve.store": tuple(
        (SelectionStore, name) for name in ("lookup", "peek", "publish")
    ),
    "serve.lease": tuple(
        (ProfileLeaseTable, name) for name in ("acquire", "release", "defer")
    ),
    "serve.qos": tuple(
        (AdmissionController, name) for name in ("admit", "release")
    ),
    "predict": tuple(
        (SelectionPredictor, name) for name in ("predict", "learn", "correct")
    ),
    "drift": tuple(
        (ReselectionController, name)
        for name in ("observe", "claim", "complete")
    ),
    "core.runtime": ((DySelRuntime, "launch_kernel"),),
    "core.policy": ((policy_module, "decide"),),
    "core.orchestrator": (
        (runtime_module, "run_sync"),
        (runtime_module, "run_async"),
    ),
    "core.productive": ((runtime_module, "plan_profiling"),),
    "analyze.gate": (
        (PoolVerifier, "verify"),
        (runtime_module, "gate_launch"),
    ),
    "analyze.dominance": (
        (runtime_module, "prune_pool"),
        (runtime_module, "pool_cost_bounds"),
        (scheduler_module, "cold_start_estimate"),
    ),
    "compiler.safe_point": ((runtime_module, "safe_point_plan"),),
    "device.engine": tuple(
        (ExecutionEngine, name)
        for name in (
            "submit", "wait", "wait_all", "wait_deadline", "poll", "barrier"
        )
    ),
    "device.cost": ((CostModel, "workgroup_cycles"),),
    "kernel.execute": ((KernelVariant, "execute"),),
}

#: Fields per recorded span in :attr:`SpanRecorder.spans`.
_SPAN_FIELDS = 5


class SpanRecorder:
    """Call counts, self time, and raw spans for every wrapped target."""

    def __init__(self) -> None:
        #: ``(layer, owner, attribute)`` per wrapped target.
        self.targets: List[Tuple[str, object, str]] = [
            (layer, owner, attr)
            for layer, pairs in LAYERS.items()
            for owner, attr in pairs
        ]
        self.active = False
        #: Index of the request being served (tags every span).
        self.request = -1
        #: Child-time accumulators of the open spans, innermost last.
        #: Each is ``[child_ns, child_calls]``.
        self.stack: List[List[int]] = []
        self.calls = [0] * len(self.targets)
        self.self_ns = [0] * len(self.targets)
        self.total_ns = [0] * len(self.targets)
        #: Wrapped calls made directly from inside each target's spans.
        self.child_calls = [0] * len(self.targets)
        #: Flat (target, start_ns, duration_ns, depth, request) records.
        self.spans = array("q")
        self._originals: List[Tuple[object, str, object, bool]] = []

    def wrap(self, index: int, fn):
        """A wrapper recording one span per call while active."""
        recorder = self
        calls = self.calls
        self_ns = self.self_ns
        total_ns = self.total_ns
        child_calls = self.child_calls
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            stack = recorder.stack
            children = [0, 0]
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent[0] += duration
                    parent[1] += 1
                calls[index] += 1
                self_ns[index] += duration - children[0]
                total_ns[index] += duration
                child_calls[index] += children[1]
                spans.extend(
                    (index, start, duration, len(stack), recorder.request)
                )

        return wrapper

    def install(self) -> None:
        """Replace every target with its recording wrapper."""
        if self._originals:
            raise RuntimeError("spans already installed")
        for index, (_, owner, attr) in enumerate(self.targets):
            original = getattr(owner, attr)
            own = attr in vars(owner)
            raw = vars(owner)[attr] if own else original
            self._originals.append((owner, attr, raw, own))
            setattr(owner, attr, self.wrap(index, original))

    def uninstall(self) -> None:
        """Restore every original attribute."""
        for owner, attr, raw, own in reversed(self._originals):
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
        self._originals.clear()

    def layer_totals(self) -> Dict[str, Dict[str, int]]:
        """Per layer: exact call count and self time in ns."""
        out: Dict[str, Dict[str, int]] = {
            layer: {"calls": 0, "self_ns": 0} for layer in LAYERS
        }
        for index, (layer, _, _) in enumerate(self.targets):
            out[layer]["calls"] += self.calls[index]
            out[layer]["self_ns"] += self.self_ns[index]
        return out

    def self_shares(self, span_cost: float) -> Dict[str, float]:
        """Per layer: self time ÷ summed ``launch`` time, net of wrapping.

        ``span_cost`` (ns per wrapped call, :func:`span_cost_ns`) is
        taken off each span's self time once per wrapped child and off
        the ``launch`` total once per nested call, so the shares still
        partition the launch time.
        """
        launch = self._launch_index()
        nested = sum(self.calls) - self.calls[launch]
        total = self.total_ns[launch] - nested * span_cost
        shares = {layer: 0.0 for layer in LAYERS}
        for index, (layer, _, _) in enumerate(self.targets):
            own = self.self_ns[index] - self.child_calls[index] * span_cost
            shares[layer] += own / total
        return shares

    def target_calls(self, layer: str, attr: str) -> int:
        """Exact calls of one wrapped attribute of a layer."""
        return sum(
            self.calls[i]
            for i, (name, _, a) in enumerate(self.targets)
            if name == layer and a == attr
        )

    def _launch_index(self) -> int:
        return self.targets.index(
            ("serve.scheduler", LaunchScheduler, "launch")
        )

    def launch_ns(self) -> int:
        """Summed duration of the ``launch`` spans (never nested)."""
        return self.total_ns[self._launch_index()]

    def write_chrome_trace(self, path: str) -> int:
        """Write the spans as a gzipped Chrome trace; returns the count."""
        origin = min(self.spans[1::_SPAN_FIELDS], default=0)
        count = len(self.spans) // _SPAN_FIELDS
        # One template per target: json.dumps per event would take most
        # of the time of writing the million spans of a churn run.
        templates = [
            '{"name": %s, "cat": %s, "ph": "X", "ts": %%r, "dur": %%r, '
            '"pid": 1, "tid": 1, "args": {"request": %%d, "depth": %%d}}'
            % (json.dumps(f"{layer}:{attr}"), json.dumps(layer))
            for layer, _, attr in self.targets
        ]
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write('{"displayTimeUnit": "ns", "traceEvents": [\n')
            for n in range(count):
                i = n * _SPAN_FIELDS
                target, start, duration, depth, request = self.spans[
                    i : i + _SPAN_FIELDS
                ]
                handle.write(
                    templates[target]
                    % (
                        (start - origin) / 1000.0,
                        duration / 1000.0,
                        request,
                        depth,
                    )
                )
                handle.write(",\n" if n + 1 < count else "\n")
            handle.write("]}\n")
        return count


class _Pair:
    __slots__ = ("left", "right")

    def __init__(self, left: int, right: int) -> None:
        self.left = left
        self.right = right


def _child(first, second) -> List[int]:
    """A few microseconds of object, dict and sort work.

    Work in the child leaves the caches and branch predictors as the
    program's calls do; around a bare no-op the bookkeeping measured
    about 10% faster than around this child.
    """
    table = {}
    for i in range(8):
        pair = _Pair(i, -i)
        table[i] = pair.left * pair.right
    return sorted(table.values())


def span_cost_ns(calls: int = 4_000) -> float:
    """Wrapper time charged to the caller per wrapped call, in ns.

    Times ``calls`` wrapped calls inside an open span, as the replay's
    nested calls run, and takes off an empty loop of the same length
    and the children's own recorded spans: what is left is the
    bookkeeping outside the children's timed windows.  The calls pass
    two arguments, as a method call with one does.
    """
    probe = SpanRecorder()
    wrapped = probe.wrap(0, _child)
    clock = time.perf_counter_ns
    probe.active = True
    probe.stack.append([0, 0])
    start = clock()
    for _ in range(calls):
        wrapped(None, None)
    looped = clock() - start
    recorded = probe.stack.pop()[0]
    start = clock()
    for _ in range(calls):
        pass
    empty = clock() - start
    return (looped - empty - recorded) / calls
