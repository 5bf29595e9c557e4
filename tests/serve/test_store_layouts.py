"""One store, any layout: a file store and a sharded store serve alike.

The same sequence of operations drives a :class:`SelectionStore` and
:class:`ShardedSelectionStore` with 1, 2 and 7 shards under one fake
clock.  Every returned entry, the counters and the saved entries must be
the same whatever the layout, and each layout must save, reload and save
again to the same files.
"""

import os
import sys
import tempfile
import threading
from dataclasses import asdict

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.drift import DriftConfig
from repro.predict import PredictConfig
from repro.serve import SelectionStore, ShardedSelectionStore

#: Replay locally with ``REPRO_CHAOS_SEED=<seed>`` (the CI flakiness job
#: randomizes it).
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

SHARD_COUNTS = (1, 2, 7)
TTL = 10.0
KERNELS = ("spmv", "axpy")
KEYS = tuple(
    f"{kernel}|{kind}|units^2={bucket}"
    for kernel in KERNELS
    for kind in ("cpu", "gpu")
    for bucket in (4, 9)
)


class FakeClock:
    """Deterministic injectable time source."""

    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now


def make_stores(clock):
    common = dict(
        ttl=TTL,
        clock=clock,
        decay_grace=4.0,
        drift=DriftConfig(),
        predict=PredictConfig(min_examples=2),
    )
    stores = {"file": SelectionStore(**common)}
    for count in SHARD_COUNTS:
        stores[f"shards={count}"] = ShardedSelectionStore(
            shards=count, **common
        )
    return stores


def apply(store, op):
    """Run one operation; return what the caller sees, as plain data."""
    name, args = op[0], op[1:]
    if name == "publish":
        key, selected, cycles, predicted = args
        entry = store.publish(
            KEYS[key],
            kernel=KEYS[key].split("|")[0],
            selected=f"v{selected}",
            cycles_per_unit=cycles,
            mode="fully",
            flow="sync",
            predicted=predicted,
        )
        return asdict(entry)
    if name in ("lookup", "peek"):
        entry = getattr(store, name)(KEYS[args[0]])
        return None if entry is None else asdict(entry)
    if name == "decay":
        key, grace = args
        return store.decay(KEYS[key], grace)
    if name == "invalidate":
        return store.invalidate_kernel(KERNELS[args[0]])
    raise AssertionError(f"unknown operation {op!r}")


KEY = st.integers(min_value=0, max_value=len(KEYS) - 1)
OPERATIONS = st.lists(
    st.one_of(
        st.tuples(
            st.just("publish"),
            KEY,
            # Three winners: a repeat folds into the EWMA, a change
            # replaces the entry.
            st.integers(min_value=0, max_value=2),
            st.sampled_from((1.0, 2.5, 40.0)),
            st.booleans(),
        ),
        st.tuples(st.sampled_from(("lookup", "peek")), KEY),
        st.tuples(
            st.just("decay"), KEY, st.sampled_from((None, 0.0, 2.0))
        ),
        st.tuples(
            st.just("invalidate"),
            st.integers(min_value=0, max_value=len(KERNELS) - 1),
        ),
        # Whole and half seconds; past TTL expires every entry.
        st.tuples(st.just("advance"), st.sampled_from((0.5, 3.0, 11.0))),
    ),
    max_size=40,
)


def by_key(payloads):
    return sorted(payloads, key=lambda raw: raw["key"])


def files(root):
    """Every file under ``root`` by relative path, with its bytes."""
    found = {}
    for directory, _, names in os.walk(root):
        for name in names:
            path = os.path.join(directory, name)
            with open(path, "rb") as handle:
                found[os.path.relpath(path, root)] = handle.read()
    return found


def round_trip(label, store, clock, scratch):
    """Save, reload in the same layout, save again; return both saves."""
    first = os.path.join(scratch, label, "first")
    second = os.path.join(scratch, label, "second")
    if isinstance(store, ShardedSelectionStore):
        store.save(first)
        reloaded = ShardedSelectionStore.load(first, ttl=TTL, clock=clock)
        reloaded.save(second)
        return files(first), files(second)
    os.makedirs(first)
    os.makedirs(second)
    store.save(os.path.join(first, "store.json"))
    reloaded = SelectionStore.load(
        os.path.join(first, "store.json"), ttl=TTL, clock=clock
    )
    reloaded.save(os.path.join(second, "store.json"))
    return files(first), files(second)


class TestLayoutEquivalence:
    @seed(CHAOS_SEED)
    @settings(max_examples=150, deadline=None)
    @given(operations=OPERATIONS)
    def test_every_layout_serves_and_saves_alike(self, operations):
        clock = FakeClock()
        stores = make_stores(clock)
        for op in operations:
            if op[0] == "advance":
                clock.now += op[1]
                continue
            seen = {label: apply(store, op) for label, store in stores.items()}
            assert len(set(map(repr, seen.values()))) == 1, (op, seen)
        reference = stores["file"]
        for label, store in stores.items():
            assert store.stats == reference.stats, label
            assert by_key(store.entry_payloads()) == by_key(
                reference.entry_payloads()
            ), label
            assert store.side_payloads() == reference.side_payloads(), label
            assert sorted(store.keys()) == sorted(reference.keys()), label
            assert len(store) == len(reference), label
        with tempfile.TemporaryDirectory() as scratch:
            for label, store in stores.items():
                first, second = round_trip(label, store, clock, scratch)
                assert first == second, label


class TestConcurrentCounters:
    def test_no_update_is_lost_under_thread_churn(self):
        """Threads publishing, looking up and invalidating across every
        shard: no operation fails and the counters add up exactly,
        whatever the interleaving."""
        threads_n, rounds = 8, 300
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for label, store in make_stores(FakeClock()).items():
                errors = []
                dropped = []

                def churn(offset):
                    try:
                        for i in range(rounds):
                            key = KEYS[(offset + i) % len(KEYS)]
                            kernel = key.split("|")[0]
                            store.publish(
                                key,
                                kernel=kernel,
                                selected=f"v{i % 2}",
                                cycles_per_unit=1.0,
                            )
                            store.lookup(key)
                            if i % 10 == offset % 10:
                                dropped.append(store.invalidate_kernel(kernel))
                    except Exception as exc:  # surfaced below
                        errors.append(exc)

                workers = [
                    threading.Thread(target=churn, args=(n,))
                    for n in range(threads_n)
                ]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=60)
                assert not any(worker.is_alive() for worker in workers)
                assert errors == [], label
                stats = store.stats
                assert stats.puts == threads_n * rounds, label
                assert stats.hits + stats.misses == threads_n * rounds, label
                assert stats.invalidations == sum(dropped), label
                assert len(store) == len(set(store.keys())), label
        finally:
            sys.setswitchinterval(interval)
