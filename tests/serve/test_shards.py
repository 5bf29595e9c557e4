"""Sharded selection store: routing, dirty-only saves, merge-on-load,
and structured rejection of mixed-schema shard directories."""

import json
import os

import pytest

from repro.drift import DriftConfig
from repro.errors import StoreError, StoreSchemaError
from repro.predict import PredictConfig
from repro.serve import (
    SCHEMA_VERSION,
    LaunchScheduler,
    SelectionStore,
    ServeRequest,
    ShardedSelectionStore,
)
from repro.serve.shards import META_FILENAME, shard_filename

KEYS = [f"k|cpu|units^2={i}" for i in range(16)]


def publish_all(store, keys=KEYS):
    for i, key in enumerate(keys):
        store.publish(
            key, kernel="k", selected="fast", cycles_per_unit=1.0 + i
        )


class TestRouting:
    def test_routing_is_stable_and_total(self):
        store = ShardedSelectionStore(shards=4)
        for key in KEYS:
            index = store.shard_index(key)
            assert 0 <= index < 4
            assert store.shard_index(key) == index

    def test_surface_round_trip(self):
        store = ShardedSelectionStore(shards=4)
        publish_all(store)
        assert len(store) == len(KEYS)
        assert set(store.keys()) == set(KEYS)
        for key in KEYS:
            assert key in store
            assert store.lookup(key).key == key
        assert store.stats.puts == len(KEYS)
        assert store.stats.hits == len(KEYS)

    def test_entries_spread_across_shards(self):
        store = ShardedSelectionStore(shards=4)
        publish_all(store)
        occupied = [len(shard.entries) for shard in store._shards]
        assert sum(occupied) == len(KEYS)
        assert sum(1 for n in occupied if n) > 1

    def test_publish_sets_device_kind(self):
        store = ShardedSelectionStore(shards=2)
        store.publish(
            "k|gpu|units^2=4", kernel="k", selected="v", cycles_per_unit=1.0
        )
        assert store.lookup("k|gpu|units^2=4").device_kind == "gpu"

    def test_invalidate_kernel_fans_out(self):
        store = ShardedSelectionStore(shards=4)
        publish_all(store)
        assert store.invalidate_kernel("k") == len(KEYS)
        assert len(store) == 0

    def test_bad_shard_count_rejected(self):
        with pytest.raises(StoreError, match="shards"):
            ShardedSelectionStore(shards=0)


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "store")
        store = ShardedSelectionStore(shards=4)
        publish_all(store)
        store.save(path)
        assert os.path.exists(os.path.join(path, META_FILENAME))
        loaded = ShardedSelectionStore.load(path)
        assert loaded.shard_count == 4
        assert len(loaded) == len(KEYS)
        for key in KEYS:
            entry = loaded.lookup(key)
            assert entry.cycles_per_unit == store.peek(key).cycles_per_unit
            assert entry.device_kind == "cpu"

    def test_rehash_into_different_layout(self, tmp_path):
        path = str(tmp_path / "store")
        store = ShardedSelectionStore(shards=4)
        publish_all(store)
        store.save(path)
        grown = ShardedSelectionStore.load(path, shards=7)
        assert grown.shard_count == 7
        assert set(grown.keys()) == set(KEYS)
        # Layout changed: every shard is dirty so the next save rewrites
        # the directory into the new layout.
        assert grown.dirty_shards() == list(range(7))
        grown.save(path, only_dirty=False)
        assert ShardedSelectionStore.load(path).shard_count == 7

    def test_dirty_only_save_skips_clean_shards(self, tmp_path):
        path = str(tmp_path / "store")
        store = ShardedSelectionStore(shards=4)
        publish_all(store)
        store.save(path)
        assert store.dirty_shards() == []
        hot = KEYS[0]
        store.publish(hot, kernel="k", selected="fast", cycles_per_unit=9.0)
        assert store.dirty_shards() == [store.shard_index(hot)]
        mtimes = {
            i: os.path.getmtime(os.path.join(path, shard_filename(i)))
            for i in range(4)
        }
        os.utime(
            os.path.join(path, shard_filename(store.shard_index(hot))),
            (0, 0),
        )
        for i in range(4):
            if i != store.shard_index(hot):
                os.utime(os.path.join(path, shard_filename(i)), (0, 0))
        store.save(path)
        for i in range(4):
            rewritten = (
                os.path.getmtime(os.path.join(path, shard_filename(i))) > 0
            )
            assert rewritten == (i == store.shard_index(hot)), (i, mtimes)

    def test_missing_shard_file_rewritten_even_when_clean(self, tmp_path):
        path = str(tmp_path / "store")
        store = ShardedSelectionStore(shards=2)
        publish_all(store, KEYS[:4])
        store.save(path)
        os.remove(os.path.join(path, shard_filename(0)))
        store.save(path)  # clean, but the file is gone
        assert os.path.exists(os.path.join(path, shard_filename(0)))

    def test_merge_keeps_freshest_duplicate(self, tmp_path):
        """Duplicate keys across shard files (layout change interrupted
        mid-save) resolve to the youngest copy."""
        path = str(tmp_path / "store")
        store = ShardedSelectionStore(shards=2)
        store.publish(
            KEYS[0], kernel="k", selected="old", cycles_per_unit=1.0
        )
        store.save(path)
        owner = store.shard_index(KEYS[0])
        doc = json.load(open(os.path.join(path, shard_filename(owner))))
        stale = json.loads(json.dumps(doc))
        stale["entries"][0]["selected"] = "stale"
        stale["entries"][0]["age"] = 9999.0
        stale["shard_index"] = 1 - owner
        other = os.path.join(path, shard_filename(1 - owner))
        json.dump(stale, open(other, "w"))
        loaded = ShardedSelectionStore.load(path)
        assert loaded.lookup(KEYS[0]).selected == "old"

    def test_empty_directory_loads_as_one_shard(self, tmp_path):
        loaded = ShardedSelectionStore.load(str(tmp_path))
        assert loaded.shard_count == 1
        assert len(loaded) == 0

    def test_unreadable_directory_raises(self, tmp_path):
        with pytest.raises(StoreError, match="cannot read"):
            ShardedSelectionStore.load(str(tmp_path / "missing"))


class TestLayoutShrink:
    """Saving into fewer shards than the directory held: the files of the
    larger layout must not bring back entries removed since."""

    MANY = [f"k|cpu|units^2={i}" for i in range(40)]

    def shrunk_and_emptied(self, path):
        store = ShardedSelectionStore(shards=16)
        publish_all(store, self.MANY)
        store.save(path)
        small = ShardedSelectionStore.load(path, shards=4)
        assert small.invalidate_kernel("k") == len(self.MANY)
        return small

    @staticmethod
    def shard_files(path):
        return sorted(n for n in os.listdir(path) if n.startswith("shard-"))

    def test_invalidated_entries_stay_gone(self, tmp_path):
        path = str(tmp_path / "store")
        self.shrunk_and_emptied(path).save(path)
        assert self.shard_files(path) == [shard_filename(i) for i in range(4)]
        assert len(ShardedSelectionStore.load(path)) == 0

    def test_crash_before_stale_files_are_removed(self, tmp_path, monkeypatch):
        """The meta is written, the larger layout's files are not yet
        removed: a load reads only the files the meta names, and its
        next checkpoint removes the rest."""
        path = str(tmp_path / "store")
        small = self.shrunk_and_emptied(path)

        def crash(target):
            raise OSError("crash")

        monkeypatch.setattr(os, "remove", crash)
        with pytest.raises(OSError, match="crash"):
            small.save(path)
        monkeypatch.undo()
        assert len(self.shard_files(path)) == 16
        loaded = ShardedSelectionStore.load(path)
        assert len(loaded) == 0
        assert loaded.shard_count == 4
        loaded.save(path)
        assert self.shard_files(path) == [shard_filename(i) for i in range(4)]
        assert len(ShardedSelectionStore.load(path)) == 0

    def test_meta_without_the_record_reads_every_file(self, tmp_path):
        """Checkpoints from before the record keep merge-on-load over
        every shard file in the directory."""
        path = str(tmp_path / "store")
        store = ShardedSelectionStore(shards=4)
        publish_all(store)
        store.save(path)
        meta_path = os.path.join(path, META_FILENAME)
        meta = json.load(open(meta_path))
        del meta["shard_written_ago"]
        json.dump(meta, open(meta_path, "w"))
        stray = ShardedSelectionStore(shards=1)
        stray.publish("k|cpu|stray", kernel="k", selected="v", cycles_per_unit=1.0)
        stray.save(str(tmp_path / "other"))
        os.replace(
            os.path.join(str(tmp_path / "other"), shard_filename(0)),
            os.path.join(path, shard_filename(9)),
        )
        assert set(ShardedSelectionStore.load(path).keys()) == set(KEYS) | {
            "k|cpu|stray"
        }

class TestSchemaRejection:
    def save_store(self, tmp_path, shards=4):
        path = str(tmp_path / "store")
        store = ShardedSelectionStore(shards=shards)
        publish_all(store)
        store.save(path)
        return path

    def rewrite_version(self, path, name, version):
        full = os.path.join(path, name)
        doc = json.load(open(full))
        doc["schema_version"] = version
        json.dump(doc, open(full, "w"))
        return full

    def test_mixed_shard_versions_rejected_structurally(self, tmp_path):
        """The satellite fix: v3+v4 shards must be rejected wholesale
        with every file's version listed — never partially loaded."""
        path = self.save_store(tmp_path)
        downgraded = self.rewrite_version(path, shard_filename(1), 3)
        with pytest.raises(StoreSchemaError, match="mixes schema") as exc:
            ShardedSelectionStore.load(path)
        versions = exc.value.versions
        assert versions[downgraded] == 3
        assert len(versions) == 5  # meta + 4 shards, nothing else
        assert sorted(set(versions.values())) == [3, SCHEMA_VERSION]

    def test_uniform_migratable_version_loads(self, tmp_path):
        """All-v3 directories migrate (key rules unchanged since v3)."""
        path = self.save_store(tmp_path)
        for i in range(4):
            self.rewrite_version(path, shard_filename(i), 3)
        self.rewrite_version(path, META_FILENAME, 3)
        loaded = ShardedSelectionStore.load(path)
        assert len(loaded) == len(KEYS)
        assert loaded.lookup(KEYS[0]).device_kind == "cpu"  # backfilled

    def test_unsupported_version_rejected(self, tmp_path):
        path = self.save_store(tmp_path)
        bad = self.rewrite_version(path, shard_filename(2), 2)
        with pytest.raises(StoreSchemaError, match="unsupported") as exc:
            ShardedSelectionStore.load(path)
        assert exc.value.versions[bad] == 2

    def test_missing_schema_version_rejected(self, tmp_path):
        path = self.save_store(tmp_path)
        full = os.path.join(path, shard_filename(0))
        doc = json.load(open(full))
        del doc["schema_version"]
        json.dump(doc, open(full, "w"))
        with pytest.raises(StoreSchemaError, match="no schema_version"):
            ShardedSelectionStore.load(path)

    def test_torn_shard_skipped_with_warning(self, tmp_path):
        path = self.save_store(tmp_path)
        torn = os.path.join(path, shard_filename(1))
        lost = sum(
            1
            for e in json.load(open(torn))["entries"]
        )
        open(torn, "w").write('{"schema_version": 4, "entr')
        with pytest.warns(UserWarning, match="torn or truncated"):
            loaded = ShardedSelectionStore.load(path)
        assert len(loaded) == len(KEYS) - lost

    def test_torn_meta_loses_side_state_keeps_entries(self, tmp_path):
        path = self.save_store(tmp_path)
        open(os.path.join(path, META_FILENAME), "w").write("")
        with pytest.warns(UserWarning, match="empty or torn"):
            loaded = ShardedSelectionStore.load(path)
        assert len(loaded) == len(KEYS)


class TestSharedSideState:
    def test_one_quarantine_ledger(self, tmp_path):
        store = ShardedSelectionStore(shards=4)
        threshold = store.quarantine.policy.quarantine_threshold
        for _ in range(threshold):
            store.quarantine.note_fault("k", "bad", "test")
        assert store.quarantine.is_quarantined("k", "bad")
        path = str(tmp_path / "store")
        store.save(path)
        loaded = ShardedSelectionStore.load(path)
        assert loaded.quarantine.is_quarantined("k", "bad")

    def test_one_predictor_trains_across_shards(self, tmp_path):
        store = ShardedSelectionStore(
            shards=4, predict=PredictConfig(min_examples=2)
        )
        publish_all(store)
        assert len(store.predictor) == len(KEYS)
        path = str(tmp_path / "store")
        store.save(path)
        loaded = ShardedSelectionStore.load(path)
        assert loaded.predictor is not None
        assert len(loaded.predictor) == len(KEYS)

    def test_drift_decay_routes_to_owning_shard(self):
        store = ShardedSelectionStore(shards=4, drift=DriftConfig())
        publish_all(store)
        key = KEYS[3]
        assert store.decay(key, grace=0.0)
        assert store.shard_index(key) in store.dirty_shards()

    def test_drift_state_round_trips(self, tmp_path):
        store = ShardedSelectionStore(shards=2, drift=DriftConfig())
        publish_all(store, KEYS[:2])
        for _ in range(4):
            store.drift.observe(KEYS[0], "k", "fast", 1.0)
        path = str(tmp_path / "store")
        store.save(path)
        loaded = ShardedSelectionStore.load(path)
        assert loaded.drift is not None


class TestSchedulerIntegration:
    def test_scheduler_accepts_sharded_store(self, config, fast_slow_pool):
        from repro.device import make_cpu
        from tests.conftest import make_axpy_args

        store = ShardedSelectionStore(shards=4)
        scheduler = LaunchScheduler(
            (make_cpu(config), make_cpu(config)), store=store
        )
        scheduler.register_pool(fast_slow_pool)
        outcomes = [
            scheduler.launch(
                ServeRequest(
                    kernel="axpy",
                    args=make_axpy_args(512, config),
                    workload_units=512,
                )
            )
            for _ in range(4)
        ]
        assert sum(o.profiled for o in outcomes) == 1
        assert len(store) == 1

    def test_warm_restart_from_sharded_checkpoint(
        self, config, fast_slow_pool, tmp_path
    ):
        from repro.device import make_cpu
        from tests.conftest import make_axpy_args

        path = str(tmp_path / "store")
        cold = LaunchScheduler(
            (make_cpu(config),), store=ShardedSelectionStore(shards=4)
        )
        cold.register_pool(fast_slow_pool)
        cold.launch(
            ServeRequest(
                kernel="axpy",
                args=make_axpy_args(512, config),
                workload_units=512,
            )
        )
        cold.store.save(path)

        warm = LaunchScheduler(
            (make_cpu(config),), store=ShardedSelectionStore.load(path)
        )
        warm.register_pool(fast_slow_pool)
        outcome = warm.launch(
            ServeRequest(
                kernel="axpy",
                args=make_axpy_args(512, config),
                workload_units=512,
            )
        )
        assert outcome.store_hit
        assert not outcome.profiled

    def test_single_file_and_sharded_store_agree(
        self, config, fast_slow_pool
    ):
        """Same traffic, same selections, whichever store backs it."""
        from repro.device import make_cpu
        from tests.conftest import make_axpy_args

        def serve(store):
            scheduler = LaunchScheduler((make_cpu(config),), store=store)
            scheduler.register_pool(fast_slow_pool)
            outcome = scheduler.launch(
                ServeRequest(
                    kernel="axpy",
                    args=make_axpy_args(512, config),
                    workload_units=512,
                )
            )
            return outcome.result.selected, outcome.workload_class

        assert serve(SelectionStore()) == serve(
            ShardedSelectionStore(shards=4)
        )


class FakeClock:
    """Injectable time source the tests move by hand."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


def checkpoint_store(layout, clock, ttl=None):
    """A file store or a four-shard store on ``clock``."""
    if layout == "file":
        return SelectionStore(ttl=ttl, clock=clock)
    return ShardedSelectionStore(shards=4, ttl=ttl, clock=clock)


def checkpoint_path(layout, tmp_path):
    return str(tmp_path / ("store.json" if layout == "file" else "store"))


def reload(layout, path, clock, ttl=None):
    store_cls = SelectionStore if layout == "file" else ShardedSelectionStore
    return store_cls.load(path, ttl=ttl, clock=clock)


class TestCheckpointAges:
    """A dirty-only checkpoint skips a clean shard file, whose entry ages
    are relative to when it was written; the meta records how long ago
    that was, so a restart ages the entries as a full rewrite would."""

    @pytest.mark.parametrize("layout", ["file", "sharded"])
    def test_clean_shard_entries_keep_their_age(self, layout, tmp_path):
        clock = FakeClock(0.0)
        store = checkpoint_store(layout, clock, ttl=100.0)
        store.publish(KEYS[0], kernel="k", selected="v", cycles_per_unit=1.0)
        path = checkpoint_path(layout, tmp_path)
        store.save(path)
        clock.now = 90.0
        store.save(path)  # the sharded layout skips the clean shard
        fresh = FakeClock(5000.0)
        loaded = reload(layout, path, fresh, ttl=100.0)
        assert 5000.0 - loaded.peek(KEYS[0]).recorded_at == 90.0
        fresh.now += 5.0
        assert loaded.lookup(KEYS[0]) is not None  # 95 s old
        fresh.now += 15.0
        assert loaded.lookup(KEYS[0]) is None  # 110 s old

    @pytest.mark.parametrize("layout", ["file", "sharded"])
    def test_ages_accumulate_across_restarts(self, layout, tmp_path):
        """Load, wait, checkpoint again without touching the entry, and
        load once more: the skipped file's age keeps growing."""
        clock = FakeClock(0.0)
        store = checkpoint_store(layout, clock)
        store.publish(KEYS[0], kernel="k", selected="v", cycles_per_unit=1.0)
        path = checkpoint_path(layout, tmp_path)
        store.save(path)
        clock.now = 40.0
        store.save(path)
        second = FakeClock(1000.0)
        restarted = reload(layout, path, second)
        second.now += 25.0
        restarted.save(path)
        third = FakeClock(7.0)
        again = reload(layout, path, third)
        assert 7.0 - again.peek(KEYS[0]).recorded_at == 65.0

    @pytest.mark.parametrize("layout", ["file", "sharded"])
    def test_decay_deadline_counts_down_in_clean_shards(
        self, layout, tmp_path
    ):
        clock = FakeClock(0.0)
        store = checkpoint_store(layout, clock)
        store.publish(KEYS[0], kernel="k", selected="v", cycles_per_unit=1.0)
        clock.now = 10.0
        assert store.decay(KEYS[0], grace=100.0)  # expires at t=110
        path = checkpoint_path(layout, tmp_path)
        store.save(path)
        clock.now = 60.0
        store.save(path)
        fresh = FakeClock(500.0)
        loaded = reload(layout, path, fresh)
        entry = loaded.peek(KEYS[0])
        assert entry.decay_at - 500.0 == 50.0
        assert 500.0 - entry.recorded_at == 60.0

    def test_meta_without_the_record_loads_file_ages(self, tmp_path):
        """Checkpoints written before the record existed load as they
        always did: ages as the shard files hold them."""
        clock = FakeClock(0.0)
        store = ShardedSelectionStore(shards=4, clock=clock)
        store.publish(KEYS[0], kernel="k", selected="v", cycles_per_unit=1.0)
        path = str(tmp_path / "store")
        store.save(path)
        clock.now = 90.0
        store.save(path)
        meta_path = os.path.join(path, META_FILENAME)
        meta = json.load(open(meta_path))
        assert meta.pop("shard_written_ago")
        json.dump(meta, open(meta_path, "w"))
        loaded = ShardedSelectionStore.load(path, clock=FakeClock(500.0))
        assert 500.0 - loaded.peek(KEYS[0]).recorded_at == 0.0

    def test_corrupt_record_rejected(self, tmp_path):
        path = str(tmp_path / "store")
        store = ShardedSelectionStore(shards=2)
        publish_all(store, KEYS[:4])
        store.save(path)
        meta_path = os.path.join(path, META_FILENAME)
        meta = json.load(open(meta_path))
        meta["shard_written_ago"][shard_filename(0)] = -1.0
        json.dump(meta, open(meta_path, "w"))
        with pytest.raises(StoreError, match="shard_written_ago"):
            ShardedSelectionStore.load(path)

    def test_store_rewrites_a_file_it_did_not_write(self, tmp_path):
        """A clean shard skips only the file it was written to: saving to
        a second directory in between does not leave the first one's
        file behind with older contents."""
        clock = FakeClock(0.0)
        store = ShardedSelectionStore(shards=1, clock=clock)
        first, second = str(tmp_path / "a"), str(tmp_path / "b")
        store.publish(KEYS[0], kernel="k", selected="old", cycles_per_unit=1.0)
        store.save(first)
        store.publish(KEYS[0], kernel="k", selected="new", cycles_per_unit=1.0)
        store.save(second)
        store.save(first)  # clean, but first/ holds the older contents
        loaded = ShardedSelectionStore.load(first, clock=clock)
        assert loaded.peek(KEYS[0]).selected == "new"

    @pytest.mark.parametrize("crash_at", range(5))
    def test_crash_mid_checkpoint_never_makes_entries_younger(
        self, crash_at, tmp_path, monkeypatch
    ):
        """Kill the second checkpoint at each file write: a reload ages
        every entry on disk at least as much as that version of it had
        aged at the instant of the meta left on disk."""
        from repro.serve import shards as shards_mod

        clock = FakeClock(0.0)
        store = ShardedSelectionStore(shards=4, clock=clock)
        owners = {}
        for key in KEYS:
            owners.setdefault(store.shard_index(key), key)
        born = {}  # (key, selected) -> publish time
        for key in owners.values():
            store.publish(key, kernel="k", selected="v", cycles_per_unit=1.0)
            born[key, "v"] = 0.0
        path = str(tmp_path / "store")
        store.save(path)
        first_meta = open(os.path.join(path, META_FILENAME)).read()
        clock.now = 90.0
        hot = owners[0]
        store.publish(hot, kernel="k", selected="w", cycles_per_unit=2.0)
        born[hot, "w"] = 90.0
        writes = []
        write = shards_mod._atomic_write_json

        def crashing_write(target, doc):
            if len(writes) == crash_at:
                raise OSError("crash")
            writes.append(target)
            write(target, doc)

        monkeypatch.setattr(shards_mod, "_atomic_write_json", crashing_write)
        try:
            store.save(path)
        except OSError:
            pass
        monkeypatch.undo()
        meta = open(os.path.join(path, META_FILENAME)).read()
        instant = 0.0 if meta == first_meta else 90.0
        fresh = FakeClock(1000.0)
        loaded = ShardedSelectionStore.load(path, clock=fresh)
        for key in owners.values():
            entry = loaded.peek(key)
            age = 1000.0 - entry.recorded_at
            assert age >= instant - born[key, entry.selected], (key, writes)
