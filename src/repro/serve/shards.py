"""Sharded selection store: per-shard files, merge-on-load.

One JSON file is the known scalability cliff of :class:`SelectionStore`
once many concurrent clients contend on it: every save serializes the
whole map and every saver queues behind one atomic rename.
:class:`ShardedSelectionStore` is the same store spread over ``shards``
shards (each with its own lock and counters) by ``crc32(key) % shards``
— the key already encodes the full selection tuple
``kernel|device_kind|class`` (see :mod:`repro.serve.signature`), so one
shard owns all updates for a slice of (kernel, device-kind, class) space
and two clients publishing different classes almost never touch the same
lock *or the same file*.  What it adds to :class:`SelectionStore` is the
directory layout: routing, dirty tracking, and the directory's
save/load.

On disk a sharded store is a directory::

    store/
      store.meta.json    # schema version, shard count, how long ago each
                         # shard file was written, quarantine/drift/
                         # predict side-state (always rewritten, last)
      shard-0000.json    # entries whose crc32(key) % count == 0
      shard-0001.json    # ... written only when dirty, atomically

Save semantics: each shard file is written with the same temp-file +
rename atomicity as the single-file store, and **only dirty shards** are
rewritten — a 64-client fleet that touched 3 shards since the last
checkpoint writes 3 files, not the whole map.  Entry ages in a shard file
are relative to the time it was written, so the meta (written last)
records how long before the checkpoint each shard file was written, and
a restart ages the entries of a skipped file by that much.  That record
also names every file of the checkpoint: once the meta is written, shard
files outside the layout (left by a larger one) are removed.  Load
semantics (*merge-on-load*): every shard file the meta names — every
``shard-*.json`` in the directory when the meta has no record — is read
and the union re-hashed into the current layout, so a store saved with 8
shards loads fine with 4 or 16; duplicate keys (possible after a layout
change mid-crash) keep the freshest entry by recorded age.  Shards that
declare **mixed schema versions** are rejected with a structured
:class:`~repro.errors.StoreSchemaError` (``.versions`` maps each file to
its declared version) rather than partially loaded, while a single
*torn* shard (unparseable JSON from a crash mid-rename) is skipped with
a warning — its selections re-profile, the other shards' survive —
matching the single-file store's crash-recovery philosophy.

The quarantine ledger, the drift controller and the selection predictor
are the store's own, as in any :class:`SelectionStore`: a publish on any
shard trains the one predictor, a drift confirmation decays the entry in
whichever shard owns its key, and one quarantine bars a variant for
every client.  They are saved in the meta document.
"""

from __future__ import annotations

import os
import zlib
from typing import Callable, Dict, List, Optional, Tuple

from ..drift import DriftConfig
from ..errors import StoreError
from ..predict import PredictConfig
from .store import (
    DEFAULT_DECAY_GRACE,
    DEFAULT_EWMA_ALPHA,
    SCHEMA_VERSION,
    SelectionStore,
    _atomic_write_json,
    _check_versions,
    _read_document,
    _section,
    _Shard,
)

#: Default shard count: enough that 64 concurrent clients rarely collide
#: on one file, small enough that a checkpoint directory stays readable.
DEFAULT_SHARDS = 8

#: File name of the side-state / layout document inside a store directory.
META_FILENAME = "store.meta.json"

#: Meta section mapping each shard file's name to how long before the
#: checkpoint it was written (clock seconds): its entries' ages are
#: relative to that earlier instant.
_WRITTEN_AGO = "shard_written_ago"


def shard_filename(index: int) -> str:
    """The on-disk file name of one shard (``shard-0007.json``)."""
    return f"shard-{index:04d}.json"


class ShardedSelectionStore(SelectionStore):
    """A :class:`SelectionStore` spread over ``shards`` shards, saved as
    one file per shard in a directory.

    It serves exactly as a one-shard store does, so
    :class:`~repro.serve.scheduler.LaunchScheduler` accepts either.
    """

    def __init__(
        self,
        shards: int = DEFAULT_SHARDS,
        ttl: Optional[float] = None,
        ewma_alpha: float = DEFAULT_EWMA_ALPHA,
        clock: Optional[Callable[[], float]] = None,
        drift: Optional[DriftConfig] = None,
        decay_grace: float = DEFAULT_DECAY_GRACE,
        predict: Optional[PredictConfig] = None,
    ) -> None:
        """Create an empty sharded store (parameters as for
        :class:`SelectionStore`, plus the shard count)."""
        if not isinstance(shards, int) or shards < 1:
            raise StoreError(f"shards must be a positive int, got {shards!r}")
        super().__init__(
            ttl=ttl,
            ewma_alpha=ewma_alpha,
            clock=clock,
            drift=drift,
            decay_grace=decay_grace,
            predict=predict,
        )
        self.shard_count = shards
        self._shards.extend(_Shard() for _ in range(shards - 1))
        #: Per shard, the file it was last written to (or loaded from)
        #: and the clock time its entries' ages are relative to; a clean
        #: shard skips only that file.
        self._written: List[Optional[Tuple[str, float]]] = [None] * shards

    def shard_index(self, key: str) -> int:
        """Which shard owns a workload-class key."""
        return zlib.crc32(key.encode("utf-8")) % self.shard_count

    def _owner(self, key: str) -> _Shard:
        """The shard that owns a key, by :meth:`shard_index`."""
        return self._shards[self.shard_index(key)]

    def dirty_shards(self) -> List[int]:
        """Indices of shards with mutations since the last save."""
        return [i for i, shard in enumerate(self._shards) if shard.dirty]

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path: str, only_dirty: bool = True) -> None:
        """Checkpoint into directory ``path``.

        Shard files are rewritten only when dirty, or when this store
        did not write (or load) that very file, each with the
        single-file store's temp-file + atomic-rename discipline; pass
        ``only_dirty=False`` to force a full rewrite.  The meta document
        (shard layout, how long ago each shard file was written, and the
        quarantine/drift/predict side state) is always rewritten, after
        the shards: a crash in between leaves the older meta, which can
        make rewritten entries look older after a restart, never younger.
        Shard files outside the layout are removed after the meta is
        written; a crash before that leaves them to a load that skips
        them, as the meta does not name them.
        """
        os.makedirs(path, exist_ok=True)
        now = self._clock()
        written_ago: Dict[str, float] = {}
        for index, shard in enumerate(self._shards):
            name = shard_filename(index)
            target = os.path.abspath(os.path.join(path, name))
            # Clear-before-serialize: a publish racing this save flips
            # the flag back on and the *next* checkpoint rewrites the
            # shard, so no mutation is ever silently lost.
            was_dirty, shard.dirty = shard.dirty, False
            written = self._written[index]
            if (
                only_dirty
                and not was_dirty
                and written is not None
                and written[0] == target
                and os.path.exists(target)
            ):
                written_ago[name] = max(0.0, now - written[1])
                continue
            doc = {
                "schema_version": SCHEMA_VERSION,
                "shard_index": index,
                "shard_count": self.shard_count,
                "entries": self._shard_payloads(shard, now),
            }
            _atomic_write_json(target, doc)
            self._written[index] = (target, now)
            written_ago[name] = 0.0
        meta: Dict[str, object] = {
            "schema_version": SCHEMA_VERSION,
            "layout": "sharded",
            "shard_count": self.shard_count,
            _WRITTEN_AGO: written_ago,
        }
        meta.update(self.side_payloads())
        _atomic_write_json(os.path.join(path, META_FILENAME), meta)
        # The meta names the checkpoint's files: the rest, left by a
        # larger layout, would bring back entries removed since.
        for name in os.listdir(path):
            if _is_shard_file(name) and name not in written_ago:
                os.remove(os.path.join(path, name))

    @classmethod
    def load(
        cls,
        path: str,
        shards: Optional[int] = None,
        ttl: Optional[float] = None,
        ewma_alpha: float = DEFAULT_EWMA_ALPHA,
        clock: Optional[Callable[[], float]] = None,
        drift: Optional[DriftConfig] = None,
        decay_grace: float = DEFAULT_DECAY_GRACE,
        predict: Optional[PredictConfig] = None,
    ) -> "ShardedSelectionStore":
        """Merge-on-load a directory written by :meth:`save`.

        Only the shard files the meta's ``shard_written_ago`` record
        names are read (every ``shard-*.json`` when the meta or its
        record is missing), so files a larger layout left behind stay
        unread.  ``shards`` overrides the layout (defaults to the saved
        ``shard_count``, or one shard per shard file when the meta is
        missing); entries are re-hashed into the requested layout, so
        growing or shrinking the shard count is just a load + save away.
        Duplicate keys across shard files — possible after a layout
        change interrupted mid-save — keep the freshest entry.  Side
        state is armed as by :meth:`SelectionStore.load`.

        Failure semantics, matching :meth:`SelectionStore.load`:

        * Unreadable directory / meta file → :class:`StoreError`.
        * Any shard (or the meta) declaring an incompatible schema
          version, or shards declaring **mixed** versions → structured
          :class:`StoreSchemaError` whose ``.versions`` maps every file
          to its declared version.  Version agreement is checked across
          *all* shards before a single entry is interpreted — never a
          partial load.
        * A torn shard file (unparseable JSON from a crash mid-write) is
          skipped with a warning; its classes re-profile while every
          other shard's selections survive.  A torn meta loses the side
          state and keeps every entry.
        """
        try:
            names = sorted(os.listdir(path))
        except OSError as exc:
            raise StoreError(
                f"cannot read sharded selection store {path!r}: {exc}"
            )
        meta: Dict[str, object] = {}
        versions: Dict[str, object] = {}
        meta_path = os.path.join(path, META_FILENAME)
        if META_FILENAME in names:
            meta_doc = _read_document(
                meta_path,
                "sharded store meta",
                "empty or torn",
                "quarantine/drift/predict side-state is lost, entries "
                "will still load",
            )
            if meta_doc is not None:
                meta = meta_doc
                versions[meta_path] = meta_doc["schema_version"]
        source = f"sharded store meta {meta_path!r}"
        record = _section(meta, _WRITTEN_AGO, source)
        shard_names = [
            n
            for n in names
            if _is_shard_file(n) and (record is None or n in record)
        ]
        # Parse every shard document *before* interpreting any entry, so
        # version agreement is judged over the whole directory.
        docs: List[Tuple[str, Dict[str, object]]] = []
        for name in shard_names:
            shard_path = os.path.join(path, name)
            doc = _read_document(
                shard_path,
                "selection store shard",
                "torn or truncated",
                "skipping it — its workload classes will re-profile",
            )
            if doc is not None:
                versions[shard_path] = doc["schema_version"]
                docs.append((shard_path, doc))
        _check_versions(f"sharded selection store {path!r}", versions)
        saved_count = meta.get("shard_count")
        if shards is None:
            shards = (
                saved_count
                if isinstance(saved_count, int) and saved_count >= 1
                else max(1, len(shard_names))
            )
        store = cls(
            shards=shards,
            ttl=ttl,
            ewma_alpha=ewma_alpha,
            clock=clock,
            drift=drift,
            decay_grace=decay_grace,
            predict=predict,
        )
        written_ago = _written_ago(record or {}, docs, source)
        # Read before the entries are aged, so a skipped file's entries
        # can only come out older at the next restart.
        loaded_at = store._clock()
        store._restore(
            "selection store shard", docs, meta, source, written_ago
        )
        if saved_count != store.shard_count:
            # The on-disk layout no longer matches: force a full rewrite
            # at the next checkpoint so stale shard files cannot linger.
            for shard in store._shards:
                shard.dirty = True
            return store
        # Each shard file read back is the one its shard owns: a clean
        # shard may skip it, aged from when it was written.
        read = {shard_path for shard_path, _ in docs}
        for index in range(store.shard_count):
            shard_path = os.path.join(path, shard_filename(index))
            if shard_path in read:
                store._written[index] = (
                    os.path.abspath(shard_path),
                    loaded_at - written_ago.get(shard_path, 0.0),
                )
        return store


def _is_shard_file(name: str) -> bool:
    """Whether a directory entry is named like a shard file."""
    return name.startswith("shard-") and name.endswith(".json")


def _written_ago(
    record: Dict[str, object],
    docs: List[Tuple[str, Dict[str, object]]],
    source: str,
) -> Dict[str, float]:
    """How long before the checkpoint each read shard file was written,
    by path, from the meta's record (empty for metas without one)."""
    ages: Dict[str, float] = {}
    for shard_path, _ in docs:
        name = os.path.basename(shard_path)
        ago = record.get(name, 0.0)
        number = isinstance(ago, (int, float)) and not isinstance(ago, bool)
        if not (number and 0.0 <= ago < float("inf")):
            raise StoreError(
                f"{source} is corrupt: {_WRITTEN_AGO!r} of {name!r} is "
                f"{ago!r}"
            )
        if ago:
            ages[shard_path] = float(ago)
    return ages
