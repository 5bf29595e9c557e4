"""Re-selection control: turning confirmed drift into one re-profile.

The paper's profiling activation flag (§3.1) is programmer-driven: the
application decides when its inputs changed enough to re-profile.  A
serving fleet cannot ask the programmer, so
:class:`ReselectionController` closes the loop mechanically:

1. every profiling-off launch's measured cycles per unit feeds the
   :class:`~repro.drift.monitor.DriftMonitor`;
2. a **confirmed** drift signal opens a :class:`DriftEpisode` for the
   class, *demotes* the stale persisted selection (TTL-style decay via
   the injected ``decay_hook`` — the entry keeps serving until a
   re-profile lands, it just stops being immortal), and arms the
   re-profile flag;
3. exactly one launch **claims** the flag (consume-once under a lock, so
   concurrent clients of the same class cannot stampede into N
   re-profiles) and runs with profiling re-armed
   (``policy.decide`` reason ``"drift re-activation"``);
4. the new winner **completes** the episode — recorded with before/after
   variants — and the class's detector re-warms on post-shift traffic.

Launches hold a claim with :meth:`ReselectionController.claiming`: a
claimed re-profile that does not complete its episode (fault-aborted or
raising launch, demoted plan) hands the claim back on exit, so the next
launch retries; the episode stays open until some re-profile succeeds.

Both drift loops — the runtime's per kernel and the serving layer's per
workload class — feed launches through
:meth:`ReselectionController.observe_launch` and close episodes through
:meth:`ReselectionController.complete_launch`, which also record the
``DRIFT_SUSPECT``/``DRIFT_CONFIRMED`` and ``RESELECTION`` trace instants.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from ..errors import DriftError
from ..obs.events import EventKind
from ..obs.tracer import Tracer
from .detector import DriftConfig, DriftSignal
from .monitor import DriftMonitor

#: Completed episodes kept for introspection/persistence (per controller).
MAX_EPISODE_HISTORY = 256

#: The trace instant each non-quiet drift signal records.
SIGNAL_EVENTS = {
    DriftSignal.SUSPECT: EventKind.DRIFT_SUSPECT,
    DriftSignal.CONFIRMED: EventKind.DRIFT_CONFIRMED,
}


@dataclass
class DriftEpisode:
    """One confirmed drift and what re-selection did about it."""

    #: Workload-class key the drift was observed on.
    key: str
    #: Kernel signature name (for cross-referencing invalidations).
    kernel: str
    #: The selection that went stale.
    stale_variant: str
    #: Detector sample count at confirmation time.
    confirmed_at_sample: int
    #: EWMA cycles-per-unit when drift confirmed (the shifted regime).
    mean_at_confirm: float
    #: The re-profiled winner (``None`` while the episode is open).
    new_variant: Optional[str] = None
    #: Whether a re-profile has claimed this episode and is in flight.
    claimed: bool = field(default=False, repr=False)
    #: Whether the episode closed with a fresh selection.
    completed: bool = False

    @property
    def reselected(self) -> bool:
        """Whether re-selection actually changed the variant."""
        return self.completed and self.new_variant != self.stale_variant


class ReselectionController:
    """Thread-safe drift → re-profile feedback loop (see module docs)."""

    def __init__(
        self,
        config: Optional[DriftConfig] = None,
        monitor: Optional[DriftMonitor] = None,
        decay_hook: Optional[Callable[[str], None]] = None,
    ) -> None:
        """Build a controller.

        ``decay_hook(key)`` is called once per confirmed episode so the
        owner (the selection store) can demote the stale entry; it runs
        outside the controller lock (it may take the store lock).
        """
        self.config = config if config is not None else DriftConfig()
        self.monitor = (
            monitor if monitor is not None else DriftMonitor(self.config)
        )
        self.decay_hook = decay_hook
        self._lock = threading.Lock()
        self._pending: Dict[str, DriftEpisode] = {}
        self._episodes: List[DriftEpisode] = []
        self.suspects = 0
        self.confirmations = 0
        self.reselections = 0

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    def observe(
        self,
        key: str,
        kernel: str,
        variant: str,
        cycles_per_unit: float,
    ) -> DriftSignal:
        """Feed one profiling-off launch's measurement for a class.

        Returns the detector's signal; a ``CONFIRMED`` return means an
        episode is now open and the next launch of this class should
        re-profile (:meth:`should_rearm` / :meth:`claim`).
        """
        signal = self.monitor.observe(key, cycles_per_unit)
        if signal is DriftSignal.SUSPECT:
            with self._lock:
                self.suspects += 1
        elif signal is DriftSignal.CONFIRMED:
            detector = self.monitor.detector(key)
            assert detector is not None
            fresh = False
            with self._lock:
                self.confirmations += 1
                if key not in self._pending:
                    self._pending[key] = DriftEpisode(
                        key=key,
                        kernel=kernel,
                        stale_variant=variant,
                        confirmed_at_sample=detector.samples,
                        mean_at_confirm=detector.mean,
                    )
                    fresh = True
            if fresh and self.decay_hook is not None:
                self.decay_hook(key)
        return signal

    def observe_launch(
        self,
        key: str,
        kernel: str,
        variant: str,
        elapsed_cycles: float,
        units: int,
        tracer: Tracer,
        at: float,
        **labels: object,
    ) -> DriftSignal:
        """Feed one profiling-off launch that replayed ``variant``.

        A launch with no units or no elapsed cycles measures nothing and
        is skipped.  Otherwise its cycles per unit go to :meth:`observe`,
        and a suspect or confirmed signal records one trace instant on
        ``tracer`` at ``at``, named ``kernel``: ``labels`` first, then
        the variant and the measurement.
        """
        if units <= 0 or elapsed_cycles <= 0.0:
            return DriftSignal.NONE
        cycles_per_unit = elapsed_cycles / units
        signal = self.observe(key, kernel, variant, cycles_per_unit)
        if signal is not DriftSignal.NONE and tracer.enabled:
            tracer.instant(
                SIGNAL_EVENTS[signal],
                kernel,
                at,
                **labels,
                variant=variant,
                cycles_per_unit=cycles_per_unit,
            )
        return signal

    # ------------------------------------------------------------------
    # Re-profile arbitration
    # ------------------------------------------------------------------

    def should_rearm(self, key: str) -> bool:
        """Whether an open, unclaimed episode wants this class re-profiled."""
        with self._lock:
            episode = self._pending.get(key)
            return episode is not None and not episode.claimed

    def claim(self, key: str) -> bool:
        """Atomically take the re-profile duty for one open episode.

        Consume-once: the first caller per episode gets ``True`` and must
        either :meth:`complete` (re-profile published) or :meth:`release`
        (re-profile failed); everyone else gets ``False`` and keeps
        serving the decayed-but-live selection.  Launches use
        :meth:`claiming`, which cannot forget the release.
        """
        return self._take(key) is not None

    def _take(self, key: str) -> Optional[DriftEpisode]:
        """Claim the open episode of ``key``; ``None`` if none is free."""
        with self._lock:
            episode = self._pending.get(key)
            if episode is None or episode.claimed:
                return None
            episode.claimed = True
            return episode

    @contextlib.contextmanager
    def claiming(self, key: str) -> Iterator[bool]:
        """Hold one episode's re-profile claim for the ``with`` block.

        Yields whether the claim was taken (:meth:`claim`).  On exit a
        claim whose episode is still open goes back — the block raised or
        never re-profiled — while a completed episode leaves nothing to
        release; a newer episode of the same key, claimed by another
        holder meanwhile, keeps its claim.
        """
        episode = self._take(key)
        try:
            yield episode is not None
        finally:
            if episode is not None:
                with self._lock:
                    if self._pending.get(key) is episode:
                        episode.claimed = False

    def release(self, key: str) -> bool:
        """Give a failed re-profile's claim back (the episode stays open)."""
        with self._lock:
            episode = self._pending.get(key)
            if episode is None or not episode.claimed:
                return False
            episode.claimed = False
            return True

    def complete(
        self, key: str, new_variant: str
    ) -> Optional[DriftEpisode]:
        """Close the class's open episode with the fresh winner.

        Also resets the class's detector so the baseline re-warms on the
        new selection's throughput.  Returns the closed episode, or
        ``None`` when no episode was open (e.g. a routine cold-cache
        profile on a class that never drifted).
        """
        with self._lock:
            episode = self._pending.pop(key, None)
            if episode is None:
                return None
            episode.new_variant = new_variant
            episode.completed = True
            episode.claimed = False
            self._episodes.append(episode)
            del self._episodes[:-MAX_EPISODE_HISTORY]
            self.reselections += 1
        self.monitor.reset(key)
        return episode

    def complete_launch(
        self,
        key: str,
        kernel: str,
        new_variant: str,
        tracer: Tracer,
        at: float,
        **labels: object,
    ) -> Optional[DriftEpisode]:
        """:meth:`complete`, recording a closed episode's ``RESELECTION``.

        The instant lands on ``tracer`` at ``at``, named ``kernel``:
        ``labels`` first, then the stale and the new variant.
        """
        episode = self.complete(key, new_variant)
        if episode is not None and tracer.enabled:
            tracer.instant(
                EventKind.RESELECTION,
                kernel,
                at,
                **labels,
                stale_variant=episode.stale_variant,
                new_variant=new_variant,
                reselected=episode.reselected,
            )
        return episode

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def episodes(self) -> Tuple[DriftEpisode, ...]:
        """Completed episodes, oldest first (capped history)."""
        with self._lock:
            return tuple(self._episodes)

    @property
    def open_episodes(self) -> Tuple[DriftEpisode, ...]:
        """Episodes confirmed but not yet re-selected."""
        with self._lock:
            return tuple(self._pending.values())

    # ------------------------------------------------------------------
    # Persistence (SelectionStore integration)
    # ------------------------------------------------------------------

    def to_payload(self) -> Dict[str, object]:
        """JSON-safe snapshot: detectors + open/closed episodes."""
        with self._lock:
            pending = [
                self._episode_payload(e) for e in self._pending.values()
            ]
            closed = [self._episode_payload(e) for e in self._episodes]
        return {
            "detectors": self.monitor.to_payload(),
            "pending": pending,
            "episodes": closed,
        }

    @staticmethod
    def _episode_payload(episode: DriftEpisode) -> Dict[str, object]:
        return {
            "key": episode.key,
            "kernel": episode.kernel,
            "stale_variant": episode.stale_variant,
            "confirmed_at_sample": episode.confirmed_at_sample,
            "mean_at_confirm": episode.mean_at_confirm,
            "new_variant": episode.new_variant,
            "completed": episode.completed,
        }

    @staticmethod
    def _episode_from_payload(item: Mapping[str, object]) -> DriftEpisode:
        try:
            return DriftEpisode(
                key=str(item["key"]),
                kernel=str(item["kernel"]),
                stale_variant=str(item["stale_variant"]),
                confirmed_at_sample=int(item["confirmed_at_sample"]),  # type: ignore[arg-type]
                mean_at_confirm=float(item["mean_at_confirm"]),  # type: ignore[arg-type]
                new_variant=(
                    None
                    if item.get("new_variant") is None
                    else str(item["new_variant"])
                ),
                completed=bool(item.get("completed", False)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DriftError(
                f"drift episode payload is malformed: {exc}"
            ) from exc

    def load_payload(self, payload: Mapping[str, object]) -> None:
        """Restore state saved by :meth:`to_payload` (replaces state).

        Claims are deliberately *not* persisted: a claim names an
        in-flight launch of the saving process, which does not survive a
        restart — re-loading an open episode leaves it unclaimed so the
        next launch retries the re-profile.
        """
        detectors = payload.get("detectors", {})
        if not isinstance(detectors, Mapping):
            raise DriftError(
                f"drift payload 'detectors' is {type(detectors).__name__}, "
                "expected an object"
            )
        pending_raw = payload.get("pending", [])
        episodes_raw = payload.get("episodes", [])
        if not isinstance(pending_raw, list) or not isinstance(
            episodes_raw, list
        ):
            raise DriftError(
                "drift payload 'pending'/'episodes' must be lists"
            )
        pending = {}
        for item in pending_raw:
            episode = self._episode_from_payload(item)
            pending[episode.key] = episode
        episodes = [self._episode_from_payload(item) for item in episodes_raw]
        self.monitor.load_payload(detectors)
        with self._lock:
            self._pending = pending
            self._episodes = episodes[-MAX_EPISODE_HISTORY:]

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"ReselectionController({len(self._pending)} open, "
                f"{len(self._episodes)} completed, "
                f"{self.confirmations} confirmation(s))"
            )
