"""Cycle clocks and the measurement-noise model.

The paper's GPU runtime reads the per-SM ``%clock`` register inside the
kernel (Fig 7) because driver events and wall clocks are too coarse for
micro-profiling (§3.3); even so, §5.2 reports 95% selection accuracy on CPU
spmv-csr because tiny measurements drown in system noise.

We model both effects:

* *execution jitter* — each work-group's true duration is perturbed by a
  multiplicative lognormal factor (OS noise, frequency scaling).  This
  perturbs the actual schedule, not just the reading.
* *timer quantization* — measured intervals are rounded to the timer's
  quantum, so short intervals lose relative precision exactly like a coarse
  clock source.

Both are seeded from :class:`~repro.config.ReproConfig`, so runs are
reproducible; the oracle harness disables them via
:meth:`~repro.config.ReproConfig.without_noise`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..config import ReproConfig


@dataclass(frozen=True)
class MeasuredInterval:
    """A timed interval as DySel's selection logic observes it.

    ``true_cycles`` is the simulator's ground truth (used only by tests and
    the oracle); ``measured_cycles`` is what the runtime reads and bases
    selection on.
    """

    true_cycles: float
    measured_cycles: float


class NoisyClock:
    """Deterministic noise source for one device.

    A clock owns an RNG stream derived from the configuration seed and the
    device name, so two devices in one experiment see independent noise and
    the whole experiment replays identically for a fixed seed.
    """

    def __init__(self, config: ReproConfig, device_name: str) -> None:
        self._config = config
        self._rng = config.rng("clock", device_name)
        self._jitter = config.noise.execution_jitter
        self._quantum = config.noise.timer_quantum

    @property
    def quantum(self) -> float:
        """Timer resolution in cycles."""
        return self._quantum

    def jitter_durations(self, true_cycles: np.ndarray) -> np.ndarray:
        """Apply execution jitter to an array of work-group durations.

        Lognormal with unit median: ``exp(N(0, sigma))``.  With jitter 0 the
        input is returned unchanged (oracle runs).
        """
        true_cycles = np.asarray(true_cycles, dtype=float)
        if self._jitter <= 0 or true_cycles.size == 0:
            return true_cycles
        factors = np.exp(
            self._rng.normal(0.0, self._jitter, size=true_cycles.shape)
        )
        return true_cycles * factors

    def read_interval(self, true_cycles: float) -> MeasuredInterval:
        """Measure an elapsed interval through the quantized timer.

        Models reading a start and an end timestamp, each aligned to the
        timer quantum at an unknown phase: the error of a duration
        measurement is up to one quantum, uniformly distributed.
        """
        if true_cycles < 0:
            raise ValueError(f"interval cannot be negative: {true_cycles}")
        quantum = self._quantum
        if true_cycles > quantum * 2**40:
            # Quantum far below the interval's float resolution: the
            # timer is effectively exact (and tick arithmetic would lose
            # precision at this magnitude).
            return MeasuredInterval(
                true_cycles=true_cycles, measured_cycles=true_cycles
            )
        phase = self._rng.uniform(0.0, quantum)
        start_tick = math.floor(phase / quantum)
        end_tick = math.floor((phase + true_cycles) / quantum)
        measured = (end_tick - start_tick) * quantum
        return MeasuredInterval(true_cycles=true_cycles, measured_cycles=measured)
