"""EWMA z-score anomaly detection over metrics-hub time series.

The SLO engine (:mod:`repro.obs.slo`) judges series against *declared*
bounds; this module catches degradation nobody wrote an objective for —
ingest rate collapse, a p95 step-change, a cache hit-rate cliff — by
learning each series' recent behaviour online and flagging readings
that sit far outside it.

The detector is the same family as the ``OnlineAdapter``'s drift
detection: an exponentially weighted moving **mean and variance**
(West's EWMA-variance update) scores each new reading as a z-score
against the *pre-update* baseline.  Three guards keep a single spike
from flapping:

* **warm-up suppression** — no verdicts until ``warmup`` readings have
  built a baseline;
* **baseline freezing** — while anomalous, the EWMA stops absorbing
  the anomalous readings, so a genuine level shift keeps firing rather
  than being quietly learned as the new normal within a few samples;
* **hysteresis** — the anomaly clears only after ``clear_samples``
  consecutive readings fall back inside ``clear_z`` (strictly tighter
  than the firing threshold).

Like the SLO engine, the monitor reads time only through
:mod:`repro.obs.clock`, so transition sequences are deterministic
under a :class:`~repro.obs.clock.FakeClock`.

>>> det = EwmaZScoreDetector("p95", warmup=4, z_threshold=3.0)
>>> for v in (10.0, 11.0, 10.0, 11.0):
...     _ = det.observe(v)      # warming: builds the baseline
>>> det.state
'normal'
>>> det.observe(40.0)           # step change: far outside baseline
'anomalous'
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, List, Optional

from . import clock as _clock
from .hub import series_values
from .slo import Transition

__all__ = ["EwmaZScoreDetector", "AnomalyMonitor"]


class EwmaZScoreDetector:
    """Online z-score detector with warm-up, freezing and hysteresis.

    Parameters
    ----------
    name:
        Label used in transitions and reports.
    alpha:
        EWMA smoothing factor in ``(0, 1]``; higher adapts faster.
    z_threshold:
        |z| at or above which a reading is anomalous.
    warmup:
        Readings absorbed before any verdict is possible.
    clear_z:
        |z| the reading must fall back inside to count toward clearing
        (must be below ``z_threshold`` — that gap is the hysteresis).
    clear_samples:
        Consecutive in-band readings required to clear.
    direction:
        ``"both"`` flags either tail, ``"high"`` only readings above
        the baseline, ``"low"`` only below (an ingest-rate collapse is
        a ``"low"`` detector; a latency step-change is ``"high"``).
    min_std:
        Floor on the baseline standard deviation, so a near-constant
        series doesn't turn measurement noise into infinite z-scores.
    """

    __slots__ = ("name", "alpha", "z_threshold", "warmup", "clear_z",
                 "clear_samples", "direction", "min_std", "mean", "var",
                 "count", "state", "last_z", "_calm_streak")

    def __init__(self, name: str, alpha: float = 0.2, z_threshold: float = 4.0,
                 warmup: int = 10, clear_z: float = 1.5,
                 clear_samples: int = 3, direction: str = "both",
                 min_std: float = 1e-9) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if clear_z >= z_threshold:
            raise ValueError(
                f"clear_z ({clear_z}) must sit below z_threshold "
                f"({z_threshold}) — that gap is the hysteresis"
            )
        if direction not in ("both", "high", "low"):
            raise ValueError(f"direction must be both/high/low, got {direction!r}")
        if warmup < 2:
            raise ValueError("warmup must be at least 2 readings")
        self.name = name
        self.alpha = alpha
        self.z_threshold = z_threshold
        self.warmup = int(warmup)
        self.clear_z = clear_z
        self.clear_samples = int(clear_samples)
        self.direction = direction
        self.min_std = min_std
        self.mean = 0.0
        self.var = 0.0
        self.count = 0
        self.state = "warming"      # warming | normal | anomalous
        self.last_z = 0.0
        self._calm_streak = 0

    def _signed_z(self, value: float) -> float:
        std = max(math.sqrt(self.var), self.min_std)
        return (value - self.mean) / std

    def _breaches(self, z: float) -> bool:
        if self.direction == "high":
            return z >= self.z_threshold
        if self.direction == "low":
            return z <= -self.z_threshold
        return abs(z) >= self.z_threshold

    def _absorb(self, value: float) -> None:
        if self.count == 0:
            self.mean = value
            self.var = 0.0
        else:
            delta = value - self.mean
            incr = self.alpha * delta
            self.mean += incr
            # West's EWMA variance: decay old variance, add the
            # cross-term of the residual against the updated mean.
            self.var = (1.0 - self.alpha) * (self.var + delta * incr)
        self.count += 1

    def observe(self, value: float) -> str:
        """Score one reading; absorb it unless anomalous. Returns state."""
        if self.count < self.warmup:
            self._absorb(value)
            if self.count >= self.warmup:
                self.state = "normal"
            return self.state
        z = self._signed_z(value)
        self.last_z = z
        if self.state == "anomalous":
            # Frozen baseline: only in-band readings are absorbed, and
            # clear_samples of them in a row end the anomaly.
            if abs(z) <= self.clear_z:
                self._calm_streak += 1
                self._absorb(value)
                if self._calm_streak >= self.clear_samples:
                    self.state = "normal"
            else:
                self._calm_streak = 0
            return self.state
        if self._breaches(z):
            self.state = "anomalous"
            self._calm_streak = 0
            return self.state
        self._absorb(value)
        return self.state


class _Watch:
    """One watched hub series: reader config + its detector."""

    __slots__ = ("series", "field", "mode", "detector", "_last")

    def __init__(self, series: str, field: Optional[str], mode: str,
                 detector: EwmaZScoreDetector) -> None:
        self.series = series
        self.field = field
        self.mode = mode
        self.detector = detector
        #: (monotonic ts, raw value) of the previous reading (rate mode).
        self._last: Optional[tuple] = None

    def rate(self, value: float, now: float) -> Optional[float]:
        """Per-second change since the previous reading (``None`` first)."""
        previous, self._last = self._last, (now, value)
        if previous is None:
            return None
        span = now - previous[0]
        if span <= 0.0:
            return None
        return (value - previous[1]) / span


class AnomalyMonitor:
    """Runs z-score detectors over :class:`~repro.obs.hub.MetricsHub` series.

    ``watch()`` registers a series; ``observe()`` pulls one hub
    collection, feeds every watched series to its detector, and returns
    the state transitions this round caused (also kept in
    :attr:`transitions` and forwarded to an attached flight recorder).
    """

    def __init__(self, hub, clock=None, recorder=None,
                 max_transitions: int = 4096) -> None:
        self.hub = hub
        self._clock = clock or _clock.now
        self.recorder = recorder
        self._watches: Dict[str, _Watch] = {}
        self.transitions: Deque[Transition] = deque(maxlen=int(max_transitions))

    def watch(self, name: str, series: str, field: Optional[str] = None,
              mode: str = "level", **detector_kwargs) -> EwmaZScoreDetector:
        """Watch ``"namespace.name"`` under a new detector.

        ``mode="level"`` feeds the raw reading; ``mode="rate"`` feeds
        the per-second delta between consecutive observations — the
        right view of a monotone counter (an ingest-rate collapse is a
        ``rate`` watch with ``direction="low"``).  ``field`` selects a
        histogram summary key (e.g. ``"p95"``).  Remaining keyword
        arguments configure the :class:`EwmaZScoreDetector`.
        """
        if name in self._watches:
            raise ValueError(f"watch {name!r} already registered")
        if mode not in ("level", "rate"):
            raise ValueError(f"mode must be 'level' or 'rate', got {mode!r}")
        detector = EwmaZScoreDetector(name, **detector_kwargs)
        self._watches[name] = _Watch(series, field, mode, detector)
        return detector

    def observe(self) -> List[Transition]:
        """Feed one hub collection to every detector; return transitions."""
        now = self._clock()
        wall = _clock.wall_time()
        rows = self.hub.collect()
        views = {field: series_values(rows, field)
                 for field in {watch.field for watch in self._watches.values()}}
        caused: List[Transition] = []
        for name, watch in self._watches.items():
            reading = views[watch.field].get(watch.series)
            if reading is not None and watch.mode == "rate":
                reading = watch.rate(reading, now)
            if reading is None:
                continue
            before = watch.detector.state
            after = watch.detector.observe(reading)
            if after == before:
                continue
            if before == "warming" and after == "normal":
                # Completing warm-up is not an alert condition — only
                # entering or leaving "anomalous" is worth a transition.
                continue
            transition = Transition(
                at=wall, elapsed=now, source="anomaly", name=name,
                state=after,
                severity="warning" if after == "anomalous" else "info",
                details={"value": reading, "z": watch.detector.last_z,
                         "mean": watch.detector.mean},
            )
            self.transitions.append(transition)
            caused.append(transition)
            if self.recorder is not None:
                self.recorder.record_transition(transition)
        return caused

    def report(self) -> Dict[str, Dict[str, object]]:
        """Per-watch detector state (series, mode, state, baseline, z)."""
        return {
            name: {
                "series": watch.series,
                "mode": watch.mode,
                "state": watch.detector.state,
                "mean": watch.detector.mean,
                "std": math.sqrt(watch.detector.var),
                "last_z": watch.detector.last_z,
                "count": watch.detector.count,
            }
            for name, watch in self._watches.items()
        }
