"""The SLO engine: declarative objectives, error budgets, burn-rate alerts.

The rest of the observability plane is *passive* — spans, profiles and
hub snapshots describe what happened, but nothing watches them.  This
module is the first active layer: an :class:`SLO` declares a promise
about a metric the :class:`~repro.obs.hub.MetricsHub` already collects
(a latency percentile bound, an error-rate ceiling, a staleness or
watermark-lag limit, a checkpoint-age cap) and an :class:`SLOEngine`
evaluates every promise against live hub collections, tracks each
one's **error budget**, and raises SRE-style **multi-window burn-rate
alerts** when the budget is being spent too fast.

Burn-rate alerting (the Google SRE workbook recipe): let the SLO
target be ``target`` (say 0.99 — 99% of evaluations must comply).  The
error *budget fraction* is ``1 - target``.  The burn rate over a
window is::

    burn(window) = bad_fraction(window) / (1 - target)

``burn == 1`` spends exactly the whole budget over the SLO period;
``burn == 14.4`` exhausts a 30-day budget in ~2 days.  A single window
either pages too slowly (long window) or flaps on blips (short
window), so each alert pairs a **long** window (sustained evidence)
with a **short** one (still happening *right now*) and fires only when
both burn above the pair's factor.  The default pairs follow the
fast/slow split:

* ``page``  — long 1 h, short 5 m, factor 14.4 (budget gone in days)
* ``ticket`` — long 3 d, short 6 h, factor 1.0 (budget gone by period end)

An alert clears when the pair condition no longer holds — the short
window recovers within minutes of the incident ending, while the long
window keeps a still-burning SLO from clearing early.

Determinism: the engine reads time exclusively through the injectable
:mod:`repro.obs.clock` and consumes only what :meth:`SLOEngine.evaluate`
is fed, so under a :class:`~repro.obs.clock.FakeClock` the full alert
transition sequence is bit-for-bit reproducible (property-tested in
``tests/test_health_plane.py``, including under shifted clock epochs).

>>> from repro.obs.clock import FakeClock, use_clock
>>> from repro.obs.hub import MetricsHub
>>> hub, app = MetricsHub(), {}
>>> hub.register_source("app", lambda: app)
>>> engine = SLOEngine(hub)
>>> _ = engine.add(SLO(name="cheap-gauge", series="app.queue_depth",
...                    objective=10.0, target=0.5))
>>> with use_clock(FakeClock()) as clock:
...     for depth in (3.0, 4.0, 50.0):
...         app["queue_depth"] = depth
...         _ = engine.evaluate()
...         clock.advance(60.0)
>>> report = engine.report()["cheap-gauge"]
>>> report["sli"], report["compliant"], report["samples"]
(50.0, False, 3.0)
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from . import clock as _clock
from .hub import series_values

__all__ = [
    "Transition",
    "BurnWindow",
    "DEFAULT_BURN_WINDOWS",
    "SLO",
    "SLOEngine",
]


@dataclass(frozen=True)
class Transition:
    """One state change of an alert, detector, or probe.

    The shared record type of the active health plane: the SLO engine,
    the anomaly monitor and the health server all append these to their
    own histories and forward them to an attached flight recorder.
    ``at`` is the injectable wall clock at transition time; ``elapsed``
    is the monotonic reading, so transition *spacing* survives an epoch
    shift unchanged.
    """

    at: float
    elapsed: float
    source: str       # "slo" | "anomaly" | "probe"
    name: str         # e.g. "serving-p95:page" or "gateway"
    state: str        # "firing"/"cleared", "anomalous"/"normal", ...
    severity: str = "info"
    details: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (flight-recorder bundles are JSON)."""
        return {
            "at": self.at,
            "elapsed": self.elapsed,
            "source": self.source,
            "name": self.name,
            "state": self.state,
            "severity": self.severity,
            "details": dict(self.details),
        }


@dataclass(frozen=True)
class BurnWindow:
    """One long/short burn-rate alert pair."""

    name: str           # "page" / "ticket"
    long_seconds: float
    short_seconds: float
    factor: float       # both windows must burn at least this fast
    severity: str = "warning"

    def __post_init__(self) -> None:
        if self.short_seconds <= 0 or self.long_seconds <= 0:
            raise ValueError("burn windows must be positive")
        if self.short_seconds > self.long_seconds:
            raise ValueError(
                f"short window {self.short_seconds}s exceeds long window "
                f"{self.long_seconds}s"
            )
        if self.factor <= 0:
            raise ValueError(f"burn factor must be positive, got {self.factor}")


#: The SRE-workbook fast/slow pairs: page on a 5m/1h burn, ticket on
#: a 6h/3d burn.
DEFAULT_BURN_WINDOWS: Tuple[BurnWindow, ...] = (
    BurnWindow(name="page", long_seconds=3600.0, short_seconds=300.0,
               factor=14.4, severity="page"),
    BurnWindow(name="ticket", long_seconds=259_200.0, short_seconds=21_600.0,
               factor=1.0, severity="ticket"),
)


@dataclass
class SLO:
    """One declarative objective over a hub series.

    Two SLI modes:

    * **threshold** (the default) — the SLI is the series value itself
      (``field`` picks a summary key for histograms, e.g. ``"p95"``);
      an evaluation is *compliant* when ``value <comparison> objective``
      holds.
    * **ratio** — with ``total_series`` set, both series are monotone
      counters and the SLI is the *increment ratio* between consecutive
      evaluations (``Δseries / Δtotal_series`` — e.g. failed / total
      requests); compliant while the ratio stays within ``objective``.
      Evaluations where the denominator did not move record no sample.

    ``target`` is the promised compliant fraction (0.99 = "99% of
    evaluations comply"); ``1 - target`` is the error budget the burn
    windows are scaled by.
    """

    name: str
    #: ``"namespace.name"`` into the hub collection.
    series: str
    #: The SLI bound (seconds, months, a rate — whatever the series is).
    objective: float
    #: ``"<="`` (latency-style: small is good) or ``">="``
    #: (hit-rate-style: large is good).
    comparison: str = "<="
    #: Promised compliant fraction of evaluations.
    target: float = 0.99
    #: Histogram summary key (``"p50"``/``"p95"``/``"p99"``/``"mean"``);
    #: ``None`` reads scalar series.
    field: Optional[str] = None
    #: Ratio-mode denominator series (both counters; see class docs).
    total_series: Optional[str] = None
    description: str = ""

    def __post_init__(self) -> None:
        if self.comparison not in ("<=", ">="):
            raise ValueError(
                f"comparison must be '<=' or '>=', got {self.comparison!r}"
            )
        if not 0.0 < self.target < 1.0:
            raise ValueError(
                f"target must be a fraction in (0, 1), got {self.target}"
            )

    def compliant(self, value: float) -> bool:
        """Whether one SLI reading honours the objective."""
        if self.comparison == "<=":
            return value <= self.objective
        return value >= self.objective


class _SloState:
    """Mutable evaluation state for one SLO (samples + alert flags)."""

    __slots__ = ("slo", "samples", "bad_total", "sample_total",
                 "firing", "last_value", "last_counters")

    def __init__(self, slo: SLO, max_samples: int) -> None:
        self.slo = slo
        #: ``(monotonic_ts, bad)`` pairs, oldest first.
        self.samples: Deque[Tuple[float, float]] = deque(maxlen=max_samples)
        self.bad_total = 0
        self.sample_total = 0
        #: window name -> currently firing?
        self.firing: Dict[str, bool] = {}
        self.last_value: Optional[float] = None
        #: (numerator, denominator) readings for ratio mode.
        self.last_counters: Optional[Tuple[float, float]] = None

    def prune(self, now: float, horizon: float) -> None:
        while self.samples and now - self.samples[0][0] > horizon:
            self.samples.popleft()

    def bad_fraction(self, now: float, window: float) -> float:
        total = 0
        bad = 0.0
        for ts, flag in reversed(self.samples):
            if now - ts > window:
                break
            total += 1
            bad += flag
        return bad / total if total else 0.0


class SLOEngine:
    """Evaluates every registered :class:`SLO` against live hub state.

    Parameters
    ----------
    hub:
        The :class:`~repro.obs.hub.MetricsHub` series are read from.
    windows:
        Burn-rate alert pairs shared by every SLO
        (:data:`DEFAULT_BURN_WINDOWS` unless overridden).
    clock:
        Zero-argument monotonic reader (defaults to the injectable
        :func:`repro.obs.clock.now`); wall timestamps for transitions
        always come from :func:`repro.obs.clock.wall_time`.
    recorder:
        Optional :class:`~repro.obs.recorder.FlightRecorder`; every
        transition is forwarded to it (firing transitions can trigger
        diagnostic dumps).
    max_samples:
        Per-SLO bound on retained evaluation samples (the long-window
        math only ever needs samples inside the longest window).
    max_transitions:
        Bound on the retained transition history.
    """

    def __init__(self, hub, windows: Tuple[BurnWindow, ...] = DEFAULT_BURN_WINDOWS,
                 clock=None, recorder=None, max_samples: int = 16384,
                 max_transitions: int = 4096) -> None:
        if not windows:
            raise ValueError("need at least one burn window pair")
        self.hub = hub
        self.windows = tuple(windows)
        self._clock = clock or _clock.now
        self.recorder = recorder
        self._states: Dict[str, _SloState] = {}
        self._max_samples = int(max_samples)
        self.transitions: Deque[Transition] = deque(maxlen=int(max_transitions))
        self.evaluations = 0
        self._horizon = max(w.long_seconds for w in self.windows)

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def add(self, slo: SLO) -> SLO:
        """Register one objective (names must be unique)."""
        if slo.name in self._states:
            raise ValueError(f"SLO {slo.name!r} is already registered")
        self._states[slo.name] = _SloState(slo, self._max_samples)
        return slo

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    @staticmethod
    def _sample(state: _SloState, views: Dict[Optional[str], Dict[str, float]]
                ) -> Optional[Tuple[float, bool]]:
        """One SLI reading for ``state`` (``None`` = no sample this round).

        ``views`` maps a summary field (``None``: scalar series) to the
        :func:`~repro.obs.hub.series_values` of this round's collection.
        """
        slo = state.slo
        value = views[slo.field].get(slo.series)
        if slo.total_series is None:
            if value is None:
                return None
            return value, slo.compliant(value)
        total = views[None].get(slo.total_series)
        if total is None:
            return None
        # A numerator counter nobody has incremented yet reads as 0 —
        # an error-rate SLO must not go no-data just because no error
        # ever happened.
        if value is None:
            value = 0.0
        previous = state.last_counters
        state.last_counters = (value, total)
        if previous is None:
            return None
        delta_num = value - previous[0]
        delta_total = total - previous[1]
        if delta_total <= 0.0:
            return None
        ratio = delta_num / delta_total
        return ratio, slo.compliant(ratio)

    def evaluate(self) -> List[Transition]:
        """Score every SLO against the hub's current collection.

        Records one compliance sample per SLO (where its series carries
        data), recomputes burn rates, and flips alert states.  Returns
        the transitions this evaluation caused, already appended to
        :attr:`transitions` (and forwarded to the recorder, if any).
        """
        now = self._clock()
        wall = _clock.wall_time()
        rows = self.hub.collect()
        fields = {state.slo.field for state in self._states.values()}
        views = {field: series_values(rows, field) for field in fields | {None}}
        self.evaluations += 1
        caused: List[Transition] = []
        for state in self._states.values():
            sampled = self._sample(state, views)
            if sampled is not None:
                value, good = sampled
                state.last_value = value
                state.samples.append((now, 0.0 if good else 1.0))
                state.sample_total += 1
                state.bad_total += 0 if good else 1
            state.prune(now, self._horizon)
            caused.extend(self._update_alerts(state, now, wall))
        return caused

    def _update_alerts(self, state: _SloState, now: float,
                       wall: float) -> List[Transition]:
        slo = state.slo
        budget = 1.0 - slo.target
        flips: List[Transition] = []
        for window in self.windows:
            burn_long = state.bad_fraction(now, window.long_seconds) / budget
            burn_short = state.bad_fraction(now, window.short_seconds) / budget
            firing = burn_long >= window.factor and burn_short >= window.factor
            was = state.firing.get(window.name, False)
            if firing == was:
                continue
            state.firing[window.name] = firing
            transition = Transition(
                at=wall, elapsed=now, source="slo",
                name=f"{slo.name}:{window.name}",
                state="firing" if firing else "cleared",
                severity=window.severity,
                details={"burn_long": burn_long, "burn_short": burn_short,
                         "factor": window.factor,
                         "sli": state.last_value
                         if state.last_value is not None else float("nan")},
            )
            self.transitions.append(transition)
            flips.append(transition)
            if self.recorder is not None:
                self.recorder.record_transition(transition)
        return flips

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def active_alerts(self) -> List[str]:
        """Names (``slo:window``) of every currently firing alert."""
        return [
            f"{state.slo.name}:{name}"
            for state in self._states.values()
            for name, firing in state.firing.items()
            if firing
        ]

    def budget_report(self) -> Dict[str, Dict[str, float]]:
        """Per-SLO error-budget state (the flight-recorder bundle block).

        ``budget_consumed`` is the lifetime bad fraction divided by the
        budget fraction — 1.0 means the whole period's budget is spent;
        ``budget_remaining`` is its complement (floored at -inf, a
        blown budget reads negative on purpose).
        """
        out: Dict[str, Dict[str, float]] = {}
        for state in self._states.values():
            slo = state.slo
            budget = 1.0 - slo.target
            if state.sample_total:
                bad_fraction = state.bad_total / state.sample_total
            else:
                bad_fraction = 0.0
            consumed = bad_fraction / budget
            out[slo.name] = {
                "target": slo.target,
                "samples": float(state.sample_total),
                "bad_samples": float(state.bad_total),
                "budget_consumed": consumed,
                "budget_remaining": 1.0 - consumed,
            }
        return out

    def report(self) -> Dict[str, Dict[str, object]]:
        """Full serialisable engine state, one entry per SLO."""
        now = self._clock()
        budgets = self.budget_report()
        out: Dict[str, Dict[str, object]] = {}
        for state in self._states.values():
            slo = state.slo
            budget = 1.0 - slo.target
            burns = {}
            for window in self.windows:
                burns[window.name] = {
                    "long": state.bad_fraction(now, window.long_seconds) / budget,
                    "short": state.bad_fraction(now, window.short_seconds) / budget,
                    "factor": window.factor,
                    "firing": state.firing.get(window.name, False),
                }
            out[slo.name] = {
                "series": slo.series,
                "objective": slo.objective,
                "comparison": slo.comparison,
                "sli": state.last_value,
                "compliant": (
                    None if state.last_value is None
                    else slo.compliant(state.last_value)
                ),
                "samples": len(state.samples),
                "burn": burns,
                **budgets[slo.name],
            }
        return out
