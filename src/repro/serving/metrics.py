"""Serving metrics: counters, distributions and latency percentiles.

A tiny Prometheus-flavoured registry scoped to one gateway instance.
Counters accumulate monotonically; distributions (batch occupancy,
latency) keep a bounded ring of recent observations so a long-running
gateway reports rolling percentiles without unbounded memory.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from ..obs import clock as obs_clock

__all__ = ["percentile_summary", "RollingWindow", "MetricsRegistry"]


def percentile_summary(values, percentiles: Sequence[int] = (50, 95, 99)
                       ) -> Dict[str, float]:
    """``mean`` plus one ``p<q>`` key per percentile of ``values``.

    The one latency summary behind :meth:`RollingWindow.summary`,
    :func:`~repro.serving.loadgen.run_load`,
    :func:`~repro.serving.admission.admission_report` and
    :meth:`~repro.deploy.serving.OnlineModelServer.latency_summary`.
    An empty population reads all zeros — no traffic is not a latency.

    >>> percentile_summary([1.0, 3.0], (50,))
    {'mean': 2.0, 'p50': 2.0}
    >>> percentile_summary([], (50, 95))
    {'mean': 0.0, 'p50': 0.0, 'p95': 0.0}
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        values = np.zeros(1)
    points = np.percentile(values, list(percentiles))
    return {"mean": float(values.mean()),
            **{f"p{q}": float(point) for q, point in zip(percentiles, points)}}


class RollingWindow:
    """Fixed-capacity ring buffer of float observations.

    Keeps the most recent ``capacity`` values; summary statistics are
    computed over whatever the ring currently holds.

    >>> window = RollingWindow(capacity=3)
    >>> for value in (1.0, 2.0, 3.0, 4.0):
    ...     window.observe(value)
    >>> sorted(window.values().tolist()), window.total_observations
    ([2.0, 3.0, 4.0], 4)
    """

    def __init__(self, capacity: int = 2048) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._buffer = np.zeros(self.capacity, dtype=np.float64)
        self._next = 0
        self._count = 0
        self.total_observations = 0

    def observe(self, value: float) -> None:
        """Record one observation, evicting the oldest when full."""
        self._buffer[self._next] = float(value)
        self._next = (self._next + 1) % self.capacity
        self._count = min(self._count + 1, self.capacity)
        self.total_observations += 1

    def values(self) -> np.ndarray:
        """Currently retained observations (unordered)."""
        return self._buffer[: self._count].copy()

    def __len__(self) -> int:
        return self._count

    def summary(self) -> Dict[str, float]:
        """Window statistics plus the lifetime observation count.

        ``count`` is the number of *retained* observations — the same
        population mean/p50/p95/p99 are computed over, so the summary
        is internally consistent (``mean * count`` really is the window
        sum).  ``total`` is the lifetime observation count, which keeps
        growing after the ring starts evicting.

        Sparse-window semantics are pinned down because SLO evaluation
        reads these percentiles on windows of any size: with a single
        retained observation every percentile *is* that observation —
        there is exactly one empirical quantile — so an SLO judged
        against ``p95`` of a 1-element window is judged against the
        one latency the gateway actually served.

        >>> window = RollingWindow(capacity=8)
        >>> window.observe(0.25)
        >>> summary = window.summary()
        >>> summary["p50"] == summary["p95"] == summary["p99"] == 0.25
        True
        """
        return {
            "count": float(self._count),
            "total": float(self.total_observations),
            **percentile_summary(self._buffer[: self._count]),
        }


class MetricsRegistry:
    """Counters plus rolling distributions for one serving gateway.

    Canonical series written by :class:`~repro.serving.gateway.ServingGateway`:

    * counters — ``requests_total`` (everything offered to ``submit``),
      ``requests_admitted`` (parked), ``requests_shed`` with
      ``requests_shed_high`` / ``requests_shed_normal`` /
      ``requests_shed_low`` (per priority class: refused or preempted
      at a full bounded queue, or expired) and ``requests_expired``
      (deadline passed while parked or in flight; note
      ``latency_seconds`` covers *served* requests only, so shed
      traffic never flatters the percentiles), ``requests_failed``
      (unservable ego, or the group's forward raised — failed
      individually), ``batches_total``, ``cache_hits``,
      ``cache_misses``, ``subgraph_cache_hits``, ``subgraph_cache_misses``,
      ``model_swaps``, ``graph_invalidations`` (wholesale flushes),
      ``graph_delta_invalidations`` / ``delta_evicted_subgraphs`` /
      ``delta_evicted_results`` (delta-aware eviction under streaming
      churn), ``freshness_evictions`` / ``stale_results_served``
      (event-time freshness of the result cache under
      ``GatewayConfig.max_staleness_months``; the accepted-tick count
      is the store's ``ticks_applied``).  Every
      gateway writes the same set: ``GatewayConfig.admission`` only
      decides whether a queue bound and a default budget exist to
      shed against
    * distributions — ``latency_seconds`` (per request, queue wait
      included), ``batch_size`` (requests per model forward),
      ``forward_rows`` (rows one forward computed: the receptive rows
      of the batch's egos, not their sizes — those are
      ``GatewayResponse.subgraph_nodes``)
    """

    def __init__(self, window: int = 2048, clock=None) -> None:
        # Defaults to the injectable observability clock, so a FakeClock
        # installed via repro.obs.clock.use_clock drives QPS and windows
        # deterministically under test.
        self._clock = clock or obs_clock.now
        self.started_at = self._clock()
        self.counters: Dict[str, float] = {}
        self._windows: Dict[str, RollingWindow] = {}
        self._window_capacity = window
        self._request_times = RollingWindow(window)

    def inc(self, name: str, amount: float = 1.0) -> None:
        """Increment a monotone counter."""
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def record_request(self) -> None:
        """Count one admitted request and timestamp it for rolling QPS."""
        self.inc("requests_total")
        self._request_times.observe(self._clock())

    def counter(self, name: str) -> float:
        """Current value of a counter (0 when never written)."""
        return self.counters.get(name, 0.0)

    def observe(self, name: str, value: float) -> None:
        """Record one observation into a named rolling distribution."""
        window = self._windows.get(name)
        if window is None:
            window = self._windows[name] = RollingWindow(self._window_capacity)
        window.observe(value)

    def distribution(self, name: str) -> Optional[RollingWindow]:
        """The named rolling window, or ``None`` when never written."""
        return self._windows.get(name)

    # ------------------------------------------------------------------
    # derived
    # ------------------------------------------------------------------
    def elapsed_seconds(self) -> float:
        """Wall-clock seconds since the registry was created."""
        return max(self._clock() - self.started_at, 1e-12)

    def qps(self) -> float:
        """Rolling-window requests per second (recent load).

        Computed over the retained request timestamps (the newest
        ``window`` admissions), so the estimate tracks the *current*
        arrival rate — a lifetime average would understate load after
        any idle period.  Uses the inter-arrival form ``(N - 1) / span``
        (exact for uniform arrivals; ``N / span`` would overcount by one
        gap).  Requests must be admitted through :meth:`record_request`
        to feed the window; bare ``inc("requests_total")`` only moves
        the lifetime value.

        Reports ``0.0`` until the window spans a measurable interval —
        a single request with an unadvanced clock is *no evidence of
        rate*, not an ~1e9-QPS spike (clamping span to epsilon used to
        produce exactly that under a frozen test clock).
        """
        window = self._request_times
        count = len(window)
        if count == 0:
            return 0.0
        span = self._clock() - float(window.values().min())
        if span <= 0.0:
            return 0.0
        if count == 1:
            return 1.0 / span
        return (count - 1) / span

    def qps_lifetime(self) -> float:
        """Requests per second averaged over the registry's lifetime."""
        return self.counter("requests_total") / self.elapsed_seconds()

    def cache_hit_rate(self) -> float:
        """Result-cache hit fraction (0 when no lookups yet)."""
        hits = self.counter("cache_hits")
        total = hits + self.counter("cache_misses")
        return hits / total if total else 0.0

    def batch_occupancy(self, max_batch_size: int) -> float:
        """Mean batch fill fraction relative to ``max_batch_size``."""
        window = self._windows.get("batch_size")
        if window is None or len(window) == 0 or max_batch_size <= 0:
            return 0.0
        return float(window.values().mean()) / float(max_batch_size)

    def snapshot(self, max_batch_size: Optional[int] = None) -> Dict[str, object]:
        """One serialisable report of everything the registry tracks."""
        report: Dict[str, object] = {
            "elapsed_seconds": self.elapsed_seconds(),
            "qps": self.qps(),
            "qps_lifetime": self.qps_lifetime(),
            "cache_hit_rate": self.cache_hit_rate(),
            "counters": dict(self.counters),
            "distributions": {
                name: window.summary() for name, window in self._windows.items()
            },
        }
        if max_batch_size is not None:
            report["batch_occupancy"] = self.batch_occupancy(max_batch_size)
        return report
