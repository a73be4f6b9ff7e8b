"""Deterministic load generation for serving benchmarks.

:class:`LoadGenerator` produces reproducible request streams over a shop
universe — uniform, Zipf-skewed (a few hot sellers dominate, as in real
marketplace traffic), or a repeating working-set cycle that exercises
the gateway's result cache — and :func:`run_load` times an arbitrary
``predict_many``-shaped callable over a stream, reporting throughput and
latency percentiles.

The admission plane needs *timed* adversarial traffic, not just shop
sequences: :meth:`LoadGenerator.generate_timed` emits
:class:`TimedRequest` streams (arrival time + shop + priority class +
deadline budget, Poisson arrivals per tick from the seeded generator)
shaped as the traffic faults production gateways die of — a flash-sale
**spike** (base rate jumping ``spike_factor``x mid-run), a **hot-key**
celebrity shop absorbing most requests, a **diurnal** sinusoidal wave —
and :func:`replay_timed` replays one such stream against a gateway
under a :class:`~repro.obs.clock.FakeClock`, advancing simulated time
to each arrival.  :class:`ServiceTimeModel` completes the simulation by
charging a configurable per-forward/per-row cost to the same clock
(wrap the gateway's model with a higher cost for the slow-drain
degraded-server fault).  Everything is a pure function of the seed and
the clock, so scenario runs — and the gateway's admission decision log
— are bitwise reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..obs import clock as obs_clock
from .metrics import percentile_summary

__all__ = [
    "LoadGenerator",
    "LoadReport",
    "run_load",
    "TimedRequest",
    "ServiceTimeModel",
    "replay_timed",
]

PATTERNS = ("uniform", "zipf", "repeating")

#: Timed adversarial patterns understood by ``generate_timed``.
TIMED_PATTERNS = ("steady", "flash_sale", "hot_key", "diurnal")


@dataclass
class LoadReport:
    """Outcome of one timed load run."""

    pattern: str
    num_requests: int
    elapsed_seconds: float
    throughput_rps: float
    latency: Dict[str, float] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form for JSON artifacts."""
        return {
            "pattern": self.pattern,
            "num_requests": self.num_requests,
            "elapsed_seconds": self.elapsed_seconds,
            "throughput_rps": self.throughput_rps,
            "latency": dict(self.latency),
            "extra": dict(self.extra),
        }


@dataclass(frozen=True)
class TimedRequest:
    """One request of a timed adversarial stream.

    ``arrival_s`` is seconds from stream start (simulated time);
    ``deadline_s`` is the *budget* handed to
    :meth:`~repro.serving.gateway.ServingGateway.submit`, not an
    absolute deadline.
    """

    arrival_s: float
    shop: int
    priority: str = "normal"
    deadline_s: Optional[float] = None


class LoadGenerator:
    """Seeded generator of request streams over ``num_shops`` shops."""

    def __init__(self, num_shops: int, seed: int = 0) -> None:
        if num_shops <= 0:
            raise ValueError(f"num_shops must be positive, got {num_shops}")
        self.num_shops = int(num_shops)
        self.seed = int(seed)

    def _rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def generate(
        self,
        pattern: str,
        num_requests: int,
        working_set: int = 0,
        zipf_exponent: float = 1.2,
    ) -> np.ndarray:
        """Produce a deterministic stream of shop indices.

        * ``"uniform"`` — i.i.d. uniform over all shops.
        * ``"zipf"`` — rank-frequency skew with exponent ``zipf_exponent``
          over a shuffled shop ranking.
        * ``"repeating"`` — a fixed random working set of ``working_set``
          shops cycled in order; the canonical cache-friendly pattern.
        """
        if pattern not in PATTERNS:
            raise ValueError(f"unknown pattern {pattern!r}; pick from {PATTERNS}")
        if num_requests <= 0:
            raise ValueError(f"num_requests must be positive, got {num_requests}")
        rng = self._rng()
        if pattern == "uniform":
            return rng.integers(0, self.num_shops, size=num_requests, dtype=np.int64)
        if pattern == "zipf":
            ranks = np.arange(1, self.num_shops + 1, dtype=np.float64)
            weights = ranks ** -float(zipf_exponent)
            weights /= weights.sum()
            shops = rng.permutation(self.num_shops)
            return shops[
                rng.choice(self.num_shops, size=num_requests, p=weights)
            ].astype(np.int64)
        if working_set <= 0:
            working_set = max(self.num_shops // 4, 1)
        working_set = min(working_set, self.num_shops)
        pool = rng.choice(self.num_shops, size=working_set, replace=False)
        reps = int(np.ceil(num_requests / working_set))
        return np.tile(pool, reps)[:num_requests].astype(np.int64)

    def generate_timed(
        self,
        pattern: str,
        duration_s: float = 1.0,
        base_rps: float = 200.0,
        tick_s: float = 0.005,
        priority_mix: Optional[Dict[str, float]] = None,
        deadline_by_priority: Optional[Dict[str, float]] = None,
        spike_factor: float = 10.0,
        spike_window: tuple = (0.4, 0.6),
        hot_fraction: float = 0.8,
        zipf_exponent: float = 1.2,
    ) -> List[TimedRequest]:
        """Produce a deterministic *timed* adversarial request stream.

        Arrivals are Poisson per ``tick_s`` slice, with the rate shaped
        by ``pattern``:

        * ``"steady"`` — ``base_rps`` throughout; the control scenario.
        * ``"flash_sale"`` — ``base_rps`` jumping ``spike_factor``x
          inside the ``spike_window`` fraction of the run (default the
          middle fifth): the 10x sale-goes-live spike.
        * ``"hot_key"`` — steady rate, but ``hot_fraction`` of requests
          target one celebrity shop (the rest Zipf over the others).
        * ``"diurnal"`` — one full sinusoidal wave over ``duration_s``
          between ``0.25x`` and ``1.75x`` of ``base_rps``.

        ``priority_mix`` maps class → probability (default 10% high /
        70% normal / 20% low); ``deadline_by_priority`` maps class →
        budget seconds handed through to ``submit`` (default ``None`` =
        gateway default budget).  Everything derives from the seeded
        generator, so two calls with equal arguments return equal
        streams.
        """
        if pattern not in TIMED_PATTERNS:
            raise ValueError(
                f"unknown timed pattern {pattern!r}; pick from {TIMED_PATTERNS}"
            )
        if duration_s <= 0 or base_rps <= 0 or tick_s <= 0:
            raise ValueError(
                "duration_s, base_rps and tick_s must all be positive"
            )
        mix = priority_mix or {"high": 0.1, "normal": 0.7, "low": 0.2}
        classes = sorted(mix)
        weights = np.array([mix[name] for name in classes], dtype=np.float64)
        if weights.min() < 0 or weights.sum() <= 0:
            raise ValueError(f"bad priority mix {mix!r}")
        weights /= weights.sum()
        deadlines = deadline_by_priority or {}
        rng = self._rng()
        hot_shop = int(rng.integers(0, self.num_shops))
        ranks = np.arange(1, self.num_shops + 1, dtype=np.float64)
        zipf = ranks ** -float(zipf_exponent)
        zipf /= zipf.sum()
        shop_ranking = rng.permutation(self.num_shops)
        num_ticks = int(np.ceil(duration_s / tick_s))
        requests: List[TimedRequest] = []
        for tick in range(num_ticks):
            t = tick * tick_s
            phase = t / duration_s
            rate = float(base_rps)
            if pattern == "flash_sale" \
                    and spike_window[0] <= phase < spike_window[1]:
                rate *= float(spike_factor)
            elif pattern == "diurnal":
                rate *= 1.0 + 0.75 * math.sin(2.0 * math.pi * phase)
            arrivals = int(rng.poisson(rate * tick_s))
            if arrivals == 0:
                continue
            offsets = np.sort(rng.uniform(0.0, tick_s, size=arrivals))
            if pattern == "hot_key":
                hot = rng.uniform(size=arrivals) < float(hot_fraction)
                shops = shop_ranking[
                    rng.choice(self.num_shops, size=arrivals, p=zipf)
                ]
                shops = np.where(hot, hot_shop, shops)
            else:
                shops = rng.integers(0, self.num_shops, size=arrivals)
            picks = rng.choice(len(classes), size=arrivals, p=weights)
            for offset, shop, pick in zip(offsets, shops, picks):
                name = classes[int(pick)]
                requests.append(TimedRequest(
                    arrival_s=float(t + offset),
                    shop=int(shop),
                    priority=name,
                    deadline_s=deadlines.get(name),
                ))
        return requests


def run_load(
    predict_many: Callable[[np.ndarray], Sequence],
    requests: np.ndarray,
    pattern: str = "custom",
    clock=None,
) -> LoadReport:
    """Time ``predict_many`` over one request stream.

    ``predict_many`` must return one response per request, each exposing
    ``latency_seconds`` (both :class:`~repro.deploy.serving.OnlineModelServer`
    and :class:`~repro.serving.gateway.ServingGateway` do).
    """
    requests = np.asarray(requests, dtype=np.int64)
    clock = clock or obs_clock.now
    started = clock()
    responses: List = list(predict_many(requests))
    elapsed = max(clock() - started, 1e-12)
    latency = percentile_summary(
        [getattr(r, "latency_seconds", 0.0) for r in responses])
    return LoadReport(
        pattern=pattern,
        num_requests=int(requests.size),
        elapsed_seconds=float(elapsed),
        throughput_rps=float(requests.size / elapsed),
        latency=latency,
    )


class ServiceTimeModel:
    """Wrap a model so each forward charges simulated time to a clock.

    Scenario runs replay under a :class:`~repro.obs.clock.FakeClock`,
    where a model forward costs zero simulated seconds — so queues
    would never build and deadlines would never bind.  This wrapper
    advances the clock by ``per_forward_s + per_row_s * num_rows`` on
    every call, making service capacity finite and deterministic
    (``gateway.model = ServiceTimeModel(gateway.model, clock)``).  A
    *slow-drain* server fault is the same wrapper with a larger
    ``per_forward_s``.

    Everything else (``eval``, ``load_state_dict``, parameters)
    delegates to the wrapped model, so registry hot swaps keep working.
    """

    #: Declares nothing itself (not delegated): the wrapper is handed the
    #: whole union, so ``per_row_s`` charges for every ego row.
    receptive_depth = None

    def __init__(self, inner, clock, per_forward_s: float = 0.002,
                 per_row_s: float = 0.0) -> None:
        if per_forward_s < 0 or per_row_s < 0:
            raise ValueError("service-time costs must be non-negative")
        self.inner = inner
        self._sim_clock = clock
        self.per_forward_s = float(per_forward_s)
        self.per_row_s = float(per_row_s)

    def __call__(self, batch, graph):
        rows = getattr(batch, "num_shops", 0)
        self._sim_clock.advance(self.per_forward_s + self.per_row_s * rows)
        return self.inner(batch, graph)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def replay_timed(gateway, requests: Sequence[TimedRequest], clock,
                 settle_s: float = 1.0) -> List:
    """Replay a timed stream against a gateway on simulated time.

    The discrete-event loop of the admission simulation.  Before each
    arrival the serving worker runs: while simulated time has not yet
    reached the arrival, due batches are pumped one at a time (each
    advancing ``clock`` by its service cost when the model is
    wrapped in :class:`ServiceTimeModel`), and idle gaps fast-forward.
    When a long service pushes the clock *past* upcoming arrivals, those
    requests submit without any pump in between — they arrived while
    the server was busy, so they queue, build depth against
    ``max_queue_depth``, and exercise shedding/preemption exactly as a
    concurrent server would.  After the last arrival the tail is
    settled: ``settle_s`` of pump-as-needed serving, then a final
    flush.  Returns one resolved response per request, in arrival
    order.
    """
    pending = []
    for request in sorted(requests, key=lambda r: (r.arrival_s,)):
        target = float(request.arrival_s)
        while clock.now() < target:
            if not gateway.pump():
                clock.advance(target - clock.now())
        pending.append(gateway.submit(
            request.shop, priority=request.priority,
            deadline_s=request.deadline_s,
        ))
    deadline = clock.now() + float(settle_s)
    while clock.now() < deadline:
        if not gateway.pump():
            clock.advance(deadline - clock.now())
    gateway.flush()
    return [request.result() for request in pending]
