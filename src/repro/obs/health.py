"""Per-subsystem liveness/readiness probes and their aggregator.

Each subsystem answers two questions, Kubernetes-style:

* **live** — is the component structurally able to do its job at all
  (a registry with no version, a closed journal)?  A dead probe
  means restart/rebuild, not wait.
* **ready** — should traffic/flow be routed at it *right now* (queue
  depth within bound, watermark lag acceptable, checkpoint recent)?
  Not-ready is expected to self-heal.

A probe is a zero-argument callable returning a :class:`ProbeResult`;
the factory helpers in this module build probes for the concrete
subsystems **by duck-typing** — `repro.obs` imports nothing from
serving/streaming/training/deploy, so the layering rule (everything
imports obs, obs imports only the stdlib) survives.

:class:`HealthServer` aggregates registered probes into a single
report (``ok`` / ``degraded`` / ``unhealthy``) and records every probe
flip as a :class:`~repro.obs.slo.Transition` — the same record type
the SLO engine and anomaly monitor emit, so one flight recorder sees
the whole plane.  Probe evaluation reads time only through
:mod:`repro.obs.clock`; flip sequences are deterministic under a
:class:`~repro.obs.clock.FakeClock`.

>>> server = HealthServer()
>>> server.register("demo", lambda: ProbeResult("demo", live=True, ready=True))
>>> server.check()["status"]
'ok'
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

from . import clock as _clock
from .slo import Transition

__all__ = [
    "ProbeResult",
    "HealthServer",
    "gateway_probe",
    "streaming_probe",
    "online_probe",
    "durable_probe",
    "registry_probe",
]


@dataclass(frozen=True)
class ProbeResult:
    """One probe verdict: liveness, readiness, and why."""

    name: str
    live: bool
    ready: bool
    reason: str = ""
    details: Dict[str, float] = field(default_factory=dict)

    @property
    def status(self) -> str:
        """``ok`` (live+ready), ``degraded`` (live only), or ``dead``."""
        if not self.live:
            return "dead"
        return "ok" if self.ready else "degraded"

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form for health reports and recorder bundles."""
        return {
            "name": self.name,
            "live": self.live,
            "ready": self.ready,
            "status": self.status,
            "reason": self.reason,
            "details": dict(self.details),
        }


class HealthServer:
    """Aggregates named probes into one liveness/readiness report.

    ``check()`` runs every probe (a probe that raises is reported dead
    rather than taking the server down), derives the overall status —
    ``ok`` if every probe is ok, ``unhealthy`` if any is dead,
    ``degraded`` otherwise — and records per-probe status flips as
    transitions (forwarded to ``recorder`` when attached).
    """

    def __init__(self, clock=None, recorder=None,
                 max_transitions: int = 4096) -> None:
        self._clock = clock or _clock.now
        self.recorder = recorder
        self._probes: Dict[str, Callable[[], ProbeResult]] = {}
        self._last_status: Dict[str, str] = {}
        self.transitions: Deque[Transition] = deque(maxlen=int(max_transitions))
        self.checks = 0

    def register(self, name: str, probe: Callable[[], ProbeResult]) -> None:
        """Add a probe under a unique name."""
        if name in self._probes:
            raise ValueError(f"probe {name!r} already registered")
        self._probes[name] = probe

    def probes(self) -> List[str]:
        """Registered probe names, in registration order."""
        return list(self._probes)

    def unregister(self, name: str) -> None:
        """Drop a probe and its flip history (no-op when absent)."""
        self._probes.pop(name, None)
        self._last_status.pop(name, None)

    def check(self) -> Dict[str, object]:
        """Run every probe; return the aggregated report.

        Report shape: ``{"status", "live", "ready", "at", "probes":
        {name: ProbeResult.to_dict()}}``.
        """
        now = self._clock()
        wall = _clock.wall_time()
        self.checks += 1
        results: Dict[str, ProbeResult] = {}
        for name, probe in self._probes.items():
            try:
                result = probe()
            except Exception as exc:  # a broken probe is a dead subsystem
                result = ProbeResult(name, live=False, ready=False,
                                     reason=f"probe raised: {exc!r}")
            results[name] = result
            status = result.status
            previous = self._last_status.get(name)
            if previous != status:
                self._last_status[name] = status
                if previous is not None or status != "ok":
                    transition = Transition(
                        at=wall, elapsed=now, source="probe", name=name,
                        state=status,
                        severity="critical" if status == "dead" else (
                            "warning" if status == "degraded" else "info"),
                        details=dict(result.details),
                    )
                    self.transitions.append(transition)
                    if self.recorder is not None:
                        self.recorder.record_transition(transition)
        if not results:
            overall = "ok"
        elif any(not r.live for r in results.values()):
            overall = "unhealthy"
        elif any(not r.ready for r in results.values()):
            overall = "degraded"
        else:
            overall = "ok"
        return {
            "status": overall,
            "live": all(r.live for r in results.values()),
            "ready": all(r.live and r.ready for r in results.values()),
            "at": wall,
            "probes": {name: r.to_dict() for name, r in results.items()},
        }


# ----------------------------------------------------------------------
# duck-typed probe factories (obs never imports the subsystems)
# ----------------------------------------------------------------------

def gateway_probe(gateway, max_queue_depth: Optional[int] = None,
                  max_shed_rate: Optional[float] = None
                  ) -> Callable[[], ProbeResult]:
    """Serving-gateway probe: always live, ready = queue in bound.

    A constructed gateway owns its model, so nothing it can observe
    makes it structurally dead; an unservable registry is the registry
    probe's verdict.

    ``max_queue_depth`` defaults to four full micro-batches — deep
    enough that the batcher can be mid-drain, shallow enough that a
    stuck flush flips readiness fast.  ``max_shed_rate`` additionally
    fails readiness when the gateway's admission plane is shedding more
    than that fraction of offered traffic (needs a gateway exposing
    ``shed_rate()``; ignored otherwise).  Both reads are lock-consistent
    with concurrent admission.
    """
    if max_queue_depth is None:
        max_queue_depth = 4 * gateway.config.max_batch_size

    def probe() -> ProbeResult:
        depth = gateway.queue_depth()
        reasons = []
        if depth > max_queue_depth:
            reasons.append(
                f"queue depth {depth} exceeds bound {max_queue_depth}")
        details = {"queue_depth": float(depth),
                   "max_queue_depth": float(max_queue_depth)}
        if max_shed_rate is not None:
            shed_rate = float(getattr(gateway, "shed_rate", lambda: 0.0)())
            details["shed_rate"] = shed_rate
            if shed_rate > max_shed_rate:
                reasons.append(
                    f"shed rate {shed_rate:.3f} exceeds {max_shed_rate:.3f}")
        return ProbeResult(
            "gateway", live=True, ready=not reasons,
            reason="; ".join(reasons), details=details,
        )

    return probe


def streaming_probe(store, max_drop_rate: float = 0.05,
                    expected_frontier=None, max_lag_months: int = 1
                    ) -> Callable[[], ProbeResult]:
    """Feature-store probe: watermark lag + drop rate.

    ``expected_frontier`` is the month the frontier *should* have
    reached — an int, a zero-argument callable re-read per check, or
    ``None`` to skip lag checking.  Readiness fails when the frontier
    lags it by more than ``max_lag_months``, or when the lifetime drop
    rate (``ticks_dropped / ticks_offered``) exceeds ``max_drop_rate``.
    """

    def probe() -> ProbeResult:
        report = store.freshness_report()
        frontier = report["frontier"]
        drop_rate = store.drop_rate()
        reasons = []
        if drop_rate > max_drop_rate:
            reasons.append(
                f"drop rate {drop_rate:.3f} exceeds {max_drop_rate:.3f}")
        lag = 0
        if expected_frontier is not None:
            target = expected_frontier() if callable(expected_frontier) \
                else expected_frontier
            lag = max(0, int(target) - int(frontier))
            if lag > max_lag_months:
                reasons.append(
                    f"frontier {frontier} lags expected {target} by {lag} months")
        ready = not reasons
        return ProbeResult(
            "streaming", live=True, ready=ready, reason="; ".join(reasons),
            details={"frontier": float(frontier), "lag_months": float(lag),
                     "drop_rate": drop_rate,
                     "ticks_dropped": float(report["ticks_dropped"])},
        )

    return probe


def online_probe(adapter, max_drifted_shops: Optional[int] = None
                 ) -> Callable[[], ProbeResult]:
    """Online-adapter probe: drift breadth + fine-tune health.

    Readiness fails during a drift storm (more shops drifted than
    ``max_drifted_shops``, default 4x the adaptation trigger) or when
    the last fine-tune diverged (non-finite post-loss).
    """
    if max_drifted_shops is None:
        max_drifted_shops = 4 * adapter.config.min_drifted_shops

    def probe() -> ProbeResult:
        report = adapter.drift_report()
        drifted = report["num_drifted"]
        post_loss = report["last_post_loss"]
        reasons = []
        if drifted > max_drifted_shops:
            reasons.append(
                f"drift storm: {drifted} shops drifted "
                f"(bound {max_drifted_shops})")
        diverged = post_loss is not None and not _is_finite(post_loss)
        if diverged:
            reasons.append(f"last fine-tune diverged (post_loss={post_loss})")
        return ProbeResult(
            "online", live=not diverged, ready=not reasons,
            reason="; ".join(reasons),
            details={"num_drifted": float(drifted),
                     "adaptations": float(report["adaptations"]),
                     "in_cooldown": float(report["in_cooldown"])},
        )

    return probe


def durable_probe(log, checkpointer=None,
                  max_checkpoint_lag_events: int = 8192
                  ) -> Callable[[], ProbeResult]:
    """Durability probe: journal writable + checkpoint recency.

    Live requires the journal open and its directory writable; ready
    additionally bounds how far the log's high-water offset may run
    ahead of the newest checkpoint (a growing gap means recovery
    replay — and therefore time-to-serve — is growing unbounded).
    """

    def probe() -> ProbeResult:
        writable = os.access(str(log.directory), os.W_OK)
        live = (not log.closed) and writable
        reasons = []
        if log.closed:
            reasons.append("journal is closed")
        elif not writable:
            reasons.append(f"journal directory {log.directory} not writable")
        lag = 0
        if checkpointer is not None:
            lag = max(0, log.high_water - 1 - checkpointer.last_offset)
            if lag > max_checkpoint_lag_events:
                reasons.append(
                    f"checkpoint lags log head by {lag} events "
                    f"(bound {max_checkpoint_lag_events})")
        ready = live and not reasons
        return ProbeResult(
            "durable", live=live, ready=ready, reason="; ".join(reasons),
            details={"high_water": float(log.high_water),
                     "checkpoint_lag_events": float(lag),
                     "torn_records_truncated":
                         float(log.torn_records_truncated),
                     "segments_rescanned":
                         float(log.segments_rescanned)},
        )

    return probe


def registry_probe(registry) -> Callable[[], ProbeResult]:
    """Model-registry probe: at least one published version to serve."""

    def probe() -> ProbeResult:
        health = registry.health()
        live = health["num_versions"] > 0
        return ProbeResult(
            "registry", live=live, ready=live,
            reason="" if live else "no model versions published",
            details={"num_versions": float(health["num_versions"]),
                     "latest_version": float(health["latest_version"])},
        )

    return probe


def _is_finite(value: float) -> bool:
    return value == value and value not in (float("inf"), float("-inf"))
