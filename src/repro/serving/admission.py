"""Admission control: queue bounds, deadline budgets, load shedding.

The gateway's traffic-engineering layer.  Micro-batching alone never
says *no*: under a sustained overload the queue grows without bound and
every latency percentile follows it.  This module gives the
:class:`~repro.serving.gateway.ServingGateway` its actuators:

* :class:`AdmissionController` — the queue policy every request passes.
  It holds the two values ``GatewayConfig.admission`` resolves to — the
  queue bound (``max_queue_depth``, or ``inf``) and the default
  deadline budget (``default_deadline_s``, or ``inf``) — and the
  decision log.  Every offered request is judged at the door: admitted
  (parked with a deadline and priority class), or **shed** with
  explicit retry-after semantics (``GatewayResponse.shed`` /
  ``retry_after_s``).  When the queue is full the gateway preempts the
  *worst* parked request strictly below the newcomer's class
  (:meth:`~repro.serving.batching.MicroBatcher.shed_candidate`), so the
  high-priority class is never starved while lower traffic holds queue
  slots; a newcomer is only turned away when nothing parked is below
  it.  Every decision is appended to a bounded
  :attr:`~AdmissionController.decisions` log — a pure function of the
  arrival sequence and the gateway's injectable clock, so replays under
  a :class:`~repro.obs.clock.FakeClock` are bitwise identical
  (property-tested in ``tests/test_admission.py``).
* :func:`admission_report` — per-priority-class outcome summary
  (offered / served / shed / p95 latency) over a batch of gateway
  responses, shared by the fault-injection benchmarks and the example.

Shed semantics: a shed request still *resolves* — its
:class:`~repro.serving.gateway.GatewayResponse` carries ``shed=True``,
an empty forecast, and a deterministic pressure-scaled
``retry_after_s`` hint — so callers never hang and never need
exception paths for overload.  Expiry is shedding too: a request whose
deadline passes while parked (or whose batch lands past the budget) is
counted shed with reason ``"expired"``, never silently served late.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence

from .batching import PRIORITIES, PendingRequest
from .metrics import percentile_summary

__all__ = [
    "AdmissionDecision",
    "AdmissionController",
    "admission_report",
]


@dataclass(frozen=True, slots=True)
class AdmissionDecision:
    """One admission verdict, recorded for replay/audit.

    ``action`` is ``"admit"``, ``"shed_incoming"`` (queue full, nothing
    parked below the newcomer's class), ``"shed_parked"`` (queue full,
    a lower-class victim was preempted to admit the newcomer) or
    ``"expire"`` (a parked request's deadline passed before service).
    ``lower_priority_available`` records whether a strictly lower class
    was parked at decision time — the starvation-freedom witness: a
    ``shed_incoming`` of a high request with this flag set would be a
    policy bug, and the property suite asserts it never happens.
    """

    seq: int
    at: float
    action: str
    priority: str
    queue_depth: int
    reason: str = ""
    victim_priority: str = ""
    victim_seq: int = -1
    lower_priority_available: bool = False
    retry_after_s: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form for diagnostic bundles and benchmarks."""
        return {name: getattr(self, name) for name in self.__slots__}


class AdmissionController:
    """Queue-bound policy and decision log for one gateway.

    Pure policy: the controller holds the bound and the default budget,
    computes retry hints and logs; the gateway owns the queue and the
    clock, resolves shed responses and accounts metrics.  Decisions are
    stamped with the clock reading the gateway took for the request
    (``at``), making the full decision log deterministic under a
    :class:`~repro.obs.clock.FakeClock`.  ``max_queue_depth`` and
    ``default_deadline_s`` may be ``inf``: a queue that never refuses
    and requests that never expire.  ``shed_retry_after_s`` is the base
    client back-off hint on shed responses
    (``GatewayResponse.retry_after_s``), scaled by :meth:`retry_after`.
    """

    def __init__(self, max_queue_depth: float, default_deadline_s: float,
                 shed_retry_after_s: float = 0.02,
                 max_decisions: int = 8192) -> None:
        if max_queue_depth <= 0:
            raise ValueError(
                f"max_queue_depth must be positive, got {max_queue_depth}"
            )
        if default_deadline_s <= 0:
            raise ValueError(
                f"default_deadline_s must be positive, got {default_deadline_s}"
            )
        if shed_retry_after_s < 0:
            raise ValueError(
                f"shed_retry_after_s must be non-negative, "
                f"got {shed_retry_after_s}"
            )
        self.max_queue_depth = max_queue_depth
        self.default_deadline_s = float(default_deadline_s)
        self.shed_retry_after_s = float(shed_retry_after_s)
        #: Bounded decision log, oldest first.
        self.decisions: Deque[AdmissionDecision] = deque(
            maxlen=int(max_decisions))
        self._decision_seq = 0

    def retry_after(self, queue_depth: int) -> float:
        """Deterministic pressure-scaled retry hint for a shed response.

        The base hint doubles at a full queue: clients backing off
        proportionally to the pressure they observed spreads the retry
        wave instead of synchronizing it.

        >>> controller = AdmissionController(8, 0.05, 0.02)
        >>> controller.retry_after(0), controller.retry_after(8)
        (0.02, 0.04)
        """
        pressure = min(max(queue_depth, 0) / self.max_queue_depth, 1.0)
        return self.shed_retry_after_s * (1.0 + pressure)

    def record(self, action: str, priority: str, queue_depth: int, at: float,
               reason: str = "", victim: Optional[PendingRequest] = None,
               lower_priority_available: bool = False,
               retry_after_s: float = 0.0) -> None:
        """Append one decision, stamped ``at``, to the log."""
        self.decisions.append(AdmissionDecision(
            seq=self._decision_seq,
            at=at,
            action=action,
            priority=priority,
            queue_depth=queue_depth,
            reason=reason,
            victim_priority=victim.priority if victim is not None else "",
            victim_seq=victim.seq if victim is not None else -1,
            lower_priority_available=lower_priority_available,
            retry_after_s=retry_after_s,
        ))
        self._decision_seq += 1

    def decision_log(self) -> List[Dict[str, object]]:
        """The retained decisions as plain dicts (replay comparison)."""
        return [decision.to_dict() for decision in self.decisions]


def admission_report(responses: Sequence) -> Dict[str, object]:
    """Per-priority-class outcome summary over gateway responses.

    Shed responses (``shed=True``) count toward ``offered`` and
    ``shed``; latency percentiles cover *served* requests only — the
    promise the deadline budget is declared over.
    """
    classes: Dict[str, Dict[str, object]] = {}
    for name in PRIORITIES:
        classes[name] = {"offered": 0, "served": 0, "shed": 0}
    latencies: Dict[str, List[float]] = {name: [] for name in PRIORITIES}
    for response in responses:
        name = getattr(response, "priority", "normal")
        row = classes.setdefault(name, {"offered": 0, "served": 0, "shed": 0})
        row["offered"] += 1
        if getattr(response, "shed", False):
            row["shed"] += 1
        else:
            row["served"] += 1
            latencies.setdefault(name, []).append(
                float(response.latency_seconds))
    total_offered = sum(row["offered"] for row in classes.values())
    total_shed = sum(row["shed"] for row in classes.values())
    for name, row in classes.items():
        served = latencies.get(name, [])
        row["shed_fraction"] = (row["shed"] / row["offered"]
                                if row["offered"] else 0.0)
        summary = percentile_summary(served, (50, 95))
        row["latency_p50_s"] = summary["p50"]
        row["latency_p95_s"] = summary["p95"]
        row["latency_max_s"] = max(served, default=0.0)
    return {
        "offered": total_offered,
        "shed": total_shed,
        "shed_fraction": total_shed / total_offered if total_offered else 0.0,
        "classes": classes,
    }
