"""Admission-plane tests: deadline scheduling, priority shedding, replay.

Three layers, all tier-1 (``-m admission``):

* unit coverage of the :class:`~repro.serving.batching.MicroBatcher`
  schedule (EDF within strict priority, degenerating to arrival order
  for streams that set neither), the bounded-queue verdicts
  (admit / preempt / shed / expire), the shed response contract, the
  one-path contract (``admission=False`` is the same route with an
  unbounded queue and no default budget), request conservation under
  a raising forward and the hub/SLO export of shed rate;
* the three **properties** from the issue, via the ``forall`` harness:
  (a) an admitted request is never served past its deadline without
  being counted shed, (b) the high-priority class is never refused at
  the door while lower-priority traffic holds queue slots, (c) the full
  admission decision log is bitwise deterministic under ``FakeClock``
  replay of one arrival sequence;
* the **thread-safety regression**: ``queue_depth()`` / the gateway
  health probe racing concurrent admission — the old slice-then-
  reassign drain lost concurrently submitted requests, pinned here with
  a multi-thread conservation test (same pattern as the engine-stats
  race test).

Model forwards are stubbed to zeros: these tests exercise the traffic
plane, not the numerics (the equivalence suites own those), which keeps
hundreds of simulated scenario replays inside the tier-1 budget.
"""

import sys
import threading
from dataclasses import dataclass
from typing import Tuple

import numpy as np
import pytest

from helpers import forall
from repro.data import MarketplaceConfig, build_dataset, build_marketplace
from repro.nn.module import Module
from repro.nn.tensor import Tensor
from repro.obs.clock import FakeClock
from repro.obs.health import gateway_probe
from repro.obs.hub import MetricsHub
from repro.obs.slo import SLO, BurnWindow, SLOEngine
from repro.serving import (
    GatewayConfig,
    MicroBatcher,
    ServiceTimeModel,
    ServingGateway,
    TimedRequest,
    admission_report,
    priority_rank,
    replay_timed,
)

pytestmark = pytest.mark.admission

NUM_SHOPS = 30


@pytest.fixture(scope="module")
def dataset():
    market = build_marketplace(MarketplaceConfig(num_shops=NUM_SHOPS, seed=11))
    return build_dataset(market, train_fraction=0.6, val_fraction=0.2)


class _StubModel(Module):
    """Zero-forecast model: the traffic plane under test never needs
    real numerics, and a trivial forward keeps scenario replays fast."""

    def forward(self, batch, graph):
        return Tensor(np.zeros((batch.num_shops, batch.horizon)))


def make_gateway(dataset, clock, **kwargs):
    defaults = dict(admission=True, max_batch_size=4, max_wait=10.0,
                    max_queue_depth=8, default_deadline_s=0.05)
    defaults.update(kwargs)
    return ServingGateway(_StubModel, dataset,
                          config=GatewayConfig(**defaults), clock=clock.now)


# ----------------------------------------------------------------------
# MicroBatcher scheduling (deadline + priority) unit coverage
# ----------------------------------------------------------------------
class TestDeadlineBatcher:
    def test_drain_is_edf_within_strict_priority(self):
        batcher = MicroBatcher(max_batch_size=8, clock=lambda: 0.0)
        batcher.submit(0, priority="low", deadline=1.0)
        batcher.submit(1, priority="normal", deadline=9.0)
        batcher.submit(2, priority="high", deadline=7.0)
        batcher.submit(3, priority="normal", deadline=2.0)
        batcher.submit(4, priority="high", deadline=3.0)
        order = [r.shop_index for r in batcher.drain()]
        assert order == [4, 2, 3, 1, 0]

    def test_default_class_monotone_deadlines_drain_in_arrival_order(self):
        # The FIFO contract bulk callers rely on: on the default class,
        # with deadlines that never decrease (or none at all), the EDF
        # key is arrival order — across interleaved partial drains too.
        def gen(rng):
            n = int(rng.integers(1, 60))
            deadlines = np.cumsum(rng.exponential(1.0, size=n))
            deadlines[int(rng.integers(0, n + 1)):] = np.inf
            drain_after = rng.uniform(size=n) < 0.15
            return int(rng.integers(1, 9)), deadlines, drain_after

        def prop(case):
            max_batch_size, deadlines, drain_after = case
            batcher = MicroBatcher(max_batch_size=max_batch_size,
                                   max_wait=10.0, clock=lambda: 0.0)
            batches = []
            for shop, (deadline, drain) in enumerate(
                    zip(deadlines, drain_after)):
                batcher.submit(shop, deadline=deadline)
                if drain:
                    batches.append((len(batcher), batcher.drain()))
            while len(batcher):
                batches.append((len(batcher), batcher.drain()))
            for parked, batch in batches:
                assert len(batch) == min(parked, max_batch_size)
            order = [r.shop_index for _, batch in batches for r in batch]
            assert order == list(range(len(deadlines)))

        forall(gen, prop, trials=100, seed=5, name="FIFO on defaults")

    def test_due_flushes_early_when_deadline_at_risk(self):
        now = [0.0]
        batcher = MicroBatcher(max_batch_size=100, max_wait=10.0,
                                  clock=lambda: now[0])
        batcher.observe_service(0.03)
        batcher.submit(0, deadline=1.0)
        assert not batcher.due()          # 1.0s of slack vs 0.03s EWMA
        now[0] = 0.98
        assert batcher.due()              # 0.02s slack < one service time
        # The occupancy timer still works independently of deadlines.
        drained = batcher.drain()
        assert len(drained) == 1
        batcher.submit(1)                 # no deadline at all
        assert not batcher.due()
        now[0] = 11.0
        assert batcher.due()

    def test_service_ewma_seeds_then_smooths(self):
        batcher = MicroBatcher(clock=lambda: 0.0, service_alpha=0.5)
        batcher.observe_service(0.1)
        assert batcher.service_time_ewma == pytest.approx(0.1)
        batcher.observe_service(0.2)
        assert batcher.service_time_ewma == pytest.approx(0.15)

    def test_shed_candidate_picks_strictly_lower_worst(self):
        batcher = MicroBatcher(max_batch_size=8, clock=lambda: 0.0)
        batcher.submit(0, priority="normal", deadline=1.0)
        batcher.submit(1, priority="low", deadline=2.0)
        batcher.submit(2, priority="low", deadline=8.0)
        victim = batcher.shed_candidate("high")
        assert (victim.shop_index, victim.priority) == (2, "low")
        assert batcher.shed_candidate("low") is None
        # Equal class never preempts itself.
        batcher.drain()
        batcher.submit(3, priority="normal")
        assert batcher.shed_candidate("normal") is None

    def test_remove_reports_raced_requests(self):
        batcher = MicroBatcher(max_batch_size=8, clock=lambda: 0.0)
        request, _ = batcher.submit(0, priority="low")
        assert batcher.remove(request) is True
        request, _ = batcher.submit(1, priority="low")
        batcher.drain()                   # request raced into a drain
        assert batcher.remove(request) is False

    def test_unknown_priority_rejected(self):
        with pytest.raises(ValueError, match="unknown priority"):
            priority_rank("urgent")


# ----------------------------------------------------------------------
# gateway admission semantics
# ----------------------------------------------------------------------
class TestGatewayAdmission:
    def test_unbounded_gateway_runs_the_same_scheduler(self, dataset):
        # admission=False is the one path with an unbounded queue and no
        # default budget: hours may pass and nothing expires or sheds,
        # while per-request priority / deadline_s are still honoured.
        clock = FakeClock()
        gateway = ServingGateway(
            _StubModel, dataset,
            config=GatewayConfig(max_batch_size=2, max_wait=10.0),
            clock=clock.now)
        try:
            parked = [gateway.submit(shop) for shop in range(20)]
            assert gateway.queue_depth() == 20    # nothing refused
            clock.advance(3 * 3600.0)
            gateway.flush()
            assert not any(r.result().shed for r in parked)
            assert gateway.metrics.counter("requests_shed") == 0.0
            assert gateway.metrics.counter("requests_expired") == 0.0

            normal = [gateway.submit(shop) for shop in range(3)]
            high = gateway.submit(9, priority="high")
            assert gateway.pump()                 # one batch of two
            assert [r.done for r in normal] == [True, False, False]
            assert high.done and high.result().priority == "high"

            doomed = gateway.submit(5, deadline_s=0.05)
            clock.advance(0.2)
            gateway.flush()
            assert doomed.result().shed
            assert gateway.metrics.counter("requests_expired") == 1.0
            assert not any(r.result().shed for r in normal)

            block = gateway.metrics_report()["admission"]
            assert block["enabled"] is False
            assert block["max_queue_depth"] == float("inf")
            assert block["default_deadline_s"] == float("inf")
        finally:
            gateway.close()

    def test_predict_many_never_sheds_its_own_tail(self, dataset):
        # A bulk call pumps as it goes, so it never parks more than one
        # batch — far below the bound it used to overflow.
        clock = FakeClock()
        gateway = make_gateway(dataset, clock, max_batch_size=4,
                               max_queue_depth=8)
        try:
            responses = gateway.predict_many(
                np.arange(3 * NUM_SHOPS) % NUM_SHOPS)
            assert not any(r.shed for r in responses)
            assert gateway.metrics.counter("requests_shed") == 0.0
            assert max(d.queue_depth
                       for d in gateway.admission.decisions) <= 4
        finally:
            gateway.close()

    def test_config_validation(self):
        with pytest.raises(ValueError, match="max_queue_depth"):
            GatewayConfig(admission=True, max_batch_size=8,
                          max_queue_depth=4).validate()
        with pytest.raises(ValueError, match="default_deadline_s"):
            GatewayConfig(default_deadline_s=0.0).validate()

    def test_queue_full_sheds_newcomer_with_retry_after(self, dataset):
        clock = FakeClock()
        gateway = make_gateway(dataset, clock, max_batch_size=4,
                               max_queue_depth=4)
        try:
            # Fill the bounded queue with high-priority traffic so the
            # low newcomer has nothing to preempt (nothing is due under
            # the forever max_wait, so arrivals park instead of
            # pumping).
            for shop in range(4):
                request = gateway.submit(shop, priority="high")
                assert not request.done
            assert gateway.queue_depth() == 4
            shed = gateway.submit(9, priority="low")
            assert shed.done
            response = shed.result()
            assert response.shed and response.priority == "low"
            assert response.retry_after_s == pytest.approx(0.04)  # 2x @ full
            assert not response.forecast.flags.writeable
            assert np.all(response.forecast == 0.0)
            assert response.subgraph_nodes == 0
            decision = gateway.admission.decisions[-1]
            assert decision.action == "shed_incoming"
            assert decision.reason == "queue_full"
            assert decision.lower_priority_available is False
            assert gateway.shed_rate() == pytest.approx(0.2)
        finally:
            gateway.close()

    def test_full_queue_preempts_lower_priority_victim(self, dataset):
        clock = FakeClock()
        gateway = make_gateway(dataset, clock, max_batch_size=4,
                               max_queue_depth=4)
        try:
            victims = [gateway.submit(shop, priority="low")
                       for shop in range(4)]
            admitted = gateway.submit(9, priority="high")
            assert not admitted.done
            assert gateway.queue_depth() == 4     # still at the bound
            shed = [v for v in victims if v.done]
            assert len(shed) == 1
            response = shed[0].result()
            assert response.shed and response.priority == "low"
            decision = gateway.admission.decisions[-2]
            assert decision.action == "shed_parked"
            assert decision.victim_priority == "low"
            assert gateway.admission.decisions[-1].action == "admit"
            gateway.flush()
            assert not admitted.result().shed
        finally:
            gateway.close()

    def test_expired_request_is_shed_not_served_late(self, dataset):
        clock = FakeClock()
        gateway = make_gateway(dataset, clock, default_deadline_s=0.05)
        try:
            request = gateway.submit(0, deadline_s=0.05)
            clock.advance(0.2)            # budget long gone
            gateway.flush()
            response = request.result()
            assert response.shed
            assert gateway.metrics.counter("requests_expired") == 1.0
            assert gateway.admission.decisions[-1].action == "expire"
        finally:
            gateway.close()

    def test_slow_batch_landing_past_deadline_counts_shed(self, dataset):
        clock = FakeClock()
        gateway = make_gateway(dataset, clock, default_deadline_s=0.05)
        try:
            gateway.model = ServiceTimeModel(
                gateway.model, clock, per_forward_s=0.2)
            request = gateway.submit(0, deadline_s=0.05)
            gateway.flush()               # forward costs 0.2s simulated
            assert request.result().shed
            assert gateway.metrics.counter("requests_expired") == 1.0
            # The measured service time fed the deadline-risk EWMA.
            assert gateway.batcher.service_time_ewma >= 0.2
        finally:
            gateway.close()

    def test_metrics_report_admission_block(self, dataset):
        clock = FakeClock()
        gateway = make_gateway(dataset, clock)
        try:
            gateway.predict_many(range(6), priority="normal")
            block = gateway.metrics_report()["admission"]
            assert block["enabled"] is True
            assert block["requests_admitted"] == 6.0
            assert block["requests_shed"] == 0.0
            assert block["queue_depth"] == 0
            assert set(block["requests_shed_by_class"]) \
                == {"high", "normal", "low"}
            assert block["service_time_ewma_s"] >= 0.0
            assert block["decisions_logged"] == 6
        finally:
            gateway.close()

    def test_probe_flips_on_shed_rate(self, dataset):
        clock = FakeClock()
        gateway = make_gateway(dataset, clock, max_batch_size=1,
                               max_queue_depth=1)
        try:
            gateway.submit(0, priority="high")
            for shop in range(1, 4):
                gateway.submit(shop, priority="high")   # all shed at door
            probe = gateway_probe(gateway, max_queue_depth=100,
                                  max_shed_rate=0.5)
            result = probe()
            assert result.live and not result.ready
            assert "shed rate" in result.reason
            assert result.details["shed_rate"] == pytest.approx(0.75)
            lenient = gateway_probe(gateway, max_queue_depth=100,
                                    max_shed_rate=0.9)()
            assert lenient.ready
        finally:
            gateway.close()

    def test_shed_rate_slo_over_the_hub(self, dataset):
        # The issue's export path: registry counters federate into the
        # hub, an SLO declares a bound over Δshed/Δtotal, and sustained
        # overload fires its burn-rate alert.
        clock = FakeClock()
        gateway = make_gateway(dataset, clock, max_batch_size=4,
                               max_queue_depth=4)
        hub = MetricsHub()
        hub.attach_registry(gateway.metrics, namespace="serving")
        engine = SLOEngine(
            hub,
            windows=(BurnWindow(name="fast", long_seconds=60.0,
                                short_seconds=10.0, factor=1.0),),
            clock=clock.now)
        engine.add(SLO(name="shed-rate", series="serving.requests_shed",
                       total_series="serving.requests_total",
                       objective=0.1, target=0.9))
        try:
            fired = False
            for round_index in range(6):
                # 4 park (filling the bound), the rest shed at the door;
                # parked requests expire unserved on the next advance, so
                # Δshed/Δtotal stays far above the 0.1 objective.
                for shop in range(8):
                    gateway.submit(shop, priority="normal")
                clock.advance(2.0)
                engine.evaluate()
                if engine.active_alerts():
                    fired = True
                    break
            assert fired, "sustained shedding never fired the burn alert"
            assert any(name.startswith("shed-rate:")
                       for name in engine.active_alerts())
        finally:
            gateway.close()


# ----------------------------------------------------------------------
# request conservation under a raising forward
# ----------------------------------------------------------------------
class _RaisingModel(_StubModel):
    """Raises on its first ``failures`` forwards, serves zeros after."""

    def __init__(self, failures):
        super().__init__()
        self.failures = failures

    def forward(self, batch, graph):
        if self.failures > 0:
            self.failures -= 1
            raise RuntimeError("model fell over mid-batch")
        return super().forward(batch, graph)


class TestRequestConservation:
    def test_raising_forward_fails_its_batch_only(self, dataset):
        # The first batch's forward raises: its requests fail (result()
        # re-raises the original error) and the next batch is still
        # served — submitted == served + shed + failed.
        clock = FakeClock()
        gateway = make_gateway(dataset, clock, max_batch_size=8,
                               max_queue_depth=64)
        try:
            gateway.model = _RaisingModel(failures=1)
            shops = list(range(16))
            requests = [gateway.submit(shop) for shop in shops]
            gateway.flush()
            assert all(r.done for r in requests)
            for request in requests[:8]:
                with pytest.raises(RuntimeError, match="fell over"):
                    request.result()
            served = [r.result() for r in requests[8:]]
            assert not any(response.shed for response in served)
            counter = gateway.metrics.counter
            assert counter("requests_failed") == 8
            assert counter("batches_total") == 1
            assert len(requests) == (len(served) + counter("requests_shed")
                                     + counter("requests_failed"))
            gateway.model = _RaisingModel(failures=sys.maxsize)
            gateway.notify_graph_changed()      # nothing answers from cache
            with pytest.raises(RuntimeError, match="fell over"):
                gateway.predict_many(shops)
            assert gateway.queue_depth() == 0
        finally:
            gateway.close()

    def test_rejected_submits_are_not_offered_requests(self, dataset):
        # A submit that raises on a bad argument admitted, shed and
        # failed nothing, so it must not move requests_total — the
        # denominator of shed_rate() and of any shed-rate SLO.
        clock = FakeClock()
        gateway = make_gateway(dataset, clock, max_batch_size=4,
                               max_queue_depth=4)
        try:
            # An infinite budget stays legal: it is what admission=False
            # resolves a missing deadline to.
            gateway.submit(0, priority="high", deadline_s=float("inf"))
            for shop in range(1, 4):
                gateway.submit(shop, priority="high")
            assert gateway.submit(9, priority="low").result().shed
            with pytest.raises(ValueError, match="priority"):
                gateway.submit(1, priority="urgent")
            for budget in (-1.0, 0.0, float("nan")):
                with pytest.raises(ValueError, match="deadline_s"):
                    gateway.submit(1, deadline_s=budget)
            counter = gateway.metrics.counter
            assert gateway.queue_depth() == 4       # nothing rejected parked
            assert counter("requests_admitted") == 4
            assert counter("requests_shed") == 1    # at the door
            assert counter("requests_total") == \
                counter("requests_admitted") + counter("requests_shed")
            assert gateway.shed_rate() == pytest.approx(1 / 5)
        finally:
            gateway.close()


# ----------------------------------------------------------------------
# the issue's three properties
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Scenario:
    """One generated arrival sequence + simulated service cost."""

    requests: Tuple[TimedRequest, ...]
    per_forward_s: float

    def __repr__(self) -> str:  # keep forall failure reports readable
        return (f"_Scenario(n={len(self.requests)}, "
                f"per_forward_s={self.per_forward_s}, "
                f"requests={self.requests!r})")


def _gen_scenario(rng) -> _Scenario:
    n = int(rng.integers(1, 36))
    arrivals = np.cumsum(rng.exponential(0.004, size=n))
    shops = rng.integers(0, NUM_SHOPS, size=n)
    classes = ("high", "normal", "low")
    picks = rng.integers(0, 3, size=n)
    budgets = rng.choice([0.005, 0.02, 0.08, 0.5], size=n)
    requests = tuple(
        TimedRequest(arrival_s=float(a), shop=int(s),
                     priority=classes[int(p)], deadline_s=float(b))
        for a, s, p, b in zip(arrivals, shops, picks, budgets)
    )
    per_forward = float(rng.choice([0.0, 0.001, 0.01, 0.05]))
    return _Scenario(requests=requests, per_forward_s=per_forward)


def _run_scenario(dataset, scenario: _Scenario):
    clock = FakeClock()
    gateway = make_gateway(dataset, clock, max_batch_size=4,
                           max_queue_depth=6, max_wait=0.02)
    try:
        gateway.model = ServiceTimeModel(
            gateway.model, clock, per_forward_s=scenario.per_forward_s)
        responses = replay_timed(gateway, scenario.requests, clock)
        return responses, gateway.admission.decision_log()
    finally:
        gateway.close()


class TestAdmissionProperties:
    def test_never_served_past_deadline_unless_counted_shed(self, dataset):
        # Property (a): a non-shed response resolved within its budget;
        # everything past budget is shed (and therefore counted).
        def prop(scenario):
            responses, _ = _run_scenario(dataset, scenario)
            for request, response in zip(scenario.requests, responses):
                if response.shed:
                    continue
                assert response.latency_seconds <= request.deadline_s + 1e-9, (
                    f"request {request} served {response.latency_seconds}s "
                    f"after arrival, past its {request.deadline_s}s budget, "
                    "without being counted shed"
                )

        forall(_gen_scenario, prop, trials=25, seed=2,
               name="no late serve without shed")

    def test_high_priority_never_starved_by_lower_traffic(self, dataset):
        # Property (b): the door never refuses a high request while a
        # strictly lower class holds a queue slot (it preempts instead),
        # and preemption never victimises an equal-or-higher class.
        def prop(scenario):
            _, decisions = _run_scenario(dataset, scenario)
            for decision in decisions:
                if decision["action"] == "shed_incoming":
                    assert not decision["lower_priority_available"], (
                        f"{decision['priority']} request shed at the door "
                        "while lower-priority traffic was parked"
                    )
                if decision["action"] == "shed_parked":
                    assert priority_rank(decision["victim_priority"]) \
                        > priority_rank(decision["priority"]), (
                        "preemption victimised an equal-or-higher class: "
                        f"{decision}"
                    )

        forall(_gen_scenario, prop, trials=25, seed=3,
               name="no high-priority starvation")

    def test_decisions_deterministic_under_fakeclock_replay(self, dataset):
        # Property (c): same arrival sequence, fresh gateway + FakeClock
        # => bitwise-identical decision log and responses.
        def prop(scenario):
            responses_a, log_a = _run_scenario(dataset, scenario)
            responses_b, log_b = _run_scenario(dataset, scenario)
            assert log_a == log_b, "admission decision logs diverged"
            fields = ("shop_index", "shed", "retry_after_s", "priority",
                      "latency_seconds", "batch_size", "subgraph_nodes")
            for a, b in zip(responses_a, responses_b):
                for field_name in fields:
                    assert getattr(a, field_name) == getattr(b, field_name), (
                        f"response field {field_name} diverged: "
                        f"{getattr(a, field_name)} != {getattr(b, field_name)}"
                    )

        forall(_gen_scenario, prop, trials=15, seed=4,
               name="deterministic admission replay")


# ----------------------------------------------------------------------
# thread-safety regression: queue_depth / probe vs concurrent admission
# ----------------------------------------------------------------------
class TestQueueThreadSafety:
    """The gateway health probe reads ``queue_depth()`` while admission
    threads submit and the flush path drains.  The old drain
    (``batch = pending[:n]; pending = pending[n:]``) lost any request
    appended between the two statements; these tests force that
    interleaving and pin the lock-serialized behaviour."""

    def test_drain_never_loses_concurrent_submissions(self):
        batcher = MicroBatcher(max_batch_size=8, max_wait=0.0,
                               clock=lambda: 0.0)
        threads, per_thread = 4, 800
        drained = []
        stop = threading.Event()

        def submitter():
            for shop in range(per_thread):
                batcher.submit(shop)

        def drainer():
            while not stop.is_set() or len(batcher):
                drained.extend(batcher.drain())

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=submitter)
                    for _ in range(threads)]
            drain_thread = threading.Thread(target=drainer)
            drain_thread.start()
            for t in pool:
                t.start()
            for t in pool:
                t.join()
            stop.set()
            drain_thread.join()
        finally:
            sys.setswitchinterval(previous)
        assert len(drained) == threads * per_thread
        assert len(batcher) == 0
        # Every admitted seq came back exactly once: nothing lost,
        # nothing duplicated.
        seqs = [r.seq for r in drained]
        assert len(set(seqs)) == len(seqs)

    def test_queue_depth_and_probe_race_concurrent_admission(self, dataset):
        clock = FakeClock()
        gateway = make_gateway(dataset, clock, max_batch_size=8,
                               max_queue_depth=10_000)
        probe = gateway_probe(gateway, max_queue_depth=10**9,
                              max_shed_rate=1.0)
        threads, per_thread = 4, 500
        served = []

        def submitter():
            for shop in range(per_thread):
                # Park directly in the batcher: this race targets the
                # queue data structure, not the model forward.
                gateway.batcher.submit(shop % NUM_SHOPS)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=submitter)
                    for _ in range(threads)]
            for t in pool:
                t.start()
            # Interleave reads and drains with the submitters.
            while any(t.is_alive() for t in pool):
                depth = gateway.queue_depth()
                assert depth >= 0
                result = probe()
                assert result.live
                served.extend(gateway.batcher.drain())
            for t in pool:
                t.join()
        finally:
            sys.setswitchinterval(previous)
        while len(gateway.batcher):
            served.extend(gateway.batcher.drain())
        try:
            assert len(served) == threads * per_thread
            assert gateway.queue_depth() == 0
        finally:
            gateway.close()


# ----------------------------------------------------------------------
# reporting helpers
# ----------------------------------------------------------------------
class TestAdmissionReport:
    def test_per_class_summary(self, dataset):
        clock = FakeClock()
        gateway = make_gateway(dataset, clock, max_batch_size=2,
                               max_queue_depth=2)
        try:
            parked = [gateway.submit(shop, priority="high")
                      for shop in range(2)]
            refused = gateway.submit(5, priority="low")
            gateway.flush()
            responses = [r.result() for r in parked + [refused]]
            report = admission_report(responses)
            assert report["offered"] == 3
            assert report["shed"] == 1
            assert report["shed_fraction"] == pytest.approx(1 / 3)
            assert report["classes"]["high"]["served"] == 2
            assert report["classes"]["high"]["shed"] == 0
            assert report["classes"]["low"]["shed"] == 1
            assert report["classes"]["low"]["latency_p95_s"] == 0.0
            assert report["classes"]["high"]["latency_p95_s"] >= 0.0
        finally:
            gateway.close()
