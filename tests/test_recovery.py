"""Durable log + crash recovery (``repro.streaming.durable``).

The load-bearing property is **kill-and-recover equivalence**: crash
the process between *any* two events, recover from the newest reachable
checkpoint plus the journal tail, and every consumer — DynamicGraph
compacted CSR, feature-store tables and ``ticked`` evidence, adapter
EWMAs and adaptation history — must be array-for-array identical to a
process that never died.  Around that core sit the journal's
crash-consistency mechanics (torn-tail truncation, CRC rejection of
real corruption, seal/rotate, streaming ``since``) and the checkpoint
integrity story (atomic writes, SHA-256 verification,
newest-reachable selection).
"""

import hashlib
import itertools
import json
import shutil

import numpy as np
import pytest

from repro.core import Gaia, GaiaConfig
from repro.data import MarketplaceConfig, build_dataset, build_marketplace
from repro.deploy import ModelRegistry
from repro.obs import FlightRecorder, online_probe, use_recorder
from repro.serving import GatewayConfig, ServingGateway
from repro.streaming import (
    DynamicGraph,
    EdgeAdded,
    EdgeRetired,
    EventLog,
    MarketplaceSimulator,
    SalesTick,
    ShopAdded,
    StreamingFeatureStore,
)
from repro.streaming.durable import log as durable_log
from repro.streaming.durable import (
    Checkpoint,
    CheckpointError,
    Checkpointer,
    DurableEventLog,
    LogCorruptionError,
    decode_event,
    encode_event,
    latest_checkpoint,
    load_checkpoint,
    recover,
    write_checkpoint,
)
from repro.training import OnlineAdapter, OnlineAdapterConfig
from repro.training.online import AdaptationReport

from helpers import forall, random_eseller_graph

pytestmark = pytest.mark.recovery

TRIALS = 8


# ----------------------------------------------------------------------
# shared fixtures: the small streaming world (mirrors test_streaming)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def market():
    return build_marketplace(MarketplaceConfig(num_shops=50, seed=23))


@pytest.fixture(scope="module")
def dataset(market):
    return build_dataset(market, train_fraction=0.6, val_fraction=0.2)


@pytest.fixture(scope="module")
def factory(dataset):
    config = GaiaConfig(
        input_window=dataset.input_window,
        horizon=dataset.horizon,
        temporal_dim=dataset.temporal_dim,
        static_dim=dataset.static_dim,
        channels=8,
        num_scales=2,
        num_layers=1,
    )
    return lambda: Gaia(config, seed=0)


@pytest.fixture(scope="module")
def registry(factory):
    registry = ModelRegistry()
    registry.publish(factory(), trained_at_month=28)
    return registry


@pytest.fixture(scope="module")
def simulator(market):
    return MarketplaceSimulator(market, start_month=22,
                                edge_churn_per_month=2, seed=5)


def some_events():
    """A small fixed mix of every event kind (float-heavy ticks)."""
    return [
        ShopAdded(month=0, shop_index=0, industry="ind_a", region="reg_b"),
        ShopAdded(month=0, shop_index=1),
        EdgeAdded(month=1, src=0, dst=1, edge_type=1),
        SalesTick(month=1, shop_index=0, gmv=0.1 + 0.2, orders=3,
                  customers=2),
        SalesTick(month=2, shop_index=1, gmv=1e-17, orders=0, customers=0),
        EdgeRetired(month=2, src=0, dst=1, edge_type=1),
        SalesTick(month=1, shop_index=1, gmv=-7.25, orders=1, customers=1),
    ]


#: A CRC-valid tick from a build that knows one more field than this one.
NEWER_BUILD_TICK = ('{"coupon":3,"customers":0,"gmv":1.0,"kind":"SalesTick",'
                    '"month":1,"orders":0,"shop_index":0}')


# ----------------------------------------------------------------------
# durable log mechanics
# ----------------------------------------------------------------------
class TestDurableLog:
    def test_codec_round_trips_every_kind_bitwise(self):
        for event in some_events():
            back = decode_event(encode_event(event))
            assert back == event
            assert type(back) is type(event)
            if isinstance(event, SalesTick):
                # json emits repr-shortest floats: exact round trip.
                assert np.float64(back.gmv).tobytes() \
                    == np.float64(event.gmv).tobytes()

    def test_codec_rejects_unknown_kind(self):
        with pytest.raises(LogCorruptionError, match="unknown event kind"):
            decode_event(json.dumps({"kind": "Mystery", "month": 0}))

    def test_codec_rejects_payloads_that_are_not_events(self):
        with pytest.raises(LogCorruptionError, match="not an object"):
            decode_event("[1,2]")
        with pytest.raises(LogCorruptionError, match="SalesTick.*'coupon'"):
            decode_event(NEWER_BUILD_TICK)
        with pytest.raises(LogCorruptionError, match="SalesTick.*'month'"):
            decode_event('{"kind":"SalesTick","shop_index":0,"gmv":1.0}')

    @pytest.mark.parametrize("payload", ["[1,2]", NEWER_BUILD_TICK],
                             ids=["not_an_object", "unknown_field"])
    def test_crc_valid_non_event_is_corruption_not_a_type_error(
            self, tmp_path, payload):
        good = [durable_log._format_record(encode_event(event))
                for event in some_events()[:3]]
        bad = durable_log._format_record(payload)
        directory = tmp_path / "log"
        log = DurableEventLog(directory)
        log.extend(some_events()[:3])
        segment = next(directory.glob("events-*.seg"))
        # Swapped in behind the open log's back: since() meets it
        # mid-replay, inside the registered record count ...
        segment.write_bytes(good[0] + bad + good[2])
        with pytest.raises(LogCorruptionError):
            list(log.since(0))
        # ... and a reopen meets it in the scan, tail position included
        # (a CRC-valid record is not what a torn write leaves behind).
        for body in (good[0] + bad + good[2], good[0] + good[1] + bad):
            segment.write_bytes(body)
            recorder = FlightRecorder()
            with use_recorder(recorder), pytest.raises(LogCorruptionError):
                DurableEventLog(directory)
            assert [n["kind"] for n in recorder.notes] == ["log_corruption"]

    def test_since_raises_on_a_segment_shorter_than_registered(
            self, tmp_path):
        events = (some_events() * 2)[:10]
        log = DurableEventLog(tmp_path / "log", segment_events=4)
        log.extend(events)
        first = sorted((tmp_path / "log").glob("events-*.seg"))[0]
        lines = first.read_bytes().splitlines(keepends=True)
        first.write_bytes(b"".join(lines[:-1]))   # lost after the open
        with pytest.raises(LogCorruptionError, match="holds 3 records, 1 short"):
            list(log.since(0))
        assert list(log.since(4)) == events[4:]   # later segments unharmed

    def test_append_reopen_replays_identically(self, tmp_path):
        events = some_events()
        with DurableEventLog(tmp_path / "log", segment_events=3) as log:
            for event in events:
                log.append(event)
            assert log.high_water == len(events)
        reopened = DurableEventLog(tmp_path / "log", segment_events=3)
        assert reopened.high_water == len(events)
        assert list(reopened.since(0)) == events
        # Event-time statistics match the in-memory log over one feed.
        memory = EventLog(events)
        assert reopened.frontier == memory.frontier
        assert reopened.late_arrivals == memory.late_arrivals
        assert list(reopened) == list(memory)

    def test_since_streams_every_offset(self, tmp_path):
        events = some_events()
        log = DurableEventLog(tmp_path / "log", segment_events=2)
        log.extend(events)
        for offset in range(len(events) + 2):
            assert list(log.since(offset)) == events[offset:]
        with pytest.raises(ValueError):
            list(log.since(-1))

    def test_rotation_seals_segments(self, tmp_path):
        log = DurableEventLog(tmp_path / "log", segment_events=2)
        log.extend(some_events())
        starts = [start for start, _ in log.segments()]
        assert starts == [0, 2, 4, 6]
        assert sum(count for _, count in log.segments()) == log.high_water
        # Sealed segment files are never written again.
        log.seal()
        log.append(SalesTick(month=5, shop_index=0, gmv=1.0))
        assert log.segments()[-1] == (7, 1)

    def test_torn_tail_is_truncated_on_reopen(self, tmp_path):
        events = some_events()
        log = DurableEventLog(tmp_path / "log", segment_events=100)
        log.extend(events)
        log.close()
        segment = next((tmp_path / "log").glob("events-*.seg"))
        with open(segment, "ab") as handle:
            handle.write(b"0000002a 1badc0de {\"kind\": torn-mid-w")
        reopened = DurableEventLog(tmp_path / "log", segment_events=100)
        assert reopened.high_water == len(events)
        assert reopened.torn_records_truncated == 1
        assert list(reopened.since(0)) == events
        # The truncated log accepts new appends cleanly.
        reopened.append(SalesTick(month=9, shop_index=1, gmv=2.0))
        assert list(reopened.since(len(events)))[0].month == 9

    def test_torn_tail_mid_record_prefix(self, tmp_path):
        events = some_events()
        log = DurableEventLog(tmp_path / "log")
        log.extend(events)
        log.close()
        segment = next((tmp_path / "log").glob("events-*.seg"))
        raw = segment.read_bytes()
        segment.write_bytes(raw[:-11])        # cut inside the last record
        reopened = DurableEventLog(tmp_path / "log")
        assert reopened.high_water == len(events) - 1
        assert list(reopened.since(0)) == events[:-1]

    def test_corrupt_sealed_segment_raises(self, tmp_path):
        log = DurableEventLog(tmp_path / "log", segment_events=2)
        log.extend(some_events())
        log.close()
        sealed = sorted((tmp_path / "log").glob("events-*.seg"))[0]
        raw = bytearray(sealed.read_bytes())
        raw[-5] ^= 0xFF                        # flip a payload byte
        sealed.write_bytes(bytes(raw))
        with pytest.raises(LogCorruptionError):
            DurableEventLog(tmp_path / "log", segment_events=2)

    def test_corruption_before_the_tail_raises(self, tmp_path):
        from repro.streaming.durable.log import _format_record

        events = some_events()
        log = DurableEventLog(tmp_path / "log", segment_events=100)
        log.extend(events[:3])
        log.close()
        segment = next((tmp_path / "log").glob("events-*.seg"))
        # Garbage followed by a *valid* record: the damage is mid-file,
        # not a torn tail, so reopen must refuse rather than truncate.
        with open(segment, "ab") as handle:
            handle.write(b"garbage line\n")
            handle.write(_format_record(encode_event(events[3])))
        with pytest.raises(LogCorruptionError):
            DurableEventLog(tmp_path / "log", segment_events=100)

    def test_fresh_directory_is_empty(self, tmp_path):
        log = DurableEventLog(tmp_path / "new")
        assert log.high_water == 0
        assert log.segments() == []
        assert list(log.since(0)) == []
        assert log.frontier == -1


# ----------------------------------------------------------------------
# sealed-segment sidecars
# ----------------------------------------------------------------------
SEAL_FAULTS = ("intact", "deleted", "truncated", "flipped", "stale",
               "leftover_tmp")


def _random_stream(rng, max_events=40):
    """Events of every kind with unordered months (late ones included)."""
    events = []
    for _ in range(int(rng.integers(1, max_events))):
        month = int(rng.integers(0, 12))
        kind = rng.random()
        if kind < 0.1:
            events.append(ShopAdded(month=month, shop_index=len(events),
                                    industry="ind_a", region="reg_b"))
        elif kind < 0.3:
            events.append(EdgeAdded(month=month, src=int(rng.integers(0, 9)),
                                    dst=int(rng.integers(0, 9)),
                                    edge_type=int(rng.integers(0, 3))))
        else:
            events.append(SalesTick(month=month,
                                    shop_index=int(rng.integers(0, 9)),
                                    gmv=float(rng.normal() * 10.0)))
    return events


def _observable(log):
    return (log.high_water, log.frontier, log.late_arrivals, log.segments(),
            list(log.since(0)))


def _sealed_files(directory):
    return sorted(directory.glob("events-*.seg"))[:-1]


def _break_seal(segment, fault, pristine, rng):
    """Apply one of ``SEAL_FAULTS`` to ``segment``'s sidecar."""
    sidecar = segment.with_suffix(".seal")
    raw = pristine[segment]
    if fault == "deleted":
        sidecar.unlink()
    elif fault == "truncated":
        sidecar.write_bytes(raw[:int(rng.integers(1, len(raw)))])
    elif fault == "flipped":
        damaged = bytearray(raw)
        damaged[int(rng.integers(0, len(raw)))] ^= 0xFF
        sidecar.write_bytes(bytes(damaged))
    elif fault == "stale":
        others = [other for other in pristine if other != segment]
        sidecar.write_bytes(
            pristine[others[int(rng.integers(0, len(others)))]])
    elif fault == "leftover_tmp":
        sidecar.with_name(sidecar.name + ".tmp").write_bytes(raw[:7])


def check_seal_fault_matrix(case):
    events, segment_events, seal_at, reopen_at, torn_at, fault_seed, root = case
    shutil.rmtree(root, ignore_errors=True)
    reference = DurableEventLog(root / "never-closed",
                                segment_events=segment_events)
    directory = root / "log"
    log = DurableEventLog(directory, segment_events=segment_events)
    for index, event in enumerate(events):
        if index in reopen_at:
            log.close()
            if index == torn_at:
                active = sorted(directory.glob("events-*.seg"))[-1]
                with open(active, "ab") as handle:
                    handle.write(b"0000002a 1badc0de {\"kind\": torn-mid-w")
            log = DurableEventLog(directory, segment_events=segment_events)
            assert log.torn_records_truncated == int(index == torn_at)
            assert log.segments_rescanned == 0
        if index in seal_at:       # always followed by an append: a seal
            log.seal()             # with no successor file does not
            reference.seal()       # survive a reopen (as at the parent)
        log.append(event)
        reference.append(event)
    log.close()
    expected = _observable(reference)
    assert expected[-1] == events

    rng = np.random.default_rng(fault_seed)
    sealed = _sealed_files(directory)
    pristine = {segment: segment.with_suffix(".seal").read_bytes()
                for segment in sealed}
    choices = SEAL_FAULTS if len(sealed) > 1 else tuple(
        fault for fault in SEAL_FAULTS if fault != "stale")
    faults = [choices[int(rng.integers(0, len(choices)))] for _ in sealed]
    for segment, fault in zip(sealed, faults):
        _break_seal(segment, fault, pristine, rng)

    recorder = FlightRecorder()
    with use_recorder(recorder):
        reopened = DurableEventLog(directory, segment_events=segment_events)
    assert _observable(reopened) == expected
    assert reopened.segments_rescanned == sum(
        fault not in ("intact", "leftover_tmp") for fault in faults), faults
    # A merely missing sidecar is the expected crash/upgrade signature;
    # every other rejection is noted with the segment and the reason.
    assert [note["details"]["segment"] for note in recorder.notes] == [
        segment.name for segment, fault in zip(sealed, faults)
        if fault in ("truncated", "flipped", "stale")]
    assert all(note["kind"] == "segment_seal_rejected"
               and note["details"]["reason"] for note in recorder.notes)
    reopened.close()

    # The rescan backfilled every sidecar: the next open trusts them all.
    again = DurableEventLog(directory, segment_events=segment_events)
    assert again.segments_rescanned == 0
    assert _observable(again) == expected
    assert {s: s.with_suffix(".seal").read_bytes() for s in sealed} == pristine


class TestSegmentSeals:
    def _journal(self, directory, segments=10, segment_events=4):
        events = (some_events() * segments)[:segments * segment_events]
        with DurableEventLog(directory, segment_events=segment_events) as log:
            log.extend(events)
        return events

    def test_sidecar_fault_matrix(self, tmp_path):
        def gen(rng):
            events = _random_stream(rng)
            points = lambda p: {i for i in range(1, len(events))
                                if rng.random() < p}
            reopen_at = points(0.15)
            torn_at = (sorted(reopen_at)[int(rng.integers(0, len(reopen_at)))]
                       if reopen_at else -1)
            return (events, int(rng.integers(1, 8)), points(0.1), reopen_at,
                    torn_at, int(rng.integers(0, 2 ** 31)), tmp_path / "case")

        forall(gen, check_seal_fault_matrix, trials=60, seed=29,
               name="reopen == never-closed under any sidecar fault")

    def test_reopen_decodes_only_the_active_segment(self, tmp_path,
                                                    monkeypatch):
        events = self._journal(tmp_path / "log")
        decoded = []
        real = durable_log.decode_event
        monkeypatch.setattr(
            durable_log, "decode_event",
            lambda payload: decoded.append(payload) or real(payload))
        reopened = DurableEventLog(tmp_path / "log", segment_events=4)
        assert reopened.high_water == len(events) == 40
        assert len(reopened.segments()) == 10
        assert len(decoded) <= 4       # O(segment_events), not O(journal)

    def test_sealed_body_damage_under_an_intact_sidecar_raises(
            self, tmp_path):
        self._journal(tmp_path / "log")
        sealed = _sealed_files(tmp_path / "log")[3]
        sidecar = sealed.with_suffix(".seal")
        raw, intact = sealed.read_bytes(), sidecar.read_bytes()
        lines = raw.splitlines(keepends=True)
        for damaged in (
            raw[:40] + bytes([raw[40] ^ 0xFF]) + raw[41:],   # bit rot
            b"".join(lines[:-1]),            # cut at a record boundary
            raw + lines[0],                  # a valid record too many
        ):
            sealed.write_bytes(damaged)
            sidecar.write_bytes(intact)
            recorder = FlightRecorder()
            with use_recorder(recorder), pytest.raises(LogCorruptionError):
                DurableEventLog(tmp_path / "log", segment_events=4)
            assert recorder.notes[-1]["kind"] == "log_corruption"

    def test_crash_between_segment_close_and_sidecar(self, tmp_path,
                                                     monkeypatch):
        events = (some_events() * 2)[:10]
        directory = tmp_path / "log"
        log = DurableEventLog(directory, segment_events=4)
        log.extend(events[:4])

        def disk_full(src, dst):
            raise OSError(28, "No space left on device")

        with monkeypatch.context() as patch:
            patch.setattr(durable_log.os, "replace", disk_full)
            with pytest.raises(OSError):
                log.append(events[4])      # the roll-over seal fails
            # The process dies here: segment closed, no sidecar, no
            # successor.  A restart sees one full active segment.
            crashed = DurableEventLog(directory, segment_events=4)
            assert list(crashed.since(0)) == events[:4]
            assert crashed.segments_rescanned == 0
            crashed.close()
        # The survivor simply retries the seal on its next append.
        log.extend(events[4:])
        log.close()
        assert list(log.since(0)) == events
        reopened = DurableEventLog(directory, segment_events=4)
        assert reopened.segments_rescanned == 0
        assert _observable(reopened) == _observable(log)

    def test_unwritable_directory_still_opens_a_journal_without_sidecars(
            self, tmp_path, monkeypatch):
        events = self._journal(tmp_path / "log", segments=3)
        for sidecar in (tmp_path / "log").glob("events-*.seal"):
            sidecar.unlink()               # a journal the parent wrote

        def read_only(src, dst):
            raise OSError(30, "Read-only file system")

        monkeypatch.setattr(durable_log.os, "replace", read_only)
        reopened = DurableEventLog(tmp_path / "log", segment_events=4)
        assert list(reopened.since(0)) == events
        assert reopened.segments_rescanned == 2


# ----------------------------------------------------------------------
# EventLog durable tee
# ----------------------------------------------------------------------
class TestEventLogDurableTee:
    def test_appends_journal_write_ahead(self, tmp_path):
        backend = DurableEventLog(tmp_path / "log")
        log = EventLog(durable=backend)
        events = some_events()
        for event in events:
            log.append(event)
        assert backend.high_water == log.high_water == len(events)
        assert list(backend.since(0)) == list(log)

    def test_from_durable_rehydrates_without_rewriting(self, tmp_path):
        events = some_events()
        backend = DurableEventLog(tmp_path / "log")
        EventLog(events, durable=backend)
        backend.close()

        reopened = DurableEventLog(tmp_path / "log")
        log = EventLog.from_durable(reopened)
        assert list(log) == events
        assert log.frontier == EventLog(events).frontier
        assert log.late_arrivals == EventLog(events).late_arrivals
        # No double journaling: disk still holds exactly len(events).
        assert reopened.high_water == len(events)
        # And the tee continues from the journal head.
        log.append(SalesTick(month=8, shop_index=0, gmv=3.0))
        assert reopened.high_water == len(events) + 1

    def test_attach_out_of_sync_backend_rejected(self, tmp_path):
        backend = DurableEventLog(tmp_path / "log")
        backend.append(ShopAdded(month=0, shop_index=0))
        with pytest.raises(ValueError, match="does not match"):
            EventLog(durable=backend)


# ----------------------------------------------------------------------
# checkpoint round trips
# ----------------------------------------------------------------------
def fold_world(events, base, num_months=12, watermark=None, ewma_seed=None):
    """Fold ``events`` into a fresh (dyn, store, ewma) world."""
    dyn = DynamicGraph(base, compact_threshold=0.5, min_compact_edges=8)
    store = StreamingFeatureStore(base.num_nodes, num_months,
                                  watermark=watermark)
    ewma = (np.random.default_rng(ewma_seed)
            .normal(size=base.num_nodes) if ewma_seed is not None
            else np.full(base.num_nodes, np.nan))
    for event in events:
        dyn.apply(event)
        store.apply(event)
    return dyn, store, ewma


class _AdapterState:
    """Duck-typed stand-in carrying the OnlineAdapter state contract."""

    def __init__(self, store, ewma, adaptations=()):
        self.store = store
        self.graph = None
        self.error_ewma = ewma
        self.adaptations = list(adaptations)
        self._last_adapt_month = -5
        self._last_observed_month = -3

    state_dict = OnlineAdapter.state_dict
    load_state_dict = OnlineAdapter.load_state_dict


def assert_stores_identical(a, b):
    assert np.array_equal(a.gmv, b.gmv)
    assert np.array_equal(a.orders, b.orders)
    assert np.array_equal(a.customers, b.customers)
    assert np.array_equal(a.opened_month, b.opened_month)
    assert np.array_equal(a.last_tick_seq, b.last_tick_seq)
    assert np.array_equal(a.ticked, b.ticked)
    assert a._industries == b._industries
    assert a._regions == b._regions
    assert a.freshness_report() == b.freshness_report()
    assert a.num_shops == b.num_shops
    assert a.events_applied == b.events_applied


def assert_graphs_identical(dyn_a, dyn_b):
    ga, gb = dyn_a.compact(), dyn_b.compact()
    assert ga.num_nodes == gb.num_nodes
    assert np.array_equal(ga.src, gb.src)
    assert np.array_equal(ga.dst, gb.dst)
    assert np.array_equal(ga.edge_types, gb.edge_types)
    for pair in zip(ga.out_csr(), gb.out_csr()):
        assert np.array_equal(*pair)
    for pair in zip(ga.in_csr(), gb.in_csr()):
        assert np.array_equal(*pair)


class TestCheckpoint:
    def test_store_state_round_trip(self):
        rng = np.random.default_rng(3)
        base = random_eseller_graph(rng, max_nodes=10, max_edges=20)
        _dyn, store, _ = fold_world(
            _valid_sequence(rng, base, num_months=12), base, watermark=2)
        assert_stores_identical(store,
                                StreamingFeatureStore.from_state(
                                    store.state_dict()))

    def test_write_load_checkpoint_all_components(self, tmp_path):
        rng = np.random.default_rng(5)
        base = random_eseller_graph(rng, max_nodes=12, max_edges=30)
        events = _valid_sequence(rng, base, num_months=12)
        dyn, store, ewma = fold_world(events, base, ewma_seed=11)
        diverged = AdaptationReport(
            month=7, cutoff=5, num_drifted=2,
            drifted_shops=np.array([1, 4]), pre_loss=0.1 + 0.2,
            post_loss=float("nan"), version=3, steps=15)
        adapter = _AdapterState(store, ewma, [diverged])
        path = write_checkpoint(tmp_path, len(events), dynamic_graph=dyn,
                                store=store, adapter=adapter)
        ckpt = load_checkpoint(path)
        assert ckpt.offset == len(events)
        assert ckpt.components == ["graph", "store", "adapter"]
        # One rule: ndarray state goes to arrays.npz, the rest to JSON.
        assert sorted(ckpt.arrays) == sorted(
            ["graph_src", "graph_dst", "graph_edge_types",
             "adapter_error_ewma"]
            + [f"store_{key}" for key, value in store.state_dict().items()
               if isinstance(value, np.ndarray)])
        assert_graphs_identical(dyn, ckpt.build_dynamic_graph())
        assert_stores_identical(store, ckpt.build_store())
        restored = _AdapterState(store, np.zeros(1))
        ckpt.restore_adapter(restored)
        assert np.array_equal(restored.error_ewma, ewma)
        assert restored._last_adapt_month == -5
        assert restored._last_observed_month == -3
        (report,) = restored.adaptations
        assert report.drifted_shops.tolist() == [1, 4]
        assert report.pre_loss == 0.1 + 0.2 and np.isnan(report.post_loss)
        assert (report.month, report.version, report.steps) == (7, 3, 15)

    def test_checkpoint_sha_mismatch_rejected(self, tmp_path):
        rng = np.random.default_rng(7)
        base = random_eseller_graph(rng, max_nodes=6, max_edges=8)
        dyn, store, _e = fold_world([], base)
        path = write_checkpoint(tmp_path, 0, dynamic_graph=dyn, store=store)
        arrays = path / "arrays.npz"
        raw = bytearray(arrays.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        arrays.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="SHA-256"):
            load_checkpoint(path)

    def test_incomplete_checkpoint_rejected(self, tmp_path):
        broken = tmp_path / "ckpt-00000000000000000003"
        broken.mkdir()
        with pytest.raises(CheckpointError, match="incomplete"):
            load_checkpoint(broken)

    def test_latest_checkpoint_selection(self, tmp_path):
        rng = np.random.default_rng(9)
        base = random_eseller_graph(rng, max_nodes=6, max_edges=8)
        dyn, store, _e = fold_world([], base)
        for offset in (0, 7, 19):
            write_checkpoint(tmp_path, offset, dynamic_graph=dyn,
                             store=store)
        (tmp_path / "ckpt-00000000000000000099.tmp").mkdir()  # staging junk
        assert latest_checkpoint(tmp_path).name.endswith("19")
        assert latest_checkpoint(tmp_path, max_offset=18).name.endswith("07")
        assert latest_checkpoint(tmp_path, max_offset=-1) is None
        assert latest_checkpoint(tmp_path / "absent") is None

    def test_checkpointer_cadence(self, tmp_path):
        rng = np.random.default_rng(13)
        base = random_eseller_graph(rng, max_nodes=6, max_edges=8)
        dyn, store, _e = fold_world([], base)
        policy = Checkpointer(tmp_path, interval_events=5,
                              dynamic_graph=dyn, store=store)
        written = [offset for offset in range(14)
                   if policy.observe(offset) is not None]
        assert written == [0, 5, 10]
        assert policy.snapshots_written == 3


# ----------------------------------------------------------------------
# the tentpole property: crash at every offset
# ----------------------------------------------------------------------
def _valid_sequence(rng, base, num_months=12, max_events=35):
    """Random event mix valid against ``base``: churn + ticks (some late)."""
    live = [
        (int(base.src[e]), int(base.dst[e]), int(base.edge_types[e]))
        for e in range(base.num_edges)
    ]
    num_nodes = base.num_nodes
    month = int(rng.integers(0, num_months // 2))
    events = []
    for _ in range(int(rng.integers(1, max_events))):
        month = min(num_months - 1, month + int(rng.integers(0, 2)))
        kind = rng.random()
        if kind < 0.12:
            num_nodes += 1
            events.append(ShopAdded(month=month, shop_index=num_nodes - 1,
                                    industry="ind_a", region="reg_b"))
        elif kind < 0.30 and live:
            key = live.pop(int(rng.integers(0, len(live))))
            events.append(EdgeRetired(month=month, src=key[0], dst=key[1],
                                      edge_type=key[2]))
        elif kind < 0.55:
            key = (int(rng.integers(0, num_nodes)),
                   int(rng.integers(0, num_nodes)),
                   int(rng.integers(0, 3)))
            live.append(key)
            events.append(EdgeAdded(month=month, src=key[0], dst=key[1],
                                    edge_type=key[2]))
        else:
            tick_month = max(0, month - int(rng.integers(0, 4)))  # some late
            events.append(SalesTick(
                month=tick_month,
                shop_index=int(rng.integers(0, num_nodes)),
                gmv=float(rng.normal() * 10.0),
                orders=int(rng.integers(0, 5)),
                customers=int(rng.integers(0, 4)),
            ))
    return events


class _TruncatedLog:
    """A durable log viewed as if the process died at ``head`` events."""

    def __init__(self, log, head):
        self._log = log
        self.high_water = head

    def since(self, offset):
        return itertools.islice(self._log.since(offset),
                                max(self.high_water - offset, 0))


def check_crash_recovery(case):
    base, events, watermark, cadence, ewma_seed, tmp_path = case
    run_dir = tmp_path / f"run-{ewma_seed}-{len(events)}-{cadence}"
    log_dir, ckpt_dir = run_dir / "log", run_dir / "ckpt"

    # First life: journal + fold + checkpoint on cadence.
    durable = DurableEventLog(log_dir, segment_events=8)
    dyn, store, ewma = fold_world([], base, watermark=watermark,
                                  ewma_seed=ewma_seed)
    adapter = _AdapterState(store, ewma.copy())
    for offset, event in enumerate(events):
        durable.append(event)
        dyn.apply(event)
        store.apply(event)
        if (offset + 1) % cadence == 0:
            write_checkpoint(ckpt_dir, offset + 1, dynamic_graph=dyn,
                             store=store, adapter=adapter)
    durable.close()

    # Crash between every pair of events; compare against a cold fold
    # of the same prefix (the never-crashed reference).
    reopened = DurableEventLog(log_dir, segment_events=8)
    for crash_at in range(len(events) + 1):
        ref_dyn, ref_store, _ = fold_world(
            events[:crash_at], base, watermark=watermark)
        recovered_adapter = _AdapterState(StreamingFeatureStore(1, 1),
                                          np.zeros(1))
        state = recover(
            _TruncatedLog(reopened, crash_at),
            ckpt_dir,
            base_graph=base,
            store_factory=lambda: StreamingFeatureStore(
                base.num_nodes, store.num_months, watermark=watermark),
            adapter=recovered_adapter,
            graph_kwargs=dict(compact_threshold=0.5, min_compact_edges=8),
        )
        assert state.high_water == crash_at
        assert state.checkpoint_offset + state.replayed_events == crash_at
        assert_graphs_identical(state.dynamic_graph, ref_dyn)
        assert_stores_identical(state.store, ref_store)
        # The adapter's fresh evidence is the recovered store's table.
        assert recovered_adapter.store is state.store
        assert np.array_equal(state.store.ticked, ref_store.ticked)
        # EWMAs round-trip from the newest reachable snapshot (they
        # only change in observe_month, which never ran after the
        # pre-seed).
        if state.checkpoint_offset > 0:
            assert np.array_equal(recovered_adapter.error_ewma, ewma)


class TestCrashAtEveryOffset:
    def test_snapshot_plus_tail_equals_never_crashed(self, tmp_path):
        counter = itertools.count()

        def gen(rng):
            base = random_eseller_graph(rng, max_nodes=10, max_edges=25)
            events = _valid_sequence(rng, base)
            watermark = [None, 2, 0][int(rng.integers(0, 3))]
            cadence = int(rng.integers(3, 9))
            return (base, events, watermark, cadence, next(counter),
                    tmp_path)

        forall(gen, check_crash_recovery, trials=TRIALS, seed=101,
               name="crash-at-every-offset recovery equivalence")

    def test_recovery_without_any_checkpoint_cold_starts(self, tmp_path):
        rng = np.random.default_rng(17)
        base = random_eseller_graph(rng, max_nodes=8, max_edges=16)
        events = _valid_sequence(rng, base)
        durable = DurableEventLog(tmp_path / "log")
        durable.extend(events)
        state = recover(
            durable, tmp_path / "no-ckpts",
            base_graph=base,
            store_factory=lambda: StreamingFeatureStore(base.num_nodes, 12),
        )
        assert state.checkpoint_offset == 0
        assert state.replayed_events == len(events)
        ref_dyn, ref_store, _e = fold_world(events, base)
        assert_graphs_identical(state.dynamic_graph, ref_dyn)
        assert_stores_identical(state.store, ref_store)

    def test_recovery_without_checkpoint_or_cold_start_raises(self, tmp_path):
        durable = DurableEventLog(tmp_path / "log")
        with pytest.raises(CheckpointError, match="cold-start"):
            recover(durable, tmp_path / "ckpts")

    def test_checkpoint_ahead_of_torn_log_is_skipped(self, tmp_path):
        rng = np.random.default_rng(19)
        base = random_eseller_graph(rng, max_nodes=8, max_edges=16)
        events = _valid_sequence(rng, base)
        durable = DurableEventLog(tmp_path / "log")
        dyn, store, _e = fold_world(events, base)
        durable.extend(events)
        # Snapshot *past* the surviving journal: as if the checkpoint
        # landed but the log tail was torn away by the crash.
        write_checkpoint(tmp_path / "ckpt", len(events) + 3,
                         dynamic_graph=dyn, store=store)
        state = recover(
            durable, tmp_path / "ckpt",
            base_graph=base,
            store_factory=lambda: StreamingFeatureStore(base.num_nodes, 12),
        )
        assert state.checkpoint_offset == 0      # unreachable snapshot skipped
        ref_dyn, ref_store, _e2 = fold_world(events, base)
        assert_graphs_identical(state.dynamic_graph, ref_dyn)
        assert_stores_identical(state.store, ref_store)

    def _three_checkpoint_world(self, tmp_path):
        rng = np.random.default_rng(31)
        base = random_eseller_graph(rng, max_nodes=8, max_edges=16)
        events = []
        while len(events) < 12:
            events = _valid_sequence(rng, base)
        durable = DurableEventLog(tmp_path / "log", segment_events=5)
        dyn, store, _e = fold_world([], base)
        offsets = [len(events) // 4, len(events) // 2, 3 * len(events) // 4]
        paths = []
        for offset, event in enumerate(events, start=1):
            durable.append(event)
            dyn.apply(event)
            store.apply(event)
            if offset in offsets:
                paths.append(write_checkpoint(
                    tmp_path / "ckpt", offset, dynamic_graph=dyn,
                    store=store))
        return base, durable, (dyn, store), offsets, paths

    def test_rejected_newest_checkpoint_falls_back_to_an_older_one(
            self, tmp_path):
        base, durable, (dyn, store), offsets, paths = \
            self._three_checkpoint_world(tmp_path)
        arrays = paths[-1] / "arrays.npz"
        raw = bytearray(arrays.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        arrays.write_bytes(bytes(raw))
        recorder = FlightRecorder()
        with use_recorder(recorder):
            state = recover(durable, tmp_path / "ckpt")
        assert state.checkpoint_offset == offsets[1]
        assert_graphs_identical(state.dynamic_graph, dyn)
        assert_stores_identical(state.store, store)
        rejected = [note for note in recorder.notes
                    if note["kind"] == "checkpoint_rejected"]
        assert len(rejected) == 1
        assert rejected[0]["details"]["path"] == str(paths[-1])
        assert "SHA-256" in rejected[0]["details"]["reason"]

    def test_format_1_checkpoint_is_rejected_and_recover_falls_back(
            self, tmp_path):
        """A snapshot written before the store kept ``ticked`` (format 1:
        no ``store_ticked`` array) is refused with CheckpointError, never
        a KeyError, and recovery falls back to the next older one."""
        base, durable, (dyn, store), offsets, paths = \
            self._three_checkpoint_world(tmp_path)
        newest = paths[-1]
        with np.load(newest / "arrays.npz") as bundle:
            arrays = {name: bundle[name] for name in bundle.files
                      if name != "store_ticked"}
        np.savez(newest / "arrays.npz", **arrays)
        manifest = json.loads((newest / "manifest.json").read_text())
        manifest["format_version"] = 1
        manifest["arrays_sha256"] = hashlib.sha256(
            (newest / "arrays.npz").read_bytes()).hexdigest()
        (newest / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="format: 1"):
            load_checkpoint(newest)
        recorder = FlightRecorder()
        with use_recorder(recorder):
            state = recover(durable, tmp_path / "ckpt")
        assert state.checkpoint_offset == offsets[1]
        assert_graphs_identical(state.dynamic_graph, dyn)
        assert_stores_identical(state.store, store)
        rejected = [note for note in recorder.notes
                    if note["kind"] == "checkpoint_rejected"]
        assert [note["details"]["path"] for note in rejected] == [str(newest)]

    def test_every_checkpoint_rejected_cold_starts_or_raises_the_last_error(
            self, tmp_path):
        base, durable, (dyn, store), _offsets, paths = \
            self._three_checkpoint_world(tmp_path)
        (paths[2] / "arrays.npz").unlink()                 # CheckpointError
        manifest = paths[1] / "manifest.json"
        manifest.write_text(manifest.read_text()[:40])     # ValueError
        (paths[0] / "manifest.json").unlink()
        with pytest.raises(CheckpointError, match="incomplete"):
            recover(durable, tmp_path / "ckpt")
        recorder = FlightRecorder()
        with use_recorder(recorder):
            state = recover(
                durable, tmp_path / "ckpt", base_graph=base,
                store_factory=lambda: StreamingFeatureStore(
                    base.num_nodes, 12))
        assert state.checkpoint_offset == 0
        assert state.replayed_events == durable.high_water
        assert_graphs_identical(state.dynamic_graph, dyn)
        assert_stores_identical(state.store, store)
        assert [note["kind"] for note in recorder.notes] == [
            "checkpoint_rejected"] * 3 + ["recovery"]


# ----------------------------------------------------------------------
# the adapter reports the same after a crash
# ----------------------------------------------------------------------
class TestRecoveredAdapter:
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_recovered_adapter_reports_like_the_never_crashed_one(
            self, factory, dataset, simulator, tmp_path):
        """Adapt (a diverged fine-tune, in cooldown) -> checkpoint ->
        crash -> recover: ``drift_report()`` and the ``online_probe``
        verdict equal the never-crashed adapter's, at the crash and at
        every month close after it."""
        registry = ModelRegistry()
        registry.publish(factory(), trained_at_month=simulator.start_month)
        # An infinite step size makes the one fine-tune step diverge.
        config = OnlineAdapterConfig(
            drift_threshold=0.25, min_drifted_shops=1, adapt_steps=1,
            learning_rate=float("inf"), cooldown_months=10 ** 6)

        def adapter_for(store, dyn):
            return OnlineAdapter(factory(), registry, store, dyn, dataset,
                                 config)

        def verdict(adapter):
            result = online_probe(adapter)()
            return (json.dumps(adapter.drift_report(), sort_keys=True),
                    result.live, result.ready, result.reason,
                    result.details)

        durable = DurableEventLog(tmp_path / "log", segment_events=64)
        dyn = simulator.initial_dynamic_graph()
        store = simulator.initial_store(watermark=2)
        adapter = adapter_for(store, dyn)
        months = iter(simulator.streaming_months)
        for month in months:
            for event in simulator.events_for_month(month):
                durable.append(event)
                dyn.apply(event)
                store.apply(event)
            adapter.observe_month(month)
            write_checkpoint(tmp_path / "ckpt", durable.high_water,
                             dynamic_graph=dyn, store=store,
                             adapter=adapter)
            if adapter.adaptations and month > adapter.adaptations[-1].month:
                break
        report = adapter.drift_report()
        assert report["adaptations"] == 1 and report["in_cooldown"]
        assert not online_probe(adapter)().live      # diverged fine-tune
        durable.close()

        reopened = DurableEventLog(tmp_path / "log", segment_events=64)
        recovered = adapter_for(simulator.initial_store(watermark=2),
                                simulator.initial_dynamic_graph())
        state = recover(reopened, tmp_path / "ckpt", adapter=recovered)
        assert state.replayed_events == 0
        assert verdict(recovered) == verdict(adapter)
        for month in months:
            for event in simulator.events_for_month(month):
                for fold in (dyn, store, state.dynamic_graph, state.store):
                    fold.apply(event)
            adapter.observe_month(month)
            recovered.observe_month(month)
            assert verdict(recovered) == verdict(adapter), month
            assert np.array_equal(recovered.error_ewma, adapter.error_ewma,
                                  equal_nan=True)
        reopened.close()


# ----------------------------------------------------------------------
# end-to-end: recovered state serves identical forecasts
# ----------------------------------------------------------------------
class TestRecoveredServing:
    def _gateway(self, factory, dataset, registry):
        return ServingGateway(factory, dataset, registry,
                              GatewayConfig(max_batch_size=8, max_wait=10.0))

    def test_kill_and_recover_serves_identical_forecasts(
            self, factory, dataset, registry, simulator, tmp_path):
        months = list(simulator.streaming_months)
        crash_after = months[len(months) // 2]

        # Never-crashed run over the full stream.
        ref_dyn = simulator.initial_dynamic_graph()
        ref_store = simulator.initial_store()
        for month in months:
            events = simulator.events_for_month(month)
            ref_dyn.apply_events(events)
            ref_store.apply_events(events)

        # First life: journal everything, checkpoint mid-stream, "die".
        durable = DurableEventLog(tmp_path / "log", segment_events=64)
        log = EventLog(durable=durable)
        dyn = simulator.initial_dynamic_graph()
        store = simulator.initial_store()
        for month in months:
            events = simulator.events_for_month(month)
            log.extend(events)
            dyn.apply_events(events)
            store.apply_events(events)
            if month == crash_after:
                write_checkpoint(tmp_path / "ckpt", log.high_water,
                                 dynamic_graph=dyn, store=store)
        durable.close()
        del log, dyn, store                      # the crash

        # Second life: snapshot + tail, then attach serving cold.
        reopened = DurableEventLog(tmp_path / "log", segment_events=64)
        state = recover(reopened, tmp_path / "ckpt")
        assert state.checkpoint_offset > 0
        assert state.replayed_events == reopened.high_water \
            - state.checkpoint_offset
        assert_graphs_identical(state.dynamic_graph, ref_dyn)
        assert_stores_identical(state.store, ref_store)

        shops = np.arange(0, 48, 3)
        ref_gateway = self._gateway(factory, dataset, registry)
        ref_gateway.attach_stream(ref_dyn, store=ref_store)
        expected = ref_gateway.predict_many(shops)
        gateway = self._gateway(factory, dataset, registry)
        gateway.attach_stream(state.dynamic_graph, store=state.store)
        got = gateway.predict_many(shops)
        for a, b in zip(got, expected):
            assert np.array_equal(a.forecast, b.forecast)
        ref_gateway.close()
        gateway.close()

    def test_reattach_keep_caches_preserves_warm_entries(
            self, factory, dataset, registry, simulator):
        dyn = simulator.initial_dynamic_graph()
        store = simulator.initial_store()
        gateway = self._gateway(factory, dataset, registry)
        gateway.attach_stream(dyn, store=store)
        shops = np.arange(8)
        first = gateway.predict_many(shops)
        flushes = gateway.metrics.counter("graph_invalidations")
        hits_before = gateway.metrics.counter("cache_hits")

        # Same stream, warm re-attach: entries survive and hit.
        gateway.attach_stream(dyn, store=store, keep_caches=True)
        assert gateway.metrics.counter("graph_invalidations") == flushes
        again = gateway.predict_many(shops)
        assert gateway.metrics.counter("cache_hits") \
            >= hits_before + len(shops)
        for a, b in zip(again, first):
            assert np.array_equal(a.forecast, b.forecast)

        # Default re-attach is the cold start.
        gateway.attach_stream(dyn, store=store)
        assert gateway.metrics.counter("graph_invalidations") == flushes + 1
        gateway.close()

    def test_recovered_serving_batch_guards_short_cutoff(
            self, dataset, simulator, tmp_path):
        durable = DurableEventLog(tmp_path / "log")
        state = recover(
            durable, tmp_path / "ckpt",
            base_graph=simulator.initial_graph(),
            store_factory=simulator.initial_store,
        )
        # The durable-restore path carries the same guard as
        # StreamingFeatureStore.instance_batch: no zero-padded windows.
        with pytest.raises(ValueError, match="input"):
            state.serving_batch(dataset, cutoff=dataset.input_window - 1)
        batch = state.serving_batch(dataset, cutoff=dataset.input_window)
        assert batch.series.shape[1] == dataset.input_window
