"""File-backed segmented event log: the durable half of ``EventLog``.

The in-memory :class:`~repro.streaming.events.EventLog` is the single
source of truth for streaming state — but it dies with the process.
:class:`DurableEventLog` gives the same append-only contract a disk
representation that survives crashes:

* **Segments** — events land in numbered segment files
  (``events-<first offset>.seg``) under one directory.  The
  highest-numbered segment is *active* (appendable); all earlier
  segments are *sealed* (immutable).  The active segment rolls over
  once it holds ``segment_events`` records, so no single file grows
  without bound and sealed segments can be archived or compacted
  without touching the write path.
* **Seals** — the process that seals a segment summarises it once in a
  one-line, self-checksummed sidecar (``events-<first offset>.seal``:
  record count, body length and CRC32, the event-time statistics so
  far), staged and ``os.replace``d into place.  Opening the directory
  checksums each sealed body against its sidecar instead of decoding
  it; a missing, damaged or disagreeing sidecar falls back to the
  per-record scan, which rewrites it.  Only the active segment is
  always scanned record by record.
* **Records** — one line per event: two fixed-width hex fields (payload
  byte length, CRC32 of the payload) followed by the event as compact
  JSON.  Every read re-checks the length and CRC, so silent disk
  corruption surfaces as :class:`LogCorruptionError` instead of a
  quietly diverged fold.
* **Torn tails** — a crash mid-append leaves a truncated final record
  in the *active* segment only.  Opening the directory detects it and
  truncates the file back to the last complete record (the standard
  write-ahead-log recovery rule); a malformed record anywhere *else* —
  mid-segment, or in a sealed segment — is corruption and raises.
* **Bounded-memory replay** — :meth:`since` streams events from any
  offset as a generator, reading one record at a time.  A consumer
  restoring from a checkpoint at offset *k* replays only the tail
  ``since(k)`` without ever materialising the full history.

Write-ahead ordering: :class:`~repro.streaming.events.EventLog` with a
durable backend journals each event *before* appending it in memory, so
a crash can lose un-journaled in-memory state but never the reverse —
recovery replays a prefix of exactly what every consumer saw.

>>> import tempfile
>>> from repro.streaming.events import SalesTick
>>> log = DurableEventLog(tempfile.mkdtemp(), segment_events=2)
>>> for month in (1, 2, 3):
...     _ = log.append(SalesTick(month=month, shop_index=0, gmv=1.0))
>>> log.high_water, len(log.segments())
(3, 2)
>>> [e.month for e in log.since(1)]
[2, 3]
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import asdict
from itertools import islice
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Type

from ...obs import recorder as obs_recorder
from ..events import (
    EdgeAdded,
    EdgeRetired,
    SalesTick,
    ShopAdded,
    ShopEvent,
)

__all__ = [
    "LogCorruptionError",
    "encode_event",
    "decode_event",
    "DurableEventLog",
]

#: Registered event kinds, by class name (the ``kind`` field on disk).
#: New event types register here the same way they join the in-memory
#: model — see "Adding an event type" in ``docs/streaming.md``.
EVENT_KINDS: Dict[str, Type[ShopEvent]] = {
    cls.__name__: cls
    for cls in (ShopAdded, EdgeAdded, EdgeRetired, SalesTick)
}

_SEGMENT_PREFIX = "events-"
_SEGMENT_SUFFIX = ".seg"
_SEAL_SUFFIX = ".seal"
# "llllllll cccccccc <payload>\n": 8 hex digits of payload byte length,
# 8 hex digits of CRC32, one space each.
_HEADER_LEN = 18


class LogCorruptionError(RuntimeError):
    """A durable segment failed its length/CRC/framing checks.

    Raised for damage that crash recovery cannot explain: a malformed or
    CRC-failing record in a sealed segment, or anywhere but the tail of
    the active one.  (A torn *final* record in the active segment is the
    expected crash signature and is truncated silently instead.)
    """


def encode_event(event: ShopEvent) -> str:
    """Serialise one event to its canonical compact-JSON payload.

    The payload carries ``kind`` (the class name) plus every dataclass
    field, with sorted keys so the bytes — and therefore the CRC — are
    deterministic for a given event.  Floats round-trip exactly
    (``json`` emits ``repr``-style shortest representations), which is
    what lets recovery be *bitwise* identical to the never-crashed fold.
    """
    kind = type(event).__name__
    if kind not in EVENT_KINDS:
        raise TypeError(f"unregistered event kind: {kind}")
    payload = {"kind": kind}
    payload.update(asdict(event))
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def decode_event(payload: str) -> ShopEvent:
    """Rebuild an event from its JSON payload (inverse of :func:`encode_event`).

    A payload that parses but is not an event this build knows — not an
    object, an unregistered ``kind``, fields its dataclass rejects (a
    journal written by a newer build) — is :class:`LogCorruptionError`.
    """
    fields = json.loads(payload)
    if not isinstance(fields, dict):
        raise LogCorruptionError(
            f"event payload is not an object: {payload[:60]!r}")
    kind = fields.pop("kind", None)
    cls = EVENT_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise LogCorruptionError(f"unknown event kind in log: {kind!r}")
    try:
        return cls(**fields)
    except TypeError as exc:   # names the kind and the offending field
        raise LogCorruptionError(f"malformed {kind} record: {exc}") from None


def _format_record(payload: str) -> bytes:
    raw = payload.encode("utf-8")
    return b"%08x %08x %s\n" % (len(raw), zlib.crc32(raw), raw)


def _parse_record(line: bytes) -> str:
    """Validate one framed record; returns the payload string.

    Raises ``ValueError`` on any framing/length/CRC mismatch; callers
    decide whether that means a torn tail (truncate) or corruption
    (raise :class:`LogCorruptionError`).
    """
    if len(line) < _HEADER_LEN + 1 or not line.endswith(b"\n"):
        raise ValueError("incomplete record")
    if line[8:9] != b" " or line[17:18] != b" ":
        raise ValueError("malformed record header")
    length = int(line[:8], 16)
    crc = int(line[9:17], 16)
    raw = line[_HEADER_LEN:-1]
    if len(raw) != length:
        raise ValueError(f"payload length {len(raw)} != header {length}")
    if zlib.crc32(raw) != crc:
        raise ValueError("payload CRC mismatch")
    return raw.decode("utf-8")


def _verified_seal(path: Path, start: int) -> Tuple[int, int, int]:
    """``(count, frontier, late_arrivals)`` from a sealed segment's sidecar.

    Raises unless the sidecar's own CRC, its first offset and the body's
    length and CRC32 (streamed in bounded chunks) all hold:
    ``FileNotFoundError`` without a sidecar, else what disagreed.
    """
    seal = json.loads(_parse_record(
        path.with_suffix(_SEAL_SUFFIX).read_bytes()))
    if seal["first_offset"] != start:
        raise ValueError(f"sidecar is for offset {seal['first_offset']}")
    length = crc = 0
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            length += len(chunk)
            crc = zlib.crc32(chunk, crc)
    if (length, crc) != (seal["body_bytes"], seal["body_crc"]):
        raise ValueError(
            f"body is {length} bytes, CRC {crc:08x}; sidecar says "
            f"{seal['body_bytes']} bytes, CRC {seal['body_crc']:08x}")
    return seal["count"], seal["frontier"], seal["late_arrivals"]


class DurableEventLog:
    """Append-only, crash-safe, segmented event log on disk.

    Parameters
    ----------
    directory:
        Where segments live; created if missing.  Opening a non-empty
        directory verifies every byte: each sealed segment's body is
        checksummed against its ``.seal`` sidecar (or, without a usable
        one, scanned record by record and the sidecar rewritten), the
        active segment is scanned record by record and a torn tail
        truncated.  That restores ``high_water`` / ``frontier`` /
        ``late_arrivals`` to what the in-memory log tracking the same
        stream would report.
    segment_events:
        Records per segment before the active segment seals and a new
        one starts.
    fsync:
        When true, ``os.fsync`` after every append — real durability at
        real cost.  Off by default: tests and benchmarks care about the
        crash-*consistency* story (torn tails, replay), which buffered
        writes plus flush already exercise.
    """

    def __init__(self, directory, segment_events: int = 4096,
                 fsync: bool = False) -> None:
        if segment_events <= 0:
            raise ValueError(
                f"segment_events must be positive, got {segment_events}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_events = int(segment_events)
        self.fsync = bool(fsync)
        #: Next append offset (= events durably recorded).
        self.high_water = 0
        #: Event-time frontier (mirrors ``EventLog.frontier``).
        self.frontier = -1
        #: Events appended behind the frontier (mirrors ``EventLog``).
        self.late_arrivals = 0
        #: Torn records truncated from the active tail at open (0 or 1).
        self.torn_records_truncated = 0
        #: Sealed segments opened by per-record scan for want of a
        #: sidecar that matched them (each rewrote its sidecar).
        self.segments_rescanned = 0
        # (first_offset, record_count) per segment, in offset order.
        self._segments: List[Tuple[int, int]] = []
        # Byte length and running CRC32 of the active segment's body:
        # what its sidecar will say when it seals.
        self._body_bytes = 0
        self._body_crc = 0
        self._handle = None
        self._closed = False
        try:
            self._recover_segments()
        except LogCorruptionError as exc:
            # Black-box the incident before surfacing it: the installed
            # flight recorder (if any) dumps the moments before.
            obs_recorder.note("log_corruption", directory=str(self.directory),
                              error=str(exc))
            raise

    # ------------------------------------------------------------------
    # startup scan / crash recovery
    # ------------------------------------------------------------------
    def _segment_path(self, first_offset: int) -> Path:
        return self.directory / (
            f"{_SEGMENT_PREFIX}{first_offset:020d}{_SEGMENT_SUFFIX}"
        )

    def _recover_segments(self) -> None:
        paths = sorted(self.directory.glob(
            f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX}"
        ))
        starts = []
        for path in paths:
            stem = path.name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)]
            try:
                starts.append(int(stem))
            except ValueError:
                raise LogCorruptionError(f"unparseable segment name: {path.name}")
        for rank, (start, path) in enumerate(zip(starts, paths)):
            if start != self.high_water:
                raise LogCorruptionError(
                    f"segment {path.name} starts at {start}, "
                    f"expected {self.high_water}"
                )
            if rank == len(paths) - 1:
                count = self._scan_segment(path, active=True)
            else:
                count = self._open_sealed(start, path)
            self._segments.append((start, count))
            self.high_water = start + count

    def _open_sealed(self, start: int, path: Path) -> int:
        """Record count of a sealed segment, its every byte verified.

        A sidecar that matches the body yields the count and event-time
        state without parsing a record.  Anything else is settled by the
        per-record scan, which raises on a damaged body; after a clean
        one the sidecar is rewritten, so the next open is cheap again.
        """
        reason = None
        try:
            count, self.frontier, self.late_arrivals = _verified_seal(
                path, start)
            return count
        except FileNotFoundError:   # sealed before sidecars, or a crash
            pass                    # between the seal and its sidecar
        except (ValueError, KeyError, TypeError) as exc:
            reason = f"{type(exc).__name__}: {exc}"
        count = self._scan_segment(path, active=False)
        self.segments_rescanned += 1
        if reason is not None:
            obs_recorder.note("segment_seal_rejected", segment=path.name,
                              reason=reason)
        try:
            self._write_seal(start, count)
        except OSError:   # unwritable directory: the next open rescans
            pass
        return count

    def _write_seal(self, start: int, count: int) -> None:
        """Summarise the closed segment at ``start`` in its sidecar.

        One line, framed and checksummed like an event record; staged
        and renamed, so a crash leaves the old sidecar, none, or this one.
        """
        final = self._segment_path(start).with_suffix(_SEAL_SUFFIX)
        staging = final.with_name(final.name + ".tmp")
        with open(staging, "wb") as handle:
            handle.write(_format_record(json.dumps({
                "first_offset": start, "count": count,
                "body_bytes": self._body_bytes, "body_crc": self._body_crc,
                "frontier": self.frontier,
                "late_arrivals": self.late_arrivals,
            })))
            if self.fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(staging, final)

    def _scan_segment(self, path: Path, active: bool) -> int:
        """Replay one segment's framing, folding event-time stats.

        Returns the record count and leaves the length and CRC32 of the
        bytes it kept in ``_body_bytes`` / ``_body_crc``.  In the active
        segment a torn *final* record is truncated away; any other
        framing failure raises.
        """
        count = 0
        good_bytes = 0
        crc = 0
        with open(path, "rb") as handle:
            while True:
                line = handle.readline()
                if not line:
                    break
                try:
                    payload = _parse_record(line)
                    event = decode_event(payload)
                except LogCorruptionError:
                    raise
                except ValueError as exc:
                    if active and not handle.readline():  # torn final record
                        break
                    raise LogCorruptionError(
                        f"{path.name}: corrupt record {count}: {exc}"
                    )
                self._fold_event_time(event)
                count += 1
                good_bytes += len(line)
                crc = zlib.crc32(line, crc)
        self._body_bytes, self._body_crc = good_bytes, crc
        if good_bytes < path.stat().st_size:
            with open(path, "r+b") as handle:
                handle.truncate(good_bytes)
            self.torn_records_truncated += 1
            obs_recorder.note("torn_tail_truncated", segment=path.name,
                              kept_records=count, kept_bytes=good_bytes)
        return count

    def _fold_event_time(self, event: ShopEvent) -> None:
        month = int(event.month)
        if month < self.frontier:
            self.late_arrivals += 1
        else:
            self.frontier = month

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def _active_handle(self):
        if self._handle is None:
            if not self._segments:
                self._segments.append((0, 0))
            start, _count = self._segments[-1]
            self._handle = open(self._segment_path(start), "ab")
            self._closed = False
        return self._handle

    def append(self, event: ShopEvent) -> int:
        """Durably record one event; returns its log offset."""
        if not isinstance(event, ShopEvent):
            raise TypeError(f"not a ShopEvent: {event!r}")
        start, count = self._segments[-1] if self._segments else (0, 0)
        if self._segments and count >= self.segment_events:
            self.seal()
            start, count = self._segments[-1]
        handle = self._active_handle()
        record = _format_record(encode_event(event))
        handle.write(record)
        handle.flush()
        if self.fsync:
            os.fsync(handle.fileno())
        self._body_bytes += len(record)
        self._body_crc = zlib.crc32(record, self._body_crc)
        self._segments[-1] = (start, count + 1)
        offset = self.high_water
        self.high_water += 1
        self._fold_event_time(event)
        return offset

    def extend(self, events: Iterable[ShopEvent]) -> None:
        """Durably record several events in order."""
        for event in events:
            self.append(event)

    def seal(self) -> None:
        """Close the active segment and start an empty successor.

        Sealed segments are immutable from here on: any framing failure
        inside one is treated as corruption, never as a torn tail.  The
        sidecar lands before the successor is registered, so an
        ``OSError`` from writing it leaves the seal to be retried by the
        next append.
        """
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        if self._segments and self._segments[-1][1]:   # not an empty one
            self._write_seal(*self._segments[-1])
        self._body_bytes = self._body_crc = 0
        self._segments.append((self.high_water, 0))

    def sync(self) -> None:
        """Flush (and fsync, if enabled) the active segment."""
        if self._handle is not None:
            self._handle.flush()
            if self.fsync:
                os.fsync(self._handle.fileno())

    def close(self) -> None:
        """Release the active segment's file handle."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self._closed = True

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` ran with no append reopening it since.

        The liveness signal :func:`repro.obs.health.durable_probe`
        reads: a closed journal is one its owner shut down — appends
        *would* lazily reopen it, but nothing is writing.
        """
        return self._closed

    def __enter__(self) -> "DurableEventLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def segments(self) -> List[Tuple[int, int]]:
        """``(first_offset, record_count)`` per segment, oldest first."""
        if not self._segments:
            return []
        return [
            (start, count) for start, count in self._segments
            if count > 0 or (start, count) == self._segments[-1]
        ]

    def since(self, offset: int) -> Iterator[ShopEvent]:
        """Stream events from ``offset`` on, one record at a time.

        This is the bounded-memory replay path: recovery from a
        checkpoint at offset *k* iterates ``since(k)`` without ever
        holding more than one record in memory.  CRC and framing are
        re-checked on every read.
        """
        if offset < 0:
            raise ValueError(f"offset must be non-negative, got {offset}")
        self.sync()
        for start, count in self._segments:
            if count == 0 or start + count <= offset:
                continue
            skip = max(offset - start, 0)
            index = -1
            with open(self._segment_path(start), "rb") as handle:
                for index, line in enumerate(islice(handle, count)):
                    if index < skip:
                        continue
                    try:
                        payload = _parse_record(line)
                    except ValueError as exc:
                        raise LogCorruptionError(
                            f"segment at {start}: corrupt record "
                            f"{index}: {exc}"
                        )
                    yield decode_event(payload)
            if index + 1 < count:
                raise LogCorruptionError(
                    f"segment at {start}: holds {index + 1} records, "
                    f"{count - index - 1} short of its {count}"
                )

    def __iter__(self) -> Iterator[ShopEvent]:
        return self.since(0)

    def __len__(self) -> int:
        return self.high_water
