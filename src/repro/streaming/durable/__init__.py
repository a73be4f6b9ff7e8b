"""The persistence plane: durable event log + checkpoint/restore.

Everything in :mod:`repro.streaming` is a pure fold over the event log
— which made crash recovery a *definition* before it was a feature:
persist the log, snapshot the fold, and a restarted process is just
"load snapshot + replay tail".  This package supplies the two halves:

* :class:`~repro.streaming.durable.log.DurableEventLog` — a file-backed
  segmented log (length-prefixed, CRC32-checked JSONL records;
  seal/rotate with a checksummed sidecar per sealed segment, so a
  reopen checksums sealed bytes instead of decoding them; torn-tail
  truncation on reopen; bounded-memory ``since(offset)`` replay).
  Attach one to an in-memory
  :class:`~repro.streaming.events.EventLog` (``EventLog(durable=...)``)
  and every event is journaled *before* it reaches any consumer.
* :mod:`~repro.streaming.durable.checkpoint` — offset-stamped snapshots
  of the DynamicGraph compacted CSR, the feature-store tables (its
  ``ticked`` evidence included), and the online adapter's EWMAs and
  adaptation history (``write_checkpoint`` / ``load_checkpoint``),
  plus :func:`~repro.streaming.durable.checkpoint.recover`,
  which rebuilds live consumers state-identical — array for array — to
  a process that never crashed (property-tested at every crash offset
  in ``tests/test_recovery.py``).

See the "persistence plane" section of ``docs/streaming.md`` and
``examples/crash_recovery.py`` for the kill-and-recover walkthrough;
``benchmarks/test_recovery_time.py`` compares checkpoint + tail
time-to-serve against a full replay in one run.
"""

from .checkpoint import (
    Checkpoint,
    CheckpointError,
    Checkpointer,
    RecoveredState,
    latest_checkpoint,
    load_checkpoint,
    recover,
    write_checkpoint,
)
from .log import (
    DurableEventLog,
    LogCorruptionError,
    decode_event,
    encode_event,
)

__all__ = [
    "DurableEventLog",
    "LogCorruptionError",
    "encode_event",
    "decode_event",
    "write_checkpoint",
    "load_checkpoint",
    "latest_checkpoint",
    "Checkpoint",
    "CheckpointError",
    "Checkpointer",
    "recover",
    "RecoveredState",
]
