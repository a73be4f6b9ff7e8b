"""Checkpoint/restore: snapshots of the streaming fold at a log offset.

A checkpoint freezes everything the streaming consumers have folded out
of the event log as of one offset *k*: the
:class:`~repro.streaming.dynamic_graph.DynamicGraph`'s compacted edge
arrays, the :class:`~repro.streaming.features.StreamingFeatureStore`'s
tables, ``ticked`` evidence and event-time accounting, and (optionally)
the :class:`~repro.training.online.OnlineAdapter`'s drift EWMAs and
adaptation history.  Recovery is then *load snapshot + replay the tail*
``log.since(k)`` — the same replay-equivalence discipline the streaming
subsystem is property-tested on, extended across a process boundary:
the recovered state must be array-for-array identical to a process that
never crashed.

On disk a checkpoint is one directory (``ckpt-<offset>``) holding:

* ``arrays.npz`` — every numeric array, saved uncompressed; and
* ``manifest.json`` — offset, component list, scalar counters, the
  shop metadata strings, and the SHA-256 of ``arrays.npz`` (so a
  half-written or bit-rotted snapshot is rejected at load, mirroring
  the log's CRC story).

The store and adapter components are written from their
``state_dict()`` by one rule: an ndarray value goes to ``arrays.npz``
as ``<component>_<key>``, everything else to the manifest under the
component's name.  A snapshot of another ``format_version`` is
rejected, and :func:`recover` falls back past it.

Checkpoints are written atomically (staged under a temporary name,
renamed into place), so a crash *during* checkpointing leaves either
the previous checkpoint or a complete new one — never a loadable
half-state.  :func:`latest_checkpoint` picks the newest complete
snapshot; :func:`recover` glues the whole story together.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, List, Optional

import numpy as np

from ...graph.graph import ESellerGraph
from ...obs import recorder as obs_recorder
from ..dynamic_graph import DynamicGraph
from ..events import ShopEvent
from ..features import StreamingFeatureStore

__all__ = [
    "CheckpointError",
    "write_checkpoint",
    "Checkpoint",
    "load_checkpoint",
    "latest_checkpoint",
    "recover",
    "RecoveredState",
    "Checkpointer",
]

_CKPT_PREFIX = "ckpt-"
_STAGING_SUFFIX = ".tmp"
_FORMAT_VERSION = 2


class CheckpointError(RuntimeError):
    """A checkpoint directory failed its integrity or format checks."""


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_checkpoint(
    directory,
    offset: int,
    dynamic_graph: Optional[DynamicGraph] = None,
    store: Optional[StreamingFeatureStore] = None,
    adapter=None,
) -> Path:
    """Snapshot the streaming fold state as of log offset ``offset``.

    ``dynamic_graph`` has its pending deltas folded first
    (:meth:`~repro.streaming.dynamic_graph.DynamicGraph.as_graph`:
    compaction is property-tested array-identical to a cold rebuild, so
    this never changes observable state, and a quiet graph keeps its
    base and that base's CSR index) and its base edge arrays are what
    lands on disk.  ``adapter`` is any object with the
    :class:`~repro.training.online.OnlineAdapter` ``state_dict()``
    contract.  Returns the checkpoint directory path.
    """
    if offset < 0:
        raise ValueError(f"offset must be non-negative, got {offset}")
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    final = root / f"{_CKPT_PREFIX}{int(offset):020d}"
    staging = root / (final.name + _STAGING_SUFFIX)
    if staging.exists():
        shutil.rmtree(staging)
    staging.mkdir()

    arrays = {}
    manifest = {
        "format_version": _FORMAT_VERSION,
        "offset": int(offset),
        "components": [],
    }
    if dynamic_graph is not None:
        base = dynamic_graph.as_graph()
        arrays["graph_src"] = base.src
        arrays["graph_dst"] = base.dst
        arrays["graph_edge_types"] = base.edge_types
        manifest["components"].append("graph")
        manifest["graph"] = {
            "num_nodes": int(base.num_nodes),
            "events_applied": int(dynamic_graph.events_applied),
        }
    for name, component in (("store", store), ("adapter", adapter)):
        if component is None:
            continue
        manifest["components"].append(name)
        manifest[name] = {}
        for key, value in component.state_dict().items():
            if isinstance(value, np.ndarray):
                arrays[f"{name}_{key}"] = value
            else:
                manifest[name][key] = value

    arrays_path = staging / "arrays.npz"
    np.savez(arrays_path, **arrays)
    manifest["arrays_sha256"] = _sha256(arrays_path)
    with open(staging / "manifest.json", "w") as handle:
        json.dump(manifest, handle, indent=1, sort_keys=True)
    if final.exists():
        shutil.rmtree(final)
    staging.rename(final)
    return final


@dataclass
class Checkpoint:
    """A loaded, integrity-verified snapshot (see :func:`load_checkpoint`).

    Builders return *fresh* consumers — no subscribers, cold caches —
    positioned exactly where the snapshotted ones stood at
    :attr:`offset`; replaying ``log.since(offset)`` through them
    continues the fold as if the process never died.
    """

    path: Path
    offset: int
    manifest: dict
    arrays: dict = field(repr=False)

    @property
    def components(self) -> List[str]:
        """Which consumers this snapshot covers (``graph``/``store``/``adapter``)."""
        return list(self.manifest["components"])

    def _require(self, component: str) -> None:
        if component not in self.manifest["components"]:
            raise CheckpointError(
                f"checkpoint {self.path.name} has no {component!r} component"
            )

    def graph(self) -> ESellerGraph:
        """The snapshotted compacted base graph."""
        self._require("graph")
        return ESellerGraph(
            self.manifest["graph"]["num_nodes"],
            self.arrays["graph_src"],
            self.arrays["graph_dst"],
            self.arrays["graph_edge_types"],
        )

    def build_dynamic_graph(self, **kwargs) -> DynamicGraph:
        """A fresh :class:`DynamicGraph` over the snapshotted base.

        ``kwargs`` forward to the constructor (compaction thresholds);
        the restored overlay is empty, exactly as after the compaction
        that preceded the snapshot.
        """
        dyn = DynamicGraph(self.graph(), **kwargs)
        dyn.events_applied = int(self.manifest["graph"]["events_applied"])
        return dyn

    def _state(self, component: str) -> dict:
        """The component's ``state_dict()``: manifest entries + arrays."""
        self._require(component)
        prefix = f"{component}_"
        return {**self.manifest[component],
                **{name[len(prefix):]: array
                   for name, array in self.arrays.items()
                   if name.startswith(prefix)}}

    def build_store(self) -> StreamingFeatureStore:
        """A fresh :class:`StreamingFeatureStore` holding the snapshotted fold."""
        return StreamingFeatureStore.from_state(self._state("store"))

    def restore_adapter(self, adapter) -> None:
        """Overwrite ``adapter``'s month-close state with the snapshotted one.

        The adapter itself is constructed by the caller (it needs live
        model/registry/store/graph handles); this puts back its drift
        EWMAs and adaptation history.
        """
        adapter.load_state_dict(self._state("adapter"))


def load_checkpoint(path) -> Checkpoint:
    """Load and integrity-verify one checkpoint directory."""
    path = Path(path)
    manifest_path = path / "manifest.json"
    arrays_path = path / "arrays.npz"
    if not manifest_path.is_file() or not arrays_path.is_file():
        raise CheckpointError(f"incomplete checkpoint: {path}")
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    if manifest.get("format_version") != _FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint format: {manifest.get('format_version')}"
        )
    digest = _sha256(arrays_path)
    if digest != manifest.get("arrays_sha256"):
        raise CheckpointError(
            f"checkpoint {path.name}: arrays.npz SHA-256 mismatch "
            "(half-written or corrupted snapshot)"
        )
    with np.load(arrays_path) as bundle:
        arrays = {name: bundle[name] for name in bundle.files}
    return Checkpoint(path=path, offset=int(manifest["offset"]),
                      manifest=manifest, arrays=arrays)


def _checkpoints(directory, max_offset: Optional[int] = None) -> List[Path]:
    """Complete checkpoints under ``directory`` (≤ an offset), newest first."""
    root = Path(directory)
    if not root.is_dir():
        return []
    found = []
    for path in root.iterdir():
        if not path.is_dir() or not path.name.startswith(_CKPT_PREFIX) \
                or path.name.endswith(_STAGING_SUFFIX):
            continue
        try:
            offset = int(path.name[len(_CKPT_PREFIX):])
        except ValueError:
            continue
        if max_offset is None or offset <= max_offset:
            found.append((offset, path))
    return [path for _offset, path in sorted(found, reverse=True)]


def latest_checkpoint(directory, max_offset: Optional[int] = None
                      ) -> Optional[Path]:
    """Newest complete checkpoint under ``directory`` (optionally ≤ an offset).

    Staging directories (interrupted writes) are ignored — atomic rename
    means only complete snapshots ever carry the final name.  Returns
    ``None`` when no usable checkpoint exists.
    """
    return next(iter(_checkpoints(directory, max_offset)), None)


@dataclass
class RecoveredState:
    """What :func:`recover` hands back: live consumers at the log head."""

    #: Rebuilt overlay graph, tail already replayed.
    dynamic_graph: DynamicGraph
    #: Rebuilt feature store, tail already replayed.
    store: StreamingFeatureStore
    #: Offset the snapshot covered (0 for a cold, checkpoint-less start).
    checkpoint_offset: int
    #: Tail events replayed on top of the snapshot.
    replayed_events: int
    #: The recovered process's new log head.
    high_water: int

    def serving_batch(self, dataset, cutoff: int):
        """Assemble the post-recovery serving window at ``cutoff``.

        The durable-restore twin of
        :meth:`~repro.streaming.features.StreamingFeatureStore.instance_batch`,
        with the same explicit guard: a recovered timeline too short for
        a full input window raises instead of silently padding — a
        checkpoint taken early in the stream must not serve windows the
        never-crashed process would have refused.
        """
        if cutoff < int(dataset.input_window):
            raise ValueError(
                f"recovered cutoff {cutoff} is shorter than the input "
                f"window {dataset.input_window}"
            )
        return self.store.instance_batch(
            cutoff,
            dataset.input_window,
            dataset.horizon,
            dataset.scaler,
            dataset.temporal_scaler,
        )


def recover(
    log,
    checkpoint_dir,
    base_graph: Optional[ESellerGraph] = None,
    store_factory=None,
    adapter=None,
    graph_kwargs: Optional[dict] = None,
) -> RecoveredState:
    """Restore the streaming fold: newest snapshot + replay the log tail.

    Parameters
    ----------
    log:
        A :class:`~repro.streaming.durable.DurableEventLog` (anything
        with ``since(offset)`` and ``high_water``).
    checkpoint_dir:
        Where :func:`write_checkpoint` snapshots live.  A snapshot that
        fails to load (SHA-256 mismatch, missing or truncated file) is
        noted (``checkpoint_rejected``) and the next older one tried.
        When none loads, recovery cold-starts from offset 0 —
        ``base_graph`` and ``store_factory`` (a zero-argument callable
        returning an empty :class:`StreamingFeatureStore`) must then be
        provided, else the last load error (if any) is raised.
    adapter:
        Optional live :class:`~repro.training.online.OnlineAdapter`;
        its month-close state is restored from the snapshot (when
        present) and ``adapter.store`` / ``adapter.graph`` are pointed
        at the recovered consumers.  The tail is folded into the graph
        and the store only: the adapter reads its fresh evidence from
        the store.
    graph_kwargs:
        Forwarded to the rebuilt :class:`DynamicGraph`.

    The recovered consumers are state-identical — array for array — to
    a process that folded the whole log without crashing (the
    ``tests/test_recovery.py`` property).  Re-attach serving with
    ``gateway.attach_stream(state.dynamic_graph, store=state.store)``,
    which cold-starts the caches correctly.
    """
    graph_kwargs = dict(graph_kwargs or {})
    # Never restore a snapshot the log cannot reach: a checkpoint taken
    # just before a torn tail was truncated may sit *ahead* of the
    # recovered log head, and replaying "since the future" would
    # silently skip nothing while claiming the snapshotted state.
    ckpt = rejected = None
    for path in _checkpoints(checkpoint_dir, max_offset=int(log.high_water)):
        try:
            ckpt = load_checkpoint(path)
            break
        except (CheckpointError, ValueError) as exc:
            obs_recorder.note("checkpoint_rejected", path=str(path),
                              reason=str(exc))
            rejected = exc
    if ckpt is not None:
        dyn = ckpt.build_dynamic_graph(**graph_kwargs)
        store = ckpt.build_store()
        if adapter is not None and "adapter" in ckpt.components:
            ckpt.restore_adapter(adapter)
        offset = ckpt.offset
    else:
        if base_graph is None or store_factory is None:
            raise rejected or CheckpointError(
                f"no checkpoint under {checkpoint_dir} and no cold-start "
                "base_graph/store_factory provided"
            )
        dyn = DynamicGraph(base_graph, **graph_kwargs)
        store = store_factory()
        offset = 0
    if adapter is not None:
        adapter.store = store
        adapter.graph = dyn
    replayed = 0
    for event in log.since(offset):
        dyn.apply(event)
        store.apply(event)
        replayed += 1
    obs_recorder.note(
        "recovery",
        checkpoint_offset=int(offset),
        replayed_events=replayed,
        high_water=int(offset) + replayed,
        cold_start=ckpt is None,
    )
    return RecoveredState(
        dynamic_graph=dyn,
        store=store,
        checkpoint_offset=int(offset),
        replayed_events=replayed,
        high_water=int(offset) + replayed,
    )


class Checkpointer:
    """Cadence policy: snapshot every ``interval_events`` log offsets.

    The knob the recovery benchmark gates: a small interval bounds the
    replay tail (fast time-to-serve after a crash) at the cost of more
    snapshot writes.  Call :meth:`observe` after folding each event (or
    batch); it writes a checkpoint whenever the offset has advanced by
    at least the interval since the last snapshot.
    """

    def __init__(self, directory, interval_events: int,
                 dynamic_graph: Optional[DynamicGraph] = None,
                 store: Optional[StreamingFeatureStore] = None,
                 adapter=None) -> None:
        if interval_events <= 0:
            raise ValueError(
                f"interval_events must be positive, got {interval_events}"
            )
        self.directory = Path(directory)
        self.interval_events = int(interval_events)
        self.dynamic_graph = dynamic_graph
        self.store = store
        self.adapter = adapter
        self.last_offset = -1
        self.snapshots_written = 0

    def observe(self, offset: int) -> Optional[Path]:
        """Maybe snapshot at log offset ``offset``; returns the path if so."""
        if self.last_offset >= 0 \
                and offset - self.last_offset < self.interval_events:
            return None
        path = write_checkpoint(
            self.directory, offset,
            dynamic_graph=self.dynamic_graph,
            store=self.store,
            adapter=self.adapter,
        )
        self.last_offset = int(offset)
        self.snapshots_written += 1
        return path
