"""Streaming marketplace: incremental ingestion over a live e-seller graph.

The paper's deployment is a monthly batch pipeline over a static
snapshot; this package is the layer that lets the same system track a
marketplace that never stands still:

* :mod:`~repro.streaming.events` — the event model: ``ShopAdded`` /
  ``EdgeAdded`` / ``EdgeRetired`` / ``SalesTick`` in an append-only,
  deterministic, replayable :class:`~repro.streaming.events.EventLog`
  that distinguishes **event time** (the month a tick belongs to) from
  **arrival time** (its log position); it keeps no event-time state,
  the feature store below does.
* :class:`~repro.streaming.dynamic_graph.DynamicGraph` — a delta
  overlay (adjacency additions + tombstones) over the frozen
  :class:`~repro.graph.graph.ESellerGraph`, so k-hop / ego-subgraph /
  degree queries see every event immediately without per-event CSR
  rebuilds; periodic :meth:`~repro.streaming.dynamic_graph.DynamicGraph.compact`
  folds the overlay back into a base **identical** to a from-scratch
  build from the same event history (same edge order, bit-identical
  message passing).
* :class:`~repro.streaming.features.StreamingFeatureStore` — the event
  log folded into exactly the feature tables the Fig 5 extractors
  would emit, so fresh training windows equal a cold database rebuild.
  Ticks fold by event time under a configurable **watermark**: in-window
  late ticks merge into the correct month, beyond-watermark stragglers
  are dropped once and counted.  The store is the one owner of event
  time: the frontier, the watermark, the late and dropped tick counts.
* :class:`~repro.streaming.simulator.MarketplaceSimulator` — drives
  churn against the synthetic generator: cold-start arrivals, edge
  reveals/retirements and sales ticks as one precomputed deterministic
  stream.
* :mod:`~repro.streaming.durable` — the persistence plane: a
  file-backed segmented, CRC-checked event log with bounded-memory
  replay from any offset, plus offset-stamped checkpoints of every
  fold (graph / features / adapter) so crash recovery is "load
  snapshot + replay tail", property-tested state-identical to the
  never-crashed run.

Downstream, the serving gateway subscribes to
:meth:`DynamicGraph.subscribe` for **delta-aware cache invalidation**
(evict only entries whose node sets intersect the touched frontier),
and :class:`~repro.training.online.OnlineAdapter` reads the store's
``ticked`` evidence at each month close and turns drift into warm
fine-tunes hot-swapped through the model registry.  See
``examples/streaming_marketplace.py``.
"""

from . import durable
from .dynamic_graph import DynamicGraph
from .events import (
    EdgeAdded,
    EdgeHistory,
    EdgeRetired,
    EventLog,
    SalesTick,
    ShopAdded,
    ShopEvent,
    edge_history,
)
from .features import StreamingFeatureStore
from .simulator import MarketplaceSimulator

__all__ = [
    "ShopEvent",
    "ShopAdded",
    "EdgeAdded",
    "EdgeRetired",
    "SalesTick",
    "EventLog",
    "EdgeHistory",
    "edge_history",
    "DynamicGraph",
    "StreamingFeatureStore",
    "MarketplaceSimulator",
    "durable",
]
