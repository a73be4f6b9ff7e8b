"""LRU caches for the serving gateway.

Two cache planes sit in front of the gateway's model:

* :class:`SubgraphCache` — extracted ego-subgraphs keyed on
  ``(shop_index, hops)`` (of a model that declares no receptive depth).
  Invalidated either wholesale (graph epoch
  bump, the conservative fallback) or **delta-aware**: given the node
  frontier a mutation touched, only entries whose memoised node sets
  contain one of its nodes are evicted — sound because a k-hop ball can
  only change when an edge event touches a node already inside it.
* :class:`ResultCache` — finished raw-unit forecasts keyed on
  ``(shop_index, model_version)``.  Entries for superseded model
  versions are purged when the
  :class:`~repro.deploy.model_server.ModelRegistry` publishes (so a hot
  swap can never serve stale numbers); each entry also records the
  rows its forward read, enabling the same delta-aware eviction (what a
  forward reads changes only through an edge into one of them), plus
  its **data provenance** (the feature store's
  event-time frontier and tick sequence at compute time) so the gateway
  can expire forecasts on data freshness — a stale-month entry is
  evicted or served with a staleness tag, governed by
  ``GatewayConfig(max_staleness_months=...)``.

Both planes are thin policies over one generic :class:`LRUCache`.  It
counts capacity evictions and nothing else: hits and misses are what
the gateway served, so its ``cache_hits`` / ``cache_misses`` counters
are the one count of them (an entry expired at lookup time is a miss
there and nowhere else).

**Delta invalidation is an index lookup, not a scan.**  The LRU keeps an
inverted index ``node -> {keys of live entries whose node set holds it}``:
each plane passes its entry's node set as ``tags`` on ``put`` and the
LRU, which owns every insert and every way an entry leaves, keeps the
postings exact.  ``invalidate_nodes(touched)`` unions the postings of
the touched nodes and evicts exactly those keys.  Cost: insert
``O(|tags|)``, one topology event ``O(|touched| + evicted)`` however many
entries are cached, memory ``sum(|tags|)`` over live entries.  An entry
stored with ``nodes=None`` (unknown provenance) is evicted by every
non-empty ``touched``; an empty ``touched`` evicts nothing.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Collection, Hashable, Iterable, Optional

import numpy as np

from ..graph.sampling import EgoSubgraph

__all__ = ["LRUCache", "SubgraphCache", "ResultCache", "CachedResult"]


# Untagged entries are posted under this one private tag, so "unknown
# provenance" needs no second structure and no special removal path.
_UNKNOWN = object()
_UNTAGGED = (_UNKNOWN,)


class LRUCache:
    """Bounded mapping with least-recently-used eviction.

    ``get`` refreshes recency; ``put`` evicts the stalest entry once
    ``capacity`` is exceeded.  :attr:`evictions` counts those capacity
    evictions only and never resets: it is the cache-pressure signal,
    and explicit invalidations are not pressure.  Hits and misses are
    counted by the caller, which knows what it served.

    ``put(..., tags=...)`` posts the key in an inverted index kept exact
    on every removal path, so :meth:`invalidate_tags` never visits the
    survivors; ``invalidate_items`` / ``invalidate_if`` are full scans.

    >>> cache = LRUCache(2)
    >>> cache.put("a", 1)
    >>> cache.put("b", 2)
    >>> cache.put("c", 3)                 # capacity 2: "a" evicted
    >>> cache.get("a") is None, cache.get("c"), cache.evictions
    (True, 3, 1)
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        # key -> (value, tags): kept so every removal path can unpost.
        self._entries: "OrderedDict[Hashable, tuple]" = OrderedDict()
        # tag -> keys of the live entries posted under it (never empty).
        self._postings: "dict[Hashable, set]" = {}
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable):
        """Return the cached value or ``None``, refreshing recency."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        return entry[0]

    def put(self, key: Hashable, value,
            tags: Optional[Iterable[Hashable]] = None) -> None:
        """Insert/refresh an entry, evicting the LRU one when full.

        ``tags`` posts the entry for :meth:`invalidate_tags` (``None``:
        unknown provenance); an overwrite replaces the key's postings.
        """
        old = self._entries.get(key)
        if old is not None:
            self._entries.move_to_end(key)
            self._unpost(key, old[1])
        # A tuple, not a set: smaller, and nothing for the cyclic GC to
        # track on the insert path.  Tags may therefore repeat.
        tags = _UNTAGGED if tags is None else tuple(tags)
        self._entries[key] = (value, tags)
        for tag in tags:
            keys = self._postings.get(tag)
            if keys is None:
                self._postings[tag] = {key}
            else:
                keys.add(key)
        if len(self._entries) > self.capacity:
            stalest, (_, stale_tags) = self._entries.popitem(last=False)
            self._unpost(stalest, stale_tags)
            self.evictions += 1

    def _unpost(self, key: Hashable, tags: tuple) -> None:
        """Remove a departing entry's postings; drop emptied posting sets."""
        for tag in tags:
            keys = self._postings.get(tag)     # None: a repeated tag
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._postings[tag]

    def _drop(self, doomed) -> int:
        """Evict ``doomed`` keys; returns how many went."""
        for key in doomed:
            self._unpost(key, self._entries.pop(key)[1])
        return len(doomed)

    def invalidate_if(self, predicate: Callable[[Hashable], bool]) -> int:
        """Drop every entry whose *key* satisfies ``predicate``."""
        return self.invalidate_items(lambda key, _value: predicate(key))

    def invalidate_items(
        self, predicate: Callable[[Hashable, object], bool]
    ) -> int:
        """Drop every entry whose ``(key, value)`` satisfies ``predicate``.

        A full scan, for the rare value predicates that are not
        tag-shaped (freshness expiry on a frontier advance).
        """
        return self._drop([key for key, (value, _) in self._entries.items()
                           if predicate(key, value)])

    def invalidate_tags(self, tags: Collection[Hashable]) -> int:
        """Drop every entry posted under any of ``tags``; no scan.

        A posting-list lookup: ``O(len(tags) + evicted)`` whatever the
        cache holds.  Entries stored with ``tags=None`` are of unknown
        provenance and go with every non-empty ``tags``; an empty
        ``tags`` is a no-op.

        >>> cache = LRUCache(8)
        >>> cache.put("a", 1, tags=[3, 4])
        >>> cache.put("b", 2, tags=[5])
        >>> cache.invalidate_tags([4, 9]), "a" in cache, "b" in cache
        (1, False, True)
        """
        if not tags:
            return 0
        doomed = set(self._postings.get(_UNKNOWN, ()))
        for tag in tags:
            doomed.update(self._postings.get(tag, ()))
        return self._drop(doomed)

    def discard(self, key: Hashable) -> bool:
        """Drop one entry if present; returns whether it existed."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self._unpost(key, entry[1])
        return True

    def clear(self) -> int:
        """Drop all entries, returning how many were held."""
        dropped = len(self._entries)
        self._entries.clear()
        self._postings.clear()
        return dropped


def _node_tags(nodes) -> list:
    """Node ids as plain ints: one conversion, no per-node numpy calls."""
    return np.asarray(nodes, dtype=np.int64).ravel().tolist()


class SubgraphCache:
    """LRU cache of extracted ego-subgraphs.

    Two invalidation granularities:

    * :meth:`invalidate_graph` — epoch bump, drop everything.  The
      fallback when the mutation's blast radius is unknown (e.g. the
      whole dataset was swapped).
    * :meth:`invalidate_nodes` — delta-aware: given the node frontier a
      mutation touched (edge endpoints / added shops), evict only
      entries whose ego node sets contain one of them.  Sound because a
      k-hop ball changes only if the mutation touches a node at distance
      ``< k`` — which is itself inside the cached node set.  The ego's
      nodes are the entry's index tags: ``O(|touched| + evicted)``.
    """

    def __init__(self, capacity: int = 1024) -> None:
        self._lru = LRUCache(capacity)
        self.epoch = 0

    def get(self, shop_index: int, hops: int) -> Optional[EgoSubgraph]:
        """Cached ego-subgraph for ``(shop_index, hops)``, if present."""
        return self._lru.get((shop_index, hops))

    def put(self, shop_index: int, hops: int, ego: EgoSubgraph) -> None:
        """Memoise one extracted ego-subgraph."""
        self._lru.put((shop_index, hops), ego, tags=_node_tags(ego.nodes))

    def invalidate_graph(self) -> int:
        """Graph mutated opaquely: advance the epoch, drop every entry."""
        self.epoch += 1
        return self._lru.clear()

    def invalidate_nodes(self, touched: np.ndarray) -> int:
        """Delta-aware eviction: drop entries whose ego meets ``touched``.

        Returns how many entries were evicted; everything else — the
        point of the exercise — survives the mutation, unvisited.
        """
        return self._lru.invalidate_tags(_node_tags(touched))

    @property
    def stats(self) -> LRUCache:
        """Underlying LRU (evictions / len)."""
        return self._lru

    def __len__(self) -> int:
        return len(self._lru)


@dataclass(frozen=True)
class CachedResult:
    """One memoised finished forecast.

    ``nodes`` records the host rows the forecast's forward read, so
    graph-delta invalidation can decide whether a mutation could have
    changed it.  ``data_month`` / ``tick_seq``
    record the attached feature store's event-time frontier and global
    tick sequence at compute time (``-1`` when no store was attached):
    the freshness check compares them against the store's current state
    to decide whether fresher sales data has landed in one of those
    rows since it was computed.
    """

    forecast: np.ndarray
    subgraph_nodes: int
    nodes: Optional[np.ndarray] = None
    data_month: int = -1
    tick_seq: int = -1


class ResultCache:
    """LRU cache of finished forecasts keyed by model version.

    Keys are ``(shop_index, model_version)``; because the version
    participates in the key, a swapped-in model can never read a
    predecessor's numbers even before the purge runs.  Graph churn is
    handled like the subgraph plane: wholesale :meth:`clear` or
    delta-aware :meth:`invalidate_nodes` through the same inverted index
    (each entry is posted under its recorded node set; an entry stored
    with ``nodes=None`` goes with every non-empty frontier).
    """

    def __init__(self, capacity: int = 4096) -> None:
        self._lru = LRUCache(capacity)

    def get(self, shop_index: int,
            model_version: int) -> Optional[CachedResult]:
        """Cached result, if present."""
        return self._lru.get((shop_index, model_version))

    def put(self, shop_index: int, model_version: int,
            forecast: np.ndarray, subgraph_nodes: int,
            nodes: Optional[np.ndarray] = None,
            data_month: int = -1, tick_seq: int = -1) -> None:
        """Memoise one finished forecast (stored as an immutable copy)."""
        value = np.asarray(forecast).copy()
        value.setflags(write=False)
        self._lru.put(
            (shop_index, model_version),
            CachedResult(
                forecast=value,
                subgraph_nodes=int(subgraph_nodes),
                nodes=None if nodes is None
                else np.asarray(nodes, dtype=np.int64),
                data_month=int(data_month),
                tick_seq=int(tick_seq),
            ),
            tags=None if nodes is None else _node_tags(nodes),
        )

    def discard(self, shop_index: int, model_version: int) -> bool:
        """Drop one entry (found expired at lookup time); whether it existed."""
        return self._lru.discard((shop_index, model_version))

    def expire_older_than(self, min_data_month: int) -> int:
        """Freshness sweep: drop entries computed before ``min_data_month``.

        Driven by the gateway's tick subscription when the event-time
        frontier advances: any forecast whose ``data_month`` provenance
        (including the unknown ``-1``) now trails the staleness budget
        is expired wholesale.  Returns how many entries were evicted.
        """
        return self._lru.invalidate_items(
            lambda _key, result: result.data_month < min_data_month
        )

    def invalidate_versions_other_than(self, model_version: int) -> int:
        """Purge entries for every version except the one now serving."""
        return self._lru.invalidate_if(lambda key: key[1] != model_version)

    def invalidate_nodes(self, touched: np.ndarray) -> int:
        """Delta-aware eviction: drop results whose subgraphs were touched."""
        return self._lru.invalidate_tags(_node_tags(touched))

    def clear(self) -> int:
        """Drop all entries."""
        return self._lru.clear()

    @property
    def stats(self) -> LRUCache:
        """Underlying LRU (evictions / len)."""
        return self._lru

    def __len__(self) -> int:
        return len(self._lru)
