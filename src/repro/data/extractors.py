"""Feature and relation extractors — the boxes in the paper's Fig 5.

The deployment diagram names a *GMV Series Extractor*, *Temporal Feature
Extractor*, *Static Feature Extractor*, *Node Feature Extractor* and
*Relation Extractor* feeding an *E-Seller Graph Builder*.  Each class
here is one of those boxes, reading from the
:class:`~repro.data.database.MarketplaceDatabase` and emitting dense
numpy blocks in the dense shop-key order of the database.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..graph.graph import EdgeType, ESellerGraph
from .database import MarketplaceDatabase
from .schema import INDUSTRIES, REGIONS
from .synthetic import TIMELINE_START_CALENDAR_MONTH

__all__ = [
    "GMVSeriesExtractor",
    "TemporalFeatureExtractor",
    "StaticFeatureExtractor",
    "NodeFeatureExtractor",
    "RelationExtractor",
    "ESellerGraphBuilder",
    "NodeFeatures",
    "temporal_block",
    "static_block",
]

_RELATION_CODES = {
    "supply_chain": EdgeType.SUPPLY_CHAIN,
    "same_owner": EdgeType.SAME_OWNER,
    "same_shareholder": EdgeType.SAME_SHAREHOLDER,
}


def temporal_block(first_month: int, orders: np.ndarray,
                   customers: np.ndarray) -> np.ndarray:
    """``(S, M, 4)`` temporal features of months ``first_month + m``.

    The month as a cyclical (sin, cos) pair, then ``log1p`` of the
    ``(S, M)`` order and customer counts.  The one formula behind
    :class:`TemporalFeatureExtractor` and the streaming feature store.
    """
    num_shops, num_months = np.shape(orders)
    months = first_month + np.arange(num_months)
    calendar = (TIMELINE_START_CALENDAR_MONTH + months) % 12
    angle = 2.0 * np.pi * calendar / 12.0
    features = np.zeros((num_shops, num_months, TemporalFeatureExtractor.DIM),
                        dtype=np.float64)
    features[:, :, 0] = np.sin(angle)[None, :]
    features[:, :, 1] = np.cos(angle)[None, :]
    features[:, :, 2] = np.log1p(orders)
    features[:, :, 3] = np.log1p(customers)
    return features


def static_block(industries: Sequence[str], regions: Sequence[str],
                 opened_month: Sequence[int],
                 timeline_months: int) -> np.ndarray:
    """``(S, DS)`` static features: one-hot industry and region, then
    the opening month over ``timeline_months``.

    An empty industry or region name (a shop not registered yet) sets
    no one-hot column.  The one layout behind
    :class:`StaticFeatureExtractor` and the streaming feature store.
    """
    features = np.zeros((len(opened_month), StaticFeatureExtractor.DIM),
                        dtype=np.float64)
    for i, (industry, region) in enumerate(zip(industries, regions)):
        if industry:
            features[i, INDUSTRIES.index(industry)] = 1.0
        if region:
            features[i, len(INDUSTRIES) + REGIONS.index(region)] = 1.0
    features[:, -1] = np.asarray(opened_month, dtype=np.int64) / timeline_months
    return features


class GMVSeriesExtractor:
    """Extract per-shop monthly GMV series from order logs.

    Produces the ``z_v`` series of the paper together with an observed
    mask (months before a shop opened are unobserved, not merely zero).
    """

    def __init__(self, database: MarketplaceDatabase) -> None:
        self._db = database

    def extract(self, first_month: int, num_months: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(gmv, observed)`` arrays of shape ``(S, num_months)``."""
        gmv = self._db.monthly_gmv_table(first_month, num_months)
        opened = np.array([s.opened_month for s in self._db.shops()])
        months = first_month + np.arange(num_months)
        observed = months[None, :] >= opened[:, None]
        return gmv, observed


class TemporalFeatureExtractor:
    """Extract auxiliary temporal features ``f^T_{v,t}``.

    Per the paper: "the month, the monthly amount of customers and
    orders".  The month enters as a cyclical (sin, cos) pair; counts are
    ``log1p``-transformed.  Feature dimension ``DT = 4``.
    """

    DIM = 4

    def __init__(self, database: MarketplaceDatabase) -> None:
        self._db = database

    def extract(self, first_month: int, num_months: int) -> np.ndarray:
        """Return features of shape ``(S, num_months, 4)``."""
        _, orders, customers = self._db.monthly_activity_table(first_month, num_months)
        return temporal_block(first_month, orders, customers)


class StaticFeatureExtractor:
    """Extract static features ``f^S_v``: industry, region, opening age.

    Industry and region are one-hot; the opening month is scaled to
    ``[0, 1]`` over the timeline.  Dimension ``DS = len(INDUSTRIES) +
    len(REGIONS) + 1``.
    """

    DIM = len(INDUSTRIES) + len(REGIONS) + 1

    def __init__(self, database: MarketplaceDatabase, timeline_months: int) -> None:
        if timeline_months <= 0:
            raise ValueError("timeline_months must be positive")
        self._db = database
        self._timeline = timeline_months

    def extract(self) -> np.ndarray:
        """Return features of shape ``(S, DS)``."""
        shops = self._db.shops()
        return static_block([shop.industry for shop in shops],
                            [shop.region for shop in shops],
                            [shop.opened_month for shop in shops],
                            self._timeline)


@dataclass
class NodeFeatures:
    """Bundle of all extracted per-node blocks."""

    gmv: np.ndarray        # (S, T)
    observed: np.ndarray   # (S, T) bool
    temporal: np.ndarray   # (S, T, DT)
    static: np.ndarray     # (S, DS)


class NodeFeatureExtractor:
    """Compose the three per-node extractors (Fig 5's node-feature box)."""

    def __init__(self, database: MarketplaceDatabase, timeline_months: int) -> None:
        self._gmv = GMVSeriesExtractor(database)
        self._temporal = TemporalFeatureExtractor(database)
        self._static = StaticFeatureExtractor(database, timeline_months)

    def extract(self, first_month: int, num_months: int) -> NodeFeatures:
        """Extract all node features for a month window."""
        gmv, observed = self._gmv.extract(first_month, num_months)
        temporal = self._temporal.extract(first_month, num_months)
        static = self._static.extract()
        return NodeFeatures(gmv=gmv, observed=observed, temporal=temporal, static=static)


class RelationExtractor:
    """Extract mined relations as edge arrays in dense shop-key order."""

    def __init__(self, database: MarketplaceDatabase) -> None:
        self._db = database

    def extract(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(src, dst, edge_types)`` index arrays."""
        src: List[int] = []
        dst: List[int] = []
        types: List[int] = []
        for rel in self._db.relations():
            src.append(self._db.shop_key(rel.src_shop))
            dst.append(self._db.shop_key(rel.dst_shop))
            types.append(_RELATION_CODES[rel.relation])
        return (
            np.asarray(src, dtype=np.int64),
            np.asarray(dst, dtype=np.int64),
            np.asarray(types, dtype=np.int64),
        )


class ESellerGraphBuilder:
    """Assemble the homogeneous e-seller graph from mined relations.

    Matches §III-B: shops are nodes, both relation families become edges
    with the relation type kept as an edge feature; message edges are
    made bidirectional so aggregation sees upstream and downstream.
    """

    def __init__(self, database: MarketplaceDatabase) -> None:
        self._db = database
        self._relation_extractor = RelationExtractor(database)

    def build(self, bidirectional: bool = True) -> ESellerGraph:
        """Build the graph (optionally adding reverse message edges)."""
        src, dst, types = self._relation_extractor.extract()
        graph = ESellerGraph(self._db.num_shops, src, dst, types)
        if bidirectional:
            graph = graph.with_reverse_edges().without_duplicate_edges()
        return graph
