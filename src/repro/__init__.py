"""Reproduction of *Gaia: Graph Neural Network with Temporal Shift aware
Attention for Gross Merchandise Value Forecast in E-commerce* (ICDE 2022).

Quickstart::

    from repro import (
        MarketplaceConfig, build_marketplace, build_dataset,
        Gaia, GaiaConfig, Trainer, TrainConfig,
    )

    market = build_marketplace(MarketplaceConfig(num_shops=200))
    dataset = build_dataset(market)
    model = Gaia(GaiaConfig(static_dim=dataset.static_dim))
    trainer = Trainer(model, dataset, TrainConfig(epochs=100))
    trainer.fit()
    print(trainer.evaluate())

Subpackages
-----------
``repro.nn``
    From-scratch numpy autograd / layers / optimizers.
``repro.graph``
    E-seller graph structure, generators, sampling.
``repro.data``
    Marketplace database, simulator, extractors, datasets.
``repro.core``
    The Gaia model: FFL, TEL, CAU, ITA-GCN, ablation variants.
``repro.baselines``
    All eight compared methods from Table I.
``repro.training``
    Trainer, ParallelTrainer (gradient accumulation over owner
    blocks), metrics, grid search.
``repro.partition``
    Graph partitioning: edge-cut partitioners (greedy BFS / label
    propagation, hash baseline) deciding which loss rows share a
    training forward.
``repro.deploy``
    Monthly pipeline (optionally sharded via ``n_shards``), model
    registry, online/offline serving.
``repro.serving``
    Serving at scale: the high-throughput gateway — micro-batched
    node-disjoint ego-subgraph scoring, LRU subgraph/result caches,
    whole-model hot swaps on publish, admission, metrics, load
    generation.
``repro.streaming``
    Streaming marketplace: replayable event log, delta-overlay
    :class:`~repro.streaming.DynamicGraph` with compaction equal to a
    cold rebuild, event-fed feature store, churn simulator; feeds
    delta-aware cache invalidation in ``repro.serving`` and online
    drift adaptation in ``repro.training``.
``repro.analysis`` / ``repro.experiments``
    Figure analytics and per-table/figure experiment drivers.

Serving at scale
----------------
Wrap any trained model (or a :class:`~repro.deploy.model_server.ModelRegistry`)
in a :class:`~repro.serving.ServingGateway` to serve heavy request
traffic: concurrent per-shop requests coalesce into one model forward
per micro-batch, repeated requests hit an LRU result cache invalidated
on model publishes, and the model hot-swaps weights without dropping
requests — all while producing forecasts numerically equal to the
sequential :class:`~repro.deploy.OnlineModelServer` path.  See
``examples/serving_gateway.py``.
"""

from .baselines import ABLATION_METHODS, TABLE1_METHODS, BaselineConfig, create_model
from .core import Gaia, GaiaConfig, build_gaia_variant
from .data import (
    ForecastDataset,
    InstanceBatch,
    MarketplaceConfig,
    MarketplaceDatabase,
    SyntheticMarketplace,
    build_dataset,
    build_marketplace,
)
from .partition import GraphPartition, partition_graph
from .serving import GatewayConfig, LoadGenerator, ServingGateway
from .streaming import (
    DynamicGraph,
    EventLog,
    MarketplaceSimulator,
    StreamingFeatureStore,
)
from .training import (
    OnlineAdapter,
    OnlineAdapterConfig,
    ParallelTrainer,
    TrainConfig,
    Trainer,
    evaluate_forecast,
)

__version__ = "1.2.0"

__all__ = [
    "__version__",
    "MarketplaceConfig",
    "MarketplaceDatabase",
    "SyntheticMarketplace",
    "build_marketplace",
    "build_dataset",
    "ForecastDataset",
    "InstanceBatch",
    "Gaia",
    "GaiaConfig",
    "build_gaia_variant",
    "BaselineConfig",
    "create_model",
    "TABLE1_METHODS",
    "ABLATION_METHODS",
    "Trainer",
    "ParallelTrainer",
    "TrainConfig",
    "evaluate_forecast",
    "GraphPartition",
    "partition_graph",
    "ServingGateway",
    "GatewayConfig",
    "LoadGenerator",
    "DynamicGraph",
    "EventLog",
    "MarketplaceSimulator",
    "StreamingFeatureStore",
    "OnlineAdapter",
    "OnlineAdapterConfig",
]
