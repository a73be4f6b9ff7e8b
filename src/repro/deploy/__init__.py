"""Deployment simulation: monthly offline pipeline, model registry,
online/offline serving (paper §VI, Fig 5).

Serving at scale
----------------
The classes here are the *reference* serving path: one request, one
ego-subgraph, one model forward.  For heavy traffic, put the
:class:`~repro.serving.gateway.ServingGateway` (package
:mod:`repro.serving`) in front: it micro-batches concurrent requests
into node-disjoint unions of ego-subgraphs, caches subgraphs and
finished forecasts in LRU planes, and scores them with one model fed by
this package's :class:`ModelRegistry` — the registry's
``subscribe``/``publish`` hooks keep its weights and caches consistent.
:class:`OnlineModelServer` stays what the gateway is tested against:
the sequential numerics reference.
"""

from .model_server import ModelRegistry, ModelVersion
from .pipeline import MonthlyPipeline, PipelineRun
from .serving import OfflineModelServer, OnlineModelServer, PredictionResponse

__all__ = [
    "ModelRegistry",
    "ModelVersion",
    "MonthlyPipeline",
    "PipelineRun",
    "OnlineModelServer",
    "OfflineModelServer",
    "PredictionResponse",
]
