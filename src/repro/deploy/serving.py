"""Online / offline prediction servers (paper §VI, Fig 5).

* :class:`OfflineModelServer` bulk-scores all existing e-sellers once a
  month (full-graph forward pass).
* :class:`OnlineModelServer` answers real-time requests for a single
  (possibly newcoming) e-seller from its ego-subgraph, exactly as the
  deployed system does, and keeps per-request latency accounting so the
  paper's linear-scaling claim can be checked.

Serving at scale: :class:`OnlineModelServer` is the *sequential*
reference path — one request, one ego-subgraph, one forward — that the
micro-batching :class:`~repro.serving.gateway.ServingGateway` is tested
to match numerically.  The request log is a bounded ring buffer
(``max_log`` entries) so a long-running server's memory never grows
with traffic.
"""

from __future__ import annotations


from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

import numpy as np

from ..data.dataset import ForecastDataset, InstanceBatch
from ..graph.sampling import ego_subgraph
from ..nn.module import Module
from ..nn.tensor import no_grad
from ..obs import clock as obs_clock

__all__ = ["PredictionResponse", "OnlineModelServer", "OfflineModelServer"]

DEFAULT_MAX_REQUEST_LOG = 10_000


@dataclass
class PredictionResponse:
    """Result of one online prediction request."""

    shop_index: int
    forecast: np.ndarray
    subgraph_nodes: int
    latency_seconds: float


class OfflineModelServer:
    """Monthly bulk scoring of all existing e-sellers."""

    def __init__(self, model: Module, dataset: ForecastDataset) -> None:
        self.model = model
        self.dataset = dataset

    def predict_all(self, batch: Optional[InstanceBatch] = None) -> np.ndarray:
        """Raw-unit forecasts for every shop."""
        if batch is None:
            batch = self.dataset.test
        self.model.eval()
        with no_grad():
            scaled = self.model(batch, self.dataset.graph)
        return batch.inverse_scale(scaled.data)


class OnlineModelServer:
    """Real-time per-shop prediction from the ego-subgraph.

    Parameters
    ----------
    max_log:
        Ring-buffer capacity for the request log; the newest ``max_log``
        responses are retained for latency accounting and older ones are
        evicted, bounding memory for long-running serving.
    """

    def __init__(self, model: Module, dataset: ForecastDataset, hops: int = 2,
                 max_log: int = DEFAULT_MAX_REQUEST_LOG) -> None:
        if hops < 0:
            raise ValueError("hops must be non-negative")
        if max_log <= 0:
            raise ValueError(f"max_log must be positive, got {max_log}")
        self.model = model
        self.dataset = dataset
        self.hops = hops
        self.request_log: Deque[PredictionResponse] = deque(maxlen=max_log)
        self.total_requests = 0

    def _log(self, response: PredictionResponse) -> PredictionResponse:
        self.request_log.append(response)
        self.total_requests += 1
        return response

    def _predict_local(self, shop_index: int,
                       batch: Optional[InstanceBatch]) -> PredictionResponse:
        if batch is None:
            batch = self.dataset.test
        started = obs_clock.now()
        ego = ego_subgraph(self.dataset.graph, shop_index, hops=self.hops)
        sub_batch = batch.subset(ego.nodes)
        self.model.eval()
        with no_grad():
            scaled = self.model(sub_batch, ego.subgraph)
        raw = sub_batch.inverse_scale(scaled.data)
        latency = obs_clock.now() - started
        return self._log(PredictionResponse(
            shop_index=shop_index,
            forecast=raw[ego.center_local],
            subgraph_nodes=ego.num_nodes,
            latency_seconds=latency,
        ))

    def predict(self, shop_index: int,
                batch: Optional[InstanceBatch] = None) -> PredictionResponse:
        """Score one e-seller in real time.

        Extracts the shop's ``hops``-hop ego-subgraph, slices the batch
        to those nodes, runs the model on the subgraph only, and
        returns the center node's raw-unit forecast.
        """
        return self._predict_local(shop_index, batch)

    def predict_many(self, shop_indices: np.ndarray,
                     batch: Optional[InstanceBatch] = None) -> List[PredictionResponse]:
        """Serve a stream of requests one by one (throughput probe)."""
        return [self._predict_local(int(i), batch) for i in np.asarray(shop_indices)]

    def latency_summary(self) -> Dict[str, float]:
        """Mean / p50 / p95 latency over the retained request log.

        ``count`` is the retained-log population the statistics cover;
        ``total`` is the lifetime request count (the log is a bounded
        ring) — the same count/total split as
        :meth:`~repro.serving.metrics.RollingWindow.summary`.
        """
        # Imported here: repro.serving.gateway imports this module at its
        # top, so a module-level import would be circular.
        from ..serving.metrics import percentile_summary

        return {
            "count": float(len(self.request_log)),
            "total": float(self.total_requests),
            **percentile_summary(
                [r.latency_seconds for r in self.request_log], (50, 95)),
        }
