"""Driver for the §VI deployment experiment.

The paper deploys Gaia in Alipay's simulated online environment and
reports (i) a 29.1% MAPE improvement over the previously deployed
LogTrans (0.117 -> 0.083) and (ii) inference time scaling linearly with
the number of clients (~10 minutes for 2M e-sellers).

This driver runs the full offline-online loop on the synthetic
marketplace: monthly pipeline training -> registry publish -> online
ego-subgraph serving, then measures the Gaia-vs-LogTrans online MAPE
and the latency scaling curve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..analysis.case_study import pearson
from ..data.dataset import ForecastDataset
from ..deploy.serving import OnlineModelServer
from ..training.metrics import mape
from ..training.trainer import TrainConfig
from .runner import MethodResult, run_method

__all__ = ["DeploymentOutcome", "run_deployment"]


@dataclass
class DeploymentOutcome:
    """Online comparison + latency scaling results."""

    gaia_mape: float
    logtrans_mape: float
    improvement: float
    client_counts: List[int]
    total_seconds: List[float]
    linearity: float
    report: str
    claims: Dict[str, bool] = field(default_factory=dict)


def run_deployment(
    dataset: ForecastDataset,
    train_config: Optional[TrainConfig] = None,
    seed: int = 0,
    client_counts: Optional[List[int]] = None,
    gaia_result: Optional[MethodResult] = None,
    logtrans_result: Optional[MethodResult] = None,
) -> DeploymentOutcome:
    """Run the simulated online environment end to end."""
    gaia = gaia_result or run_method("Gaia", dataset, train_config, seed=seed,
                                     keep_trainer=True)
    logtrans = logtrans_result or run_method("LogTrans", dataset, train_config,
                                             seed=seed)
    if gaia.trainer is None:
        raise ValueError("gaia_result must be produced with keep_trainer=True")

    batch = dataset.test
    test_nodes = np.flatnonzero(dataset.active_mask(batch, "test"))

    # Online serving: every test shop scored from its ego-subgraph.
    server = OnlineModelServer(gaia.trainer.model, dataset, hops=2)
    responses = server.predict_many(test_nodes)
    online_preds = np.stack([r.forecast for r in responses])
    labels = batch.labels[test_nodes]
    gaia_mape = mape(online_preds, labels)
    logtrans_mape = mape(logtrans.predictions[test_nodes], labels)
    improvement = (logtrans_mape - gaia_mape) / logtrans_mape if logtrans_mape else 0.0

    # Latency scaling: serve k clients, record the total wall time.
    if client_counts is None:
        max_clients = len(test_nodes)
        client_counts = sorted({max(1, max_clients // 8), max_clients // 4,
                                max_clients // 2, max_clients})
    totals: List[float] = []
    for count in client_counts:
        probe = OnlineModelServer(gaia.trainer.model, dataset, hops=2)
        probe.predict_many(test_nodes[:count])
        totals.append(sum(r.latency_seconds for r in probe.request_log))
    linearity = pearson(np.asarray(client_counts, dtype=float), np.asarray(totals))

    claims = {
        "gaia_improves_online_mape": improvement > 0.0,
        "inference_scales_linearly": linearity > 0.95,
    }
    lines = [
        "Deployment (simulated online environment)",
        f"  online Gaia MAPE {gaia_mape:.4f} vs LogTrans {logtrans_mape:.4f} "
        f"-> improvement {improvement * 100:.1f}%  (paper: 0.117 -> 0.083, 29.1%)",
        "  latency scaling: "
        + ", ".join(f"{c} clients = {t * 1000:.0f} ms" for c, t in zip(client_counts, totals))
        + f"  (pearson r = {linearity:.4f}; paper: linear, 10 min / 2M sellers)",
        "claims: " + ", ".join(f"{k}={v}" for k, v in claims.items()),
    ]
    return DeploymentOutcome(
        gaia_mape=gaia_mape,
        logtrans_mape=logtrans_mape,
        improvement=improvement,
        client_counts=list(client_counts),
        total_seconds=totals,
        linearity=linearity,
        report="\n".join(lines),
        claims=claims,
    )
