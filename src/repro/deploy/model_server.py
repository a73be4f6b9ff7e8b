"""Model server: versioned storage for trained Gaia models (Fig 5).

The deployed system keeps an *offline* model server (bulk monthly
scoring of existing e-sellers) and an *online* one (real-time scoring of
newcoming e-sellers from their ego-subgraph).  Both read the same
versioned registry populated by the offline training pipeline.

Serving at scale: the registry is also the coordination point for hot
model swaps — the :class:`~repro.serving.gateway.ServingGateway`
subscribes via :meth:`ModelRegistry.subscribe`, and every ``publish``
triggers a whole-model weight reload plus result-cache invalidation
without dropping parked requests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from ..nn.module import Module
from ..obs import clock as obs_clock

__all__ = ["ModelVersion", "ModelRegistry"]


@dataclass
class ModelVersion:
    """One published model version; ``state`` is its float64 weights."""

    version: int
    state: Dict[str, np.ndarray]
    trained_at_month: int
    metadata: Dict[str, float] = field(default_factory=dict)
    published_at: float = field(default_factory=obs_clock.wall_time)


class ModelRegistry:
    """Append-only registry of published model versions."""

    def __init__(self) -> None:
        self._versions: List[ModelVersion] = []
        self._subscribers: List[Callable[[ModelVersion], None]] = []

    def publish(self, model: Module, trained_at_month: int,
                metadata: Optional[Dict[str, float]] = None) -> ModelVersion:
        """Snapshot a trained model's weights as a new version.

        The stored state is deep-copied here rather than trusting
        ``state_dict`` implementations to copy, so continued training of
        ``model`` can never mutate an already-published version.
        Subscribers are notified after the version is queryable.
        """
        version = ModelVersion(
            version=len(self._versions) + 1,
            state={
                name: np.array(value, dtype=np.float64, copy=True)
                for name, value in model.state_dict().items()
            },
            trained_at_month=trained_at_month,
            metadata=dict(metadata or {}),
        )
        self._versions.append(version)
        for callback in list(self._subscribers):
            callback(version)
        return version

    def subscribe(self, callback: Callable[[ModelVersion], None]) -> None:
        """Register a callback invoked after every successful publish."""
        self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[ModelVersion], None]) -> None:
        """Remove a previously registered publish callback."""
        self._subscribers.remove(callback)

    @property
    def num_versions(self) -> int:
        """Number of published versions."""
        return len(self._versions)

    def health(self) -> Dict[str, object]:
        """Registry liveness view for the health plane.

        A registry with zero versions cannot serve (every weight load
        would fail), so ``servable`` gates liveness in
        :func:`repro.obs.health.registry_probe`.
        """
        latest = self._versions[-1] if self._versions else None
        return {
            "servable": bool(self._versions),
            "num_versions": len(self._versions),
            "latest_version": 0 if latest is None else latest.version,
            "published_at": None if latest is None else latest.published_at,
            "trained_at_month": (None if latest is None
                                 else latest.trained_at_month),
            "subscribers": len(self._subscribers),
        }

    def latest(self) -> ModelVersion:
        """Most recently published version."""
        if not self._versions:
            raise LookupError("no model versions published yet")
        return self._versions[-1]

    def get(self, version: int) -> ModelVersion:
        """Fetch a specific version (1-based)."""
        if not 1 <= version <= len(self._versions):
            raise LookupError(f"unknown model version {version}")
        return self._versions[version - 1]

    def load_into(self, model: Module,
                  version: Optional[int] = None) -> ModelVersion:
        """Restore a version's weights into a compatible model instance."""
        record = self.latest() if version is None else self.get(version)
        model.load_state_dict(record.state)
        return record
