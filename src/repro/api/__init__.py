"""Public service facade of the ArrayTrack reproduction.

This package is the documented entry point for applications:

* :class:`ArrayTrackConfig` -- one typed, validated, serializable
  configuration tree composing the per-layer config dataclasses;
* :class:`ArrayTrackService` -- batch localization, streaming per-client
  :class:`Session` objects, and AP-fleet wiring behind one object;
* the estimator registry -- :func:`get_estimator` /
  :func:`register_estimator` / :func:`available_estimators` /
  :func:`create_baseline` -- selecting algorithms (``music``,
  ``bartlett``, ``capon``, ``rssi``, or custom registrations) by name.

See ``docs/api.md`` for the full guide.
"""

from repro.api.config import (
    ArrayTrackConfig,
    ParallelConfig,
    ResilienceConfig,
    ServerConfig,
    SessionConfig,
)
from repro.core.suppression import SuppressorConfig
from repro.server.tracker import TrackerConfig
from repro.api.registry import (
    AOA,
    RSS,
    EstimatorSpec,
    available_estimators,
    create_baseline,
    get_estimator,
    register_estimator,
)
from repro.api.service import ArrayTrackService, Session

__all__ = [
    "AOA",
    "RSS",
    "ArrayTrackConfig",
    "ArrayTrackService",
    "EstimatorSpec",
    "ParallelConfig",
    "ResilienceConfig",
    "ServerConfig",
    "Session",
    "SessionConfig",
    "SuppressorConfig",
    "TrackerConfig",
    "available_estimators",
    "create_baseline",
    "get_estimator",
    "register_estimator",
]
