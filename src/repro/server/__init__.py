"""Server layer: per-client fix tracking.

The central server's suppression and synthesis stages run inside
:class:`repro.api.ArrayTrackService`.
"""

from repro.server.tracker import ClientTracker, TrackerConfig, TrackPoint

__all__ = ["ClientTracker", "TrackerConfig", "TrackPoint"]
