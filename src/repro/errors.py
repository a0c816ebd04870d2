"""Exception hierarchy for the ArrayTrack reproduction library."""

from __future__ import annotations


class ArrayTrackError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class GeometryError(ArrayTrackError):
    """Raised for invalid geometric input (degenerate walls, bad floorplans)."""


class SignalError(ArrayTrackError):
    """Raised for invalid waveform or sampling parameters."""


class ChannelError(ArrayTrackError):
    """Raised when a propagation channel cannot be constructed or applied."""


class ArrayError(ArrayTrackError):
    """Raised for invalid antenna-array configuration or calibration input."""


class DetectionError(ArrayTrackError):
    """Raised when packet detection is configured or used incorrectly."""


class EstimationError(ArrayTrackError):
    """Raised when an AoA spectrum or location estimate cannot be produced."""


class ConfigurationError(ArrayTrackError):
    """Raised for invalid system-level (AP/server/testbed) configuration."""


class TransientError(ArrayTrackError):
    """Infrastructure failure that a retry or a degraded backend may absorb.

    The resilience layer treats this family -- and only this family -- as
    recoverable: the process pool retries shards on it, and the service's
    circuit breaker falls down the backend ladder (process -> serial)
    instead of failing the batch.  Deterministic data errors
    (:class:`EstimationError`, :class:`ConfigurationError`, ...) stay
    outside it on purpose: retrying them would re-fail identically.
    """


class PoolSupervisionError(TransientError):
    """A supervised worker pool exhausted its retry budget for a batch."""


class FaultInjectedError(TransientError):
    """Raised by :mod:`repro.testing.faults` when an injected fault fires."""


class BackpressureError(ArrayTrackError):
    """Raised when ingest exceeds the service's pending-frame budget.

    Only raised under ``resilience.shed_policy = "reject"``; the default
    ``"shed-oldest"`` policy drops the oldest pending frame instead.
    """


class PoisonFrameError(ArrayTrackError):
    """Raised when a rejected frame (NaN/inf values, mismatched grid) is ingested.

    Rejecting the single frame at the door -- with the client and AP named
    -- keeps one poisoned spectrum from corrupting a whole stacked
    frontend or synthesis pass.
    """
