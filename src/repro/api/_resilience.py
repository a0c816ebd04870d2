"""Circuit breaker and counters behind the service's degradation ladder.

The process backend is the fastest rung of a ladder, not a single point of
failure: when its pool keeps breaking even *with* supervision (rebuild +
retry in :mod:`repro.api._procpool`), the service steps down to plain
serial execution -- which cannot fail for infrastructure reasons at all.  The :class:`CircuitBreaker` here decides
which rung a batch enters at and when to probe a faster rung again
(half-open), so a persistent failure costs each batch at most one doomed
attempt per recovery window instead of a full retry storm.

Everything is deliberately deterministic and clock-injectable: tests drive
the breaker through open -> half-open -> closed with a fake monotonic
clock, no sleeping involved.

Thread-safety: like the rest of :class:`~repro.api.ArrayTrackService`, a
breaker is driven from one caller thread at a time; it holds no locks.
"""

from __future__ import annotations

import time
from collections.abc import Callable


__all__ = ["CircuitBreaker", "ResilienceStats", "backend_ladder"]


def backend_ladder(backend: str) -> tuple[str, ...]:
    """The degradation ladder for a configured backend, fastest first.

    The configured backend is the entry rung; every later rung is strictly
    simpler infrastructure.  ``serial`` is always the last rung, which is
    what makes "never fail a batch serial could have served" enforceable.
    """
    if backend == "process":
        return ("process", "serial")
    return ("serial",)


class CircuitBreaker:
    """Tracks per-rung failures and picks the entry rung for each batch.

    States (reported by :attr:`state`):

    ``closed``
        No degradation: batches enter at the configured backend (rung 0).
    ``open``
        A rung has failed ``threshold`` consecutive times; batches enter
        at the degraded rung until ``recovery_s`` of (monotonic) time has
        passed.
    ``half-open``
        The recovery window has elapsed: the next batch probes one rung
        *up* from the degraded level.  A successful probe re-closes the
        breaker up to that rung; a failed probe re-opens the window.

    Failures only count when they are transient (the callers gate on
    :class:`~repro.errors.TransientError`); a deterministic data error
    says nothing about the infrastructure and must not trip the breaker.
    """

    def __init__(self, ladder: tuple[str, ...], *, threshold: int,
                 recovery_s: float, enabled: bool = True,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if not ladder:
            raise ValueError("a circuit breaker needs a non-empty ladder")
        self.ladder = ladder
        self.threshold = threshold
        self.recovery_s = recovery_s
        self.enabled = enabled
        self._clock = clock
        #: Current degraded floor: batches enter here (0 = configured rung).
        self._level = 0
        #: Consecutive transient failures per rung since its last success.
        self._failures = [0] * len(ladder)
        #: Monotonic time the current degradation window opened (None when
        #: closed).
        self._opened_at: float | None = None

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def entry_index(self) -> int:
        """The ladder index the next batch should enter at."""
        if not self.enabled or self._level == 0:
            return 0
        if self._opened_at is not None \
                and self._clock() - self._opened_at >= self.recovery_s:
            # Half-open: probe one rung up from the degraded floor.
            return self._level - 1
        return self._level

    def record_failure(self, index: int) -> None:
        """Record one transient failure of the rung at ``index``."""
        if not self.enabled:
            return
        if index < self._level:
            # A half-open probe failed: re-open the window, stay degraded.
            self._opened_at = self._clock()
            return
        self._failures[index] += 1
        if self._failures[index] >= self.threshold \
                and index + 1 < len(self.ladder):
            self._level = index + 1
            self._opened_at = self._clock()
            self._failures[index] = 0

    def record_success(self, index: int) -> None:
        """Record one successful batch served by the rung at ``index``."""
        if not self.enabled:
            return
        self._failures[index] = 0
        if index < self._level:
            # A half-open probe succeeded: close back up to that rung.
            self._level = index
            self._opened_at = self._clock() if index > 0 else None
        elif index == 0:
            self._level = 0
            self._opened_at = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        """``closed``, ``open``, or ``half-open``."""
        if self._level == 0:
            return "closed"
        if self._opened_at is not None \
                and self._clock() - self._opened_at >= self.recovery_s:
            return "half-open"
        return "open"

    @property
    def level(self) -> int:
        """The current degraded floor (0 = not degraded)."""
        return self._level

    def snapshot(self) -> dict[str, object]:
        """JSON-safe state for :meth:`~repro.api.ArrayTrackService.health`."""
        return {
            "enabled": self.enabled,
            "state": self.state,
            "ladder": list(self.ladder),
            "level": self._level,
            "entry_backend": self.ladder[self.entry_index()],
            "failures": list(self._failures),
            "threshold": self.threshold,
            "recovery_s": self.recovery_s,
        }


class ResilienceStats:
    """Service-level ingest/fallback counters surfaced by ``health()``."""

    def __init__(self) -> None:
        #: Frames dropped by the service-level pending budget
        #: (``shed_policy = "shed-oldest"``).
        self.shed_frames = 0
        #: Ingest calls rejected by the budget (``shed_policy = "reject"``).
        self.backpressure_rejected = 0
        #: Frames rejected as poison (NaN/inf values, mismatched grids).
        self.poison_rejected = 0
        #: Batches served by a lower rung than they entered at, keyed by
        #: the rung that served them (e.g. ``{"serial": 2}``).
        self.fallbacks: dict[str, int] = {}
        #: Message of the transient error behind the most recent fallback.
        self.last_fallback_error: str | None = None

    def record_fallback(self, backend: str, error: BaseException) -> None:
        """Count one batch falling through to ``backend``."""
        self.fallbacks[backend] = self.fallbacks.get(backend, 0) + 1
        self.last_fallback_error = f"{type(error).__name__}: {error}"

    def snapshot(self) -> dict[str, object]:
        """JSON-safe counter state for ``health()``."""
        return {
            "shed_frames": self.shed_frames,
            "backpressure_rejected": self.backpressure_rejected,
            "poison_rejected": self.poison_rejected,
            "fallbacks": dict(self.fallbacks),
            "last_fallback_error": self.last_fallback_error,
        }
