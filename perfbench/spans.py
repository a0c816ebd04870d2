"""Outside-in span recorder for the traced benchmark run.

The recorder replaces public functions and methods of the ``repro``
modules with thin timing wrappers *from outside*: no file under ``src/``
knows it is being traced.  Every wrapped call becomes one :class:`Span`
(name, start, end, parent span, root span and optional work counts);
:meth:`SpanRecorder.layer_stats` folds the spans into per-layer call
counts, busy time and self time.  :meth:`SpanRecorder.restore` puts every
wrapped attribute back, so an untraced run never executes a wrapper.

:func:`percentile` applies the reporting rule of the benchmark: a
percentile is reported only when at least ten samples lie beyond it.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10

#: ``count(args, kwargs, result)`` -> work counts to add to the span.
Counter = Callable[[tuple, dict, Any], dict[str, float]]


def percentile(samples: list[float], q: float) -> float | None:
    """Return the ``q``-th percentile, or None when it is not reportable.

    Linear interpolation between closest ranks (NumPy's default).  The
    value is reported only when at least :data:`MIN_SAMPLES_BEYOND`
    samples are strictly greater than it.
    """
    if not samples:
        return None
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    value = ordered[low] + (ordered[high] - ordered[low]) * (rank - low)
    beyond = sum(1 for sample in ordered if sample > value)
    return value if beyond >= MIN_SAMPLES_BEYOND else None


@dataclass
class Span:
    """One wrapped call: when it ran and which span caused it."""

    name: str
    start: float
    end: float = 0.0
    #: Index of the enclosing span in :attr:`SpanRecorder.spans`, or None.
    parent: int | None = None
    #: Index of the outermost span of the same request.
    root: int = 0
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class LayerStats:
    """Per-layer totals folded from the spans of one name."""

    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


class SpanRecorder:
    """Records spans around wrapped calls; single-threaded by design.

    The benchmark drives the service from one generator thread, and the
    serial backend runs every layer on that thread, so one stack of open
    spans is enough to attribute each call to its parent.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        #: ``(owner, attribute, original, owned)`` per installed wrapper.
        self._patches: list[tuple[Any, str, Any, bool]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin(self, name: str) -> int:
        """Open a span and return its index."""
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        root = self.spans[parent].root if parent is not None else index
        self.spans.append(Span(name, self.clock(), parent=parent, root=root))
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        """Close the innermost open span, which must be ``index``."""
        if not self._open or self._open[-1] != index:
            raise RuntimeError(f"span {index} is not the innermost open span")
        self._open.pop()
        self.spans[index].end = self.clock()

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(self, owner: Any, attribute: str, name: str,
             count: Counter | None = None) -> None:
        """Replace ``owner.attribute`` (a function) with a timing wrapper.

        ``owner`` is a class (the wrapper becomes the method) or a module
        (the wrapper replaces the name that module's code looks up).
        """
        owned = attribute in vars(owner)
        original = vars(owner)[attribute] if owned \
            else getattr(owner, attribute)
        if not callable(original) or isinstance(original,
                                                (staticmethod, classmethod)):
            raise TypeError(f"{owner!r}.{attribute} is not a plain function")
        recorder = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = recorder.begin(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                recorder.end(index)
                raise
            recorder.end(index)
            if count is not None:
                recorder.spans[index].counts.update(
                    count(args, kwargs, result))
            return result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original, owned))

    def restore(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._patches:
            owner, attribute, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    @property
    def installed(self) -> int:
        """Number of wrappers currently installed."""
        return len(self._patches)

    # ------------------------------------------------------------------
    # Folding
    # ------------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Per span: duration minus the part its child spans cover."""
        children: list[list[tuple[float, float]]] = [[] for _ in self.spans]
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append((span.start, span.end))
        return [span.duration - _covered(children[index])
                for index, span in enumerate(self.spans)]

    def layer_stats(self) -> dict[str, LayerStats]:
        """Calls, busy time, self time and summed counts per span name."""
        stats: dict[str, LayerStats] = {}
        for span, self_s in zip(self.spans, self.self_times(), strict=True):
            layer = stats.setdefault(span.name, LayerStats())
            layer.calls += 1
            layer.busy_s += span.duration
            layer.self_s += self_s
            for key, value in span.counts.items():
                layer.counts[key] = layer.counts.get(key, 0.0) + value
        return stats

    def root_busy_s(self) -> float:
        """Total duration of the outermost spans (the traced busy time)."""
        return sum(span.duration for span in self.spans
                   if span.parent is None)
