"""The traced run's layers: which public functions are wrapped, and the
per-layer metrics folded from their spans.

Each layer is a module of ``repro``; its public entry points are wrapped
from outside by :class:`spans.SpanRecorder`.  ``find_peaks`` and
``refine_many`` are wrapped where ``repro.core.suppression`` and
``repro.core.batch`` look them up, so the calls those modules make are
the ones timed.
"""

from __future__ import annotations

import statistics
from typing import Any

import repro.core.batch as batch_module
import repro.core.suppression as suppression_module
from repro.ap.access_point import ArrayTrackAP
from repro.api._procpool import ProcessShardPool
from repro.api.service import ArrayTrackService
from repro.core.batch import BatchLocalizer
from repro.core.suppression import MultipathSuppressor
from repro.server.tracker import ClientTracker

from spans import LayerStats, SpanRecorder, percentile

#: Every per-layer metric, in ``BENCHMARK.json`` order, with its unit.
METRICS: dict[str, str] = {
    "peaks.calls": "count",
    "peaks.busy_s": "s",
    "peaks.share": "ratio",
    "suppression.calls": "count",
    "suppression.spectra_in": "count",
    "suppression.busy_s": "s",
    "suppression.self_s": "s",
    "suppression.share": "ratio",
    "access_point.calls": "count",
    "access_point.frames": "count",
    "access_point.frames_per_call": "count",
    "access_point.busy_s": "s",
    "access_point.share": "ratio",
    "batch.calls": "count",
    "batch.clients_per_call": "count",
    "batch.busy_s": "s",
    "batch.self_s": "s",
    "batch.share": "ratio",
    "optimizer.calls": "count",
    "optimizer.evaluations": "count",
    "optimizer.busy_s": "s",
    "optimizer.share": "ratio",
    "service.ingest.calls": "count",
    "service.ingest.frames": "count",
    "service.ingest.busy_s": "s",
    "service.tick.calls": "count",
    "service.tick.busy_s": "s",
    "service.tick.self_s": "s",
    "service.tick.empty_ratio": "ratio",
    "service.tick.sessions_scanned": "count",
    "service.tick.ready": "count",
    "service.batch.calls": "count",
    "service.batch.busy_s": "s",
    "service.rejected": "count",
    "tracker.calls": "count",
    "tracker.busy_s": "s",
    "procpool.calls": "count",
    "procpool.busy_s": "s",
    "procpool.parallel_efficiency": "ratio",
    "procpool.shm_bytes": "bytes-computed",
    "procpool.leaked_segments": "count",
    "procpool.rebuilds": "count",
    "procpool.broken_pools": "count",
    "procpool.shard_retries": "count",
    "procpool.backoff_slept_s": "s",
    "procpool.rebuild_call_s": "s",
    "driver.lag_p99_ms": "ms",
    "driver.probes_offered": "count",
    "trace.overhead_ratio": "ratio",
}

#: Which layer metrics should move which end-to-end metric, and on which
#: workload the layer does most of its work (and where little or none).
#: ``latency_p90_ms`` and ``latency_p99_ms`` are printed by every run but
#: not gated: only ``stream-churn`` has enough samples for them.
LAYER_TABLE = [
    {"metrics": ["peaks.calls", "peaks.busy_s", "peaks.share",
                 "suppression.calls", "suppression.spectra_in",
                 "suppression.busy_s", "suppression.self_s",
                 "suppression.share"],
     "moves": ["fixes_per_s", "latency_p50_ms"],
     "most_work": "office-sweep",
     "little_work": "zero calls on stream-churn and fleet-process"},
    {"metrics": ["access_point.calls", "access_point.frames",
                 "access_point.frames_per_call", "access_point.busy_s",
                 "access_point.share"],
     "moves": ["latency_p50_ms", "latency_p99_ms"],
     "most_work": "stream-churn",
     "little_work": "~7% on office-sweep, zero on fleet-process"},
    {"metrics": ["batch.calls", "batch.clients_per_call", "batch.busy_s",
                 "batch.self_s", "batch.share", "optimizer.calls",
                 "optimizer.evaluations", "optimizer.busy_s",
                 "optimizer.share"],
     "moves": ["fixes_per_s"],
     "most_work": "fleet-process",
     "little_work": "~10% on office-sweep"},
    {"metrics": ["service.ingest.calls", "service.ingest.frames",
                 "service.ingest.busy_s", "service.tick.calls",
                 "service.tick.busy_s", "service.tick.self_s",
                 "service.tick.empty_ratio", "service.tick.sessions_scanned",
                 "service.tick.ready", "service.batch.calls",
                 "service.batch.busy_s", "service.rejected"],
     "moves": ["latency_p99_ms", "peak_rss_mb"],
     "most_work": "stream-churn",
     "little_work": "no ingest or tick on the batch workloads"},
    {"metrics": ["tracker.calls", "tracker.busy_s"],
     "moves": ["latency_p50_ms"],
     "most_work": "stream-churn",
     "little_work": "absent elsewhere"},
    {"metrics": ["procpool.calls", "procpool.busy_s",
                 "procpool.parallel_efficiency", "procpool.shm_bytes",
                 "procpool.leaked_segments"],
     "moves": ["fixes_per_s", "setup_s"],
     "most_work": "fleet-process",
     "little_work": "absent on the serial workloads"},
    {"metrics": ["procpool.rebuilds", "procpool.broken_pools",
                 "procpool.shard_retries", "procpool.backoff_slept_s",
                 "procpool.rebuild_call_s"],
     "moves": ["fixes_per_s", "latency_p90_ms"],
     "most_work": "crash-recovery",
     "little_work": "exactly 0 on fleet-process"},
    {"metrics": ["driver.lag_p99_ms", "driver.probes_offered",
                 "trace.overhead_ratio"],
     "moves": [],
     "most_work": "harness health, all workloads",
     "little_work": ""},
]

#: Layers that run inside the pool workers on the process backend; the
#: traced run takes them from the serial pass instead.
WORKER_LAYERS = ("peaks", "suppression", "access_point", "batch", "optimizer")


def _shm_bytes(spectra_by_client: Any) -> int:
    """Bytes one ``localize_shards`` call packs into shared memory.

    Computed from the arrays' sizes the way the pool packs them: float64,
    each distinct angle grid and power array once.
    """
    seen: dict[int, int] = {}
    for per_ap in spectra_by_client.values():
        for spectra in per_ap.values():
            for spectrum in spectra:
                for array in (spectrum.angles_deg, spectrum.power):
                    seen[id(array)] = 8 * int(array.shape[0])
    return sum(seen.values())


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer's public entry points."""
    service = ArrayTrackService
    recorder.wrap(service, "ingest_many", "service.ingest",
                  lambda args, kwargs, result: {"frames": len(result)})
    recorder.wrap(service, "tick", "service.tick",
                  lambda args, kwargs, result: {
                      "ready": len(result),
                      "empty": float(not result),
                      "sessions": len(args[0].sessions)})
    recorder.wrap(service, "localize_many", "service.batch")
    recorder.wrap(service, "localize_buffered", "service.batch")
    recorder.wrap(service, "health", "service.health")
    recorder.wrap(ArrayTrackAP, "compute_spectra", "access_point",
                  lambda args, kwargs, result: {"frames": len(result)})
    recorder.wrap(MultipathSuppressor, "process", "suppression",
                  lambda args, kwargs, result: {"spectra_in": len(args[1])})
    recorder.wrap(suppression_module, "find_peaks", "peaks")
    recorder.wrap(BatchLocalizer, "estimate_batch", "batch",
                  lambda args, kwargs, result: {"clients": len(result)})
    recorder.wrap(batch_module, "refine_many", "optimizer",
                  lambda args, kwargs, result: {
                      "evaluations": sum(r.iterations for r in result)})
    recorder.wrap(ClientTracker, "update", "tracker")
    recorder.wrap(ProcessShardPool, "localize_shards", "procpool",
                  lambda args, kwargs, result: {
                      "shm_bytes": _shm_bytes(args[2]),
                      "rebuilds_after": args[0].stats.rebuilds})
    recorder.wrap(ProcessShardPool, "tick_shards", "procpool",
                  lambda args, kwargs, result: {
                      "shm_bytes": _shm_bytes(
                          {client: {ap: [spectrum for _, spectrum in frames]
                                    for ap, frames in per_ap.items()}
                           for client, per_ap in args[2].items()}),
                      "rebuilds_after": args[0].stats.rebuilds})


def _ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 for a layer that never ran."""
    return numerator / denominator if denominator else 0.0


def _outermost(recorder: SpanRecorder, name: str) -> list[float]:
    """Durations of the spans named ``name`` that have no parent."""
    return [span.duration for span in recorder.spans
            if span.name == name and span.parent is None]


def layer_metrics(main: SpanRecorder, serial: SpanRecorder | None,
                  *, workers: int,
                  pool_delta: dict[str, float],
                  phase_starts: list[tuple[float, int]],
                  leaked_segments: int, lags_s: list[float],
                  probes_offered: int, overhead_ratio: float,
                  rejected: int) -> dict[str, float]:
    """Fold the traced phase's spans into every metric of :data:`METRICS`.

    ``main`` holds the traced phases; ``serial`` (process workloads only)
    the serial pass that attributes :data:`WORKER_LAYERS`.  Shares are of
    the busy time of the service calls of the same recorder.
    ``pool_delta`` sums the pool counters' growth over the traced phases,
    and ``phase_starts`` gives each traced phase's start time and pool
    rebuild count, so a rebuild made in an untraced phase is not charged
    to the next traced pool call.
    """
    stats = main.layer_stats()
    busy = main.root_busy_s()
    worker_stats, worker_busy = stats, busy
    if serial is not None:
        worker_stats, worker_busy = serial.layer_stats(), serial.root_busy_s()

    def layer(name: str) -> tuple[LayerStats, float]:
        if name in WORKER_LAYERS:
            return worker_stats.get(name, LayerStats()), worker_busy
        return stats.get(name, LayerStats()), busy

    metrics: dict[str, float] = {}
    for name in ("peaks", "suppression", "access_point", "batch",
                 "optimizer", "tracker", "procpool"):
        data, denominator = layer(name)
        metrics[f"{name}.calls"] = data.calls
        metrics[f"{name}.busy_s"] = data.busy_s
        metrics[f"{name}.self_s"] = data.self_s
        metrics[f"{name}.share"] = _ratio(data.busy_s, denominator)
    suppression, _ = layer("suppression")
    metrics["suppression.spectra_in"] = \
        suppression.counts.get("spectra_in", 0.0)
    frontend, _ = layer("access_point")
    metrics["access_point.frames"] = frontend.counts.get("frames", 0.0)
    metrics["access_point.frames_per_call"] = _ratio(
        metrics["access_point.frames"], frontend.calls)
    batch, _ = layer("batch")
    metrics["batch.clients_per_call"] = _ratio(
        batch.counts.get("clients", 0.0), batch.calls)
    optimizer, _ = layer("optimizer")
    metrics["optimizer.evaluations"] = optimizer.counts.get("evaluations", 0.0)

    ingest = stats.get("service.ingest", LayerStats())
    metrics["service.ingest.calls"] = ingest.calls
    metrics["service.ingest.frames"] = ingest.counts.get("frames", 0.0)
    metrics["service.ingest.busy_s"] = ingest.busy_s
    tick = stats.get("service.tick", LayerStats())
    metrics["service.tick.calls"] = tick.calls
    metrics["service.tick.busy_s"] = tick.busy_s
    metrics["service.tick.self_s"] = tick.self_s
    metrics["service.tick.empty_ratio"] = _ratio(
        tick.counts.get("empty", 0.0), tick.calls)
    metrics["service.tick.sessions_scanned"] = _ratio(
        tick.counts.get("sessions", 0.0), tick.calls)
    metrics["service.tick.ready"] = tick.counts.get("ready", 0.0)
    outer_batches = _outermost(main, "service.batch")
    metrics["service.batch.calls"] = len(outer_batches)
    metrics["service.batch.busy_s"] = sum(outer_batches)
    metrics["service.rejected"] = rejected

    pool_spans = [span for span in main.spans if span.name == "procpool"]
    metrics["procpool.shm_bytes"] = statistics.mean(
        span.counts["shm_bytes"] for span in pool_spans) if pool_spans else 0
    rebuild_call_s = 0.0
    starts = sorted(phase_starts)
    previous = 0
    for span in pool_spans:
        while starts and starts[0][0] <= span.start:
            previous = starts.pop(0)[1]
        if span.counts["rebuilds_after"] > previous:
            rebuild_call_s += span.duration
        previous = span.counts["rebuilds_after"]
    metrics["procpool.rebuild_call_s"] = rebuild_call_s
    serial_batches = _outermost(serial, "service.batch") if serial else []
    metrics["procpool.parallel_efficiency"] = (
        statistics.median(serial_batches)
        / (workers * statistics.median(span.duration for span in pool_spans))
        if serial_batches and pool_spans else 0.0)
    for counter, value in pool_delta.items():
        metrics[f"procpool.{counter}"] = value
    metrics["procpool.leaked_segments"] = leaked_segments

    lag_p99 = percentile(lags_s, 99)
    metrics["driver.lag_p99_ms"] = 1e3 * lag_p99 if lag_p99 is not None \
        else 0.0
    metrics["driver.probes_offered"] = probes_offered
    metrics["trace.overhead_ratio"] = overhead_ratio
    return {name: float(metrics[name]) for name in METRICS}
