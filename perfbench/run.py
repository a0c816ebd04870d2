"""Run one benchmark workload against the ``repro`` service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload office-sweep --seed 1 --seconds 15 --trace 0

The run generates the workload's inputs from ``--seed``, sets the service
up several times from cold caches (the median is ``setup_s``),
measures for ``--seconds`` seconds, checks every fix against its serial
reference, and prints a report followed, on the last line, by one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
gated timings are divided by the host slowdown measured around them
(``hostspeed.py``); the report prints them raw as well (``raw.*``).

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the time is split into short phases that alternate between untraced and
traced with every layer wrapped (see ``layers.py``); the metrics are the
per-layer ones of the traced phases, and ``trace.overhead_ratio``
compares the two kinds of phase.  The exit code is 0 only when every
check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import resource
import signal
import statistics
import sys
import time
from multiprocessing import resource_tracker
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: A run sets the service up at least ``SETUP_REPS`` times and for at
#: least ``SETUP_SECONDS`` (at most ``SETUP_MAX_REPS`` times);
#: ``setup_s`` is the median.  Seven reps at least: spawning the pool
#: workers made single process set-ups vary by a third, and medians of
#: five still spread by a fifth over ten seeds on crash-recovery.
SETUP_REPS = 7
SETUP_SECONDS = 2.0
SETUP_MAX_REPS = 10
#: The traced run alternates this many untraced and as many traced
#: phases, in the order UT TU UT ..., so drift over the run (a growing
#: session table, warming caches) falls on both kinds alike.
TRACE_ROUNDS = 5
#: Pool counters reported per traced phase.
POOL_COUNTERS = ("rebuilds", "broken_pools", "shard_retries",
                 "backoff_slept_s")

#: End-to-end metrics with their units, in ``BENCHMARK.json`` order.
END_TO_END = {
    "fixes_per_s": "1/s",
    "latency_p50_ms": "ms",
    "median_error_cm": "cm",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _load():
    """Import the program from the checkout's ``src`` tree."""
    source = ROOT / "src" / "repro"
    if not source.is_dir():
        sys.exit(f"perfbench: {source} not found; run from a checkout "
                 f"of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads
    return workloads


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _format(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.4g}"


def _rejected(health: dict) -> int:
    """Frames the service shed, rejected or refused as poison."""
    ingest = health["ingest"]
    return (ingest["shed_frames"] + ingest["backpressure_rejected"]
            + ingest["poison_rejected"])


def _end_to_end(workload, service, seconds: float, setups: list[float],
                scaled_setups: list[float]):
    """Measure untraced; return the result, failures, metrics and report."""
    from spans import percentile

    result = workload.measure(service, seconds)
    failed = result.failed + _rejected(workload.close(service))
    latencies_ms = [1e3 * value for value in result.latencies_s]
    host = workload.host
    raw = {"fixes_per_s": result.fixes / result.busy_s,
           "latency_p50_ms": percentile(latencies_ms, 50),
           "setup_s": statistics.median(setups)}
    metrics = {
        "fixes_per_s": result.fixes / result.scaled_busy_s,
        "latency_p50_ms": percentile(
            [1e3 * value for value in result.scaled_latencies_s], 50),
        "median_error_cm": statistics.median(result.errors_cm),
        "setup_s": statistics.median(scaled_setups),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {"latency_p50_ms": len(latencies_ms),
               "median_error_cm": len(result.errors_cm),
               "setup_s": len(setups)}
    report = {name: (value, END_TO_END[name], samples.get(name, 1))
              for name, value in metrics.items()}
    report["host.slowdown"] = (host.slowdown, "ratio", len(host.samples))
    report["host.dropped"] = (host.dropped, "count",
                              len(host.samples) + host.dropped)
    for name, value in raw.items():
        report[f"raw.{name}"] = (value, END_TO_END[name],
                                 samples.get(name, 1))
    for name, q in (("latency_p90_ms", 90), ("latency_p99_ms", 99)):
        report[name] = (percentile(latencies_ms, q), "ms", len(latencies_ms))
    report["p90_error_cm"] = (percentile(result.errors_cm, 90), "cm",
                              len(result.errors_cm))
    report["failed_ratio"] = (failed / result.attempted, "ratio",
                              result.attempted)
    lag = percentile(result.lags_s, 99)
    report["driver.lag_p99_ms"] = (None if lag is None else 1e3 * lag, "ms",
                                   len(result.lags_s))
    return result, failed, metrics, END_TO_END, report


def _traced(workload, service, seconds: float):
    """Measure in alternating untraced and traced phases; return as
    :func:`_end_to_end`, with the traced phases as the result."""
    import layers
    from spans import SpanRecorder
    from workloads import Measurement

    phase_s = seconds / (2 * TRACE_ROUNDS)
    untraced, result = Measurement(), Measurement()
    recorder = SpanRecorder()
    pool_delta = dict.fromkeys(POOL_COUNTERS, 0.0)
    #: Per traced phase: (start on the recorder's clock, pool rebuilds).
    phase_starts: list[tuple[float, int]] = []
    for round_index in range(TRACE_ROUNDS):
        order = (False, True) if round_index % 2 == 0 else (True, False)
        for traced in order:
            if not traced:
                untraced.add(workload.measure(service, phase_s, min_calls=1))
                continue
            before = service.health()["pool"]
            phase_starts.append((recorder.clock(), before["rebuilds"]))
            layers.install(recorder)
            try:
                result.add(workload.measure(service, phase_s, min_calls=1))
            finally:
                recorder.restore()
            after = service.health()["pool"]
            for counter in POOL_COUNTERS:
                pool_delta[counter] += after[counter] - before[counter]
    serial = None
    if workload.process_backend:
        serial = SpanRecorder()
        layers.install(serial)
        try:
            workload.serial_pass()
        finally:
            serial.restore()
    rejected = _rejected(workload.close(service))
    closed_pool = service.health()["pool"]
    per_fix = [phase.busy_s / phase.fixes if phase.fixes else 0.0
               for phase in (untraced, result)]
    metrics = layers.layer_metrics(
        recorder, serial,
        workers=service.config.parallel.num_workers,
        pool_delta=pool_delta, phase_starts=phase_starts,
        leaked_segments=len(closed_pool["live_segments"])
        + closed_pool["shm_leak_events"],
        lags_s=untraced.lags_s + result.lags_s,
        probes_offered=untraced.attempted + result.attempted,
        overhead_ratio=per_fix[1] / per_fix[0] if per_fix[0] else 0.0,
        rejected=rejected)
    report = {name: (value, layers.METRICS[name], 1)
              for name, value in metrics.items()}
    return result, result.failed + rejected, metrics, layers.METRICS, report


def _child_pids() -> list[int]:
    """Every child process of this one, running or exited but unreaped."""
    pids = []
    for children in Path(f"/proc/{os.getpid()}/task").glob("*/children"):
        try:
            pids += [int(pid) for pid in children.read_text().split()]
        except OSError:
            continue
    return pids


def _stop_processes() -> None:
    """Stop every process the run started and wait until each has ended.

    ``close()`` joins the pool workers; this also stops workers an error
    path left behind, and the multiprocessing resource tracker that the
    pool's locks and shared-memory segments start, which would otherwise
    outlive the run.  Anything else still a child is killed.
    """
    # Finalizers of dead pool objects unregister from the tracker, which
    # would start it again after it is stopped.
    gc.collect()
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            continue


def main(argv: list[str]) -> int:
    args = _parse(argv)
    workloads = _load()
    try:
        return _run(args, workloads)
    finally:
        _stop_processes()


def _run(args: argparse.Namespace, workloads) -> int:
    from repro.core import clear_default_caches

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose "
                 f"from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.generate()

    setups: list[float] = []
    scaled_setups: list[float] = []
    while True:
        clear_default_caches()
        start = time.perf_counter()
        service, fixes = workload.open()
        setups.append(time.perf_counter() - start)
        workload.check_first(fixes)
        workload.host.after(setups[-1])
        scaled_setups.append(setups[-1] / workload.host.recent())
        if len(setups) >= SETUP_MAX_REPS or (
                len(setups) >= SETUP_REPS and sum(setups) >= SETUP_SECONDS):
            break
        workload.close(service)
    workload.prepare(service)
    try:
        if args.trace:
            result, failed, metrics, units, report = _traced(
                workload, service, args.seconds)
        else:
            result, failed, metrics, units, report = _end_to_end(
                workload, service, args.seconds, setups, scaled_setups)
    finally:
        workload.finish()

    correct = not workload.problems and all(
        metrics[name] is not None for name in units)
    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    for name, (value, unit, count) in report.items():
        print(f"  {name:32s} {_format(value):>12s} {unit:14s} n={count}")
    for problem in workload.problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
