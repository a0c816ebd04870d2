"""Process-backend sharding: a persistent spawn pool + shared-memory spectra.

Threads would only overlap the GIL-releasing NumPy regions of a shard;
everything Python-bound would still serialize on one interpreter lock.
This module is the ``"process"`` backend of ``ParallelConfig``: a lazy,
persistent pool of *spawned* worker processes, each owning its own :class:`~repro.server.
backend.ArrayTrackServer` (and therefore its own steering/bearing/window
caches, warmed in the worker initializer), with the bulk frame data --
angle grids and spectrum power rows -- moved through one
``multiprocessing.shared_memory`` segment per batched call.  Only small
things cross the pickle pipe:

* down: the segment name, per-array ``(offset, length)`` specs and per-shard
  index metadata (client/AP ids, positions, timestamps);
* up: the per-shard fix dictionaries (:class:`~repro.core.localizer.
  LocationEstimate` objects).

Workers rebuild each shard's :class:`~repro.core.spectrum.AoASpectrum`
objects as zero-copy read-only views into the segment, run the *identical*
suppression + synthesis stages the serial path runs, and return fixes.
Because every stage is deterministic and the shard merge preserves the
caller's client order, process-sharded results are bit-for-bit identical to
the serial path (asserted by ``tests/api/test_process_backend.py``).

Shared-memory lifecycle: the parent creates one segment per batched call and
always closes *and unlinks* it in a ``finally`` -- success, worker
exception, or worker crash alike -- so no segment outlives the call.  The
module-level :func:`live_segments` registry backs the teardown assertions in
the test suite.  Spawn (not fork) is used so a pool started from a threaded
parent is safe on every platform.
"""

from __future__ import annotations

import concurrent.futures
import os
import random
import threading
import time
import uuid
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import get_context, shared_memory
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.core.localizer import LocationEstimate
from repro.core.spectrum import AoASpectrum
from repro.core.suppression import MultipathSuppressor
from repro.errors import (ConfigurationError, EstimationError,
                          PoolSupervisionError)
from repro.geometry.vector import Point2D
from repro.server.backend import ArrayTrackServer
from repro.testing import faults

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.api.config import ArrayTrackConfig

__all__ = ["ProcessShardPool", "PoolStats", "SEGMENT_PREFIX",
           "live_segments", "shm_leak_events"]

#: Prefix of every shared-memory segment this module creates; the teardown
#: tests scan ``/dev/shm`` for it to prove nothing leaked.
SEGMENT_PREFIX = "arraytrack_"

#: Parent-side registry of segments created but not yet unlinked.
_LIVE_SEGMENTS: set = set()

#: Times a segment's ``close()`` failed with :class:`BufferError` (a view
#: into the mapping escaped, so the parent-side mapping lives until the GC
#: collects the view).  Never silently reset; surfaced by
#: ``ArrayTrackService.health()`` so leak drift is observable in
#: production, not just in the test suite's teardown assertions.
_LEAK_EVENTS = 0


def live_segments() -> frozenset[str]:
    """Return the names of this process's currently live shm segments.

    Empty whenever no sharded call is in flight; the equality suite asserts
    it is empty after every call and after ``close()``.
    """
    return frozenset(_LIVE_SEGMENTS)


def shm_leak_events() -> int:
    """Times a segment close leaked its parent-side mapping (monotonic)."""
    return _LEAK_EVENTS


def _new_segment_name() -> str:
    return f"{SEGMENT_PREFIX}{os.getpid():x}_{uuid.uuid4().hex[:12]}"


# ----------------------------------------------------------------------
# Shared-memory packing (parent side)
# ----------------------------------------------------------------------
#: One spectrum, flattened to picklable metadata plus two array indices:
#: ``(angles_index, power_index, ap_xy, orientation_deg, client_id, ap_id,
#: timestamp_s)``.
_SpectrumRef = tuple[int, int, tuple[float, float] | None, float,
                     str, str, float]


@dataclass(frozen=True)
class _SegmentHandle:
    """Everything a worker needs to map the batch arrays: name + layout."""

    name: str
    #: Per-array ``(byte offset, element count)``; all arrays are 1-D
    #: float64, so the layout stays self-describing and 8-byte aligned.
    specs: tuple[tuple[int, int], ...]


class _ArrayPacker:
    """Collects the batch's float arrays and writes them into one segment.

    Arrays are deduplicated by source-object identity: every spectrum of a
    deployment typically shares one angle-grid object, so the grid is
    stored once per segment instead of once per frame.
    """

    def __init__(self) -> None:
        self._arrays: list[np.ndarray] = []
        self._specs: list[tuple[int, int]] = []
        self._by_source: dict[int, int] = {}
        self._nbytes = 0

    def add(self, array: np.ndarray) -> int:
        """Register one 1-D array; returns its index into the segment."""
        index = self._by_source.get(id(array))
        if index is not None:
            return index
        # dtype-pinned: float64 -- the shared-memory segment's wire format is fixed float64
        data = np.ascontiguousarray(np.asarray(array, dtype=np.float64))
        index = len(self._arrays)
        self._arrays.append(data)
        self._specs.append((self._nbytes, int(data.shape[0])))
        self._nbytes += data.nbytes
        self._by_source[id(array)] = index
        return index

    def pack(self) -> tuple[shared_memory.SharedMemory, _SegmentHandle]:
        """Create the segment, copy every array in, return it + its handle.

        The segment's lifetime is split across functions: every caller
        must release it (``_run()`` does, in its ``finally``, via
        ``_release_segment``).  repro-lint's RPR012 flow analysis proves
        that contract on each run; the zero-leak behavior is additionally
        asserted against ``live_segments()`` and ``/dev/shm`` by
        ``tests/api/test_process_backend.py``.
        """
        faults.shm_allocation()
        segment = shared_memory.SharedMemory(
            create=True, size=max(self._nbytes, 8), name=_new_segment_name())
        _LIVE_SEGMENTS.add(segment.name)
        for (offset, length), data in zip(self._specs, self._arrays, strict=True):
            # dtype-pinned: float64 -- views into the fixed float64 wire format
            target = np.ndarray((length,), dtype=np.float64,
                                buffer=segment.buf, offset=offset)
            target[:] = data
            # Drop the view immediately so the buffer has no exports left
            # when the parent closes the segment.
            del target
        return segment, _SegmentHandle(segment.name, tuple(self._specs))


def _release_segment(segment: shared_memory.SharedMemory) -> None:
    """Close and unlink one segment, tolerating partial prior cleanup.

    A :class:`BufferError` from ``close()`` means a view into the mapping
    escaped; the GC will release the mapping eventually, but the event is
    *counted* (see :func:`shm_leak_events`) rather than swallowed, so a
    code path that habitually leaks views shows up in ``health()``.  The
    unlink still runs either way -- the segment name must not outlive the
    call system-wide.
    """
    global _LEAK_EVENTS
    name = segment.name
    try:
        segment.close()
    except BufferError:
        _LEAK_EVENTS += 1
    try:
        segment.unlink()
    except FileNotFoundError:
        pass
    _LIVE_SEGMENTS.discard(name)


def _encode_spectrum(packer: _ArrayPacker,
                     spectrum: AoASpectrum) -> _SpectrumRef:
    position = spectrum.ap_position
    return (
        packer.add(spectrum.angles_deg),
        packer.add(spectrum.power),
        None if position is None else (float(position.x), float(position.y)),
        float(spectrum.ap_orientation_deg),
        spectrum.client_id,
        spectrum.ap_id,
        float(spectrum.timestamp_s),
    )


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
@dataclass
class _WorkerState:
    server: ArrayTrackServer
    suppressor: MultipathSuppressor


_WORKER: _WorkerState | None = None


def _initialize_worker(config: "ArrayTrackConfig",
                       warm_positions: tuple[tuple[float, float], ...]) -> None:
    """Build this worker's server once and warm its geometry caches.

    Runs in the spawned child before any task.  ``config`` arrives through
    the :class:`~repro.api.config.ArrayTrackConfig` dict-round-trip pickle
    contract, so every validator re-runs on this side of the pipe; the
    bearing grids of the known AP fleet are precomputed so the first real
    shard does not pay the arctan2 sweeps.
    """
    global _WORKER
    assert config.bounds is not None
    server = ArrayTrackServer(config.bounds, config.server)
    server.warm_geometry_caches(warm_positions)
    _WORKER = _WorkerState(server=server, suppressor=config.suppressor)


def _require_worker() -> _WorkerState:
    if _WORKER is None:  # pragma: no cover - initializer always runs first
        raise EstimationError(
            "process-pool worker task ran before the worker was initialized")
    return _WORKER


@contextmanager
def _attached_arrays(handle: _SegmentHandle) -> Iterator[list[np.ndarray]]:
    """Attach the segment and yield its arrays as read-only views.

    The views are zero-copy; callers must drop every reference derived from
    them before the context exits so the mapping can be released.  If a
    view escapes into an in-flight exception's traceback the close is
    skipped (the worker releases the mapping when the traceback is
    collected) -- the *parent's* unlink removes the segment name either
    way, so nothing leaks system-wide.
    """
    segment = shared_memory.SharedMemory(name=handle.name)
    arrays: list[np.ndarray] = []
    try:
        for offset, length in handle.specs:
            view = np.ndarray((length,), dtype=np.float64,
                              buffer=segment.buf, offset=offset)
            view.flags.writeable = False
            arrays.append(view)
        yield arrays
    finally:
        arrays.clear()
        try:
            segment.close()
        except BufferError:  # pragma: no cover - view held by a traceback
            pass


def _decode_spectrum(arrays: Sequence[np.ndarray],
                     ref: _SpectrumRef) -> AoASpectrum:
    angles_index, power_index, position, orientation, client_id, ap_id, \
        timestamp_s = ref
    return AoASpectrum(
        arrays[angles_index], arrays[power_index],
        ap_position=None if position is None else Point2D(*position),
        ap_orientation_deg=orientation, client_id=client_id, ap_id=ap_id,
        timestamp_s=timestamp_s)


#: One shard as shipped to a worker: ordered ``(client_id, per_ap)`` pairs,
#: where ``per_ap`` preserves the caller's AP order exactly (the order is
#: part of the bit-equality contract).
_LocalizeShard = tuple[tuple[str, tuple[tuple[str, tuple[_SpectrumRef, ...]],
                                        ...]], ...]
_TickShard = tuple[tuple[str, tuple[tuple[str, tuple[tuple[float,
                                                           _SpectrumRef],
                                                     ...]], ...]], ...]


def _localize_shard(handle: _SegmentHandle,
                    shard: _LocalizeShard) -> dict[str, LocationEstimate]:
    """Worker task behind ``localize_many`` / ``localize_buffered``."""
    worker = _require_worker()
    faults.worker_shard("before-attach")
    with _attached_arrays(handle) as arrays:
        faults.worker_shard("after-attach")
        batch = {
            client_id: {ap_id: [_decode_spectrum(arrays, ref) for ref in refs]
                        for ap_id, refs in per_ap}
            for client_id, per_ap in shard}
        estimates = worker.server.localize_batch(batch)
        del batch
    faults.worker_shard("before-return")
    return estimates


def _tick_shard(handle: _SegmentHandle, shard: _TickShard,
                suppress: bool) -> dict[str, LocationEstimate]:
    """Worker task behind ``tick`` / ``flush``.

    Replicates the service's serial drain exactly: with the
    streaming suppression stage on, each AP's pending frames are suppressed
    per time group (on the ingest-resolved timestamps) and the primaries
    enter the raw synthesis; with it off, the raw pending spectra go
    through the full batch path.
    """
    worker = _require_worker()
    faults.worker_shard("before-attach")
    with _attached_arrays(handle) as arrays:
        faults.worker_shard("after-attach")
        if suppress:
            flat: dict[str, list[AoASpectrum]] = {}
            for client_id, per_ap in shard:
                processed: list[AoASpectrum] = []
                for _ap_id, frames in per_ap:
                    spectra = [_decode_spectrum(arrays, ref)
                               for _ts, ref in frames]
                    timestamps = [timestamp for timestamp, _ref in frames]
                    processed.extend(worker.suppressor.process(
                        spectra, timestamps=timestamps))
                flat[client_id] = processed
            estimates = worker.server.synthesize_batch(flat)
            del flat
        else:
            batch = {
                client_id: {ap_id: [_decode_spectrum(arrays, ref)
                                    for _ts, ref in frames]
                            for ap_id, frames in per_ap}
                for client_id, per_ap in shard}
            estimates = worker.server.localize_batch(batch)
            del batch
    faults.worker_shard("before-return")
    return estimates


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
@dataclass
class PoolStats:
    """Monotonic supervision counters of one :class:`ProcessShardPool`.

    Surfaced (merged with the module-level shm counters) through
    ``ArrayTrackService.health()``; the counters never reset over the
    pool's lifetime, so deltas between snapshots are meaningful.
    """

    #: Executors torn down and respawned by the supervisor.
    rebuilds: int = 0
    #: Shard failures that surfaced as a broken executor (worker death).
    broken_pools: int = 0
    #: Shard failures that surfaced as a blown ``shard_timeout_s`` deadline.
    shard_timeouts: int = 0
    #: Individual shard re-submissions across all retry rounds.
    shard_retries: int = 0
    #: Batches that exhausted ``max_retries`` (raised PoolSupervisionError).
    supervision_failures: int = 0
    #: Total backoff delay slept by the supervisor, in seconds.
    backoff_slept_s: float = 0.0

    def snapshot(self) -> dict[str, int | float]:
        """JSON-safe counter state."""
        return {
            "rebuilds": self.rebuilds,
            "broken_pools": self.broken_pools,
            "shard_timeouts": self.shard_timeouts,
            "shard_retries": self.shard_retries,
            "supervision_failures": self.supervision_failures,
            "backoff_slept_s": self.backoff_slept_s,
        }


class ProcessShardPool:
    """A lazy, persistent spawn pool sharding batched calls across processes.

    Owned by :class:`~repro.api.ArrayTrackService` when
    ``parallel.backend = "process"``.  Workers are spawned on the first
    sharded call and persist across calls (the per-worker server and its
    warmed caches amortize over the service lifetime); :meth:`close` shuts
    them down.  Each batched call moves its frame arrays through one
    shared-memory segment that is unconditionally unlinked before the call
    returns -- on success, on a worker exception (which re-raises here with
    the original remote traceback chained), and on a worker crash.

    With ``resilience.supervise_pool`` (the default) a worker crash or a
    blown per-shard deadline does not fail the batch: the supervisor tears
    the executor down, respawns it, and re-runs only the failed shards --
    up to ``resilience.max_retries`` times with exponential backoff --
    before giving up with :class:`~repro.errors.PoolSupervisionError` (a
    :class:`~repro.errors.TransientError`, so the service's circuit
    breaker can still serve the batch on a slower backend).  Completed
    shards are never re-run, every stage is deterministic, and the merge
    happens in shard order, so supervised results stay bit-identical to
    the serial path.  With supervision off, a crash surfaces as
    ``concurrent.futures.process.BrokenProcessPool`` exactly as before.

    The started/closed lifecycle is guarded by a lock: a ``close()``
    racing an in-flight call can neither resurrect the executor nor shut
    it down twice, and any later call fails fast with
    :class:`~repro.errors.ConfigurationError`.
    """

    def __init__(self, config: "ArrayTrackConfig",
                 warm_positions: Iterable[tuple[float, float]] = ()) -> None:
        if config.bounds is None:
            raise ConfigurationError(
                "a process shard pool needs config.bounds to build its "
                "per-worker servers")
        self._config = config
        self._warm_positions = tuple(
            (float(x), float(y)) for x, y in warm_positions)
        #: Guards the executor lifecycle (spawn / discard / close).
        self._lock = threading.Lock()
        self._executor: ProcessPoolExecutor | None = None
        self._pool_closed = False
        self.stats = PoolStats()
        #: Deterministic jitter stream of the supervisor's backoff delays.
        self._backoff_rng = random.Random(config.resilience.retry_seed)

    @property
    def started(self) -> bool:
        """True once workers have been spawned (and not yet discarded)."""
        with self._lock:
            return self._executor is not None

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran; the pool cannot be restarted."""
        with self._lock:
            return self._pool_closed

    def _ensure(self) -> ProcessPoolExecutor:
        with self._lock:
            return self._ensure_locked()

    def _ensure_locked(self) -> ProcessPoolExecutor:
        if self._pool_closed:
            raise ConfigurationError(
                "this ProcessShardPool is closed; build a new service "
                "instead of reusing it")
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self._config.parallel.num_workers,
                mp_context=get_context("spawn"),
                initializer=_initialize_worker,
                initargs=(self._config, self._warm_positions))
        return self._executor

    def _discard_executor(self, executor: ProcessPoolExecutor) -> None:
        """Tear one executor down so the next attempt spawns a fresh pool.

        Compare-and-swap under the lock: if a concurrent :meth:`close` (or
        another supervisor round) already took this executor, it is not
        popped -- and shutting an already-shut executor down again is a
        no-op, so the two paths cannot double-free.  Timed-out workers may
        still be running; they are terminated best-effort so a wedged
        worker cannot pin the old pool's resources.
        """
        with self._lock:
            if self._executor is executor:
                self._executor = None
        executor.shutdown(wait=False, cancel_futures=True)
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            if process.is_alive():
                process.terminate()

    # ------------------------------------------------------------------
    # Batched calls
    # ------------------------------------------------------------------
    def localize_shards(self, shards: Sequence[Sequence[str]],
                        spectra_by_client: Mapping[str, Mapping[str, Sequence[AoASpectrum]]]
                        ) -> dict[str, LocationEstimate]:
        """Run ``localize_batch`` per shard on the pool and merge in order."""
        packer = _ArrayPacker()
        encoded = {
            client_id: tuple(
                (ap_id, tuple(_encode_spectrum(packer, spectrum)
                              for spectrum in spectra))
                for ap_id, spectra in spectra_by_client[client_id].items())
            for shard in shards for client_id in shard}
        return self._run(_localize_shard, packer, shards, encoded)

    def tick_shards(self, shards: Sequence[Sequence[str]],
                    pending_by_client: Mapping[str, Mapping[str, Sequence[tuple[float, AoASpectrum]]]],
                    suppress: bool) -> dict[str, LocationEstimate]:
        """Run the streaming drain (suppression + synthesis) per shard."""
        packer = _ArrayPacker()
        encoded = {
            client_id: tuple(
                (ap_id, tuple((float(timestamp),
                               _encode_spectrum(packer, spectrum))
                              for timestamp, spectrum in frames))
                for ap_id, frames in pending_by_client[client_id].items())
            for shard in shards for client_id in shard}
        return self._run(_tick_shard, packer, shards, encoded, suppress)

    def _run(self, task: Callable[..., dict[str, LocationEstimate]],
             packer: _ArrayPacker,
             shards: Sequence[Sequence[str]], encoded: dict[str, tuple],
             *extra: object) -> dict[str, LocationEstimate]:
        executor = self._ensure()
        try:
            segment, handle = packer.pack()
        except OSError as exc:
            # No /dev/shm headroom (or an injected allocation failure
            # raised FaultInjectedError before this point): transient
            # infrastructure, not data -- let the breaker degrade.
            raise PoolSupervisionError(
                f"could not allocate the batch's shared-memory segment: "
                f"{exc}") from exc
        try:
            payloads = [
                tuple((client_id, encoded[client_id]) for client_id in shard)
                for shard in shards]
            if not self._config.resilience.supervise_pool:
                return self._run_once(executor, task, handle, payloads, extra)
            return self._run_supervised(executor, task, handle, payloads,
                                        extra)
        finally:
            _release_segment(segment)

    def _run_once(self, executor: ProcessPoolExecutor,
                  task: Callable[..., dict[str, LocationEstimate]],
                  handle: _SegmentHandle, payloads: Sequence[tuple],
                  extra: tuple[object, ...]) -> dict[str, LocationEstimate]:
        """The unsupervised fan out: any failure fails the whole batch."""
        futures = [executor.submit(task, handle, payload, *extra)
                   for payload in payloads]
        merged: dict[str, LocationEstimate] = {}
        try:
            for future in futures:
                merged.update(future.result())
        except BaseException:
            for future in futures:
                future.cancel()
            raise
        return merged

    def _run_supervised(self, executor: ProcessPoolExecutor,
                        task: Callable[..., dict[str, LocationEstimate]],
                        handle: _SegmentHandle, payloads: Sequence[tuple],
                        extra: tuple[object, ...]
                        ) -> dict[str, LocationEstimate]:
        """Fan out with pool supervision: rebuild + retry failed shards.

        Each round submits only the still-failed shards; completed shard
        results are kept across rounds and merged in shard order at the
        end, so a recovered batch is bit-identical to an undisturbed one.
        Attempts are bounded by ``resilience.max_retries`` and separated
        by exponential backoff with deterministic jitter; an exhausted
        budget raises :class:`~repro.errors.PoolSupervisionError` chained
        to the last infrastructure failure.
        """
        resilience = self._config.resilience
        results: list[dict[str, LocationEstimate] | None] = \
            [None] * len(payloads)
        pending = list(range(len(payloads)))
        attempt = 0
        while pending:
            failure, failed = self._collect(executor, task, handle, payloads,
                                            extra, pending, results)
            if failure is None:
                break
            self._discard_executor(executor)
            self.stats.rebuilds += 1
            if attempt >= resilience.max_retries:
                self.stats.supervision_failures += 1
                raise PoolSupervisionError(
                    f"{len(failed)} shard(s) still failing after "
                    f"{attempt + 1} attempt(s); retry budget "
                    f"(max_retries={resilience.max_retries}) exhausted"
                ) from failure
            attempt += 1
            self.stats.shard_retries += len(failed)
            delay = self._backoff_delay(attempt)
            self.stats.backoff_slept_s += delay
            time.sleep(delay)
            pending = failed
            executor = self._ensure()
        merged: dict[str, LocationEstimate] = {}
        for result in results:
            assert result is not None  # every index left `pending` resolved
            merged.update(result)
        return merged

    def _backoff_delay(self, attempt: int) -> float:
        """Exponential backoff with deterministic, seeded jitter."""
        resilience = self._config.resilience
        delay = min(resilience.backoff_base_s * 2.0 ** (attempt - 1),
                    resilience.backoff_max_s)
        jitter = resilience.backoff_jitter
        if jitter:
            delay *= 1.0 + jitter * (2.0 * self._backoff_rng.random() - 1.0)
        return delay

    def _collect(self, executor: ProcessPoolExecutor,
                 task: Callable[..., dict[str, LocationEstimate]],
                 handle: _SegmentHandle, payloads: Sequence[tuple],
                 extra: tuple[object, ...], pending: Sequence[int],
                 results: list[dict[str, LocationEstimate] | None]
                 ) -> tuple[BaseException | None, list[int]]:
        """Run one supervision round over the pending shard indices.

        Fills ``results`` for every shard that completed and returns
        ``(failure, failed_indices)``, where ``failure`` is the
        representative *infrastructure* failure of the round (broken
        executor or deadline) or None when everything completed.  A
        task-level exception -- the worker itself raised -- is not an
        infrastructure failure: it cancels the round and propagates with
        the remote traceback chained, exactly like the unsupervised path
        (retrying a deterministic error would re-fail identically).
        """
        resilience = self._config.resilience
        deadline = None if resilience.shard_timeout_s is None \
            else time.monotonic() + resilience.shard_timeout_s
        try:
            futures: dict[int, Future[dict[str, LocationEstimate]]] = {
                index: executor.submit(task, handle, payloads[index], *extra)
                for index in pending}
        except BrokenExecutor as exc:
            # The pool was already broken (e.g. by a crash in a previous
            # call) and refused the submission: the whole round failed.
            self.stats.broken_pools += 1
            return exc, list(pending)
        failure: BaseException | None = None
        failed: list[int] = []
        try:
            for index, future in futures.items():
                remaining = None if deadline is None \
                    else max(deadline - time.monotonic(), 0.0)
                try:
                    results[index] = future.result(timeout=remaining)
                except (TimeoutError, concurrent.futures.TimeoutError) as exc:
                    self.stats.shard_timeouts += 1
                    failure = exc
                    failed.append(index)
                except BrokenExecutor as exc:
                    self.stats.broken_pools += 1
                    failure = exc
                    failed.append(index)
        except BaseException:
            for future in futures.values():
                future.cancel()
            raise
        if failure is not None:
            for future in futures.values():
                future.cancel()
        return failure, failed

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the workers down and mark the pool closed (idempotent).

        The executor is popped and the closed flag set under the lock, so
        a close racing an in-flight call's rebuild can neither be undone
        (any later ``_ensure`` raises) nor shut the same executor down
        twice; the potentially slow worker join happens outside the lock.
        """
        with self._lock:
            executor = self._executor
            self._executor = None
            self._pool_closed = True
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)
