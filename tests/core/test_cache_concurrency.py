"""Threaded stress tests for the shared LRU caches (``repro.core.cache``).

The process-wide :class:`SteeringCache`, :class:`WindowCache` and
:class:`BearingGridCache` instances are shared by every caller thread, so
their get/evict/clear sequences must hold up under real contention -- not
just under repro-lint's static RPR009 proof.  Each test hammers one cache
from many threads with a working set larger than ``max_entries`` (so
evictions race lookups and inserts race ``clear``), then asserts nothing
was lost, duplicated or corrupted: every returned entry is bit-for-bit the
expected value, no thread observed an exception, the stats counters add up
and the LRU never exceeds its bound.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.array.geometry import ArrayGeometry
from repro.core.cache import BearingGridCache, SteeringCache, WindowCache
from repro.geometry.vector import Point2D

NUM_THREADS = 8
ROUNDS_PER_THREAD = 40
BOUNDS = (0.0, 0.0, 8.0, 6.0)
RESOLUTION_M = 1.0


def _synced(barrier: threading.Barrier, worker, index: int):
    """Wait at the barrier, then run one worker (thread-pool entry point)."""
    barrier.wait()
    return worker(index)


def _hammer(worker, num_threads: int = NUM_THREADS) -> list:
    """Run ``worker(thread_index)`` across threads, starting them together.

    Re-raises the first worker exception (KeyError from a racing eviction,
    ValueError from a torn entry, ...) instead of burying it in a thread.
    """
    barrier = threading.Barrier(num_threads)
    with ThreadPoolExecutor(max_workers=num_threads) as pool:
        futures = [pool.submit(_synced, barrier, worker, index)
                   for index in range(num_threads)]
        return [future.result(timeout=60) for future in futures]


class TestSteeringCacheConcurrency:
    def test_concurrent_get_with_evictions(self):
        cache = SteeringCache(max_entries=3)
        geometries = [ArrayGeometry.uniform_linear(n) for n in (2, 3, 4, 5, 6)]
        angles = np.linspace(-90.0, 90.0, 37)
        expected = {
            geometry.num_elements: geometry.steering_matrix(angles, 0.0, 0.125)
            for geometry in geometries
        }

        def worker(index: int) -> int:
            checked = 0
            for round_index in range(ROUNDS_PER_THREAD):
                geometry = geometries[(index + round_index) % len(geometries)]
                steering = cache.get(geometry, angles, 0.125)
                assert not steering.flags.writeable
                np.testing.assert_array_equal(
                    steering, expected[geometry.num_elements])
                checked += 1
            return checked

        results = _hammer(worker)
        assert results == [ROUNDS_PER_THREAD] * NUM_THREADS
        assert len(cache) <= 3
        stats = cache.stats
        assert stats.hits + stats.misses == NUM_THREADS * ROUNDS_PER_THREAD
        assert stats.misses >= len(geometries)

    def test_concurrent_get_and_clear(self):
        cache = SteeringCache(max_entries=8)
        geometry = ArrayGeometry.uniform_linear(4)
        angles = np.linspace(0.0, 180.0, 19)
        expected = geometry.steering_matrix(angles, 0.0, 0.125)

        def worker(index: int) -> None:
            for _ in range(ROUNDS_PER_THREAD):
                if index == 0:
                    cache.clear()
                else:
                    np.testing.assert_array_equal(
                        cache.get(geometry, angles, 0.125), expected)

        _hammer(worker)
        assert len(cache) <= 8


class TestBearingGridCacheConcurrency:
    def test_concurrent_get_warm_evict(self):
        cache = BearingGridCache(max_entries=4)
        positions = [Point2D(float(x), float(x) / 2.0) for x in range(7)]
        expected = {}
        reference = BearingGridCache()
        for position in positions:
            expected[(position.x, position.y)] = np.array(
                reference.get(BOUNDS, RESOLUTION_M, position).bearings_deg)

        def worker(index: int) -> None:
            for round_index in range(ROUNDS_PER_THREAD):
                if round_index % 10 == index % 10:
                    # warm() races individual get()s and evictions.
                    cache.warm(BOUNDS, RESOLUTION_M, positions[:3])
                position = positions[(index + round_index) % len(positions)]
                grid = cache.get(BOUNDS, RESOLUTION_M, position)
                np.testing.assert_array_equal(
                    grid.bearings_deg, expected[(position.x, position.y)])
                assert grid.x_coords.shape[0] * grid.y_coords.shape[0] \
                    == grid.bearings_deg.shape[0]

        _hammer(worker)
        assert len(cache) <= 4
        stats = cache.stats
        warm_calls = sum(3 for index in range(NUM_THREADS)
                         for round_index in range(ROUNDS_PER_THREAD)
                         if round_index % 10 == index % 10)
        assert stats.hits + stats.misses \
            == NUM_THREADS * ROUNDS_PER_THREAD + warm_calls

    def test_warm_accepts_tuples_under_contention(self):
        cache = BearingGridCache(max_entries=16)

        def worker(index: int) -> int:
            return cache.warm(BOUNDS, RESOLUTION_M,
                              [(float(index), 1.0), (float(index), 2.0)])

        results = _hammer(worker)
        assert results == [2] * NUM_THREADS
        assert len(cache) == 2 * NUM_THREADS


class TestWindowCacheConcurrency:
    def test_racing_duplicate_computes_converge_to_one_entry(self):
        cache = WindowCache(max_entries=4)
        grids = [np.linspace(-90.0, 90.0, 19 + n) for n in range(6)]
        compute_calls = []

        def worker(index: int) -> None:
            for round_index in range(ROUNDS_PER_THREAD):
                angles = grids[(index + round_index) % len(grids)]

                def compute(angles=angles):
                    compute_calls.append(threading.get_ident())
                    return np.cos(np.radians(angles)) ** 2

                window = cache.get(angles, 30.0, compute)
                assert not window.flags.writeable
                np.testing.assert_array_equal(
                    window, np.cos(np.radians(angles)) ** 2)

        _hammer(worker)
        assert len(cache) <= 4
        # The compute runs outside the lock, so duplicates are allowed --
        # but a miss implies a compute, so there are at least as many
        # computes as misses and far fewer than total lookups.
        assert len(compute_calls) >= cache.stats.misses
        assert cache.stats.hits + cache.stats.misses \
            == NUM_THREADS * ROUNDS_PER_THREAD

    def test_len_is_safe_during_churn(self):
        cache = WindowCache(max_entries=2)
        grids = [np.linspace(0.0, 180.0, 11 + n) for n in range(5)]

        def worker(index: int) -> None:
            for round_index in range(ROUNDS_PER_THREAD):
                angles = grids[(index + round_index) % len(grids)]
                cache.get(angles, 20.0, lambda a=angles: np.ones_like(a))
                assert 0 <= len(cache) <= 2

        _hammer(worker)


@pytest.mark.parametrize("factory", [
    lambda: SteeringCache(max_entries=0),
    lambda: BearingGridCache(max_entries=-1),
    lambda: WindowCache(max_entries=0),
])
def test_invalid_capacity_is_rejected(factory):
    from repro.errors import EstimationError
    with pytest.raises(EstimationError):
        factory()
