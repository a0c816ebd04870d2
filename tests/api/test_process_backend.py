"""Cross-backend equality matrix for the process parallel backend.

The contract under test: ``parallel.backend="process"`` produces bit-for-bit
the same fixes, in the same client order, as the serial path, for every
batched entry point (``localize_many``,
``localize_buffered``, ``tick``, ``flush``) at mixed shard sizes --
including batches below ``2 * min_clients_per_worker``, where the process
service silently stays serial.  And because the backend moves spectra
through ``multiprocessing.shared_memory``, every test also asserts clean
teardown: no live segment after any call, none after ``close()``, and no
``arraytrack_*`` name left in ``/dev/shm``.
"""

import glob

import numpy as np
import pytest

from repro.api import ArrayTrackConfig, ArrayTrackService
from repro.api._procpool import SEGMENT_PREFIX, live_segments
from repro.channel import MultipathChannel
from repro.core import AoASpectrum, default_angle_grid
from repro.geometry import Point2D, bearing_deg

BOUNDS = (0.0, 0.0, 20.0, 10.0)
AP_POSITIONS = [Point2D(1.0, 1.0), Point2D(19.0, 1.0), Point2D(10.0, 9.5)]
#: Small pool: spawn cost dominates on CI runners, equality does not need
#: more workers to be exercised.
NUM_WORKERS = 2
MIN_CLIENTS_PER_WORKER = 2
#: Mixed batch sizes: 3 stays below 2 * min_clients_per_worker (serial
#: fallback inside the process-backend service), 7 fans out unevenly,
#: 22 exercises several clients per shard.
BATCH_SIZES = [3, 7, 22]


def _spectrum_towards(ap_position, target, timestamp_s=0.0, client_id="",
                      noise=None):
    angles = default_angle_grid(1.0)
    bearing = bearing_deg(ap_position, target)
    distance = np.minimum(np.abs(angles - bearing),
                          360 - np.abs(angles - bearing))
    power = np.exp(-0.5 * (distance / 3.0) ** 2) + 1e-4
    if noise is not None:
        power = power + noise
    return AoASpectrum(angles, power, ap_position=ap_position,
                       ap_id=f"ap@{ap_position.x:.0f},{ap_position.y:.0f}",
                       client_id=client_id, timestamp_s=timestamp_s)


def _clients(count, seed):
    """Randomized batch: random positions plus per-spectrum noise."""
    rng = np.random.default_rng(seed)
    grid_points = default_angle_grid(1.0).shape[0]
    clients = {}
    for index in range(count):
        target = Point2D(rng.uniform(2, 18), rng.uniform(2, 8))
        clients[f"c{index}"] = {
            f"ap{i}": [_spectrum_towards(
                position, target, noise=0.01 * rng.random(grid_points))]
            for i, position in enumerate(AP_POSITIONS)}
    return clients


def _config(backend, **overrides):
    config = ArrayTrackConfig(bounds=BOUNDS).updated(
        {"server.localizer.grid_resolution_m": 0.25, **overrides})
    if backend != "none":
        config = config.updated({
            "parallel.backend": backend,
            "parallel.num_workers": NUM_WORKERS,
            "parallel.min_clients_per_worker": MIN_CLIENTS_PER_WORKER})
    return config


def _assert_identical(actual, expected):
    assert list(actual) == list(expected)
    for key in expected:
        assert actual[key].position.x == expected[key].position.x
        assert actual[key].position.y == expected[key].position.y
        assert actual[key].likelihood == expected[key].likelihood
        assert actual[key].num_aps == expected[key].num_aps


def _assert_no_segments():
    assert live_segments() == frozenset()
    assert glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*") == []


@pytest.fixture(autouse=True)
def no_leaked_segments():
    """Every test in this module must leave zero live shm segments."""
    yield
    _assert_no_segments()


class TestLocalizeManyMatrix:
    @pytest.fixture(scope="class")
    def process_service(self):
        # One persistent pool for the whole size sweep: workers spawn once,
        # which is exactly how the backend is meant to amortize its cost.
        with ArrayTrackService(_config("process")) as service:
            yield service

    @pytest.mark.parametrize("count", BATCH_SIZES)
    def test_equality_across_backends(self, process_service, count):
        clients = _clients(count, seed=100 + count)
        serial = ArrayTrackService(_config("none")).localize_many(clients)
        processed = process_service.localize_many(clients)
        _assert_no_segments()
        _assert_identical(processed, serial)

    def test_small_batch_never_spawns_workers(self):
        # Run the smallest batch against a *fresh* process service: below
        # 2 * min_clients_per_worker no shards form and no pool starts.
        with ArrayTrackService(_config("process")) as service:
            fixes = service.localize_many(_clients(3, seed=7))
            assert len(fixes) == 3
            assert service._procpool is None


class TestLocalizeBufferedMatrix:
    def _build(self, backend):
        service = ArrayTrackService(_config(backend))
        for index, position in enumerate(AP_POSITIONS):
            ap = service.build_ap(f"ap{index}", position,
                                  rng=np.random.default_rng(index))
            for client in range(6):
                channel = MultipathChannel.from_bearings(
                    [20.0 + 17.0 * client], [1.0], direct_index=0,
                    client_id=f"c{client}", ap_id=ap.ap_id)
                ap.overhear(channel, timestamp_s=0.0)
        return service

    def test_equality_across_backends(self):
        client_ids = [f"c{i}" for i in range(6)]
        serial = self._build("none").localize_buffered(client_ids)
        with self._build("process") as process_service:
            processed = process_service.localize_buffered(client_ids)
            _assert_no_segments()
        _assert_identical(processed, serial)


class TestStreamingMatrix:
    def _ingest(self, service, count, seed=11):
        rng = np.random.default_rng(seed)
        grid_points = default_angle_grid(1.0).shape[0]
        for index in range(count):
            target = Point2D(rng.uniform(2, 18), rng.uniform(2, 8))
            for i, position in enumerate(AP_POSITIONS):
                for frame in range(2):
                    service.ingest(
                        f"ap{i}",
                        _spectrum_towards(
                            position, target, timestamp_s=frame * 0.01,
                            noise=0.01 * rng.random(grid_points)),
                        client_id=f"c{index}",
                        timestamp_s=frame * 0.01)

    @pytest.mark.parametrize("suppress", [False, True])
    def test_tick_equality_across_backends(self, suppress):
        overrides = {"session.emit_every_frames": 1,
                     "session.suppress_multipath": suppress}
        results = {}
        for backend in ("none", "process"):
            with ArrayTrackService(_config(backend, **overrides)) as service:
                self._ingest(service, 10)
                results[backend] = service.tick()
                _assert_no_segments()
                assert all(session.pending_frames == 0
                           for session in service.sessions.values())
                assert all(service.latest_fix(key) is not None
                           for key in results[backend])
        _assert_identical(results["process"], results["none"])

    def test_flush_equality_across_backends(self):
        overrides = {"session.emit_every_frames": 0}
        results = {}
        for backend in ("none", "process"):
            with ArrayTrackService(_config(backend, **overrides)) as service:
                self._ingest(service, 8, seed=23)
                results[backend] = service.flush()
                _assert_no_segments()
        _assert_identical(results["process"], results["none"])


class TestSharedMemoryTeardown:
    def test_segments_cleaned_after_calls_and_close(self):
        service = ArrayTrackService(_config("process"))
        clients = _clients(8, seed=42)
        for _ in range(3):
            service.localize_many(clients)
            _assert_no_segments()
        assert service._procpool is not None
        assert service._procpool.started
        service.close()
        _assert_no_segments()
        assert service._procpool is None
