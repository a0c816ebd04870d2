"""Tests for the sharded parallel execution layer (the ``parallel`` section).

The config section, the worker pool's lifecycle and failure modes, and the
processing-time measurement.  The cross-backend bit-equality matrix of every
batched entry point lives in ``test_process_backend.py``.
"""

import time

import numpy as np
import pytest
from concurrent.futures.process import BrokenProcessPool

from repro.api import (ArrayTrackConfig, ArrayTrackService, ParallelConfig,
                       ServerConfig, SessionConfig)
from repro.api._procpool import live_segments
from repro.channel import MultipathChannel
from repro.core import (AoASpectrum, LocalizerConfig, MultipathSuppressor,
                        default_angle_grid)
from repro.errors import ConfigurationError, EstimationError
from repro.geometry import Point2D, bearing_deg

BOUNDS = (0.0, 0.0, 20.0, 10.0)
AP_POSITIONS = [Point2D(1.0, 1.0), Point2D(19.0, 1.0), Point2D(10.0, 9.5)]


def _spectrum_towards(ap_position, target, timestamp_s=0.0, client_id=""):
    angles = default_angle_grid(1.0)
    bearing = bearing_deg(ap_position, target)
    distance = np.minimum(np.abs(angles - bearing),
                          360 - np.abs(angles - bearing))
    power = np.exp(-0.5 * (distance / 3.0) ** 2) + 1e-4
    return AoASpectrum(angles, power, ap_position=ap_position,
                       ap_id=f"ap@{ap_position.x:.0f},{ap_position.y:.0f}",
                       client_id=client_id, timestamp_s=timestamp_s)


def _clients(count, seed=3):
    rng = np.random.default_rng(seed)
    clients = {}
    for index in range(count):
        target = Point2D(rng.uniform(2, 18), rng.uniform(2, 8))
        clients[f"c{index}"] = {
            f"ap{i}": [_spectrum_towards(p, target)]
            for i, p in enumerate(AP_POSITIONS)}
    return clients


def _service(parallel=None, **overrides):
    config = ArrayTrackConfig(bounds=BOUNDS).updated(
        {"server.localizer.grid_resolution_m": 0.25, **overrides})
    if parallel is not None:
        config = config.updated({
            f"parallel.{key}": value for key, value in parallel.items()})
    return ArrayTrackService(config)


def _assert_identical(sharded, serial):
    assert list(sharded) == list(serial)
    for key in serial:
        assert sharded[key].position.x == serial[key].position.x
        assert sharded[key].position.y == serial[key].position.y
        assert sharded[key].likelihood == serial[key].likelihood
        assert sharded[key].num_aps == serial[key].num_aps


class TestParallelConfigSection:
    def test_defaults_off(self):
        config = ArrayTrackConfig()
        assert config.parallel == ParallelConfig()
        assert config.parallel.backend == "none"

    def test_round_trips_with_non_default_values(self):
        config = ArrayTrackConfig(
            bounds=BOUNDS,
            parallel=ParallelConfig(backend="process", num_workers=2,
                                    min_clients_per_worker=4))
        restored = ArrayTrackConfig.from_dict(config.to_dict())
        assert restored == config
        assert restored.parallel.num_workers == 2
        assert ArrayTrackConfig.from_json(config.to_json()) == config

    def test_env_override_reaches_parallel_section(self):
        config = ArrayTrackConfig(bounds=BOUNDS).with_env_overrides({
            "ARRAYTRACK_PARALLEL__BACKEND": "process",
            "ARRAYTRACK_PARALLEL__NUM_WORKERS": "3",
        })
        assert config.parallel.backend == "process"
        assert config.parallel.num_workers == 3

    @pytest.mark.parametrize("kwargs", [
        {"backend": "fork"},
        {"backend": ""},
        # The thread backend was removed: it never beat serial by 1.2x.
        {"backend": "thread"},
        {"num_workers": 0},
        {"num_workers": 2.5},
        # bool is an int subclass; ARRAYTRACK_PARALLEL__NUM_WORKERS=true
        # must not silently become one worker that never fans out.
        {"num_workers": True},
        {"min_clients_per_worker": 0},
        {"min_clients_per_worker": False},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ParallelConfig(**kwargs)

    def test_invalid_value_names_path_from_dict(self):
        with pytest.raises(ConfigurationError, match="backend"):
            ArrayTrackConfig.from_dict({"parallel": {"backend": "mpi"}})


class TestShardedLocalizeMany:
    def test_double_close_is_idempotent_for_process_backend(self):
        service = _service(parallel={"backend": "process", "num_workers": 2,
                                     "min_clients_per_worker": 2})
        assert service._procpool is None
        service.localize_many(_clients(6))
        assert service._procpool is not None
        service.close()
        assert service._procpool is None
        service.close()
        assert live_segments() == frozenset()

    @pytest.mark.parametrize("backend", ["none", "process"])
    def test_use_after_close_raises_clear_error(self, backend):
        parallel = None if backend == "none" else {
            "backend": backend, "num_workers": 2,
            "min_clients_per_worker": 2}
        service = _service(parallel=parallel)
        service.close()
        with pytest.raises(ConfigurationError, match="closed"):
            service.localize_many(_clients(6))
        with pytest.raises(ConfigurationError, match="closed"):
            service.tick()
        with pytest.raises(ConfigurationError, match="closed"):
            service.flush()
        with pytest.raises(ConfigurationError, match="closed"):
            service.localize_buffered(["c0"])

    def test_measured_processing_time_covers_whole_pass(self):
        service = _service(parallel={"backend": "process", "num_workers": 2,
                                     "min_clients_per_worker": 2})
        service.localize_many(_clients(8))
        assert service.last_processing_s is not None
        assert service.last_processing_s > 0.0
        service.close()


class _SleepySuppressor(MultipathSuppressor):
    """A suppressor that takes at least 50 ms per call."""

    def process(self, spectra, timestamps=None):
        time.sleep(0.05)
        return super().process(spectra, timestamps=timestamps)


class TestProcessingTime:
    """``last_processing_s`` covers suppression + synthesis on every path."""

    @staticmethod
    def _sleepy_service(**session):
        """A serial service whose suppressor (both paths) sleeps."""
        config = ArrayTrackConfig(
            bounds=BOUNDS,
            server=ServerConfig(
                localizer=LocalizerConfig(grid_resolution_m=0.5)),
            suppressor=_SleepySuppressor(),
            session=SessionConfig(**session))
        return ArrayTrackService(config)

    @staticmethod
    def _two_frame_clients(count):
        # Two frames per AP, so the Section 2.4 suppressor runs for each.
        return {client_id: {ap_id: spectra * 2
                            for ap_id, spectra in per_ap.items()}
                for client_id, per_ap in _clients(count).items()}

    def test_serial_pass_includes_suppression(self):
        service = self._sleepy_service()
        service.localize_many(self._two_frame_clients(2))
        assert service.last_processing_s >= 0.05

    @staticmethod
    def _localize(service):
        service.localize(TestProcessingTime._two_frame_clients(1)["c0"], "c0")

    @staticmethod
    def _localize_buffered(service):
        for index, position in enumerate(AP_POSITIONS):
            ap = service.build_ap(f"ap{index}", position,
                                  rng=np.random.default_rng(index))
            for frame in range(2):
                ap.overhear(MultipathChannel.from_bearings(
                    [40.0 + 30.0 * index], [1.0], direct_index=0,
                    client_id="c0", ap_id=ap.ap_id),
                    timestamp_s=0.01 * frame)
        service.localize_buffered(["c0"])

    @staticmethod
    def _ingest_two_frames(service):
        for client_id, per_ap in TestProcessingTime._two_frame_clients(
                2).items():
            for ap_id, spectra in per_ap.items():
                for frame, spectrum in enumerate(spectra):
                    service.ingest(ap_id, spectrum, client_id=client_id,
                                   timestamp_s=0.01 * frame)

    @staticmethod
    def _tick(service):
        TestProcessingTime._ingest_two_frames(service)
        assert service.tick()

    @staticmethod
    def _flush(service):
        TestProcessingTime._ingest_two_frames(service)
        assert service.flush()

    @pytest.mark.parametrize("entry,session", [
        ("_localize", {}),
        ("_localize_buffered", {}),
        ("_tick", {"emit_every_frames": 2, "suppress_multipath": False}),
        ("_tick", {"emit_every_frames": 2, "suppress_multipath": True}),
        ("_flush", {"emit_every_frames": 0}),
    ], ids=["localize", "localize_buffered", "tick", "tick_suppressed",
            "flush"])
    def test_every_serial_entry_point_includes_suppression(self, entry,
                                                           session):
        service = self._sleepy_service(**session)
        getattr(self, entry)(service)
        assert service.last_processing_s >= 0.05


class TestProcessPoolFailureModes:
    """Lifecycle edge cases of the process backend's worker pool."""

    def _process_service(self):
        return _service(parallel={"backend": "process", "num_workers": 2,
                                  "min_clients_per_worker": 2})

    def _poisoned_clients(self):
        """A fan-out-sized batch whose last client fails in the worker."""
        clients = _clients(6)
        angles = default_angle_grid(1.0)
        clients["poisoned"] = {"ap0": [AoASpectrum(
            angles, np.ones_like(angles), ap_position=None,
            client_id="poisoned", ap_id="ap0")]}
        return clients

    def test_worker_exception_surfaces_original_error(self):
        with self._process_service() as service:
            with pytest.raises(EstimationError) as excinfo:
                service.localize_many(self._poisoned_clients())
            # concurrent.futures chains the remote traceback text onto the
            # unpickled exception, so the worker-side failure site is
            # visible to the caller instead of a bare opaque error.
            assert excinfo.value.__cause__ is not None
            assert "EstimationError" in str(excinfo.value.__cause__)
            assert live_segments() == frozenset()
            # The pool survives a task-level exception and stays usable.
            fixes = service.localize_many(_clients(6))
            assert len(fixes) == 6
        assert live_segments() == frozenset()

    def test_context_manager_exit_under_inflight_exception(self):
        service = self._process_service()
        with pytest.raises(EstimationError):
            with service:
                service.localize_many(_clients(6))   # spawn the workers
                service.localize_many(self._poisoned_clients())
        # The with-block closed the service despite the in-flight failure:
        # pools are gone, nothing leaked, further use raises.
        assert service._procpool is None
        assert live_segments() == frozenset()
        with pytest.raises(ConfigurationError, match="closed"):
            service.localize_many(_clients(6))

    def test_worker_crash_recovers_under_supervision(self):
        import os as _os

        service = self._process_service()
        baseline = service.localize_many(_clients(6))   # spawn + warm
        executor = service._procpool._ensure()
        # Hard-kill one worker: the pool breaks (reported, not a deadlock)
        # ...
        doomed = executor.submit(_os._exit, 3)
        with pytest.raises(BrokenProcessPool):
            doomed.result(timeout=120)
        # ... and the default supervision rebuilds it on the next batched
        # call, which succeeds bit-identically instead of propagating the
        # breakage.
        _assert_identical(service.localize_many(_clients(6)), baseline)
        assert service._procpool.stats.rebuilds >= 1
        assert live_segments() == frozenset()
        # close() still works on a supervised (rebuilt) pool.
        service.close()
        assert service._procpool is None

    def test_worker_crash_raises_without_supervision(self):
        import os as _os

        service = _service(
            parallel={"backend": "process", "num_workers": 2,
                      "min_clients_per_worker": 2},
            **{"resilience.supervise_pool": False,
               "resilience.breaker_enabled": False})
        service.localize_many(_clients(6))   # spawn + warm the workers
        executor = service._procpool._ensure()
        doomed = executor.submit(_os._exit, 3)
        with pytest.raises(BrokenProcessPool):
            doomed.result(timeout=120)
        # PR-6 semantics restored: the breakage propagates to the caller.
        with pytest.raises(BrokenProcessPool):
            service.localize_many(_clients(6))
        assert live_segments() == frozenset()
        # close() still works on a broken pool.
        service.close()
        assert service._procpool is None
