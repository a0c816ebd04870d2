"""Tests for the ArrayTrack server backend and the client tracker."""

import numpy as np
import pytest

from repro.api import ArrayTrackConfig, ArrayTrackService
from repro.core import AoASpectrum, LocalizerConfig, LocationEstimate, default_angle_grid
from repro.errors import ConfigurationError, EstimationError
from repro.geometry import Point2D, bearing_deg
from repro.server import ArrayTrackServer, ClientTracker, ServerConfig


def _spectrum_towards(ap_position, target, width=3.0, timestamp_s=0.0,
                      extra_peak=None):
    angles = default_angle_grid(1.0)
    bearing = bearing_deg(ap_position, target)
    distance = np.minimum(np.abs(angles - bearing), 360 - np.abs(angles - bearing))
    power = np.exp(-0.5 * (distance / width) ** 2) + 1e-4
    if extra_peak is not None:
        extra_distance = np.minimum(np.abs(angles - extra_peak),
                                    360 - np.abs(angles - extra_peak))
        power += 0.9 * np.exp(-0.5 * (extra_distance / width) ** 2)
    return AoASpectrum(angles, power, ap_position=ap_position,
                       ap_id=f"ap@{ap_position.x:.0f},{ap_position.y:.0f}",
                       timestamp_s=timestamp_s)


BOUNDS = (0.0, 0.0, 20.0, 10.0)
TARGET = Point2D(12.0, 6.0)
AP_POSITIONS = [Point2D(1.0, 1.0), Point2D(19.0, 1.0), Point2D(10.0, 9.5)]


class TestArrayTrackServer:
    def _config(self, **config_kwargs):
        return ServerConfig(localizer=LocalizerConfig(grid_resolution_m=0.2),
                            **config_kwargs)

    def _server(self, **config_kwargs):
        return ArrayTrackServer(BOUNDS, self._config(**config_kwargs))

    def _service(self, **config_kwargs):
        """A facade over the same server config (single-client entry)."""
        return ArrayTrackService(ArrayTrackConfig(
            bounds=BOUNDS, server=self._config(**config_kwargs)))

    def test_multipath_suppression_removes_unstable_ghost(self):
        """A reflection peak present in only one frame should be suppressed."""
        ghost_bearing = 200.0
        spectra = {
            "ap0": [
                _spectrum_towards(AP_POSITIONS[0], TARGET, timestamp_s=0.0,
                                  extra_peak=ghost_bearing),
                _spectrum_towards(AP_POSITIONS[0], TARGET, timestamp_s=0.03),
            ],
            "ap1": [_spectrum_towards(AP_POSITIONS[1], TARGET, timestamp_s=0.0)],
            "ap2": [_spectrum_towards(AP_POSITIONS[2], TARGET, timestamp_s=0.0)],
        }
        with_suppression = self._service(enable_multipath_suppression=True)
        estimate = with_suppression.localize(spectra)
        assert estimate.position.distance_to(TARGET) < 0.3

    def test_no_spectra_raises(self):
        with pytest.raises(EstimationError):
            self._service().localize({})

    def test_localize_client_requires_aps(self):
        with pytest.raises(ConfigurationError):
            self._server().localize_client([], "c")

    def test_latency_breakdown_uses_measured_processing(self):
        server = self._server(measure_processing_time=True)
        spectra = {f"ap{i}": [_spectrum_towards(p, TARGET)]
                   for i, p in enumerate(AP_POSITIONS)}
        server.localize_batch({"c": spectra})
        assert server.last_processing_s is not None
        breakdown = server.latency_breakdown(use_measured_processing=True)
        assert breakdown.processing_s == pytest.approx(server.last_processing_s)
        paper = server.latency_breakdown(use_measured_processing=False)
        assert paper.processing_s == pytest.approx(0.1)

    def _batch_of_clients(self, count):
        rng = np.random.default_rng(11)
        clients = {}
        for index in range(count):
            target = Point2D(rng.uniform(1.0, 19.0), rng.uniform(1.0, 9.0))
            clients[f"c{index}"] = {
                f"ap{i}": [_spectrum_towards(p, target)]
                for i, p in enumerate(AP_POSITIONS)
            }
        return clients

    def test_localize_batch_matches_sequential_loop(self):
        service = self._service()
        clients = self._batch_of_clients(5)
        sequential = {client_id: service.localize(spectra, client_id)
                      for client_id, spectra in clients.items()}
        batched = service.server.localize_batch(clients)
        assert set(batched) == set(clients)
        for client_id in clients:
            assert batched[client_id].position.distance_to(
                sequential[client_id].position) <= 1e-9
            assert batched[client_id].client_id == client_id

    def test_localize_batch_runs_multipath_suppression_per_client(self):
        """Each client's per-AP frames are suppressed exactly as when alone."""
        ghost_bearing = 200.0
        spectra = {
            "ap0": [
                _spectrum_towards(AP_POSITIONS[0], TARGET, timestamp_s=0.0,
                                  extra_peak=ghost_bearing),
                _spectrum_towards(AP_POSITIONS[0], TARGET, timestamp_s=0.03),
            ],
            "ap1": [_spectrum_towards(AP_POSITIONS[1], TARGET, timestamp_s=0.0)],
            "ap2": [_spectrum_towards(AP_POSITIONS[2], TARGET, timestamp_s=0.0)],
        }
        service = self._service(enable_multipath_suppression=True)
        single = service.localize(spectra, "c0")
        batched = service.server.localize_batch({"c0": spectra})
        assert batched["c0"].position.distance_to(single.position) <= 1e-9
        assert batched["c0"].position.distance_to(TARGET) < 0.3

    def test_localize_batch_rejects_empty_input(self):
        server = self._server()
        with pytest.raises(EstimationError):
            server.localize_batch({})
        with pytest.raises(EstimationError):
            server.localize_batch({"c": {}})

    def test_localize_clients_requires_aps(self):
        with pytest.raises(ConfigurationError):
            self._server().localize_clients([], ["c"])

    def test_synthesize_batch_skips_server_side_suppression(self):
        """Pre-suppressed spectra must enter the synthesis untouched."""
        ghost_bearing = 200.0
        ghost = _spectrum_towards(AP_POSITIONS[0], TARGET, timestamp_s=0.0,
                                  extra_peak=ghost_bearing)
        companion = _spectrum_towards(AP_POSITIONS[0], TARGET, timestamp_s=0.03)
        others = [_spectrum_towards(p, TARGET) for p in AP_POSITIONS[1:]]
        server = self._server(enable_multipath_suppression=True)
        # localize_batch groups ap0's pair and folds the one suppressed
        # primary (3 spectra total); synthesize_batch folds exactly what it
        # is given (all 4 raw spectra) -- no second suppression pass.
        suppressed = server.localize_batch(
            {"c": {"ap0": [ghost, companion],
                   "ap1": [others[0]], "ap2": [others[1]]}})["c"]
        raw = server.synthesize_batch({"c": [ghost, companion] + others})["c"]
        assert suppressed.position.distance_to(TARGET) < 0.3
        assert raw.likelihood != suppressed.likelihood

    def test_synthesize_batch_matches_unsuppressed_localize_batch(self):
        server = self._server(enable_multipath_suppression=False)
        spectra = {f"ap{i}": [_spectrum_towards(p, TARGET)]
                   for i, p in enumerate(AP_POSITIONS)}
        via_batch = server.localize_batch({"c": spectra})["c"]
        via_synthesis = server.synthesize_batch(
            {"c": [s[0] for s in spectra.values()]})["c"]
        assert via_batch.position == via_synthesis.position
        assert via_batch.likelihood == via_synthesis.likelihood

    def test_synthesize_batch_rejects_empty_input(self):
        server = self._server()
        with pytest.raises(EstimationError):
            server.synthesize_batch({})
        with pytest.raises(EstimationError, match="'c'"):
            server.synthesize_batch({"c": []})

    def test_localize_batch_ragged_ap_subsets(self):
        """Clients heard by different AP subsets localize in one batch."""
        service = self._service()
        rng = np.random.default_rng(13)
        clients, sequential = {}, {}
        for index, subset in enumerate(([0, 1, 2], [0, 2], [1, 2])):
            target = Point2D(rng.uniform(2.0, 18.0), rng.uniform(2.0, 8.0))
            spectra = {f"ap{i}": [_spectrum_towards(AP_POSITIONS[i], target)]
                       for i in subset}
            clients[f"c{index}"] = spectra
        sequential = {cid: service.localize(s, cid)
                      for cid, s in clients.items()}
        batched = service.server.localize_batch(clients)
        for cid in clients:
            assert batched[cid].position.distance_to(
                sequential[cid].position) <= 1e-9
            assert batched[cid].num_aps == sequential[cid].num_aps


class TestClientTracker:
    def _estimate(self, x, y):
        return LocationEstimate(position=Point2D(x, y), likelihood=1.0, num_aps=3)

    def test_first_fix_is_not_smoothed(self):
        tracker = ClientTracker(smoothing_factor=0.5)
        point = tracker.update("c", self._estimate(1.0, 1.0), 0.0)
        assert point.smoothed_position == Point2D(1.0, 1.0)

    def test_smoothing_blends_consecutive_fixes(self):
        tracker = ClientTracker(smoothing_factor=0.5)
        tracker.update("c", self._estimate(0.0, 0.0), 0.0)
        point = tracker.update("c", self._estimate(2.0, 0.0), 0.1)
        assert point.smoothed_position.x == pytest.approx(1.0)

    def test_track_history_and_clients(self):
        tracker = ClientTracker()
        for index in range(5):
            tracker.update("a", self._estimate(float(index), 0.0), float(index))
        tracker.update("b", self._estimate(0.0, 0.0), 0.0)
        assert tracker.clients() == ["a", "b"]
        assert len(tracker.track("a")) == 5
        assert tracker.latest("a").position.x == pytest.approx(4.0)
        assert tracker.latest("missing") is None

    def test_max_history_trims_old_fixes(self):
        tracker = ClientTracker(max_history=3)
        for index in range(6):
            tracker.update("a", self._estimate(float(index), 0.0), float(index))
        track = tracker.track("a")
        assert len(track) == 3
        assert track[0].position.x == pytest.approx(3.0)

    def test_path_length(self):
        tracker = ClientTracker(smoothing_factor=1.0)
        for index in range(4):
            tracker.update("a", self._estimate(float(index), 0.0), float(index))
        assert tracker.path_length_m("a") == pytest.approx(3.0)
        assert tracker.path_length_m("unknown") == 0.0

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            ClientTracker(smoothing_factor=0.0)
        with pytest.raises(ConfigurationError):
            ClientTracker(max_history=0)
        with pytest.raises(ConfigurationError):
            ClientTracker(on_out_of_order="panic")

    def test_out_of_order_fix_inserted_chronologically(self):
        tracker = ClientTracker(smoothing_factor=1.0)
        tracker.update("a", self._estimate(0.0, 0.0), 0.0)
        tracker.update("a", self._estimate(2.0, 0.0), 2.0)
        late = tracker.update("a", self._estimate(1.0, 0.0), 1.0)
        track = tracker.track("a")
        assert [p.timestamp_s for p in track] == [0.0, 1.0, 2.0]
        assert track[1] == late
        # latest() still reports the chronologically newest fix.
        assert tracker.latest("a").timestamp_s == 2.0
        assert tracker.latest("a").position.x == pytest.approx(2.0)
        # The path walks 0 -> 1 -> 2, not 0 -> 2 -> 1 (which would be 3 m).
        assert tracker.path_length_m("a") == pytest.approx(2.0)

    def test_out_of_order_fix_recomputes_smoothing_downstream(self):
        tracker = ClientTracker(smoothing_factor=0.5)
        tracker.update("a", self._estimate(0.0, 0.0), 0.0)
        tracker.update("a", self._estimate(4.0, 0.0), 2.0)
        tracker.update("a", self._estimate(2.0, 0.0), 1.0)
        track = tracker.track("a")
        # EMA along chronological order: 0, then 0.5*2, then mid(1, 4).
        assert track[0].smoothed_position.x == pytest.approx(0.0)
        assert track[1].smoothed_position.x == pytest.approx(1.0)
        assert track[2].smoothed_position.x == pytest.approx(2.5)

    def test_duplicate_timestamp_inserted_after_existing(self):
        tracker = ClientTracker(smoothing_factor=1.0)
        tracker.update("a", self._estimate(0.0, 0.0), 1.0)
        duplicate = tracker.update("a", self._estimate(5.0, 0.0), 1.0)
        track = tracker.track("a")
        assert [p.position.x for p in track] == [0.0, 5.0]
        assert tracker.latest("a") == duplicate

    def test_reject_policy_raises_on_regression_and_duplicate(self):
        tracker = ClientTracker(on_out_of_order="reject")
        tracker.update("a", self._estimate(0.0, 0.0), 1.0)
        with pytest.raises(EstimationError, match="out-of-order"):
            tracker.update("a", self._estimate(1.0, 0.0), 0.5)
        with pytest.raises(EstimationError, match="out-of-order"):
            tracker.update("a", self._estimate(1.0, 0.0), 1.0)
        # The failed updates left the track untouched; advancing works.
        assert len(tracker.track("a")) == 1
        tracker.update("a", self._estimate(2.0, 0.0), 2.0)
        assert tracker.latest("a").timestamp_s == 2.0

    def test_tracker_config_builds_equivalent_tracker(self):
        from repro.server import TrackerConfig

        tracker = TrackerConfig(smoothing_factor=0.4, max_history=2,
                                on_out_of_order="reject").build()
        assert tracker.smoothing_factor == 0.4
        assert tracker.max_history == 2
        assert tracker.on_out_of_order == "reject"
