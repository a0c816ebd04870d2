"""End-to-end integration tests spanning every layer of the system."""

import numpy as np

from repro.api import ArrayTrackConfig, ArrayTrackService
from repro.core import LocalizerConfig
from repro.geometry import Point2D
from repro.channel import random_waypoint_track
from repro.server import ArrayTrackServer, ClientTracker, ServerConfig
from repro.testbed import ScenarioConfig, SimulatedDeployment, build_office_testbed


def _service(bounds, grid_resolution_m=0.4):
    """The facade with its documented defaults (0.05 spectrum floor)."""
    return ArrayTrackService(ArrayTrackConfig(bounds=bounds).updated(
        {"server.localizer.grid_resolution_m": grid_resolution_m}))


class TestFullPipeline:
    def test_service_localizes_within_two_metres(self):
        testbed = build_office_testbed()
        deployment = SimulatedDeployment(testbed, ScenarioConfig(seed=7))
        spectra = deployment.collect_client_spectra("client-17")
        estimate = _service(testbed.bounds, 0.3).localize(spectra, "client-17")
        assert estimate.error_to(testbed.client_position("client-17")) < 2.0
        assert estimate.num_aps == 6

    def test_more_aps_never_catastrophically_worse(self):
        """Median error over a handful of clients should not grow with APs."""
        testbed = build_office_testbed()
        deployment = SimulatedDeployment(testbed, ScenarioConfig(seed=11))
        service = _service(testbed.bounds)
        errors = {3: [], 6: []}
        for client_id in testbed.client_ids()[:6]:
            deployment.clear()
            spectra = deployment.collect_client_spectra(client_id)
            truth = testbed.client_position(client_id)
            subset = {ap: spectra[ap] for ap in ["1", "3", "5"] if ap in spectra}
            errors[3].append(service.localize(subset, client_id).error_to(truth))
            errors[6].append(service.localize(spectra, client_id).error_to(truth))
        assert np.median(errors[6]) <= np.median(errors[3]) * 1.5

    def test_batched_fixes_match_sequential_over_simulated_deployment(self):
        """Full-pipeline spectra: batch API agrees with per-client fixes."""
        testbed = build_office_testbed()
        deployment = SimulatedDeployment(testbed, ScenarioConfig(seed=23))
        service = _service(testbed.bounds)
        client_ids = testbed.client_ids()[:4]
        spectra_by_client = {}
        for client_id in client_ids:
            deployment.clear()
            spectra_by_client[client_id] = deployment.collect_client_spectra(
                client_id)
        sequential = {client_id: service.localize(spectra, client_id)
                      for client_id, spectra in spectra_by_client.items()}
        batched = service.localize_many(spectra_by_client)
        for client_id in client_ids:
            assert batched[client_id].position.distance_to(
                sequential[client_id].position) <= 1e-9
            assert batched[client_id].num_aps == sequential[client_id].num_aps

    def test_localize_clients_end_to_end(self):
        """AP-level batch entry point produces fixes for every buffered client."""
        testbed = build_office_testbed()
        deployment = SimulatedDeployment(testbed,
                                         ScenarioConfig(frames_per_client=1,
                                                        seed=31))
        server = ArrayTrackServer(
            testbed.bounds,
            ServerConfig(localizer=LocalizerConfig(grid_resolution_m=0.4,
                                                   spectrum_floor=0.05)))
        client_ids = testbed.client_ids()[:3]
        for client_id in client_ids:
            deployment.capture_client(client_id)
        estimates = server.localize_clients(list(deployment.aps.values()),
                                            client_ids)
        assert set(estimates) == set(client_ids)
        for client_id in client_ids:
            truth = testbed.client_position(client_id)
            assert estimates[client_id].error_to(truth) < 4.0

    def test_tracking_a_walking_client(self):
        """Localize a client at several waypoints and track the trajectory."""
        testbed = build_office_testbed()
        deployment = SimulatedDeployment(testbed,
                                         ScenarioConfig(frames_per_client=1, seed=5))
        service = _service(testbed.bounds)
        tracker = ClientTracker(smoothing_factor=0.7)
        waypoints = random_waypoint_track(Point2D(6.0, 4.0), Point2D(14.0, 4.0), 4)
        errors = []
        for index, waypoint in enumerate(waypoints):
            deployment.clear()
            deployment.capture_client("walker", positions=[waypoint],
                                      start_time_s=index * 0.5)
            spectra = deployment.spectra_for_client("walker")
            estimate = service.localize(spectra, "walker")
            point = tracker.update("walker", estimate, index * 0.5)
            errors.append(point.position.distance_to(waypoint))
        assert len(tracker.track("walker")) == len(waypoints)
        assert float(np.median(errors)) < 2.0
        assert tracker.path_length_m("walker") > 0.0
