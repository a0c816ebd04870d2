"""Benchmark: batched Section 2.3 AoA frontend throughput.

PRs 1-4 batched everything downstream of the spectrum -- the Equation 8 grid
fold, the hill-climb refinement and the sharded service -- but every
AoA spectrum itself was still produced one frame at a time: per-frame
covariance, per-frame 8x8 ``eigh``, per-frame noise-projection GEMM and a
recomputed W(theta) window.  This benchmark measures the stacked frontend
(:meth:`repro.core.pipeline.SpectrumComputer.compute_many` reached through
``ArrayTrackAP.compute_spectra``) against the serial per-frame oracle
(:func:`repro.testing.reference.compute_spectra`), two ways:

* **frontend microbench** -- one AP, one client, 256 buffered frames:
  frames-per-second through ``spectra_for_client`` with the full paper
  pipeline (smoothing, MUSIC, mirroring, weighting, symmetry removal);
* **end to end** -- the office testbed: frames -> spectra -> fixes through
  ``ArrayTrackService.localize_buffered`` over every deployment AP (serial:
  the oracle's spectra into ``ArrayTrackService.localize_many``), so the
  number reflects what the batched frontend buys a whole localization sweep.

Asserted: the vectorized frontend beats the serial path by >= 5x at 256
frames, and both paths produce bit-for-bit identical spectra and fixes.

Results are also written to ``BENCH_frontend.json`` (frames/s and speedups)
so the perf trajectory is machine-readable across PRs.  Run with
``--bench-smoke`` for an untimed single-repetition equality canary at
reduced sizes (the 5x bar is only asserted at full size, where it is not
noise-bound).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.api import ArrayTrackConfig, ArrayTrackService
from repro.ap import APConfig, ArrayTrackAP
from repro.channel import MultipathChannel
from repro.eval import format_table
from repro.geometry.vector import Point2D
from repro.testbed import ScenarioConfig, SimulatedDeployment, build_office_testbed
from repro.testing import reference

from conftest import run_once

GRID_RESOLUTION_M = 0.25
NUM_FRAMES = 256
NUM_CLIENTS = 16
REPETITIONS = 7
SPEEDUP_FLOOR = 5.0
#: Reduced problem sizes for the --bench-smoke CI canary.
SMOKE_FRAMES = 24
SMOKE_CLIENTS = 4
#: Machine-readable results for cross-PR perf tracking.
RESULTS_PATH = os.path.join(os.environ.get("BENCH_OUTPUT_DIR", "."),
                            "BENCH_frontend.json")


def _buffered_ap(num_frames: int) -> ArrayTrackAP:
    """One paper-faithful AP with ``num_frames`` buffered frames of a client."""
    ap = ArrayTrackAP(
        "bench-ap", Point2D(0.0, 0.0), orientation_deg=30.0,
        config=APConfig(buffer_capacity=num_frames),
        rng=np.random.default_rng(2013))
    rng = np.random.default_rng(7)
    for index in range(num_frames):
        channel = MultipathChannel.from_bearings(
            [float(rng.uniform(10.0, 170.0)), float(rng.uniform(10.0, 350.0))],
            [1.0, float(rng.uniform(0.3, 0.8)) * np.exp(1j * rng.uniform(0, 6))],
            client_id="client")
        ap.overhear(channel, timestamp_s=0.03 * index, rng=rng)
    return ap


def _timed_pair(serial_run, batched_run, repetitions: int = REPETITIONS):
    """Median wall time of two callables, sampled alternately.

    Both are run once untimed (warm caches / steady state); the timed
    repetitions then alternate serial, batched, serial, ... so a change in
    host speed during the measurement falls on both paths alike instead of
    on whichever happened to run while the host was slow.
    """
    serial, batched = serial_run(), batched_run()
    serial_samples, batched_samples = [], []
    for _ in range(repetitions):
        start = time.perf_counter()
        serial = serial_run()
        serial_samples.append(time.perf_counter() - start)
        start = time.perf_counter()
        batched = batched_run()
        batched_samples.append(time.perf_counter() - start)
    return (serial, float(np.median(serial_samples)),
            batched, float(np.median(batched_samples)))


def measure_frontend(num_frames: int = NUM_FRAMES) -> dict[str, float]:
    """Time serial vs batched spectra over one AP's buffered frames."""
    ap = _buffered_ap(num_frames)

    serial, serial_s, batched, batched_s = _timed_pair(
        lambda: reference.compute_spectra(
            ap, ap.buffer.entries_for_client("client")),
        lambda: ap.spectra_for_client("client"))

    assert len(serial) == len(batched) == num_frames
    for expected, candidate in zip(serial, batched, strict=True):
        assert np.array_equal(expected.angles_deg, candidate.angles_deg), \
            "batched frontend changed the angle grid"
        assert np.array_equal(expected.power, candidate.power), \
            "batched frontend diverged from the serial reference path"
    return {
        "num_frames": num_frames,
        "serial_s": serial_s,
        "vectorized_s": batched_s,
        "serial_frames_per_s": num_frames / serial_s,
        "vectorized_frames_per_s": num_frames / batched_s,
        "speedup": serial_s / batched_s,
    }


def measure_end_to_end(num_clients: int = NUM_CLIENTS) -> dict[str, float]:
    """Time frames -> spectra -> fixes over the office testbed, both paths."""
    testbed = build_office_testbed()
    deployment = SimulatedDeployment(
        testbed, ScenarioConfig(frames_per_client=3, seed=2013))
    clients = testbed.client_ids()[:num_clients]
    for client_id in clients:
        deployment.capture_client(client_id)
    num_frames = sum(len(ap.buffer) for ap in deployment.aps.values())
    service = ArrayTrackService(ArrayTrackConfig(bounds=testbed.bounds).updated(
        {"server.localizer.grid_resolution_m": GRID_RESOLUTION_M}))
    service.adopt_aps(deployment.aps.values())

    def serial_sweep():
        """The buffered sweep with every spectrum from the serial oracle."""
        spectra_by_client = {}
        for client_id in clients:
            per_ap = {}
            for ap in deployment.aps.values():
                entries = ap.buffer.entries_for_client(client_id)
                if entries:
                    per_ap[ap.ap_id] = reference.compute_spectra(ap, entries)
            if per_ap:
                spectra_by_client[client_id] = per_ap
        return service.localize_many(spectra_by_client)

    serial, serial_s, batched, batched_s = _timed_pair(
        serial_sweep, lambda: service.localize_buffered(clients))

    assert list(serial) == list(batched), "client order diverged"
    for client_id, expected in serial.items():
        actual = batched[client_id]
        assert (actual.position.x, actual.position.y) \
            == (expected.position.x, expected.position.y), (
            f"fix for {client_id} diverged between frontend paths")
        assert actual.likelihood == expected.likelihood, (
            f"likelihood for {client_id} diverged between frontend paths")
    return {
        "num_clients": len(clients),
        "num_frames": num_frames,
        "serial_s": serial_s,
        "vectorized_s": batched_s,
        "serial_frames_per_s": num_frames / serial_s,
        "vectorized_frames_per_s": num_frames / batched_s,
        "fixes_per_s": len(serial) / batched_s,
        "speedup": serial_s / batched_s,
    }


def measure_all(num_frames: int, num_clients: int) -> dict[str, dict[str, float]]:
    results = {
        "frontend": measure_frontend(num_frames),
        "end_to_end": measure_end_to_end(num_clients),
    }
    with open(RESULTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    return results


def test_frontend_speedup(benchmark, bench_smoke):
    """E-FRONTEND: the batched Section 2.3 frontend >= 5x the serial path.

    The serial path pays one covariance estimate, one ``eigh``, one noise
    projection GEMM and one symmetry side-power scan per frame; the batched
    path folds each stage into a stacked pass over all frames.  Bit-for-bit
    equality of spectra and fixes is asserted at any size; the 5x bar
    applies at 256 frames.
    """
    num_frames = SMOKE_FRAMES if bench_smoke else NUM_FRAMES
    num_clients = SMOKE_CLIENTS if bench_smoke else NUM_CLIENTS
    results = run_once(benchmark, measure_all, num_frames, num_clients)
    frontend = results["frontend"]
    end_to_end = results["end_to_end"]
    rows = [
        ["frontend (serial)", f"{frontend['serial_s'] * 1e3:.0f}",
         f"{frontend['serial_frames_per_s']:.0f}", "1.0x"],
        ["frontend (vectorized)", f"{frontend['vectorized_s'] * 1e3:.0f}",
         f"{frontend['vectorized_frames_per_s']:.0f}",
         f"{frontend['speedup']:.1f}x"],
        ["end-to-end (serial)", f"{end_to_end['serial_s'] * 1e3:.0f}",
         f"{end_to_end['serial_frames_per_s']:.0f}", "1.0x"],
        ["end-to-end (vectorized)", f"{end_to_end['vectorized_s'] * 1e3:.0f}",
         f"{end_to_end['vectorized_frames_per_s']:.0f}",
         f"{end_to_end['speedup']:.1f}x"],
    ]
    print()
    print(format_table(
        ["configuration", "batch (ms)", "frames/s", "vs serial"],
        rows,
        title=f"Section 2.3 frontend, {frontend['num_frames']} frames; "
              f"office sweep, {end_to_end['num_clients']} clients / "
              f"{end_to_end['num_frames']} frames"))
    print(f"results written to {RESULTS_PATH}")
    if not bench_smoke:
        assert frontend["speedup"] >= SPEEDUP_FLOOR, (
            f"batched frontend must be >= {SPEEDUP_FLOOR}x the serial "
            f"per-frame path at {NUM_FRAMES} frames, "
            f"got {frontend['speedup']:.2f}x")
        assert end_to_end["vectorized_s"] <= end_to_end["serial_s"], (
            "the batched frontend must not lose end to end")


if __name__ == "__main__":
    print(json.dumps(measure_all(NUM_FRAMES, NUM_CLIENTS), indent=2))
