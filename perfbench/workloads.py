"""The four benchmark workloads, driven through the public ``repro`` API.

Every workload builds its inputs from the simulated office testbed of the
paper (41 client positions, six 8+1-antenna APs) with ``--seed`` driving
the capture noise, the inter-frame movement and every replay choice.
Inputs are generated before any clock starts.  Each workload keeps a
reference answer computed on the serial backend and checks every fix it
times against it, bit for bit.

* ``office-sweep`` -- closed loop, one caller: ``localize_buffered`` over
  16 clients x 3-frame bursts x 6 APs.  Section 2.4 suppression and its
  peak finder do most of the work.
* ``stream-churn`` -- open loop on a fixed probe schedule: raw frames
  through ``ingest_many`` and ``tick`` on a fixed cadence, with clients
  that come and go.  One frame per AP per probe, so suppression never
  runs; the work is ingest bookkeeping, the per-call frontend and small
  synthesis passes.
* ``fleet-process`` -- closed loop: ``localize_many`` of 256 clients with
  one spectrum per AP on the process backend (2 workers).  The Equation 8
  fold, refinement and the shared-memory shard IPC do the work.
* ``crash-recovery`` -- ``fleet-process`` with a seeded worker-kill fault,
  run for whole crash cycles, so pool rebuild, retry and backoff run the
  same number of times in every run.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from repro.api import ArrayTrackConfig, ArrayTrackService
from repro.ap.access_point import ArrayTrackAP
from repro.ap.buffer import BufferEntry
from repro.core.localizer import LocationEstimate
from repro.core.spectrum import AoASpectrum
from repro.geometry.vector import Point2D
from repro.testbed import ScenarioConfig, SimulatedDeployment, build_office_testbed
from repro.testing import faults

from hostspeed import HostSpeed

#: Grid resolution of every workload (the ROADMAP office sweep's 25 cm).
GRID_RESOLUTION_M = 0.25

#: Serial-backend repetitions per distinct batch in the traced run of the
#: process workloads (their workers cannot be traced from the parent).
SERIAL_PASS_CALLS = 3

#: Closed loops run past ``--seconds`` until they have this many calls, so
#: their median latency has ten samples beyond it.
MIN_CALLS = 20

#: The service's own ``health``, taken before the traced run can wrap it,
#: so the workload's reads of it are never charged to the service.
_HEALTH = ArrayTrackService.health

Fix = tuple[float, float, float]


def fix_key(estimate: LocationEstimate) -> Fix:
    """The part of a fix that must match bit for bit."""
    return (estimate.position.x, estimate.position.y, estimate.likelihood)


def error_cm(fix: Fix, truth: Point2D) -> float:
    """Distance of a fix from the ground truth, in centimetres."""
    return 100.0 * math.hypot(fix[0] - truth.x, fix[1] - truth.y)


@dataclass
class Measurement:
    """What one measured phase of a workload saw."""

    #: Wall seconds spent inside service calls.
    busy_s: float = 0.0
    fixes: int = 0
    attempted: int = 0
    failed: int = 0
    #: Per call (batch workloads) or per fix (stream-churn), in seconds.
    latencies_s: list[float] = field(default_factory=list)
    errors_cm: list[float] = field(default_factory=list)
    #: How late the generator started each scheduled event (open loop).
    lags_s: list[float] = field(default_factory=list)
    #: ``busy_s`` and ``latencies_s`` at reference host speed: each piece
    #: divided by the host slowdown measured around it.
    scaled_busy_s: float = 0.0
    scaled_latencies_s: list[float] = field(default_factory=list)

    def add(self, other: Measurement) -> None:
        """Fold another phase's counts and samples into this one."""
        self.busy_s += other.busy_s
        self.fixes += other.fixes
        self.attempted += other.attempted
        self.failed += other.failed
        self.latencies_s += other.latencies_s
        self.errors_cm += other.errors_cm
        self.lags_s += other.lags_s
        self.scaled_busy_s += other.scaled_busy_s
        self.scaled_latencies_s += other.scaled_latencies_s


@dataclass
class ProbePool:
    """Single-frame captures of every testbed client at every AP."""

    aps: dict[str, ArrayTrackAP]
    #: Per capture: the overhearing APs' raw frames, in AP order.
    entries: list[dict[str, BufferEntry]]
    #: Per capture: the same frames as spectra (one per AP).
    spectra: list[dict[str, list[AoASpectrum]]]
    truth: list[Point2D]


def office_config(**overrides: Any) -> ArrayTrackConfig:
    testbed = build_office_testbed()
    settings = {"server.localizer.grid_resolution_m": GRID_RESOLUTION_M}
    settings.update(overrides)
    return ArrayTrackConfig(bounds=testbed.bounds).updated(settings)


def probe_pool(seed: int) -> ProbePool:
    """Capture one frame of each of the 41 testbed clients."""
    testbed = build_office_testbed()
    deployment = SimulatedDeployment(
        testbed, ScenarioConfig(frames_per_client=1, seed=seed))
    clients = testbed.client_ids()
    for client_id in clients:
        deployment.capture_client(client_id)
    entries, spectra = [], []
    for client_id in clients:
        frames = {ap_id: ap.buffer.entries_for_client(client_id)
                  for ap_id, ap in deployment.aps.items()}
        entries.append({ap_id: found[0] for ap_id, found in frames.items()
                        if found})
        spectra.append(deployment.spectra_for_client(client_id))
    return ProbePool(dict(deployment.aps), entries, spectra,
                     [testbed.client_position(c) for c in clients])


class Workload:
    """One workload: inputs, set-up, a measured phase and its checks."""

    name = ""
    #: ``closed`` (one caller waits for each reply) or ``open`` (a fixed
    #: schedule), the size of the work, its offered rate and why the
    #: workload exists; recorded with the baseline.
    loop = "closed"
    size = ""
    offered_rate = "as fast as replies return"
    why = ""
    #: Whether the batches run on the process backend (traced run adds a
    #: serial pass for the layers the parent cannot see).
    process_backend = False

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        #: Calibration slices interleaved with the workload's calls.
        self.host = HostSpeed()
        #: Human-readable descriptions of failed correctness checks.
        self.problems: list[str] = []

    def generate(self) -> None:
        """Build the inputs and reference answers (never timed)."""
        raise NotImplementedError

    def open(self) -> tuple[ArrayTrackService, dict[str, LocationEstimate]]:
        """Construct the service and produce the first fix (timed as set-up)."""
        raise NotImplementedError

    def check_first(self, fixes: dict[str, LocationEstimate]) -> None:
        """Check the fixes returned by :meth:`open`."""
        raise NotImplementedError

    def prepare(self, service: ArrayTrackService) -> None:
        """Bring the service to the workload's steady state (never timed)."""

    def measure(self, service: ArrayTrackService, seconds: float,
                min_calls: int = MIN_CALLS) -> Measurement:
        """Drive the service for ``seconds`` (closed loops: and for at
        least ``min_calls`` calls) and check everything it returns."""
        raise NotImplementedError

    def serial_pass(self) -> None:
        """Run the workload's batches on the serial backend (traced run)."""

    def close(self, service: ArrayTrackService) -> dict[str, Any]:
        """Close the service, check nothing leaked, return final health."""
        health_open = service.health()
        service.close()
        health = service.health()
        pool = health["pool"]
        if pool["live_segments"]:
            self.problems.append(
                f"{len(pool['live_segments'])} shared-memory segments still "
                f"live after close()")
        if pool["shm_leak_events"]:
            self.problems.append(
                f"{pool['shm_leak_events']} shared-memory leak events")
        return health_open

    def finish(self) -> None:
        """Undo process-wide state (fault plans) after the last close."""

    def _compare(self, label: str, fixes: dict[str, LocationEstimate],
                 expected: dict[str, Fix]) -> int:
        """Record a problem per mismatching fix; return missing clients."""
        missing = 0
        for client_id, want in expected.items():
            got = fixes.get(client_id)
            if got is None:
                missing += 1
            elif fix_key(got) != want:
                self.problems.append(
                    f"{label}: fix for {client_id} is {fix_key(got)}, "
                    f"expected {want}")
        return missing


class _ClosedLoop(Workload):
    """One caller cycling through fixed batches; every call is checked."""

    #: Per batch: client id -> expected fix; filled by ``generate``.
    expected: list[dict[str, Fix]]
    #: Client id -> ground-truth position.
    truth: dict[str, Point2D]
    #: Calls made so far; picks the next batch across measured phases.
    calls = 0

    def call(self, service: ArrayTrackService, batch: int
             ) -> dict[str, LocationEstimate]:
        raise NotImplementedError

    def may_stop(self, service: ArrayTrackService) -> bool:
        """Whether a measured phase that has run its time and calls may
        end after the call just made (asked outside the clock)."""
        return True

    def check_first(self, fixes: dict[str, LocationEstimate]) -> None:
        self._compare(f"{self.name} first call", fixes, self.expected[0])

    def measure(self, service: ArrayTrackService, seconds: float,
                min_calls: int = MIN_CALLS) -> Measurement:
        result = Measurement()
        result.errors_cm = [error_cm(fix, self.truth[client_id])
                            for expected in self.expected
                            for client_id, fix in expected.items()]
        deadline = time.perf_counter() + seconds
        while True:
            batch = self.calls % len(self.expected)
            self.calls += 1
            expected = self.expected[batch]
            start = time.perf_counter()
            try:
                fixes = self.call(service, batch)
            except Exception as exc:  # counted as failed, the loop goes on
                elapsed = time.perf_counter() - start
                self.problems.append(f"{self.name} call raised {exc!r}")
                fixes = {}
            else:
                elapsed = time.perf_counter() - start
            result.busy_s += elapsed
            result.latencies_s.append(elapsed)
            self.host.after(elapsed)
            scaled = elapsed / self.host.recent()
            result.scaled_busy_s += scaled
            result.scaled_latencies_s.append(scaled)
            result.attempted += len(expected)
            missing = self._compare(self.name, fixes, expected)
            result.failed += missing
            result.fixes += len(expected) - missing
            if start + elapsed >= deadline \
                    and len(result.latencies_s) >= min_calls \
                    and self.may_stop(service):
                return result


class OfficeSweep(_ClosedLoop):
    """``localize_buffered`` over 16 clients x 3 frames x 6 APs."""

    name = "office-sweep"
    size = ("16 clients x 3-frame bursts x 6 APs per call, 25 cm grid, "
            "5 client sets in rotation covering the 41 positions twice")
    why = ("The ROADMAP workload: Section 2.4 suppression and its peak "
           "finder do most of the work; frontend and Equation 8 fold "
           "the rest; no sessions, no pool.")
    CLIENTS = 16
    FRAMES = 3
    #: Calls rotate over this many client sets, each captured by its own
    #: deployment, so a run covers every testbed position.
    CLIENT_SETS = 5

    def generate(self) -> None:
        testbed = build_office_testbed()
        positions = testbed.client_ids()
        order = np.resize(self.rng.permutation(len(positions)),
                          self.CLIENTS * self.CLIENT_SETS)
        self.client_sets: list[list[str]] = []
        self.fleets: list[list[ArrayTrackAP]] = []
        self.truth = {}
        for index, capture_seed in enumerate(
                self.rng.integers(2 ** 32, size=self.CLIENT_SETS)):
            deployment = SimulatedDeployment(
                testbed, ScenarioConfig(frames_per_client=self.FRAMES,
                                        seed=int(capture_seed)))
            clients = [positions[slot] for slot in
                       order[index * self.CLIENTS:(index + 1) * self.CLIENTS]]
            for client_id in clients:
                deployment.capture_client(client_id)
                self.truth[f"{index}:{client_id}"] = \
                    testbed.client_position(client_id)
            self.client_sets.append(clients)
            self.fleets.append(list(deployment.aps.values()))
        self.config = office_config()
        # The contract is that every call repeats the first call's fixes
        # for its client set; the references are taken from the calls of
        # the first set-up.
        self.expected = []

    def open(self) -> tuple[ArrayTrackService, dict[str, LocationEstimate]]:
        service = ArrayTrackService(self.config)
        service.adopt_aps(self.fleets[0])
        return service, service.localize_buffered(self.client_sets[0])

    def check_first(self, fixes: dict[str, LocationEstimate]) -> None:
        if not self.expected:
            self.expected = [self._reference(0, fixes)]
            with ArrayTrackService(self.config) as service:
                for index in range(1, self.CLIENT_SETS):
                    self.expected.append(self._reference(
                        index, service.localize_buffered(
                            self.client_sets[index], self.fleets[index])))
        super().check_first({f"0:{client_id}": fix
                             for client_id, fix in fixes.items()})

    def _reference(self, index: int, fixes: dict[str, LocationEstimate]
                   ) -> dict[str, Fix]:
        if len(fixes) != self.CLIENTS:
            self.problems.append("office-sweep: a call lost clients")
        return {f"{index}:{client_id}": fix_key(fix)
                for client_id, fix in fixes.items()}

    def call(self, service: ArrayTrackService, batch: int
             ) -> dict[str, LocationEstimate]:
        fixes = service.localize_buffered(self.client_sets[batch],
                                          self.fleets[batch])
        return {f"{batch}:{client_id}": fix
                for client_id, fix in fixes.items()}


class FleetProcess(_ClosedLoop):
    """``localize_many`` of 256 one-spectrum-per-AP clients, 2 processes."""

    name = "fleet-process"
    size = "256 clients x 1 spectrum per AP per call, 2 worker processes"
    why = ("Equation 8 fold, refinement and shared-memory shard IPC do the "
           "work; frontend and suppression are bypassed; shows what the "
           "process pool buys on the host it runs on.")
    process_backend = True
    CLIENTS = 256
    WORKERS = 2

    def generate(self) -> None:
        pool = probe_pool(self.seed)
        # Every capture of the pool appears equally often (give or take
        # one), in a seeded order.
        captures = np.resize(self.rng.permutation(len(pool.spectra)),
                             self.CLIENTS)
        clients = [f"{self.name}-{index:03d}" for index in range(self.CLIENTS)]
        # Each client gets its own arrays, as distinct real clients would
        # send them: the pool packs an array shared by several clients
        # into shared memory only once.
        self.batch = {
            client_id: {ap_id: [replace(spectrum,
                                        angles_deg=spectrum.angles_deg.copy(),
                                        power=spectrum.power.copy())
                                for spectrum in spectra]
                        for ap_id, spectra in pool.spectra[capture].items()}
            for client_id, capture in zip(clients, captures, strict=True)}
        self.truth = {client_id: pool.truth[capture]
                      for client_id, capture in zip(clients, captures,
                                                    strict=True)}
        self.serial_config = office_config()
        self.config = office_config(**{
            "parallel.backend": "process",
            "parallel.num_workers": self.WORKERS})
        with ArrayTrackService(self.serial_config) as serial:
            self.expected = [{client_id: fix_key(fix) for client_id, fix
                              in serial.localize_many(self.batch).items()}]

    def open(self) -> tuple[ArrayTrackService, dict[str, LocationEstimate]]:
        service = ArrayTrackService(self.config)
        return service, service.localize_many(self.batch)

    def call(self, service: ArrayTrackService, batch: int
             ) -> dict[str, LocationEstimate]:
        return service.localize_many(self.batch)

    def serial_pass(self) -> None:
        with ArrayTrackService(self.serial_config) as serial:
            for _ in range(SERIAL_PASS_CALLS):
                self._compare(f"{self.name} serial pass",
                              serial.localize_many(self.batch),
                              self.expected[0])


class CrashRecovery(FleetProcess):
    """``fleet-process`` with a seeded worker-kill fault."""

    name = "crash-recovery"
    size = ("256 clients x 1 spectrum per AP per call, 2 worker processes, "
            "10% seeded worker kills per shard, whole crash cycles")
    why = ("Pool rebuild, shard retry and backoff would otherwise go "
           "unmeasured; the crash schedule is fixed, so each run sees the "
           "same recoveries.")
    #: Each shard execution kills its worker after the shm attach with
    #: this probability, drawn from a per-worker stream seeded with
    #: ``CRASH_SEED``.  The schedule is part of the workload, not of its
    #: inputs, so every seed sees the same crash pattern.
    CRASH_PROBABILITY = 0.1
    CRASH_SEED = 5
    #: A phase runs whole crash cycles, one per ``CYCLE_S`` of its
    #: seconds (at least one), and ends with the call that rebuilt the
    #: pool: with this seed each fresh worker dies on its 7th shard, so a
    #: cycle is six calls.  Every run then holds the same rebuilds; ending
    #: on a deadline instead moved ``fixes_per_s`` by one rebuild in twelve
    #: (~8%) from run to run at 48 clients per call.  The length is the cycle's on the reference
    #: host; a program that stops rebuilding ends the phase after three
    #: times its nominal length.
    CYCLE_S = 2.5

    def generate(self) -> None:
        super().generate()
        faults.activate(faults.FaultSpec(
            kind="kill-worker-mid-shard", stage="after-attach",
            probability=self.CRASH_PROBABILITY, seed=self.CRASH_SEED))

    def measure(self, service: ArrayTrackService, seconds: float,
                min_calls: int = MIN_CALLS) -> Measurement:
        cycles = max(1, round(seconds / self.CYCLE_S))
        self.last_rebuild = _HEALTH(service)["pool"]["rebuilds"] + cycles
        self.give_up = time.perf_counter() + 3 * cycles * self.CYCLE_S
        return super().measure(service, 0.0, min_calls)

    def may_stop(self, service: ArrayTrackService) -> bool:
        return (_HEALTH(service)["pool"]["rebuilds"] >= self.last_rebuild
                or time.perf_counter() >= self.give_up)

    def finish(self) -> None:
        faults.deactivate()


class StreamChurn(Workload):
    """Open-loop probes through ``ingest_many`` and ``tick``."""

    name = "stream-churn"
    loop = "open"
    size = ("1 frame per overhearing AP per probe, 25 active clients, 3 "
            "probes each, 1000 past sessions")
    offered_rate = "25 probes/s, tick every 20 ms"
    why = ("One frame per AP leaves Section 2.4 nothing to group; the work "
           "is ingest and tick bookkeeping over a growing session table, "
           "the per-call frontend and small batches.")
    #: Offered probe rate: the seed commit's service was busy about a
    #: third of the time at this rate on the 2-vCPU reference host.
    RATE_HZ = 25.0
    #: Tick cadence; with the probes it makes over 1,000 scheduled events
    #: in a 15 s run, enough for the generator lag's 99th percentile.
    TICK_S = 0.02
    #: Probes each client sends before it leaves (one per second).
    PROBES_PER_CLIENT = 3
    #: Clients active at once; each sends a probe every
    #: ``ACTIVE_CLIENTS / RATE_HZ`` seconds.
    ACTIVE_CLIENTS = 25
    #: Clients that came and left before the measured phase, so the
    #: service scans a long-running session table.
    HISTORY_SESSIONS = 1000
    #: History clients drained per tick while replaying them.
    TICK_CLIENTS = 50
    #: Idle gaps at least this long run a calibration slice (~0.4 ms).
    CALIBRATION_GAP_S = 0.002

    def generate(self) -> None:
        self.pool = probe_pool(self.seed)
        self.config = office_config()
        with ArrayTrackService(self.config) as serial:
            reference = serial.localize_many(
                {f"capture-{index}": spectra
                 for index, spectra in enumerate(self.pool.spectra)})
        #: (capture, probes folded into the fix) -> expected fix.
        self.expected: dict[tuple[int, int], Fix] = {
            (index, 1): fix_key(reference[f"capture-{index}"])
            for index in range(len(self.pool.spectra))}
        self.order = self.rng.permutation(len(self.pool.entries))
        self.capture_of: dict[str, int] = {}
        self.probes_sent = 0
        self.sim_base_s = 0.0
        self.setups = 0

    def _capture(self, client_id: str) -> int:
        """The capture a client replays: new clients walk a seeded
        permutation of the pool, so every capture is used equally."""
        capture = self.capture_of.get(client_id)
        if capture is None:
            capture = int(self.order[len(self.capture_of) % len(self.order)])
            self.capture_of[client_id] = capture
        return capture

    def _send(self, service: ArrayTrackService, client_id: str,
              timestamp_s: float) -> None:
        capture = self._capture(client_id)
        for ap_id, entry in self.pool.entries[capture].items():
            service.ingest_many(self.pool.aps[ap_id], [entry],
                                client_id=client_id, timestamp_s=timestamp_s)

    def _expected(self, capture: int, probes: int) -> Fix:
        key = (capture, probes)
        if key not in self.expected:
            spectra = {ap_id: list(frames) * probes for ap_id, frames
                       in self.pool.spectra[capture].items()}
            with ArrayTrackService(self.config) as serial:
                self.expected[key] = fix_key(
                    serial.localize_many({"c": spectra})["c"])
        return self.expected[key]

    def open(self) -> tuple[ArrayTrackService, dict[str, LocationEstimate]]:
        service = ArrayTrackService(self.config)
        service.adopt_aps(self.pool.aps.values())
        self.setup_client = f"setup-{self.setups}"
        self.setups += 1
        self._send(service, self.setup_client, 0.0)
        return service, service.tick(now_s=0.0)

    def check_first(self, fixes: dict[str, LocationEstimate]) -> None:
        self._check(fixes, {self.setup_client: 1})

    def _check(self, fixes: dict[str, LocationEstimate],
               probes: dict[str, int]) -> None:
        for client_id, estimate in fixes.items():
            want = self._expected(self.capture_of[client_id],
                                  probes.get(client_id, 1))
            if fix_key(estimate) != want:
                self.problems.append(
                    f"stream-churn: fix for {client_id} is "
                    f"{fix_key(estimate)}, localize_many gives {want}")

    def prepare(self, service: ArrayTrackService) -> None:
        """Replay ``HISTORY_SESSIONS`` past clients, one probe each."""
        emitted = 0
        for index in range(self.HISTORY_SESSIONS):
            client_id = f"past-{index:05d}"
            capture = self._capture(client_id)
            for ap_id, spectra in self.pool.spectra[capture].items():
                service.ingest_many(ap_id, spectra, client_id=client_id,
                                    timestamp_s=self.sim_base_s)
            if (index + 1) % self.TICK_CLIENTS == 0 \
                    or index + 1 == self.HISTORY_SESSIONS:
                self.sim_base_s += self.TICK_S
                fixes = service.tick(now_s=self.sim_base_s)
                emitted += len(fixes)
                self._check(fixes, {})
        if emitted != self.HISTORY_SESSIONS:
            self.problems.append(
                f"stream-churn: history emitted {emitted} of "
                f"{self.HISTORY_SESSIONS} fixes")
        self.sim_base_s += 1.0

    def _client(self, probe: int) -> str:
        slot = probe % self.ACTIVE_CLIENTS
        generation = probe // self.ACTIVE_CLIENTS // self.PROBES_PER_CLIENT
        return f"churn-{slot:02d}-{generation:05d}"

    def measure(self, service: ArrayTrackService, seconds: float,
                min_calls: int = MIN_CALLS) -> Measurement:
        """Offer probes for ``seconds``, then tick until every probe is fixed.

        A fix's latency runs from the due time of the first tick scheduled
        after its oldest probe was due, to the return of the tick that
        emitted it: tick lateness plus processing, not the cadence.  At
        equal due times the tick goes first, so a probe always waits for
        the next one.
        """
        result = Measurement()
        probe_period = 1.0 / self.RATE_HZ
        #: client -> (first tick index due for it, probes pending)
        pending: dict[str, list[int]] = {}
        probe = 0
        tick = 0
        self.host.watch()
        origin = time.perf_counter()
        while True:
            probe_due = probe * probe_period
            tick_due = tick * self.TICK_S
            offering = probe_due < seconds
            if not offering and not pending:
                break
            is_probe = offering and probe_due < tick_due - 1e-9
            due = probe_due if is_probe else tick_due
            # Spin rather than sleep until the event is due: an idle vCPU
            # that halts between events wakes up slower and colder, which
            # made the measured service time depend on host load.  Gaps
            # long enough for one are filled with calibration slices.
            now = time.perf_counter() - origin
            while now < due:
                if due - now > self.CALIBRATION_GAP_S:
                    self.host.slice()
                now = time.perf_counter() - origin
            result.lags_s.append(now - due)
            sim_now = self.sim_base_s + due
            if is_probe:
                client_id = self._client(self.probes_sent)
                self.probes_sent += 1
                probe += 1
                result.attempted += 1
                first_tick = math.floor(probe_due / self.TICK_S + 1e-9) + 1
                pending.setdefault(client_id, [first_tick, 0])[1] += 1
                start = time.perf_counter()
                try:
                    self._send(service, client_id, sim_now)
                except Exception as exc:  # counted as failed
                    result.failed += 1
                    self.problems.append(f"stream-churn ingest raised {exc!r}")
                elapsed = time.perf_counter() - start
                result.busy_s += elapsed
                result.scaled_busy_s += elapsed / self.host.recent()
                continue
            tick += 1
            start = time.perf_counter()
            try:
                fixes = service.tick(now_s=sim_now)
            except Exception as exc:  # counted as failed
                fixes = {}
                self.problems.append(f"stream-churn tick raised {exc!r}")
            returned = time.perf_counter()
            slowdown = self.host.recent()
            result.busy_s += returned - start
            result.scaled_busy_s += (returned - start) / slowdown
            elapsed = returned - origin
            probes: dict[str, int] = {}
            for client_id in fixes:
                first_tick, count = pending.pop(client_id)
                probes[client_id] = count
                result.fixes += 1
                latency = elapsed - first_tick * self.TICK_S
                result.latencies_s.append(latency)
                result.scaled_latencies_s.append(latency / slowdown)
                result.errors_cm.append(error_cm(
                    fix_key(fixes[client_id]),
                    self.pool.truth[self.capture_of[client_id]]))
            self._check(fixes, probes)
            if not offering and pending and tick_due > seconds + 1.0:
                # A probe that no tick fixed within a second is lost.
                result.failed += sum(count for _, count in pending.values())
                break
        self.sim_base_s += tick * self.TICK_S + 1.0
        return result


#: Every workload by its ``BENCHMARK.json`` name.
WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (OfficeSweep, StreamChurn, FleetProcess,
                              CrashRecovery)}
