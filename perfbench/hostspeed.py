"""Host-speed calibration, so timings from a shared host can be compared.

The benchmark's host is a small VM whose CPUs are shared with other
tenants: the same code on the same inputs ran at speeds differing by a
third from one minute to the next, and two ten-seed recordings of the same
code differed by up to 30% in their medians, beyond any bound a regression
gate could use.  :class:`HostSpeed` times a fixed calibration slice
(interpreted Python plus small NumPy linear algebra and a sort, like the
program's own mix) interleaved with the workload, so it sees the same host
state.  A slice time over :data:`REFERENCE_SLICE_S` is a slowdown; every
timed piece of work is divided by :meth:`HostSpeed.recent`, the median
slowdown of the last :data:`RECENT` kept slices, because the host's speed
changes within a run.

The slices never call ``repro``, and a slice counts only if nothing of the
program ran while it did: before and after each slice the calibration
reads the CPU time (``/proc/<pid>/task/<tid>/schedstat``, in nanoseconds)
of every other thread of this process and of every descendant process,
such as pool workers, and drops the slice if any of them advanced.  Work
the program leaves running after a call returns therefore cannot slow the
slices that are kept; the dropped ones are counted in ``host.dropped``.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from pathlib import Path

import numpy as np

#: Median slice time on the reference host (2-vCPU Xeon VM at 2.1 GHz,
#: Python 3.11, NumPy 2.4), in seconds.  Only a unit: it scales every run
#: alike and cancels when two runs are compared.
REFERENCE_SLICE_S = 0.0004

#: Kept calibration time as a share of workload time in closed loops.
SHARE = 0.1

#: Kept slices that :meth:`HostSpeed.recent` takes the median of: those
#: after the last few closed-loop calls, or in the open loop's last few
#: idle gaps.
RECENT = 50

#: Dropped slices after which :meth:`HostSpeed.after` stops waiting for
#: the program to go quiet (about 0.4 s of slices).
MAX_DROPS_PER_CALL = 1000


def _task_paths(pid: int) -> list[Path]:
    """``schedstat`` files of every thread of ``pid`` and its descendants."""
    paths = []
    for task in Path(f"/proc/{pid}/task").glob("*"):
        paths.append(task / "schedstat")
        try:
            children = (task / "children").read_text().split()
        except OSError:
            continue
        for child in children:
            paths.extend(_task_paths(int(child)))
    return paths


def _run_ns(paths: list[Path]) -> int | None:
    """Summed on-CPU nanoseconds of ``paths``; None if one has vanished."""
    total = 0
    for path in paths:
        try:
            total += int(path.read_text().split()[0])
        except (OSError, ValueError, IndexError):
            return None
    return total


class HostSpeed:
    """Times calibration slices and turns them into a slowdown factor."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        matrices = rng.standard_normal((16, 8, 8))
        self._hermitian = matrices @ matrices.transpose(0, 2, 1)
        self._values = rng.standard_normal(4096)
        #: Durations of the slices kept.
        self.samples: list[float] = []
        #: Slices dropped because another task of the program ran.
        self.dropped = 0
        self._others: list[Path] = []
        self._kept_s = 0.0
        self._busy_s = 0.0

    def watch(self) -> None:
        """Re-list the program's other threads and descendant processes.

        Call when they may have changed (after a service call); a slice
        during which one of them ends is dropped and the list renewed.
        """
        main = Path(f"/proc/{os.getpid()}/task/{threading.get_native_id()}"
                    f"/schedstat")
        self._others = [path for path in _task_paths(os.getpid())
                        if path != main]

    def slice(self) -> float:
        """Run one calibration slice; keep it if nothing else of the
        program ran meanwhile.  Returns its duration."""
        before = _run_ns(self._others)
        start = time.perf_counter()
        total = 0.0
        for index in range(1500):
            total += (index * 0.5) % 7.0
        np.linalg.eigh(self._hermitian)
        np.sort(self._values)
        elapsed = time.perf_counter() - start
        after = _run_ns(self._others)
        if before is None or after is None:
            # A thread or process ended: list the survivors again.
            self.dropped += 1
            self.watch()
        elif after != before:
            self.dropped += 1
        else:
            self.samples.append(elapsed)
            self._kept_s += elapsed
        return elapsed

    def after(self, busy_s: float) -> None:
        """Note ``busy_s`` of workload time, then run slices until the
        kept ones total :data:`SHARE` of all workload time noted, or until
        :data:`MAX_DROPS_PER_CALL` have been dropped."""
        self._busy_s += busy_s
        self.watch()
        dropped = self.dropped
        while self._kept_s < SHARE * self._busy_s \
                and self.dropped - dropped < MAX_DROPS_PER_CALL:
            self.slice()

    def recent(self) -> float:
        """Median slowdown of the last :data:`RECENT` kept slices."""
        return self._median(self.samples[-RECENT:])

    @property
    def slowdown(self) -> float:
        """The run's median kept slice time over the reference host's
        (>1: slower)."""
        return self._median(self.samples)

    @staticmethod
    def _median(samples: list[float]) -> float:
        if not samples:
            raise RuntimeError("host calibration kept no slice: the program "
                               "never went quiet between calls")
        return statistics.median(samples) / REFERENCE_SLICE_S
