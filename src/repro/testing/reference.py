"""Serial reference implementations: the oracles of the batched pipeline.

Every batched production stage promises bit-for-bit the result of a plain
serial loop.  Those loops live here, outside the production configuration:
no config field, environment variable or flag selects them and no
production module imports this one.  The equality tests compare the
production paths against these functions, and the benchmarks time them as
the "serial" baseline.

* :func:`compute_many` / :func:`compute_many_with_symmetry` -- the Section
  2.3 frontend one frame at a time (oracles of
  :meth:`~repro.core.pipeline.SpectrumComputer.compute_many` and
  :meth:`~repro.core.pipeline.SpectrumComputer.compute_many_with_symmetry`);
* :func:`compute_spectra` -- the AP-level per-frame loop (oracle of
  :meth:`~repro.ap.access_point.ArrayTrackAP.compute_spectra`);
* :func:`refine_client` -- one client's Section 2.5 climb, one likelihood
  call per candidate point (oracle of the stacked refinement);
* :class:`SerialRefinementLocalizer` -- a
  :class:`~repro.core.batch.BatchLocalizer` whose refinement stage runs
  :func:`refine_client` per client, for end-to-end equality checks.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.ap.access_point import ArrayTrackAP
from repro.ap.buffer import BufferEntry
from repro.array.deployment import DeployedArray
from repro.array.receiver import SnapshotMatrix
from repro.core.batch import BatchLocalizer
from repro.core.likelihood import likelihood_at
from repro.core.optimizer import HillClimbResult, refine_from_seeds
from repro.core.pipeline import SpectrumComputer
from repro.core.spectrum import AoASpectrum
from repro.geometry.vector import Point2D

__all__ = ["compute_many", "compute_many_with_symmetry", "compute_spectra",
           "refine_client", "SerialRefinementLocalizer"]


def compute_many(computer: SpectrumComputer,
                 snapshots_list: Sequence[SnapshotMatrix],
                 array: DeployedArray,
                 linear_indices: Sequence[int] | None = None
                 ) -> list[AoASpectrum]:
    """The Section 2.3 frontend frame by frame."""
    return [computer.compute(snapshots, array, linear_indices)
            for snapshots in snapshots_list]


def compute_many_with_symmetry(computer: SpectrumComputer,
                               snapshots_list: Sequence[SnapshotMatrix],
                               array: DeployedArray,
                               linear_indices: Sequence[int],
                               full_indices: Sequence[int] | None = None
                               ) -> list[AoASpectrum]:
    """The symmetry-resolving Section 2.3 frontend frame by frame."""
    return [computer.compute_with_symmetry(snapshots, array, linear_indices,
                                           full_indices)
            for snapshots in snapshots_list]


def compute_spectra(ap: ArrayTrackAP,
                    entries: Sequence[BufferEntry]) -> list[AoASpectrum]:
    """One AP's buffered frames through the frontend one at a time."""
    return [ap.compute_spectrum(entry) for entry in entries]


def refine_client(localizer: BatchLocalizer, spectra: Sequence[AoASpectrum],
                  seeds: Sequence[tuple[Point2D, float]]) -> HillClimbResult:
    """Hill-climb one client from its seeds, one Equation 8 call per point.

    ``spectra`` are the client's processed spectra as they enter the batch
    (normalized here when ``localizer.config.normalize_spectra`` is on);
    points outside the localizer's bounds score zero.
    """
    config = localizer.config
    if config.normalize_spectra:
        spectra = [spectrum.normalized() for spectrum in spectra]
    xmin, ymin, xmax, ymax = localizer.bounds

    def objective(position: Point2D) -> float:
        if not (xmin <= position.x <= xmax and ymin <= position.y <= ymax):
            return 0.0
        return likelihood_at(spectra, position, floor=config.spectrum_floor)

    return refine_from_seeds(objective, seeds,
                             initial_step_m=config.grid_resolution_m / 2.0,
                             min_step_m=config.grid_resolution_m / 20.0)


class SerialRefinementLocalizer(BatchLocalizer):
    """A batch localizer whose refinement climbs one client at a time."""

    def _refine_batch(self, prepared: Mapping[str, list[AoASpectrum]],
                      seeds_by_key: Mapping[str, list[tuple[Point2D, float]]]
                      ) -> dict[str, HillClimbResult]:
        if not self.config.refine_with_hill_climbing:
            return {}
        return {key: refine_client(self, spectra, seeds_by_key[key])
                for key, spectra in prepared.items()}
