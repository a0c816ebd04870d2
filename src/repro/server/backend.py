"""The central ArrayTrack server: spectra aggregation and location synthesis.

Figure 1 splits the system into per-AP functionality (detection, diversity
synthesis, buffering) and server functionality (AoA spectrum computation,
multipath suppression, maximum-likelihood position estimation).  In this
library the spectrum computation lives with the AP object for convenience;
the :class:`ArrayTrackServer` performs the cross-frame and cross-AP steps:

* group each AP's spectra of a client by capture time and run multipath
  suppression on each group (Section 2.4);
* synthesize the suppressed spectra of all APs into a likelihood surface and
  extract the location estimate (Section 2.5);
* account for the end-to-end latency of the fix (Section 4.4).

Beyond the paper's single-client flow, :meth:`ArrayTrackServer.localize_batch`
accepts many clients at once and hands them to the vectorized
:class:`~repro.core.batch.BatchLocalizer`, which evaluates the Equation 8
grid for the whole batch in stacked NumPy passes while reusing the cached
per-AP bearing tables.  Batched fixes are bit-for-bit identical to
localizing each client alone -- the single-client path *is* the batch path
with a batch of one.

Applications reach this backend through :class:`repro.api.ArrayTrackService`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from collections.abc import Callable, Mapping, Sequence
from typing import TypeVar

from repro.errors import ConfigurationError, EstimationError
from repro.ap.access_point import ArrayTrackAP
from repro.ap.latency import LatencyBreakdown, LatencyModel
from repro.core.localizer import LocalizerConfig, LocationEstimate, LocationEstimator
from repro.core.spectrum import AoASpectrum
from repro.core.suppression import MultipathSuppressor

__all__ = ["ServerConfig", "ArrayTrackServer"]

_T = TypeVar("_T")


@dataclass
class ServerConfig:
    """Configuration of the central server.

    Attributes
    ----------
    localizer:
        Grid/hill-climbing configuration of the position estimator.
    enable_multipath_suppression:
        Run the Section 2.4 algorithm on each AP's spectra when multiple
        frames of a client are available.
    suppressor:
        Parameters of the multipath suppression step.
    measure_processing_time:
        Record the wall-clock time of each localization call, suppression
        and synthesis included (used by the latency experiment to
        substitute the measured Python time for the paper's Matlab
        figure).
    """

    localizer: LocalizerConfig = field(default_factory=LocalizerConfig)
    enable_multipath_suppression: bool = True
    suppressor: MultipathSuppressor = field(default_factory=MultipathSuppressor)
    measure_processing_time: bool = False


class ArrayTrackServer:
    """Aggregates AoA spectra from many APs and produces location fixes.

    Parameters
    ----------
    bounds:
        ``(xmin, ymin, xmax, ymax)`` search area (the floorplan bounding box).
    config:
        Server configuration; the defaults follow the paper.
    latency_model:
        Hardware latency model used to annotate fixes; a default WARP-like
        model is used when omitted.
    """

    def __init__(self, bounds: tuple[float, float, float, float],
                 config: ServerConfig | None = None,
                 latency_model: LatencyModel | None = None) -> None:
        self.config = config if config is not None else ServerConfig()
        self.bounds = tuple(float(value) for value in bounds)
        self.estimator = LocationEstimator(bounds, self.config.localizer)
        self.latency_model = latency_model if latency_model is not None else LatencyModel()
        self._last_processing_s: float | None = None

    def warm_geometry_caches(self,
                             ap_positions: Sequence[tuple[float, float]]) -> int:
        """Precompute the bearing grids of the given AP positions.

        The per-AP bearing tables normally build lazily on the first batch
        that references an AP; a process-backend worker calls this from its
        initializer so every worker pays the arctan2 sweeps once, before
        the first real shard arrives.  Returns the number of grids warmed.
        """
        from repro.core.cache import default_bearing_cache

        return default_bearing_cache().warm(
            self.bounds, self.config.localizer.grid_resolution_m,
            ap_positions)

    # ------------------------------------------------------------------
    # Spectra-level API
    # ------------------------------------------------------------------
    def _timed(self, run: Callable[[], _T]) -> _T:
        """Run one localization call, recording its wall-clock duration.

        The single measurement site behind :attr:`last_processing_s`:
        every entry point wraps its whole suppression + synthesis work
        here, and so does the service facade around a sharded or
        streaming pass.  Nested calls each record, and the outermost
        finishes last, so the recorded time always covers the whole
        outer call.
        """
        if not self.config.measure_processing_time:
            return run()
        start = time.perf_counter()
        result = run()
        self._last_processing_s = time.perf_counter() - start
        return result

    def _localize_spectra(self, spectra_by_ap: Mapping[str, Sequence[AoASpectrum]],
                          client_id: str = "") -> LocationEstimate:
        """Localize a client from per-AP lists of AoA spectra.

        Each AP contributes one processed spectrum: when multipath
        suppression is enabled and the AP captured multiple frames close in
        time, the suppressed primary is used; otherwise the AP's first
        spectrum passes through unchanged (step 1 of the Figure 8
        algorithm).
        """
        def run() -> LocationEstimate:
            processed = self._process_per_ap(spectra_by_ap)
            if not processed:
                raise EstimationError("no AoA spectra supplied for localization")
            return self.estimator.estimate(processed, client_id=client_id)

        return self._timed(run)

    def localize_batch(self,
                       spectra_by_client: Mapping[str, Mapping[str, Sequence[AoASpectrum]]]
                       ) -> dict[str, LocationEstimate]:
        """Localize many clients in one vectorized synthesis pass.

        Parameters
        ----------
        spectra_by_client:
            For every client id, a mapping of AP id to that AP's spectra of
            the client.  Multipath suppression runs per client and per AP
            exactly as in the single-client path.

        Returns
        -------
        dict
            One :class:`~repro.core.localizer.LocationEstimate` per client,
            identical to localizing each client alone but
            sharing the bearing-grid work and the stacked Equation 8
            evaluation across the whole batch.

        Raises
        ------
        EstimationError
            If the batch is empty or any client contributes no spectra.
        """
        if not spectra_by_client:
            raise EstimationError("no clients supplied for batch localization")
        return self._timed(lambda: self.synthesize_batch(
            {client_id: self._process_per_ap(spectra_by_ap)
             for client_id, spectra_by_ap in spectra_by_client.items()}))

    def synthesize_batch(self,
                         spectra_by_client: Mapping[str, Sequence[AoASpectrum]]
                         ) -> dict[str, LocationEstimate]:
        """Synthesize already-processed spectra into one fix per client.

        This is the raw synthesis entry below :meth:`localize_batch`: the
        per-AP grouping and multipath suppression are the *caller's*
        responsibility (the streaming sessions run their own suppression
        stage on ingest-resolved timestamps before calling it), while the
        stacked Equation 8 evaluation and the processing-time measurement
        are identical to the full batch path.

        Parameters
        ----------
        spectra_by_client:
            For every client id, the flat list of spectra entering the
            synthesis (typically one suppressed primary per AP and burst).

        Raises
        ------
        EstimationError
            If the batch is empty or any client contributes no spectra.
        """
        if not spectra_by_client:
            raise EstimationError("no clients supplied for batch localization")
        processed_by_client: dict[str, list[AoASpectrum]] = {}
        for client_id, spectra in spectra_by_client.items():
            processed = list(spectra)
            if not processed:
                raise EstimationError(
                    f"no AoA spectra supplied for client {client_id!r}")
            processed_by_client[client_id] = processed
        return self._timed(
            lambda: self.estimator.estimate_batch(processed_by_client))

    def _process_per_ap(self, spectra_by_ap: Mapping[str, Sequence[AoASpectrum]]
                        ) -> list[AoASpectrum]:
        processed: list[AoASpectrum] = []
        for ap_id, spectra in spectra_by_ap.items():
            spectra = list(spectra)
            if not spectra:
                continue
            if self.config.enable_multipath_suppression and len(spectra) >= 2:
                outputs = self.config.suppressor.process(spectra)
                # One output per time group; use the first group's primary,
                # which corresponds to the most recent burst of frames.
                processed.append(outputs[0])
            else:
                processed.append(spectra[0])
        return processed

    # ------------------------------------------------------------------
    # AP-level API
    # ------------------------------------------------------------------
    def localize_client(self, aps: Sequence[ArrayTrackAP],
                        client_id: str) -> LocationEstimate:
        """Localize ``client_id`` from the frames currently buffered at ``aps``."""
        if not aps:
            raise ConfigurationError("need at least one AP to localize")
        spectra_by_ap: dict[str, list[AoASpectrum]] = {}
        for ap in aps:
            spectra = ap.spectra_for_client(client_id)
            if spectra:
                spectra_by_ap[ap.ap_id] = spectra
        return self._localize_spectra(spectra_by_ap, client_id=client_id)

    def collect_buffered(self, aps: Sequence[ArrayTrackAP],
                         client_ids: Sequence[str]
                         ) -> dict[str, dict[str, list[AoASpectrum]]]:
        """Gather the buffered per-AP spectra of every requested client.

        This is the collection half of :meth:`localize_clients`, exposed
        separately so the service facade can shard the resulting batch
        across workers while keeping one definition of which frames enter
        a buffered sweep.  Each AP computes the spectra of *all* requested
        clients' pending frames in one batched Section 2.3 frontend pass
        (:meth:`~repro.ap.access_point.ArrayTrackAP.spectra_for_clients`),
        so a buffered sweep costs one stacked covariance/eigh/projection
        sweep per AP rather than one per frame.  Clients no AP currently
        holds frames for are omitted from the result.

        Raises
        ------
        ConfigurationError
            If ``aps`` is empty.
        EstimationError
            If none of the requested clients has any buffered frames.
        """
        if not aps:
            raise ConfigurationError("need at least one AP to localize")
        client_ids = list(client_ids)
        per_ap_spectra = [ap.spectra_for_clients(client_ids) for ap in aps]
        spectra_by_client: dict[str, dict[str, list[AoASpectrum]]] = {}
        for client_id in client_ids:
            per_ap: dict[str, list[AoASpectrum]] = {}
            for ap, ap_spectra in zip(aps, per_ap_spectra, strict=True):
                spectra = ap_spectra.get(client_id)
                if spectra:
                    per_ap[ap.ap_id] = spectra
            if per_ap:
                spectra_by_client[client_id] = per_ap
        if not spectra_by_client:
            raise EstimationError(
                "none of the requested clients has any buffered frames")
        return spectra_by_client

    def localize_clients(self, aps: Sequence[ArrayTrackAP],
                         client_ids: Sequence[str]) -> dict[str, LocationEstimate]:
        """Batch-localize every client in ``client_ids`` from buffered frames.

        Clients no AP currently holds frames for (never transmitted, or
        their frames aged out of the circular buffers) are omitted from the
        result rather than failing the whole sweep; callers detect them by
        diffing the returned keys against ``client_ids``.

        Raises
        ------
        ConfigurationError
            If ``aps`` is empty.
        EstimationError
            If none of the requested clients has any buffered frames.
        """
        return self.localize_batch(self.collect_buffered(aps, client_ids))

    # ------------------------------------------------------------------
    # Latency accounting (Section 4.4)
    # ------------------------------------------------------------------
    @property
    def last_processing_s(self) -> float | None:
        """Wall-clock duration of the most recent localization call, if measured."""
        return self._last_processing_s

    def latency_breakdown(self, payload_bytes: int = 1500,
                          bitrate_mbps: float = 54.0,
                          use_measured_processing: bool = False) -> LatencyBreakdown:
        """Return the latency breakdown of a fix for a given frame size/rate.

        Parameters
        ----------
        use_measured_processing:
            Substitute the wall-clock time of the most recent fix for the
            paper's 100 ms Matlab processing figure.
        """
        model = self.latency_model
        if use_measured_processing and self._last_processing_s is not None:
            model = LatencyModel(
                num_snapshots=model.num_snapshots,
                num_radios=model.num_radios,
                link_throughput_bps=model.link_throughput_bps,
                bus_latency_s=model.bus_latency_s,
                processing_s=self._last_processing_s,
                bits_per_sample=model.bits_per_sample,
            )
        return model.breakdown(payload_bytes, bitrate_mbps)
