"""The central server's stages: one function from buffered frames to fixes.

Figure 1's server turns each client's per-AP AoA spectra into a fix in
two steps.  Section 2.4 multipath suppression decides which spectrum of
each AP enters the synthesis; Section 2.5 folds the chosen spectra into
one likelihood surface per client and extracts the fix.  Every batch the
service serves -- ``localize``, ``localize_many``, ``localize_buffered``,
``tick`` and ``flush``, inline or inside a pool worker -- runs through
:func:`localize_frames`, so the stage rules exist exactly once and the
serial and sharded paths cannot drift apart.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.api.config import ArrayTrackConfig
from repro.core.localizer import LocationEstimate, LocationEstimator
from repro.core.spectrum import AoASpectrum
from repro.errors import EstimationError

__all__ = ["Frames", "localize_frames"]

#: ``{client_id: {ap_id: [(timestamp_s, spectrum), ...]}}``, in the
#: caller's client and AP order (the order is part of the bit-equality
#: contract).  The timestamp is the ingest-resolved one on the streaming
#: path and the spectrum's own ``timestamp_s`` on the batch path.
Frames = Mapping[str, Mapping[str, Sequence[tuple[float, AoASpectrum]]]]


def localize_frames(estimator: LocationEstimator, config: ArrayTrackConfig,
                    frames_by_client: Frames,
                    suppress_groups: bool) -> dict[str, LocationEstimate]:
    """Suppress each client's per-AP frames and synthesize one fix each.

    Per AP, the spectra entering the synthesis are:

    * with ``suppress_groups`` (a streaming drain with
      ``session.suppress_multipath`` on): the frames are grouped on the
      given timestamps and every time group's suppressed primary enters,
      one per AP and burst;
    * otherwise, with ``server.enable_multipath_suppression`` on and at
      least two frames: the frames are grouped on their own
      ``timestamp_s`` and the first group's primary enters;
    * otherwise the AP's first frame enters unchanged (step 1 of the
      Figure 8 algorithm).

    Both suppression rules use the tree's top-level ``suppressor``
    section.  Every client is then synthesized in one stacked
    :meth:`~repro.core.localizer.LocationEstimator.estimate_batch` pass.

    Raises
    ------
    EstimationError
        If the batch is empty or a client contributes no spectra.
    """
    if not frames_by_client:
        raise EstimationError("no clients supplied for batch localization")
    suppressor = config.suppressor
    suppress_first = config.server.enable_multipath_suppression
    processed_by_client: dict[str, list[AoASpectrum]] = {}
    for client_id, per_ap in frames_by_client.items():
        processed: list[AoASpectrum] = []
        for frames in per_ap.values():
            if not frames:
                continue
            spectra = [spectrum for _, spectrum in frames]
            if suppress_groups:
                processed.extend(suppressor.process(
                    spectra, timestamps=[timestamp for timestamp, _ in frames]))
            elif suppress_first and len(spectra) >= 2:
                # One output per time group, sorted by ascending capture
                # time: outputs[0] is the primary of the *earliest* burst.
                processed.append(suppressor.process(spectra)[0])
            else:
                processed.append(spectra[0])
        if not processed:
            raise EstimationError(
                f"no AoA spectra supplied for client {client_id!r}")
        processed_by_client[client_id] = processed
    return estimator.estimate_batch(processed_by_client)
