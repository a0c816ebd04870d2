"""Hill-climb edge cases and serial/vectorized refiner equality.

The vectorized refiner (:func:`repro.core.optimizer.refine_many`) promises
bit-for-bit identical results to the serial :func:`hill_climb` /
:func:`refine_from_seeds` reference -- same first-improvement tie-breaking,
same evaluation-budget accounting, same first-seed-wins selection.  These
tests pin down the edge cases that make that promise meaningful (budget
exhausted mid-neighbour-scan, plateaus, ties) on both implementations, and
assert end-to-end equality of :class:`repro.core.batch.BatchLocalizer`
against the per-client serial oracle in :mod:`repro.testing.reference`.
"""

import numpy as np
import pytest

from repro.core.batch import BatchLocalizer
from repro.core.localizer import LocalizerConfig
from repro.core.optimizer import hill_climb, refine_from_seeds, refine_many
from repro.core.spectrum import AoASpectrum, default_angle_grid
from repro.errors import EstimationError
from repro.geometry.vector import Point2D, bearing_deg
from repro.testing import reference


def _batch_adapter(functions):
    """Wrap per-unit scalar objectives as a refine_many batch evaluator."""

    def evaluate(units, xs, ys):
        return np.array([functions[unit](Point2D(x, y))
                         for unit, x, y in zip(units, xs, ys, strict=True)])

    return evaluate


def _assert_same(vectorized, serial):
    assert vectorized.position.x == serial.position.x
    assert vectorized.position.y == serial.position.y
    assert vectorized.value == serial.value
    assert vectorized.iterations == serial.iterations


class TestPlateauTermination:
    """Equal-value neighbours never move the climber; the step decays."""

    def test_serial_plateau_halves_until_min_step(self):
        flat = lambda p: 1.0  # noqa: E731
        result = hill_climb(flat, Point2D(2.0, 3.0),
                            initial_step_m=0.05, min_step_m=0.005)
        # Steps 0.05, 0.025, 0.0125, 0.00625 each scan all four neighbours
        # without improvement, then 0.003125 < min_step terminates.
        assert result.position == Point2D(2.0, 3.0)
        assert result.value == 1.0
        assert result.iterations == 1 + 4 * 4

    def test_vectorized_matches_serial_on_plateau(self):
        flat = lambda p: 1.0  # noqa: E731
        serial = refine_from_seeds(flat, [(Point2D(2.0, 3.0), 1.0)],
                                   initial_step_m=0.05, min_step_m=0.005)
        [vectorized] = refine_many(_batch_adapter([flat]),
                                   [[(Point2D(2.0, 3.0), 1.0)]],
                                   initial_step_m=0.05, min_step_m=0.005)
        _assert_same(vectorized, serial)


class TestEvaluationBudget:
    """max_evaluations stops the scan mid-neighbour, exactly."""

    def test_budget_exhausted_mid_scan_without_improvement(self):
        # Only the fourth probe direction (-y) improves, but the budget of
        # 3 dies after the second neighbour: the climber must stay put and
        # report exactly 3 evaluations.
        downhill = lambda p: -p.y  # noqa: E731
        result = hill_climb(downhill, Point2D(1.0, 1.0),
                            initial_step_m=0.1, min_step_m=0.01,
                            max_evaluations=3)
        assert result.position == Point2D(1.0, 1.0)
        assert result.iterations == 3

    def test_budget_final_evaluation_still_moves(self):
        # The improving -y neighbour is evaluated exactly on the budget
        # boundary (5th evaluation): the move is taken, then the climb ends.
        downhill = lambda p: -p.y  # noqa: E731
        result = hill_climb(downhill, Point2D(1.0, 1.0),
                            initial_step_m=0.1, min_step_m=0.01,
                            max_evaluations=5)
        assert result.position == Point2D(1.0, 1.0 - 0.1)
        assert result.iterations == 5

    @pytest.mark.parametrize("max_evaluations", [1, 2, 3, 4, 5, 6, 17, 40])
    def test_vectorized_matches_serial_at_every_budget(self, max_evaluations):
        downhill = lambda p: -p.y  # noqa: E731
        seeds = [(Point2D(1.0, 1.0), 0.0)]
        serial = hill_climb(downhill, Point2D(1.0, 1.0),
                            initial_step_m=0.1, min_step_m=0.01,
                            max_evaluations=max_evaluations)
        [vectorized] = refine_many(_batch_adapter([downhill]), [seeds],
                                   initial_step_m=0.1, min_step_m=0.01,
                                   max_evaluations=max_evaluations)
        _assert_same(vectorized, serial)


class TestTieBreaking:
    def test_first_improving_neighbour_wins_not_the_best(self):
        # +x improves by a little, -y by a lot; the serial scan takes +x
        # (first strict improvement) and the vectorized replay must too.
        biased = lambda p: p.x + (10.0 if p.y < 0.95 else 0.0)  # noqa: E731
        serial = hill_climb(biased, Point2D(1.0, 1.0),
                            initial_step_m=0.1, min_step_m=0.01,
                            max_evaluations=2)
        assert serial.position == Point2D(1.1, 1.0)
        [vectorized] = refine_many(_batch_adapter([biased]),
                                   [[(Point2D(1.0, 1.0), 0.0)]],
                                   initial_step_m=0.1, min_step_m=0.01,
                                   max_evaluations=2)
        _assert_same(vectorized, serial)

    def test_refine_from_seeds_first_seed_wins_ties(self):
        flat = lambda p: 1.0  # noqa: E731
        seeds = [(Point2D(0.0, 0.0), 1.0), (Point2D(5.0, 5.0), 1.0)]
        serial = refine_from_seeds(flat, seeds,
                                   initial_step_m=0.05, min_step_m=0.005)
        assert serial.position == Point2D(0.0, 0.0)
        [vectorized] = refine_many(_batch_adapter([flat]), [seeds],
                                   initial_step_m=0.05, min_step_m=0.005)
        _assert_same(vectorized, serial)


class TestRandomizedEquality:
    def test_many_units_many_seeds_bitwise_equal(self):
        rng = np.random.default_rng(42)
        functions = []
        seeds_by_unit = []
        for _ in range(7):
            centres = rng.uniform(0.0, 10.0, size=(3, 2))
            weights = rng.uniform(0.5, 2.0, size=3)
            widths = rng.uniform(0.5, 3.0, size=3)

            def objective(p, centres=centres, weights=weights, widths=widths):
                dx = centres[:, 0] - p.x
                dy = centres[:, 1] - p.y
                return float(np.sum(
                    weights * np.exp(-(dx * dx + dy * dy) / widths)))

            functions.append(objective)
            seeds_by_unit.append([
                (Point2D(rng.uniform(0, 10), rng.uniform(0, 10)),
                 rng.uniform())
                for _ in range(int(rng.integers(1, 4)))])
        vectorized = refine_many(_batch_adapter(functions), seeds_by_unit,
                                 initial_step_m=0.25, min_step_m=0.01)
        for function, seeds, result in zip(functions, seeds_by_unit,
                                           vectorized, strict=True):
            serial = refine_from_seeds(function, seeds,
                                       initial_step_m=0.25, min_step_m=0.01)
            _assert_same(result, serial)


class TestValidation:
    def test_rejects_bad_steps_and_empty_seeds(self):
        flat = lambda p: 1.0  # noqa: E731
        evaluate = _batch_adapter([flat])
        with pytest.raises(EstimationError):
            refine_many(evaluate, [[(Point2D(0, 0), 1.0)]],
                        initial_step_m=0.0)
        with pytest.raises(EstimationError):
            refine_many(evaluate, [[(Point2D(0, 0), 1.0)]],
                        initial_step_m=0.01, min_step_m=0.1)
        with pytest.raises(EstimationError):
            refine_many(evaluate, [[]])
        with pytest.raises(EstimationError):
            refine_many(evaluate, [[(Point2D(0, 0), 1.0)]],
                        max_evaluations=0)

    def test_rejects_misshapen_evaluator_output(self):
        bad = lambda units, xs, ys: np.zeros(xs.shape[0] + 1)  # noqa: E731
        with pytest.raises(EstimationError, match="shape"):
            refine_many(bad, [[(Point2D(0, 0), 1.0)]])


def _synthetic_clients(count, ragged=False, seed=7):
    """Per-client spectra over a few AP placements (Gaussian lobe + noise)."""
    rng = np.random.default_rng(seed)
    angles = default_angle_grid(1.0)
    placements = [(Point2D(0.5, 0.5), 0.0), (Point2D(19.5, 0.5), 90.0),
                  (Point2D(10.0, 11.5), 33.0), (Point2D(0.5, 11.5), 180.0)]
    clients = {}
    for index in range(count):
        position = Point2D(rng.uniform(1, 19), rng.uniform(1, 11))
        sites = placements if not ragged else placements[:2 + (index % 3)]
        spectra = []
        for ap_position, orientation_deg in sites:
            bearing = bearing_deg(ap_position, position)
            local = (angles - (bearing - orientation_deg)
                     + 180.0) % 360.0 - 180.0
            power = np.exp(-0.5 * (local / 10.0) ** 2) \
                + 0.05 * rng.random(angles.shape[0])
            spectra.append(AoASpectrum(angles, power, ap_position=ap_position,
                                       ap_orientation_deg=orientation_deg))
        if ragged and index % 2:
            spectra = spectra[::-1]
        clients[f"c{index}"] = spectra
    return clients


class TestBatchLocalizerEquality:
    """End to end: the stacked refinement equals the serial oracle."""

    BOUNDS = (0.0, 0.0, 20.0, 12.0)

    @pytest.mark.parametrize("ragged", [False, True])
    @pytest.mark.parametrize("floor", [0.0, 0.05])
    def test_vectorized_refinement_is_bit_identical(self, ragged, floor):
        clients = _synthetic_clients(10, ragged=ragged)
        config = LocalizerConfig(grid_resolution_m=0.5, spectrum_floor=floor)
        fast = BatchLocalizer(self.BOUNDS, config).estimate_batch(clients)
        serial = reference.SerialRefinementLocalizer(
            self.BOUNDS, config).estimate_batch(clients)
        for key in clients:
            assert fast[key].position.x == serial[key].position.x
            assert fast[key].position.y == serial[key].position.y
            assert fast[key].likelihood == serial[key].likelihood
            assert fast[key].num_aps == serial[key].num_aps

    def test_vectorized_default_matches_single_client_estimate(self):
        clients = _synthetic_clients(5)
        config = LocalizerConfig(grid_resolution_m=0.5)
        localizer = BatchLocalizer(self.BOUNDS, config)
        batched = localizer.estimate_batch(clients)
        for key, spectra in clients.items():
            single = localizer.estimate_batch({key: spectra})[key]
            assert batched[key].position == single.position
            assert batched[key].likelihood == single.likelihood
