"""Tests for package-level constants and the error hierarchy."""

import math

import pytest

import repro
from repro import constants, errors
from repro.constants import phase_constant, wavelength_for_frequency


class TestConstants:
    def test_wavelength_matches_carrier(self):
        # 2.437 GHz -> roughly 12.3 cm.
        assert constants.WAVELENGTH_M == pytest.approx(0.123, abs=0.002)

    def test_antenna_spacing_is_half_wavelength(self):
        assert constants.ANTENNA_SPACING_M == pytest.approx(
            constants.WAVELENGTH_M / 2.0)
        # The paper quotes 6.13 cm.
        assert constants.ANTENNA_SPACING_M == pytest.approx(0.0613, abs=0.001)

    def test_preamble_duration(self):
        sts = (constants.NUM_SHORT_TRAINING_SYMBOLS
               * constants.SHORT_TRAINING_SYMBOL_DURATION_S)
        lts = (constants.NUM_LONG_TRAINING_SYMBOLS
               * constants.LONG_TRAINING_SYMBOL_DURATION_S)
        guard = 2 * constants.GUARD_INTERVAL_DURATION_S
        assert sts + lts + guard == pytest.approx(constants.PREAMBLE_DURATION_S)

    def test_ten_samples_are_250_nanoseconds(self):
        # Section 2.1: ten samples at 40 Msps span 250 ns.
        assert (constants.DEFAULT_NUM_SNAPSHOTS
                / constants.SAMPLE_RATE_HZ) == pytest.approx(250e-9)

    def test_wavelength_helper(self):
        assert wavelength_for_frequency(constants.CARRIER_FREQUENCY_HZ) == \
            pytest.approx(constants.WAVELENGTH_M)
        with pytest.raises(ValueError):
            wavelength_for_frequency(0.0)

    def test_phase_constant(self):
        assert phase_constant(1.0) == pytest.approx(2 * math.pi)
        with pytest.raises(ValueError):
            phase_constant(-1.0)

    def test_version_exposed(self):
        assert repro.__version__


class TestErrorHierarchy:
    def test_all_errors_derive_from_base(self):
        for name in ("GeometryError", "SignalError", "ChannelError", "ArrayError",
                     "DetectionError", "EstimationError", "ConfigurationError"):
            error_class = getattr(errors, name)
            assert issubclass(error_class, errors.ArrayTrackError)
            assert issubclass(error_class, Exception)
