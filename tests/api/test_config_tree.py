"""Tests for the ArrayTrackConfig tree: round-tripping, validation, overrides."""

import numpy as np
import pytest

from repro.api import (ArrayTrackConfig, ArrayTrackService, ResilienceConfig,
                       SessionConfig, TrackerConfig, default_server_config)
from repro.channel import MultipathChannel
from repro.constants import DEFAULT_SPECTRUM_FLOOR
from repro.core import LocalizerConfig, SpectrumConfig, SuppressorConfig
from repro.errors import ConfigurationError
from repro.geometry import Point2D
from repro.server import ServerConfig
from repro.testing import reference


class TestRoundTrip:
    def test_dict_round_trip_is_equal(self):
        config = ArrayTrackConfig(bounds=(0.0, 0.0, 20.0, 10.0))
        assert ArrayTrackConfig.from_dict(config.to_dict()) == config

    def test_dict_round_trip_with_non_default_values(self):
        config = ArrayTrackConfig(
            bounds=(1.0, 2.0, 30.0, 18.0),
            estimator="capon",
            server=ServerConfig(
                localizer=LocalizerConfig(grid_resolution_m=0.5,
                                          spectrum_floor=0.1),
                enable_multipath_suppression=False,
                suppressor=SuppressorConfig(tolerance_deg=7.0)),
            session=SessionConfig(emit_every_frames=5, max_age_s=0.25),
        )
        restored = ArrayTrackConfig.from_dict(config.to_dict())
        assert restored == config
        assert restored.server.suppressor.tolerance_deg == 7.0

    def test_json_round_trip(self):
        config = ArrayTrackConfig(bounds=(0.0, 0.0, 8.0, 4.0),
                                  estimator="bartlett")
        assert ArrayTrackConfig.from_json(config.to_json()) == config

    def test_file_round_trip(self, tmp_path):
        config = ArrayTrackConfig(bounds=(0.0, 0.0, 8.0, 4.0))
        path = str(tmp_path / "service.json")
        config.to_file(path)
        assert ArrayTrackConfig.from_file(path) == config

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ArrayTrackConfig.from_file(str(tmp_path / "absent.json"))

    def test_bounds_list_normalized_to_tuple(self):
        config = ArrayTrackConfig.from_dict({"bounds": [0, 0, 5, 5]})
        assert config.bounds == (0.0, 0.0, 5.0, 5.0)


class TestDefaults:
    def test_service_spectrum_floor_is_documented_default(self):
        config = ArrayTrackConfig()
        assert config.server.localizer.spectrum_floor == DEFAULT_SPECTRUM_FLOOR
        assert DEFAULT_SPECTRUM_FLOOR == pytest.approx(0.05)

    def test_plain_localizer_default_unchanged(self):
        # The paper-faithful Equation 8 default stays put; only the
        # service tree applies the end-to-end 0.05 floor.
        assert LocalizerConfig().spectrum_floor == pytest.approx(0.02)

    def test_partial_server_section_keeps_facade_floor(self):
        config = ArrayTrackConfig.from_dict({"server": {}})
        assert config.server.localizer.spectrum_floor == DEFAULT_SPECTRUM_FLOOR
        assert config.server == default_server_config()

    def test_partial_localizer_section_keeps_other_defaults(self):
        config = ArrayTrackConfig.from_dict(
            {"server": {"localizer": {"grid_resolution_m": 0.5}}})
        assert config.server.localizer.grid_resolution_m == 0.5
        assert config.server.localizer.num_seeds == 3
        # A hand-written partial localizer dict must keep the facade's
        # documented floor, exactly like updated() with the same override.
        assert config.server.localizer.spectrum_floor == DEFAULT_SPECTRUM_FLOOR
        assert config == ArrayTrackConfig().updated(
            {"server.localizer.grid_resolution_m": 0.5})

    def test_explicit_floor_wins_over_facade_default(self):
        config = ArrayTrackConfig.from_dict(
            {"server": {"localizer": {"spectrum_floor": 0.02}}})
        assert config.server.localizer.spectrum_floor == 0.02


class TestRejection:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigurationError, match="bogus"):
            ArrayTrackConfig.from_dict({"bogus": 1})

    def test_unknown_nested_key_names_path(self):
        with pytest.raises(ConfigurationError,
                           match=r"config\.server\.localizer"):
            ArrayTrackConfig.from_dict(
                {"server": {"localizer": {"grid_res": 0.1}}})

    def test_unknown_ap_spectrum_key(self):
        with pytest.raises(ConfigurationError, match=r"config\.ap\.spectrum"):
            ArrayTrackConfig.from_dict({"ap": {"spectrum": {"mode": "music"}}})

    def test_invalid_value_wrapped_with_path(self):
        with pytest.raises(ConfigurationError,
                           match="grid_resolution_m must be positive"):
            ArrayTrackConfig.from_dict(
                {"server": {"localizer": {"grid_resolution_m": -1.0}}})

    def test_invalid_tracker_value_names_path(self):
        with pytest.raises(ConfigurationError, match="smoothing_factor"):
            ArrayTrackConfig.from_dict({"tracker": {"smoothing_factor": 0.0}})

    def test_invalid_suppressor_value_fails_at_config_load(self):
        # A bad peak floor must fail here, not as an EstimationError from
        # find_peaks once a stream is already running.
        with pytest.raises(ConfigurationError, match="min_relative_height"):
            ArrayTrackConfig.from_dict(
                {"suppressor": {"min_relative_height": 1.5}})

    def test_invalid_session_value(self):
        with pytest.raises(ConfigurationError, match="suppress_multipath"):
            ArrayTrackConfig.from_dict(
                {"session": {"suppress_multipath": "yes"}})

    def test_section_must_be_mapping(self):
        with pytest.raises(ConfigurationError, match="must be a mapping"):
            ArrayTrackConfig.from_dict({"server": 3})

    def test_degenerate_bounds(self):
        with pytest.raises(ConfigurationError, match="bounds"):
            ArrayTrackConfig(bounds=(5.0, 0.0, 1.0, 10.0))
        with pytest.raises(ConfigurationError, match="bounds"):
            ArrayTrackConfig(bounds=(0.0, 0.0, 1.0))

    def test_empty_estimator_name(self):
        with pytest.raises(ConfigurationError, match="estimator"):
            ArrayTrackConfig(estimator="")

    def test_non_mapping_config(self):
        with pytest.raises(ConfigurationError):
            ArrayTrackConfig.from_dict([1, 2, 3])


class TestOverrides:
    def test_dotted_path_overrides(self):
        config = ArrayTrackConfig(bounds=(0.0, 0.0, 5.0, 5.0))
        updated = config.updated({
            "server.localizer.grid_resolution_m": 0.4,
            "ap.spectrum.method": "capon",
            "session.emit_every_frames": 1,
        })
        assert updated.server.localizer.grid_resolution_m == 0.4
        assert updated.ap.spectrum.method == "capon"
        assert updated.session.emit_every_frames == 1
        # The original is untouched.
        assert config.ap.spectrum.method == "music"

    def test_unknown_dotted_path_rejected(self):
        config = ArrayTrackConfig()
        with pytest.raises(ConfigurationError, match="unknown configuration path"):
            config.updated({"server.localizer.grid_res": 0.4})
        with pytest.raises(ConfigurationError, match="unknown configuration path"):
            config.updated({"nonsense.key": 1})

    def test_env_overrides(self):
        config = ArrayTrackConfig(bounds=(0.0, 0.0, 5.0, 5.0))
        updated = config.with_env_overrides({
            "ARRAYTRACK_ESTIMATOR": "bartlett",
            "ARRAYTRACK_SERVER__LOCALIZER__SPECTRUM_FLOOR": "0.1",
            "ARRAYTRACK_SESSION__MAX_AGE_S": "0.5",
            "UNRELATED_VARIABLE": "ignored",
        })
        assert updated.estimator == "bartlett"
        assert updated.server.localizer.spectrum_floor == 0.1
        assert updated.session.max_age_s == 0.5

    def test_env_overrides_noop_without_matches(self):
        config = ArrayTrackConfig(bounds=(0.0, 0.0, 5.0, 5.0))
        assert config.with_env_overrides({"HOME": "/root"}) is config

    def test_env_overrides_ignore_unrelated_arraytrack_variables(self):
        # Deployment variables sharing the prefix but not naming a config
        # section must not crash startup.
        config = ArrayTrackConfig(bounds=(0.0, 0.0, 5.0, 5.0))
        updated = config.with_env_overrides({
            "ARRAYTRACK_HOME": "/opt/arraytrack",
            "ARRAYTRACK_LOG_LEVEL": "debug",
            "ARRAYTRACK_ESTIMATOR": "capon",
        })
        assert updated.estimator == "capon"

    def test_env_override_typo_inside_section_still_rejected(self):
        config = ArrayTrackConfig()
        with pytest.raises(ConfigurationError, match="unknown configuration path"):
            config.with_env_overrides(
                {"ARRAYTRACK_SERVER__LOCALISER__SPECTRUM_FLOOR": "0.1"})

    def test_env_override_bad_value_rejected(self):
        config = ArrayTrackConfig()
        with pytest.raises(ConfigurationError):
            config.with_env_overrides(
                {"ARRAYTRACK_SERVER__LOCALIZER__NUM_SEEDS": "0"})


#: Options this config tree no longer has, as (dotted path, value, match).
#: The serial-reference knobs are gone -- the oracles live in
#: repro.testing.reference, selectable by no config path -- and so is the
#: thread backend.
REMOVED_OPTIONS = [
    ("ap.spectrum.vectorized_frontend", False, "vectorized_frontend"),
    ("server.localizer.vectorized_refinement", False,
     "vectorized_refinement"),
    ("parallel.backend", "thread", "backend"),
]
_REMOVED_IDS = [path for path, _, _ in REMOVED_OPTIONS]


def _nested(path, value):
    """``"a.b.c", v`` -> ``{"a": {"b": {"c": v}}}``."""
    for part in reversed(path.split(".")):
        value = {part: value}
    return value


class TestRemovedOptions:
    """Every route into the tree rejects the removed options."""

    @pytest.mark.parametrize("path,value,match", REMOVED_OPTIONS,
                             ids=_REMOVED_IDS)
    def test_from_dict_rejects(self, path, value, match):
        with pytest.raises(ConfigurationError, match=match):
            ArrayTrackConfig.from_dict(_nested(path, value))

    @pytest.mark.parametrize("path,value,match", REMOVED_OPTIONS,
                             ids=_REMOVED_IDS)
    def test_dotted_update_rejects(self, path, value, match):
        with pytest.raises(ConfigurationError, match=match):
            ArrayTrackConfig().updated({path: value})

    @pytest.mark.parametrize("path,value,match", REMOVED_OPTIONS,
                             ids=_REMOVED_IDS)
    def test_env_override_rejects(self, path, value, match):
        name = "ARRAYTRACK_" + path.upper().replace(".", "__")
        with pytest.raises(ConfigurationError, match=match):
            ArrayTrackConfig().with_env_overrides({name: str(value).lower()})


class TestSessionConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"emit_every_frames": -1},
        {"max_age_s": -0.5},
        {"max_pending_frames": 0},
        {"suppress_multipath": 1},
    ])
    def test_invalid_session_parameters(self, kwargs):
        with pytest.raises(ConfigurationError):
            SessionConfig(**kwargs)


class TestTrackerSection:
    def test_defaults(self):
        config = ArrayTrackConfig()
        assert config.tracker == TrackerConfig()
        assert config.tracker.on_out_of_order == "insert"

    def test_round_trips_with_non_default_values(self):
        config = ArrayTrackConfig(
            bounds=(0.0, 0.0, 5.0, 5.0),
            tracker=TrackerConfig(smoothing_factor=0.3, max_history=16,
                                  on_out_of_order="reject"))
        restored = ArrayTrackConfig.from_dict(config.to_dict())
        assert restored == config
        assert restored.tracker.max_history == 16

    @pytest.mark.parametrize("kwargs", [
        {"smoothing_factor": 0.0},
        {"smoothing_factor": 1.5},
        {"max_history": 0},
        {"on_out_of_order": "panic"},
    ])
    def test_invalid_tracker_parameters(self, kwargs):
        with pytest.raises(ConfigurationError):
            TrackerConfig(**kwargs)

    def test_env_override_reaches_tracker_section(self):
        config = ArrayTrackConfig(bounds=(0.0, 0.0, 5.0, 5.0))
        updated = config.with_env_overrides({
            "ARRAYTRACK_TRACKER__SMOOTHING_FACTOR": "0.25",
            "ARRAYTRACK_SESSION__SUPPRESS_MULTIPATH": "true",
            "ARRAYTRACK_SUPPRESSOR__TOLERANCE_DEG": "7.5",
        })
        assert updated.tracker.smoothing_factor == 0.25
        assert updated.session.suppress_multipath is True
        assert updated.suppressor.tolerance_deg == 7.5


class TestResilienceSection:
    def test_defaults(self):
        config = ArrayTrackConfig()
        assert config.resilience == ResilienceConfig()
        assert config.resilience.supervise_pool is True
        assert config.resilience.breaker_enabled is True
        assert config.resilience.max_total_pending_frames is None
        assert config.resilience.shed_policy == "shed-oldest"
        assert config.resilience.reject_poison_frames is True

    def test_round_trips_with_non_default_values(self):
        config = ArrayTrackConfig(
            bounds=(0.0, 0.0, 5.0, 5.0),
            resilience=ResilienceConfig(
                max_retries=5, backoff_base_s=0.01, shard_timeout_s=3.0,
                breaker_threshold=1, max_total_pending_frames=128,
                shed_policy="reject",
                fault_plan='[{"kind": "poison-frame"}]'))
        restored = ArrayTrackConfig.from_dict(config.to_dict())
        assert restored == config
        assert restored.resilience.shard_timeout_s == 3.0
        assert ArrayTrackConfig.from_json(config.to_json()) == config

    @pytest.mark.parametrize("kwargs", [
        {"supervise_pool": 1},
        {"max_retries": -1},
        {"max_retries": True},
        {"backoff_base_s": -0.1},
        {"backoff_jitter": -0.5},
        {"retry_seed": 1.5},
        {"shard_timeout_s": 0.0},
        {"breaker_threshold": 0},
        {"breaker_recovery_s": -1.0},
        {"max_total_pending_frames": 0},
        {"shed_policy": "drop-newest"},
        {"reject_poison_frames": "yes"},
        {"fault_plan": 42},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ResilienceConfig(**kwargs)

    def test_invalid_value_names_path_from_dict(self):
        with pytest.raises(ConfigurationError, match="resilience"):
            ArrayTrackConfig.from_dict(
                {"resilience": {"shed_policy": "panic"}})

    def test_env_override_reaches_resilience_section(self):
        config = ArrayTrackConfig(bounds=(0.0, 0.0, 5.0, 5.0))
        updated = config.with_env_overrides({
            "ARRAYTRACK_RESILIENCE__MAX_RETRIES": "4",
            "ARRAYTRACK_RESILIENCE__SHARD_TIMEOUT_S": "2.5",
            "ARRAYTRACK_RESILIENCE__SHED_POLICY": "reject",
            "ARRAYTRACK_RESILIENCE__BREAKER_ENABLED": "false",
        })
        assert updated.resilience.max_retries == 4
        assert updated.resilience.shard_timeout_s == 2.5
        assert updated.resilience.shed_policy == "reject"
        assert updated.resilience.breaker_enabled is False

    def test_dotted_override_reaches_resilience_section(self):
        config = ArrayTrackConfig(bounds=(0.0, 0.0, 5.0, 5.0)).updated(
            {"resilience.max_total_pending_frames": 64})
        assert config.resilience.max_total_pending_frames == 64


class TestSuppressorAlias:
    def test_alias_is_the_suppressor_dataclass(self):
        from repro.core.suppression import MultipathSuppressor

        assert SuppressorConfig is MultipathSuppressor

    def test_spectrum_config_round_trips_inside_ap_section(self):
        config = ArrayTrackConfig(bounds=(0.0, 0.0, 5.0, 5.0))
        data = config.to_dict()
        assert data["ap"]["spectrum"]["method"] == "music"
        restored = ArrayTrackConfig.from_dict(data)
        assert restored.ap.spectrum == SpectrumConfig()

    def test_tree_built_ap_frontend_matches_the_serial_oracle(self):
        service = ArrayTrackService(ArrayTrackConfig(
            bounds=(0.0, 0.0, 5.0, 5.0)).updated(
            {"ap.spectrum.angle_resolution_deg": 1.0}))
        ap = service.build_ap("ap0", Point2D(0.0, 0.0),
                              rng=np.random.default_rng(3))
        rng = np.random.default_rng(9)
        entries = [ap.overhear(MultipathChannel.from_bearings(
            [float(rng.uniform(10.0, 170.0))], [1.0], client_id="c"),
            timestamp_s=0.01 * index, rng=rng) for index in range(4)]
        for batched, serial in zip(ap.compute_spectra(entries),
                                   reference.compute_spectra(ap, entries),
                                   strict=True):
            assert np.array_equal(batched.power, serial.power)
