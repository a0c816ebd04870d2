"""Tests of the benchmark's outside-in span recorder and layer table."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import layers  # noqa: E402
from spans import Span, SpanRecorder, percentile  # noqa: E402


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    recorder = SpanRecorder(clock)
    outer = recorder.begin("service")          # 0 .. 10
    clock.now = 1.0
    middle = recorder.begin("suppression")     # 1 .. 7
    clock.now = 2.0
    inner = recorder.begin("peaks")            # 2 .. 5
    clock.now = 5.0
    recorder.end(inner)
    clock.now = 7.0
    recorder.end(middle)
    clock.now = 8.0
    sibling = recorder.begin("batch")          # 8 .. 9.5
    clock.now = 9.5
    recorder.end(sibling)
    clock.now = 10.0
    recorder.end(outer)

    assert recorder.self_times() == [10.0 - 6.0 - 1.5, 6.0 - 3.0, 3.0, 1.5]
    stats = recorder.layer_stats()
    assert stats["service"].busy_s == 10.0
    assert stats["service"].self_s == 2.5
    assert stats["suppression"].self_s == 3.0
    assert recorder.root_busy_s() == 10.0
    assert [span.parent for span in recorder.spans] == [None, 0, 1, 0]
    assert {span.root for span in recorder.spans} == {0}


def test_self_time_counts_overlapping_children_once():
    recorder = SpanRecorder(FakeClock())
    recorder.spans = [Span("parent", 0.0, 10.0),
                      Span("child", 2.0, 4.0, parent=0),
                      Span("child", 3.0, 6.0, parent=0)]
    assert recorder.self_times()[0] == 10.0 - 4.0


def test_end_rejects_out_of_order_spans():
    recorder = SpanRecorder(FakeClock())
    outer = recorder.begin("outer")
    recorder.begin("inner")
    with pytest.raises(RuntimeError):
        recorder.end(outer)


def test_layer_stats_sum_counts_per_name():
    recorder = SpanRecorder(FakeClock())
    for frames in (3, 4):
        index = recorder.begin("access_point")
        recorder.end(index)
        recorder.spans[index].counts["frames"] = frames
    stats = recorder.layer_stats()["access_point"]
    assert stats.calls == 2
    assert stats.counts == {"frames": 7}


@pytest.mark.parametrize("q, needed", [(50, 20), (90, 100), (99, 1000)])
def test_percentile_needs_ten_samples_beyond(q, needed):
    for count in range(1, needed + 1):
        samples = [float(value) for value in range(count)]
        expected = np.percentile(samples, q)
        beyond = sum(sample > expected for sample in samples)
        value = percentile(samples, q)
        if beyond >= 10:
            assert value == pytest.approx(expected)
        else:
            assert value is None, count
    assert percentile(samples, q) is not None
    assert percentile(samples[:needed // 2], q) is None


def test_percentile_of_nothing_is_not_reportable():
    assert percentile([], 50) is None


def test_wrapper_times_calls_and_restores_module_attributes():
    import repro.core.suppression as suppression_module
    from repro.core.spectrum import AoASpectrum, default_angle_grid

    angles = default_angle_grid(1.0)
    spectrum = AoASpectrum(angles, np.exp(-0.5 * ((angles - 40.0) / 5) ** 2))
    original = suppression_module.find_peaks
    recorder = SpanRecorder()
    recorder.wrap(suppression_module, "find_peaks", "peaks",
                  lambda args, kwargs, result: {"peaks": len(result)})
    assert suppression_module.find_peaks is not original
    peaks = suppression_module.find_peaks(spectrum)
    recorder.restore()

    assert suppression_module.find_peaks is original
    assert peaks == original(spectrum)
    assert [span.name for span in recorder.spans] == ["peaks"]
    assert recorder.spans[0].counts == {"peaks": len(peaks)}
    assert recorder.spans[0].duration > 0


def test_wrapper_closes_its_span_when_the_call_raises():
    class Layer:
        def work(self):
            raise ValueError("boom")

    recorder = SpanRecorder()
    recorder.wrap(Layer, "work", "layer")
    with pytest.raises(ValueError):
        Layer().work()
    recorder.restore()
    assert recorder.spans[0].end >= recorder.spans[0].start
    assert recorder.begin("next") == 1   # nothing left open
    assert "work" in vars(Layer)


def test_restore_removes_wrappers_of_inherited_methods():
    class Base:
        def work(self):
            return 1

    class Child(Base):
        pass

    recorder = SpanRecorder()
    recorder.wrap(Child, "work", "layer")
    assert Child().work() == 1
    recorder.restore()
    assert "work" not in vars(Child)
    assert Child.work is Base.work


def test_install_wraps_every_layer_and_restore_puts_all_back():
    targets = [
        (layers.ArrayTrackService, name) for name in
        ("ingest_many", "tick", "localize_many", "localize_buffered", "health")
    ] + [
        (layers.ArrayTrackAP, "compute_spectra"),
        (layers.MultipathSuppressor, "process"),
        (layers.suppression_module, "find_peaks"),
        (layers.BatchLocalizer, "estimate_batch"),
        (layers.batch_module, "refine_many"),
        (layers.ClientTracker, "update"),
        (layers.ProcessShardPool, "localize_shards"),
        (layers.ProcessShardPool, "tick_shards"),
    ]
    before = {(owner, name): vars(owner)[name] for owner, name in targets}
    recorder = SpanRecorder()
    layers.install(recorder)
    try:
        assert recorder.installed == len(targets)
        for owner, name in targets:
            assert vars(owner)[name] is not before[(owner, name)], name
    finally:
        recorder.restore()
    assert recorder.installed == 0
    for owner, name in targets:
        assert vars(owner)[name] is before[(owner, name)], name


def test_layer_metrics_cover_every_declared_metric():
    recorder = SpanRecorder(FakeClock())
    pool = {"rebuilds": 0, "broken_pools": 0, "shard_retries": 0,
            "backoff_slept_s": 0.0}
    metrics = layers.layer_metrics(
        recorder, None, workers=2, pool_delta=pool, phase_starts=[],
        leaked_segments=0, lags_s=[], probes_offered=0, overhead_ratio=1.0,
        rejected=0)
    assert list(metrics) == list(layers.METRICS)
    assert all(isinstance(value, float) for value in metrics.values())


def test_rebuild_in_untraced_phase_is_not_charged_to_traced_call():
    clock = FakeClock()
    recorder = SpanRecorder(clock)
    pool = {"rebuilds": 0, "broken_pools": 0, "shard_retries": 0,
            "backoff_slept_s": 0.0}

    def pool_call(rebuilds_after: int) -> None:
        index = recorder.begin("procpool")
        clock.now += 1.0
        recorder.end(index)
        recorder.spans[index].counts.update(
            {"shm_bytes": 8.0, "rebuilds_after": rebuilds_after})

    # Traced phase 1 starts at 0 rebuilds; its second call rebuilds.
    phase_starts = [(clock(), 0)]
    pool_call(0)
    pool_call(1)
    # An untraced phase rebuilds twice more; traced phase 2 sees none.
    clock.now += 10.0
    phase_starts.append((clock(), 3))
    pool_call(3)
    metrics = layers.layer_metrics(
        recorder, None, workers=2, pool_delta=pool,
        phase_starts=phase_starts, leaked_segments=0, lags_s=[],
        probes_offered=0, overhead_ratio=1.0, rejected=0)
    assert metrics["procpool.rebuild_call_s"] == 1.0
