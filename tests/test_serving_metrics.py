"""Edge-case tests for :mod:`repro.serving.metrics`.

The serving daemon and the perf benches read ``summary()`` at
arbitrary moments — including before any traffic and after exactly one
batch — so the empty/single-sample behavior is part of the contract:
every field must be present and finite with no samples recorded, and
single-sample percentiles must collapse to that sample rather than
interpolate garbage.  The inference/staleness stat families added for
the priority providers get the same treatment.
"""

import pytest

from repro.serving import LatencyWindow, ServingMetrics


# ----------------------------------------------------------------------
# LatencyWindow
# ----------------------------------------------------------------------
def test_empty_window_percentiles_are_zero():
    window = LatencyWindow(window=16)
    assert window.percentile(50.0) == 0.0
    assert window.percentiles([50.0, 95.0, 99.0]) == {
        50.0: 0.0, 95.0: 0.0, 99.0: 0.0}
    assert window.mean_seconds == 0.0
    assert window.count == 0


def test_single_sample_percentiles_collapse_to_it():
    window = LatencyWindow(window=16)
    window.record(0.25)
    for q in (1.0, 50.0, 95.0, 99.0, 100.0):
        assert window.percentile(q) == pytest.approx(0.25)
    assert window.mean_seconds == pytest.approx(0.25)


def test_latency_window_percentiles_and_totals():
    window = LatencyWindow(window=4)
    for value in (0.010, 0.020, 0.030, 0.040, 0.050, 0.060):
        window.record(value)
    # Counts/totals span the whole history, percentiles the window.
    assert window.count == 6
    assert window.total_seconds == pytest.approx(0.210)
    assert window.percentile(50.0) == pytest.approx(0.045)
    assert window.percentile(100.0) == pytest.approx(0.060)
    assert window.mean_seconds == pytest.approx(0.035)


def test_window_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        LatencyWindow(window=0)


def test_ring_wrap_keeps_only_recent_samples():
    """Percentiles track the current regime: once the ring wraps, old
    samples stop influencing them while count/total keep full history."""
    window = LatencyWindow(window=4)
    for _ in range(8):
        window.record(100.0)  # ancient slow regime
    for _ in range(4):
        window.record(1.0)    # current fast regime fills the ring
    assert window.percentile(99.0) == pytest.approx(1.0)
    assert window.count == 12
    assert window.total_seconds == pytest.approx(8 * 100.0 + 4 * 1.0)


# ----------------------------------------------------------------------
# ServingMetrics summary stability
# ----------------------------------------------------------------------
def test_summary_is_stable_with_no_samples():
    metrics = ServingMetrics()
    summary = metrics.summary()
    assert summary["batches"] == 0
    assert summary["keys_served"] == 0
    for key in ("latency_p50_ms", "latency_p95_ms", "latency_p99_ms",
                "latency_mean_ms", "queue_depth_mean",
                "inference_mean_ms", "inference_max_ms",
                "staleness_mean"):
        assert summary[key] == 0.0, key
    assert summary["queue_depth_max"] == 0
    assert summary["inference_batches"] == 0
    assert summary["staleness_max"] == 0
    assert summary["batch_size_histogram"] == {}
    # No busy time recorded: the throughput key is absent, not inf/nan.
    assert "keys_per_sec_busy" not in summary


def test_zero_busy_seconds_never_divides():
    """A recorded batch of zero seconds must not produce inf/nan
    throughput — the keys_per_sec_busy key is simply withheld."""
    metrics = ServingMetrics()
    metrics.record_batch(128, 0.0)
    summary = metrics.summary()
    assert summary["batches"] == 1
    assert "keys_per_sec_busy" not in summary
    assert summary["latency_mean_ms"] == 0.0


def test_single_batch_summary():
    metrics = ServingMetrics()
    metrics.record_batch(100, 0.010, queue_depth=3)
    summary = metrics.summary()
    assert summary["latency_p50_ms"] == pytest.approx(10.0)
    assert summary["latency_p99_ms"] == pytest.approx(10.0)
    assert summary["queue_depth_mean"] == pytest.approx(3.0)
    assert summary["batch_size_histogram"] == {"64-127": 1}
    assert summary["keys_per_sec_busy"] == pytest.approx(100 / 0.010)


def test_serving_metrics_summary_shape():
    metrics = ServingMetrics()
    for size, latency, depth in [(100, 0.001, 0), (300, 0.002, 2),
                                 (600, 0.004, 4)]:
        metrics.record_batch(size, latency, queue_depth=depth)
    summary = metrics.summary()
    assert summary["batches"] == 3
    assert summary["keys_served"] == 1000
    assert summary["latency_p50_ms"] == pytest.approx(2.0)
    assert summary["latency_p99_ms"] <= 4.0 + 1e-9
    assert summary["queue_depth_mean"] == pytest.approx(2.0)
    assert summary["queue_depth_max"] == 4
    assert summary["batch_size_histogram"] == {
        "64-127": 1, "256-511": 1, "512-1023": 1}


# ----------------------------------------------------------------------
# Inference / staleness families (priority providers)
# ----------------------------------------------------------------------
def test_record_inference_accumulates():
    metrics = ServingMetrics()
    metrics.record_inference(0.004, keys=512)
    metrics.record_inference(0.010, keys=256)
    assert metrics.inference_batches == 2
    assert metrics.inference_keys == 768
    assert metrics.inference_mean_ms == pytest.approx(7.0)
    summary = metrics.summary()
    assert summary["inference_batches"] == 2
    assert summary["inference_mean_ms"] == pytest.approx(7.0)
    assert summary["inference_max_ms"] == pytest.approx(10.0)


def test_record_staleness_accumulates():
    metrics = ServingMetrics()
    for blocks in (0, 3, 1):
        metrics.record_staleness(blocks)
    assert metrics.staleness_samples == 3
    assert metrics.staleness_mean == pytest.approx(4 / 3)
    summary = metrics.summary()
    assert summary["staleness_mean"] == pytest.approx(4 / 3)
    assert summary["staleness_max"] == 3


def test_serving_metrics_rejects_negative_staleness():
    """A negative staleness sample can only come from a torn read of
    the provider's queue counters (the bug the locked snapshot in
    ``AsyncModelProvider.staleness_blocks`` fixes) — reject it loudly
    instead of folding it into the mean."""
    metrics = ServingMetrics()
    metrics.record_staleness(0)
    metrics.record_staleness(3)
    with pytest.raises(ValueError, match="negative"):
        metrics.record_staleness(-1)
    # The rejected sample must not have perturbed the counters.
    assert metrics.staleness_samples == 2
    assert metrics.staleness_max == 3


def test_summary_is_json_ready():
    import json

    metrics = ServingMetrics()
    metrics.record_batch(64, 0.002, queue_depth=1)
    metrics.record_inference(0.003, keys=64)
    metrics.record_staleness(2)
    encoded = json.dumps(metrics.summary())
    assert isinstance(json.loads(encoded), dict)
