"""Latency/SLO observability for the serving front-end.

The serving path so far reported one number per run — accesses/sec.  A
traffic-bearing front end needs the latency *distribution* (tail
latency is the SLO currency: a p99 of 20 ms matters even when the mean
is 2 ms), the admission queue's depth (the leading indicator of
overload) and the batch-size mix the batcher actually produced.
:class:`ServingMetrics` records all three with O(1) per-batch cost and
summarizes them on demand:

* **per-batch wall latency** — a fixed-size ring buffer
  (:class:`LatencyWindow`) of the most recent ``window`` batch
  latencies; p50/p95/p99 are computed on demand from the window, so
  recording stays allocation-free on the serving path and the
  percentiles track the *current* regime rather than the whole
  history;
* **queue depth** — mean/max over the recorded samples of the
  *admission* queue's depth at each flush (requests waiting to be
  batched — the backpressure signal);
* **batch-size histogram** — power-of-two buckets (a batch of 1500
  keys lands in the ``1024-2047`` bucket), enough to see whether the
  batcher is flushing on size or on deadline.

With a model-guided priority provider installed
(:mod:`repro.serving.priorities`) one more stat family appears:

* **inference latency** — per-inference-batch wall time and key count
  (:meth:`ServingMetrics.record_inference`).  This time is *inside*
  the batch latencies above: inference rides the serving thread.

With online elastic rebalancing enabled (``rebalance_interval``) one
more family appears:

* **rebalances** — count, total migrated keys, and the serving pause
  each rebalance cost (:meth:`ServingMetrics.record_rebalance`): the
  wall time from deciding to rebalance to serving again.  Pause time is
  the honesty metric of elastic rebalancing — the hit-rate win is
  gated in the benches, the pause is recorded ungated next to it.

Recording is **single-writer**: the serving thread writes every field
family, so no lock is needed anywhere on the hot path.

The summary feeds two places: the serving daemon's live printout
(``examples/serving_daemon.py``) and the committed perf baseline —
``benchmarks/test_perf_hotpaths.py`` exports ``latency_p50_ms`` /
``latency_p95_ms`` / ``latency_p99_ms`` and queue-depth stats next to
accesses/sec in ``BENCH_hotpaths.json``, so tail latency is tracked
across PRs alongside throughput.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np


class LatencyWindow:
    """Ring buffer over the most recent ``window`` latency samples.

    ``record`` is O(1) (one scalar store, no growth); ``percentile``
    sorts the live window on demand — cheap at summary time, free on
    the serving path.  ``count`` / ``total_seconds`` cover the *whole*
    history, so throughput math never loses evicted samples.
    """

    def __init__(self, window: int = 4096) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = int(window)
        self._ring = np.zeros(self.window, dtype=np.float64)
        self._next = 0
        self.count = 0
        self.total_seconds = 0.0

    def record(self, seconds: float) -> None:
        self._ring[self._next] = seconds
        self._next = (self._next + 1) % self.window
        self.count += 1
        self.total_seconds += seconds

    def _live(self) -> np.ndarray:
        return self._ring[: min(self.count, self.window)]

    def percentile(self, q: float) -> float:
        """q-th percentile (seconds) over the live window; 0.0 when
        nothing has been recorded yet."""
        live = self._live()
        if live.size == 0:
            return 0.0
        return float(np.percentile(live, q))

    def percentiles(self, qs: Sequence[float]) -> Dict[float, float]:
        live = self._live()
        if live.size == 0:
            return {float(q): 0.0 for q in qs}
        values = np.percentile(live, list(qs))
        return {float(q): float(v) for q, v in zip(qs, values)}

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0


def _size_bucket(size: int) -> str:
    """Power-of-two bucket label for a batch size (``"1024-2047"``)."""
    if size <= 0:
        return "0"
    lo = 1 << (int(size).bit_length() - 1)
    return f"{lo}-{2 * lo - 1}" if lo > 1 else "1"


class ServingMetrics:
    """Per-batch serving telemetry (see module docstring).

    One instance rides on each :class:`repro.core.manager.RecMGManager`;
    :meth:`RecMGManager.serve_batch` records into it, the serving
    daemon and the perf benches read :meth:`summary`.
    """

    PERCENTILES = (50.0, 95.0, 99.0)

    def __init__(self, window: int = 4096) -> None:
        self.latency = LatencyWindow(window)
        self.batches = 0
        self.keys_served = 0
        self.batch_size_histogram: Dict[str, int] = {}
        self.queue_depth_samples = 0
        self.queue_depth_sum = 0
        self.queue_depth_max = 0
        self.inference_batches = 0
        self.inference_keys = 0
        self.inference_seconds_total = 0.0
        self.inference_seconds_max = 0.0
        self.rebalances = 0
        self.rebalance_migrated_keys = 0
        self.rebalance_pause_seconds_total = 0.0
        self.rebalance_pause_seconds_max = 0.0

    # -- recording (single consumer) -----------------------------------
    def record_batch(self, size: int, latency_seconds: float,
                     queue_depth: Optional[int] = None) -> None:
        """Record one served batch: its key count, wall latency, and —
        when the caller knows it — the admission-queue depth at the
        moment the batch was formed (``queue_depth``)."""
        size = int(size)
        self.batches += 1
        self.keys_served += size
        self.latency.record(latency_seconds)
        bucket = _size_bucket(size)
        self.batch_size_histogram[bucket] = \
            self.batch_size_histogram.get(bucket, 0) + 1
        if queue_depth is not None:
            depth = int(queue_depth)
            self.queue_depth_samples += 1
            self.queue_depth_sum += depth
            if depth > self.queue_depth_max:
                self.queue_depth_max = depth

    def record_inference(self, seconds: float, keys: int = 0) -> None:
        """Record one model-inference batch (wall time + keys), run on
        the serving thread by the priority provider."""
        self.inference_batches += 1
        self.inference_keys += int(keys)
        self.inference_seconds_total += seconds
        if seconds > self.inference_seconds_max:
            self.inference_seconds_max = seconds

    def record_rebalance(self, migrated_keys: int,
                         pause_seconds: float) -> None:
        """Record one executed shard rebalance: how many resident keys
        changed shards and how long serving paused for the migration
        (export/re-route/import).  Serving-thread only."""
        self.rebalances += 1
        self.rebalance_migrated_keys += int(migrated_keys)
        self.rebalance_pause_seconds_total += pause_seconds
        if pause_seconds > self.rebalance_pause_seconds_max:
            self.rebalance_pause_seconds_max = pause_seconds

    # -- reading -------------------------------------------------------
    @property
    def inference_mean_ms(self) -> float:
        if not self.inference_batches:
            return 0.0
        return self.inference_seconds_total / self.inference_batches * 1e3

    @property
    def queue_depth_mean(self) -> float:
        if not self.queue_depth_samples:
            return 0.0
        return self.queue_depth_sum / self.queue_depth_samples

    def summary(self) -> Dict[str, object]:
        """Flat summary dict (floats/ints only, JSON-ready)."""
        pct = self.latency.percentiles(self.PERCENTILES)
        out: Dict[str, object] = {
            "batches": self.batches,
            "keys_served": self.keys_served,
            "latency_p50_ms": pct[50.0] * 1e3,
            "latency_p95_ms": pct[95.0] * 1e3,
            "latency_p99_ms": pct[99.0] * 1e3,
            "latency_mean_ms": self.latency.mean_seconds * 1e3,
            "queue_depth_mean": self.queue_depth_mean,
            "queue_depth_max": self.queue_depth_max,
            "inference_batches": self.inference_batches,
            "inference_mean_ms": self.inference_mean_ms,
            "inference_max_ms": self.inference_seconds_max * 1e3,
            "rebalance_count": self.rebalances,
            "rebalance_migrated_keys": self.rebalance_migrated_keys,
            "rebalance_pause_ms_total":
                self.rebalance_pause_seconds_total * 1e3,
            "rebalance_pause_ms_max":
                self.rebalance_pause_seconds_max * 1e3,
            "batch_size_histogram": dict(sorted(
                self.batch_size_histogram.items(),
                key=lambda item: int(item[0].split("-")[0]))),
        }
        if self.latency.total_seconds > 0:
            out["keys_per_sec_busy"] = \
                self.keys_served / self.latency.total_seconds
        return out
