"""The four serving workloads and the measuring loop.

One closed loop, one client, one thread: the DLRM batch cannot start
until the buffer manager has decided its lookups, so the caller waits
for every reply.  Each workload builds its inputs from the seed, sets
the serving stack up, warms the cold buffer with a fixed operation
count and then serves a fixed operation count (sized so the measured
phase lasts about ``--seconds`` on the reference host), replaying its
trace in epochs against the persisting buffer.  The op count is fixed,
not the duration, so hit/miss decisions repeat bit for bit for a seed.

Only public ``repro`` API is used (see README.md, "API surface").
"""

from __future__ import annotations

import gc
import hashlib
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import layers
from repro.core import (CachingModel, FeatureEncoder, RecMG, RecMGConfig,
                        RecMGManager, build_labels, caching_targets,
                        train_caching_model)
from repro.dlrm import TieredMemoryConfig
from repro.serving import Batcher, Request, RequestQueue
from repro.traces import (SyntheticTraceConfig, generate_multi_tenant_trace,
                          generate_trace)

#: Equal-op segments of the measured phase; throughput is the median
#: over them, so a short disturbance moves one segment, not the result.
SEGMENTS = 30
#: Set-ups per untraced run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: GPU buffer capacity as a share of the trace's distinct keys.
CAPACITY_SHARE = 0.2
#: Accesses per modelled DLRM batch and embedding width, as in
#: ``repro.dlrm.InferenceEngine`` / ``DLRMConfig`` defaults.
MODEL_BATCH = 2048
EMBEDDING_DIM = 16

NUM_TABLES = 8
NUM_TENANTS = 4
REQUEST_KEYS = 32
REQUESTS_PER_OP = 128
#: 15-key model chunks per op on the two model workloads (1920 keys).
CHUNKS_PER_OP = 128


def _timed(parts: Dict[str, float], key: str, call: Callable, *args):
    begin = time.perf_counter()
    result = call(*args)
    parts[key] = parts.get(key, 0.0) + time.perf_counter() - begin
    return result


def _scaled(count: int, scale: float, floor: int) -> int:
    return max(floor, int(count * scale))


# ----------------------------------------------------------------------
# Serving objects: what one operation is, per workload.
# ----------------------------------------------------------------------
class BatchServing:
    """One op = ``manager.serve_batch`` on the next ``op_keys`` dense
    ids of the trace."""

    def __init__(self, manager: RecMGManager, dense: np.ndarray,
                 op_keys: int) -> None:
        self.manager = manager
        self.dense = dense
        self.op_keys = op_keys
        self.ops_per_epoch = max(1, len(dense) // op_keys)

    def op(self, index: int) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        low = (index % self.ops_per_epoch) * self.op_keys
        keys = self.dense[low:low + self.op_keys]
        return keys, self.manager.serve_batch(keys)

    def close(self) -> None:
        self.manager.close()


class TenantServing(BatchServing):
    """One op = 128 tenant ``Request``s of 32 keys through
    ``RequestQueue.put`` -> ``Batcher`` -> ``serve_batch``.

    Driven from one thread, and the batcher's wait bound is far above
    any op time, so the size flush always wins and every batch holds
    exactly the 4096 keys just put: batch composition, and with it the
    miss rate, is deterministic.
    """

    def __init__(self, manager: RecMGManager, dense: np.ndarray,
                 tenants: np.ndarray) -> None:
        super().__init__(manager, dense, REQUEST_KEYS * REQUESTS_PER_OP)
        self.tenants = tenants
        self.queue = RequestQueue(maxsize=2 * REQUESTS_PER_OP)
        self.batches = Batcher(self.queue, max_batch_keys=self.op_keys,
                               max_wait_s=3600.0).batches()
        self.queue_waits_ms: List[float] = []

    def op(self, index: int) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        low = (index % self.ops_per_epoch) * self.op_keys
        put = self.queue.put
        for start in range(low, low + self.op_keys, REQUEST_KEYS):
            put(Request(self.dense[start:start + REQUEST_KEYS],
                        tenant=int(self.tenants[start])))
        batch = next(self.batches)
        hits = self.manager.serve_batch(batch.keys,
                                        queue_depth=batch.queue_depth)
        self.queue_waits_ms.append(batch.queue_wait_seconds * 1e3)
        if batch.num_requests != REQUESTS_PER_OP or not np.array_equal(
                batch.keys, self.dense[low:low + self.op_keys]):
            raise AssertionError("batch does not hold the requests put")
        return batch.keys, hits

    def close(self) -> None:
        self.queue.close()
        for _ in self.batches:   # drained: returns at once
            pass
        super().close()


class ReplayServing:
    """One op = ``manager.run`` on the next slice of the held-out
    tail (both models in the loop, 15-key chunk regime)."""

    def __init__(self, manager: RecMGManager, slices: list) -> None:
        self.manager = manager
        self.slices = slices
        self.ops_per_epoch = len(slices)

    def op(self, index: int) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        piece = self.slices[index % self.ops_per_epoch]
        self.manager.run(piece)
        return piece, None

    def close(self) -> None:
        self.manager.close()


# ----------------------------------------------------------------------
# Inputs and set-up, per workload.
# ----------------------------------------------------------------------
def _zipf_inputs(rows_per_table: int, accesses: int, floor: int):
    """Clustered-Zipf trace (``generate_trace``).  256 clusters with 16
    near-evenly weighted successors each, not the generator's 64 x 4
    near-deterministic ones: the seed then draws a sample path through
    a structure whose working set barely depends on it (miss rate
    spread over ten seeds 0.5-0.9 % instead of 9-15 %), which the
    benchmark needs to compare runs made with different seeds."""
    def make(seed: int, scale: float):
        return generate_trace(SyntheticTraceConfig(
            num_tables=NUM_TABLES, rows_per_table=rows_per_table,
            num_accesses=_scaled(accesses, scale, floor),
            num_clusters=256, transition_fanout=16,
            transition_concentration=2.0, seed=seed))
    return make


def _tenant_inputs(seed: int, scale: float):
    return generate_multi_tenant_trace(
        SyntheticTraceConfig(num_tables=NUM_TABLES, rows_per_table=16384,
                             num_accesses=_scaled(250_000, scale, 40_000),
                             seed=seed),
        num_tenants=NUM_TENANTS)


def _capacity(distinct_keys: int, op_keys: int) -> int:
    """20 % of the distinct keys; never below one op's keys, so a
    scaled-down trace stays in the bulk-serving regime."""
    return max(op_keys, int(CAPACITY_SHARE * distinct_keys))


def _set_up_steady_clock(trace, scale: float, parts: dict, traced: bool):
    config = RecMGConfig(buffer_impl="clock")
    encoder = FeatureEncoder(config)
    _timed(parts, "core.features.fit_s", encoder.fit, trace)
    manager = RecMGManager(_capacity(encoder.vocab_size, MODEL_BATCH), encoder,
                           config)
    return BatchServing(manager, encoder.dense_ids(trace), MODEL_BATCH)


def _set_up_tenants_sharded(trace, scale: float, parts: dict, traced: bool):
    config = RecMGConfig(buffer_impl="clock", num_shards=NUM_TENANTS,
                         shard_policy="contiguous")
    encoder = FeatureEncoder(config)
    _timed(parts, "core.features.fit_s", encoder.fit, trace)
    manager = RecMGManager(
        _capacity(encoder.vocab_size, REQUEST_KEYS * REQUESTS_PER_OP),
        encoder, config)
    return TenantServing(manager, encoder.dense_ids(trace),
                         trace.table_ids // (NUM_TABLES // NUM_TENANTS))


def _set_up_model_sync(trace, scale: float, parts: dict, traced: bool):
    # 6 epochs over 1000 chunks: enough for the model to converge, so
    # its decisions (miss rate) barely depend on the seed (see README).
    config = RecMGConfig(buffer_impl="fast", priority_mode="sync",
                         caching_epochs=6,
                         max_train_chunks=_scaled(1000, scale, 64))
    encoder = FeatureEncoder(config)
    _timed(parts, "core.features.fit_s", encoder.fit, trace)
    op_keys = CHUNKS_PER_OP * config.input_len
    capacity = _capacity(encoder.vocab_size, op_keys)
    dense = encoder.dense_ids(trace)
    cut = int(0.2 * len(trace)) // config.input_len * config.input_len
    head = trace.head(cut)
    labels = _timed(parts, "core.labeling.build_labels_s", build_labels,
                    head, capacity, config, encoder)
    parts["labeled_keys"] = cut
    chunks = encoder.encode_dense_chunks(dense[:cut])
    model = CachingModel(config, encoder.num_tables,
                         rng=np.random.default_rng(config.seed))
    _timed(parts, "core.training.caching_fit_s", train_caching_model,
           model, chunks, caching_targets(chunks, labels), config)
    manager = RecMGManager(capacity, encoder, config, caching_model=model)
    return BatchServing(manager, dense[cut:], op_keys)


def _set_up_recmg_replay(trace, scale: float, parts: dict, traced: bool):
    config = RecMGConfig(buffer_impl="fast", caching_epochs=6,
                         prefetch_epochs=1,
                         max_train_chunks=_scaled(600, scale, 64))
    op_keys = CHUNKS_PER_OP * config.input_len
    capacity = _capacity(trace.num_unique, op_keys)
    head, tail = trace.split(0.3)
    system = RecMG(config)
    report = system.fit(head, buffer_capacity=capacity)
    parts["core.training.caching_fit_s"] = report.caching.duration_s
    parts["core.training.prefetch_fit_s"] = report.prefetch.duration_s
    if traced:
        # RecMG.fit calls these through module-level names, which an
        # instance wrapper cannot reach: time one identical call each.
        _timed(parts, "core.features.fit_s", FeatureEncoder(config).fit,
               head)
        _timed(parts, "core.labeling.build_labels_s", build_labels, head,
               capacity, config, system.encoder)
        parts["labeled_keys"] = len(head)
    manager = system.deploy(capacity)
    slices = [tail[low:low + op_keys]
              for low in range(0, len(tail) - op_keys + 1, op_keys)]
    return ReplayServing(manager, slices)


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable
    set_up: Callable
    #: Measured ops per ``--seconds`` second and cold-buffer warm-up
    #: ops, fixed counts sized on the reference host (2 cores).
    ops_per_second: float
    warmup_ops: int


WORKLOADS: Dict[str, Workload] = {
    "steady-clock": Workload(_zipf_inputs(16384, 250_000, 8192),
                             _set_up_steady_clock, 2050.0, 5000),
    "tenants-sharded": Workload(_tenant_inputs, _set_up_tenants_sharded,
                                640.0, 1300),
    "model-sync": Workload(_zipf_inputs(4096, 120_000, 12_000),
                           _set_up_model_sync, 67.0, 60),
    "recmg-replay": Workload(_zipf_inputs(4096, 100_000, 12_000),
                             _set_up_recmg_replay, 11.0, 8),
}


# ----------------------------------------------------------------------
# Measuring.
# ----------------------------------------------------------------------
def _counts(manager) -> Tuple[int, int]:
    breakdown = manager.breakdown
    return (breakdown.cache_hits + breakdown.prefetch_hits,
            breakdown.on_demand)


def verify_op(keys, hits, before: Tuple[int, int],
              after: Tuple[int, int]) -> bool:
    """One op's outputs are consistent: the manager accounted exactly
    the keys served, and (for ``serve_batch``) returned one hit boolean
    per key that reconciles with its own breakdown."""
    served_hits = after[0] - before[0]
    served_misses = after[1] - before[1]
    if served_hits + served_misses != len(keys):
        return False
    if hits is None:
        return True
    hits = np.asarray(hits)
    return (hits.dtype == np.bool_ and hits.shape == (len(keys),)
            and int(np.count_nonzero(hits)) == served_hits)


@dataclass
class Measurement:
    latency_ns: np.ndarray
    keys: np.ndarray
    misses: np.ndarray
    failed: int


def measure(serving, first_op: int, num_ops: int, digest=None,
            recorder: Optional[layers.Recorder] = None) -> Measurement:
    """Serve ``num_ops`` ops, timing and verifying each one.

    A failed verification or an exception counts as a failed op and
    the run continues.  ``digest`` (a ``hashlib`` object) is fed every
    op's hit bitmap or, for ``run`` ops, its hit/miss counts.
    """
    manager = serving.manager
    latency = np.zeros(num_ops, dtype=np.int64)
    keys_served = np.zeros(num_ops, dtype=np.int64)
    misses = np.zeros(num_ops, dtype=np.int64)
    failed = 0
    for slot in range(num_ops):
        before = _counts(manager)
        span = recorder.begin("bench.op") if recorder else None
        begin = time.perf_counter_ns()
        try:
            keys, hits = serving.op(first_op + slot)
        except Exception:
            latency[slot] = time.perf_counter_ns() - begin
            if span is not None:
                recorder.end(span)
            failed += 1
            if failed == 1:
                traceback.print_exc(file=sys.stderr)
            continue
        latency[slot] = time.perf_counter_ns() - begin
        if span is not None:
            recorder.end(span, len(keys))
        after = _counts(manager)
        keys_served[slot] = len(keys)
        misses[slot] = after[1] - before[1]
        if not verify_op(keys, hits, before, after):
            failed += 1
        if digest is None:
            continue
        if hits is None:
            digest.update(np.asarray(
                [after[0] - before[0], misses[slot]], np.int64).tobytes())
        else:
            digest.update(np.packbits(np.asarray(hits, bool)).tobytes())
    return Measurement(latency, keys_served, misses, failed)


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 scale: float = 1.0, import_s: float = 0.0) -> dict:
    """One benchmark invocation.

    Returns ``correct``/``attempted``/``failed``, ``metrics`` (name ->
    value: the end-to-end metrics of an untraced run, the per-layer
    metrics of a traced one), ``detail`` (digest, op counts, timings,
    fingerprint) and ``spans`` (the raw spans of a traced run).
    ``scale`` shrinks inputs, training and warm-up for the smoke test;
    ``import_s`` is what the caller spent importing ``repro`` and is
    counted into ``setup_s``.
    """
    wall_begin = time.perf_counter()
    cpu_begin = time.process_time()
    workload = WORKLOADS[name]
    trace = workload.make_inputs(seed, scale)
    generate_s = time.perf_counter() - wall_begin

    # Set-up = fit/label/train/construct + a fixed cold-buffer warm-up.
    # An untraced run sets up several times and reports the median.
    warm_ops = _scaled(workload.warmup_ops, scale, 2)
    setups: List[float] = []
    failed = 0
    serving = None
    for _ in range(1 if traced else SETUP_REPEATS):
        if serving is not None:
            serving.close()
        begin = time.perf_counter()
        parts: Dict[str, float] = {}
        serving = workload.set_up(trace, scale, parts, traced)
        failed += measure(serving, 0, warm_ops).failed
        setups.append(time.perf_counter() - begin)

    num_ops = max(3, round(workload.ops_per_second * seconds))
    # First third untraced, the rest traced: the two median op
    # latencies give the tracing overhead of this very run.
    plain_ops = num_ops // 3 if traced else num_ops
    manager = serving.manager
    counters_before = _manager_counters(manager)
    digest = hashlib.sha256()
    gc.collect()
    gc.freeze()
    try:
        phases = [measure(serving, warm_ops, plain_ops, digest)]
        if traced:
            recorder = layers.Recorder()
            layers.install(recorder, serving)
            phases.append(measure(serving, warm_ops + plain_ops,
                                  num_ops - plain_ops, digest, recorder))
    finally:
        gc.unfreeze()

    latency = np.concatenate([phase.latency_ns for phase in phases])
    keys = np.concatenate([phase.keys for phase in phases])
    total_keys = int(keys.sum())
    misses = sum(int(phase.misses.sum()) for phase in phases)
    failed += sum(phase.failed for phase in phases)
    miss_rate = misses / max(1, total_keys)
    memory = TieredMemoryConfig()
    on_demand_ms = memory.on_demand_time_ms(miss_rate * MODEL_BATCH)
    copy_ms = memory.copy_time_ms(MODEL_BATCH, EMBEDDING_DIM)
    occupancy_ok = len(manager.buffer) <= manager.capacity
    serving.close()

    segments = min(SEGMENTS, num_ops)
    per_segment = [float(k.sum()) / (float(t.sum()) / 1e9)
                   for k, t in zip(np.array_split(keys, segments),
                                   np.array_split(latency, segments))]
    if traced:
        metrics = {
            "traces.generate_s": generate_s,
            "dlrm.on_demand_ms_per_batch": on_demand_ms,
            "dlrm.copy_ms_per_batch": copy_ms,
            "bench.trace_overhead_share":
                float(np.median(phases[1].latency_ns))
                / float(np.median(phases[0].latency_ns)) - 1.0,
            "bench.loadavg_1m": os.getloadavg()[0],
            "serving.admission.queue_wait_ms_p50":
                float(np.median(getattr(serving, "queue_waits_ms", None)
                                or [0.0])),
        }
        metrics.update(_set_up_metrics(parts))
        metrics.update(_counter_metrics(
            counters_before, _manager_counters(manager), total_keys))
        metrics.update(layers.summarize(recorder))
    else:
        metrics = {
            "setup_s": import_s + statistics.median(setups),
            "serve_keys_per_s": statistics.median(per_segment),
            "latency_p50_ms": float(np.median(latency)) / 1e6,
            "miss_rate": miss_rate,
            "modelled_batch_ms": (
                copy_ms + on_demand_ms + memory.batch_overhead_ms
                + memory.hit_time_ms((1.0 - miss_rate) * MODEL_BATCH)),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    wall_s = time.perf_counter() - wall_begin
    cpu_s = time.process_time() - cpu_begin
    # One thread only: a BLAS pool that ignored the pinning would burn
    # more CPU seconds than wall seconds.
    single_threaded = cpu_s <= 1.05 * wall_s
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "scale": scale,
        "traced": traced,
        "decision_digest": digest.hexdigest(),
        "measured_ops": num_ops, "warmup_ops": warm_ops,
        "segments": segments, "measured_keys": total_keys,
        "latency_samples": int(latency.size),
        "measured_phase_s": float(latency.sum()) / 1e9,
        "segment_keys_per_s": per_segment,
        "setup_runs_s": setups, "import_s": import_s,
        "generate_s": generate_s, "wall_s": wall_s, "cpu_s": cpu_s,
        "single_threaded": single_threaded, "occupancy_ok": occupancy_ok,
    }
    return {
        "correct": failed == 0 and occupancy_ok and single_threaded,
        "attempted": num_ops + warm_ops * len(setups),
        "failed": failed,
        "metrics": metrics,
        "detail": detail,
        "spans": recorder.as_columns() if traced else None,
    }


def _manager_counters(manager) -> Tuple[int, int, int, int]:
    return (manager.breakdown.prefetch_hits, manager.evictions,
            manager.prefetches_issued, manager.prefetches_useful)


def _counter_metrics(before, after, total_keys: int) -> Dict[str, float]:
    """The manager's own counters over the measured phase."""
    prefetch_hits, evictions, issued, useful = (
        now - then for now, then in zip(after, before))
    return {
        "core.manager.evictions": evictions,
        "core.manager.prefetches_issued": issued,
        "core.manager.prefetch_accuracy": useful / issued if issued else 0.0,
        "core.manager.prefetch_hit_share": prefetch_hits / max(1, total_keys),
    }


def _set_up_metrics(parts: Dict[str, float]) -> Dict[str, float]:
    """Set-up step timings (0 for a step the workload does not have)."""
    label_s = parts.get("core.labeling.build_labels_s", 0.0)
    return {
        "core.features.fit_s": parts.get("core.features.fit_s", 0.0),
        "core.labeling.build_labels_s": label_s,
        "core.labeling.optgen_keys_per_s":
            parts.get("labeled_keys", 0) / label_s if label_s else 0.0,
        "core.training.caching_fit_s":
            parts.get("core.training.caching_fit_s", 0.0),
        "core.training.prefetch_fit_s":
            parts.get("core.training.prefetch_fit_s", 0.0),
    }
