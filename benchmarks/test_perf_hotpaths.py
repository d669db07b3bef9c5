"""Hot-path throughput: vectorized engines vs their audit references.

Tracks accesses/sec for the three serving-critical loops — OPTgen
labeling, online manager demand serving, and the no-prefetcher LRU
breakdown — so the vectorization work cannot silently regress.  The
OPTgen speedup is additionally enforced against ``--perf-budget`` (5x
on a 50k-access synthetic trace in CI's gate step, on a runner with at
least 2 cores); the default, ``--perf-budget 0``, disables every
wall-clock assertion in this module, separating load-induced timing
flakes from correctness failures.

Every measurement is also recorded through the ``record_hotpath``
fixture, with its repeat count and median beside the best-of-N time;
a passing session merges them into ``BENCH_hotpaths.json``
(repo root, uploaded as a CI artifact) so the perf trajectory is
machine-readable across PRs — a failed or partial session can no
longer drop entries from the committed baseline.
"""

import gc
import importlib.util
import os
import resource
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import ascii_table
from repro.cache import run_optgen, run_optgen_reference
from repro.core import RecMGConfig
from repro.core.caching_model import CachingModel
from repro.core.features import FeatureEncoder
from repro.core.labeling import build_labels, caching_targets
from repro.core.manager import RecMGManager
from repro.core.prefetch_model import BucketDecoder, PrefetchModel
from repro.core.training import _chamfer_ce_loss, train_caching_model
from repro.nn import Adam, Tensor, bce_with_logits
from repro.nn.optim import optimizer_step
from repro.prefetch import run_breakdown, run_breakdown_sweep
from repro.traces import (
    SyntheticTraceConfig,
    generate_drifting_hot_band_trace,
    generate_hot_shard_trace,
    generate_trace,
    model_guided_scenarios,
)

#: Trace length for the throughput measurements (the --perf-budget
#: contract is defined at this scale).
PERF_ACCESSES = 50_000


@pytest.fixture(scope="module")
def perf_trace():
    config = SyntheticTraceConfig(
        num_tables=8, rows_per_table=4096, num_accesses=PERF_ACCESSES,
        num_clusters=64, cluster_block=8, periodic_items=500,
        periodic_spacing=7, seed=11,
    )
    return generate_trace(config)


class Timing(float):
    """A best-of-N wall time that keeps every repeat: the float value
    is the best (what the gates and ``compare_bench.py`` read),
    ``times`` holds all N, from which ``record_hotpath`` adds the
    repeat count and the median to the entry."""

    def __new__(cls, times):
        times = tuple(float(t) for t in times)
        timing = super().__new__(cls, min(times))
        timing.times = times
        return timing


def _best_of(timings):
    """One :class:`Timing` over the repeats of several interleaved
    ``_timed`` calls."""
    return Timing([t for timing in timings for t in timing.times])


def _timed(fn, repeats=1):
    """Best-of-N wall time (a :class:`Timing`) and the last result.

    The collector is paused around each run (``timeit`` does the
    same): a generational GC pass triggered by one measurement's
    garbage otherwise lands in *another* measurement's window, which
    skews the engine-vs-reference ratios these gates assert on —
    the engine that allocates more objects gets billed for the
    other's garbage."""
    times = []
    result = None
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            result = fn()
            times.append(time.perf_counter() - start)
    finally:
        if gc_was_enabled:
            gc.enable()
    return Timing(times), result


def _minor_faults() -> int:
    """This process's minor page faults so far (``ru_minflt``)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _report(title, fast_seconds, ref_seconds):
    rows = [
        ["vectorized", PERF_ACCESSES / fast_seconds, fast_seconds],
        ["reference", PERF_ACCESSES / ref_seconds, ref_seconds],
        ["speedup", ref_seconds / fast_seconds, float("nan")],
    ]
    print()
    print(ascii_table(["engine", "accesses/sec", "seconds"], rows,
                      title=title))
    return rows


def test_optgen_labeling_throughput(perf_trace, perf_budget, benchmark,
                                    record_hotpath):
    capacity = max(1, int(perf_trace.num_unique * 0.2))
    fast_seconds, fast = _timed(
        lambda: run_optgen(perf_trace, capacity), repeats=3)
    ref_seconds, reference = _timed(
        lambda: run_optgen_reference(perf_trace, capacity))
    assert np.array_equal(fast.opt_hits, reference.opt_hits)
    assert np.array_equal(fast.cache_friendly, reference.cache_friendly)
    record_hotpath("optgen_labeling", PERF_ACCESSES, fast_seconds,
                   ref_seconds=ref_seconds, gated=True)
    rows = _report("OPTgen labeling throughput", fast_seconds, ref_seconds)
    speedup = ref_seconds / fast_seconds
    if perf_budget > 0:
        assert speedup >= perf_budget, (
            f"vectorized OPTgen is only {speedup:.1f}x the reference "
            f"(budget: {perf_budget:.1f}x on {PERF_ACCESSES} accesses)")
    benchmark(lambda: rows)


def test_manager_serving_throughput(perf_trace, perf_budget, benchmark,
                                    record_hotpath):
    config = RecMGConfig()
    encoder = FeatureEncoder(config).fit(perf_trace)

    def serve(capacity, fast_serve):
        manager = RecMGManager(capacity, encoder, config)
        return manager.run(perf_trace, fast_serve=fast_serve)

    # Steady state: the buffer is a fraction of the working set, every
    # miss evicts, and hit runs are short — the batched exact engine
    # must at minimum not regress against the scalar loop.
    steady = max(1, int(perf_trace.num_unique * 0.2))
    fast_seconds, fast = _timed(lambda: serve(steady, True), repeats=3)
    ref_seconds, reference = _timed(lambda: serve(steady, False), repeats=3)
    assert fast == reference
    record_hotpath("manager_serving_steady_exact", PERF_ACCESSES,
                   fast_seconds, ref_seconds=ref_seconds,
                   hit_rate=fast.hit_rate, gated=True)
    _report("Manager demand serving throughput (steady state)",
            fast_seconds, ref_seconds)
    if perf_budget > 0:
        assert fast_seconds < ref_seconds * 1.2, \
            "batched exact serving regressed against the scalar loop"

    # Eviction-light regime (buffer sized past the working set, the
    # paper's large-buffer ablations): whole segments resolve through
    # the bulk path and the engine must win outright.
    roomy = int(perf_trace.num_unique * 1.2) + 1
    fast_seconds, fast = _timed(lambda: serve(roomy, True), repeats=3)
    ref_seconds, reference = _timed(lambda: serve(roomy, False), repeats=3)
    assert fast == reference
    record_hotpath("manager_serving_eviction_light", PERF_ACCESSES,
                   fast_seconds, ref_seconds=ref_seconds, gated=True)
    rows = _report("Manager demand serving throughput (eviction-light)",
                   fast_seconds, ref_seconds)
    if perf_budget > 0:
        assert fast_seconds < ref_seconds, \
            "batched exact serving should beat the scalar loop when " \
            "serving is hit-dominated"
    benchmark(lambda: rows)


def test_chunk_pass_throughput(perf_trace, perf_budget, benchmark,
                               record_hotpath):
    """``run()``'s whole chunk loop with both models' outputs in hand:
    the fused ``FastPriorityBuffer.serve_chunks`` pass against the
    per-chunk serve -> caching-bits -> prefetch triple it replaces on
    the dense exact engine (and which stays the oracle for every other
    engine).

    Model-free timing on precomputed ``bits`` / ``preds`` — seeded
    bits, and each chunk predicting the head of the next one, so tags
    are set, hit and evicted — because both sides pay the same
    inference in ``run()``.  The triple is ~35 buffer method calls per
    15-key chunk, each re-checking residency; the pass indexes the
    entry arrays directly with its counters in locals.  Gated >= 1.5x
    at the default budget (measured ~2.5-3x), counters equal
    unconditionally.
    """
    config = RecMGConfig()
    encoder = FeatureEncoder(config).fit(perf_trace)
    steady = max(1, int(perf_trace.num_unique * 0.2))
    length = config.input_len
    num_chunks = PERF_ACCESSES // length
    dense = encoder.dense_ids(perf_trace)[:num_chunks * length]
    chunks = dense.reshape(num_chunks, length)
    bits = np.random.default_rng(11).integers(
        0, 2, size=chunks.shape).astype(np.int8)
    preds = np.roll(chunks, -1, axis=0)[:, :config.output_len]

    def fused():
        manager = RecMGManager(steady, encoder, config)
        missed, prefetch_hits, evictions, issued = (
            manager.buffer.shards[0].backend.serve_chunks(
                dense, length, bits, preds, config.eviction_speed,
                config.max_prefetch_per_chunk, manager._prefetched))
        return len(missed), prefetch_hits, evictions, issued

    def triple():
        manager = RecMGManager(steady, encoder, config)
        engine = manager._select_engine()
        for chunk, chunk_bits, predicted in zip(chunks, bits, preds):
            engine(chunk)
            manager._apply_caching_bits(chunk, chunk_bits)
            manager._apply_prefetches(predicted)
        return (manager.breakdown.on_demand, manager.breakdown.prefetch_hits,
                manager.evictions, manager.prefetches_issued)

    fused_runs, triple_runs = [], []
    for _ in range(5):
        seconds, fused_counters = _timed(fused)
        fused_runs.append(seconds)
        seconds, triple_counters = _timed(triple)
        triple_runs.append(seconds)
    fused_seconds = _best_of(fused_runs)
    triple_seconds = _best_of(triple_runs)
    assert fused_counters == triple_counters
    assert all(count > 0 for count in fused_counters)
    accesses = num_chunks * length
    record_hotpath("manager_serving_chunk_pass", accesses, fused_seconds,
                   ref_seconds=triple_seconds, chunk_keys=length,
                   us_per_chunk=fused_seconds / num_chunks * 1e6,
                   triple_us_per_chunk=triple_seconds / num_chunks * 1e6,
                   gated=True)
    rows = [["fused pass (serve_chunks)", accesses / fused_seconds,
             fused_seconds / num_chunks * 1e6],
            ["per-chunk triple", accesses / triple_seconds,
             triple_seconds / num_chunks * 1e6],
            ["speedup", triple_seconds / fused_seconds, float("nan")]]
    print()
    print(ascii_table(["chunk loop", "accesses/sec", "us/chunk"], rows,
                      title=f"run()'s chunk loop, {length}-key chunks with "
                            "caching bits and prefetches (dense fast "
                            "backend)"))
    floor = 1.5 * min(1.0, perf_budget / 5.0)
    if perf_budget > 0:
        speedup = triple_seconds / fused_seconds
        assert speedup >= floor, (
            f"the fused chunk pass is only {speedup:.2f}x the per-chunk "
            f"triple (contract: >= {floor:.2f}x)")
    benchmark(lambda: rows)


def test_clock_serving_throughput(perf_trace, perf_budget, benchmark,
                                  record_hotpath):
    """Steady-state serving of the CLOCK backend against the batched
    exact engine, both over the encoder's id universe.

    :meth:`~repro.cache.buffer.ClockBuffer.serve_segment` classifies,
    reclaims (protected) and stores a whole segment in one sort-free
    array pass; the exact ``"fast"`` engine serves the same blocks
    through its fixed-point ``serve_segment``.  The approximate backend
    may not fall clearly behind the exact one — its throughput is its
    only excuse for approximate victim order.
    """
    config = RecMGConfig()
    encoder = FeatureEncoder(config).fit(perf_trace)
    steady = max(1, int(perf_trace.num_unique * 0.2))

    def serve(buffer_impl):
        manager = RecMGManager(steady, encoder,
                               replace(config, buffer_impl=buffer_impl))
        return manager.run(perf_trace)

    exact_seconds, exact = _timed(lambda: serve("fast"), repeats=3)
    clock_seconds, clock = _timed(lambda: serve("clock"), repeats=3)
    assert clock.breakdown.total == exact.breakdown.total == PERF_ACCESSES
    # Approximate victim order: the hit rate must not fall below the
    # exact engines.  One-sided on purpose — the batched-reclaim engine
    # reclaims with *protected* eviction (``ClockBuffer.serve_segment``:
    # no victim is a segment key), which legitimately lifts the clock
    # hit rate above exact on looping workloads (measured ~0.62 vs
    # ~0.60 here after protection landed).
    assert clock.hit_rate > exact.hit_rate - 0.05
    record_hotpath("manager_serving_steady_clock_residency", PERF_ACCESSES,
                   clock_seconds, ref_seconds=exact_seconds,
                   clock_hit_rate=clock.hit_rate,
                   exact_hit_rate=exact.hit_rate, gated=True)
    rows = _report("Manager demand serving throughput "
                   "(steady state, clock vs batched exact)",
                   clock_seconds, exact_seconds)
    if perf_budget > 0:
        assert clock_seconds < exact_seconds * 1.35, (
            "approximate clock serving fell clearly behind the batched "
            "exact engine — its throughput advantage is its only excuse "
            "for approximate victim order")
    benchmark(lambda: rows)


def test_sharded_serving_throughput(perf_trace, perf_budget, benchmark,
                                    record_hotpath):
    """Sharded clock serving (PR 5) vs the single-shard clock path.

    ``num_shards=4`` partitions the dense id universe across four
    independent clock shards (:mod:`repro.cache.sharding`);
    ``ShardedBuffer.serve_segment`` routes each serving block with one
    vectorized scatter and serves each shard's share with one
    ``ClockBuffer.serve_segment`` call (*protected* reclaim: no victim
    is a key of the piece served), so the routing layer must stay
    cheap on a balanced trace: the gate is >= 0.65x the single-shard
    clock path measured side by side.  16 of the 100 sub-segments here
    hold more distinct keys than their shard's ~300 slots; served in
    pieces of at most half the slots' worth, one pass each, the ratio
    reads 0.70–0.71 on a 2-core host, where the unprotected scalar
    loop over those 16 would read 0.18.  (The gate was
    0.9x while the single-shard engine still paid an unprotected
    reclaim plus a residency re-classification; once it adopted the
    same protected single-call reclaim the per-shard path already
    used, the single-shard baseline got ~20% faster and the ratio
    settled at ~0.8x and the gate moved to 0.75 — the sharded
    engine's absolute throughput did not regress, its reference
    improved.  It moved again to 0.65 when the per-shard
    id-compression layer landed: a few percent of translation
    arithmetic on every bulk boundary buys per-id memory independent
    of ``num_shards``, and the rest of the move restores the noise
    margin the 0.75 gate had been grazing on shared runners.  PR 23's
    ``serve_segment`` made *both* sides ~2x faster — same session,
    2-core host: single 2.57–2.79M -> 5.30–5.54M acc/s, 4-shard
    1.93–2.06M -> 3.83–4.04M — and the ratio went 0.74–0.76 ->
    0.72–0.74 (median of 5 sessions 0.73, 5/5 above the gate), so the
    0.65 stayed.  The protected reclaim also lifts the hit rate on
    both sides, since no segment key is evicted right before its own
    refresh.)

    The hot-shard run quantifies the degradation a static contiguous
    range partition suffers when one shard absorbs most of the traffic
    (recorded ungated: the imbalance penalty is workload truth, not a
    regression), alongside the modulo policy that stripes the same hot
    band across every shard.
    """
    config = RecMGConfig()
    encoder = FeatureEncoder(config).fit(perf_trace)
    steady = max(1, int(perf_trace.num_unique * 0.2))

    def serve(trace, enc, capacity, num_shards, policy="contiguous",
              weights=None):
        manager = RecMGManager(capacity, enc, replace(
            config, buffer_impl="clock", num_shards=num_shards,
            shard_policy=policy, shard_weights=weights))
        return manager.run(trace)

    # Interleave the two sides round by round: a transient noise
    # window on a shared runner then inflates both measurements
    # instead of silently skewing the ratio (best-of per side, as
    # ``_timed(repeats=3)`` would take, but across alternating runs).
    single_runs, sharded_runs = [], []
    for _ in range(5):
        seconds, single = _timed(
            lambda: serve(perf_trace, encoder, steady, 1))
        single_runs.append(seconds)
        seconds, sharded = _timed(
            lambda: serve(perf_trace, encoder, steady, 4))
        sharded_runs.append(seconds)
    single_seconds = _best_of(single_runs)
    sharded_seconds = _best_of(sharded_runs)
    assert sharded.breakdown.total == single.breakdown.total == PERF_ACCESSES
    # Protected per-shard reclaim must not cost hit rate vs the
    # single-shard engine on the balanced trace.
    assert sharded.hit_rate > single.hit_rate - 0.05
    record_hotpath("manager_serving_steady_clock_sharded", PERF_ACCESSES,
                   sharded_seconds, ref_seconds=single_seconds,
                   num_shards=4, sharded_hit_rate=sharded.hit_rate,
                   single_shard_hit_rate=single.hit_rate, gated=True)
    rows = _report("Manager demand serving throughput "
                   "(steady state, 4-shard clock vs single-shard clock)",
                   sharded_seconds, single_seconds)
    if perf_budget > 0:
        ratio = single_seconds / sharded_seconds
        # 0.65: the per-shard id-compression layer (sharded memory no
        # longer pays N× the single-shard per-id footprint) costs a few
        # percent of translation arithmetic on every bulk boundary —
        # the gate moved 0.75 -> 0.65 in the same PR that removed the
        # N× memory, pricing the documented trade (quiet-host ratio
        # ~0.75-0.85) plus the shared-runner noise margin the old gate
        # never actually had.
        assert ratio >= 0.65, (
            f"sharded clock serving is only {ratio:.2f}x the single-shard "
            f"clock path (contract: >= 0.65x on the balanced perf trace "
            f"against the protected-reclaim single-shard baseline)")

    # Hot-shard imbalance: one contiguous band takes ~85% of accesses.
    hot_config = SyntheticTraceConfig(
        num_tables=8, rows_per_table=4096, num_accesses=PERF_ACCESSES,
        seed=11)
    hot_trace = generate_hot_shard_trace(hot_config, num_shards=4,
                                         hot_shard=0, hot_fraction=0.85)
    hot_encoder = FeatureEncoder(config).fit(hot_trace)
    hot_steady = max(1, int(hot_trace.num_unique * 0.2))
    # Skew-matched capacity split: the hot shard (85% of traffic) gets
    # 85% of the slots — the ``shard_weights`` answer to the contiguous
    # router's imbalance, without giving up range locality.
    hot_weights = (0.85, 0.05, 0.05, 0.05)
    results = {}
    for label, shards, policy, weights in [
            ("single", 1, "contiguous", None),
            ("contiguous", 4, "contiguous", None),
            ("weighted", 4, "contiguous", hot_weights),
            ("modulo", 4, "modulo", None)]:
        seconds, stats = _timed(
            lambda s=shards, p=policy, w=weights: serve(
                hot_trace, hot_encoder, hot_steady, s, p, w), repeats=2)
        results[label] = (seconds, stats)
        record_hotpath(f"manager_serving_hot_shard_clock_{label}",
                       PERF_ACCESSES, seconds, num_shards=shards,
                       shard_policy=policy, hit_rate=stats.hit_rate,
                       **({"shard_weights": list(weights)} if weights
                          else {}))
    print()
    print(ascii_table(
        ["config", "accesses/sec", "hit rate"],
        [[label, PERF_ACCESSES / seconds, stats.hit_rate]
         for label, (seconds, stats) in results.items()],
        title="Hot-shard skew (85% of traffic on one contiguous band)"))
    # The skewed band hammers one contiguous-router shard; striping the
    # same ids across shards (modulo) must retain more of the hit rate.
    contiguous_rate = results["contiguous"][1].hit_rate
    modulo_rate = results["modulo"][1].hit_rate
    weighted_rate = results["weighted"][1].hit_rate
    assert modulo_rate >= contiguous_rate
    # Skew-matched weights must recover at least half the hit-rate gap
    # the uniform contiguous split gives up to modulo striping
    # (deterministic decision metric — always asserted, no perf gate).
    assert weighted_rate >= contiguous_rate + 0.5 * (modulo_rate
                                                     - contiguous_rate), (
        f"weighted contiguous hit rate {weighted_rate:.4f} recovers less "
        f"than half the uniform-contiguous ({contiguous_rate:.4f}) vs "
        f"modulo ({modulo_rate:.4f}) gap")
    benchmark(lambda: rows)


def test_drifting_hot_band_rebalancing_lift(perf_budget, benchmark,
                                            record_hotpath):
    """Online elastic rebalancing (PR 10) against a drifting hot band.

    The hot band walks one contiguous shard to the right each quarter
    of the trace (:func:`generate_drifting_hot_band_trace`), so *any*
    static ``shard_weights`` choice matches at most one phase and
    strands capacity on cold shards for the other three.  Three
    operating points, all 4-shard contiguous clock managers:

    * ``static`` — the uniform static split (``rebalance_interval=0``),
      the pre-rebalancer baseline;
    * ``adaptive`` — the online rebalancer: per-shard traffic EWMA at
      the gather, threshold trigger, live key migration between the
      compressed shard universes;
    * ``oracle`` — skew-matched ``ShardedBuffer.rebalance()`` calls
      issued at the (known) phase boundaries: perfect *timing*, but a
      fixed assumed split (85/5/5/5).  The online EWMA may legitimately
      beat it — it sizes shards to the *measured* mixture (the cold
      tail is Zipf-spread over the whole grid, so the true hot share
      is below 85%) — which only makes the gate easier to hold.

    The decision gate mirrors the hot-shard weighted-split gate:
    adaptive must recover at least half the static -> oracle hit-rate
    gap (deterministic metric — always asserted, no perf budget).  The
    adaptive lift over static is committed gated in
    ``BENCH_hotpaths.json`` (the lift must stay positive); the
    measured migration pause is recorded *ungated* next to it — the
    pause is workload truth to watch, not a regression gate.
    """
    config = RecMGConfig()
    num_shards, num_phases = 4, 4
    drift_config = SyntheticTraceConfig(
        num_tables=8, rows_per_table=4096, num_accesses=PERF_ACCESSES,
        seed=11)
    trace = generate_drifting_hot_band_trace(drift_config,
                                             num_shards=num_shards,
                                             num_phases=num_phases)
    encoder = FeatureEncoder(config).fit(trace)
    capacity = max(1, int(trace.num_unique * 0.2))
    phase_length = -(-len(trace) // num_phases)

    def build(interval):
        return RecMGManager(capacity, encoder, replace(
            config, buffer_impl="clock", num_shards=num_shards,
            shard_policy="contiguous", rebalance_interval=interval,
            rebalance_threshold=0.05))

    def serve_run(interval):
        manager = build(interval)
        manager.run(trace)
        return manager

    def serve_oracle():
        # Same block schedule as ``run``'s model-free bulk path (so the
        # three operating points differ only in when/how they
        # rebalance), but with perfect-knowledge migrations: at the
        # first block of each new phase, hand the hot band the bulk of
        # the capacity.  Donor-shrink victims are accounted like the
        # online driver accounts them.
        manager = build(0)
        dense = encoder.dense_ids(trace)
        block = manager._SERVE_BLOCK * num_shards
        hot_share = 0.85
        cold_share = (1.0 - hot_share) / (num_shards - 1)
        phase = 0
        for start in range(0, len(dense), block):
            if start // phase_length != phase:
                phase = start // phase_length
                weights = [cold_share] * num_shards
                weights[phase % num_shards] = hot_share
                shift = manager.buffer.rebalance(tuple(weights))
                manager.evictions += len(shift["evicted"])
            manager.serve_batch(dense[start:start + block])
        return manager

    # Check cadence: every other serving block (the bulk path serves
    # ``_SERVE_BLOCK * num_shards`` ids per block).
    interval = 2 * RecMGManager._SERVE_BLOCK * num_shards
    static_seconds, static = _timed(lambda: serve_run(0), repeats=2)
    adaptive_seconds, adaptive = _timed(
        lambda: serve_run(interval), repeats=2)
    oracle_seconds, oracle = _timed(serve_oracle, repeats=2)

    static_rate = static.breakdown.hit_rate
    adaptive_rate = adaptive.breakdown.hit_rate
    oracle_rate = oracle.breakdown.hit_rate
    summary = adaptive.serving_metrics.summary()
    print()
    print(ascii_table(
        ["config", "accesses/sec", "hit rate", "rebalances"],
        [["static", PERF_ACCESSES / static_seconds, static_rate, 0],
         ["adaptive", PERF_ACCESSES / adaptive_seconds, adaptive_rate,
          summary["rebalance_count"]],
         ["oracle", PERF_ACCESSES / oracle_seconds, oracle_rate,
          num_phases - 1]],
        title="Drifting hot band (walks one shard per quarter trace)"))

    assert static.breakdown.total == PERF_ACCESSES
    assert adaptive.breakdown.total == PERF_ACCESSES
    assert oracle.breakdown.total == PERF_ACCESSES
    # The static split must not silently rebalance, the online driver
    # must actually migrate, and migration must conserve capacity.
    assert static.serving_metrics.summary()["rebalance_count"] == 0
    assert summary["rebalance_count"] >= 1
    assert summary["rebalance_migrated_keys"] > 0
    assert sum(adaptive.buffer.shard_capacities) == capacity
    # Scenario validity: perfect-knowledge rebalancing must beat the
    # static split, or the drift is not actually punishing it.
    assert oracle_rate > static_rate
    # The headline decision gate: the online rebalancer recovers at
    # least half the static -> oracle gap without knowing the phase
    # schedule (deterministic metric — always asserted, no perf gate).
    assert adaptive_rate >= static_rate + 0.5 * (oracle_rate
                                                 - static_rate), (
        f"adaptive hit rate {adaptive_rate:.4f} recovers less than half "
        f"the static ({static_rate:.4f}) vs oracle ({oracle_rate:.4f}) "
        f"drifting-band gap")
    record_hotpath(
        "manager_serving_drifting_band_adaptive", PERF_ACCESSES,
        adaptive_seconds, gated=True, hit_rate=adaptive_rate,
        hit_rate_lift=adaptive_rate - static_rate,
        static_hit_rate=static_rate, oracle_hit_rate=oracle_rate,
        rebalance_count=summary["rebalance_count"],
        rebalance_migrated_keys=summary["rebalance_migrated_keys"],
        rebalance_pause_ms_total=summary["rebalance_pause_ms_total"],
        rebalance_pause_ms_max=summary["rebalance_pause_ms_max"])
    record_hotpath("manager_serving_drifting_band_static", PERF_ACCESSES,
                   static_seconds, hit_rate=static_rate)
    record_hotpath("manager_serving_drifting_band_oracle", PERF_ACCESSES,
                   oracle_seconds, hit_rate=oracle_rate,
                   rebalance_count=num_phases - 1)
    benchmark(lambda: summary)


def test_model_guided_serving(benchmark, record_hotpath):
    """Model-in-the-loop serving (PR 8): hit-rate lift of sync model
    guidance over model-free serving, and what it costs in latency.

    Per scenario (:func:`repro.traces.model_guided_scenarios`: Zipf,
    hot-shard, multi-tenant — one shared seed-11 config), the first 30%
    of the trace trains a small :class:`CachingModel` on OPTgen labels;
    the remaining 70% is served two ways on the clock backend at a 20%
    buffer:

    * ``priority_mode="none"`` — the model-free baseline (bit-identical
      to the provider-free engines);
    * ``"sync"`` — per-block inference on the serving thread.  The lift
      is deterministic, so ``sync > none`` is asserted unconditionally
      and the recorded entry is **lift-gated** (``gated=True`` with
      ``hit_rate_lift`` and no ``ref_seconds``): once committed, a
      positive lift may not vanish (see ``benchmarks/compare_bench.py``).

    The latency half drives the zipf scenario through
    :meth:`RecMGManager.serve_batch` blocks and records the none and
    sync p50/p99 with the host's core count, ungated: sync inference
    rides the serving thread, so its cost is in every percentile.
    """
    base = SyntheticTraceConfig(
        num_tables=8, rows_per_table=4096, num_accesses=PERF_ACCESSES,
        num_clusters=64, cluster_block=8, periodic_items=500,
        periodic_spacing=7, seed=11)
    config = RecMGConfig(hidden=32, hash_buckets=1024, caching_epochs=2,
                         max_train_chunks=500, buffer_impl="clock")
    rows = []
    latency = {}
    for name, trace in model_guided_scenarios(base):
        head, tail = trace.split(0.3)
        encoder = FeatureEncoder(config).fit(head)
        capacity = max(1, int(encoder.vocab_size * 0.2))
        labels = build_labels(head, capacity, config, encoder)
        chunks = encoder.encode_chunks(head)
        model = CachingModel(config, encoder.num_tables)
        train_caching_model(model, chunks,
                            caching_targets(chunks, labels), config)

        def serve(mode, caching_model):
            manager = RecMGManager(capacity, encoder,
                                   replace(config, priority_mode=mode),
                                   caching_model=caching_model)
            stats = manager.run(tail, fast_serve=True)
            manager.close()
            return stats

        none_stats = serve("none", None)
        sync_seconds, sync_stats = _timed(
            lambda: serve("sync", model), repeats=2)

        sync_lift = sync_stats.hit_rate - none_stats.hit_rate
        # Deterministic decision metric — asserted regardless of
        # --perf-budget: per-block model guidance must beat model-free
        # serving on every committed scenario.
        assert sync_lift > 0, (
            f"sync model-guided serving does not lift hit rate on "
            f"{name}: {sync_stats.hit_rate:.4f} vs model-free "
            f"{none_stats.hit_rate:.4f}")
        # Lift-gated entry: hit_rate_lift and no ref_seconds, so
        # compare_bench gates the lift, not a speedup.
        record_hotpath(f"model_guided_{name}_sync", len(tail),
                       sync_seconds, gated=True,
                       hit_rate=sync_stats.hit_rate,
                       model_free_hit_rate=none_stats.hit_rate,
                       hit_rate_lift=sync_lift)
        rows.append([name, none_stats.hit_rate, sync_stats.hit_rate,
                     sync_lift])

        if name == "zipf":
            # Latency half: the same serving stream through
            # serve_batch blocks, percentiles from ServingMetrics.
            dense = encoder.dense_ids(tail)

            def batched(mode, caching_model):
                manager = RecMGManager(capacity, encoder,
                                       replace(config, priority_mode=mode),
                                       caching_model=caching_model)
                for lo in range(0, dense.size, 512):
                    manager.serve_batch(dense[lo:lo + 512])
                summary = manager.serving_metrics.summary()
                manager.close()
                return summary

            for mode, caching_model in (("none", None), ("sync", model)):
                latency[mode] = batched(mode, caching_model)

    record_hotpath(
        "model_guided_serve_batch_latency", PERF_ACCESSES,
        latency["sync"]["latency_mean_ms"] / 1e3, cpu_cores=os.cpu_count(),
        none_p50_ms=latency["none"]["latency_p50_ms"],
        none_p99_ms=latency["none"]["latency_p99_ms"],
        sync_p50_ms=latency["sync"]["latency_p50_ms"],
        sync_p99_ms=latency["sync"]["latency_p99_ms"],
        sync_inference_batches=latency["sync"]["inference_batches"])
    print()
    print(ascii_table(
        ["scenario", "model-free", "sync", "sync lift"], rows,
        title="Model-guided serving hit rate (clock backend, 20% buffer)"))
    print(ascii_table(
        ["mode", "p50 ms", "p99 ms"],
        [[mode, latency[mode]["latency_p50_ms"],
          latency[mode]["latency_p99_ms"]] for mode in latency],
        title="serve_batch latency by priority mode (zipf)"))
    benchmark(lambda: rows)


def test_model_guided_low_capacity_lift(perf_budget, benchmark,
                                        record_hotpath):
    """Capacity-matched online labels (PR 9): the low-capacity lift
    floor.

    OPTgen keep bits are a function of the buffer capacity, so a model
    trained on 20%-capacity labels is mis-calibrated when the serving
    buffer is far smaller.  Per committed scenario, the 30% head
    trains the usual 20%-label model, then
    :func:`repro.core.training.finetune_for_capacity` relabels the
    head at the 5% *serving* capacity and fine-tunes a clone; the 70%
    tail is served model-free, with the capacity-mismatched model and
    with the capacity-matched one.

    Unconditional (deterministic, sync-mode) asserts:

    * the capacity-matched model lifts over model-free on every
      scenario — the acceptance bar for this PR;
    * capacity-matching never does worse than serving the mismatched
      20%-label model.

    The recorded entries are lift-gated (``hit_rate_lift``, no
    ``ref_seconds``): once a positive low-capacity lift is committed
    it may not vanish (``benchmarks/compare_bench.py``).
    """
    from repro.core.training import finetune_for_capacity

    base = SyntheticTraceConfig(
        num_tables=8, rows_per_table=4096, num_accesses=PERF_ACCESSES,
        num_clusters=64, cluster_block=8, periodic_items=500,
        periodic_spacing=7, seed=11)
    config = RecMGConfig(hidden=32, hash_buckets=1024, caching_epochs=2,
                         max_train_chunks=500, buffer_impl="clock")
    rows = []
    for name, trace in model_guided_scenarios(base):
        head, tail = trace.split(0.3)
        encoder = FeatureEncoder(config).fit(head)
        cap20 = max(1, int(encoder.vocab_size * 0.2))
        low_capacity = max(1, int(encoder.vocab_size * 0.05))
        labels = build_labels(head, cap20, config, encoder)
        chunks = encoder.encode_chunks(head)
        model = CachingModel(config, encoder.num_tables)
        train_caching_model(model, chunks,
                            caching_targets(chunks, labels), config)
        tuned, _ = finetune_for_capacity(
            model, encoder.dense_ids(head), low_capacity, config,
            encoder, epochs=1)

        def serve(caching_model, mode):
            cfg = RecMGConfig(
                hidden=32, hash_buckets=1024, caching_epochs=2,
                max_train_chunks=500, buffer_impl="clock",
                priority_mode=mode)
            manager = RecMGManager(low_capacity, encoder, cfg,
                                   caching_model=caching_model)
            stats = manager.run(tail, fast_serve=True)
            manager.close()
            return stats

        free_seconds, free_stats = _timed(
            lambda: serve(None, "none"), repeats=2)
        mismatched_stats = serve(model, "sync")
        tuned_seconds, tuned_stats = _timed(
            lambda: serve(tuned, "sync"), repeats=2)

        tuned_lift = tuned_stats.hit_rate - free_stats.hit_rate
        assert tuned_lift > 0, (
            f"capacity-matched model does not lift hit rate at 5% "
            f"capacity on {name}: {tuned_stats.hit_rate:.4f} vs "
            f"model-free {free_stats.hit_rate:.4f}")
        assert tuned_stats.hit_rate >= mismatched_stats.hit_rate, (
            f"capacity-matched fine-tuning lost to the mismatched "
            f"20%-label model on {name}")
        record_hotpath(
            f"model_guided_{name}_lowcap_sync", len(tail),
            tuned_seconds, gated=True,
            hit_rate=tuned_stats.hit_rate,
            model_free_hit_rate=free_stats.hit_rate,
            mismatched_hit_rate=mismatched_stats.hit_rate,
            hit_rate_lift=tuned_lift)
        rows.append([name, free_stats.hit_rate,
                     mismatched_stats.hit_rate, tuned_stats.hit_rate,
                     tuned_lift])
    print()
    print(ascii_table(
        ["scenario", "model-free", "20%-labels", "cap-matched", "lift"],
        rows,
        title="Model-guided serving hit rate at 5% capacity "
              "(clock backend)"))
    benchmark(lambda: rows)


def _decision_helpers():
    """``tests/decisions.py``, by path: the float64 copy and the
    float32-vs-float64 decision comparison the unit tests use
    (``tests/`` is not a package)."""
    path = Path(__file__).resolve().parent.parent / "tests" / "decisions.py"
    spec = importlib.util.spec_from_file_location("decisions", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_model_inference_throughput(perf_trace, perf_budget, benchmark,
                                    record_hotpath):
    """``predict`` / ``predict_indices`` — tape-free ``infer`` on the
    float32 model — against the float32 taped forward it replaced, side
    by side on the same chunks.

    Both models sit on the serving path (the sync provider predicts 128
    chunks per block, ``run()`` 64 per call), so the forward cost is
    serving cost; the taped ``forward`` builds ~30 (caching) and ~250
    (prefetch) ``Tensor`` nodes with closures and saved activations to
    produce values that are thresholded and dropped (the LSTMs are one
    node per sequence or decoder step).  ``infer`` runs the tape's
    operations in the tape's order, so ``predict`` must return the
    taped forward's decisions exactly, and those of the model's float64
    copy wherever float64 was not a near-tie; it must stay >= 1.3x
    faster than the tape at the default budget (the floor scales down
    with ``--perf-budget``).

    Each side's minor page faults per call (``ru_minflt``) are recorded
    beside its time, ungated: the ratio depends on whether the heap
    still has to map the pages a forward's arrays take (hundreds of
    faults per call in a fresh process, tens once earlier allocations
    have grown it), which is the mechanism behind the ratio moving with
    what ran before the test in the session.
    """
    config = RecMGConfig()
    encoder = FeatureEncoder(config).fit(perf_trace)
    chunks = encoder.encode_chunks(perf_trace)
    caching = CachingModel(config, encoder.num_tables)
    prefetch = PrefetchModel(config, encoder.num_tables)
    prefetch.set_decoder(BucketDecoder.from_miss_ids(
        encoder.dense_ids(perf_trace), config.hash_buckets))
    # Off the initialisation, as training would leave them: a fresh
    # head is nearly flat (5 % of its top-2 bucket gaps are under 1e-4),
    # which makes near-ties the rule the decision helper rejects.
    rng = np.random.default_rng(17)
    for param in caching.parameters() + prefetch.parameters():
        noise = rng.normal(0.0, 0.1, size=param.shape)
        param.data = (param.data + noise).astype(param.data.dtype)
    decode = prefetch.decoder.decode_buckets
    decisions = _decision_helpers()
    wide_caching = decisions.float64_copy(caching)
    wide_prefetch = decisions.float64_copy(prefetch)
    sides = {
        "caching": (
            np.arange(128),
            lambda sel: caching.predict(chunks, sel=sel),
            lambda sel: (caching.forward(chunks, sel=sel).data > 0.0
                         ).astype(np.int8),
            lambda bits, sel: decisions.bits_agree(
                bits, wide_caching.infer(chunks, sel=sel))),
        "prefetch": (
            np.arange(64),
            lambda sel: prefetch.predict_indices(chunks, encoder, sel=sel),
            lambda sel: decode(prefetch.forward_logits(chunks, sel=sel).data),
            lambda indices, sel: decisions.indices_agree(
                indices, wide_prefetch.infer_logits(chunks, sel=sel),
                prefetch.decoder)),
    }
    floor = 1.3 * min(1.0, perf_budget / 5.0)
    rows = []
    for name, (sel, predict, taped, agree) in sides.items():
        # Interleaved best-of, as in the sharded gate: a noise window
        # inflates both sides instead of skewing the ratio.
        runs, taped_runs = [], []
        faults = taped_faults = 0
        for _ in range(15):
            start = _minor_faults()
            seconds, out = _timed(lambda: predict(sel))
            runs.append(seconds)
            middle = _minor_faults()
            seconds, taped_out = _timed(lambda: taped(sel))
            taped_runs.append(seconds)
            faults += middle - start
            taped_faults += _minor_faults() - middle
        seconds = _best_of(runs)
        taped_seconds = _best_of(taped_runs)
        assert np.array_equal(out, taped_out)
        agree(out, sel)
        keys = len(sel) * config.input_len
        record_hotpath(f"model_inference_{name}", keys, seconds,
                       ref_seconds=taped_seconds, chunks=len(sel),
                       us_per_chunk=seconds / len(sel) * 1e6,
                       taped_us_per_chunk=taped_seconds / len(sel) * 1e6,
                       minor_faults_per_call=faults / len(runs),
                       taped_minor_faults_per_call=taped_faults / len(runs),
                       gated=True)
        speedup = taped_seconds / seconds
        rows.append([name, len(sel), taped_seconds * 1e3, seconds * 1e3,
                     speedup, taped_faults / len(runs), faults / len(runs)])
        if perf_budget > 0:
            assert speedup >= floor, (
                f"tape-free {name} inference is only {speedup:.2f}x the "
                f"taped forward (contract: >= {floor:.2f}x)")
    print()
    print(ascii_table(
        ["model", "chunks", "taped ms", "predict ms", "speedup vs tape",
         "taped faults/call", "predict faults/call"],
        rows,
        title="Model inference (float32): taped forward vs predict"))
    benchmark(lambda: rows)


def test_training_tape_step(perf_trace, benchmark, record_hotpath):
    """One float32 optimizer step of each model on a fixed 32-chunk batch:
    forward, loss, ``backward()``, clip, Adam — ``optimizer_step``, the
    body of ``repro.nn.train_minibatches``, the loop every trainer runs.

    Recorded ungated: best-of-N step time, the ``Tensor`` nodes one
    forward builds (``tape_nodes_per_forward``), the ``tracemalloc``
    peak of one step above its start (``peak_mb_per_step``, numpy
    buffers included), and what one step leaves behind with the cycle
    collector off (live ``Tensor`` census and traced bytes).  The tape
    is acyclic and the loss is local to ``optimizer_step``, so a step's
    graph dies by reference count when the step returns; the census
    assertion is a count, not a wall-clock gate, so it holds under
    ``--perf-budget 0`` too.
    """
    config = RecMGConfig()
    encoder = FeatureEncoder(config).fit(perf_trace)
    chunks = encoder.encode_chunks(perf_trace)
    sel = np.arange(32)
    rng = np.random.default_rng(23)
    targets = Tensor(rng.random((len(sel), config.input_len)) > 0.5)
    windows = rng.integers(0, config.hash_buckets,
                           size=(len(sel), config.eval_window))
    caching = CachingModel(config, encoder.num_tables)
    prefetch = PrefetchModel(config, encoder.num_tables)

    def stepper(model, loss_of):
        optimizer = Adam(model.parameters(), lr=config.learning_rate)
        return lambda: optimizer_step(optimizer, config.grad_clip,
                                      lambda: loss_of(model))

    steps = {
        "caching": stepper(caching, lambda model: bce_with_logits(
            model(chunks, sel=sel), targets)),
        "prefetch": stepper(prefetch, lambda model: _chamfer_ce_loss(
            model, chunks, sel, windows, alpha=config.alpha)),
    }

    def census():
        return sum(type(o) is Tensor for o in gc.get_objects())

    def tape_nodes(model):
        before = census()
        graph = model(chunks, sel=sel)
        nodes = census() - before
        del graph
        return nodes

    tape_nodes_per_forward = {"caching": tape_nodes(caching),
                              "prefetch": tape_nodes(prefetch)}
    step_seconds = {}
    peak_mb = {}
    retained_tensors = 0
    retained_bytes = 0
    for name, step in steps.items():
        step()  # first step allocates the optimizer's moments
        step_seconds[name], _ = _timed(step, repeats=7)
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            step()  # every array a step replaces is now a traced one
            tensors = census()
            traced = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            step()
            traced_after, peak = tracemalloc.get_traced_memory()
            peak_mb[name] = (peak - traced) / 2 ** 20
            retained_bytes += traced_after - traced
            retained_tensors += census() - tensors
        finally:
            tracemalloc.stop()
            gc.enable()
    step_ms = {name: seconds * 1e3 for name, seconds in step_seconds.items()}
    # Repeat i of the entry is one caching step plus one prefetch step.
    record_hotpath(
        "training_tape_step", len(sel) * config.input_len,
        Timing([caching + prefetch for caching, prefetch in zip(
            step_seconds["caching"].times, step_seconds["prefetch"].times)]),
        chunks=len(sel),
        caching_step_ms=step_ms["caching"],
        prefetch_step_ms=step_ms["prefetch"],
        tape_nodes_per_forward=tape_nodes_per_forward,
        peak_mb_per_step=peak_mb,
        retained_tensors_per_step=retained_tensors,
        retained_mb_per_step=retained_bytes / 2 ** 20,
        cpu_cores=os.cpu_count())
    rows = [[name, len(sel), ms, tape_nodes_per_forward[name], peak_mb[name]]
            for name, ms in step_ms.items()]
    rows.append(["retained tensors / MB (collector off)", retained_tensors,
                 retained_bytes / 2 ** 20, "", ""])
    print()
    print(ascii_table(["model", "chunks", "step ms", "tape nodes / forward",
                       "peak MB / step"],
                      rows,
                      title="Training tape: one optimizer step, and what "
                            "it strands without the cycle collector"))
    assert retained_tensors == 0, (
        f"{retained_tensors} tape tensors outlive their training step "
        f"with the cycle collector off: the tape has a reference cycle")
    benchmark(lambda: rows)


def test_lru_breakdown_throughput(perf_trace, perf_budget, benchmark,
                                  record_hotpath):
    capacity = max(1, int(perf_trace.num_unique * 0.2))
    fast_seconds, fast = _timed(
        lambda: run_breakdown(perf_trace, capacity), repeats=3)
    ref_seconds, reference = _timed(
        lambda: run_breakdown(perf_trace, capacity, engine="reference"))
    assert fast == reference
    record_hotpath("lru_breakdown_single", PERF_ACCESSES, fast_seconds,
                   ref_seconds=ref_seconds)
    rows = _report("LRU breakdown throughput (no prefetcher)",
                   fast_seconds, ref_seconds)
    # Single capacity: the closed-form path must stay in the same league
    # as the loop (the loop is C-dict backed, so parity is the floor,
    # not an embarrassment; the sweep below is where amortization wins).
    if perf_budget > 0:
        assert fast_seconds < ref_seconds * 1.5, \
            "vectorized LRU breakdown fell behind the simulation loop"
    benchmark(lambda: rows)


def test_lru_breakdown_sweep_throughput(perf_trace, perf_budget, benchmark,
                                        record_hotpath):
    """Capacity sweeps reuse one distance computation: the vectorized
    path must clearly beat re-simulating the trace per capacity."""
    fractions = [0.02, 0.05, 0.08, 0.10, 0.15, 0.20, 0.30, 0.40]
    capacities = [max(1, int(perf_trace.num_unique * fraction))
                  for fraction in fractions]
    fast_seconds, fast = _timed(
        lambda: run_breakdown_sweep(perf_trace, capacities), repeats=2)
    ref_seconds, reference = _timed(
        lambda: [run_breakdown(perf_trace, capacity, engine="reference")
                 for capacity in capacities])
    assert fast == reference
    record_hotpath("lru_breakdown_sweep",
                   PERF_ACCESSES * len(capacities), fast_seconds,
                   ref_seconds=ref_seconds, capacities=len(capacities),
                   gated=True)
    rows = _report(f"LRU breakdown sweep throughput ({len(capacities)} "
                   "capacities)", fast_seconds, ref_seconds)
    if perf_budget > 0:
        assert ref_seconds / fast_seconds >= 3.0, \
            "sweep vectorization should amortize the distance computation"
    benchmark(lambda: rows)
