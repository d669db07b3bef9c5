"""Serving daemon: tenant producer threads -> queue -> batcher -> one
serving thread.

Replays a multi-tenant access stream through the serving front end the
way an online deployment would see it: one producer thread per tenant
enqueues small requests into a bounded :class:`RequestQueue`, a
:class:`Batcher` coalesces them into demand segments under a
max-size/max-wait flush policy, and the serving loop (this thread)
feeds each batch to :meth:`RecMGManager.serve_batch` on a sharded
buffer.  A live metrics line (p50/p95/p99 latency, queue depth, batch
mix) prints as the stream drains; the final report adds the end-to-end
hit rate.

With ``--model`` the daemon becomes model-in-the-loop: the head of
the stream trains a small :class:`CachingModel` on OPTgen labels, and
the remainder is served with ``priority_mode="async"`` — a background
worker refreshes a dense priority table while ``serve_batch`` reads
possibly-stale bits without ever blocking on inference.  The live
retraining window (``--retrain``) fine-tunes a clone of the model from
the stream itself and swaps it in atomically, all off the critical
path.  The final report then adds the async provider's staleness and
inference-latency lines next to the serving percentiles.

With ``--rebalance N`` the static capacity split becomes elastic: the
manager tracks per-shard traffic through an EWMA and, every ``N``
served accesses, migrates buffer capacity (and the resident keys) to
the shards actually absorbing the load — the multi-tenant stream
time-shares the id space in phases, so the hot band moves and the
daemon's report grows a rebalance line (count, migrated keys, and the
serving pause each migration cost).

Defaults drive ~2M keys (~64k requests).  Everything is a ``main()``
keyword so the smoke test (``tests/test_examples.py``) can run the
same daemon on a tiny trace in well under a second.

Run:  python examples/serving_daemon.py
      python examples/serving_daemon.py --accesses 5000000
      python examples/serving_daemon.py --model --retrain
"""

import threading
import time

from repro.core import RecMGConfig
from repro.core.caching_model import CachingModel
from repro.core.features import FeatureEncoder
from repro.core.labeling import build_labels, caching_targets
from repro.core.manager import RecMGManager
from repro.core.training import train_caching_model
from repro.serving import Batcher, Request, RequestQueue
from repro.traces import SyntheticTraceConfig, generate_multi_tenant_trace


def main(total_accesses: int = 2_000_000,
         num_tenants: int = 4,
         num_shards: int = 4,
         buffer_impl: str = "clock",
         request_keys: int = 32,
         max_batch_keys: int = 4096,
         max_wait_s: float = 0.002,
         queue_size: int = 256,
         capacity_fraction: float = 0.2,
         report_every: int = 100,
         model: bool = False,
         train_fraction: float = 0.25,
         online_retrain: bool = False,
         rebalance_interval: int = 0,
         rebalance_threshold: float = 0.05) -> None:
    trace_config = SyntheticTraceConfig(
        num_tables=8, rows_per_table=4096, num_accesses=total_accesses,
        num_clusters=32, cluster_block=8, seed=20260807)
    trace = generate_multi_tenant_trace(trace_config,
                                        num_tenants=num_tenants)
    config = RecMGConfig(
        buffer_impl=buffer_impl, num_shards=num_shards,
        priority_mode="async" if model else "none",
        online_retrain_interval=(max(max_batch_keys * 8, 4096)
                                 if model and online_retrain else 0),
        rebalance_interval=rebalance_interval,
        rebalance_threshold=rebalance_threshold)
    caching_model = None
    if model:
        # Train on the head of the stream, serve the remainder — the
        # deployment shape: yesterday's traffic trains, today's serves.
        head, serve_trace = trace.split(train_fraction)
        encoder = FeatureEncoder(config).fit(head)
        train_capacity = max(1, int(encoder.vocab_size
                                    * capacity_fraction))
        labels = build_labels(head, train_capacity, config, encoder)
        chunks = encoder.encode_chunks(head)
        caching_model = CachingModel(config, encoder.num_tables)
        result = train_caching_model(
            caching_model, chunks, caching_targets(chunks, labels), config)
        print(f"caching model: trained on {len(head):,} head accesses "
              f"({result.final_metric:.1%} holdout accuracy); async "
              f"priority refresh"
              + (", online retraining on" if online_retrain else ""))
    else:
        serve_trace = trace
        encoder = FeatureEncoder(config).fit(trace)
    dense = encoder.dense_ids(serve_trace)
    capacity = max(num_shards, int(trace.num_unique * capacity_fraction))
    print(f"stream: {len(dense):,} keys, {trace.num_unique:,} distinct; "
          f"buffer: {capacity:,} slots x {num_shards} shards "
          f"({buffer_impl}), {num_tenants} tenant producers")

    # Requests round-robin across tenant producers; each producer
    # replays its own subsequence in order (the queue interleaves
    # tenants nondeterministically, as live traffic would).
    runs = [dense[lo:lo + request_keys]
            for lo in range(0, len(dense), request_keys)]
    queue = RequestQueue(maxsize=queue_size)
    live_producers = [num_tenants]
    producers_lock = threading.Lock()

    def producer(tenant: int) -> None:
        for run in runs[tenant::num_tenants]:
            queue.put(Request(keys=run, tenant=tenant))
        with producers_lock:
            live_producers[0] -= 1
            if live_producers[0] == 0:
                queue.close()  # last producer out stops the batcher

    manager = RecMGManager(capacity, encoder, config,
                           caching_model=caching_model)
    producers = [threading.Thread(target=producer, args=(tenant,),
                                  name=f"tenant-{tenant}")
                 for tenant in range(num_tenants)]
    began = time.perf_counter()
    for thread in producers:
        thread.start()
    batcher = Batcher(queue, max_batch_keys=max_batch_keys,
                      max_wait_s=max_wait_s)
    metrics = manager.serving_metrics
    with manager:
        for batch in batcher.batches():
            manager.serve_batch(batch.keys, queue_depth=batch.queue_depth)
            if report_every and metrics.batches % report_every == 0:
                live = metrics.summary()
                print(f"  [{metrics.batches:>6} batches] "
                      f"{live['keys_served']:>10,} keys  "
                      f"p50 {live['latency_p50_ms']:6.2f} ms  "
                      f"p99 {live['latency_p99_ms']:6.2f} ms  "
                      f"depth~{live['queue_depth_mean']:.1f}")
        for thread in producers:
            thread.join()
        wall = time.perf_counter() - began
        summary = metrics.summary()
    breakdown = manager.breakdown
    served = breakdown.total
    hits = served - breakdown.on_demand
    print(f"drained {summary['batches']:,} batches "
          f"({summary['keys_served']:,} keys) in {wall:.2f} s "
          f"= {summary['keys_served'] / wall:,.0f} keys/s")
    print(f"latency ms: p50 {summary['latency_p50_ms']:.2f}  "
          f"p95 {summary['latency_p95_ms']:.2f}  "
          f"p99 {summary['latency_p99_ms']:.2f}  "
          f"mean {summary['latency_mean_ms']:.2f}")
    print(f"queue depth: mean {summary['queue_depth_mean']:.1f} "
          f"max {summary['queue_depth_max']}  "
          f"batch mix {summary['batch_size_histogram']}")
    if rebalance_interval:
        caps = "/".join(str(c) for c in manager.buffer.shard_capacities)
        print(f"elastic rebalancing: {summary['rebalance_count']} "
              f"rebalances, {summary['rebalance_migrated_keys']:,} keys "
              f"migrated, pause "
              f"{summary['rebalance_pause_ms_total']:.2f} ms total "
              f"(max {summary['rebalance_pause_ms_max']:.2f} ms); "
              f"final split {caps}")
    if model:
        # Read after close(): the refresh worker drains its queue on
        # shutdown, so the pre-close summary can undercount inference.
        provider = manager.priority_provider.stats()
        print(f"priority staleness: mean {metrics.staleness_mean:.1f} "
              f"max {summary['staleness_max']} blocks  "
              f"(table coverage {provider['table_coverage']:.1%}, "
              f"{provider['dropped_blocks']} blocks shed)")
        print(f"async inference: {metrics.inference_batches} batches "
              f"off the serving thread, mean "
              f"{metrics.inference_mean_ms:.2f} ms"
              + (f"; {provider['retrains']} online retrains"
                 if online_retrain else ""))
    print(f"hit rate: {hits / served:.1%} over {served:,} accesses "
          f"({manager.evictions:,} evictions)")


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--accesses", type=int, default=2_000_000,
                        help="total keys to stream (default 2M)")
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--buffer", default="clock",
                        choices=["clock", "fast", "reference"])
    parser.add_argument("--model", action="store_true",
                        help="train a caching model on the stream head "
                             "and serve with the async priority provider")
    parser.add_argument("--retrain", action="store_true",
                        help="with --model: fine-tune the model online "
                             "from the live stream")
    parser.add_argument("--rebalance", type=int, default=0,
                        metavar="N",
                        help="served accesses between elastic rebalance "
                             "checks (0 = keep the static capacity split)")
    args = parser.parse_args()
    main(total_accesses=args.accesses, num_shards=args.shards,
         buffer_impl=args.buffer,
         model=args.model, online_retrain=args.retrain,
         rebalance_interval=args.rebalance)
