"""End-to-end DLRM inference serving on tiered memory.

Builds a numpy DLRM, reconstructs inference queries from a trace, and
compares per-batch serving time under LRU vs RecMG buffer management,
including the pipelined CPU/GPU execution of the models (paper Fig. 6).

Run:  python examples/inference_serving.py
"""

import numpy as np

from repro.cache import LRUCache, capacity_from_fraction
from repro.core import PipelineSimulator, RecMG, RecMGConfig
from repro.dlrm import (
    DLRM, DLRMConfig, BufferClassifier, InferenceEngine, ManagerClassifier,
    queries_from_trace,
)
from repro.traces import load_dataset


def main() -> None:
    trace = load_dataset("dataset1", scale=0.25)
    train, test = trace.split(0.6)
    capacity = capacity_from_fraction(trace, 0.20)

    # A real (small) DLRM: the CTR outputs prove the lookup path works.
    dlrm = DLRM(DLRMConfig(num_tables=trace.num_tables,
                           rows_per_table=4096, embedding_dim=16))
    # Query boundaries live on the full trace (split() cuts mid-query).
    queries = queries_from_trace(trace)
    sample = queries[:8]
    ctrs = dlrm.forward_batch(
        np.stack([q.dense for q in sample]), [q.sparse for q in sample]
    )
    print("sample CTRs:", np.round(ctrs, 3))

    # Train RecMG and serve with both buffer managers.
    system = RecMG(RecMGConfig(caching_epochs=3, prefetch_epochs=2,
                               max_train_chunks=500))
    system.fit(train, buffer_capacity=capacity)

    engine = InferenceEngine(dlrm=dlrm, accesses_per_batch=2048)
    lru_report = engine.run(test, LRUCache(capacity))
    # Model-free aged-priority buffer on the array-backed CLOCK backend
    # (the cheapest manager the serving loop supports; buffer_impl also
    # accepts "fast"/"reference" for the exact victim-queue/audit
    # backends).
    clock_report = engine.run(test, BufferClassifier(capacity,
                                                     buffer_impl="clock"))
    recmg_report = engine.run(
        test, ManagerClassifier(system.deploy(capacity), test)
    )
    print(f"LRU:   {lru_report.mean_batch_ms:.2f} ms/batch "
          f"(hit rate {lru_report.hit_rate:.1%})")
    print(f"CLOCK: {clock_report.mean_batch_ms:.2f} ms/batch "
          f"(hit rate {clock_report.hit_rate:.1%})")
    print(f"RecMG: {recmg_report.mean_batch_ms:.2f} ms/batch "
          f"(hit rate {recmg_report.hit_rate:.1%})")
    saved = 1 - recmg_report.mean_batch_ms / lru_report.mean_batch_ms
    print(f"end-to-end reduction: {saved:.1%}")

    # Pipelined execution: model inference overlaps GPU batches.
    gpu_times = [b.total_ms for b in recmg_report.batches]
    cpu_times = [2.0] * len(gpu_times)  # model serving per batch (ms)
    result = PipelineSimulator().run(gpu_times, cpu_times)
    print(f"pipelined: {result.total_time_ms:.1f} ms vs serialized "
          f"{result.serialized_time_ms:.1f} ms "
          f"({result.skipped_model_updates} updates skipped)")


if __name__ == "__main__":
    main()
