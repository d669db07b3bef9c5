"""Fig. 12: sensitivity of the prefetch model to the evaluation-window
size (normalized by output sequence length).

Paper shape: a window larger than the output raises accuracy sharply;
coverage saturates around ratio 3 (RecMG's default).
"""

from dataclasses import replace

import numpy as np

from repro.analysis import ascii_table
from repro.cache import capacity_from_fraction
from repro.core import (
    FeatureEncoder, PrefetchModel, build_labels, prefetch_metrics,
    prefetch_targets, train_prefetch_model,
)
from repro.core.prefetch_model import BucketDecoder

RATIOS = [1, 2, 3, 5]


def test_fig12(benchmark, datasets, bench_config):
    trace, _ = datasets["dataset0"].split(0.6)
    rows = []
    metrics = {}
    for ratio in RATIOS:
        config = replace(bench_config, window_ratio=ratio,
                         prefetch_epochs=2, max_train_chunks=300)
        encoder = FeatureEncoder(config).fit(trace)
        capacity = capacity_from_fraction(trace, 0.20)
        labels = build_labels(trace, capacity, config, encoder)
        chunks = encoder.encode_chunks(trace)
        model = PrefetchModel(config, encoder.num_tables,
                              rng=np.random.default_rng(0))
        miss_dense = labels.dense_ids[labels.miss_positions]
        model.set_decoder(BucketDecoder.from_miss_ids(
            miss_dense, config.hash_buckets))
        sel, dense = prefetch_targets(chunks, labels, config)
        train_prefetch_model(model, chunks, sel, dense,
                             encoder, config)
        correctness, coverage = prefetch_metrics(
            model, chunks, sel, dense, encoder)
        metrics[ratio] = (correctness, coverage)
        rows.append([ratio, correctness, coverage])
    print()
    print(ascii_table(
        ["window/output ratio", "accuracy", "coverage"],
        rows, title="Fig. 12: evaluation-window sensitivity",
    ))
    # Shape: scoring against a wider window cannot reduce accuracy.
    assert metrics[3][0] >= metrics[1][0] - 0.02
    benchmark(lambda: metrics)
