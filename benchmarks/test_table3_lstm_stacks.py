"""Table III: sensitivity to the number of LSTM stacks.

Paper shape: parameters and training time grow with stacks; accuracy
improves modestly for the caching model and more for the prefetch model.
RecMG's default: 1 caching stack, 2 prefetch stacks.
"""

from dataclasses import replace

import numpy as np

from repro.analysis import ascii_table
from repro.cache import capacity_from_fraction
from repro.core import (
    CachingModel, FeatureEncoder, PrefetchModel, build_labels,
    caching_targets, prefetch_targets, train_caching_model,
    train_prefetch_model,
)
from repro.core.prefetch_model import BucketDecoder


def test_table3(benchmark, datasets, bench_config):
    trace, _ = datasets["dataset0"].split(0.6)
    config = replace(bench_config, caching_epochs=1, prefetch_epochs=1,
                     max_train_chunks=250)
    encoder = FeatureEncoder(config).fit(trace)
    capacity = capacity_from_fraction(trace, 0.20)
    labels = build_labels(trace, capacity, config, encoder)
    chunks = encoder.encode_chunks(trace)
    targets = caching_targets(chunks, labels)
    sel, dense = prefetch_targets(chunks, labels, config)
    miss_dense = labels.dense_ids[labels.miss_positions]

    rows = []
    caching_params = []
    prefetch_params = []
    for stacks in (1, 2, 3):
        c_config = replace(config, caching_stacks=stacks)
        caching = CachingModel(c_config, encoder.num_tables,
                               rng=np.random.default_rng(0))
        c_result = train_caching_model(caching, chunks, targets, c_config)

        p_config = replace(config, prefetch_stacks=stacks)
        prefetch = PrefetchModel(p_config, encoder.num_tables,
                                 rng=np.random.default_rng(0))
        prefetch.set_decoder(BucketDecoder.from_miss_ids(
            miss_dense, p_config.hash_buckets))
        p_result = train_prefetch_model(prefetch, chunks, sel, dense,
                                        encoder, p_config)
        caching_params.append(c_result.num_parameters)
        prefetch_params.append(p_result.num_parameters)
        rows.append([
            stacks,
            f"{c_result.duration_s:.1f}s", c_result.num_parameters,
            f"{c_result.final_metric:.0%}",
            f"{p_result.duration_s:.1f}s", p_result.num_parameters,
            f"{p_result.final_metric:.1%}",
        ])
    print()
    print(ascii_table(
        ["#stacks", "CM train", "CM params", "CM acc",
         "PM train", "PM params", "PM corr"],
        rows, title="Table III: LSTM-stack sensitivity",
    ))
    assert caching_params[0] < caching_params[1] < caching_params[2]
    assert prefetch_params[0] < prefetch_params[1] < prefetch_params[2]
    benchmark(lambda: rows)
