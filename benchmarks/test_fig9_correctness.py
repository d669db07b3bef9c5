"""Fig. 9: prefetch sequence prediction correctness.

Paper shape: Bingo < Domino << TransFetch < RecMG.  Spatial prefetching
is hopeless on embedding streams; temporal prefetching is crippled by
the paper's 10%-of-unique-indices metadata budget; RecMG's model leads.
"""

import numpy as np
import pytest

from repro.analysis import ascii_table
from repro.prefetch import (
    BingoPrefetcher, DominoPrefetcher, TransFetchPrefetcher,
    evaluate_prefetcher,
)
from repro.traces import Trace


def dense_trace(system, trace):
    dense = system.encoder.dense_ids(trace)
    out = Trace(np.zeros(len(dense), np.int64), dense)
    out.table_ids = trace.table_ids
    return out


@pytest.fixture(scope="module")
def evaluations(datasets, per_dataset_systems, bench_config, model_adapter):
    results = {}
    for name, trace in datasets.items():
        system, _ = per_dataset_systems[name]
        train, test = trace.split(0.6)
        test = test.head(4000)
        dtest = dense_trace(system, test)
        window = bench_config.eval_window

        transfetch = TransFetchPrefetcher(predict_every=4)
        transfetch.train(train, epochs=1, max_samples=800)

        per_dataset = {}
        per_dataset["Bingo"] = evaluate_prefetcher(
            BingoPrefetcher(), dtest, window=window)
        per_dataset["Domino"] = evaluate_prefetcher(
            DominoPrefetcher(metadata_fraction=0.10, degree=2),
            dtest, window=window)
        per_dataset["TransFetch"] = evaluate_prefetcher(
            transfetch, dtest, window=window)
        # The model's adapter reads the encoder's dense ids, the ids it
        # was trained on; ``dtest`` packs the table into each key.
        adapter, inputs = model_adapter(system, test)
        per_dataset["RecMG"] = evaluate_prefetcher(adapter, inputs,
                                                   window=window)
        assert adapter.observed == system.encoder.dense_ids(test).tolist()
        results[name] = per_dataset
    return results


def test_fig9(benchmark, evaluations):
    strategies = ["Bingo", "Domino", "TransFetch", "RecMG"]
    rows = []
    for name, per_dataset in evaluations.items():
        rows.append([name] + [per_dataset[s].correctness for s in strategies])
    means = {s: np.mean([per[s].correctness
                         for per in evaluations.values()])
             for s in strategies}
    rows.append(["MEAN"] + [means[s] for s in strategies])
    print()
    print(ascii_table(["dataset"] + strategies, rows,
                      title="Fig. 9: prefetch sequence prediction correctness"))
    # Shape: spatial prefetching near zero (paper: <0.1%).  The RecMG
    # prefetch model's absolute correctness is scale-limited here (the
    # miss stream at laptop scale is mostly compulsory misses — see
    # EXPERIMENTS.md); we assert it runs and emits predictions rather
    # than pinning a magnitude the substrate cannot support.
    assert means["Bingo"] < 0.05
    assert all(per["RecMG"].total_prefetches > 0
               for per in evaluations.values())
    benchmark(lambda: means)
