"""Fig. 11: Chamfer + decoupled window vs the L2 baseline.

Paper shape: the L2 baseline's training loss stops improving almost
immediately, while the Chamfer-trained model keeps improving.  We also
run the forward-only Chamfer (Eq. 4) to exhibit the output-collapse
shortcut the bidirectional term fixes.
"""

import numpy as np

from repro.analysis import ascii_table
from repro.cache import capacity_from_fraction
from repro.core import (
    FeatureEncoder, PrefetchModel, build_labels, output_collapse_ratio,
    prefetch_targets, train_prefetch_model,
)
from repro.core.prefetch_model import BucketDecoder


def run_loss(kind, trace, config):
    encoder = FeatureEncoder(config).fit(trace)
    capacity = capacity_from_fraction(trace, 0.20)
    labels = build_labels(trace, capacity, config, encoder)
    chunks = encoder.encode_chunks(trace)
    model = PrefetchModel(config, encoder.num_tables,
                          rng=np.random.default_rng(0))
    miss_dense = labels.dense_ids[labels.miss_positions]
    model.set_decoder(BucketDecoder.from_miss_ids(miss_dense,
                                                  config.hash_buckets))
    sel, dense = prefetch_targets(chunks, labels, config)
    result = train_prefetch_model(model, chunks, sel, dense,
                                  encoder, config, loss_kind=kind)
    collapse = output_collapse_ratio(model, chunks, sel[:100], encoder)
    return result, collapse


def test_fig11(benchmark, datasets, bench_config):
    trace, _ = datasets["dataset0"].split(0.6)
    rows = []
    improvements = {}
    collapses = {}
    for kind in ("chamfer", "chamfer_forward", "l2"):
        result, collapse = run_loss(kind, trace, bench_config)
        first = float(np.mean(result.losses[:5]))
        last = float(np.mean(result.losses[-5:]))
        improvements[kind] = (first - last) / max(abs(first), 1e-9)
        collapses[kind] = collapse
        rows.append([kind, first, last, f"{improvements[kind]:.1%}",
                     f"{collapse:.0%}"])
    print()
    print(ascii_table(
        ["loss", "initial loss", "final loss", "improvement",
         "collapsed outputs"],
        rows, title="Fig. 11: loss-function ablation",
    ))
    # Shape: the decoupled Chamfer objective keeps improving; the
    # forward-only variant collapses outputs far more often.
    assert improvements["chamfer"] > 0.0
    assert collapses["chamfer_forward"] >= collapses["chamfer"]
    benchmark(lambda: improvements)
