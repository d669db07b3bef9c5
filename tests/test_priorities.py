"""Tests for the priority-provider seam (:mod:`repro.serving.priorities`)
and the capacity-matched labels its models can be tuned on.

The contract under test, in three layers:

* **Providers in isolation** — the tri-state bit protocol: sync bits
  equal an offline predict over the same dense segment; ``-1`` ("no
  prediction") positions keep their recency priority in the applier.
* **The manager seam** — ``priority_mode="sync"`` run() is replayed
  decision-for-decision by a model-free manager plus a manual per-block
  predict/apply loop (the provider is *only* a refactoring of that
  loop) on single-shard and sharded buffers alike — which pins the
  sink's per-shard bit split against the whole-buffer applier;
  ``record_decisions=True`` keeps working under model-guided sharded
  engines; no priority mode starts a thread; the provider contract is
  one ``bits_for`` call per served block, and ``"none"`` installs no
  provider.
* **Live labels** — ``label_live_window`` agrees with a direct OPTgen
  pass, and a capacity-matched fine-tune returns a clone (the served
  model's weights are never touched in place).
"""

import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.core.caching_model import CachingModel
from repro.core.config import RecMGConfig
from repro.core.features import FeatureEncoder
from repro.core.labeling import (
    build_labels,
    caching_targets,
    label_live_window,
    window_targets,
)
from repro.core.manager import RecMGManager
from repro.core.training import (
    clone_caching_model,
    finetune_for_capacity,
    train_caching_model,
)
from repro.cache.buffer import SCALAR_FALLBACK
from repro.cache.optgen import run_optgen
from repro.serving import priorities
from repro.serving.metrics import ServingMetrics
from repro.serving.priorities import (
    PRIORITY_MODES,
    SyncModelProvider,
    apply_caching_bits,
)
from repro.traces.access import Trace
from repro.traces.synthetic import SyntheticTraceConfig, generate_trace
from sharded_ops import drain


@pytest.fixture(scope="module")
def small_config():
    return RecMGConfig(hidden=16, hash_buckets=256, caching_epochs=1,
                       max_train_chunks=200, buffer_impl="clock")


@pytest.fixture(scope="module")
def world(small_config):
    """(train_head, serve_tail, encoder, capacity, trained model)."""
    trace = generate_trace(SyntheticTraceConfig(
        num_tables=4, rows_per_table=512, num_accesses=12_000, seed=5))
    head, tail = trace.split(0.3)
    encoder = FeatureEncoder(small_config).fit(head)
    capacity = max(1, int(encoder.vocab_size * 0.2))
    labels = build_labels(head, capacity, small_config, encoder)
    chunks = encoder.encode_chunks(head)
    model = CachingModel(small_config, encoder.num_tables)
    train_caching_model(model, chunks, caching_targets(chunks, labels),
                        small_config)
    return head, tail, encoder, capacity, model


# ----------------------------------------------------------------------
# Construction & validation
# ----------------------------------------------------------------------
def test_config_validates_priority_knobs():
    with pytest.raises(ValueError, match="priority_mode"):
        RecMGConfig(priority_mode="later")
    assert PRIORITY_MODES == ("none", "sync")


def test_make_provider_validates_mode(world, small_config):
    """Provider selection is the manager reading ``priority_mode``, so
    a mode without a provider must be refused before any manager sees
    it — on a fresh config and on one derived with ``replace``."""
    _, _, encoder, capacity, model = world
    for mode in ("eventually", "async"):
        with pytest.raises(ValueError, match="priority_mode"):
            RecMGConfig(priority_mode=mode)
        with pytest.raises(ValueError, match="priority_mode"):
            RecMGManager(capacity, encoder,
                         replace(small_config, priority_mode=mode),
                         caching_model=model)


def test_none_mode_installs_no_provider(world, small_config):
    """``priority_mode="none"`` installs no provider even when the
    manager is handed a caching model: the model then runs only in
    :meth:`RecMGManager.run`'s offline chunk pass."""
    _, _, encoder, capacity, model = world
    manager = RecMGManager(capacity, encoder, small_config,
                           caching_model=model)
    assert manager.priority_provider is None
    sync = RecMGManager(capacity, encoder,
                        replace(small_config, priority_mode="sync"),
                        caching_model=model)
    assert isinstance(sync.priority_provider, SyncModelProvider)


def test_model_modes_require_model_and_fitted_encoder(world, small_config):
    _, _, encoder, capacity, model = world
    with pytest.raises(ValueError, match="caching model"):
        SyncModelProvider(None, encoder)
    with pytest.raises(ValueError, match="fitted"):
        SyncModelProvider(model, FeatureEncoder(small_config))
    with pytest.raises(ValueError, match="caching model"):
        RecMGManager(capacity, encoder,
                     replace(small_config, priority_mode="sync"))


# ----------------------------------------------------------------------
# Dense-segment encoding (the serving-side feature path)
# ----------------------------------------------------------------------
def test_encode_dense_chunks_matches_encode_chunks(world, small_config):
    head, _, encoder, _, _ = world
    length = small_config.input_len
    aligned = head.head((len(head) // length) * length)
    offline = encoder.encode_chunks(aligned)
    online = encoder.encode_dense_chunks(encoder.dense_ids(aligned))
    for field in ("table_ids", "hashed_rows", "norm_index", "freq",
                  "dense_ids"):
        np.testing.assert_array_equal(getattr(offline, field),
                                      getattr(online, field), err_msg=field)


def test_encode_dense_chunks_pads_tail(world, small_config):
    _, _, encoder, _, _ = world
    length = small_config.input_len
    dense = encoder.dense_ids(world[0])[: length + 3]
    chunks = encoder.encode_dense_chunks(dense)
    assert len(chunks) == 2
    # Pad positions repeat the segment's last access.
    np.testing.assert_array_equal(chunks.dense_ids[1][3:],
                                  np.full(length - 3, dense[-1]))
    with pytest.raises(ValueError, match="empty"):
        encoder.encode_dense_chunks(np.empty(0, dtype=np.int64))


def test_tables_for_dense_covers_spillover(world, small_config):
    """Spillover dense ids (unseen at fit time) recover their table
    from the packed key they carry — identical to trace-side encoding."""
    head, tail, encoder, _, _ = world
    dense = encoder.dense_ids(tail)
    expected = encoder.table_indices(tail)
    np.testing.assert_array_equal(encoder.tables_for_dense(dense), expected)
    assert (dense >= encoder.vocab_size).any(), \
        "fixture should exercise spillover ids"


# ----------------------------------------------------------------------
# Sync provider
# ----------------------------------------------------------------------
def test_sync_bits_match_offline_predict(world, small_config):
    _, tail, encoder, _, model = world
    metrics = ServingMetrics()
    provider = SyncModelProvider(model, encoder, metrics)
    dense = encoder.dense_ids(tail)[:600]
    bits = provider.bits_for(dense)
    expected = model.predict(
        encoder.encode_dense_chunks(dense)).reshape(-1)[:dense.size]
    np.testing.assert_array_equal(bits, expected.astype(np.int8))
    assert bits.dtype == np.int8
    assert set(np.unique(bits)) <= {0, 1}
    assert provider.bits_for(np.empty(0, dtype=np.int64)) is None
    assert metrics.inference_batches == 1
    assert metrics.inference_keys == dense.size


# ----------------------------------------------------------------------
# The manager seam
# ----------------------------------------------------------------------
@pytest.mark.parametrize("num_shards", [1, 4])
@pytest.mark.parametrize("buffer_impl", ["fast", "clock"])
def test_sync_run_equals_manual_replay(world, small_config, buffer_impl,
                                       num_shards, monkeypatch):
    """``priority_mode="sync"`` is *only* a refactoring of "serve a
    block, predict it, apply the bits": a model-free manager driven by
    that manual loop must reproduce the sync run decision-for-decision,
    including final buffer state.  The manual loop applies each block's
    bits as the applier's scalar sequence (``SCALAR_FALLBACK`` raised
    above the block size) on the whole buffer, every key routed to its
    shard by the buffer's scalar protocol, while ``run()`` splits them
    per shard: the 4-shard cases pin the split against that sequence
    end to end."""
    _, tail, encoder, capacity, model = world
    guided = RecMGManager(capacity, encoder,
                          replace(small_config, priority_mode="sync",
                                  buffer_impl=buffer_impl,
                                  num_shards=num_shards),
                          caching_model=model)
    stats = guided.run(tail, fast_serve=True, record_decisions=True)
    decisions = guided.last_decisions
    guided.close()

    manual = RecMGManager(capacity, encoder,
                          replace(small_config, priority_mode="none",
                                  buffer_impl=buffer_impl,
                                  num_shards=num_shards))
    block = manual._SERVE_BLOCK * getattr(manual.buffer, "num_shards", 1)
    dense = encoder.dense_ids(tail)
    served = []
    monkeypatch.setattr(priorities, "SCALAR_FALLBACK", block)
    for start in range(0, dense.size, block):
        segment = dense[start:start + block]
        # Model-free, ``serve_batch`` is exactly the engine's serve.
        served.append(manual.serve_batch(segment))
        bits = model.predict(
            encoder.encode_dense_chunks(segment)).reshape(-1)[:segment.size]
        apply_caching_bits(manual.buffer, segment, bits,
                           small_config.eviction_speed)
    replayed = np.concatenate(served)
    manual.close()

    assert len(decisions) == len(tail)
    np.testing.assert_array_equal(decisions, replayed)
    assert (stats.breakdown.cache_hits
            + stats.breakdown.prefetch_hits) == int(replayed.sum())
    residents = sorted(guided.buffer.keys())
    assert residents == sorted(manual.buffer.keys())
    for key in residents:
        assert guided.buffer.priority_of(key) == \
            manual.buffer.priority_of(key)


class _KeyedCachingModel:
    """An offline caching model whose bit depends on the key and its
    position in the chunk: repeats of a key in one chunk can disagree,
    so which occurrence wins shows in the buffer state."""

    def predict(self, chunks, sel):
        dense = chunks.dense_ids[sel]
        return ((dense + np.arange(dense.shape[1])) % 3 != 0).astype(np.int8)


def test_sharded_chunk_bits_equal_scalar_replay(world, small_config,
                                                monkeypatch):
    """A 4-shard exact ``run()`` with an offline caching model writes
    every chunk's bits through the manager's per-shard split.  A
    model-free twin serves the same chunks and applies each chunk's
    bits as the applier's scalar sequence on the whole buffer, every
    key routed to its shard by the buffer's scalar protocol: decisions,
    residents, priorities and the drained victim order must agree, so
    a split that drops, misroutes or reorders a bit fails here."""
    _, tail, encoder, capacity, _ = world
    config = replace(small_config, buffer_impl="fast", num_shards=4)
    model = _KeyedCachingModel()
    guided = RecMGManager(capacity, encoder, config, caching_model=model)
    guided.run(tail, record_decisions=True)

    manual = RecMGManager(capacity, encoder, config)
    dense = encoder.dense_ids(tail)
    length = config.input_len
    chunked = dense.size // length * length
    bits_all = model.predict(encoder.encode_dense_chunks(dense[:chunked]),
                             sel=slice(None))
    monkeypatch.setattr(priorities, "SCALAR_FALLBACK", 1 << 30)
    served = []
    for index, start in enumerate(range(0, chunked, length)):
        chunk = dense[start:start + length]
        served.append(manual.serve_batch(chunk))
        apply_caching_bits(manual.buffer, chunk, bits_all[index],
                           config.eviction_speed)
    block = manual._SERVE_BLOCK * config.num_shards
    for start in range(chunked, dense.size, block):
        served.append(manual.serve_batch(dense[start:start + block]))

    np.testing.assert_array_equal(guided.last_decisions,
                                  np.concatenate(served))
    residents = sorted(guided.buffer.keys())
    assert residents == sorted(manual.buffer.keys())
    assert [guided.buffer.priority_of(key) for key in residents] == \
        [manual.buffer.priority_of(key) for key in residents]
    assert drain(guided.buffer) == drain(manual.buffer)


def test_record_decisions_under_sync_sharded(world):
    """The satellite pin: ``record_decisions=True`` must deliver one
    decision per access under the model-guided sharded engine (the
    provider sink never touches the recording stream)."""
    _, tail, encoder, capacity, model = world
    config = RecMGConfig(hidden=16, hash_buckets=256, buffer_impl="clock",
                         num_shards=2, priority_mode="sync")
    manager = RecMGManager(capacity, encoder, config, caching_model=model)
    stats = manager.run(tail, record_decisions=True)
    decisions = manager.last_decisions
    manager.close()
    assert decisions is not None
    assert len(decisions) == len(tail)
    assert decisions.dtype == bool
    assert int(decisions.sum()) == (stats.breakdown.cache_hits
                                    + stats.breakdown.prefetch_hits)


def test_none_mode_with_model_matches_legacy_offline_pass(world,
                                                          small_config):
    """``priority_mode="none"`` with a caching model still runs the
    legacy offline chunk pass — the provider seam must not have
    perturbed it (the goldens pin the model-free engines; this pins
    the model-guided legacy path)."""
    _, tail, encoder, capacity, model = world
    runs = []
    for _ in range(2):
        manager = RecMGManager(capacity, encoder,
                               replace(small_config, priority_mode="none"),
                               caching_model=model)
        stats = manager.run(tail, fast_serve=True, record_decisions=True)
        runs.append((stats, manager.last_decisions))
        manager.close()
    assert runs[0][0] == runs[1][0]
    np.testing.assert_array_equal(runs[0][1], runs[1][1])
    # And the offline pass actually fired: decisions differ from a
    # model-free run (the model is trained and must change something).
    free = RecMGManager(capacity, encoder,
                        replace(small_config, priority_mode="none"))
    free.run(tail, fast_serve=True, record_decisions=True)
    assert not np.array_equal(runs[0][1], free.last_decisions)
    free.close()


def test_serve_batch_sinks_through_provider(world, small_config):
    _, tail, encoder, capacity, model = world
    dense = encoder.dense_ids(tail)
    manager = RecMGManager(capacity, encoder,
                           replace(small_config, priority_mode="sync"),
                           caching_model=model)
    for lo in range(0, 4096, 512):
        manager.serve_batch(dense[lo:lo + 512])
    summary = manager.serving_metrics.summary()
    assert summary["inference_batches"] == 8
    assert summary["inference_mean_ms"] > 0.0
    manager.close()


@pytest.mark.parametrize("mode", PRIORITY_MODES)
def test_serving_starts_no_thread(world, mode):
    """Serving is one thread in every priority mode: building a
    manager, ``run`` and ``serve_batch`` start no thread, and ``close``
    leaves none behind."""
    _, tail, encoder, capacity, model = world
    config = RecMGConfig(hidden=16, hash_buckets=256, buffer_impl="clock",
                         priority_mode=mode)
    before = set(threading.enumerate())
    manager = RecMGManager(capacity, encoder, config, caching_model=model)
    manager.run(tail, fast_serve=True)
    manager.serve_batch(encoder.dense_ids(tail)[:512])
    assert set(threading.enumerate()) - before == set()
    manager.close()
    assert set(threading.enumerate()) - before == set()


def test_provider_contract_is_one_bits_for_per_guided_block(world,
                                                            small_config):
    """The sink's whole provider contract: every served block is
    guided, and makes exactly one ``bits_for`` call, for exactly that
    block.  The
    recording provider also defines ``observe``, so a sink that still
    fed the stream to its provider would show up here."""
    _, tail, encoder, capacity, model = world
    manager = RecMGManager(capacity, encoder,
                           replace(small_config, priority_mode="sync"),
                           caching_model=model)
    events = []
    predict = manager.priority_provider.bits_for

    class Recording:
        def observe(self, keys):
            events.append(("observe", None))

        def bits_for(self, keys):
            events.append(("bits_for", np.array(keys)))
            return predict(keys)

    manager.priority_provider = Recording()
    dense = encoder.dense_ids(tail)
    blocks = [dense[lo:lo + 256] for lo in range(0, 24 * 256, 256)]
    for block in blocks:
        manager.serve_batch(block)
    manager.close()

    assert [name for name, _ in events] == ["bits_for"] * len(blocks)
    for (_, keys), block in zip(events, blocks):
        np.testing.assert_array_equal(keys, block)


# ----------------------------------------------------------------------
# Live labels and clones
# ----------------------------------------------------------------------
def test_label_live_window_matches_optgen(world, small_config):
    _, tail, encoder, capacity, _ = world
    dense = encoder.dense_ids(tail)[:2000]
    bits = label_live_window(dense, capacity, small_config)
    budget = max(1, int(capacity * small_config.optgen_fraction))
    expected = run_optgen(Trace.from_keys(dense),
                          budget).cache_friendly.astype(np.float64)
    np.testing.assert_array_equal(bits, expected)


def test_clone_caching_model_is_independent(world, small_config):
    _, _, _, _, model = world
    clone = clone_caching_model(model)
    for (name_a, a), (name_b, b) in zip(model.state_dict().items(),
                                        clone.state_dict().items()):
        assert name_a == name_b
        np.testing.assert_array_equal(a, b)
    # Mutating a live parameter of the clone must not bleed back into
    # the served model (state_dict() itself returns copies, so the
    # mutation has to go through named_parameters()).
    name, param = next(iter(clone.named_parameters()))
    param.data[...] += 1.0
    assert not np.array_equal(model.state_dict()[name],
                              clone.state_dict()[name])
    np.testing.assert_array_equal(clone.state_dict()[name],
                                  model.state_dict()[name] + 1.0)


# ----------------------------------------------------------------------
# Applier hardening and capacity-matched labels.
# ----------------------------------------------------------------------
class _RecordingBuffer:
    """Minimal priority-write stub, scalar and bulk protocol (the
    applier picks by block length): everything is resident; records the
    keys each priority call receives."""

    def __init__(self):
        self.promoted = []
        self.demoted = []
        self.bulk_calls = 0

    def __contains__(self, key):
        return True

    def set_priority(self, key, priority):
        self.promoted.append(key)

    def demote(self, key):
        self.demoted.append(key)

    def contains_batch(self, keys):
        self.bulk_calls += 1
        return np.ones(len(keys), dtype=bool)

    def set_priority_batch(self, keys, priority):
        self.bulk_calls += 1
        self.promoted.extend(np.asarray(keys).tolist())

    def demote_batch(self, keys):
        self.bulk_calls += 1
        self.demoted.extend(np.asarray(keys).tolist())


def test_apply_caching_bits_masks_no_prediction_inline():
    """The applier itself must drop ``-1`` ("no prediction") positions
    — not rely on the manager's pre-filter.  Before the mask a direct
    caller would have promoted every unpredicted key (``-1 != 0``)."""
    buffer = _RecordingBuffer()
    keys = np.array([10, 11, 12, 13, 14], dtype=np.int64)
    bits = np.array([1, -1, 0, -1, 1], dtype=np.int8)
    apply_caching_bits(buffer, keys, bits, speed=4)
    assert buffer.promoted == [10, 14]
    assert buffer.demoted == [12]


@pytest.mark.parametrize("size", [1, 15, 64, 65, 200])
def test_apply_caching_bits_picks_its_form_by_block_length(size):
    """Up to ``repro.cache.buffer.SCALAR_FALLBACK`` keys the applier
    makes no bulk call at all, past it only bulk calls — and either way
    the same keys land in the same order, last occurrence winning."""
    rng = np.random.default_rng(size)
    keys = rng.integers(0, max(2, size // 2), size=size)
    bits = rng.integers(-1, 2, size=size).astype(np.int8)
    buffer = _RecordingBuffer()
    apply_caching_bits(buffer, keys, bits, speed=4)
    assert (buffer.bulk_calls == 0) == (size <= SCALAR_FALLBACK)
    assert buffer.bulk_calls in (0, 3)
    last = {}
    for position, (key, bit) in enumerate(zip(keys.tolist(), bits.tolist())):
        if bit >= 0:
            last[key] = (position, bit)
    ordered = sorted(last, key=lambda key: last[key][0])
    assert buffer.promoted == [key for key in ordered if last[key][1]]
    assert buffer.demoted == [key for key in ordered if not last[key][1]]


def test_apply_caching_bits_all_unpredicted_is_noop():
    buffer = _RecordingBuffer()
    apply_caching_bits(buffer, np.array([1, 2, 3], dtype=np.int64),
                       np.full(3, -1, dtype=np.int8), speed=4)
    assert buffer.promoted == [] and buffer.demoted == []


# ----------------------------------------------------------------------
# Capacity-matched labels (tentpole 2a)
# ----------------------------------------------------------------------
def test_window_targets_matches_live_labels(world, small_config):
    _, tail, encoder, capacity, _ = world
    dense = encoder.dense_ids(tail)[:1000]
    targets = window_targets(dense, capacity, small_config)
    length = small_config.input_len
    assert targets.shape == (-(-dense.size // length), length)
    bits = label_live_window(dense, capacity, small_config)
    # Head chunks are the raw labels; the tail chunk pads with its
    # last labeled bit.
    np.testing.assert_array_equal(targets.ravel()[:bits.size], bits)
    assert set(np.unique(targets.ravel()[bits.size:])) <= {bits[-1]}
    with pytest.raises(ValueError):
        window_targets(np.array([], dtype=np.int64), capacity,
                       small_config)


def test_finetune_for_capacity_returns_tuned_clone(world, small_config):
    """The offline-to-serving adapter: relabel a window at the
    *serving* capacity and fine-tune a clone — the input model's
    weights must never move."""
    _, tail, encoder, capacity, model = world
    serving_capacity = max(1, int(encoder.vocab_size * 0.05))
    dense = encoder.dense_ids(tail)[:2048]
    before = model.state_dict()
    tuned, result = finetune_for_capacity(model, dense, serving_capacity,
                                          small_config, encoder, epochs=1)
    assert tuned is not model
    for name, array in model.state_dict().items():
        np.testing.assert_array_equal(array, before[name])
    moved = any(not np.array_equal(array, before[name])
                for name, array in tuned.state_dict().items())
    assert moved
    assert len(result.losses) >= 1
    assert result.num_parameters > 0
