"""Feature encoding for the RecMG models."""

import tracemalloc

import numpy as np
import pytest

from repro.core import FeatureEncoder, RecMGConfig
from repro.traces import ROW_BITS, Trace


@pytest.fixture(scope="module")
def encoder(tiny_trace, tiny_recmg_config):
    return FeatureEncoder(tiny_recmg_config).fit(tiny_trace)


class TestEncoder:
    def test_requires_fit(self, tiny_trace, tiny_recmg_config):
        encoder = FeatureEncoder(tiny_recmg_config)
        with pytest.raises(RuntimeError):
            encoder.dense_ids(tiny_trace)
        with pytest.raises(RuntimeError):
            encoder.encode_chunks(tiny_trace)

    def test_vocab_matches_unique(self, encoder, tiny_trace):
        assert encoder.vocab_size == tiny_trace.num_unique
        assert encoder.num_tables == tiny_trace.num_tables

    def test_dense_ids_in_range(self, encoder, tiny_trace):
        dense = encoder.dense_ids(tiny_trace)
        assert dense.min() >= 0
        assert dense.max() < encoder.vocab_size

    def test_unseen_keys_get_unique_ids(self, encoder):
        foreign = Trace.from_pairs([(999, 999999)])
        dense = encoder.dense_ids(foreign)
        # Unseen keys must not alias trained vectors (false buffer hits).
        assert dense[0] >= encoder.vocab_size
        assert encoder.freq_values(dense)[0] == 0.0
        assert encoder.normalize(dense)[0] == 1.0

    def test_vectorized_lookups_match_dicts(self, encoder, tiny_trace):
        """The searchsorted bulk lookups must agree with key->dense and
        table->id dictionaries over the fit trace access-for-access,
        including unseen keys/tables."""
        key_to_dense = {int(key): i
                        for i, key in enumerate(np.unique(tiny_trace.keys()))}
        table_to_id = {int(table): i for i, table
                       in enumerate(np.unique(tiny_trace.table_ids))}
        mixed = Trace(
            np.concatenate([tiny_trace.table_ids[:300],
                            np.array([991, 992], dtype=np.int64)]),
            np.concatenate([tiny_trace.row_ids[:300],
                            np.array([123456, 99], dtype=np.int64)]),
        )
        keys = mixed.keys()
        vocab = encoder.vocab_size
        expected_dense = np.array(
            [key_to_dense.get(int(key), vocab + int(key))
             for key in keys], dtype=np.int64)
        dense = encoder.dense_ids(mixed)
        assert np.array_equal(dense, expected_dense)
        num = max(1, encoder.num_tables)
        expected_tables = np.array(
            [table_to_id.get(int(t), int(t) % num)
             for t in mixed.table_ids], dtype=np.int64)
        assert np.array_equal(encoder.tables_for_dense(dense),
                              expected_tables)
        every = np.arange(vocab)
        assert np.array_equal(
            encoder.tables_for_dense(every),
            [table_to_id[int(key) >> ROW_BITS] for key in key_to_dense])
        chunks = encoder.encode_dense_chunks(dense)
        assert np.array_equal(chunks.table_ids.reshape(-1)[:dense.size],
                              expected_tables)

    def test_refit_invalidates_lookup_mirrors(self, tiny_trace,
                                              tiny_recmg_config):
        """Regression: re-fitting must replace the whole vocabulary,
        not serve lookups from the previous one."""
        enc = FeatureEncoder(tiny_recmg_config)
        small = Trace.from_pairs([(0, 1), (0, 2), (1, 3)])
        enc.fit(small)
        enc.dense_ids(small)
        enc.fit(tiny_trace)
        dense = enc.dense_ids(tiny_trace)
        assert dense.min() >= 0
        assert dense.max() < enc.vocab_size
        assert enc.tables_for_dense(dense).max() < enc.num_tables

    def test_normalize_roundtrip(self, encoder):
        dense = np.array([0, encoder.vocab_size // 2, encoder.vocab_size - 1])
        values = encoder.normalize(dense)
        assert values.min() >= 0.0 and values.max() <= 1.0
        scaled = np.rint(values * (encoder.vocab_size - 1)).astype(np.int64)
        assert np.array_equal(scaled, dense)

    def test_empty_fit_encodes_every_id_as_unseen(self, tiny_recmg_config):
        """An encoder fitted on an empty trace has no vocabulary, so
        every id is unseen: frequency 0, never an ``IndexError``."""
        enc = FeatureEncoder(tiny_recmg_config).fit(Trace.from_pairs([]))
        assert enc.fitted and enc.vocab_size == 0 and enc.num_tables == 0
        ids = np.arange(tiny_recmg_config.input_len)
        assert np.array_equal(enc.freq_values(ids), np.zeros(len(ids)))
        chunks = enc.encode_dense_chunks(ids)
        assert np.array_equal(chunks.freq, np.zeros((1, len(ids))))
        assert np.array_equal(chunks.table_ids, np.zeros((1, len(ids))))
        foreign = Trace.from_pairs([(3, 7), (5, 1)])
        assert np.array_equal(enc.dense_ids(foreign), foreign.keys())

    def test_empty_fit_normalizes_every_id_to_one(self, tiny_recmg_config):
        """With no vocabulary every id is unseen, the unseen key
        ``(0, 0)`` (dense id 0) included, so every id maps to 1.0."""
        enc = FeatureEncoder(tiny_recmg_config).fit(Trace.from_pairs([]))
        dense = enc.dense_ids(Trace.from_pairs([(0, 0), (1, 2)]))
        assert np.array_equal(enc.normalize(dense), [1.0, 1.0])

    def test_fit_retains_arrays_not_per_key_objects(self, tiny_recmg_config):
        """The fitted vocabulary is a few int64/float64 arrays: under
        48 bytes per key once fitted (a key->id dict alone costs over
        100), measured after a warm-up fit so one-time allocations are
        not billed to it."""
        rng = np.random.default_rng(7)
        trace = Trace(rng.integers(0, 16, size=60_000),
                      rng.integers(0, 1 << 30, size=60_000))
        FeatureEncoder(tiny_recmg_config).fit(trace)
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            enc = FeatureEncoder(tiny_recmg_config).fit(trace)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            if started:
                tracemalloc.stop()
        assert enc.vocab_size > 50_000
        assert retained / enc.vocab_size < 48, retained / enc.vocab_size

    def test_dense_ids_peak_holds_three_id_arrays(self, tiny_recmg_config):
        """``dense_ids`` on a 100k-access trace, half of it unseen, peaks
        under three full-length int64 arrays (the keys, the ranks and
        one lookup temporary) plus one bool mask and a small slack;
        the ids are the ranks, and ``vocab_size + key`` where unseen."""
        rng = np.random.default_rng(5)
        n = 100_000
        trace = Trace(rng.integers(0, 8, size=n),
                      rng.integers(0, 20_000, size=n))
        enc = FeatureEncoder(tiny_recmg_config).fit(trace[:n // 2])
        expected = enc.dense_ids(trace)  # warm-up, and the reference ids
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            dense = enc.dense_ids(trace)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        assert peak < 3 * 8 * n + n + (1 << 16), peak / (8 * n)
        keys = trace.keys()
        known = np.isin(keys, np.unique(trace[:n // 2].keys()))
        assert 0.2 < known.mean() < 0.8
        assert np.array_equal(dense, expected)
        assert np.array_equal(dense[~known], enc.vocab_size + keys[~known])
        assert np.array_equal(
            dense[known], np.searchsorted(enc.vocabulary()[0], keys[known]))

    def test_freq_reflects_popularity(self, encoder, tiny_trace):
        dense = encoder.dense_ids(tiny_trace)
        counts = np.bincount(dense, minlength=encoder.vocab_size)
        hottest = int(np.argmax(counts))
        coldest = int(np.argmin(counts))
        freq = encoder.freq_values(np.array([hottest, coldest]))
        assert freq[0] >= freq[1]
        assert freq.max() <= 1.0


class TestChunks:
    def test_shapes(self, encoder, tiny_trace, tiny_recmg_config):
        chunks = encoder.encode_chunks(tiny_trace.head(500))
        length = tiny_recmg_config.input_len
        assert chunks.table_ids.shape[1] == length
        assert chunks.hashed_rows.shape == chunks.table_ids.shape
        assert chunks.norm_index.shape == chunks.table_ids.shape
        assert chunks.freq.shape == chunks.table_ids.shape
        assert len(chunks.starts) == len(chunks)

    def test_nonoverlapping_default(self, encoder, tiny_trace,
                                    tiny_recmg_config):
        chunks = encoder.encode_chunks(tiny_trace.head(500))
        assert np.all(np.diff(chunks.starts) == tiny_recmg_config.input_len)

    def test_reshaped_chunks_match_the_gather(self, encoder, tiny_trace,
                                              tiny_recmg_config):
        """Chunks are reshaped per-access arrays; they must hold what a
        per-chunk slice of each channel, computed access by access,
        selects, with the ragged tail dropped."""
        length = tiny_recmg_config.input_len
        head = tiny_trace.head(50 * length + 3)
        chunks = encoder.encode_chunks(head)
        dense = encoder.dense_ids(head)
        channels = {
            "table_ids": encoder.tables_for_dense(dense),
            "hashed_rows": dense % tiny_recmg_config.hash_buckets,
            "norm_index": encoder.normalize(dense),
            "freq": encoder.freq_values(dense),
            "dense_ids": dense,
        }
        assert len(chunks) == 50
        for index, start in enumerate(range(0, 50 * length, length)):
            assert chunks.starts[index] == start
            for field, values in channels.items():
                assert np.array_equal(getattr(chunks, field)[index],
                                      values[start:start + length]), field

    def test_too_short_trace_raises(self, encoder, tiny_trace):
        with pytest.raises(ValueError):
            encoder.encode_chunks(tiny_trace.head(3))

    def test_hashed_rows_bounded(self, encoder, tiny_trace,
                                 tiny_recmg_config):
        chunks = encoder.encode_chunks(tiny_trace.head(500))
        assert chunks.hashed_rows.max() < tiny_recmg_config.hash_buckets


class TestConfigValidation:
    def test_bad_lengths(self):
        with pytest.raises(ValueError):
            RecMGConfig(input_len=0)
        with pytest.raises(ValueError):
            RecMGConfig(input_len=5, output_len=6)

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            RecMGConfig(alpha=1.0)

    def test_bad_window_ratio(self):
        with pytest.raises(ValueError):
            RecMGConfig(window_ratio=0)

    def test_eval_window(self):
        config = RecMGConfig(output_len=5, window_ratio=3)
        assert config.eval_window == 15
