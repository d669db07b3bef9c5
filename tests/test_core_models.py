"""Caching and prefetch model architecture."""

import numpy as np
import pytest

from repro.core import CachingModel, FeatureEncoder, PrefetchModel
from repro.core.prefetch_model import BucketDecoder


@pytest.fixture(scope="module")
def setup(tiny_trace, tiny_recmg_config):
    encoder = FeatureEncoder(tiny_recmg_config).fit(tiny_trace)
    chunks = encoder.encode_chunks(tiny_trace.head(600))
    return tiny_recmg_config, encoder, chunks


class TestCachingModel:
    def test_logit_shape(self, setup, rng):
        config, encoder, chunks = setup
        model = CachingModel(config, encoder.num_tables, rng=rng)
        logits = model(chunks, sel=np.arange(4))
        assert logits.shape == (4, config.input_len)

    def test_predict_binary(self, setup, rng):
        config, encoder, chunks = setup
        model = CachingModel(config, encoder.num_tables, rng=rng)
        bits = model.predict(chunks, sel=np.arange(3))
        assert set(np.unique(bits)).issubset({0, 1})

    def test_stacks_grow_parameters(self, setup, rng):
        config, encoder, _ = setup
        from dataclasses import replace
        one = CachingModel(replace(config, caching_stacks=1),
                           encoder.num_tables, rng=rng)
        two = CachingModel(replace(config, caching_stacks=2),
                           encoder.num_tables, rng=rng)
        assert two.num_parameters() > one.num_parameters()


class TestPrefetchModel:
    def test_forward_shapes(self, setup, rng):
        config, encoder, chunks = setup
        model = PrefetchModel(config, encoder.num_tables, rng=rng)
        logits = model.forward_logits(chunks, sel=np.arange(4))
        assert logits.shape == (4, config.output_len, config.hash_buckets)
        points = model(chunks, sel=np.arange(4))
        assert points.shape == (4, config.output_len, config.embed_dim)

    def test_predict_requires_decoder(self, setup, rng):
        config, encoder, chunks = setup
        model = PrefetchModel(config, encoder.num_tables, rng=rng)
        with pytest.raises(RuntimeError):
            model.predict_indices(chunks, encoder, sel=np.arange(1))

    def test_predict_with_decoder(self, setup, rng):
        config, encoder, chunks = setup
        model = PrefetchModel(config, encoder.num_tables, rng=rng)
        miss_ids = rng.integers(0, encoder.vocab_size, size=100)
        model.set_decoder(BucketDecoder.from_miss_ids(miss_ids,
                                                      config.hash_buckets))
        predicted = model.predict_indices(chunks, encoder, sel=np.arange(3))
        assert predicted.shape == (3, config.output_len)
        assert predicted.min() >= 0
        assert predicted.max() < encoder.vocab_size

    def test_target_points_shape(self, setup, rng):
        config, encoder, _ = setup
        model = PrefetchModel(config, encoder.num_tables, rng=rng)
        window = rng.integers(0, config.hash_buckets, size=(3, 7))
        points = model.target_points(window)
        assert points.shape == (3, 7, config.embed_dim)
        assert not points.requires_grad


class TestBucketDecoder:
    def test_hot_candidate_wins_bucket(self):
        # ids 5 and 5+K hash to the same bucket; 5 misses more often.
        K = 64
        miss_ids = np.array([5] * 4 + [5 + K] * 2 + [7])
        decoder = BucketDecoder.from_miss_ids(miss_ids, K)
        assert decoder.bucket_hot[5] == 5
        assert decoder.bucket_hot[7] == 7

    def test_decode_buckets_masks_empty(self):
        K = 8
        decoder = BucketDecoder.from_miss_ids(np.array([3]), K)
        logits = np.zeros((2, K))
        logits[:, 5] = 10.0  # highest score but bucket 5 has no candidate
        out = decoder.decode_buckets(logits)
        assert np.all(out == 3)

    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    def test_decode_buckets_copies_and_the_in_place_form_does_not(
            self, rng, dtype):
        """``decode_buckets`` leaves a caller's logits alone in either
        dtype; ``decode_buckets_`` is the same decode with the mask
        written into the array it is handed."""
        K = 8
        sparse = BucketDecoder(np.where(np.arange(K) % 3 == 1,
                                        np.arange(K) + 100, -1), fallback=7)
        logits = rng.normal(size=(5, 4, K)).astype(dtype)
        kept = logits.copy()
        ids = sparse.decode_buckets(logits)
        assert np.array_equal(logits, kept)
        assert np.array_equal(ids, sparse.decode_buckets_(logits))
        assert logits.dtype == dtype
        assert np.array_equal(logits, np.where(sparse.bucket_hot >= 0,
                                               kept, -np.inf))
        # Nothing to mask: the in-place form has nothing to write.
        full = BucketDecoder(np.arange(K) + 100, fallback=7)
        unmasked = kept.copy()
        assert np.array_equal(full.decode_buckets_(unmasked),
                              full.decode_buckets(kept))
        assert np.array_equal(unmasked, kept)

    def test_from_miss_ids_matches_the_scalar_loop(self, rng):
        """Highest miss count per bucket, lowest dense id among equal
        counts (the strict ``>`` of the loop this replaced)."""
        K = 16
        for size in (0, 1, 40, 400):
            miss_ids = rng.integers(0, 6 * K, size=size)
            ids, counts = np.unique(miss_ids, return_counts=True)
            expected = np.full(K, -1, dtype=np.int64)
            best = np.zeros(K, dtype=np.int64)
            for dense_id, count in zip(ids, counts):
                if count > best[dense_id % K]:
                    best[dense_id % K] = count
                    expected[dense_id % K] = dense_id
            decoder = BucketDecoder.from_miss_ids(miss_ids, K)
            assert np.array_equal(decoder.bucket_hot, expected)
            assert decoder.fallback == (
                int(ids[np.argmax(counts)]) if size else 0)

    def test_decode_buckets_ties_and_fallback(self, rng):
        K = 8
        full = BucketDecoder(np.arange(K) + 100, fallback=7)
        sparse = BucketDecoder(np.where(np.arange(K) % 3 == 1,
                                        np.arange(K) + 100, -1), fallback=7)
        empty = BucketDecoder(np.full(K, -1), fallback=7)
        logits = rng.integers(0, 3, size=(5, 4, K)).astype(np.float64)
        for decoder in (full, sparse, empty):
            hot = decoder.bucket_hot
            masked = np.where(hot >= 0, logits, -np.inf)
            first_best = hot[np.argmax(masked, axis=-1)]  # first index wins
            expected = np.where(first_best >= 0, first_best, 7)
            assert np.array_equal(decoder.decode_buckets(logits), expected)
        assert np.all(empty.decode_buckets(logits) == 7)
