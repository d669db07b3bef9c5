"""Trace datatypes and statistics."""

import numpy as np
import pytest

from repro.traces import (
    Access, Trace, pack_key, remap_to_dense, summarize, top_fraction_share,
    unpack_key,
)


class TestKeys:
    def test_pack_unpack_roundtrip(self):
        for table, row in [(0, 0), (3, 12345), (855, 2 ** 39)]:
            assert unpack_key(pack_key(table, row)) == (table, row)

    def test_access_key(self):
        assert Access(2, 5).key == pack_key(2, 5)


class TestTrace:
    def test_validation_mismatched_lengths(self):
        with pytest.raises(ValueError):
            Trace(np.zeros(3, np.int64), np.zeros(4, np.int64))

    def test_validation_offsets(self):
        with pytest.raises(ValueError):
            Trace(np.zeros(3, np.int64), np.zeros(3, np.int64),
                  query_offsets=np.array([0, 2]))

    def test_from_pairs_and_iter(self):
        trace = Trace.from_pairs([(0, 1), (2, 3)])
        assert len(trace) == 2
        assert list(trace) == [Access(0, 1), Access(2, 3)]

    def test_unique_and_tables(self):
        trace = Trace.from_pairs([(0, 1), (0, 1), (1, 1)])
        assert trace.num_unique == 2
        assert trace.num_tables == 2

    def test_slicing_and_head(self):
        trace = Trace.from_pairs([(0, i) for i in range(10)])
        assert len(trace[2:5]) == 3
        assert len(trace.head(4)) == 4

    def test_concatenate(self):
        a = Trace.from_pairs([(0, 1)])
        b = Trace.from_pairs([(1, 2)])
        merged = Trace.concatenate([a, b])
        assert len(merged) == 2

    def test_split_fractions(self):
        trace = Trace.from_pairs([(0, i) for i in range(10)])
        train, test = trace.split(0.7)
        assert len(train) == 7 and len(test) == 3
        with pytest.raises(ValueError):
            trace.split(1.5)

    def test_pooling_factors(self, tiny_trace):
        factors = tiny_trace.pooling_factors()
        assert factors.sum() == len(tiny_trace)
        assert factors.min() >= 1

    def test_pooling_requires_offsets(self):
        trace = Trace.from_pairs([(0, 1)])
        with pytest.raises(ValueError):
            trace.pooling_factors()

    def test_from_keys_roundtrip(self):
        trace = Trace.from_pairs([(3, 7), (1, 9)])
        again = Trace.from_keys(trace.keys())
        assert np.array_equal(again.table_ids, trace.table_ids)
        assert np.array_equal(again.row_ids, trace.row_ids)


class TestRemap:
    def test_dense_ids_contiguous(self):
        trace = Trace.from_pairs([(1, 5), (0, 3), (1, 5), (2, 1)])
        dense, keys = remap_to_dense(trace)
        assert set(dense.tolist()) == {0, 1, 2}
        assert np.array_equal(keys, np.unique(trace.keys()))
        assert np.array_equal(keys[dense], trace.keys())

    def test_dense_order_is_sorted_by_key(self):
        trace = Trace.from_pairs([(1, 0), (0, 0)])
        dense, _ = remap_to_dense(trace)
        # (0,0) has the smaller packed key -> dense id 0.
        assert dense.tolist() == [1, 0]


class TestStats:
    def test_top_fraction_share_bounds(self, tiny_trace):
        share = top_fraction_share(tiny_trace, 0.2)
        assert 0.0 < share <= 1.0
        assert top_fraction_share(tiny_trace, 1.0) == pytest.approx(1.0)

    def test_top_fraction_validates(self, tiny_trace):
        with pytest.raises(ValueError):
            top_fraction_share(tiny_trace, 0.0)

    def test_summarize(self, tiny_trace):
        summary = summarize(tiny_trace)
        assert summary.num_accesses == len(tiny_trace)
        assert summary.num_unique == tiny_trace.num_unique
        assert summary.mean_pooling > 1

