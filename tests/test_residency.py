"""ResidencyIndex: the dense-id membership bitmap behind the clock
backend's array-native serving path."""

import numpy as np
import pytest

from repro.cache import ResidencyIndex


class TestScalarProtocol:
    def test_add_discard_contains(self):
        idx = ResidencyIndex(16)
        assert 3 not in idx
        idx.add(3)
        assert 3 in idx
        idx.discard(3)
        assert 3 not in idx

    def test_idempotent_set_semantics(self):
        idx = ResidencyIndex(8)
        idx.add(5)
        idx.add(5)
        assert idx.count() == 1
        idx.discard(5)
        idx.discard(5)
        assert idx.count() == 0

    def test_overflow_keys_spill(self):
        """Ids outside [0, key_space) are tracked correctly, just not
        in the bitmap (the manager's unseen-key ids land here)."""
        idx = ResidencyIndex(4)
        idx.add(100)
        idx.add(-7)
        assert 100 in idx and -7 in idx
        assert idx.count() == 2
        idx.discard(100)
        assert 100 not in idx and -7 in idx

    def test_empty_key_space_spills_every_key(self):
        idx = ResidencyIndex(0)
        idx.add(0)
        idx.add_batch(np.array([5, 3 << 40], dtype=np.int64))
        assert idx.bitmap.size == 0 and idx.count() == 3
        assert idx.contains_batch([0, 1, 3 << 40]).tolist() == [
            True, False, True]

    def test_rejects_negative_key_space(self):
        with pytest.raises(ValueError):
            ResidencyIndex(-1)


class TestBatchProtocol:
    def test_contains_batch_matches_scalar(self):
        idx = ResidencyIndex(32)
        rng = np.random.default_rng(7)
        resident = rng.choice(32, size=10, replace=False)
        idx.add_batch(resident)
        probe = np.arange(-4, 40, dtype=np.int64)
        bulk = idx.contains_batch(probe)
        assert bulk.dtype == np.bool_
        assert np.array_equal(
            bulk, np.array([int(k) in idx for k in probe]))

    def test_add_discard_batch_with_overflow(self):
        idx = ResidencyIndex(8)
        keys = np.array([1, 5, 20, -3, 5], dtype=np.int64)  # dup + spill
        idx.add_batch(keys)
        assert idx.count() == 4
        assert np.array_equal(idx.contains_batch(keys),
                              np.ones(5, dtype=bool))
        idx.discard_batch(np.array([5, 20], dtype=np.int64))
        assert 1 in idx and -3 in idx
        assert 5 not in idx and 20 not in idx

    def test_empty_batches_are_noops(self):
        idx = ResidencyIndex(8)
        empty = np.zeros(0, dtype=np.int64)
        idx.add_batch(empty)
        idx.discard_batch(empty)
        assert idx.contains_batch(empty).shape == (0,)
        assert idx.count() == 0

    def test_bitmap_gather_is_exposed(self):
        """Hot call sites may gather ``bitmap[segment]`` directly for
        in-range segments."""
        idx = ResidencyIndex(16)
        idx.add_batch(np.array([2, 3, 9]))
        segment = np.array([9, 2, 4], dtype=np.int64)
        assert np.array_equal(idx.bitmap[segment],
                              np.array([True, True, False]))


class TestBookkeeping:
    def test_resident_keys_iterates_both_ranges(self):
        idx = ResidencyIndex(8)
        idx.add_batch(np.array([6, 1, 99]))
        assert sorted(idx.resident_keys()) == [1, 6, 99]

    def test_clear_resets_everything(self):
        idx = ResidencyIndex(8)
        idx.add_batch(np.array([0, 7, 50]))
        idx.clear()
        assert idx.count() == 0
        assert not idx.bitmap.any()
        assert 50 not in idx
