"""Membership of the three buffer backends, each answered from the one
record the backend keeps per entry: the reference backend's entry dict,
and the ``id -> slot`` map (a vector over the universe plus a spillover
dict) of the slot layout the fast and clock backends share.  Every test runs
on all three: ids inside the universe, ids above it, negative ids and
the empty universe must answer alike."""

import numpy as np
import pytest

from repro.cache import BUFFER_IMPLS, make_buffer


def _backends(key_space, capacity=8):
    return [make_buffer(impl, capacity, key_space=key_space)
            for impl in sorted(BUFFER_IMPLS)]


class TestScalarProtocol:
    def test_add_discard_contains(self):
        for buf in _backends(16):
            assert 3 not in buf
            buf.insert(3, 1)
            assert 3 in buf
            assert buf.evict_one() == 3
            assert 3 not in buf

    def test_idempotent_set_semantics(self):
        """A second insert of a resident id refreshes it; it is still
        one member, and one eviction removes it."""
        for buf in _backends(8):
            buf.insert(5, 1)
            buf.insert(5, 2)
            assert len(buf) == 1 and list(buf.keys()) == [5]
            assert buf.evict_batch(1) == [5]
            assert len(buf) == 0 and 5 not in buf
            with pytest.raises(RuntimeError):
                buf.evict_one()

    def test_overflow_keys_spill(self):
        """Ids outside [0, key_space) are members like any other (the
        manager's unseen-key ids land there)."""
        for buf in _backends(4):
            buf.insert(100, 0)
            buf.insert(-7, 5)
            assert 100 in buf and -7 in buf
            assert len(buf) == 2
            assert buf.contains_batch([100, -7, 3]).tolist() == [
                True, True, False]
            assert buf.evict_one() == 100
            assert 100 not in buf and -7 in buf

    def test_empty_key_space_spills_every_key(self):
        for buf in _backends(0):
            buf.insert(0, 1)
            buf.insert(5, 1)
            buf.insert(3 << 40, 1)
            assert buf.per_id_nbytes() == 0 and len(buf) == 3
            assert buf.contains_batch([0, 1, 3 << 40]).tolist() == [
                True, False, True]

    def test_rejects_negative_key_space(self):
        for cls in BUFFER_IMPLS.values():
            with pytest.raises(ValueError):
                cls(4, key_space=-1)


class TestBatchProtocol:
    def test_contains_batch_matches_scalar(self):
        rng = np.random.default_rng(7)
        resident = rng.choice(32, size=10, replace=False)
        probe = np.arange(-4, 40, dtype=np.int64)
        for buf in _backends(32, capacity=10):
            buf.serve_segment(resident, 1)
            bulk = buf.contains_batch(probe)
            assert bulk.dtype == np.bool_
            assert np.array_equal(
                bulk, np.array([int(k) in buf for k in probe]))

    def test_add_discard_batch_with_overflow(self):
        keys = np.array([1, 5, 20, -3, 5], dtype=np.int64)  # dup + spill
        for buf in _backends(8, capacity=6):
            buf.serve_segment(keys, 1)
            assert len(buf) == 4
            assert np.array_equal(buf.contains_batch(keys),
                                  np.ones(5, dtype=bool))
            buf.demote_batch(np.array([5, 20], dtype=np.int64))
            assert sorted(buf.evict_batch(2)) == [5, 20]
            assert 1 in buf and -3 in buf
            assert 5 not in buf and 20 not in buf

    def test_empty_batches_are_noops(self):
        empty = np.zeros(0, dtype=np.int64)
        for buf in _backends(8):
            assert buf.serve_segment(empty, 1)[0] == 0
            buf.set_priority_batch(empty, 1)
            buf.demote_batch(empty)
            assert buf.evict_batch(0) == []
            found = buf.contains_batch(empty)
            assert found.shape == (0,) and found.dtype == np.bool_
            assert len(buf) == 0

    def test_bitmap_gather_is_exposed(self):
        """An in-universe segment's membership is one gather over the
        array backends' own per-id vector."""
        segment = np.array([9, 2, 4], dtype=np.int64)
        for buf in _backends(16):
            buf.serve_segment(np.array([2, 3, 9]), 1)
            assert buf.contains_batch(segment).tolist() == [
                True, True, False]
        fast = make_buffer("fast", 8, key_space=16)
        clock = make_buffer("clock", 8, key_space=16)
        for buf in (fast, clock):
            buf.serve_segment(np.array([2, 3, 9]), 1)
        for buf in (fast, clock):
            assert (buf._slot_of[segment] >= 0).tolist() == [
                True, True, False]


class TestBookkeeping:
    def test_resident_keys_iterates_both_ranges(self):
        for buf in _backends(8):
            buf.serve_segment(np.array([6, 1, 99]), 1)
            assert sorted(buf.keys()) == [1, 6, 99]

    def test_clear_resets_everything(self):
        for buf in _backends(8):
            buf.serve_segment(np.array([0, 7, 50]), 1)
            assert sorted(buf.evict_batch(len(buf))) == [0, 7, 50]
            assert len(buf) == 0 and list(buf.keys()) == []
            assert not buf.contains_batch(np.arange(-2, 60)).any()
            assert 50 not in buf

    def test_array_backends_share_one_per_id_footprint(self):
        """The fast and clock backends keep the same per-id state for
        one universe — the shared layout's ``id -> slot`` vector and
        first-touch scratch, 12 bytes per id — and every other array
        scales with capacity."""
        key_space = 4096
        fast = make_buffer("fast", 64, key_space=key_space)
        clock = make_buffer("clock", 64, key_space=key_space)
        assert fast.per_id_nbytes() == clock.per_id_nbytes() == 12 * key_space
