"""The fused chunk pass (``FastPriorityBuffer.serve_chunks``) against
its oracle, ``run()``'s per-chunk serve -> caching-bits -> prefetch
triple (``fast_serve=False``): two managers over equal dense ``fast``
buffers, one scripted stub standing in for both models, and after
every ``run()`` call the whole buffer and manager state compared —
entry arrays, spillover dict and set, the four scalars, the victim
queue's records, the prefetch tags, all six counters and the recorded
decisions."""

import numpy as np
import pytest

from repro.cache import FastPriorityBuffer, PriorityBuffer
from repro.core import RecMGConfig, RecMGManager
from repro.core.features import FeatureEncoder
from repro.traces import Trace


class _Scripted:
    """Both models as one stub: hands back the rows the test wrote for
    this ``run()`` call."""

    bits = preds = None

    def predict(self, chunks, sel=None):
        return self.bits[sel]

    def predict_indices(self, chunks, encoder, sel=None):
        return self.preds[sel]


def _trace(rows):
    return Trace.from_pairs([(0, int(row)) for row in rows])


def _pair(head_rows, capacity, **config):
    """The encoder fitted on ``head_rows``, the scripted stub, and a
    (fused, oracle) manager pair serving through it."""
    config = RecMGConfig(**config)
    encoder = FeatureEncoder(config).fit(_trace(head_rows))
    models = _Scripted()
    managers = [RecMGManager(capacity, encoder, config, caching_model=models,
                             prefetch_model=models) for _ in range(2)]
    assert all(_backend(manager).residency is not None
               for manager in managers)
    return encoder, models, managers


def _backend(manager):
    """The manager's one shard backend, the buffer the fused pass runs
    on."""
    return manager.buffer.shards[0].backend


def _state(manager):
    buffer = _backend(manager)
    breakdown = manager.breakdown
    return {
        "bitmap": buffer.residency.bitmap.tobytes(),
        "expiry": buffer._expiry_of.tobytes(),
        "seqno": buffer._seq_of.tobytes(),
        "over": list(buffer._over.items()),
        "overflow": sorted(buffer.residency._overflow),
        "scalars": (buffer._age, buffer._next_seq, buffer._min_seq,
                    buffer._size),
        "victims": buffer._victims,
        "tags": sorted(manager._prefetched),
        "counters": (breakdown.cache_hits, breakdown.prefetch_hits,
                     breakdown.on_demand, manager.evictions,
                     manager.prefetches_issued, manager.prefetches_useful),
        "decisions": manager.last_decisions.tolist(),
    }


def _run_both(models, managers, rows, bits, preds):
    """One ``run()`` call on each side; the fused side must really
    take the pass, and the two states must be equal."""
    fused, oracle = managers
    models.bits = np.asarray(bits, dtype=np.int8)
    models.preds = np.asarray(preds, dtype=np.int64)
    trace = _trace(rows)
    passes = []
    backend = _backend(fused)
    inner = type(backend).serve_chunks.__get__(backend)
    backend.serve_chunks = lambda *args: passes.append(1) or inner(*args)
    fused.run(trace, record_decisions=True)
    oracle.run(trace, fast_serve=False, record_decisions=True)
    assert passes == [1]
    assert _state(fused) == _state(oracle)
    assert len(fused.buffer) == backend.residency.count()
    return fused


@pytest.mark.parametrize("capacity", [3, 12, 40])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_blocks_match_the_oracle(seed, capacity):
    """Seeded fuzz over four ``run()`` calls with a ragged tail each:
    >= 15 % spillover ids, keys repeated inside a chunk under
    conflicting bits, ``-1`` bits, and predictions that are resident,
    repeated within their row, spillover, and more than the budget."""
    rng = np.random.default_rng(seed)
    encoder, models, managers = _pair(np.arange(60), capacity)
    length = encoder.config.input_len
    assert encoder.config.max_prefetch_per_chunk < 7
    pool = encoder.dense_ids(_trace(np.arange(90)))
    conflicts = 0
    for _ in range(4):
        rows = rng.integers(0, 80, size=30 * length + 7)
        dense = encoder.dense_ids(_trace(rows))
        assert np.mean(dense >= encoder.vocab_size) >= 0.15
        chunks = dense[:30 * length].reshape(30, length)
        bits = rng.integers(-1, 2, size=chunks.shape)
        preds = rng.choice(pool, size=(30, 7))
        preds[:, 1] = preds[:, 0]        # repeated within one row
        preds[:, 2] = chunks[:, -1]      # just served: resident
        for chunk, row in zip(chunks.tolist(), bits.tolist()):
            seen = {}
            for key, bit in zip(chunk, row):
                conflicts += seen.setdefault(key, bit) != bit
        fused = _run_both(models, managers, rows, bits, preds)
    assert conflicts > 0
    assert fused.evictions > 0 and fused.breakdown.prefetch_hits > 0
    assert 0 < fused.prefetches_useful < fused.prefetches_issued
    assert np.any(pool[_backend(fused).contains_batch(pool)]
                  >= encoder.vocab_size)


def test_prefetch_tag_dropped_by_eviction_and_consumed_by_hit():
    """Two keys prefetched in one row: one is demanded while resident
    (a prefetch hit), the other is evicted first and then re-misses."""
    rows = [1, 2, 3, 10, 4, 5, 6, 7, 11]
    encoder, models, managers = _pair(sorted(set(rows)), 4, input_len=3,
                                      output_len=2)
    of = dict(zip(rows, encoder.dense_ids(_trace(rows)).tolist()))
    preds = [[of[10], of[11]], [of[10], of[10]], [of[6], of[7]]]
    fused = _run_both(models, managers, rows, np.full((3, 3), -1), preds)
    assert (fused.prefetches_issued, fused.prefetches_useful) == (2, 1)
    assert fused.last_decisions.tolist() == [
        False, False, False, True, False, False, False, False, False]
    assert fused._prefetched == set()


def test_victim_queue_drains_and_refills_inside_one_pass():
    """A buffer far smaller than the block: the queue holds at most
    ``capacity`` records, so one pass rebuilds it many times."""
    rng = np.random.default_rng(5)
    encoder, models, managers = _pair(np.arange(40), 6)
    length = encoder.config.input_len
    refills = []
    buffer = _backend(managers[0])
    inner = buffer._refill_victims
    buffer._refill_victims = lambda: refills.append(1) or inner()
    rows = rng.integers(0, 60, size=40 * length)
    chunks = encoder.dense_ids(_trace(rows)).reshape(40, length)
    _run_both(models, managers, rows, rng.integers(0, 2, size=chunks.shape),
              chunks[:, :5])
    assert len(refills) > 5 and buffer._victims is not None


def test_demotes_cross_the_queue_bound_and_the_queue_is_dropped():
    """Averse bits on an all-hit stretch push demote records with no
    eviction to pop them: past ``_VICTIM_QUEUE + capacity`` the queue
    is dropped, and the next miss rebuilds it."""
    rng = np.random.default_rng(7)
    capacity = 20
    encoder, models, managers = _pair(np.arange(60), capacity)
    length = encoder.config.input_len

    def serve(rows, bit):
        chunks = encoder.dense_ids(_trace(rows)).reshape(-1, length)
        return _run_both(models, managers, rows,
                         np.full(chunks.shape, bit), chunks[:, :1])

    fused = serve(rng.integers(0, 60, size=10 * length), 1)
    assert fused.evictions > 0 and _backend(fused)._victims is not None
    resident = sorted(key for key in fused.buffer.keys()
                      if key < encoder.vocab_size)[:length]
    evictions = fused.evictions
    serve(np.tile(resident, (1024 + capacity) // length + 2), 0)
    assert fused.evictions == evictions and _backend(fused)._victims is None
    serve(rng.integers(0, 60, size=10 * length), 0)
    assert (fused.evictions > evictions
            and _backend(fused)._victims is not None)


def test_priorities_far_above_the_eviction_count_leave_the_queue_unbuilt():
    """No entry ever reaches priority zero and nothing is demoted:
    every eviction is ``_refill_victims``' own O(capacity) choice."""
    rng = np.random.default_rng(9)
    encoder, models, managers = _pair(np.arange(40), 10,
                                      eviction_speed=10_000)
    length = encoder.config.input_len
    rows = rng.integers(0, 60, size=12 * length + 4)
    chunks = encoder.dense_ids(_trace(rows))[:12 * length].reshape(12, length)
    fused = _run_both(models, managers, rows,
                      rng.choice([-1, 1], size=chunks.shape), chunks[:, :3])
    assert fused.evictions > 50 and _backend(fused)._victims is None


def test_replay_shape_takes_the_fused_pass(trained_recmg, tiny_trace,
                                           tiny_capacity, monkeypatch):
    """The ``recmg-replay`` shape — encoder fitted on a head, both
    trained models deployed, the tail (spillover ids included)
    replayed — is served without one scalar ``_demand_access``: a pass
    that silently declined would raise here, not read as "no change"."""
    _, tail = tiny_trace.split(0.6)
    length = trained_recmg.config.input_len
    tail = tail[:len(tail) // length * length]
    manager = trained_recmg.deploy(tiny_capacity)
    assert np.any(manager.encoder.dense_ids(tail)
                  >= manager.encoder.vocab_size)

    def declined(key):
        raise AssertionError("the fused pass declined this run")

    monkeypatch.setattr(manager, "_demand_access", declined)
    stats = manager.run(tail)
    assert stats.breakdown.total == len(tail)
    assert stats.evictions > 0 and stats.prefetches_issued > 0


@pytest.mark.parametrize("fault", ["non-integer prediction",
                                   "missing bits row"])
def test_a_raising_pass_leaves_the_buffer_consistent(fault):
    """Counters live in locals during the pass; an input that raises
    midway must not leave them behind the bitmap."""
    rng = np.random.default_rng(11)
    capacity, length = 30, 15
    buffer = FastPriorityBuffer(capacity, key_space=50)
    bits = rng.integers(0, 2, size=(8, length))
    preds = rng.integers(0, 70, size=(8, 4))
    buffer.serve_chunks(rng.integers(0, 10, size=8 * length), length, bits,
                        None, 4, 5, set())
    assert len(buffer) < capacity
    if fault == "missing bits row":
        bits = bits[:5]
    else:
        preds = preds.astype(object)
        preds[5, 2] = 2.5
    age = buffer._age
    with pytest.raises(IndexError):
        buffer.serve_chunks(rng.integers(0, 70, size=8 * length), length,
                            bits, preds, 4, 5, set())
    assert buffer._age > age
    assert len(buffer) == buffer.residency.count() == capacity
    _, _, seqnos = buffer.export_state()
    assert buffer._min_seq <= seqnos.min() and seqnos.max() < buffer._next_seq
    reference = PriorityBuffer(capacity)
    reference.import_state(*buffer.export_state())
    assert ([buffer.evict_one() for _ in range(capacity)]
            == [reference.evict_one() for _ in range(capacity)])
