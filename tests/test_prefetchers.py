"""Baseline prefetchers and evaluation metrics."""

import numpy as np
import pytest

from repro.prefetch import (
    BertiPrefetcher, BestOffsetPrefetcher, BingoPrefetcher,
    DominoPrefetcher, MicroArmedBanditPrefetcher, NullPrefetcher,
    Prefetcher, StridePrefetcher, TransFetchPrefetcher,
    VoyagerPrefetcher, VoyagerScaleError, estimate_memory_bytes,
    evaluate_prefetcher, run_breakdown,
)
from repro.dlrm import BufferClassifier
from repro.nn import Adam, Tensor, bce_with_logits, cross_entropy
from repro.prefetch.voyager import _VoyagerModel
from repro.traces import Trace, remap_to_dense


def trace_of(keys, tables=None):
    tables = tables if tables is not None else [0] * len(keys)
    return Trace(np.asarray(tables, np.int64), np.asarray(keys, np.int64))


class PerfectNextPrefetcher(Prefetcher):
    """Cheating oracle used to validate the metric plumbing."""

    name = "oracle"

    def __init__(self, keys):
        self.keys = list(keys)
        self.cursor = -1

    def observe(self, key, pc=0, hit=True):
        self.cursor += 1
        if self.cursor + 1 < len(self.keys):
            return [int(self.keys[self.cursor + 1])]
        return []


class TestEvaluation:
    def test_oracle_scores_perfectly(self):
        keys = list(range(100)) * 2
        trace = trace_of(keys)
        evaluation = evaluate_prefetcher(PerfectNextPrefetcher(trace.keys()),
                                         trace, window=4)
        assert evaluation.correctness == pytest.approx(1.0)
        assert evaluation.coverage > 0.2
        assert evaluation.accuracy == pytest.approx(1.0)

    def test_null_prefetcher_zero(self, tiny_trace):
        evaluation = evaluate_prefetcher(NullPrefetcher(),
                                         tiny_trace.head(500))
        assert evaluation.total_prefetches == 0
        assert evaluation.correctness == 0.0
        assert evaluation.coverage == 0.0


class TestStride:
    def test_detects_constant_stride(self):
        pf = StridePrefetcher(degree=2, confirm=2)
        outputs = [pf.observe(k, pc=1) for k in range(0, 40, 4)]
        assert outputs[-1] == [40, 44]

    def test_no_prediction_on_noise(self, rng):
        pf = StridePrefetcher()
        outputs = [pf.observe(int(k), pc=1)
                   for k in rng.integers(0, 10_000, size=50)]
        assert sum(len(o) for o in outputs) <= 2


class TestBOP:
    def test_learns_offset(self):
        pf = BestOffsetPrefetcher(offsets=[1, 2, 3], degree=1)
        last = []
        for k in range(0, 900, 3):
            last = pf.observe(k)
        assert last == [k + 3]


class TestDomino:
    def test_replays_recorded_sequence(self):
        pf = DominoPrefetcher(degree=3)
        pattern = [5, 9, 2, 7, 4]
        for _ in range(3):
            for k in pattern:
                out = pf.observe(k)
        # After training, seeing the pattern start should predict its tail.
        out = pf.observe(5)
        assert 9 in out or 2 in out

    def test_metadata_budget_bounds_tables(self):
        pf = DominoPrefetcher(metadata_fraction=0.1)
        for k in range(2000):
            pf.observe(k % 500)
        assert len(pf._index1) <= max(16, int(500 * 0.1))


class TestBingo:
    def test_replays_footprint(self):
        pf = BingoPrefetcher(region_size=8, active_window=4)
        # Visit region 0 with offsets {0, 1, 2}; then idle; then re-trigger.
        for k in [0, 1, 2]:
            pf.observe(k, pc=3)
        for k in [100, 200, 300, 400, 500]:
            pf.observe(k, pc=9)
        out = pf.observe(0, pc=3)
        assert set(out) >= {1, 2}

    def test_no_spatial_pattern_no_prefetch(self, rng):
        pf = BingoPrefetcher()
        outs = [pf.observe(int(k)) for k in rng.integers(0, 10**6, size=200)]
        assert sum(len(o) for o in outs) < 20


class TestBerti:
    def test_learns_local_delta(self):
        pf = BertiPrefetcher(latency=1, confidence_threshold=0.2)
        out = []
        for k in range(0, 600, 7):
            out = pf.observe(k, pc=2)
        # On a pure stride-7 stream every confident delta is a multiple
        # of the stride.
        assert out
        assert all((o - k) % 7 == 0 for o in out)


class TestMAB:
    def test_runs_and_selects(self, tiny_trace):
        pf = MicroArmedBanditPrefetcher(epoch=64)
        evaluation = evaluate_prefetcher(pf, tiny_trace.head(1500))
        assert evaluation.total_prefetches >= 0
        assert pf._counts.sum() > 0


class TestTransFetch:
    def test_trains_and_loss_decreases(self, tiny_trace):
        pf = TransFetchPrefetcher(context=4, dim=8, delta_range=32,
                                  predict_every=4)
        losses = pf.train(tiny_trace.head(1500), epochs=2, max_samples=300)
        assert losses[-1] < losses[0]
        assert pf.trained

    def test_predicts_within_delta_range(self, tiny_trace):
        pf = TransFetchPrefetcher(context=4, dim=8, delta_range=16,
                                  predict_every=1, threshold=0.0)
        pf.train(tiny_trace.head(800), epochs=1, max_samples=150)
        outs = []
        for k in range(100, 140):
            outs.extend(pf.observe(k))
        # All predictions are bounded-delta offsets of the inputs — the
        # structural limitation the paper calls out.
        assert outs
        assert all(100 - 16 <= o <= 139 + 16 for o in outs)


class TestVoyager:
    def test_memory_estimate_production_scale(self):
        # The paper's finding: 62M unique rows blow past 512 GB DDR...
        bytes_needed = estimate_memory_bytes(856, 62_000_000)
        assert bytes_needed > 300 * 2 ** 30

    def test_oom_guard(self, tiny_trace):
        pf = VoyagerPrefetcher(memory_budget_bytes=1000)
        with pytest.raises(VoyagerScaleError):
            pf.train(tiny_trace.head(500))

    def test_trains_at_toy_scale(self, tiny_trace):
        pf = VoyagerPrefetcher(context=4, dim=8, hidden=12, predict_every=8)
        losses = pf.train(tiny_trace.head(800), epochs=1, max_samples=100)
        assert len(losses) > 0
        out = []
        for access in tiny_trace.head(100):
            out.extend(pf.observe(access.key))
        # Predictions are packed (table, row) keys.
        assert all(isinstance(k, (int, np.integer)) for k in out)


def _inline_voyager_train(pf, trace, epochs, batch_size, lr, max_samples,
                          seed):
    """``VoyagerPrefetcher.train`` as written before the library's one
    training loop: its own epoch / shuffle / minibatch loop, rebinding
    ``loss`` each step, no clip."""
    pages, offsets = trace.table_ids, trace.row_ids
    page_of = {int(p): i for i, p in enumerate(np.unique(pages))}
    offset_of = {int(o): i for i, o in enumerate(np.unique(offsets))}
    rng = np.random.default_rng(seed)
    pf.model = _VoyagerModel(len(page_of), len(offset_of), pf.dim,
                             pf.hidden, rng)
    page_ids = np.array([page_of[int(p)] for p in pages])
    offset_ids = np.array([offset_of[int(o)] for o in offsets])
    valid = np.arange(pf.context, len(page_ids) - 1)
    if len(valid) > max_samples:
        valid = rng.choice(valid, size=max_samples, replace=False)
    optimizer = Adam(pf.model.parameters(), lr=lr)
    losses = []
    for _ in range(epochs):
        rng.shuffle(valid)
        for start in range(0, len(valid), batch_size):
            batch_pos = valid[start:start + batch_size]
            in_pages = np.stack([page_ids[p - pf.context:p]
                                 for p in batch_pos])
            in_offsets = np.stack([offset_ids[p - pf.context:p]
                                   for p in batch_pos])
            page_logits, offset_logits = pf.model(in_pages, in_offsets)
            loss = (cross_entropy(page_logits, page_ids[batch_pos])
                    + cross_entropy(offset_logits, offset_ids[batch_pos]))
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
    return losses


def _inline_transfetch_train(pf, trace, epochs, batch_size, horizon, lr,
                             max_samples, seed):
    """``TransFetchPrefetcher.train`` as written before the library's
    one training loop."""
    keys, _ = remap_to_dense(trace)
    rng = np.random.default_rng(seed)
    valid = np.arange(pf.context, len(keys) - horizon - 1)
    if len(valid) > max_samples:
        valid = rng.choice(valid, size=max_samples, replace=False)
    optimizer = Adam(pf.model.parameters(), lr=lr)
    losses = []
    for _ in range(epochs):
        rng.shuffle(valid)
        for start in range(0, len(valid), batch_size):
            batch_pos = valid[start:start + batch_size]
            inputs = np.stack([keys[p - pf.context:p] for p in batch_pos])
            labels = np.stack([pf._labels_for(keys, p, horizon)
                               for p in batch_pos])
            loss = bce_with_logits(pf.model(inputs), Tensor(labels))
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
    return losses


class TestSharedTrainingLoop:
    """Both baselines train through ``repro.nn.train_minibatches``; the
    RNG draws and the op order are those of the loops it replaced, so
    the loss curve and every trained weight are bit-identical."""

    @staticmethod
    def _weights(pf):
        return [p.data for p in pf.model.parameters()]

    def test_voyager_matches_its_inline_loop(self, tiny_trace):
        trace = tiny_trace.head(800)
        shared, inline = (VoyagerPrefetcher(context=4, dim=8, hidden=12)
                          for _ in range(2))
        losses = shared.train(trace, epochs=2, batch_size=16, lr=3e-3,
                              max_samples=120, seed=3)
        expected = _inline_voyager_train(inline, trace, 2, 16, 3e-3, 120, 3)
        assert len(losses) == 16 and losses == expected
        for got, want in zip(self._weights(shared), self._weights(inline),
                             strict=True):
            assert np.array_equal(got, want)

    def test_transfetch_matches_its_inline_loop(self, tiny_trace):
        trace = tiny_trace.head(800)
        shared, inline = (TransFetchPrefetcher(context=4, dim=8,
                                               delta_range=16)
                          for _ in range(2))
        losses = shared.train(trace, epochs=2, batch_size=16, horizon=8,
                              lr=3e-3, max_samples=120, seed=3)
        expected = _inline_transfetch_train(inline, trace, 2, 16, 8, 3e-3,
                                            120, 3)
        assert len(losses) == 16 and losses == expected
        for got, want in zip(self._weights(shared), self._weights(inline),
                             strict=True):
            assert np.array_equal(got, want)


class TestBreakdownHarness:
    def test_fractions_sum_to_one(self, tiny_trace):
        breakdown = run_breakdown(tiny_trace.head(2000), capacity=200,
                                  prefetcher=DominoPrefetcher())
        fractions = breakdown.fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert breakdown.total == 2000

    def test_prefetcher_adds_prefetch_hits(self, tiny_trace):
        plain = run_breakdown(tiny_trace.head(2000), capacity=200)
        with_pf = run_breakdown(tiny_trace.head(2000), capacity=200,
                                prefetcher=DominoPrefetcher())
        assert plain.prefetch_hits == 0
        assert with_pf.prefetch_hits >= 0

    def test_metadata_fraction_shrinks_buffer(self, tiny_trace):
        full = run_breakdown(tiny_trace.head(2000), capacity=200)
        taxed = run_breakdown(tiny_trace.head(2000), capacity=200,
                              metadata_fraction=0.5)
        assert taxed.hit_rate <= full.hit_rate + 1e-9

    @pytest.mark.parametrize("impl", ["reference", "fast"])
    def test_exact_buffer_impls_reproduce_lru(self, tiny_trace, impl):
        """Priority backends at constant priority 0 are exact LRU: under
        the same scalar access loop (``BufferClassifier``) their hits
        match both the OrderedDict loop and the closed form."""
        head = tiny_trace.head(2000)
        closed_form = run_breakdown(head, capacity=200)
        assert run_breakdown(head, capacity=200,
                             engine="reference") == closed_form
        keys, _ = remap_to_dense(head)
        classifier = BufferClassifier(200, impl, priority=0)
        hits = [classifier.access(key) for key in keys.tolist()]
        assert sum(hits) == closed_form.cache_hits
        assert hits.count(False) == closed_form.on_demand

    def test_clock_buffer_impl_approximates_lru(self, tiny_trace):
        """Second-chance CLOCK (insert and re-reference at priority 1):
        hit rate near LRU."""
        head = tiny_trace.head(2000)
        lru = run_breakdown(head, capacity=200)
        keys, _ = remap_to_dense(head)
        classifier = BufferClassifier(200, "clock", priority=1,
                                      key_space=int(keys.max()) + 1)
        hits = [classifier.access(key) for key in keys.tolist()]
        assert len(hits) == len(head)
        assert abs(np.mean(hits) - lru.hit_rate) < 0.08
