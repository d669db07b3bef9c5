"""Round-tripping a trained RecMG system through disk."""

import json

import numpy as np
import pytest

from repro.core import RecMG
from repro.core.persistence import load_recmg, save_recmg


def _rewrite_config(src, dst, **updates):
    """Copy archive ``src`` to ``dst`` with ``updates`` merged into its
    stored config."""
    with np.load(src, allow_pickle=False) as archive:
        payload = {name: archive[name] for name in archive.files}
    config = json.loads(str(payload["config_json"]))
    config.update(updates)
    payload["config_json"] = np.array(json.dumps(config))
    np.savez_compressed(dst, **payload)


class TestPersistence:
    def test_save_requires_fitted(self, tiny_recmg_config, tmp_path):
        with pytest.raises(RuntimeError):
            save_recmg(RecMG(tiny_recmg_config), tmp_path / "x.npz")

    def test_roundtrip_predictions_identical(self, trained_recmg, tiny_trace,
                                             tmp_path):
        path = tmp_path / "recmg.npz"
        save_recmg(trained_recmg, path)
        restored = load_recmg(path)

        assert restored.fitted
        assert restored.encoder.vocab_size == trained_recmg.encoder.vocab_size

        chunks_a = trained_recmg.encoder.encode_chunks(tiny_trace.head(300))
        chunks_b = restored.encoder.encode_chunks(tiny_trace.head(300))
        sel = np.arange(min(8, len(chunks_a)))
        assert np.array_equal(
            trained_recmg.caching_model.predict(chunks_a, sel=sel),
            restored.caching_model.predict(chunks_b, sel=sel),
        )
        assert np.array_equal(
            trained_recmg.prefetch_model.predict_indices(
                chunks_a, trained_recmg.encoder, sel=sel),
            restored.prefetch_model.predict_indices(
                chunks_b, restored.encoder, sel=sel),
        )

    def test_roundtrip_deployment_identical(self, trained_recmg, tiny_trace,
                                            tiny_capacity, tmp_path):
        path = tmp_path / "recmg.npz"
        save_recmg(trained_recmg, path)
        restored = load_recmg(path)
        _, test = tiny_trace.split(0.6)
        original = trained_recmg.evaluate(test.head(800),
                                          capacity=tiny_capacity)
        replayed = restored.evaluate(test.head(800), capacity=tiny_capacity)
        assert original.hit_rate == pytest.approx(replayed.hit_rate)
        assert (original.breakdown.fractions()
                == replayed.breakdown.fractions())

    def test_archive_with_retired_config_keys_loads(
            self, trained_recmg, tiny_trace, tiny_capacity, tmp_path):
        """Archives written while the threaded serving engine existed
        carry its two config keys.  They must still load, and deploy as
        the serial shard loop that engine was pinned bit-identical to:
        decision for decision the same system saved today.  Likewise
        archives of the retired background priority-refresh mode: its
        two knobs drop and ``"async"`` deploys as ``"sync"``, the same
        model computing the same per-block bits on the serving
        thread.  And archives saved while the never-read
        ``decode_radius_frac`` field existed.  And archives of the
        retired online retrainer and lift-guard margin: they deploy as
        static ``"sync"`` serving."""
        saved = tmp_path / "saved.npz"
        save_recmg(trained_recmg, saved)
        _, test = tiny_trace.split(0.6)
        cases = [
            ({"num_shards": 2},
             {"num_shards": 2, "concurrency": "threads", "num_workers": 2,
              "decode_radius_frac": 0.005}),
            ({"priority_mode": "sync"},
             {"priority_mode": "async", "priority_refresh_blocks": 2,
              "priority_pending_max": 8}),
            ({"priority_mode": "sync"},
             {"priority_mode": "sync", "online_retrain_interval": 4096,
              "online_retrain_window": 2048, "online_retrain_epochs": 2,
              "priority_lift_margin": 0.05}),
        ]
        for today_fields, retired_fields in cases:
            runs = []
            for name, fields in (("today", today_fields),
                                 ("retired", retired_fields)):
                path = tmp_path / f"{name}.npz"
                _rewrite_config(saved, path, **fields)
                manager = load_recmg(path).deploy(tiny_capacity)
                assert manager.config.priority_mode == today_fields.get(
                    "priority_mode", "none")
                stats = manager.run(test.head(800), record_decisions=True)
                runs.append((stats, manager.last_decisions))
            assert runs[0][0] == runs[1][0]
            assert np.array_equal(runs[0][1], runs[1][1])

    def test_unknown_config_key_still_raises(self, trained_recmg,
                                             tmp_path):
        saved = tmp_path / "saved.npz"
        save_recmg(trained_recmg, saved)
        unknown = tmp_path / "unknown.npz"
        _rewrite_config(saved, unknown, fibers=3)
        with pytest.raises(TypeError, match="fibers"):
            load_recmg(unknown)
        _rewrite_config(saved, unknown, priority_mode="eventually")
        with pytest.raises(ValueError, match="priority_mode"):
            load_recmg(unknown)
