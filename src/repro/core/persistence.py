"""Persistence for a trained RecMG system.

Saves everything deployment needs — both models' parameters, the
prefetch decoder, the encoder's vocabulary/frequency tables and the
config — into one ``.npz`` archive, so a system trained offline (paper
§VI-A) can be shipped to the serving tier.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from typing import Union

import numpy as np

from .caching_model import CachingModel
from .config import RecMGConfig
from .features import FeatureEncoder
from .prefetch_model import BucketDecoder, PrefetchModel
from .recmg import RecMG

#: Config keys of retired features: the threaded serving engine (pinned
#: bit-identical to the serial shard loop, so dropping its keys changes
#: no decision), the background priority-refresh thread's two knobs,
#: ``decode_radius_frac``, which nothing ever read, online retraining's
#: three knobs (the model now serves as trained) and the lift guard's
#: hysteresis margin (the guard compares the arms directly).  Any other
#: unknown key raises.
_RETIRED_CONFIG_KEYS = ("concurrency", "num_workers",
                        "priority_refresh_blocks", "priority_pending_max",
                        "decode_radius_frac", "online_retrain_interval",
                        "online_retrain_window", "online_retrain_epochs",
                        "priority_lift_margin")


def save_recmg(system: RecMG, path: Union[str, os.PathLike]) -> None:
    """Serialize a fitted RecMG system to ``path`` (.npz)."""
    if not system.fitted:
        raise RuntimeError("cannot save an unfitted system")
    encoder = system.encoder
    decoder = system.prefetch_model.decoder
    payload = {
        "config_json": np.array(json.dumps(asdict(system.config))),
        "encoder_keys": np.array(sorted(encoder._key_to_dense),
                                 dtype=np.int64),
        "encoder_tables": np.array(sorted(encoder._table_to_id),
                                   dtype=np.int64),
        "encoder_freq": encoder._freq_table,
        "decoder_bucket_hot": decoder.bucket_hot,
        "decoder_fallback": np.array(decoder.fallback, dtype=np.int64),
        "prefetch_codebook": system.prefetch_model.target_table.data,
    }
    for name, param in system.caching_model.named_parameters():
        payload[f"caching.{name}"] = param.data
    for name, param in system.prefetch_model.named_parameters():
        payload[f"prefetch.{name}"] = param.data
    np.savez_compressed(path, **payload)


def load_recmg(path: Union[str, os.PathLike]) -> RecMG:
    """Restore a RecMG system saved by :func:`save_recmg`."""
    with np.load(path, allow_pickle=False) as archive:
        fields = json.loads(str(archive["config_json"]))
        for key in _RETIRED_CONFIG_KEYS:
            fields.pop(key, None)
        # Same model and per-block bits, now computed fresh on the serving thread.
        if fields.get("priority_mode") == "async":
            fields["priority_mode"] = "sync"
        config = RecMGConfig(**fields)
        system = RecMG(config)

        encoder = FeatureEncoder(config)
        keys = archive["encoder_keys"]
        tables = archive["encoder_tables"]
        encoder._key_to_dense = {int(k): i for i, k in enumerate(keys)}
        encoder._table_to_id = {int(t): i for i, t in enumerate(tables)}
        encoder._freq_table = archive["encoder_freq"]
        encoder.vocab_size = len(keys)
        encoder.num_tables = len(tables)
        system.encoder = encoder

        system.caching_model = CachingModel(config, encoder.num_tables)
        system.caching_model.load_state_dict({
            name[len("caching."):]: archive[name]
            for name in archive.files if name.startswith("caching.")
        })
        system.prefetch_model = PrefetchModel(config, encoder.num_tables)
        system.prefetch_model.load_state_dict({
            name[len("prefetch."):]: archive[name]
            for name in archive.files if name.startswith("prefetch.")
        })
        system.prefetch_model.target_table.data = archive["prefetch_codebook"]
        system.prefetch_model.set_decoder(BucketDecoder(
            archive["decoder_bucket_hot"],
            int(archive["decoder_fallback"]),
        ))
    return system
