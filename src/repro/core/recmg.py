"""High-level RecMG system: fit on a trace, deploy on a buffer.

This is the public entry point tying together the encoder, the OPTgen
labeling pipeline, both models and the online manager:

>>> from repro.core import RecMG, RecMGConfig
>>> from repro.traces import load_dataset
>>> trace = load_dataset("dataset0", scale=0.2)
>>> train, test = trace.split(0.6)
>>> system = RecMG(RecMGConfig())
>>> system.fit(train, buffer_capacity=1000)   # doctest: +SKIP
>>> stats = system.evaluate(test, capacity=1000)   # doctest: +SKIP
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..traces.access import Trace
from .caching_model import CachingModel
from .config import RecMGConfig
from .features import FeatureEncoder
from .labeling import TrainingLabels, build_labels, caching_targets, prefetch_targets
from .manager import ManagerStats, RecMGManager
from .prefetch_model import BucketDecoder, PrefetchModel
from .training import (
    TrainResult,
    train_caching_model,
    train_prefetch_model,
)


@dataclass
class FitReport:
    """Training summary for both models."""

    caching: TrainResult
    prefetch: TrainResult
    opt_hit_rate: float

    @property
    def caching_accuracy(self) -> float:
        return self.caching.final_metric

    @property
    def prefetch_correctness(self) -> float:
        return self.prefetch.final_metric


class RecMG:
    """The complete ML-guided buffer management system."""

    def __init__(self, config: Optional[RecMGConfig] = None) -> None:
        self.config = config or RecMGConfig()
        self.encoder = FeatureEncoder(self.config)
        self.caching_model: Optional[CachingModel] = None
        self.prefetch_model: Optional[PrefetchModel] = None
        self.labels: Optional[TrainingLabels] = None
        self.report: Optional[FitReport] = None

    @property
    def fitted(self) -> bool:
        return self.caching_model is not None and self.prefetch_model is not None

    # ------------------------------------------------------------------
    def fit(self, trace: Trace, buffer_capacity: int,
            loss_kind: str = "chamfer") -> FitReport:
        """Offline training (paper §VI-A): label with OPTgen, then train
        the caching and prefetch models on the same chunks."""
        config = self.config
        rng = np.random.default_rng(config.seed)
        self.encoder.fit(trace)
        self.labels = build_labels(trace, buffer_capacity, config, self.encoder)
        chunks = self.encoder.encode_chunks(trace)

        self.caching_model = CachingModel(config, self.encoder.num_tables,
                                          rng=rng)
        caching_result = train_caching_model(
            self.caching_model, chunks, caching_targets(chunks, self.labels),
            config,
        )

        self.prefetch_model = PrefetchModel(config, self.encoder.num_tables,
                                            rng=rng)
        miss_dense = self.labels.dense_ids[self.labels.miss_positions]
        self.prefetch_model.set_decoder(
            BucketDecoder.from_miss_ids(miss_dense, config.hash_buckets)
        )
        sel, windows_dense = prefetch_targets(chunks, self.labels, config)
        prefetch_result = train_prefetch_model(
            self.prefetch_model, chunks, sel, windows_dense, self.encoder,
            config, loss_kind=loss_kind,
        )
        self.report = FitReport(
            caching=caching_result,
            prefetch=prefetch_result,
            opt_hit_rate=self.labels.opt_hit_rate,
        )
        return self.report

    # ------------------------------------------------------------------
    def deploy(self, capacity: int, use_caching_model: bool = True,
               use_prefetch_model: bool = True) -> RecMGManager:
        """Build an online manager serving as :attr:`config` says; model
        flags give the paper's ablations (CM-only, prefetch-only)."""
        if not self.fitted:
            raise RuntimeError("call fit() before deploy()")
        return RecMGManager(
            capacity,
            self.encoder,
            self.config,
            caching_model=self.caching_model if use_caching_model else None,
            prefetch_model=self.prefetch_model if use_prefetch_model else None,
        )

    def evaluate(self, trace: Trace, capacity: int,
                 use_caching_model: bool = True,
                 use_prefetch_model: bool = True) -> ManagerStats:
        """Deploy and serve ``trace``; returns the access breakdown."""
        manager = self.deploy(capacity, use_caching_model=use_caching_model,
                              use_prefetch_model=use_prefetch_model)
        return manager.run(trace)
