"""Serving front-end: admission, batching, model-guided priorities and
latency/SLO metrics.

The layer that turns the sharded serving library into a traffic-bearing
engine (see ROADMAP "Serving architecture"):

    producers -> RequestQueue -> Batcher -> RecMGManager.serve_batch
     (threads)                                |  route (scatter)
                                              v
                                   serial shard loop -> gather
                                              |
                              PriorityProvider sink -> ServingMetrics
                                  ^ bits        | observe
                                  |             v
                          CachingModel <- refresh worker (async)
                                  ^             | window (every block)
                                  +-- OnlineCachingTrainer (OPTgen)

Producers are threads; *serving* is one thread.  Shards are disjoint
flat arrays, so parallelism is processes at the shard boundary.

:mod:`repro.core.manager` records every ``serve_batch`` into
:class:`ServingMetrics` and, when ``priority_mode`` is ``"sync"`` or
``"async"``, sinks every served block through its
:class:`PriorityProvider` (:mod:`repro.serving.priorities`), the
priority writes split along the shard route; an optional
:class:`LiftGuard` withholds the bits while the measured trailing
hit-rate lift is negative.  ``examples/serving_daemon.py`` drives the
whole stack.
"""

from .admission import Batch, Batcher, QueueClosed, Request, RequestQueue
from .metrics import LatencyWindow, ServingMetrics
from .priorities import (
    PRIORITY_MODES,
    AsyncModelProvider,
    LiftGuard,
    NullProvider,
    PriorityProvider,
    SyncModelProvider,
    apply_caching_bits,
    make_provider,
)

__all__ = [
    "AsyncModelProvider",
    "Batch",
    "Batcher",
    "LatencyWindow",
    "LiftGuard",
    "NullProvider",
    "PRIORITY_MODES",
    "PriorityProvider",
    "QueueClosed",
    "Request",
    "RequestQueue",
    "ServingMetrics",
    "SyncModelProvider",
    "apply_caching_bits",
    "make_provider",
]
