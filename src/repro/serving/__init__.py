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
                                  ^ bits_for (guided blocks)
                                  |
                          CachingModel (trained offline on OPTgen)

Producers are threads; *serving* — inference included — is one
thread.  Shards are disjoint flat arrays, so parallelism is
processes at the shard boundary.

:mod:`repro.core.manager` records every ``serve_batch`` into
:class:`ServingMetrics` and, when ``priority_mode`` is ``"sync"``,
sinks every served block through its
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
    LiftGuard,
    NullProvider,
    PriorityProvider,
    SyncModelProvider,
    apply_caching_bits,
    make_provider,
)

__all__ = [
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
