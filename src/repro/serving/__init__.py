"""Serving front-end: admission, batching, model-guided priorities and
latency/SLO metrics.

The layer that turns the sharded serving library into a traffic-bearing
engine (see ROADMAP "Serving architecture"):

    producers -> RequestQueue -> Batcher -> RecMGManager.serve_batch
     (threads)                                |  route (scatter)
                                              v
                                   serial shard loop -> gather
                                              |
                            SyncModelProvider sink -> ServingMetrics
                                  ^ bits_for (every block)
                                  |
                          CachingModel (trained offline on OPTgen)

Producers are threads; *serving* — inference included — is one
thread.  Shards are disjoint flat arrays, so parallelism is
processes at the shard boundary.

:mod:`repro.core.manager` records every ``serve_batch`` into
:class:`ServingMetrics` and, when ``priority_mode`` is ``"sync"``,
sinks every served block through its :class:`SyncModelProvider`
(:mod:`repro.serving.priorities`), the priority writes split along the
shard route.  ``examples/serving_daemon.py`` drives the whole stack.
"""

from .admission import Batch, Batcher, QueueClosed, Request, RequestQueue
from .metrics import LatencyWindow, ServingMetrics
from .priorities import PRIORITY_MODES, SyncModelProvider, apply_caching_bits

__all__ = [
    "Batch",
    "Batcher",
    "LatencyWindow",
    "PRIORITY_MODES",
    "QueueClosed",
    "Request",
    "RequestQueue",
    "ServingMetrics",
    "SyncModelProvider",
    "apply_caching_bits",
]
