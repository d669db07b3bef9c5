"""Admission control: bounded request queue + coalescing batcher.

The front door of the serving stack.  Producers (per-tenant
query streams, the daemon's trace replayer, an RPC handler) enqueue
small :class:`Request` objects into a bounded :class:`RequestQueue`;
one :class:`Batcher` drains the queue and coalesces requests into
bounded demand segments under a **max-size / max-wait** flush policy:

* a batch flushes as soon as it holds ``max_batch_keys`` keys (the
  size bound keeps per-shard sub-segments inside the regime the
  batched engines are tuned for; a batch overshoots it by at most its
  last request), or
* ``max_wait_s`` after its first request was popped, if it is still
  short.  The deadline bounds how long the batcher *waits* for
  requests that have not arrived (and so the queueing latency a lone
  request can suffer at low load); requests already queued are taken
  at once, up to the size bound, whatever the deadline.

Each batch is one :meth:`RequestQueue.get_many` call: one lock hold
drains it, instead of one lock round trip per request.

The queue is **bounded** (``maxsize``): when producers outrun the
serving engine, ``put`` blocks — backpressure, not unbounded memory —
and the queue depth observed at each flush is the overload signal
:class:`repro.serving.metrics.ServingMetrics` tracks.

Threading contract: any number of producer threads may ``put``; one
consumer (the batcher/serving loop) calls ``get_many``.
``close()`` wakes everyone: producers get :class:`QueueClosed` (the
engine is gone), the consumer drains what is left and stops.  The
batcher itself is plain iteration —
``for batch in Batcher(queue, ...).batches(): serve(...)`` — so the
serving loop stays a loop the caller owns, not a callback.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Iterator, List, Optional

import numpy as np


@dataclass
class Request:
    """One tenant's demand access run (a few keys, one enqueue)."""

    keys: np.ndarray
    tenant: int = 0
    enqueued_at: float = field(default_factory=time.perf_counter)

    def __post_init__(self) -> None:
        self.keys = np.asarray(self.keys, dtype=np.int64)


@dataclass
class Batch:
    """A coalesced demand segment plus its admission telemetry."""

    keys: np.ndarray              #: concatenated request keys, arrival order
    num_requests: int             #: requests coalesced into this batch
    queue_depth: int              #: queue depth right after the batch formed
    first_enqueued_at: float      #: oldest member's enqueue timestamp
    formed_at: float              #: when the batcher sealed the batch

    @property
    def queue_wait_seconds(self) -> float:
        """Admission latency of the oldest member (enqueue -> sealed)."""
        return self.formed_at - self.first_enqueued_at


class QueueClosed(RuntimeError):
    """Raised by ``put`` after ``close()`` — the serving engine is gone."""


class RequestQueue:
    """Bounded MPSC request queue: blocking put, one batch per get.

    ``put`` and ``get_many`` hold ``_lock`` directly; the two
    conditions share it and are used only to wait and notify.  ``put``
    notifies ``_not_empty`` only while a consumer is parked on it:
    ``_consumers_waiting`` changes only under the lock, and a consumer
    counts itself in before its ``wait`` releases the lock, so a
    ``put`` that reads zero has no one to wake and no wakeup is lost.
    """

    def __init__(self, maxsize: int = 1024) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = int(maxsize)
        self._items: Deque[Request] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._consumers_waiting = 0
        self._closed = False
        #: Depth left behind by the latest ``get_many``, read under its
        #: lock hold (``Batch.queue_depth``).
        self.depth_at_take = 0

    def put(self, request: Request, timeout: Optional[float] = None) -> None:
        """Enqueue; blocks while the queue is full (backpressure).
        Raises :class:`QueueClosed` once the queue is closed, and
        ``TimeoutError`` when ``timeout`` elapses while full.

        The timeout is one deadline for the whole call, not per wait:
        every wakeup (another producer's slot race, a spurious wakeup)
        re-waits only on the *remaining* time, so a producer racing
        other producers cannot block past its deadline.
        """
        deadline = (None if timeout is None
                    else time.perf_counter() + timeout)
        with self._lock:
            while len(self._items) >= self.maxsize and not self._closed:
                remaining = (None if deadline is None
                             else deadline - time.perf_counter())
                if remaining is not None and remaining <= 0:
                    raise TimeoutError("queue full")
                if not self._not_full.wait(remaining):
                    raise TimeoutError("queue full")
            if self._closed:
                raise QueueClosed("request queue is closed")
            self._items.append(request)
            if self._consumers_waiting:
                self._not_empty.notify()

    def _await_item(self, deadline: Optional[float]) -> bool:
        """Under the lock: wait until a request is queued, the queue
        closes, or ``deadline`` (``None``: never) passes; true iff a
        request is queued.  Every wakeup re-checks state and re-waits
        only on the remaining time, so a spurious wakeup neither ends
        an untimed wait nor extends a timed one."""
        while not self._items:
            if self._closed:
                return False
            remaining = None
            if deadline is not None:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    return False
            self._consumers_waiting += 1
            try:
                self._not_empty.wait(remaining)
            finally:
                self._consumers_waiting -= 1
        return True

    def get_many(self, max_keys: int, wait_s: float) -> List[Request]:
        """Pop the next batch under one lock hold; ``[]`` only when the
        queue is closed *and* drained (the consumer's stop signal).

        Blocks until the first request arrives, never returning ``[]``
        while the queue is open, whatever wakeups occur: a consumer
        loop reads ``[]`` as closed-and-drained, so a spurious wakeup
        (or a notify won by a racing close/put interleaving) leaking
        through would permanently stop it; the wait (``_await_item``)
        therefore re-checks state in a loop.  Then pops requests in FIFO
        order while fewer than ``max_keys`` keys have been taken, so
        the batch overshoots ``max_keys`` by at most its last request.
        When the queue runs dry short of that bound, it waits for more
        until ``wait_s`` after the first pop (one deadline for the
        call) or until the queue closes.  Requests already queued are
        taken whatever the deadline: it bounds only the waiting.

        Producers blocked on a full queue are woken for the freed slots
        by one ``_not_full.notify`` per run of pops: at the return, and
        before each wait, so none of them sits out the deadline.  The
        depth left behind is stored in ``depth_at_take`` before the
        lock is released.
        """
        items = self._items
        with self._lock:
            if not self._await_item(None):
                self.depth_at_take = 0
                return []
            deadline = time.perf_counter() + wait_s
            taken: List[Request] = []
            total = freed = 0
            while True:
                while items and total < max_keys:
                    request = items.popleft()
                    taken.append(request)
                    total += request.keys.size
                if total >= max_keys:
                    break
                if len(taken) > freed:
                    self._not_full.notify(len(taken) - freed)
                    freed = len(taken)
                if not self._await_item(deadline):
                    break
            if len(taken) > freed:
                self._not_full.notify(len(taken) - freed)
            self.depth_at_take = len(items)
            return taken

    def depth(self) -> int:
        with self._lock:
            return len(self._items)

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Stop admissions; pending requests stay drainable."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()


class Batcher:
    """Coalesce queued requests into bounded segments (module doc).

    Each batch is one ``queue.get_many`` call: requests already queued
    are taken at once, up to ``max_batch_keys``; ``max_wait_s`` bounds
    only how long the batcher then waits, counted from its first pop,
    for requests that have not arrived.  With ``max_wait_s=0`` a batch
    is what was queued, up to the size bound.
    """

    def __init__(self, queue: RequestQueue, max_batch_keys: int = 2048,
                 max_wait_s: float = 0.002) -> None:
        if max_batch_keys < 1:
            raise ValueError("max_batch_keys must be >= 1")
        if max_wait_s < 0:
            raise ValueError("max_wait_s must be >= 0")
        self.queue = queue
        self.max_batch_keys = int(max_batch_keys)
        self.max_wait_s = float(max_wait_s)

    def _seal(self, parts: List[Request], queue_depth: int) -> Batch:
        keys = (parts[0].keys if len(parts) == 1
                else np.concatenate([r.keys for r in parts]))
        return Batch(
            keys=keys,
            num_requests=len(parts),
            queue_depth=queue_depth,
            first_enqueued_at=min(r.enqueued_at for r in parts),
            formed_at=time.perf_counter(),
        )

    def batches(self) -> Iterator[Batch]:
        """Drain the queue until it is closed and empty, yielding one
        :class:`Batch` per flush.  Blocks while the queue is open but
        idle (a serving loop parks here at zero load)."""
        while True:
            parts = self.queue.get_many(self.max_batch_keys, self.max_wait_s)
            if not parts:  # closed and drained
                return
            yield self._seal(parts, self.queue.depth_at_take)
