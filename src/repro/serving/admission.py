"""Admission control: bounded request queue + coalescing batcher.

The front door of the serving stack.  Producers (per-tenant
query streams, the daemon's trace replayer, an RPC handler) enqueue
small :class:`Request` objects into a bounded :class:`RequestQueue`;
one :class:`Batcher` drains the queue and coalesces requests into
bounded demand segments under a **max-size / max-wait** flush policy:

* a batch flushes as soon as it holds ``max_batch_keys`` keys (the
  size bound keeps per-shard sub-segments inside the regime the
  batched engines are tuned for), or
* ``max_wait_s`` after its first request was popped (the deadline
  bounds the queueing latency a lone request can suffer at low load).

The queue is **bounded** (``maxsize``): when producers outrun the
serving engine, ``put`` blocks — backpressure, not unbounded memory —
and the queue depth observed at each flush is the overload signal
:class:`repro.serving.metrics.ServingMetrics` tracks.

Threading contract: any number of producer threads may ``put``; one
consumer (the batcher/serving loop) calls ``get``.  ``close()`` wakes
everyone: producers get ``RuntimeError`` (the engine is gone), the
consumer drains what is left and stops.  The batcher itself is plain
iteration — ``for batch in Batcher(queue, ...).batches(): serve(...)``
— so the serving loop stays a loop the caller owns, not a callback.
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
    """Bounded MPSC request queue with blocking put and timed get."""

    def __init__(self, maxsize: int = 1024) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = int(maxsize)
        self._items: Deque[Request] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._closed = False

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
        with self._not_full:
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
            self._not_empty.notify()

    def get(self, timeout: Optional[float] = None) -> Optional[Request]:
        """Pop the oldest request; ``None`` on timeout or when the
        queue is closed *and* drained (the consumer's stop signal).

        With ``timeout=None`` the call blocks until an item arrives or
        the queue closes — never returning ``None`` while the queue is
        open, whatever wakeups occur.  ``Batcher.batches()`` treats a
        ``None`` from its blocking get as closed-and-drained, so a
        spurious wakeup (or a notify won by a racing close/put
        interleaving) leaking through as ``None`` would permanently
        terminate the serving loop; the wait therefore re-checks state
        in a loop.
        """
        deadline = (None if timeout is None
                    else time.perf_counter() + timeout)
        with self._not_empty:
            while not self._items:
                if self._closed:
                    return None
                if deadline is None:
                    self._not_empty.wait()
                    continue
                remaining = deadline - time.perf_counter()
                if remaining <= 0 or not self._not_empty.wait(remaining):
                    return None
            request = self._items.popleft()
            self._not_full.notify()
            return request

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
    """Coalesce queued requests into bounded segments (module doc)."""

    def __init__(self, queue: RequestQueue, max_batch_keys: int = 2048,
                 max_wait_s: float = 0.002) -> None:
        if max_batch_keys < 1:
            raise ValueError("max_batch_keys must be >= 1")
        if max_wait_s < 0:
            raise ValueError("max_wait_s must be >= 0")
        self.queue = queue
        self.max_batch_keys = int(max_batch_keys)
        self.max_wait_s = float(max_wait_s)

    def _seal(self, parts: List[Request]) -> Batch:
        keys = (parts[0].keys if len(parts) == 1
                else np.concatenate([r.keys for r in parts]))
        return Batch(
            keys=keys,
            num_requests=len(parts),
            queue_depth=self.queue.depth(),
            first_enqueued_at=min(r.enqueued_at for r in parts),
            formed_at=time.perf_counter(),
        )

    def batches(self) -> Iterator[Batch]:
        """Drain the queue until it is closed and empty, yielding one
        :class:`Batch` per flush.  Blocks while the queue is open but
        idle (a serving loop parks here at zero load)."""
        while True:
            first = self.queue.get(timeout=None)
            if first is None:  # closed and drained
                return
            parts = [first]
            total = int(first.keys.size)
            deadline = time.perf_counter() + self.max_wait_s
            while total < self.max_batch_keys:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    break
                request = self.queue.get(timeout=remaining)
                if request is None:  # deadline hit, or queue closed
                    break
                parts.append(request)
                total += int(request.keys.size)
            yield self._seal(parts)
