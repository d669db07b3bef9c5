"""Admission front-end: queue/batcher units + the end-to-end pipeline.

* **Unit** — :class:`RequestQueue` (FIFO, bounded backpressure, close
  semantics) and :class:`Batcher` (max-size / max-wait flush policy).
* **Integration** — producer threads → queue → batcher →
  :meth:`RecMGManager.serve_batch`: the coalesced stream must be served
  decision-for-decision like the same access stream fed straight to
  the engine, with admission telemetry recorded.

The blocking tests carry ``pytest.mark.timeout`` so a deadlocked queue
fails fast in CI (pytest-timeout; marker is a no-op when the plugin is
absent — see ``conftest.py``).
"""

import threading
import time

import numpy as np
import pytest

from repro.core import RecMGConfig
from repro.core.features import FeatureEncoder
from repro.core.manager import RecMGManager
from repro.serving import Batcher, QueueClosed, Request, RequestQueue
from repro.traces import SyntheticTraceConfig, generate_multi_tenant_trace

TENANT_CONFIG = SyntheticTraceConfig(
    num_tables=4,
    rows_per_table=256,
    num_accesses=6000,
    num_clusters=12,
    cluster_block=8,
    seed=77,
)


# ---------------------------------------------------------------------------
# RequestQueue.


@pytest.mark.timeout(30)
def test_request_queue_fifo_and_depth():
    queue = RequestQueue(maxsize=8)
    for tenant in range(5):
        queue.put(Request(keys=np.array([tenant]), tenant=tenant))
    assert queue.depth() == 5
    order = [request.tenant for request in queue.get_many(5, 0.0)]
    assert order == [0, 1, 2, 3, 4]
    assert queue.depth() == 0


def test_request_queue_validation():
    with pytest.raises(ValueError):
        RequestQueue(maxsize=0)


@pytest.mark.timeout(30)
def test_request_queue_put_times_out_when_full():
    queue = RequestQueue(maxsize=1)
    queue.put(Request(keys=np.array([1])))
    with pytest.raises(TimeoutError):
        queue.put(Request(keys=np.array([2])), timeout=0.01)


@pytest.mark.timeout(30)
def test_request_queue_close_wakes_producer_and_drains():
    queue = RequestQueue(maxsize=1)
    queue.put(Request(keys=np.array([1])))
    errors = []

    def blocked_producer():
        try:
            queue.put(Request(keys=np.array([2])))  # full -> blocks
        except QueueClosed as exc:
            errors.append(exc)

    producer = threading.Thread(target=blocked_producer)
    producer.start()
    time.sleep(0.02)  # let it park on the full queue
    queue.close()
    producer.join(timeout=5)
    assert not producer.is_alive()
    assert len(errors) == 1  # woken with QueueClosed, not wedged
    # Pending requests stay drainable after close; then the stop signal.
    assert [r.keys.tolist() for r in queue.get_many(1, 0.0)] == [[1]]
    assert queue.get_many(1, 0.0) == []
    with pytest.raises(QueueClosed):
        queue.put(Request(keys=np.array([3])))


@pytest.mark.timeout(30)
def test_request_queue_backpressure_bounds_depth():
    """A fast producer against a slow consumer never overshoots
    ``maxsize`` — puts block instead of queueing unboundedly."""
    queue = RequestQueue(maxsize=4)
    seen_depths = []

    def producer():
        for i in range(32):
            queue.put(Request(keys=np.array([i])))
        queue.close()

    thread = threading.Thread(target=producer)
    thread.start()
    drained = []
    while True:
        taken = queue.get_many(1, 0.0)  # one 1-key request per call
        if not taken:
            break
        seen_depths.append(queue.depth())
        drained.append(int(taken[0].keys[0]))
    thread.join(timeout=5)
    assert drained == list(range(32))  # FIFO end to end
    assert max(seen_depths) <= 4


@pytest.mark.timeout(30)
def test_request_queue_put_timeout_is_one_deadline():
    """Regression: ``put`` used to restart the *full* timeout on every
    wakeup of the full-queue wait loop, so a producer racing other
    producers (or any notify that didn't free a slot for it) could
    block far past its deadline.  Deterministic repro: the queue stays
    full while a teaser thread keeps notifying ``_not_full`` — each
    wakeup finds the queue still full, and with the bug each wakeup
    also re-armed the whole timeout, pushing the deadline out for as
    long as the teasing lasts."""
    queue = RequestQueue(maxsize=1)
    queue.put(Request(keys=np.array([1])))  # full, and stays full
    stop = threading.Event()

    def teaser():
        while not stop.is_set():
            with queue._lock:
                queue._not_full.notify_all()
            time.sleep(0.02)

    thread = threading.Thread(target=teaser)
    thread.start()
    try:
        began = time.perf_counter()
        with pytest.raises(TimeoutError):
            queue.put(Request(keys=np.array([2])), timeout=0.2)
        elapsed = time.perf_counter() - began
    finally:
        stop.set()
        thread.join(timeout=5)
    # One deadline for the whole call: the teased wakeups re-wait only
    # on the remainder.  (With the restart bug this blocked for the
    # teaser's whole lifetime — bounded only by the test timeout.)
    assert elapsed < 2.0
    assert queue.depth() == 1  # the timed-out request was not enqueued


@pytest.mark.timeout(30)
def test_request_queue_two_producers_slow_consumer_meet_deadlines():
    """Two producers racing for a slow consumer's freed slots: every
    put must land within its (generous) deadline — under the
    timeout-restart bug a producer that repeatedly lost the slot race
    could starve past its deadline without ever raising."""
    queue = RequestQueue(maxsize=1)
    per_producer = 8
    failures = []

    def producer(tenant):
        for i in range(per_producer):
            try:
                queue.put(Request(keys=np.array([i]), tenant=tenant),
                          timeout=10.0)
            except TimeoutError:  # pragma: no cover - the failure mode
                failures.append((tenant, i))
                return

    producers = [threading.Thread(target=producer, args=(tenant,))
                 for tenant in range(2)]
    for thread in producers:
        thread.start()
    # Close once both producers are done (or gave up), so the drain
    # below ends on the stop signal whatever happened.
    closer = threading.Thread(
        target=lambda: ([t.join() for t in producers], queue.close()),
        daemon=True)
    closer.start()
    drained = []
    while True:
        taken = queue.get_many(1, 0.0)
        if not taken:
            break
        time.sleep(0.005)  # slow consumer: keep the slot race alive
        drained.append(taken[0].tenant)
    closer.join(timeout=10)
    assert not closer.is_alive()
    assert not failures
    assert len(drained) == 2 * per_producer
    assert sorted(drained) == [0] * per_producer + [1] * per_producer


# ---------------------------------------------------------------------------
# RequestQueue.get_many: one lock hold per batch.


def _start_get_many(queue, max_keys, wait_s):
    """Run one ``get_many`` on a daemon thread; its result lands in the
    returned list."""
    results = []
    thread = threading.Thread(
        target=lambda: results.append(queue.get_many(max_keys, wait_s)),
        daemon=True)
    thread.start()
    return thread, results


def _wait_until(predicate, timeout=5.0):
    deadline = time.perf_counter() + timeout
    while not predicate():
        if time.perf_counter() > deadline:
            return False
        time.sleep(0.001)
    return True


@pytest.mark.timeout(30)
def test_get_many_takes_queued_requests_up_to_the_key_bound():
    queue = RequestQueue(maxsize=16)
    for size in (3, 3, 3, 3):
        queue.put(Request(keys=np.arange(size)))
    # 5 keys: the second request crosses the bound and ends the batch.
    assert [r.keys.size for r in queue.get_many(5, 10.0)] == [3, 3]
    assert queue.depth_at_take == 2
    assert [r.keys.size for r in queue.get_many(5, 10.0)] == [3, 3]
    assert queue.depth_at_take == 0


@pytest.mark.timeout(30)
def test_get_many_close_while_parked_with_partial_batch():
    """The deadline is far off; ``close()`` ends the wait and hands
    back what was taken, and the next call is the stop signal."""
    queue = RequestQueue(maxsize=4)
    queue.put(Request(keys=np.array([1])))
    thread, results = _start_get_many(queue, 1024, 60.0)
    assert _wait_until(lambda: queue._consumers_waiting == 1)
    queue.close()
    thread.join(timeout=5)
    assert not thread.is_alive()
    assert [r.keys.tolist() for r in results[0]] == [[1]]
    assert queue.get_many(1024, 60.0) == []


@pytest.mark.timeout(30)
def test_get_many_close_while_parked_empty_returns_empty():
    queue = RequestQueue(maxsize=4)
    thread, results = _start_get_many(queue, 1024, 60.0)
    assert _wait_until(lambda: queue._consumers_waiting == 1)
    queue.close()
    thread.join(timeout=5)
    assert not thread.is_alive()
    assert results == [[]]


@pytest.mark.timeout(30)
def test_get_many_survives_spurious_wakeup():
    """Regression: a blocking get that waited only once returned on a
    spurious wakeup (or a notify won by a racing close/put
    interleaving) while the queue was open and empty.  ``[]`` means
    closed-and-drained to ``Batcher.batches()``, permanently stopping
    it, so an open, empty queue must never yield it, whatever wakeups
    occur."""
    queue = RequestQueue(maxsize=4)
    thread, results = _start_get_many(queue, 4, 0.0)
    assert _wait_until(lambda: queue._consumers_waiting == 1)
    for _ in range(5):  # spurious wakeups: queue still open and empty
        with queue._lock:
            queue._not_empty.notify_all()
        time.sleep(0.01)
    assert thread.is_alive()
    assert not results
    queue.put(Request(keys=np.array([42])))
    thread.join(timeout=5)
    assert not thread.is_alive()
    assert [r.keys.tolist() for r in results[0]] == [[42]]


@pytest.mark.timeout(30)
def test_request_queue_blocking_get_survives_spurious_wakeup():
    """The timed wait after a batch's first pop: spurious wakeups while
    the queue is empty and the deadline far off neither end the batch
    early nor lose the request that arrives next (the untimed wait for
    the first request is ``test_get_many_survives_spurious_wakeup``)."""
    queue = RequestQueue(maxsize=4)
    queue.put(Request(keys=np.array([41])))
    thread, results = _start_get_many(queue, 1024, 60.0)
    assert _wait_until(lambda: queue._consumers_waiting == 1)
    for _ in range(5):  # spurious wakeups: queue still open and empty
        with queue._lock:
            queue._not_empty.notify_all()
        time.sleep(0.01)
    assert thread.is_alive()
    assert not results
    queue.put(Request(keys=np.array([42])))
    queue.close()
    thread.join(timeout=5)
    assert not thread.is_alive()
    assert [r.keys.tolist() for r in results[0]] == [[41], [42]]


@pytest.mark.timeout(60)
def test_put_wakes_parked_get_many():
    """Lost-wakeup regression for the waiter count: ``put`` notifies
    only while ``_consumers_waiting`` is non-zero, so a consumer that
    parked without being counted would sleep through the put.  Once
    deterministically parked, then racing the put many times."""
    queue = RequestQueue(maxsize=4)
    thread, results = _start_get_many(queue, 1, 0.0)
    assert _wait_until(lambda: queue._consumers_waiting == 1)
    queue.put(Request(keys=np.array([7])))
    thread.join(timeout=5)
    assert not thread.is_alive()
    assert [r.keys.tolist() for r in results[0]] == [[7]]

    for i in range(200):
        thread, results = _start_get_many(queue, 1, 0.0)
        queue.put(Request(keys=np.array([i])))
        thread.join(timeout=5)
        assert not thread.is_alive(), f"wakeup lost on round {i}"
        assert [r.keys.tolist() for r in results[0]] == [[i]]
    assert queue._consumers_waiting == 0


@pytest.mark.timeout(30)
def test_get_many_unblocks_one_producer_per_freed_slot():
    """One ``get_many`` that takes k requests from a full queue wakes k
    of the producers blocked on it, not one."""
    queue = RequestQueue(maxsize=4)
    for i in range(4):
        queue.put(Request(keys=np.array([i])))
    done = []

    def producer(i):
        queue.put(Request(keys=np.array([100 + i])))
        done.append(i)

    producers = [threading.Thread(target=producer, args=(i,), daemon=True)
                 for i in range(6)]
    for thread in producers:
        thread.start()
    time.sleep(0.05)  # let all six park on the full queue
    assert done == []
    taken = queue.get_many(4, 0.0)
    assert [int(r.keys[0]) for r in taken] == [0, 1, 2, 3]
    assert _wait_until(lambda: len(done) == 4)
    assert queue.depth() == 4
    assert len(queue.get_many(4, 0.0)) == 4
    assert _wait_until(lambda: len(done) == 6)
    for thread in producers:
        thread.join(timeout=5)
        assert not thread.is_alive()
    assert len(queue.get_many(4, 0.0)) == 2
    assert queue.depth() == 0


@pytest.mark.timeout(30)
def test_get_many_frees_blocked_producers_before_waiting():
    """A batch still short after draining a full queue waits for more;
    the producers blocked on that queue are woken before the wait, so
    their requests join the batch instead of sitting out the deadline."""
    queue = RequestQueue(maxsize=2)
    for i in range(2):
        queue.put(Request(keys=np.array([i])))
    done = []

    def producer(i):
        queue.put(Request(keys=np.array([i])))
        done.append(i)

    producers = [threading.Thread(target=producer, args=(i,), daemon=True)
                 for i in (2, 3)]
    for thread in producers:
        thread.start()
    time.sleep(0.05)  # let both park on the full queue
    thread, results = _start_get_many(queue, 1024, 60.0)
    assert _wait_until(lambda: len(done) == 2)  # long before the deadline
    queue.close()
    thread.join(timeout=5)
    assert not thread.is_alive()
    assert sorted(int(r.keys[0]) for r in results[0]) == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# Batcher.


def test_batcher_validation():
    queue = RequestQueue()
    with pytest.raises(ValueError):
        Batcher(queue, max_batch_keys=0)
    with pytest.raises(ValueError):
        Batcher(queue, max_wait_s=-1.0)


@pytest.mark.timeout(30)
def test_batcher_flushes_on_size_bound():
    queue = RequestQueue()
    for lo in range(0, 12, 3):
        queue.put(Request(keys=np.arange(lo, lo + 3)))
    queue.close()
    # Generous deadline: the size bound (6 keys = 2 requests) must be
    # what flushes, not the clock.
    batches = list(Batcher(queue, max_batch_keys=6,
                           max_wait_s=10.0).batches())
    assert [batch.num_requests for batch in batches] == [2, 2]
    assert np.concatenate([b.keys for b in batches]).tolist() == \
        list(range(12))  # arrival order preserved across flushes
    for batch in batches:
        assert batch.queue_wait_seconds >= 0.0


@pytest.mark.timeout(30)
def test_batcher_flushes_lone_request_on_deadline():
    queue = RequestQueue()
    queue.put(Request(keys=np.array([7, 8])))
    batcher = Batcher(queue, max_batch_keys=1024, max_wait_s=0.01)
    iterator = batcher.batches()
    batch = next(iterator)  # must yield after ~max_wait_s, not block
    assert batch.keys.tolist() == [7, 8]
    assert batch.num_requests == 1
    queue.close()
    assert list(iterator) == []


@pytest.mark.timeout(30)
def test_batcher_drains_after_close():
    queue = RequestQueue()
    for i in range(5):
        queue.put(Request(keys=np.array([i])))
    queue.close()
    batches = list(Batcher(queue, max_batch_keys=2,
                           max_wait_s=0.0).batches())
    assert np.concatenate([b.keys for b in batches]).tolist() == \
        [0, 1, 2, 3, 4]


@pytest.mark.timeout(30)
def test_batcher_zero_wait_takes_queued_requests_up_to_size_bound():
    """The deadline bounds only the *waiting*: with ``max_wait_s=0``
    requests already queued still fill the batch up to the size bound.
    The queue stays open, so the flushes are the policy's, not close's;
    each batch records the depth it left behind."""
    queue = RequestQueue()
    for i in range(5):
        queue.put(Request(keys=np.array([i])))
    batches = Batcher(queue, max_batch_keys=2, max_wait_s=0.0).batches()
    formed = [next(batches) for _ in range(3)]
    assert [b.num_requests for b in formed] == [2, 2, 1]
    assert [b.keys.tolist() for b in formed] == [[0, 1], [2, 3], [4]]
    assert [b.queue_depth for b in formed] == [3, 1, 0]
    queue.close()
    assert list(batches) == []


@pytest.mark.timeout(30)
def test_batcher_request_after_deadline_lands_in_next_batch():
    """A request put within ``max_wait_s`` of the first pop joins that
    batch; one put after the deadline has passed starts the next."""
    queue = RequestQueue()
    formed = []
    consumer = threading.Thread(
        target=lambda: formed.extend(
            Batcher(queue, max_batch_keys=1024,
                    max_wait_s=0.05).batches()),
        daemon=True)
    consumer.start()
    queue.put(Request(keys=np.array([1])))
    assert _wait_until(lambda: queue.depth() == 0)  # first pop done
    time.sleep(0.3)  # six deadlines
    queue.put(Request(keys=np.array([2])))
    queue.close()
    consumer.join(timeout=5)
    assert not consumer.is_alive()
    assert [b.keys.tolist() for b in formed] == [[1], [2]]

    queue = RequestQueue()
    queue.put(Request(keys=np.array([1])))
    batches = Batcher(queue, max_batch_keys=1024, max_wait_s=5.0).batches()
    late = threading.Timer(0.05, queue.put,
                           args=(Request(keys=np.array([2])),))
    late.start()
    closer = threading.Timer(0.3, queue.close)
    closer.start()
    try:
        assert next(batches).keys.tolist() == [1, 2]
    finally:
        late.join(timeout=5)
        closer.join(timeout=5)
    assert list(batches) == []


# ---------------------------------------------------------------------------
# Manager integration: the admission front door.


def _tenant_setup():
    trace = generate_multi_tenant_trace(TENANT_CONFIG, num_tenants=4)
    config = RecMGConfig(buffer_impl="fast", num_shards=4)
    encoder = FeatureEncoder(config).fit(trace)
    capacity = max(4, int(trace.num_unique * 0.2))
    return trace, config, encoder, capacity


@pytest.mark.timeout(60)
def test_admission_pipeline_matches_direct_serving():
    """Producer threads → queue → batcher → serve_batch must serve the
    exact access stream (coalescing only re-chunks, never reorders a
    single producer's keys) and decide it exactly like the engine fed
    directly."""
    trace, config, encoder, capacity = _tenant_setup()
    dense = encoder.dense_ids(trace)[:2048]

    def build():
        return RecMGManager(capacity, encoder, config)

    queue = RequestQueue(maxsize=64)

    def producer():
        for lo in range(0, len(dense), 32):
            queue.put(Request(keys=dense[lo:lo + 32]))
        queue.close()

    thread = threading.Thread(target=producer)
    thread.start()
    served_keys, served_hits = [], []
    with build() as manager:
        for batch in Batcher(queue, max_batch_keys=256,
                             max_wait_s=0.001).batches():
            hits = manager.serve_batch(batch.keys,
                                       queue_depth=batch.queue_depth)
            served_keys.append(batch.keys)
            served_hits.append(hits)
        metrics = manager.serving_metrics
    thread.join(timeout=5)
    assert np.concatenate(served_keys).tolist() == dense.tolist()
    pipeline_hits = np.concatenate(served_hits)
    assert metrics.batches == len(served_keys)
    assert metrics.keys_served == len(dense)

    # Reference: same stream, same batch boundaries, engine fed direct.
    with build() as reference:
        direct_hits = np.concatenate([
            reference.serve_batch(batch) for batch in served_keys])
    assert np.array_equal(pipeline_hits, direct_hits)


@pytest.mark.timeout(120)
def test_contended_pipeline_delivers_each_request_once_in_order():
    """Four producers against an 8-slot queue, through the batcher into
    ``serve_batch``: every request is served exactly once, each
    producer's requests keep their order, no batch passes the size
    bound by more than its last request, and the batcher makes one
    ``get_many`` per batch (plus the final empty one) and no ``depth``
    call."""
    trace, config, encoder, capacity = _tenant_setup()
    dense = encoder.dense_ids(trace)[:4096]
    rng = np.random.default_rng(5)
    streams = []
    for tenant in range(4):
        own = dense[tenant::4]
        cuts = np.cumsum(rng.integers(1, 33, size=len(own)))
        cuts = cuts[cuts < len(own)]
        streams.append([Request(keys=part, tenant=tenant)
                        for part in np.split(own, cuts)])
    max_batch_keys = 64
    queue = RequestQueue(maxsize=8)
    calls = {"get_many": 0, "depth": 0}
    taken = []

    def get_many(max_keys, wait_s):
        calls["get_many"] += 1
        requests = RequestQueue.get_many(queue, max_keys, wait_s)
        taken.append(requests)
        return requests

    def never(name):
        def call(*args, **kwargs):
            calls[name] += 1
            return getattr(RequestQueue, name)(queue, *args, **kwargs)
        return call

    queue.get_many = get_many
    queue.depth = never("depth")

    def producer(stream):
        for request in stream:
            queue.put(request)

    producers = [threading.Thread(target=producer, args=(stream,),
                                  daemon=True) for stream in streams]
    for thread in producers:
        thread.start()
    closer = threading.Thread(
        target=lambda: ([t.join() for t in producers], queue.close()),
        daemon=True)
    closer.start()
    batches = []
    with RecMGManager(capacity, encoder, config) as manager:
        for batch in Batcher(queue, max_batch_keys=max_batch_keys,
                             max_wait_s=0.001).batches():
            hits = manager.serve_batch(batch.keys,
                                       queue_depth=batch.queue_depth)
            assert len(hits) == len(batch.keys)
            batches.append(batch)
        metrics = manager.serving_metrics
    closer.join(timeout=10)
    assert not closer.is_alive()

    assert calls == {"get_many": len(batches) + 1, "depth": 0}
    assert taken[-1] == []
    groups = taken[:-1]
    delivered = [request for group in groups for request in group]
    put = [request for stream in streams for request in stream]
    assert sorted(map(id, delivered)) == sorted(map(id, put))
    for tenant, stream in enumerate(streams):
        assert [r for r in delivered if r.tenant == tenant] == stream
    for batch, group in zip(batches, groups):
        sizes = [r.keys.size for r in group]
        assert sum(sizes[:-1]) < max_batch_keys
        assert batch.num_requests == len(group)
        assert np.array_equal(batch.keys,
                              np.concatenate([r.keys for r in group]))
        assert 0 <= batch.queue_depth <= queue.maxsize
    assert metrics.keys_served == len(dense)
