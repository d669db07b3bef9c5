"""Per-layer tracing for the traced run (``--trace 1``).

Spans are recorded from this directory only: after a workload's
set-up the harness shadows public methods of the serving objects with
instance-level timing wrappers (``manager.buffer`` and each shard's
view and backend, ``manager.priority_provider``, the models'
``predict``/``predict_indices``, the encoder, the request queue and the
batch iterator).  A span is ``(name, start_ns, end_ns, parent, work)``;
``parent`` is the index of the span that was open when it began, so
every span of one operation hangs under that operation's ``bench.op``
root.  Spans stay in memory until the run ends.  A layer's *self* time
is its spans' duration minus the part their child spans cover; layers
are named after the ``repro`` modules (the span-name prefix).

Every attribute is looked up with ``getattr``: a method a later change
removed is skipped and its metrics read 0, never an exception.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

#: Layer of a span = the longest of these prefixes its name starts with.
LAYERS = (
    "core.features", "core.caching_model", "core.prefetch_model",
    "core.manager", "cache.buffer", "cache.sharding",
    "serving.admission", "serving.priorities", "bench.op",
)

#: Buffer protocol methods the serving engines call, with the work
#: (keys or victims) one call accounts for.
_BUFFER_METHODS: Dict[str, Callable] = {
    "contains_batch": lambda args, result: len(args[0]),
    "put_batch": lambda args, result: len(args[0]),
    "set_priority_batch": lambda args, result: len(args[0]),
    "demote_batch": lambda args, result: len(args[0]),
    "evict_batch": lambda args, result: len(result),
    "serve_segment": lambda args, result: int(result[0]) if result else 0,
    "insert": lambda args, result: 1,
    "set_priority": lambda args, result: 1,
    "demote": lambda args, result: 1,
    "evict_one": lambda args, result: 1,
}

_ENCODER_METHODS = ("encode_dense_chunks", "dense_ids", "table_indices",
                    "tables_for_dense", "normalize", "freq_values")


class Recorder:
    """In-memory span store (parallel lists; one open-span stack)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.parents: List[int] = []
        self.works: List[int] = []
        self.counters: Counter = Counter()
        self._stack: List[int] = []

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self.works.append(0)
        self._stack.append(index)
        self.starts.append(time.perf_counter_ns())
        return index

    def end(self, index: int, work: int = 0) -> None:
        self.ends[index] = time.perf_counter_ns()
        self.works[index] = work
        self._stack.pop()

    def as_columns(self) -> Dict[str, list]:
        """The raw spans, for ``--out``."""
        return {"name": self.names, "start_ns": self.starts,
                "end_ns": self.ends, "parent": self.parents,
                "work": self.works}


def _wrap(recorder: Recorder, owner, method: str, span: str,
          work: Optional[Callable] = None) -> None:
    """Shadow ``owner.method`` with a span-recording wrapper (no-op
    when the method does not exist)."""
    inner = getattr(owner, method, None)
    if inner is None:
        return

    def traced(*args, **kwargs):
        index = recorder.begin(span)
        try:
            result = inner(*args, **kwargs)
        except BaseException:
            recorder.end(index)
            raise
        recorder.end(index, work(args, result) if work else 0)
        return result

    setattr(owner, method, traced)


def _wrap_buffer(recorder: Recorder, buffer, prefix: str) -> None:
    for method, work in _BUFFER_METHODS.items():
        _wrap(recorder, buffer, method, f"{prefix}.{method}", work)


def _wrap_router(recorder: Recorder, buffer) -> None:
    """Time ``ShardedBuffer.iter_shard_segments`` (route + compress):
    one span per generator step, so the consumer's per-shard serving
    between two yields is not billed to the router."""
    inner = getattr(buffer, "iter_shard_segments", None)
    if inner is None:
        return

    def traced(keys):
        steps = inner(keys)
        work = len(keys)
        while True:
            index = recorder.begin("cache.sharding.route")
            try:
                item = next(steps)
            except StopIteration:
                recorder.end(index, work)
                return
            except BaseException:
                recorder.end(index)
                raise
            recorder.end(index, work)
            work = 0
            recorder.counters[f"shard_keys.{item[0]}"] += len(item[2])
            yield item

    buffer.iter_shard_segments = traced


def _bits_work(recorder: Recorder) -> Callable:
    def work(args, result) -> int:
        if result is None:
            return 0
        recorder.counters["bits.keys"] += len(result)
        recorder.counters["bits.predicted"] += int(
            np.count_nonzero(result >= 0))
        recorder.counters["bits.friendly"] += int(
            np.count_nonzero(result == 1))
        return len(result)
    return work


def traced_batches(recorder: Recorder, batches):
    """The batch iterator with one ``serving.admission.form`` span per
    batch (its 128 ``queue.get`` calls are not spanned one by one: that
    alone cost 8 % of the op)."""
    while True:
        index = recorder.begin("serving.admission.form")
        try:
            batch = next(batches)
        except StopIteration:
            recorder.end(index)
            return
        recorder.end(index, batch.num_requests)
        yield batch


def install(recorder: Recorder, serving) -> None:
    """Shadow the public methods of ``serving``'s objects (see module
    docstring).  ``serving`` is a :mod:`workloads` serving object."""
    manager = serving.manager
    _wrap(recorder, manager, "serve_batch", "core.manager.serve_batch",
          lambda args, result: len(result))
    _wrap(recorder, manager, "run", "core.manager.run",
          lambda args, result: len(args[0]))

    buffer = getattr(manager, "buffer", None)
    shards = getattr(buffer, "shards", None)
    if shards is not None:
        _wrap_router(recorder, buffer)
        for view in shards:
            _wrap_buffer(recorder, view, "cache.sharding.view")
            backend = getattr(view, "backend", None)
            if backend is not None:
                _wrap_buffer(recorder, backend, "cache.buffer")
    elif buffer is not None:
        _wrap_buffer(recorder, buffer, "cache.buffer")

    provider = getattr(manager, "priority_provider", None)
    if provider is not None:
        _wrap(recorder, provider, "observe", "serving.priorities.observe")
        _wrap(recorder, provider, "bits_for", "serving.priorities.bits_for",
              _bits_work(recorder))
    caching = getattr(manager, "caching_model", None)
    if caching is not None:
        _wrap(recorder, caching, "predict", "core.caching_model.predict",
              lambda args, result: len(result))
    prefetch = getattr(manager, "prefetch_model", None)
    if prefetch is not None:
        _wrap(recorder, prefetch, "predict_indices",
              "core.prefetch_model.predict_indices",
              lambda args, result: len(result))
    encoder = getattr(manager, "encoder", None)
    if encoder is not None:
        for method in _ENCODER_METHODS:
            _wrap(recorder, encoder, method, f"core.features.{method}")

    queue = getattr(serving, "queue", None)
    if queue is not None:
        _wrap(recorder, queue, "put", "serving.admission.put",
              lambda args, result: 1)
        serving.batches = traced_batches(recorder, serving.batches)


def _layer_of(name: str) -> str:
    for layer in LAYERS:
        if name.startswith(layer):
            return layer
    raise ValueError(f"span {name!r} belongs to no layer")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def summarize(recorder: Recorder) -> Dict[str, float]:
    """Aggregate the spans into the span-derived per-layer metrics.

    A metric whose layer did no work on this workload reads 0.
    """
    names = recorder.names
    duration = np.asarray(recorder.ends, dtype=np.int64) - np.asarray(
        recorder.starts, dtype=np.int64)
    parents = np.asarray(recorder.parents, dtype=np.int64)
    works = np.asarray(recorder.works, dtype=np.int64)
    child = np.zeros(len(names), dtype=np.int64)
    has_parent = parents >= 0
    np.add.at(child, parents[has_parent], duration[has_parent])
    self_time = duration - child

    by_name: Dict[str, List[int]] = defaultdict(list)
    for index, name in enumerate(names):
        by_name[name].append(index)

    def total(span_names, column) -> float:
        return float(sum(column[by_name[name]].sum()
                         for name in span_names if name in by_name))

    def layer_self(layer: str) -> float:
        return total([n for n in by_name if _layer_of(n) == layer],
                     self_time)

    op_ns = total(["bench.op"], duration)
    ops = len(by_name.get("bench.op", ()))

    def busy(layer: str) -> float:
        return _ratio(layer_self(layer), op_ns)

    def ns_per_work(*span_names) -> float:
        return _ratio(total(span_names, duration), total(span_names, works))

    manager_spans = [n for n in by_name if n.startswith("core.manager.")]
    manager_ms = np.concatenate(
        [duration[by_name[n]] for n in manager_spans]
    ) / 1e6 if manager_spans else np.zeros(0)

    chunks = (total(["core.caching_model.predict"], works)
              or total(["core.prefetch_model.predict_indices"], works))
    buffer_spans = [n for n in by_name if n.startswith("cache.buffer.")]
    shard_keys = [count for key, count in recorder.counters.items()
                  if key.startswith("shard_keys.")]
    # The drained iterator's last step formed no batch (work 0).
    batches = int(np.count_nonzero(
        works[by_name.get("serving.admission.form", [])]))
    apply_ns = _apply_ns(recorder, duration, by_name)
    counters = recorder.counters

    return {
        "core.features.encode_us_per_chunk":
            _ratio(layer_self("core.features"), chunks) / 1e3,
        "core.caching_model.predict_us_per_chunk":
            ns_per_work("core.caching_model.predict") / 1e3,
        "core.caching_model.busy_share": busy("core.caching_model"),
        "core.prefetch_model.predict_us_per_chunk":
            ns_per_work("core.prefetch_model.predict_indices") / 1e3,
        "core.prefetch_model.busy_share": busy("core.prefetch_model"),
        "core.manager.op_ms_p50":
            float(np.percentile(manager_ms, 50)) if manager_ms.size else 0.0,
        "core.manager.op_ms_p99":
            float(np.percentile(manager_ms, 99)) if manager_ms.size else 0.0,
        "core.manager.self_share": busy("core.manager"),
        "cache.buffer.contains_ns_per_key":
            ns_per_work("cache.buffer.contains_batch"),
        "cache.buffer.put_ns_per_key": ns_per_work("cache.buffer.put_batch"),
        "cache.buffer.evict_ns_per_victim":
            ns_per_work("cache.buffer.evict_batch", "cache.buffer.evict_one"),
        "cache.buffer.serve_segment_ns_per_key":
            ns_per_work("cache.buffer.serve_segment"),
        "cache.buffer.priority_write_ns_per_key":
            ns_per_work("cache.buffer.set_priority_batch",
                        "cache.buffer.demote_batch"),
        "cache.buffer.busy_share": busy("cache.buffer"),
        "cache.buffer.calls_per_op":
            _ratio(sum(len(by_name[n]) for n in buffer_spans), ops),
        "cache.sharding.route_ns_per_key":
            ns_per_work("cache.sharding.route"),
        "cache.sharding.busy_share": busy("cache.sharding"),
        "cache.sharding.imbalance":
            _ratio(max(shard_keys, default=0) * len(shard_keys),
                   sum(shard_keys)),
        "serving.admission.put_us_per_request":
            ns_per_work("serving.admission.put") / 1e3,
        "serving.admission.form_ms_per_batch":
            _ratio(total(["serving.admission.form"], duration), batches)
            / 1e6,
        "serving.admission.requests_per_batch":
            _ratio(total(["serving.admission.form"], works), batches),
        "serving.admission.busy_share": busy("serving.admission"),
        "serving.priorities.bits_ms_per_op":
            _ratio(total(["serving.priorities.observe",
                          "serving.priorities.bits_for"], duration),
                   ops) / 1e6,
        "serving.priorities.apply_ms_per_op": _ratio(apply_ns, ops) / 1e6,
        "serving.priorities.predicted_share":
            _ratio(counters["bits.predicted"], counters["bits.keys"]),
        "serving.priorities.friendly_share":
            _ratio(counters["bits.friendly"], counters["bits.keys"]),
        "serving.priorities.busy_share": busy("serving.priorities"),
    }


def _apply_ns(recorder: Recorder, duration: np.ndarray,
              by_name: Dict[str, List[int]]) -> float:
    """Time of the provider sink's priority writes: the buffer spans
    (residency gather + ``set_priority_batch``/``demote_batch``) that
    begin, inside the same manager call, after ``bits_for`` returned —
    ``apply_caching_bits`` is a module function and cannot be shadowed
    on an instance, so its span is reconstructed from its callees."""
    total = 0
    parents = recorder.parents
    starts = recorder.starts
    bits_end = {parents[i]: recorder.ends[i]
                for i in by_name.get("serving.priorities.bits_for", ())}
    if not bits_end:
        return 0.0
    for name, indices in by_name.items():
        if not name.startswith(("cache.buffer.", "cache.sharding.view.")):
            continue
        for index in indices:
            done = bits_end.get(parents[index])
            if done is not None and starts[index] >= done:
                total += duration[index]
    return float(total)
