"""Layer spans recorded from outside the program.

The benchmark does not change ``src/``: it times calls into public methods by
wrapping them *at class level* for the life of one traced workload process.
Instance-level wrapping would not survive the program's own copies: the
stores copy-on-write their shards and table groups with ``copy.deepcopy``,
and the delta publisher deep-copies the live model for every replica, so a
wrapper stored on an instance would be carried into the copies while still
closing over the original object.  A class-level wrapper sees the ``self``
of every call instead, and a *namer* decides from ``self`` and the span
stack whether the call is a layer of interest (``None`` = run untimed).

Spans are timed on the process CPU clock, like the end-to-end operations
(see ``perfbench/online.py``).  Spans nest on one stack.  A *unit* is one root span (a train step, a served
request, a publish); durations of the spans inside it are summed per name,
so a per-layer figure is the median over units of that per-unit sum.  Every
span is also kept as a Chrome trace event (``ph: "X"``), written out at the
end of the run, which Perfetto and ``chrome://tracing`` open.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict
from typing import Any, Callable

from repro.embeddings.cafe import CafeEmbedding
from repro.embeddings.full import FullEmbedding
from repro.embeddings.hash_embedding import HashEmbedding
from repro.nn.tensor import Tensor
from repro.serving.delta import DeltaSnapshotPublisher
from repro.serving.replica import Replica
from repro.store import ShardedEmbeddingStore
from repro.store.snapshot import StoreSnapshot
from repro.store.table_group import TableGroup, TableGroupSnapshot


class Tracer:
    """The span stack, per-unit span sums and kept spans of one process."""

    def __init__(self) -> None:
        self.stack: list[str] = []
        self.events: list[tuple[str, int, int]] = []
        self.units: dict[str, list[dict[str, float]]] = defaultdict(list)
        self._unit: dict[str, float] | None = None

    # ------------------------------------------------------------------ #
    # Spans and units
    # ------------------------------------------------------------------ #
    def inside(self, name: str) -> bool:
        return name in self.stack

    def _timed(self, name: str, fn: Callable, *args, **kwargs):
        self.stack.append(name)
        start = time.process_time_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.process_time_ns() - start
            self.stack.pop()
            self.events.append((name, start, duration))
            if self._unit is not None:
                self._unit[name] = self._unit.get(name, 0.0) + duration / 1e6

    def unit(self, kind: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` as one root span of ``kind`` and keep its span sums."""
        if self._unit is not None:
            raise RuntimeError(f"unit {kind!r} opened inside another unit")
        self._unit = {}
        try:
            return self._timed(kind, fn, *args, **kwargs)
        finally:
            self.units[kind].append(self._unit)
            self._unit = None

    def median(self, kind: str, name: str, minus: str | None = None) -> float:
        """Median over ``kind`` units of the per-unit time in ``name`` (ms),
        less the time in ``minus``; a unit that never entered a span counts
        0 for it."""
        units = self.units.get(kind)
        if not units:
            return 0.0
        return float(
            statistics.median(
                unit.get(name, 0.0) - (unit.get(minus, 0.0) if minus else 0.0) for unit in units
            )
        )

    # ------------------------------------------------------------------ #
    # Class-level method wrapping
    # ------------------------------------------------------------------ #
    def wrap(self, cls: type, attr: str, namer: Callable[[Any], str | None]) -> None:
        """Time ``cls.attr`` calls under the span name ``namer(self)`` returns,
        for the rest of the process."""
        original = getattr(cls, attr)
        tracer = self

        @functools.wraps(original)
        def traced(obj, *args, **kwargs):
            name = namer(obj)
            if name is None:
                return original(obj, *args, **kwargs)
            return tracer._timed(name, original, obj, *args, **kwargs)

        setattr(cls, attr, traced)

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def write_chrome_trace(self, path) -> None:
        events = [
            {"name": name, "ph": "X", "ts": start / 1e3, "dur": duration / 1e3, "pid": 0, "tid": 0}
            for name, start, duration in self.events
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events}, handle)


def backend_kind(backend: Any) -> str:
    """``cafe`` / ``hash`` / ``full`` (or the class name) of an embedding
    backend; a sharded backend is named after its shards."""
    if isinstance(backend, ShardedEmbeddingStore):
        backend = backend.shards[0]
    for kind, cls in (("cafe", CafeEmbedding), ("hash", HashEmbedding), ("full", FullEmbedding)):
        if isinstance(backend, cls):
            return kind
    return type(backend).__name__.lower()


def instrument(tracer: Tracer, session: Any) -> None:
    """Wrap the layer boundaries of one session's train, publish and serve
    paths.  Train-side spans count only inside a ``train.step`` unit and
    only for the live objects; serve-side spans only inside ``serve.request``.
    """
    model, store = session.model, session.store
    optimizer = session.trainer.dense_optimizer
    inside = tracer.inside

    def live(target, name):
        return lambda obj: name if obj is target and inside("train.step") else None

    tracer.wrap(type(model), "forward", live(model, "nn.forward"))
    tracer.wrap(Tensor, "backward", lambda obj: "nn.backward" if inside("train.step") else None)
    tracer.wrap(type(optimizer), "step", live(optimizer, "nn.dense_optimizer"))
    tracer.wrap(type(store), "lookup", live(store, "store.lookup"))
    tracer.wrap(type(store), "apply_gradients", live(store, "store.apply_gradients"))
    tracer.wrap(type(store), "snapshot", lambda obj: "store.snapshot" if obj is store else None)

    # Per-backend time: a table group's fused call when the store is grouped,
    # else the backend method the store calls directly.  Only direct children
    # of the store span count, so a backend call inside a group span is not
    # counted twice.
    def backend_span(store_span, verb, backend_of):
        def namer(obj):
            if tracer.stack and tracer.stack[-1] == store_span:
                return f"embeddings.{backend_kind(backend_of(obj))}.{verb}"
            return None

        return namer

    tracer.wrap(TableGroup, "lookup_fused", backend_span("store.lookup", "lookup", _backend))
    tracer.wrap(TableGroup, "apply_fused", backend_span("store.apply_gradients", "apply", _backend))
    for cls in (CafeEmbedding, HashEmbedding, FullEmbedding):
        tracer.wrap(cls, "lookup", backend_span("store.lookup", "lookup", _itself))
        tracer.wrap(cls, "apply_gradients", backend_span("store.apply_gradients", "apply", _itself))

    tracer.wrap(
        DeltaSnapshotPublisher,
        "publish",
        lambda obj: "serving.publish.extract" if inside("publish") else None,
    )
    tracer.wrap(
        Replica,
        "apply",
        lambda obj: "serving.publish.replica_apply" if inside("publish") else None,
    )

    def view_lookup(obj):
        if inside("serve.request") and not inside("serving.view_lookup"):
            return "serving.view_lookup"
        return None

    tracer.wrap(StoreSnapshot, "lookup", view_lookup)
    tracer.wrap(TableGroupSnapshot, "lookup", view_lookup)
    tracer.wrap(
        type(model),
        "predict_proba",
        lambda obj: "serving.compute" if obj is not model and inside("serve.request") else None,
    )


def _backend(group: Any) -> Any:
    return group.backend


def _itself(backend: Any) -> Any:
    return backend
