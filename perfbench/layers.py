"""Per-layer metrics of a traced run.

Times come from the :class:`~perfbench.tracer.Tracer` spans; everything else
is read from the program's public counters around each training step
(``plan_stats``, CAFE ``phase_snapshot()``, executor ``stats``), at the end
of the run (``merged_sketch()``, ``memory_floats()``) or from the publish
payloads and replica counters.  The exact id frequencies behind
``sketch.hot_recall`` are counted here, from the batches the loop fed.
"""

from __future__ import annotations

import statistics
from collections import Counter

import numpy as np

from perfbench.tracer import backend_kind
from repro.store import ShardedEmbeddingStore
from repro.store.table_group import TableGroupStore

#: CAFE ``phase_snapshot()`` keys and the per-layer names they report under.
CAFE_PHASES = {"locate": "locate", "apply": "update", "sketch": "sketch", "admit": "admit"}
#: Backends with their own per-layer lookup/apply figures.
BACKEND_KINDS = ("cafe", "hash", "full")


def _units(store) -> list:
    """The store's top-level parts: table-group backends, or the store itself."""
    if isinstance(store, TableGroupStore):
        return [group.backend for group in store.groups]
    return [store]


def live_backends(store) -> list:
    """Every live embedding backend (re-read each time: copy-on-write
    replaces shard and group objects)."""
    backends = []
    for unit in _units(store):
        backends.extend(unit.shards if isinstance(unit, ShardedEmbeddingStore) else [unit])
    return backends


class Gauges:
    """Counters read around every timed training step of one traced run."""

    def __init__(self, loop):
        self.loop = loop
        self.store = loop.session.store
        self.phase_ms: dict[str, list[float]] = {name: [] for name in CAFE_PHASES.values()}
        self.grad_bytes: list[int] = []
        self.plan_hits = 0
        self.plan_misses = 0
        # Exact id frequencies in the id space CAFE sees: global ids for a
        # uniform store, the CAFE group's local ids for a table-group store.
        if isinstance(self.store, TableGroupStore):
            cafe_groups = [g for g in self.store.groups if backend_kind(g.backend) == "cafe"]
            if len(cafe_groups) != 1:
                raise ValueError("hot recall needs exactly one CAFE table group")
            self.cafe_group = cafe_groups[0]
            id_space = self.cafe_group.backend.num_features
        else:
            self.cafe_group = None
            id_space = self.store.num_features
        self.id_counts = np.zeros(id_space, dtype=np.int64)
        self.publisher_start = loop.tier.publisher.stats.as_dict()
        self.replica_start = self._replica_totals()
        self._before = None

    def _replica_totals(self) -> tuple[int, int]:
        replicas = self.loop.tier.replicas.replicas
        return (
            sum(replica.rows_served for replica in replicas),
            sum(replica.micro_batches for replica in replicas),
        )

    def _read(self):
        phases = Counter()
        for backend in live_backends(self.store):
            if backend_kind(backend) == "cafe":
                phases.update(backend.phase_snapshot())
        stats = self.store.plan_stats
        # Executors are re-read too: a group's copy-on-write copy carries
        # its own executor (and stats) from then on.
        executors = [self.store.executor] + [
            unit.executor for unit in _units(self.store) if isinstance(unit, ShardedEmbeddingStore)
        ]
        grad = sum(executor.stats.grad_bytes for executor in executors)
        return phases, stats.hits, stats.misses, grad

    def before_step(self) -> None:
        self._before = self._read()

    def after_step(self, batch) -> None:
        phases, hits, misses, grad = self._read()
        old_phases, old_hits, old_misses, old_grad = self._before
        for key, name in CAFE_PHASES.items():
            self.phase_ms[name].append((phases[key] - old_phases[key]) / 1e6)
        self.plan_hits += hits - old_hits
        self.plan_misses += misses - old_misses
        self.grad_bytes.append(grad - old_grad)
        ids = batch.categorical
        if self.cafe_group is not None:
            ids = self.cafe_group.local_ids(ids)
        self.id_counts += np.bincount(ids.reshape(-1), minlength=self.id_counts.size)

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def sketch_metrics(self) -> dict:
        sketch = self.store.merged_sketch()
        hot, _ = sketch.hot_features()
        capacity = sum(
            backend.num_hot_rows
            for backend in live_backends(self.store)
            if backend_kind(backend) == "cafe"
        )
        k = min(capacity, int(np.count_nonzero(self.id_counts)))
        top = np.argsort(-self.id_counts, kind="stable")[:k]
        return {
            "sketch.hot_features": int(hot.size),
            "sketch.hot_lookup_share": float(self.id_counts[hot].sum() / self.id_counts.sum()),
            "sketch.hot_recall": float(np.isin(top, hot).mean()),
        }

    def metrics(self, checkpoint: dict) -> dict:
        loop, tracer = self.loop, self.loop.tracer

        def step(name):
            return tracer.median("train.step", name)

        def publish(name):
            return tracer.median("publish", name)

        stats = loop.tier.publisher.stats.as_dict()
        rows, batches = self._replica_totals()
        metrics = {
            "data.next_batch_ms": statistics.median(loop.data_ms),
            "nn.forward_ms": tracer.median("train.step", "nn.forward", minus="store.lookup"),
            "nn.backward_ms": step("nn.backward"),
            "nn.dense_optimizer_ms": step("nn.dense_optimizer"),
            "store.lookup_ms": step("store.lookup"),
            "store.apply_gradients_ms": step("store.apply_gradients"),
            "store.plan_reuse_rate": self.plan_hits / max(self.plan_hits + self.plan_misses, 1),
            "runtime.grad_bytes_per_step": statistics.median(self.grad_bytes),
        }
        for kind in BACKEND_KINDS:
            metrics[f"embeddings.{kind}.lookup_ms"] = step(f"embeddings.{kind}.lookup")
            metrics[f"embeddings.{kind}.apply_ms"] = step(f"embeddings.{kind}.apply")
        for name, values in self.phase_ms.items():
            metrics[f"embeddings.cafe.phase.{name}_ms"] = statistics.median(values)
        metrics.update(self.sketch_metrics())
        metrics["memory.embedding_floats"] = int(self.store.memory_floats())
        metrics["memory.optimizer_floats"] = int(
            sum(backend.optimizer_memory_floats() for backend in live_backends(self.store))
        )
        metrics.update(
            {
                "store.snapshot_ms": publish("store.snapshot"),
                "serving.publish.extract_ms": publish("serving.publish.extract"),
                "serving.publish.replica_apply_ms": publish("serving.publish.replica_apply"),
                "serving.publish.rows_shipped": statistics.median(p.payload_rows for p in loop.payloads),
                "serving.publish.floats_shipped": statistics.median(
                    p.payload_floats for p in loop.payloads
                ),
                "serving.publish.full_count": stats["full_publishes"] - self.publisher_start["full_publishes"],
                "serving.publish.delta_count": stats["delta_publishes"]
                - self.publisher_start["delta_publishes"],
                "serving.request_p99_ms": float(np.percentile(loop.serve_ms, 99)),
                "serving.view_lookup_ms": tracer.median("serve.request", "serving.view_lookup"),
                "serving.dense_forward_ms": tracer.median(
                    "serve.request", "serving.compute", minus="serving.view_lookup"
                ),
                "serving.micro_batch_rows": (rows - self.replica_start[0])
                / max(batches - self.replica_start[1], 1),
            }
        )
        metrics.update(checkpoint)
        covered = ("nn.forward", "nn.backward", "store.apply_gradients", "nn.dense_optimizer")
        metrics["trace.step_uncovered_share"] = statistics.median(
            1.0 - sum(unit.get(name, 0.0) for name in covered) / unit["train.step"]
            for unit in tracer.units["train.step"]
        )
        return metrics
