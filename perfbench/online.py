"""One workload run: the online train→publish→serve loop, its checks, its metrics.

Started by ``perfbench/run.py`` in a fresh process with one BLAS thread:

    python3 -m perfbench.online --workload NAME --seed N --seconds S \
        --trace 0|1 --t0 MONOTONIC --out DIR

``--t0`` is the launcher's ``time.monotonic()`` just before it started this
process (one system-wide clock), so ``setup_s`` covers interpreter start,
imports, ``build(config)``, the untrained AUC, the bootstrap full publish
and the warm-up steps.  The last line of standard output is one JSON
object: the operation counts per kind, the check failures, the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).

The loop, single-threaded and closed:

    for each step of the session's chronological stream:
        next batch → trainer.train_step → every ``publish_every`` steps
        ReplicaTier.publish (+ replica parity check) → ``requests_per_step``
        ranking requests of 64 held-out rows through the replica router
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from perfbench import checks
from perfbench.layers import Gauges
from perfbench.tracer import Tracer, instrument
from perfbench.workloads import NUM_REPLICAS, REQUEST_ROWS, WARMUP_STEPS, WORKLOADS
from repro.api import build
from repro.serving.replica import ReplicaTier

#: The clock of every timed operation (steps, requests, publishes, batch
#: pulls).  It is the process's CPU clock, not the wall clock: the loop is one
#: thread of CPU work with no I/O, locks or worker processes, so the two
#: differ only by time the process was runnable but not running.  On a
#: shared 2-vCPU host that is hypervisor steal and other tenants: in five
#: runs timed on both clocks at once, serve p99 read 1.9-4.6 ms on the wall
#: clock and 1.9-2.2 ms on the CPU clock.  Work a change moves to another thread of the process is
#: still counted; work moved to another process is not (the ``processes``
#: executor is left out of the workloads for that reason among others).
#: ``setup_s`` and the checkpoint stall are wall-clock times.
clock = time.process_time


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", required=True)
    return parser.parse_args(argv)


class Loop:
    """State of one run: the session, the replica tier and what was measured."""

    def __init__(self, workload, seed: int, seconds: float, tracer, out_dir: Path):
        self.workload = workload
        self.config = workload.config(seconds)
        self.session = build(self.config)
        self.trainer = self.session.trainer
        self.tracer = tracer
        self.out_dir = out_dir
        self.failures: list[str] = []
        self.ops = {"train_steps": 0, "requests": 0, "publishes": 0}
        self.failed = {"train_steps": 0, "requests": 0, "publishes": 0}

        self.test = self.session.dataset.test_batch(num_samples=self.session.scale.test_samples)
        self.probe = (self.test.categorical[:REQUEST_ROWS], self.test.numerical[:REQUEST_ROWS])
        # The client's requests: random 64-row blocks of the held-out day,
        # drawn from the benchmark's own seeded sampler.
        total = workload.total_steps(seconds) * workload.requests_per_step
        sampler = np.random.default_rng([seed, 0xBE4C])
        self.request_rows = sampler.integers(0, len(self.test), size=(total, REQUEST_ROWS))
        self.untrained_auc = self.trainer.evaluate_auc(self.test)

        self.tier = ReplicaTier(
            self.session.model, num_replicas=NUM_REPLICAS, max_batch_size=REQUEST_ROWS
        )
        if tracer is not None:
            instrument(tracer, self.session)
        self.stream = self.session.dataset.training_stream(self.session.batch_size)
        self.next_request = 0
        self.step_ms: list[float] = []
        self.data_ms: list[float] = []
        self.serve_ms: list[float] = []
        self.publish_ms: list[float] = []
        self.payloads: list = []
        self.train_cpu_s = 0.0
        self.samples = 0

    # ------------------------------------------------------------------ #
    # Operations
    # ------------------------------------------------------------------ #
    def _unit(self, kind, fn, *args):
        if self.tracer is None:
            return fn(*args)
        return self.tracer.unit(kind, fn, *args)

    def publish(self) -> float | None:
        """One ``ReplicaTier.publish``; returns its seconds, None if it failed."""
        self.ops["publishes"] += 1
        start = clock()
        try:
            payload = self._unit("publish", self.tier.publish)
        except Exception:
            traceback.print_exc()
            self.failed["publishes"] += 1
            return None
        elapsed = clock() - start
        self.payloads.append(payload)
        self.check_parity()
        return elapsed

    def check_parity(self) -> None:
        expected = self.session.model.predict_proba(*self.probe)
        served = [replica.serve_batch(*self.probe)[0] for replica in self.tier.replicas.replicas]
        self.failures += checks.check_replica_parity(
            expected, served, self.tier.replicas.versions(), self.tier.publisher.version
        )

    def request(self) -> float | None:
        """One closed-loop ranking request; returns its seconds, None if it failed."""
        rows = self.request_rows[self.next_request]
        self.next_request += 1
        categorical, numerical = self.test.categorical[rows], self.test.numerical[rows]
        self.ops["requests"] += 1
        start = clock()
        try:
            probabilities = self._unit("serve.request", self.tier.predict, categorical, numerical)
        except Exception:
            traceback.print_exc()
            self.failed["requests"] += 1
            return None
        elapsed = clock() - start
        self.failures += checks.check_request(probabilities, REQUEST_ROWS)
        return elapsed

    def train(self, batch) -> float:
        self.ops["train_steps"] += 1
        start = clock()
        self._unit("train.step", self.trainer.train_step, batch)
        return clock() - start

    # ------------------------------------------------------------------ #
    # Phases
    # ------------------------------------------------------------------ #
    def warm_up(self) -> None:
        self.publish()
        for _ in range(WARMUP_STEPS):
            self.trainer.train_step(next(self.stream))
            for _ in range(self.workload.requests_per_step):
                self.request()
        self.ops = dict.fromkeys(self.ops, 0)
        self.failed = dict.fromkeys(self.failed, 0)
        self.payloads.clear()
        if self.tracer is not None:
            self.tracer.units.clear()
            self.tracer.events.clear()

    def timed_loop(self, gauges=None) -> None:
        workload = self.workload
        step = 0
        while True:
            batch_start = clock()
            batch = next(self.stream, None)
            if batch is None:
                break
            fetched = clock()
            self.data_ms.append((fetched - batch_start) * 1e3)
            if gauges is not None:
                gauges.before_step()
            self.step_ms.append(self.train(batch) * 1e3)
            if gauges is not None:
                gauges.after_step(batch)
            published = None
            if (step + 1) % workload.publish_every == 0:
                published = self.publish()
                if published is not None:
                    self.publish_ms.append(published * 1e3)
            self.train_cpu_s += fetched - batch_start + self.step_ms[-1] / 1e3 + (published or 0.0)
            self.samples += len(batch)
            for _ in range(workload.requests_per_step):
                served = self.request()
                if served is not None:
                    self.serve_ms.append(served * 1e3)
            step += 1

    def finish(self) -> dict:
        """AUC and memory checks after the timed loop."""
        store = self.session.store
        scores = self.trainer.predict(self.test)
        test_auc = self.trainer.evaluate_auc(self.test)
        self.failures += checks.check_auc(self.test.labels, scores, test_auc, self.untrained_auc)
        self.failures += checks.check_memory(
            store.memory_floats(),
            store.num_features,
            store.dim,
            self.config["store"]["compression_ratio"],
        )
        return {"test_auc": test_auc, "scores": scores}

    def checkpoint_round_trip(self, scores) -> dict:
        """Save, restore into a fresh session, compare test predictions."""
        path = self.out_dir / f"ckpt-{self.workload.name}-{os.getpid()}.npz"
        try:
            start = time.perf_counter()
            self.session.checkpoint(path)
            saved = time.perf_counter()
            size_mb = path.stat().st_size / 2**20
            with build(self.config) as fresh:
                restore_start = time.perf_counter()
                fresh.restore(path)
                restored = time.perf_counter()
                self.failures += checks.check_checkpoint(scores, fresh.trainer.predict(self.test))
        finally:
            path.unlink(missing_ok=True)
        return {
            "training.checkpoint_save_ms": (saved - start) * 1e3,
            "training.checkpoint_restore_ms": (restored - restore_start) * 1e3,
            "training.checkpoint_mb": size_mb,
        }


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    with open("/proc/self/maps", encoding="utf-8") as handle:
        paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def host_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def end_to_end(loop: Loop, setup_s: float, test_auc: float, peak_rss_mb: float) -> dict:
    return {
        "setup_s": setup_s,
        "train_samples_per_s": loop.samples / loop.train_cpu_s,
        "train_step_p50_ms": percentile(loop.step_ms, 50),
        "test_auc": test_auc,
        "peak_rss_mb": peak_rss_mb,
        "serve_p50_ms": percentile(loop.serve_ms, 50),
        "serve_p95_ms": percentile(loop.serve_ms, 95),
        "publish_p50_ms": percentile(loop.publish_ms, 50),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    loop = Loop(workload, args.seed, args.seconds, tracer, out_dir)
    loop.warm_up()
    gauges = Gauges(loop) if args.trace else None
    setup_s = time.monotonic() - args.t0
    wall_start, cpu_start = time.perf_counter(), clock()
    loop.timed_loop(gauges)
    loop_wall_s, loop_cpu_s = time.perf_counter() - wall_start, clock() - cpu_start
    host = dict(host_record(), loop_wall_s=loop_wall_s, loop_cpu_s=loop_cpu_s)
    # ru_maxrss is in KiB on Linux; read before the checkpoint phase builds a
    # second session.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    final = loop.finish()
    layers = loop.checkpoint_round_trip(final["scores"])
    if args.trace:
        metrics = gauges.metrics(layers)
        tracer.write_chrome_trace(out_dir / f"trace-{workload.name}-seed{args.seed}.json")
    else:
        metrics = end_to_end(loop, setup_s, final["test_auc"], peak_rss_mb)
    result = {
        "ops": loop.ops,
        "failed": loop.failed,
        "failures": loop.failures[:20],
        "num_failures": len(loop.failures),
        "metrics": metrics,
        "host": host,
    }
    sys.stdout.write(json.dumps(result) + "\n")
    loop.session.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
