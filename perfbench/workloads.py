"""The benchmark's three operating points of the online train→publish→serve loop.

Each workload is a ``SystemConfig`` for :func:`repro.api.build` plus the
loop's cadence.  The stream length is fixed work, derived from the run
length: ``steps_per_s`` is this loop's nominal rate on the reference host
(2 vCPUs, one BLAS thread), so a run of ``--seconds`` trains over a
chronological, drifting stream of about ``seconds × steps_per_s`` steps.  The work of
a run depends only on (workload, seed, seconds): a faster program finishes
the same stream sooner, and ``test_auc`` does not move with speed.

The program's own inputs (the preset's schema, its chronological stream,
the model's initial weights) come from ``PROGRAM_SEED`` in every run; the
benchmark's ``--seed`` drives the client's request sampler.  The schema
decides a workload's make-up: on the avazu preset the table-group spec gives
the CAFE group between 2 and 11 of the 22 fields depending on the config
seed, which moved the grouped workload's step time by 11% (IQR over median,
five seeds) before the config seed was pinned.
"""

from __future__ import annotations

from dataclasses import dataclass

#: ``SystemConfig.seed`` of every run (schema, stream, initial weights).  At
#: this seed the avazu table-group store has all three backends with the
#: median make-up over config seeds 0-39: 1 full, 5 CAFE and 16 hash fields.
PROGRAM_SEED = 2
#: Mini-batch size of the ``small`` scale.
BATCH_SIZE = 256
#: Whole batches per stream day (6144 samples, the ``small`` scale's 6000
#: rounded to whole batches).  A longer run streams more days, not bigger
#: ones: the generator materialises one day at a time, so bigger days would
#: make ``peak_rss_mb`` measure the generator rather than the system.
STEPS_PER_DAY = 24
#: Rows per ranking request and per replica micro-batch.
REQUEST_ROWS = 64
#: Replicas behind the router.
NUM_REPLICAS = 2
#: Untimed training steps (and requests) between the bootstrap publish and
#: the timed loop; they fill plan caches, COW copies and replica spares.
WARMUP_STEPS = 8


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    model: str
    store: dict
    publish_every: int
    requests_per_step: int
    steps_per_s: float

    def train_days(self, seconds: float) -> int:
        return max(1, round(seconds * self.steps_per_s / STEPS_PER_DAY))

    def total_steps(self, seconds: float) -> int:
        """Steps in the stream, warm-up included."""
        return self.train_days(seconds) * STEPS_PER_DAY

    def config(self, seconds: float) -> dict:
        return {
            "seed": PROGRAM_SEED,
            "data": {
                "dataset": self.dataset,
                "scale": "small",
                "num_days": self.train_days(seconds) + 1,  # the last day is held out
                "samples_per_day": STEPS_PER_DAY * BATCH_SIZE,
            },
            "store": {
                "executor": "serial",
                "optimizer": "adagrad",
                "learning_rate": 0.1,
                "dtype": "float32",
                **self.store,
            },
            "model": {"name": self.model},
            "train": {
                "batch_size": BATCH_SIZE,
                "dense_optimizer": "adam",
                "dense_learning_rate": 0.01,
            },
        }


#: Why each workload exists is written in ``BENCHMARK.json`` and the README.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="online_dlrm_cafe",
            dataset="criteo",
            model="dlrm",
            store={"spec": "cafe", "compression_ratio": 10.0, "num_shards": 1},
            publish_every=25,
            requests_per_step=1,
            steps_per_s=90.0,
        ),
        Workload(
            name="online_wdl_grouped",
            dataset="avazu",
            model="wdl",
            store={
                "spec": "full:tiny,cafe[cr=16,shards=4]:tail,hash[cr=8,dim=8]:mid",
                "compression_ratio": 10.0,
            },
            publish_every=25,
            requests_per_step=1,
            steps_per_s=95.0,
        ),
        Workload(
            name="serve_dlrm_sharded",
            dataset="criteo",
            model="dlrm",
            store={"spec": "cafe", "compression_ratio": 10.0, "num_shards": 4},
            publish_every=5,
            requests_per_step=8,
            steps_per_s=30.0,
        ),
    )
}
