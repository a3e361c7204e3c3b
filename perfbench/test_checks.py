"""Each correctness check of the benchmark fails on a corrupted result.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the repository
root.  The results come from a tiny real session, then one thing in them is
corrupted: a replica's probe row, the reported AUC, the store's float count,
one weight of a restored model, one probability of a request.
"""

from __future__ import annotations

import numpy as np
import pytest

from perfbench import checks
from repro.api import build
from repro.serving.replica import ReplicaTier
from repro.training.metrics import roc_auc

CONFIG = {
    "seed": 0,
    "data": {"dataset": "criteo", "scale": "tiny"},
    "store": {"spec": "cafe", "compression_ratio": 10.0, "optimizer": "adagrad"},
    "model": {"name": "dlrm"},
}


@pytest.fixture(scope="module")
def trained():
    session = build(CONFIG)
    test = session.dataset.test_batch(num_samples=512)
    untrained_auc = session.trainer.evaluate_auc(test)
    session.trainer.train_stream(session.dataset.training_stream(session.batch_size), max_steps=20)
    yield session, test, untrained_auc
    session.close()


def test_rank_auc_matches_the_program_with_ties():
    rng = np.random.default_rng(3)
    labels = (rng.random(2000) < 0.3).astype(float)
    scores = np.round(rng.random(2000), 2)  # many tied scores
    assert abs(checks.rank_auc(labels, scores) - roc_auc(labels, scores)) <= checks.AUC_TOLERANCE


def test_auc_check_passes_then_fails_when_off_by_a_hundredth(trained):
    session, test, untrained_auc = trained
    scores = session.trainer.predict(test)
    auc = session.trainer.evaluate_auc(test)
    assert checks.check_auc(test.labels, scores, auc, untrained_auc) == []
    assert checks.check_auc(test.labels, scores, auc + 0.01, untrained_auc)
    assert checks.check_auc(test.labels, scores, auc, untrained_auc=auc)


def test_memory_check_fails_over_budget(trained):
    session, _, _ = trained
    store = session.store
    cr = CONFIG["store"]["compression_ratio"]
    assert checks.check_memory(store.memory_floats(), store.num_features, store.dim, cr) == []
    budget = int(store.num_features * store.dim / cr)
    assert checks.check_memory(budget + 1, store.num_features, store.dim, cr)


def test_replica_parity_fails_on_one_perturbed_row(trained):
    session, test, _ = trained
    tier = ReplicaTier(session.model, num_replicas=2, max_batch_size=64)
    tier.publish()
    probe = (test.categorical[:64], test.numerical[:64])
    expected = session.model.predict_proba(*probe)
    served = [replica.serve_batch(*probe)[0] for replica in tier.replicas.replicas]
    versions = tier.replicas.versions()
    version = tier.publisher.version
    assert checks.check_replica_parity(expected, served, versions, version) == []

    perturbed = [served[0], served[1].copy()]
    perturbed[1][7] = np.nextafter(perturbed[1][7], 2.0)
    assert checks.check_replica_parity(expected, perturbed, versions, version)
    assert checks.check_replica_parity(expected, served, [version, version - 1], version)


def test_checkpoint_check_fails_on_one_changed_weight(trained, tmp_path):
    session, test, _ = trained
    path = session.checkpoint(tmp_path / "ckpt.npz")
    live = session.trainer.predict(test)
    with build(CONFIG) as fresh:
        fresh.restore(path)
        assert checks.check_checkpoint(live, fresh.trainer.predict(test)) == []
        weight = next(iter(fresh.model.parameters()))
        weight.data.flat[0] += 1e-3
        assert checks.check_checkpoint(live, fresh.trainer.predict(test))


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda p: np.where(np.arange(p.size) == 3, np.nan, p),
        lambda p: np.where(np.arange(p.size) == 3, 1.5, p),
        lambda p: p[:-1],
    ],
    ids=["nan", "above-one", "short"],
)
def test_request_check_fails_on_a_bad_probability(trained, corrupt):
    session, test, _ = trained
    probabilities = session.model.predict_proba(test.categorical[:64], test.numerical[:64])
    assert checks.check_request(probabilities, 64) == []
    assert checks.check_request(corrupt(probabilities), 64)
