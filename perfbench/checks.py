"""Correctness checks computed apart from the program.

Each check takes plain values (arrays, numbers) that the loop collected and
returns a list of failure messages; an empty list is a pass.  They use
nothing from ``repro``, so a fault in the program cannot also hide in the
check that is meant to catch it.
"""

from __future__ import annotations

import numpy as np

#: Largest allowed gap between the benchmark's AUC and the program's.
AUC_TOLERANCE = 1e-9


def rank_auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """ROC AUC as the probability that a random positive outscores a random
    negative, ties counting one half: one pass over the distinct scores in
    ascending order, counting the negatives below each positive."""
    labels = np.asarray(labels, dtype=np.float64).reshape(-1) > 0.5
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    values, inverse = np.unique(scores, return_inverse=True)
    positives = np.bincount(inverse, weights=labels, minlength=values.size)
    negatives = np.bincount(inverse, weights=~labels, minlength=values.size)
    negatives_below = np.concatenate([[0.0], np.cumsum(negatives)[:-1]])
    wins = float(np.sum(positives * (negatives_below + 0.5 * negatives)))
    return wins / (positives.sum() * negatives.sum())


def check_auc(
    labels: np.ndarray, scores: np.ndarray, program_auc: float, untrained_auc: float
) -> list[str]:
    """The program's AUC matches a rank AUC of its own predictions, and the
    trained model beats the same model before its first step."""
    failures = []
    own = rank_auc(labels, scores)
    if not abs(own - program_auc) <= AUC_TOLERANCE:
        failures.append(f"program AUC {program_auc!r} != rank AUC {own!r} of its predictions")
    if not program_auc > untrained_auc:
        failures.append(f"trained AUC {program_auc!r} does not beat untrained AUC {untrained_auc!r}")
    return failures


def check_memory(memory_floats: int, num_features: int, dim: int, compression_ratio: float) -> list[str]:
    """The store keeps within the configured embedding-memory budget."""
    budget = num_features * dim / compression_ratio
    if memory_floats > budget:
        return [f"store holds {memory_floats} floats, over its budget of {budget:.1f}"]
    return []


def check_replica_parity(
    expected: np.ndarray, served: list[np.ndarray], versions: list[int], version: int
) -> list[str]:
    """Right after a publish every replica serves the probe block exactly as
    the live model predicts it, at the publisher's version."""
    failures = []
    for index, (probabilities, replica_version) in enumerate(zip(served, versions)):
        if replica_version != version:
            failures.append(f"replica {index} at version {replica_version}, publisher at {version}")
        if probabilities.shape != expected.shape or not np.array_equal(probabilities, expected):
            differing = (
                int(np.sum(probabilities != expected))
                if probabilities.shape == expected.shape
                else "all"
            )
            failures.append(f"replica {index} differs from the live model on {differing} probe rows")
    return failures


def check_checkpoint(live: np.ndarray, restored: np.ndarray) -> list[str]:
    """A session restored from the checkpoint predicts exactly as the live one."""
    if live.shape != restored.shape or not np.array_equal(live, restored):
        return ["restored session's test predictions differ from the live session's"]
    return []


def check_request(probabilities: np.ndarray, rows: int) -> list[str]:
    """A served request returns one finite probability in [0, 1] per row."""
    probabilities = np.asarray(probabilities)
    if probabilities.shape != (rows,):
        return [f"request returned shape {probabilities.shape}, expected ({rows},)"]
    if not (np.all(np.isfinite(probabilities)) and probabilities.min() >= 0.0 and probabilities.max() <= 1.0):
        return ["request returned a probability that is not finite or not in [0, 1]"]
    return []
