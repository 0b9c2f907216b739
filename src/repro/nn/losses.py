"""The LambdaRank ranking loss (paper Section 4.2) and rank accuracy.

PaCM (and our TLP reimplementation) are trained as rankers: within each
tuning task, only the *ordering* of schedule latencies matters.
LambdaRank defines per-sample gradients (lambdas) directly, so training
never forms the loss value: :func:`lambdarank_grad` returns
d(loss)/d(scores), which goes straight into the network's backward.
"""

from __future__ import annotations

import numpy as np


def _dcg_discounts(n: int) -> np.ndarray:
    return 1.0 / np.log2(np.arange(2, n + 2))


def lambdarank_lambdas(
    scores: np.ndarray, labels: np.ndarray, sigma: float = 1.0
) -> np.ndarray:
    """LambdaRank gradients for one group (higher label = better).

    Uses |Delta NDCG| pair weights with exponential gains, the
    formulation of Burges et al. / the LambdaLoss framework the paper
    cites.
    """
    n = len(scores)
    if n < 2:
        return np.zeros(n)
    gains = (np.power(2.0, labels) - 1.0) / max(1e-12, 2.0 ** labels.max() - 1.0)
    order = np.argsort(-scores)
    ranks = np.empty(n, dtype=int)
    ranks[order] = np.arange(n)
    discounts = _dcg_discounts(n)[ranks]
    ideal = np.sort(gains)[::-1] @ _dcg_discounts(n)
    ideal = max(ideal, 1e-12)

    diff_label = labels[:, None] - labels[None, :]
    sij = np.sign(diff_label)
    score_diff = scores[:, None] - scores[None, :]
    rho = 1.0 / (1.0 + np.exp(np.clip(sigma * sij * score_diff, -60, 60)))
    delta_ndcg = (
        np.abs(gains[:, None] - gains[None, :])
        * np.abs(discounts[:, None] - discounts[None, :])
        / ideal
    )
    lam = -sigma * sij * rho * delta_ndcg
    return lam.sum(axis=1)


def lambdarank_grad(
    scores: np.ndarray,
    labels: np.ndarray,
    groups: list[np.ndarray],
    sigma: float = 1.0,
    max_group: int = 512,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Gradient of the LambdaRank loss over grouped samples w.r.t. ``scores``.

    Parameters
    ----------
    scores:
        Model outputs, shape (N,).
    labels:
        Ground-truth relevance (normalized throughput), shape (N,).
    groups:
        Index arrays; each group is ranked independently (one tuning
        task per group).
    max_group:
        Groups larger than this are subsampled per call to bound the
        O(n^2) pair computation.
    """
    lambdas = np.zeros_like(scores)
    for idx in groups:
        idx = np.asarray(idx)
        if len(idx) > max_group:
            if rng is None:
                rng = np.random.default_rng(0)
            idx = rng.choice(idx, size=max_group, replace=False)
        lambdas[idx] += lambdarank_lambdas(scores[idx], np.asarray(labels)[idx], sigma)
    return lambdas


def pairwise_rank_accuracy(
    scores: np.ndarray, labels: np.ndarray, groups: list[np.ndarray]
) -> float:
    """Fraction of correctly ordered pairs (reporting metric)."""
    correct = total = 0
    for idx in groups:
        s, l = scores[idx], labels[idx]
        diff_l = l[:, None] - l[None, :]
        diff_s = s[:, None] - s[None, :]
        mask = diff_l > 0
        total += int(mask.sum())
        correct += int(((diff_s > 0) & mask).sum())
    return correct / max(1, total)
