"""Independent computations the benchmark checks the program's outputs against.

Nothing here imports topicensemble. Each function is written from the
method's definition, by a different route than the program takes where
one exists: agreement counts rater pairs directly, PCA goes through an SVD,
the threshold and AUPRC sweeps count positives at every candidate cut.
test_pipebench.py checks these against literal brute force on small inputs.
"""
from __future__ import annotations

import math
from itertools import combinations

import numpy as np


def agreement(ratings: np.ndarray, k: int) -> tuple[float | None, float | None]:
    """(AC1, Fleiss kappa) of an (items, raters) category matrix.

    Observed agreement is the share of agreeing rater pairs per item, counted
    pair by pair; p_j is the share of all ratings in category j. A
    coefficient is None when its chance term reaches 1.
    """
    items, n = ratings.shape
    agree = np.zeros(items)
    for a, b in combinations(range(n), 2):
        agree += ratings[:, a] == ratings[:, b]
    po = float(agree.mean()) / (n * (n - 1) / 2)
    p = np.array([(ratings == j).sum() for j in range(k)], dtype=np.float64) / ratings.size
    pe_ac1 = float(np.sum(p * (1.0 - p))) / (k - 1)
    pe_fleiss = float(np.sum(p * p))
    ac1 = (po - pe_ac1) / (1.0 - pe_ac1) if pe_ac1 < 1.0 else None
    fleiss = (po - pe_fleiss) / (1.0 - pe_fleiss) if pe_fleiss < 1.0 else None
    return ac1, fleiss


def score_bins(scores: np.ndarray) -> np.ndarray:
    """Ten ordinal levels of width 0.1; 1.0 joins the top level."""
    return np.minimum(np.floor(np.asarray(scores) * 10.0), 9).astype(np.int64)


def label_ac1(vectors: list[np.ndarray]) -> float:
    ratings = np.stack([np.where(v, 0, 1) for v in vectors], axis=1)
    return agreement(ratings, 2)[0]


def greedy_outliers(labels: dict[str, np.ndarray], fraction: float):
    """Greedy leave-one-out scan: (base AC1, first-round deltas, excluded)."""
    names = list(labels)

    def ac1(subset):
        return label_ac1([labels[m] for m in subset])

    base = ac1(names)
    first = {m: ac1([x for x in names if x != m]) - base for m in names}
    current, excluded = list(names), []
    while len(current) > 2:
        round_base = ac1(current)
        deltas = {m: ac1([x for x in current if x != m]) - round_base for m in current}
        worst = max(current, key=lambda m: deltas[m])
        if deltas[worst] > max(fraction * round_base, 0.0):
            excluded.append(worst)
            current.remove(worst)
        else:
            break
    return base, first, excluded


def pc1(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(unit weights, min-max rescaled projection) of the first principal
    component, oriented to correlate non-negatively with the row mean."""
    centered = scores - scores.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    w = vt[0]
    raw = centered @ w
    row_mean = scores.mean(axis=1)
    orient = float(raw @ (row_mean - row_mean.mean()))
    if orient < 0.0 or (orient == 0.0 and w.sum() < 0.0):
        w, raw = -w, -raw
    return w, (raw - raw.min()) / (raw.max() - raw.min())


def _positives_at(sorted_scores: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """How many of the (ascending) scores are >= each cut."""
    return sorted_scores.size - np.searchsorted(sorted_scores, cuts, side="left")


def lowest_best_cut(score: np.ndarray, target: np.ndarray) -> float:
    """Lowest F1-maximal threshold over every candidate cut: midpoints of
    consecutive distinct scores plus one sentinel on each side. With no
    positive target the sentinel above the maximum wins."""
    distinct = np.unique(score)
    cuts = np.concatenate(([distinct[0] - 1.0], (distinct[:-1] + distinct[1:]) / 2.0,
                           [distinct[-1] + 1.0]))
    if not target.any():
        return float(cuts[-1])
    predicted = _positives_at(np.sort(score), cuts)
    tp = _positives_at(np.sort(score[target]), cuts)
    f1 = np.where(tp > 0, 2.0 * tp / (predicted + target.sum()), 0.0)
    return float(cuts[int(np.flatnonzero(f1 == f1.max())[0])])


def fuse(labels: np.ndarray, scores: np.ndarray):
    """Ensemble of one topic: (weights, pc1, tau, union, majority, final)."""
    w, p = pc1(scores)
    union = labels.any(axis=1)
    majority = labels.sum(axis=1) > labels.shape[1] / 2.0
    tau = lowest_best_cut(p, majority)
    return w, p, tau, union, majority, union & (p >= tau)


def confusion(pred: np.ndarray, gold: np.ndarray):
    """(precision, sensitivity, f1); an undefined ratio is None."""
    tp = int(np.sum(pred & gold))
    fp = int(np.sum(pred & ~gold))
    fn = int(np.sum(~pred & gold))
    precision = tp / (tp + fp) if tp + fp else None
    sensitivity = tp / (tp + fn) if tp + fn else None
    f1 = 2.0 * tp / (2 * tp + fp + fn) if tp else 0.0
    return precision, sensitivity, f1


def average_precision(score: np.ndarray, gold: np.ndarray) -> float | None:
    """Sum over distinct score levels (descending) of recall gained times
    precision at that level; None without gold positives."""
    total = int(gold.sum())
    if total == 0:
        return None
    levels = np.unique(score)[::-1]
    predicted = _positives_at(np.sort(score), levels)
    tp = _positives_at(np.sort(score[gold]), levels)
    recall = tp / total
    gained = np.diff(np.concatenate(([0.0], recall)))
    return float(np.sum(gained * tp / predicted))


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    u = u.astype(np.float64)
    v = v.astype(np.float64)
    return float(np.dot(u, v) / math.sqrt(float(np.dot(u, u)) * float(np.dot(v, v))))
