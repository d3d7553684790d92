"""Score and label fusion across models for one topic.

The per-model relevancy scores are projected onto the first principal
component of their covariance (variance-maximizing unit-norm weights), the
projection is oriented to correlate non-negatively with the per-text mean
score and min-max rescaled to [0, 1], and a threshold on that scale is swept
to best predict the majority-vote (intersection) label by F1. Union-positive
texts whose ensemble score falls below the chosen threshold are demoted in
the final label; negatives are never promoted.

Interpretation choices that the formulas do not pin down (documented here
because results depend on them): columns are mean-centered but not scaled to
unit variance; the eigenvector sign is fixed by the row-mean correlation
(ties flip toward sum(w) >= 0); thresholding is closed on the positive side
(pc1 >= tau); equal-F1 ties resolve to the lowest candidate threshold,
preserving sensitivity.
"""
from __future__ import annotations

from collections.abc import Mapping, Sequence, Set
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import TooFewModels, ZeroVariance


@dataclass(frozen=True)
class ScoreMatrix:
    """Complete texts-by-models matrix of relevancy scores in [0, 1]."""

    values: np.ndarray
    models: tuple[str, ...]
    topic: str = ""

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 2:
            raise ValueError("score matrix must be 2-D (texts x models)")
        if values.shape[1] != len(self.models):
            raise ValueError("column count must match model names")
        if values.shape[1] < 2:
            raise TooFewModels("score ensembling needs >=2 model columns")
        if not np.isfinite(values).all():
            raise ValueError("score matrix has missing or non-finite cells")
        if (values < 0.0).any() or (values > 1.0).any():
            raise ValueError("scores must lie in [0, 1]")


@dataclass(frozen=True)
class ScoreEnsemble:
    weights: np.ndarray  # unit L2 norm, one weight per model column
    pc1: np.ndarray  # per-text ensemble score, min-max rescaled to [0, 1]
    orientation_sign: int


class Sweep(NamedTuple):
    """A threshold sweep as columns, one entry per candidate threshold."""

    threshold: np.ndarray
    precision: np.ndarray  # NaN where nothing is predicted positive
    sensitivity: np.ndarray  # NaN when the target has no positives
    f1: np.ndarray


@dataclass(frozen=True)
class EnsembleDecision:
    union_label: np.ndarray
    intersection_label: np.ndarray
    tau: float
    final_label: np.ndarray
    sweep: Sweep


def pca_first_component(m: ScoreMatrix | np.ndarray) -> ScoreEnsemble:
    """Unit-norm weights maximizing projected variance, plus the projection.

    Raises ZeroVariance when every column is constant. The returned pc1 is
    rescaled to [0, 1] over this matrix; the weights are not rescaled.
    Accepts a plain (texts x models) array for direct numeric use; the
    [0, 1] range check then rests with the caller.
    """
    x = m.values if isinstance(m, ScoreMatrix) else np.asarray(m, dtype=np.float64)
    topic = m.topic if isinstance(m, ScoreMatrix) else ""
    if x.ndim != 2 or x.shape[1] < 2:
        raise ValueError("need a 2-D matrix with >=2 model columns")
    if x.shape[0] < 2:
        raise ValueError("need >=2 texts")
    centered = x - x.mean(axis=0)
    if not np.any(centered.var(axis=0) > 0.0):
        raise ZeroVariance(f"all score columns constant for topic {topic!r}")
    cov = np.cov(centered, rowvar=False, ddof=1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    weights = eigvecs[:, -1]
    raw = centered @ weights
    sign = 1
    row_mean = x.mean(axis=1)
    orient = float(raw @ (row_mean - row_mean.mean()))
    if orient < 0.0 or (orient == 0.0 and weights.sum() < 0.0):
        sign = -1
        weights = -weights
        raw = -raw
    lo, hi = raw.min(), raw.max()
    pc1 = (raw - lo) / (hi - lo)
    return ScoreEnsemble(weights=weights, pc1=pc1, orientation_sign=sign)


def union_label(labels: Sequence[bool]) -> bool:
    """Positive if any model labeled positive."""
    if len(labels) < 2:
        raise ValueError("need >=2 labels")
    return bool(np.any(labels))


def intersection_label(labels: Sequence[bool]) -> bool:
    """Positive if strictly more than half of the models labeled positive."""
    if len(labels) < 2:
        raise ValueError("need >=2 labels")
    arr = np.asarray(labels, dtype=bool)
    return bool(arr.sum() > arr.size / 2.0)


def optimal_threshold(
    pc1: Sequence[float], intersection: Sequence[bool]
) -> tuple[float, Sweep]:
    """Sweep thresholds on the ensemble-score scale against the majority label.

    Candidates are the midpoints between consecutive distinct sorted pc1
    values plus one sentinel below the minimum and one above the maximum;
    a text is predicted positive when pc1 >= threshold. Returns the lowest
    candidate reaching maximal F1 (F1 = 0 when TP = 0), or the above-maximum
    sentinel when the intersection has no positives.
    """
    scores = np.asarray(pc1, dtype=np.float64)
    gold = np.asarray(intersection, dtype=bool)
    if scores.shape != gold.shape:
        raise ValueError("pc1 and intersection labels must align")
    if scores.size < 2:
        raise ValueError("need >=2 texts")

    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    sorted_gold = gold[order]
    n = scores.size
    total_pos = int(gold.sum())

    # first index of each distinct value block, ascending
    block_starts = np.flatnonzero(
        np.concatenate(([True], sorted_scores[1:] != sorted_scores[:-1]))
    )
    distinct = sorted_scores[block_starts]
    candidates = np.concatenate(
        (
            [distinct[0] - 1.0],
            (distinct[:-1] + distinct[1:]) / 2.0,
            [distinct[-1] + 1.0],
        )
    )
    # predicted positives for candidate c_j: all items from block j on;
    # the final sentinel predicts nothing.
    suffix_pos = np.concatenate(
        (total_pos - np.cumsum(sorted_gold)[block_starts] + sorted_gold[block_starts], [0])
    ).astype(np.float64)
    predicted = np.concatenate((n - block_starts, [0])).astype(np.float64)

    tp = suffix_pos
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(predicted > 0, tp / np.maximum(predicted, 1), np.nan)
        sensitivity = (
            np.full_like(tp, np.nan) if total_pos == 0 else tp / total_pos
        )
    f1 = np.zeros_like(tp)
    nonzero = tp > 0
    f1[nonzero] = (
        2.0 * precision[nonzero] * sensitivity[nonzero]
        / (precision[nonzero] + sensitivity[nonzero])
    )

    sweep = Sweep(candidates, precision, sensitivity, f1)
    if total_pos == 0:
        return float(candidates[-1]), sweep
    best = int(np.argmax(f1))  # argmax takes the first (lowest) maximizer
    return float(candidates[best]), sweep


def fuse_labels(
    union: Sequence[bool],
    pc1: Sequence[float],
    tau: float,
    intersection: Sequence[bool],
) -> np.ndarray:
    """Demote union positives scoring below tau; never promote negatives."""
    union_arr = np.asarray(union, dtype=bool)
    scores = np.asarray(pc1, dtype=np.float64)
    inter = np.asarray(intersection, dtype=bool)
    if not (union_arr.shape == scores.shape == inter.shape):
        raise ValueError("union, pc1 and intersection must align")
    if np.any(inter & ~union_arr):
        raise ValueError("intersection positives must be union positives")
    return union_arr & (scores >= tau)


def ensemble_topic(
    labels: Mapping[str, Sequence[bool]],
    scores: Mapping[str, Sequence[float]],
    topic: str = "",
    excluded: Set[str] = frozenset(),
) -> tuple[EnsembleDecision, ScoreEnsemble]:
    """Full fusion for one topic: PCA, union/intersection, threshold, demotion.

    labels and scores map model name -> per-text vectors (same text order);
    excluded models are dropped before anything is computed.
    """
    models = [name for name in labels if name not in excluded]
    if len(models) < 2:
        raise TooFewModels("need >=2 models after exclusion")
    label_mat = np.stack([np.asarray(labels[m], dtype=bool) for m in models], axis=1)
    score_mat = ScoreMatrix(
        values=np.stack([np.asarray(scores[m], dtype=np.float64) for m in models], axis=1),
        models=tuple(models),
        topic=topic,
    )
    if label_mat.shape != score_mat.values.shape:
        raise ValueError("labels and scores must cover the same cells")

    score_ens = pca_first_component(score_mat)
    return _decide(label_mat, score_ens.pc1), score_ens


def degenerate_ensemble(
    labels: Mapping[str, Sequence[bool]],
    excluded: Set[str] = frozenset(),
) -> tuple[EnsembleDecision, ScoreEnsemble]:
    """Fallback for ensemble_topic when it raises ZeroVariance: the scores
    carry no signal, so pc1 is flat, the weights are uniform and the sentinel
    threshold rule decides alone."""
    models = [name for name in labels if name not in excluded]
    label_mat = np.stack([np.asarray(labels[m], dtype=bool) for m in models], axis=1)
    pc1 = np.zeros(label_mat.shape[0])
    ens = ScoreEnsemble(
        weights=np.full(len(models), 1.0 / np.sqrt(len(models))), pc1=pc1, orientation_sign=1
    )
    return _decide(label_mat, pc1), ens


def _decide(label_mat: np.ndarray, pc1: np.ndarray) -> EnsembleDecision:
    """Union and majority labels, the F1-optimal threshold and the fusion."""
    union = label_mat.any(axis=1)
    inter = label_mat.sum(axis=1) > label_mat.shape[1] / 2.0
    tau, sweep = optimal_threshold(pc1, inter)
    final = fuse_labels(union, pc1, tau, inter)
    return EnsembleDecision(
        union_label=union,
        intersection_label=inter,
        tau=tau,
        final_label=final,
        sweep=sweep,
    )
