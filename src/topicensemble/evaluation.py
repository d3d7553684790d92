"""Metrics against gold annotations, plus per-group summaries.

AUPRC is computed as step-wise average precision: items are sorted by score
descending, tied scores collapse into one threshold step, and the area is
the recall-weighted sum of precisions at each step (no interpolation).
Undefined precision (nothing predicted positive) is reported as None, never
silently 0 or 1; F1 is 0 whenever TP is 0.
"""
from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .ensemble import degenerate_ensemble, ensemble_topic
from .errors import LengthMismatch, NoPositives, ZeroVariance


@dataclass(frozen=True)
class ConfusionMetrics:
    tp: int
    fp: int
    fn: int
    tn: int
    precision: float | None
    sensitivity: float | None
    f1: float


@dataclass(frozen=True)
class GroupSummary:
    group: str
    topic: str
    occurrence_rate: float
    mean_score: float
    count: int


@dataclass(frozen=True)
class CandidateRow:
    candidate: str
    metrics: ConfusionMetrics
    auprc: float | None  # None when gold has no positives


def confusion(pred: Sequence[bool], gold: Sequence[bool]) -> ConfusionMetrics:
    p = np.asarray(pred, dtype=bool)
    g = np.asarray(gold, dtype=bool)
    if p.shape != g.shape:
        raise LengthMismatch(f"pred has {p.size} items, gold has {g.size}")
    if p.size < 1:
        raise ValueError("need >=1 item")
    tp = int(np.sum(p & g))
    fp = int(np.sum(p & ~g))
    fn = int(np.sum(~p & g))
    tn = int(np.sum(~p & ~g))
    precision = tp / (tp + fp) if tp + fp > 0 else None
    sensitivity = tp / (tp + fn) if tp + fn > 0 else None
    if tp == 0:
        f1 = 0.0
    else:
        f1 = 2.0 * precision * sensitivity / (precision + sensitivity)
    return ConfusionMetrics(
        tp=tp, fp=fp, fn=fn, tn=tn,
        precision=precision, sensitivity=sensitivity, f1=f1,
    )


def auprc(scores: Sequence[float], gold: Sequence[bool]) -> float:
    """Average precision over the PR curve, tied scores grouped per step."""
    s = np.asarray(scores, dtype=np.float64)
    g = np.asarray(gold, dtype=bool)
    if s.shape != g.shape:
        raise LengthMismatch(f"scores has {s.size} items, gold has {g.size}")
    total_pos = int(g.sum())
    if total_pos == 0:
        raise NoPositives("gold labels contain no positives")
    order = np.argsort(-s, kind="stable")
    ss = s[order]
    gg = g[order]
    # last index of each tie block
    ends = np.flatnonzero(np.concatenate((ss[1:] != ss[:-1], [True])))
    tp = np.cumsum(gg)[ends].astype(np.float64)
    predicted = (ends + 1).astype(np.float64)
    precision = tp / predicted
    recall = tp / total_pos
    delta_recall = np.diff(np.concatenate(([0.0], recall)))
    return float(np.sum(precision * delta_recall))


def group_summary(
    labels: Sequence[bool],
    scores: Sequence[float],
    groups: Sequence[str | None],
    topic: str = "",
) -> list[GroupSummary]:
    """Occurrence rate and mean score per group, over all texts of the group.

    Negatives contribute their (zero) scores to the mean; texts without a
    group tag aggregate under "ungrouped". Groups come back sorted by name.
    """
    lab = np.asarray(labels, dtype=bool)
    sco = np.asarray(scores, dtype=np.float64)
    if not (lab.shape == sco.shape == (len(groups),)):
        raise LengthMismatch("labels, scores and groups must align")
    tags = [g if g else "ungrouped" for g in groups]
    out = []
    for name in sorted(set(tags)):
        mask = np.asarray([t == name for t in tags])
        count = int(mask.sum())
        out.append(
            GroupSummary(
                group=name,
                topic=topic,
                occurrence_rate=float(lab[mask].mean()),
                mean_score=float(sco[mask].mean()),
                count=count,
            )
        )
    return out


def compare_raters(
    candidates: Mapping[str, tuple[Sequence[bool], Sequence[float]]],
    gold: Sequence[bool],
) -> list[CandidateRow]:
    """One metrics row per candidate: label metrics plus score AUPRC.

    Each candidate supplies (labels, scores) aligned with gold. AUPRC is
    None when gold has no positives.
    """
    g = np.asarray(gold, dtype=bool)
    rows = []
    for name, (labels, scores) in candidates.items():
        metrics = confusion(labels, g)
        try:
            area = auprc(scores, g)
        except NoPositives:
            area = None
        rows.append(CandidateRow(candidate=name, metrics=metrics, auprc=area))
    return rows


def subset_ensemble_candidates(
    labels: Mapping[str, Sequence[bool]],
    scores: Mapping[str, Sequence[float]],
    min_size: int = 2,
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Re-run the ensemble for every model subset of size >= min_size.

    Candidate names are "ensemble[a+b+...]" with members in input order.
    A subset whose score columns are all constant gets the same flat
    fallback as the ensemble stage. Used by report-time subset evaluation;
    off by default for large corpora.
    """
    models = list(labels)
    out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for size in range(min_size, len(models) + 1):
        for combo in combinations(models, size):
            sub_labels = {m: labels[m] for m in combo}
            try:
                decision, ens = ensemble_topic(sub_labels, {m: scores[m] for m in combo})
            except ZeroVariance:
                decision, ens = degenerate_ensemble(sub_labels)
            out["ensemble[" + "+".join(combo) + "]"] = (decision.final_label, ens.pc1)
    return out
