"""Metrics against gold annotations, plus per-group summaries.

Precision, sensitivity and F1 follow `ensemble.rates`, with an undefined
rate reported as None. AUPRC is step-wise average precision over the points
of `ensemble.tie_blocks`, from the highest score down: the recall-weighted
sum of precisions at each step, with no interpolation.
"""
from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .ensemble import ensemble_topic, rates, tie_blocks
from .errors import LengthMismatch, NoPositives


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
    precision, sensitivity, f1 = (None if np.isnan(r) else float(r)
                                  for r in rates(tp, tp + fp, tp + fn))
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
    _, tp, predicted = tie_blocks(s, g)
    precision, recall, _ = rates(tp[::-1], predicted[::-1], total_pos)  # highest score first
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
    code = {name: k for k, name in enumerate(sorted({g or "ungrouped" for g in groups}))}
    codes = np.fromiter((code[g or "ungrouped"] for g in groups), np.intp, len(groups))
    # each group's texts together, in corpus order: a mean sums as over a mask
    order = np.argsort(codes, kind="stable")
    lab, sco = lab[order], sco[order]
    counts = np.bincount(codes, minlength=len(code))
    out = []
    for name, end, count in zip(code, np.cumsum(counts), counts):
        out.append(
            GroupSummary(
                group=name,
                topic=topic,
                occurrence_rate=float(lab[end - count:end].mean()),
                mean_score=float(sco[end - count:end].mean()),
                count=int(count),
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
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Re-run the ensemble for every subset of two or more models.

    Candidate names are "ensemble[a+b+...]" with members in input order;
    a subset of constant score columns gets ensemble_topic's flat result.
    Used by report-time subset evaluation; off by default for large corpora.
    """
    models = list(labels)
    out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for size in range(2, len(models) + 1):
        for combo in combinations(models, size):
            decision, ens = ensemble_topic({m: labels[m] for m in combo},
                                           {m: scores[m] for m in combo})
            out["ensemble[" + "+".join(combo) + "]"] = (decision.final_label, ens.pc1)
    return out
