"""Chance-corrected inter-rater agreement over model labels and binned scores.

Implements Gwet's AC1 and Fleiss' kappa on an item-by-category count matrix,
plus percentile-bootstrap confidence intervals and greedy leave-one-out
outlier detection across raters.

Conventions used throughout:

* For dichotomous labels, category 0 is the positive ("yes") category and
  category 1 the negative, with k fixed at 2.
* Score agreement uses the ten ordinal levels from ``bin_scores`` with k
  fixed at 10, whether or not every level occurs.

Both coefficients share the observed agreement

    P_o = (1/N) sum_i sum_j n_ij (n_ij - 1) / (n (n - 1))

and differ in the chance term: AC1 uses the adjusted
P_e* = (1/(k-1)) sum_j p_j (1 - p_j), Fleiss uses P_e = sum_j p_j^2, where
p_j = (1/N) sum_i n_ij / n. The coefficient is (P_o - P_e) / (1 - P_e), and
NaN when the chance term degenerates (P_e >= 1).

Both therefore depend on the items only through sums over rows of the count
matrix, so a bootstrap resample is fully described by how often it draws
each distinct row ("pattern"): a multinomial count vector over the patterns
(Efron & Tibshirani, An Introduction to the Bootstrap, 1993, ch. 6). The
resamples are drawn a chunk of rows at a time, sized so that a chunk's
count vectors fill a fixed byte budget, and every requested kind of
coefficient is computed from the same chunks; memory therefore grows with
chunk x patterns, not with resamples x patterns.
"""
from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateChance,
    IncompleteRatings,
    OutOfRange,
    TooFewModels,
)

# Rows of a count matrix checked or keyed at a time, so that no step
# allocates a temporary of the whole matrix.
_BLOCK_ROWS = 1 << 14
# Bytes of int64 resample counts drawn at a time (a float64 copy of the same
# size joins them in the matmul); the rows of a chunk are this budget over
# 8 bytes x the pattern count.
_DRAW_BYTES = 1 << 19


def _row_blocks(a: np.ndarray):
    """Views of a, _BLOCK_ROWS rows at a time."""
    return (a[start:start + _BLOCK_ROWS] for start in range(0, a.shape[0], _BLOCK_ROWS))


@dataclass(frozen=True)
class RatingMatrix:
    """Item-by-category rater counts: counts[i, j] raters put item i in j."""

    counts: np.ndarray
    n: int

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.float64)
        object.__setattr__(self, "counts", counts)
        if counts.ndim != 2:
            raise ValueError("counts must be 2-D (items x categories)")
        if counts.shape[0] < 1 or counts.shape[1] < 2:
            raise ValueError("need >=1 item and >=2 categories")
        if self.n < 2:
            raise ValueError("need >=2 raters")
        for block in _row_blocks(counts):
            if (block < 0).any():
                raise ValueError("counts must be non-negative")
            if (block != np.floor(block)).any():
                raise ValueError("counts must be whole numbers")
            if (block.sum(axis=1) != self.n).any():
                raise IncompleteRatings("every row must sum to the rater count")

    @property
    def num_items(self) -> int:
        return self.counts.shape[0]

    @property
    def num_categories(self) -> int:
        return self.counts.shape[1]


@dataclass(frozen=True)
class AgreementResult:
    coefficient: float
    kind: str  # "AC1" | "Fleiss"
    p_o: float
    p_e: float


@dataclass(frozen=True)
class OutlierReport:
    """Leave-one-out outlier scan over raters (pooled label agreement).

    base_ac1 and deltas describe the first scan over the full rater set;
    excluded lists the greedy exclusion order.
    """

    base_ac1: float
    deltas: dict[str, float]
    excluded: list[str]


def build_rating_matrix(
    ratings: Mapping[str, Sequence[int]], k: int | None = None
) -> RatingMatrix:
    """Tally per-rater category assignments into a RatingMatrix.

    ratings maps rater name -> category index per item. Every rater must
    rate every item (equal-length sequences, no None entries). k fixes the
    category space; by default it is max(category) + 1 (at least 2).
    """
    raters = list(ratings)
    if len(raters) < 2:
        raise IncompleteRatings("need >=2 raters")
    lengths = {r: len(ratings[r]) for r in raters}
    num_items = max(lengths.values())
    for rater, length in lengths.items():
        if length != num_items:
            raise IncompleteRatings(f"rater {rater!r} rated {length}/{num_items} items")
    columns = []
    for rater in raters:
        vec = ratings[rater]
        try:
            columns.append(np.asarray(vec, dtype=np.int64))
        except TypeError:
            missing = [i for i, value in enumerate(vec) if value is None]
            if not missing:
                raise
            raise IncompleteRatings(
                f"item {missing[0]}: missing rating from {rater!r}"
            ) from None
    if any(col.size and col.min() < 0 for col in columns):
        raise ValueError("category indices must be >= 0")
    num_cats = max(int(col.max()) + 1 if col.size else 2 for col in columns)
    if k is not None:
        if num_cats > k:
            raise ValueError(f"category index {num_cats - 1} outside fixed k={k}")
        num_cats = k
    num_cats = max(num_cats, 2)
    # tally one rater at a time straight into float64 cells: a rater names
    # one category per item, so no cell index repeats within a column
    counts = np.zeros((num_items, num_cats))
    cells = counts.reshape(-1)
    row_starts = num_cats * np.arange(num_items)
    for col in columns:
        cells[row_starts + col] += 1.0
    return RatingMatrix(counts=counts, n=len(raters))


def _chance(p: np.ndarray, kind: str) -> np.ndarray:
    """Chance agreement from category proportions p (last axis: categories)."""
    if kind == "AC1":
        return (p * (1.0 - p)).sum(axis=-1) / (p.shape[-1] - 1.0)
    return (p * p).sum(axis=-1)


def observed_agreement(counts: np.ndarray, n: int) -> float:
    pairs = (counts * (counts - 1.0)).sum(axis=1)
    return float(pairs.mean() / (n * (n - 1.0)))


def coefficient(counts: np.ndarray, n: int, kind: str) -> tuple[float, float, float]:
    """(coefficient, P_o, P_e) of kind "AC1" or "Fleiss"; NaN if P_e >= 1."""
    po = observed_agreement(counts, n)
    pe = float(_chance(counts.mean(axis=0) / n, kind))
    if pe >= 1.0:
        return np.nan, po, pe
    return (po - pe) / (1.0 - pe), po, pe


def percent_agreement(m: RatingMatrix) -> float:
    """Observed proportion of agreeing rater pairs, averaged over items."""
    return observed_agreement(m.counts, m.n)


def gwet_ac1(m: RatingMatrix) -> AgreementResult:
    coef, po, pe = coefficient(m.counts, m.n, "AC1")
    if np.isnan(coef):
        # P_e* = 1 is unreachable for k >= 2; guarded anyway.
        raise DegenerateChance(f"AC1 chance agreement degenerate (P_e*={pe})")
    return AgreementResult(coefficient=float(coef), kind="AC1", p_o=po, p_e=pe)


def fleiss_kappa(m: RatingMatrix) -> AgreementResult:
    coef, po, pe = coefficient(m.counts, m.n, "Fleiss")
    if np.isnan(coef):
        raise DegenerateChance(
            "Fleiss kappa undefined: all ratings fall in a single category (P_e=1)"
        )
    return AgreementResult(coefficient=float(coef), kind="Fleiss", p_o=po, p_e=pe)


def bin_scores(scores: Sequence[float]) -> np.ndarray:
    """Map scores in [0,1] to ten ordinal levels, each spanning 0.1.

    level = min(floor(score * 10), 9), so 1.0 lands in the top level.
    """
    arr = np.asarray(scores, dtype=np.float64)
    if arr.size and ((arr < 0.0).any() or (arr > 1.0).any()):
        bad = arr[(arr < 0.0) | (arr > 1.0)][0]
        raise OutOfRange(f"score {bad} outside [0, 1]")
    return np.minimum(np.floor(arr * 10.0).astype(np.int64), 9)


def _patterns_by_key(counts: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows via one integer key per row: the row's entries (each at
    most n) as digits in radix n + 1, first column most significant, so keys
    sort like the rows. Exact while (n + 1) ** k <= 2 ** 63."""
    radix = (n + 1) ** np.arange(counts.shape[1] - 1, -1, -1, dtype=np.int64)
    keys = np.concatenate([block.astype(np.int64) @ radix for block in _row_blocks(counts)])
    _, first, freq = np.unique(keys, return_index=True, return_counts=True)
    return counts[first], freq


def _patterns(counts: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(distinct rows in lexicographic order, occurrences of each)."""
    if (n + 1) ** counts.shape[1] <= 2**63:
        return _patterns_by_key(counts, n)
    # a row sort works for any n and k, but took 5.7 s against the key's 0.19 s
    # at 10^6 x 10 (4 raters; 2-vCPU Xeon VM, NumPy 2.4)
    return np.unique(counts, axis=0, return_counts=True)


def _pattern_sums(patterns: np.ndarray) -> np.ndarray:
    """Per pattern, its agreeing rater pairs and then its category counts:
    a resample's weighted sums of these columns are all its coefficients
    need."""
    pairs = (patterns * (patterns - 1.0)).sum(axis=1)
    return np.column_stack((pairs, patterns))


def _resample_coefficients(
    sums: np.ndarray, weights: np.ndarray, n: int, kinds: Sequence[str]
) -> np.ndarray:
    """Coefficients of each kind (rows, in the order of kinds) for each
    resample (columns). sums is _pattern_sums(patterns); weights[r, p] is
    how often resample r drew pattern p. NaN where the resample's chance
    term degenerates."""
    items = weights[0].sum()
    totals = weights.astype(np.float64) @ sums
    po = totals[:, 0] / (items * n * (n - 1.0))
    p = totals[:, 1:] / (items * n)
    out = np.full((len(kinds), weights.shape[0]), np.nan)
    for row, kind in zip(out, kinds):
        pe = _chance(p, kind)
        ok = pe < 1.0
        row[ok] = (po[ok] - pe[ok]) / (1.0 - pe[ok])
    return out


def bootstrap_ci(
    kinds: Sequence[str],
    m: RatingMatrix,
    resamples: int = 1000,
    seed: int = 0,
) -> dict[str, tuple[float, float] | None]:
    """Percentile 95% CIs from item-level resampling with replacement, one
    per kind ("AC1", "Fleiss") in kinds, all from the same resamples.

    Each resample is drawn as multinomial counts over the distinct rows of
    the count matrix, which has the distribution of N item draws, so time
    grows with resamples x distinct rows, not with the items. The resamples
    are drawn in chunks of _DRAW_BYTES, so memory grows with chunk x
    distinct rows; successive draws from one generator continue its stream,
    so the CIs equal those of one draw of every resample. Deterministic for
    a fixed seed. Resamples whose chance term degenerates are skipped; a
    kind with more than 10% skipped gets None.
    """
    if resamples < 100:
        raise ValueError("resamples must be >= 100")
    for kind in kinds:
        if kind not in ("AC1", "Fleiss"):
            raise KeyError(kind)
    rng = np.random.default_rng(seed)
    patterns, freq = _patterns(m.counts, m.n)
    sums, pvals = _pattern_sums(patterns), freq / m.num_items
    rows = max(1, _DRAW_BYTES // (8 * freq.size))
    stats = np.empty((len(kinds), resamples))
    for start in range(0, resamples, rows):
        weights = rng.multinomial(m.num_items, pvals, size=min(rows, resamples - start))
        stats[:, start:start + len(weights)] = _resample_coefficients(
            sums, weights, m.n, kinds)
    cis: dict[str, tuple[float, float] | None] = {}
    for kind, row in zip(kinds, stats):
        valid = row[~np.isnan(row)]
        if resamples - valid.size > 0.10 * resamples:
            cis[kind] = None
            continue
        lo, hi = np.percentile(valid, [2.5, 97.5])
        cis[kind] = float(lo), float(hi)
    return cis


def _ac1_from_label_vectors(vectors: list[np.ndarray]) -> float:
    n = len(vectors)
    positives = np.sum(vectors, axis=0)  # raters saying yes, per cell
    counts = np.stack([positives, n - positives], axis=1).astype(np.float64)
    coef, _, _ = coefficient(counts, n, "AC1")
    return float(coef)


def detect_outliers(
    labels: Mapping[str, Sequence[bool]],
    threshold_fraction: float = 0.10,
) -> OutlierReport:
    """Greedy leave-one-out outlier scan over pooled label vectors.

    In each round, the rater whose removal raises AC1 the most is excluded
    when that increase exceeds threshold_fraction x the round's base AC1.
    Stops when nothing exceeds the threshold or only two raters remain.
    """
    models = list(labels)
    if len(models) < 3:
        raise TooFewModels("leave-one-out detection needs >=3 models")
    vectors = {name: np.asarray(labels[name], dtype=np.int64) for name in models}
    for name, vec in vectors.items():
        if vec.size != vectors[models[0]].size:
            raise IncompleteRatings(f"model {name!r} label vector length mismatch")

    current = list(models)
    excluded: list[str] = []
    while len(current) > 2:
        round_base = _ac1_from_label_vectors([vectors[m] for m in current])
        deltas = {name: _ac1_from_label_vectors([vectors[m] for m in current if m != name])
                  - round_base for name in current}
        if not excluded:  # the first round, over every model, is the one reported
            base, first_deltas = round_base, deltas
        worst = max(current, key=lambda name: deltas[name])
        # only a genuine increase counts, so exclusions can never lower AC1
        # (matters when the base coefficient is negative)
        if deltas[worst] > max(threshold_fraction * round_base, 0.0):
            excluded.append(worst)
            current.remove(worst)
        else:
            break
    return OutlierReport(base_ac1=base, deltas=first_deltas, excluded=excluded)
