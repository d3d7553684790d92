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
matrix. So a RatingMatrix holds only the distinct rows ("patterns") and how
often each occurs, and each coefficient is a frequency-weighted sum over them.
A bootstrap resample is fully described by how often it draws each pattern: a
multinomial count vector over the patterns (Efron & Tibshirani, An
Introduction to the Bootstrap, 1993, ch. 6). The resamples are drawn a chunk
at a time, sized to a fixed byte budget, and every requested kind of
coefficient is computed from the same chunks; memory therefore grows with
chunk x patterns, not with the items or the resamples.
"""
from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateChance, IncompleteRatings, OutOfRange, TooFewModels

# Bytes of int64 resample counts drawn at a time (a float64 copy of the same
# size joins them in the matmul); the rows of a chunk are this budget over
# 8 bytes x the pattern count.
_DRAW_BYTES = 1 << 19


@dataclass(frozen=True)
class RatingMatrix:
    """Item-by-category rater counts held as distinct rows ("patterns") and
    how often each occurs: freq[p] items have counts[p, j] raters putting
    them in category j. Given counts alone, each row is one item, and the
    rows are reduced to their patterns."""

    counts: np.ndarray
    n: int
    freq: np.ndarray | None = None

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.float64)
        if counts.ndim != 2:
            raise ValueError("counts must be 2-D (items x categories)")
        if counts.shape[0] < 1 or counts.shape[1] < 2:
            raise ValueError("need >=1 item and >=2 categories")
        if self.n < 2:
            raise ValueError("need >=2 raters")
        if (counts < 0).any():
            raise ValueError("counts must be non-negative")
        if (counts != np.floor(counts)).any():
            raise ValueError("counts must be whole numbers")
        if (counts.sum(axis=1) != self.n).any():
            raise IncompleteRatings("every row must sum to the rater count")
        if self.freq is None:
            counts, freq = _patterns(counts, self.n)
            object.__setattr__(self, "freq", freq)
        object.__setattr__(self, "counts", counts)

    @property
    def num_items(self) -> int:
        return int(self.freq.sum())


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
        if isinstance(vec, np.ndarray) and vec.dtype.kind in "iu":
            columns.append(vec)  # radix[col] takes any integer dtype: no int64 copy
            continue
        try:
            columns.append(np.asarray(vec, dtype=np.int64))
        except TypeError:
            missing = [i for i, value in enumerate(vec) if value is None]
            if not missing:
                raise
            raise IncompleteRatings(f"item {missing[0]}: missing rating from {rater!r}") from None
    if any(col.size and col.min() < 0 for col in columns):
        raise ValueError("category indices must be >= 0")
    num_cats = max(int(col.max()) + 1 if col.size else 2 for col in columns)
    if k is not None:
        if num_cats > k:
            raise ValueError(f"category index {num_cats - 1} outside fixed k={k}")
        num_cats = k
    num_cats = max(num_cats, 2)
    radix = _radix(len(raters), num_cats)
    if radix is None:  # no int64 key: tally the item rows and sort them
        return RatingMatrix(counts=sum(np.eye(num_cats)[col] for col in columns), n=len(raters))
    # a rater adds its category's place value to each item's key
    keys = np.zeros(num_items, dtype=np.int64)
    for col in columns:
        keys += radix[col]
    patterns, freq = _unkey(keys, radix, len(raters))
    return RatingMatrix(counts=patterns, n=len(raters), freq=freq)


def _chance(p: np.ndarray, kind: str) -> np.ndarray:
    """Chance agreement from category proportions p (last axis: categories)."""
    if kind == "AC1":
        return (p * (1.0 - p)).sum(axis=-1) / (p.shape[-1] - 1.0)
    return (p * p).sum(axis=-1)


def _point(patterns: np.ndarray, freq: np.ndarray, n: int,
           kind: str) -> tuple[float, float, float]:
    """(coefficient, P_o, P_e) of kind "AC1" or "Fleiss"; NaN if P_e >= 1. The
    weighted sums are whole numbers below 2 ** 53, so they are exact."""
    totals = freq @ _pattern_sums(patterns)
    items = freq.sum()
    po = float(totals[0] / items / (n * (n - 1.0)))
    pe = float(_chance(totals[1:] / items / n, kind))
    if pe >= 1.0:
        return np.nan, po, pe
    return (po - pe) / (1.0 - pe), po, pe


def percent_agreement(m: RatingMatrix) -> float:
    """Observed proportion of agreeing rater pairs, averaged over items."""
    return _point(m.counts, m.freq, m.n, "AC1")[1]


def gwet_ac1(m: RatingMatrix) -> AgreementResult:
    coef, po, pe = _point(m.counts, m.freq, m.n, "AC1")
    if np.isnan(coef):
        # P_e* = 1 is unreachable for k >= 2; guarded anyway.
        raise DegenerateChance(f"AC1 chance agreement degenerate (P_e*={pe})")
    return AgreementResult(coefficient=float(coef), kind="AC1", p_o=po, p_e=pe)


def fleiss_kappa(m: RatingMatrix) -> AgreementResult:
    coef, po, pe = _point(m.counts, m.freq, m.n, "Fleiss")
    if np.isnan(coef):
        raise DegenerateChance("Fleiss kappa undefined: all ratings fall in a single "
                               "category (P_e=1)")
    return AgreementResult(coefficient=float(coef), kind="Fleiss", p_o=po, p_e=pe)


def bin_scores(scores: Sequence[float]) -> np.ndarray:
    """Map scores in [0,1] to ten ordinal levels, each spanning 0.1.

    level = min(floor(score * 10), 9), so 1.0 lands in the top level.
    """
    arr = np.asarray(scores, dtype=np.float64)
    bad = ~((arr >= 0.0) & (arr <= 1.0))  # NaN too
    if bad.any():
        raise OutOfRange(f"score {arr[bad][0]} outside [0, 1]")
    return np.minimum(np.floor(arr * 10.0).astype(np.int8), 9)


def _radix(n: int, k: int) -> np.ndarray | None:
    """Place values that key a row of k entries, each at most n, as digits in radix
    n + 1, first column first, so keys sort like the rows; None past int64."""
    if (n + 1) ** k > 2**63:
        return None
    return (n + 1) ** np.arange(k - 1, -1, -1, dtype=np.int64)


def _unkey(keys: np.ndarray, radix: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(the distinct keys' rows in lexicographic order, occurrences of each)."""
    keys, freq = np.unique(keys, return_counts=True)
    return (keys[:, None] // radix % (n + 1)).astype(np.float64), freq


def _patterns(counts: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(distinct rows in lexicographic order, occurrences of each)."""
    radix = _radix(n, counts.shape[1])
    if radix is None:
        # a row sort works for any n and k, but took 5.7 s against the key's
        # 0.19 s at 10^6 x 10 (4 raters; 2-vCPU Xeon VM, NumPy 2.4)
        return np.unique(counts, axis=0, return_counts=True)
    return _unkey(counts.astype(np.int64) @ radix, radix, n)


def _pattern_sums(patterns: np.ndarray) -> np.ndarray:
    """Per pattern, its agreeing rater pairs and then its category counts:
    the weighted sums of these columns are all a coefficient needs."""
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
    sums, pvals = _pattern_sums(m.counts), m.freq / m.num_items
    rows = max(1, _DRAW_BYTES // (8 * m.freq.size))
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


def detect_outliers(
    labels: Mapping[str, Sequence[bool]],
    threshold_fraction: float = 0.10,
) -> OutlierReport:
    """Greedy leave-one-out outlier scan over pooled label vectors.

    The models' labels are pooled once into distinct yes/no patterns (at
    most 2 ** models of them), and each AC1 is computed over those.

    In each round, the rater whose removal raises AC1 the most is excluded
    when that increase exceeds threshold_fraction x the round's base AC1.
    Stops when nothing exceeds the threshold or only two raters remain.
    """
    models = list(labels)
    if len(models) < 3:
        raise TooFewModels("leave-one-out detection needs >=3 models")
    vectors = [np.asarray(labels[name], dtype=bool) for name in models]
    for name, vec in zip(models, vectors):
        if vec.size != vectors[0].size:
            raise IncompleteRatings(f"model {name!r} label vector length mismatch")
    radix = _radix(1, len(models))  # a row of one bit a model
    if radix is None:
        said_yes, freq = np.unique(np.stack(vectors, axis=1), axis=0, return_counts=True)
    else:
        keys = np.zeros(vectors[0].size, dtype=np.int64)
        for place, vec in zip(radix, vectors):
            np.add(keys, place, out=keys, where=vec)
        said_yes, freq = _unkey(keys, radix, 1)
    said_yes = dict(zip(models, said_yes.T))

    def ac1(names: list[str]) -> float:
        yes = sum(said_yes[name] for name in names)
        return _point(np.column_stack((yes, len(names) - yes)), freq, len(names), "AC1")[0]

    current = list(models)
    excluded: list[str] = []
    while len(current) > 2:
        round_base = ac1(current)
        deltas = {name: ac1([m for m in current if m != name]) - round_base
                  for name in current}
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
