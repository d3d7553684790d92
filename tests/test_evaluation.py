import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topicensemble.ensemble import Sweep, optimal_threshold, tie_blocks
from topicensemble.errors import LengthMismatch, NoPositives
from topicensemble.evaluation import (
    auprc,
    compare_raters,
    confusion,
    group_summary,
    subset_ensemble_candidates,
)


def test_confusion_perfect():
    m = confusion([True, False, True], [True, False, True])
    assert (m.precision, m.sensitivity, m.f1) == (1.0, 1.0, 1.0)
    assert (m.tp, m.fp, m.fn, m.tn) == (2, 0, 0, 1)


def test_confusion_hand_count():
    m = confusion([True, True, False, False], [True, False, True, False])
    assert (m.tp, m.fp, m.fn, m.tn) == (1, 1, 1, 1)
    assert m.precision == 0.5
    assert m.sensitivity == 0.5
    assert m.f1 == 0.5


def test_confusion_undefined_precision():
    m = confusion([False, False], [True, False])
    assert m.precision is None
    assert m.sensitivity == 0.0
    assert m.f1 == 0.0


def test_confusion_counts_sum_to_n():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        pred = rng.random(n) < 0.5
        gold = rng.random(n) < 0.5
        m = confusion(pred, gold)
        assert m.tp + m.fp + m.fn + m.tn == n
        perm = rng.permutation(n)
        m2 = confusion(pred[perm], gold[perm])
        assert (m.tp, m.fp, m.fn, m.tn) == (m2.tp, m2.fp, m2.fn, m2.tn)


def test_confusion_harmonic_identity():
    rng = np.random.default_rng(2)
    for _ in range(50):
        pred = rng.random(20) < 0.5
        gold = rng.random(20) < 0.5
        m = confusion(pred, gold)
        if m.precision is not None and m.sensitivity is not None:
            assert m.f1 * (m.precision + m.sensitivity) == pytest.approx(
                2 * m.precision * m.sensitivity, abs=1e-12
            )


def test_confusion_length_mismatch():
    with pytest.raises(LengthMismatch):
        confusion([True], [True, False])


def test_auprc_perfect_ranking():
    assert auprc([0.9, 0.8, 0.2, 0.1], [True, True, False, False]) == 1.0


def test_auprc_constant_scores_equals_prevalence():
    gold = [True, False, False, True, False]
    assert auprc([0.5] * 5, gold) == pytest.approx(2 / 5)


def test_auprc_fixture():
    assert auprc([0.9, 0.8, 0.7], [True, False, True]) == pytest.approx(
        0.5 * 1.0 + 0.5 * (2 / 3), abs=1e-9
    )


def test_auprc_no_positives():
    with pytest.raises(NoPositives):
        auprc([0.5, 0.2], [False, False])


@pytest.mark.parametrize("metric", [tie_blocks, auprc, optimal_threshold],
                         ids=["tie_blocks", "auprc", "optimal_threshold"])
def test_a_nan_score_is_refused(metric):
    # a NaN has no place on the precision-recall curve, so no metric is read off it
    scores, gold = np.array([np.nan, 0.5, 0.2]), np.array([False, True, False])
    with pytest.raises(ValueError, match="NaN"):
        metric(scores, gold)


def test_auprc_bounds_and_monotone_invariance():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 60))
        scores = rng.random(n)
        gold = rng.random(n) < 0.4
        if not gold.any():
            gold[0] = True
        area = auprc(scores, gold)
        assert 0.0 <= area <= 1.0
        transformed = np.exp(3 * scores) + 7  # strictly monotone
        assert auprc(transformed, gold) == pytest.approx(area, abs=1e-12)


def test_group_summary_arithmetic():
    rows = group_summary([True, False], [0.4, 0.0], ["g", "g"], topic="t")
    assert len(rows) == 1
    assert rows[0].occurrence_rate == 0.5
    assert rows[0].mean_score == pytest.approx(0.2)
    assert rows[0].count == 2


def test_group_summary_partition_and_ungrouped():
    rows = group_summary(
        [True, False, True, False],
        [1.0, 0.0, 0.5, 0.0],
        ["a", "a", None, "b"],
    )
    by_name = {r.group: r for r in rows}
    assert set(by_name) == {"a", "b", "ungrouped"}
    assert by_name["a"].occurrence_rate == 0.5
    assert by_name["b"].occurrence_rate == 0.0
    assert by_name["ungrouped"].count == 1
    assert [r.group for r in rows] == sorted(r.group for r in rows)


def _group_summary_oracle(labels, scores, groups, topic):
    """One boolean mask over every text for each group."""
    lab, sco = np.asarray(labels, dtype=bool), np.asarray(scores, dtype=np.float64)
    tags = [g if g else "ungrouped" for g in groups]
    out = []
    for name in sorted(set(tags)):
        mask = np.asarray([t == name for t in tags])
        out.append((name, topic, float(lab[mask].mean()), float(sco[mask].mean()),
                    int(mask.sum())))
    return out


@pytest.mark.parametrize("texts, named", [(0, 0), (1, 0), (50, 3), (5000, 700)])
def test_group_summary_matches_a_mask_per_group(texts, named):
    rng = np.random.default_rng(texts)
    labels = rng.random(texts) < 0.3
    scores = rng.random(texts) * labels
    names = [None, "", "ungrouped", *(f"g{k}" for k in range(named))]
    groups = [names[k] for k in rng.integers(0, len(names), texts)]
    rows = group_summary(labels, scores, groups, topic="t")
    assert [(r.group, r.topic, r.occurrence_rate, r.mean_score, r.count)
            for r in rows] == _group_summary_oracle(labels, scores, groups, "t")


def test_compare_raters_identical_candidate():
    gold = [True, False, True, False]
    rows = compare_raters({"m": (gold, [0.9, 0.1, 0.8, 0.2])}, gold)
    assert rows[0].metrics.f1 == 1.0
    assert rows[0].auprc == 1.0


def test_compare_raters_no_positives_flag():
    rows = compare_raters({"m": ([False, False], [0.1, 0.2])}, [False, False])
    assert rows[0].auprc is None


def test_subset_ensembles_cardinality():
    rng = np.random.default_rng(4)
    labels = {}
    scores = {}
    for name in "ABCD":
        lab = rng.random(30) < 0.5
        lab[:2] = True
        labels[name] = lab
        scores[name] = np.where(lab, rng.uniform(0.1, 1, 30), 0.0)
    subsets = subset_ensemble_candidates(labels, scores)
    assert len(subsets) == 11  # C(4,2) + C(4,3) + C(4,4)
    candidates = {name: (labels[name], scores[name]) for name in labels}
    candidates.update(subsets)
    gold = labels["A"]
    rows = compare_raters(candidates, gold)
    assert len(rows) == 15


def test_subset_ensembles_zero_variance_fallback():
    # two models that never fire: constant score columns fall back to the
    # flat ensemble instead of raising ZeroVariance
    labels = {"a": [False] * 3, "b": [False] * 3}
    scores = {"a": [0.0] * 3, "b": [0.0] * 3}
    subsets = subset_ensemble_candidates(labels, scores)
    final, pc1 = subsets["ensemble[a+b]"]
    assert final.tolist() == [False] * 3
    assert pc1.tolist() == [0.0] * 3


# Reference implementations of the three metric functions, each sorting scores,
# grouping ties and computing rates on its own: the shared tie-block kernel and
# rate rule must match them exactly.

def _optimal_threshold_oracle(pc1, intersection):
    scores = np.asarray(pc1, dtype=np.float64)
    gold = np.asarray(intersection, dtype=bool)
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    sorted_gold = gold[order]
    n = scores.size
    total_pos = int(gold.sum())
    block_starts = np.flatnonzero(
        np.concatenate(([True], sorted_scores[1:] != sorted_scores[:-1]))
    )
    distinct = sorted_scores[block_starts]
    candidates = np.concatenate(
        ([distinct[0] - 1.0], (distinct[:-1] + distinct[1:]) / 2.0, [distinct[-1] + 1.0])
    )
    suffix_pos = np.concatenate(
        (total_pos - np.cumsum(sorted_gold)[block_starts] + sorted_gold[block_starts], [0])
    ).astype(np.float64)
    predicted = np.concatenate((n - block_starts, [0])).astype(np.float64)
    tp = suffix_pos
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(predicted > 0, tp / np.maximum(predicted, 1), np.nan)
        sensitivity = np.full_like(tp, np.nan) if total_pos == 0 else tp / total_pos
    f1 = np.zeros_like(tp)
    nonzero = tp > 0
    f1[nonzero] = (
        2.0 * precision[nonzero] * sensitivity[nonzero]
        / (precision[nonzero] + sensitivity[nonzero])
    )
    sweep = Sweep(candidates, precision, sensitivity, f1)
    if total_pos == 0:
        return float(candidates[-1]), sweep
    return float(candidates[int(np.argmax(f1))]), sweep


def _confusion_oracle(pred, gold):
    p = np.asarray(pred, dtype=bool)
    g = np.asarray(gold, dtype=bool)
    tp = int(np.sum(p & g))
    fp = int(np.sum(p & ~g))
    fn = int(np.sum(~p & g))
    tn = int(np.sum(~p & ~g))
    precision = tp / (tp + fp) if tp + fp > 0 else None
    sensitivity = tp / (tp + fn) if tp + fn > 0 else None
    f1 = 0.0 if tp == 0 else 2.0 * precision * sensitivity / (precision + sensitivity)
    return (tp, fp, fn, tn, precision, sensitivity, f1)


def _auprc_oracle(scores, gold):
    s = np.asarray(scores, dtype=np.float64)
    g = np.asarray(gold, dtype=bool)
    total_pos = int(g.sum())
    order = np.argsort(-s, kind="stable")
    ss = s[order]
    gg = g[order]
    ends = np.flatnonzero(np.concatenate((ss[1:] != ss[:-1], [True])))
    tp = np.cumsum(gg)[ends].astype(np.float64)
    predicted = (ends + 1).astype(np.float64)
    precision = tp / predicted
    recall = tp / total_pos
    delta_recall = np.diff(np.concatenate(([0.0], recall)))
    return float(np.sum(precision * delta_recall))


# a coarse grid of scores, so tied scores are common; 1/3 and 0.7 have no
# exact binary form, so midpoints and rates round
GRID = st.sampled_from([0.0, 0.1, 0.25, 1 / 3, 0.5, 0.7, 0.9, 1.0])


@st.composite
def _scored_labels(draw):
    n = draw(st.integers(2, 60))
    scores = draw(st.lists(GRID, min_size=n, max_size=n))
    flags = st.one_of(st.just([False] * n), st.just([True] * n),
                      st.lists(st.booleans(), min_size=n, max_size=n))
    return np.asarray(scores), np.asarray(draw(flags)), np.asarray(draw(flags))


@settings(max_examples=300, deadline=None)
@given(_scored_labels())
def test_metrics_match_the_reference_exactly(drawn):
    scores, gold, pred = drawn
    tau, sweep = optimal_threshold(scores, gold)
    want_tau, want_sweep = _optimal_threshold_oracle(scores, gold)
    assert tau == want_tau
    for got, want in zip(sweep, want_sweep):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want, equal_nan=True)
    fields = dataclasses.astuple(confusion(pred, gold))
    want_fields = _confusion_oracle(pred, gold)
    assert [(type(v), v) for v in fields] == [(type(v), v) for v in want_fields]
    if gold.any():
        assert auprc(scores, gold) == _auprc_oracle(scores, gold)
