import numpy as np
import pytest

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
