import numpy as np
import pytest

from topicensemble.ensemble import (
    ScoreMatrix,
    degenerate_ensemble,
    ensemble_topic,
    intersection_label,
    optimal_threshold,
    pca_first_component,
    union_label,
)
from topicensemble.errors import TooFewModels, ZeroVariance


def eigen_oracle(values):
    """Leading-eigenvector projection, independent of the module under test."""
    x = np.asarray(values, dtype=float)
    centered = x - x.mean(axis=0)
    cov = (centered.T @ centered) / (x.shape[0] - 1)
    vals, vecs = np.linalg.eigh(cov)
    w = vecs[:, np.argmax(vals)]
    raw = centered @ w
    rm = x.mean(axis=1)
    if raw @ (rm - rm.mean()) < 0:
        w, raw = -w, -raw
    return w, raw


def sweep_oracle(pc1, gold):
    """Exhaustive threshold sweep; returns (tau, best_f1)."""
    pc1 = np.asarray(pc1, dtype=float)
    gold = np.asarray(gold, dtype=bool)
    distinct = sorted(set(pc1.tolist()))
    cands = (
        [distinct[0] - 1.0]
        + [(a + b) / 2 for a, b in zip(distinct[:-1], distinct[1:])]
        + [distinct[-1] + 1.0]
    )
    if not gold.any():
        return cands[-1], 0.0
    best_tau, best_f1 = None, -1.0
    for t in cands:
        pred = pc1 >= t
        tp = int((pred & gold).sum())
        fp = int((pred & ~gold).sum())
        fn = int((~pred & gold).sum())
        f1 = 0.0 if tp == 0 else 2 * tp / (2 * tp + fp + fn)
        if f1 > best_f1 + 1e-12:
            best_tau, best_f1 = t, f1
    return best_tau, best_f1


# ------------------------------------------------------------------ PCA

def test_pca_identical_columns_symmetric_weights():
    col = np.array([0.1, 0.9, 0.4, 0.6, 0.2])
    for m_cols in (2, 3, 4):
        values = np.tile(col[:, None], (1, m_cols))
        ens = pca_first_component(ScoreMatrix(values=values, models=tuple("abcd"[:m_cols])))
        np.testing.assert_allclose(np.abs(ens.weights), 1 / np.sqrt(m_cols), atol=1e-12)
        assert np.argsort(ens.pc1).tolist() == np.argsort(col).tolist()


def test_pca_two_column_fixture():
    values = np.array([[0, 0], [0, 0], [1, 0], [1, 2]], dtype=float)
    ens = pca_first_component(values)
    np.testing.assert_allclose(np.abs(ens.weights), [0.383, 0.924], atol=1e-3)
    w, _ = eigen_oracle(values)
    np.testing.assert_allclose(np.abs(ens.weights), np.abs(w), atol=1e-12)


def test_pca_constant_column_ignored():
    rng = np.random.default_rng(2)
    base = rng.random((20, 3))
    with_const = np.insert(base, 1, 0.5, axis=1)
    ens_full = pca_first_component(ScoreMatrix(values=with_const, models=("a", "c", "b", "d")))
    ens_rest = pca_first_component(ScoreMatrix(values=base, models=("a", "b", "d")))
    assert abs(ens_full.weights[1]) < 1e-9
    assert np.argsort(ens_full.pc1).tolist() == np.argsort(ens_rest.pc1).tolist()


def test_pca_zero_variance():
    values = np.full((4, 3), 0.25)
    with pytest.raises(ZeroVariance):
        pca_first_component(ScoreMatrix(values=values, models=("a", "b", "c")))


def test_pca_unit_norm_and_orientation():
    rng = np.random.default_rng(3)
    for _ in range(30):
        values = rng.random((15, 4))
        ens = pca_first_component(ScoreMatrix(values=values, models=tuple("abcd")))
        assert abs(np.linalg.norm(ens.weights) - 1.0) < 1e-9
        rm = values.mean(axis=1)
        if rm.std() > 0 and ens.pc1.std() > 0:
            assert np.corrcoef(ens.pc1, rm)[0, 1] >= -1e-12
        assert ens.pc1.min() == 0.0 and ens.pc1.max() == 1.0


def test_pca_beats_random_unit_vectors():
    rng = np.random.default_rng(4)
    values = rng.random((50, 4))
    ens = pca_first_component(ScoreMatrix(values=values, models=tuple("abcd")))
    centered = values - values.mean(axis=0)
    best = (centered @ ens.weights).var(ddof=1)
    directions = rng.normal(size=(4, 200))
    directions /= np.linalg.norm(directions, axis=0)
    others = (centered @ directions).var(axis=0, ddof=1)
    assert (best >= others - 1e-12).all()


def test_pca_rank_order_invariant_to_column_shift():
    rng = np.random.default_rng(6)
    values = rng.random((12, 3))
    shifted = values.copy()
    shifted[:, 1] += 5.0
    first = pca_first_component(values)
    second = pca_first_component(shifted)
    assert np.argsort(first.pc1).tolist() == np.argsort(second.pc1).tolist()


# ---------------------------------------------------- union / intersection

def test_majority_vote_semantics():
    assert intersection_label([True, True, True, False]) is True
    assert intersection_label([True, True, False, False]) is False
    assert intersection_label([True, True, False]) is True


def test_union_semantics():
    assert union_label([False, False, False]) is False
    assert union_label([True, False, False]) is True
    assert union_label([True, True, True]) is True


def test_vote_ops_need_two_labels():
    with pytest.raises(ValueError):
        union_label([True])
    with pytest.raises(ValueError):
        intersection_label([True])


# ------------------------------------------------------------- threshold

def test_optimal_threshold_fixture():
    tau, sweep = optimal_threshold([0.1, 0.2, 0.8, 0.9], [False, False, True, True])
    assert tau == pytest.approx(0.5)
    best = sweep.f1.max()
    assert best == 1.0
    # four distinct scores: a sentinel, three midpoints and a sentinel
    assert [len(column) for column in sweep] == [5, 5, 5, 5]


def test_optimal_threshold_no_positives():
    tau, sweep = optimal_threshold([0.1, 0.5, 0.9], [False, False, False])
    assert tau == pytest.approx(1.9)
    assert (sweep.f1 == 0.0).all()


def test_optimal_threshold_all_positive():
    tau, sweep = optimal_threshold([0.1, 0.5, 0.9], [True, True, True])
    assert tau == pytest.approx(-0.9)
    assert sweep.f1[0] == 1.0


def test_optimal_threshold_sweep_monotone():
    rng = np.random.default_rng(8)
    for _ in range(25):
        n = rng.integers(2, 40)
        pc1 = rng.random(n).round(2)  # force ties
        gold = rng.random(n) < 0.4
        _, sweep = optimal_threshold(pc1, gold)
        if gold.any():
            sens = sweep.sensitivity.tolist()
            assert all(a >= b - 1e-12 for a, b in zip(sens, sens[1:]))
        predicted_sets = [frozenset(np.flatnonzero(pc1 >= t).tolist())
                          for t in sweep.threshold]
        for bigger, smaller in zip(predicted_sets, predicted_sets[1:]):
            assert smaller <= bigger


def test_optimal_threshold_matches_exhaustive_oracle():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(2, 120))
        pc1 = rng.choice(np.linspace(0, 1, 17), size=n)
        gold = rng.random(n) < rng.uniform(0.1, 0.9)
        tau, sweep = optimal_threshold(pc1, gold)
        oracle_tau, oracle_f1 = sweep_oracle(pc1, gold)
        got_f1 = sweep.f1.max()
        assert got_f1 == pytest.approx(oracle_f1, abs=1e-12)
        assert tau == pytest.approx(oracle_tau, abs=1e-12)


# ---------------------------------------------------------------- fusion

def assert_fused(decision, pc1):
    """Demote-only fusion: the final label is the union label where pc1 >= tau."""
    union, inter = decision.union_label, decision.intersection_label
    above = np.asarray(pc1) >= decision.tau
    assert decision.final_label.tolist() == (union & above).tolist()
    assert not np.any(decision.final_label & ~union)  # never promotes
    assert not np.any(inter & above & ~decision.final_label)  # keeps the sandwich


def test_fusion_rule():
    decision, ens = ensemble_topic(DEMOTION_LABELS, DEMOTION_SCORES, topic="t")
    assert_fused(decision, ens.pc1)
    assert decision.final_label.tolist() == [True] * 5 + [False] * 3


def test_fusion_tau_extremes():
    # flat scores: with majority positives tau falls below every pc1 and the
    # union passes; without, tau rises above every pc1 and nothing does
    majority = {"a": [True, False, True], "b": [True, False, False], "c": [False, False, True]}
    decision, ens = degenerate_ensemble(majority)
    assert decision.tau < ens.pc1.min()
    assert_fused(decision, ens.pc1)
    assert decision.final_label.tolist() == [True, False, True]
    lone = {"a": [True, False, False], "b": [False, True, False], "c": [False, False, False]}
    decision, ens = degenerate_ensemble(lone)
    assert decision.tau > ens.pc1.max()
    assert_fused(decision, ens.pc1)
    assert decision.union_label.tolist() == [True, True, False]
    assert decision.final_label.tolist() == [False, False, False]


def test_fusion_sandwich():
    rng = np.random.default_rng(10)
    for _ in range(200):
        n = int(rng.integers(2, 30))
        labels = {m: rng.random(n) < 0.6 for m in "abc"}
        scores = {m: np.where(labels[m], rng.random(n), 0.0) for m in "abc"}
        try:
            decision, ens = ensemble_topic(labels, scores, topic="t")
        except ZeroVariance:
            decision, ens = degenerate_ensemble(labels)
        assert_fused(decision, ens.pc1)


# ---------------------------------------------------------- ensemble_topic

def test_ensemble_topic_all_agree_passthrough():
    rng = np.random.default_rng(12)
    labels = rng.random(12) < 0.5
    labels[0] = True
    scores = np.where(labels, rng.uniform(0.1, 1.0, 12), 0.0)
    decision, ens = ensemble_topic(
        {m: labels for m in "abc"},
        {m: scores for m in "abc"},
        topic="t",
    )
    assert decision.final_label.tolist() == labels.tolist()
    assert decision.union_label.tolist() == labels.tolist()
    assert decision.intersection_label.tolist() == labels.tolist()


DEMOTION_SCORES = {
    "A": [0.90, 0.80, 0.70, 0.50, 0.40, 0.00, 0.00, 0.00],
    "B": [0.80, 0.75, 0.80, 0.45, 0.50, 0.00, 0.00, 0.00],
    "C": [0.85, 0.70, 0.75, 0.40, 0.45, 0.00, 0.00, 0.00],
    "D": [0.90, 0.85, 0.80, 0.60, 0.55, 0.15, 0.12, 0.08],
}
DEMOTION_LABELS = {m: [s > 0 for s in v] for m, v in DEMOTION_SCORES.items()}


def test_ensemble_topic_demotes_overgenerous_model():
    # hand-traced fixture: D labels everything; its solo positives (texts
    # 6-8) sit at the bottom of the ensemble scale and get demoted
    decision, ens = ensemble_topic(DEMOTION_LABELS, DEMOTION_SCORES, topic="t")
    assert decision.union_label.tolist() == [True] * 8
    assert decision.intersection_label.tolist() == [True] * 5 + [False] * 3
    assert decision.final_label.tolist() == [True] * 5 + [False] * 3

    values = np.stack([DEMOTION_SCORES[m] for m in "ABCD"], axis=1)
    w, raw = eigen_oracle(values)
    pc1 = (raw - raw.min()) / (raw.max() - raw.min())
    np.testing.assert_allclose(ens.pc1, pc1, atol=1e-12)
    oracle_tau, _ = sweep_oracle(pc1, decision.intersection_label)
    assert decision.tau == pytest.approx(oracle_tau, abs=1e-12)
    assert decision.tau == pytest.approx(0.27936566, abs=1e-6)


def test_ensemble_topic_exclusion_drops_columns():
    decision, ens = ensemble_topic(
        DEMOTION_LABELS, DEMOTION_SCORES, topic="t", excluded={"D"}
    )
    assert ens.weights.shape == (3,)
    assert decision.final_label.tolist() == [True] * 5 + [False] * 3


def test_ensemble_topic_too_few_after_exclusion():
    with pytest.raises(TooFewModels):
        ensemble_topic(
            DEMOTION_LABELS, DEMOTION_SCORES, topic="t", excluded={"A", "B", "C"}
        )


def test_ensemble_topic_deterministic():
    first = ensemble_topic(DEMOTION_LABELS, DEMOTION_SCORES, topic="t")
    second = ensemble_topic(DEMOTION_LABELS, DEMOTION_SCORES, topic="t")
    assert first[0].tau == second[0].tau
    np.testing.assert_array_equal(first[0].final_label, second[0].final_label)
    np.testing.assert_array_equal(first[1].weights, second[1].weights)
