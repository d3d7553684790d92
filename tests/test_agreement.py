import tracemalloc

import numpy as np
import pytest

from topicensemble.agreement import (
    _DRAW_BYTES,
    RatingMatrix,
    _pattern_sums,
    _patterns,
    _resample_coefficients,
    bin_scores,
    bootstrap_ci,
    build_rating_matrix,
    detect_outliers,
    fleiss_kappa,
    gwet_ac1,
    percent_agreement,
)
from topicensemble.errors import (
    DegenerateChance,
    IncompleteRatings,
    OutOfRange,
    TooFewModels,
)


def oracle_coefficients(counts, n):
    """Direct formula evaluation, independent of the kernel implementations."""
    counts = np.asarray(counts, dtype=float)
    N, k = counts.shape
    po = sum(
        counts[i, j] * (counts[i, j] - 1) / (n * (n - 1))
        for i in range(N)
        for j in range(k)
    ) / N
    p = [sum(counts[i, j] for i in range(N)) / (N * n) for j in range(k)]
    pe_star = sum(pj * (1 - pj) for pj in p) / (k - 1)
    pe = sum(pj * pj for pj in p)
    ac1 = (po - pe_star) / (1 - pe_star) if pe_star < 1 else None
    kappa = (po - pe) / (1 - pe) if pe < 1 else None
    return po, ac1, kappa


SPLIT = [[2, 0], [1, 1]]  # two raters: unanimous yes, then split


def test_build_rating_matrix_tally():
    # item rows [2, 0], [1, 1], [2, 0]: their patterns in lexicographic order
    m = build_rating_matrix({"r1": [0, 0, 0], "r2": [0, 1, 0]}, k=2)
    assert m.counts.tolist() == [[1.0, 1.0], [2.0, 0.0]]
    assert m.freq.tolist() == [1, 2]
    assert m.n == 2 and m.num_items == 3


def test_build_rating_matrix_identical_raters():
    m = build_rating_matrix({"a": [0, 1, 0], "b": [0, 1, 0], "c": [0, 1, 0]})
    assert all(sorted(row, reverse=True)[0] == 3 for row in m.counts.tolist())


def test_build_rating_matrix_incomplete():
    with pytest.raises(IncompleteRatings):
        build_rating_matrix({"a": [0, 1], "b": [0]})
    with pytest.raises(IncompleteRatings):
        build_rating_matrix({"a": [0, None], "b": [0, 1]})


def test_build_rating_matrix_rejects_bad_categories():
    with pytest.raises(ValueError):
        build_rating_matrix({"a": [0, -1], "b": [0, 1]})
    with pytest.raises(ValueError):
        build_rating_matrix({"a": [0, 2], "b": [0, 1]}, k=2)


def test_build_rating_matrix_matches_row_loop():
    # the per-item bincount loop the tally replaced, kept as the reference
    rng = np.random.default_rng(2)
    for k in (2, 10):
        ratings = {f"r{j}": rng.integers(0, k, size=50) for j in range(4)}
        assigned = np.stack(list(ratings.values()), axis=1)
        expected = np.array([np.bincount(row, minlength=k) for row in assigned])
        patterns, freq = np.unique(expected, axis=0, return_counts=True)
        m = build_rating_matrix(ratings, k=k)
        assert np.array_equal(m.counts, patterns)
        assert np.array_equal(m.freq, freq)
        assert m.counts.dtype == np.float64


def test_rating_matrix_rejects_fractional_counts():
    # rows are keyed as integers when resampled, so counts must be whole
    with pytest.raises(ValueError):
        RatingMatrix(counts=np.array([[1.5, 0.5], [2.0, 0.0]]), n=2)


@pytest.mark.parametrize("row, error, message", [
    ([-1.0, 3.0], ValueError, "non-negative"),
    ([1.5, 0.5], ValueError, "whole numbers"),
    ([1.0, 0.0], IncompleteRatings, "sum to the rater count"),
])
def test_rating_matrix_checks_every_row_block(row, error, message):
    # the last of many item rows, and the last of the patterns when they come
    # with their frequencies
    counts = np.ones((40_000, 2))
    counts[-1] = row
    with pytest.raises(error, match=message):
        RatingMatrix(counts=counts, n=2)
    with pytest.raises(error, match=message):
        RatingMatrix(counts=counts[-2:], n=2, freq=np.array([39_999, 1]))


def test_build_rating_matrix_needs_little_beyond_the_counts():
    rng = np.random.default_rng(3)
    items = 200_000
    ratings = {f"r{j}": rng.integers(0, 10, size=items) for j in range(4)}
    tracemalloc.start()
    try:
        m = build_rating_matrix(ratings, k=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert m.num_items == items
    # one int64 key an item, a rater's place values and np.unique's sorted
    # copy of the keys; an item-by-category tally would add 10 floats an item
    assert peak < 3 * 8 * items


def test_points_need_less_than_half_a_count_matrix():
    rng = np.random.default_rng(3)
    items, k = 200_000, 10
    ratings = {f"r{j}": rng.integers(0, k, size=items) for j in range(4)}
    tracemalloc.start()
    try:
        m = build_rating_matrix(ratings, k=k)
        gwet_ac1(m), fleiss_kappa(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * items * k * 8  # one items x k float64 matrix is 15.3 MiB


def test_percent_agreement_unanimous():
    m = build_rating_matrix({"a": [0, 1, 0], "b": [0, 1, 0]})
    assert percent_agreement(m) == 1.0


def test_percent_agreement_split_fixture():
    po, _, _ = oracle_coefficients(SPLIT, 2)
    m = RatingMatrix(counts=np.array(SPLIT), n=2)
    assert percent_agreement(m) == pytest.approx(po, abs=1e-15)
    assert percent_agreement(m) == 0.5


def test_percent_agreement_all_split_is_zero():
    m = build_rating_matrix({"a": [0, 0], "b": [1, 1]})
    assert percent_agreement(m) == 0.0


def test_gwet_ac1_split_fixture():
    m = RatingMatrix(counts=np.array(SPLIT), n=2)
    result = gwet_ac1(m)
    _, ac1, _ = oracle_coefficients(SPLIT, 2)
    assert result.coefficient == pytest.approx(ac1, abs=1e-15)
    assert result.coefficient == pytest.approx(0.2, abs=1e-12)
    assert result.p_e == pytest.approx(0.375, abs=1e-12)


def test_gwet_ac1_unanimous_is_one():
    for k in (2, 3, 4):
        counts = np.zeros((3, k))
        counts[:, 0] = 2
        counts[1, 0] = 0
        counts[1, 1] = 2
        assert gwet_ac1(RatingMatrix(counts=counts, n=2)).coefficient == 1.0


def test_gwet_ac1_single_category_collapses_to_po():
    # p = (1, 0) makes the adjusted chance term 0, so AC1 = P_o
    m = build_rating_matrix({"a": [0, 0, 0], "b": [0, 0, 0]}, k=2)
    result = gwet_ac1(m)
    assert result.p_e == 0.0
    assert result.coefficient == percent_agreement(m) == 1.0


def test_fleiss_kappa_split_fixture():
    m = RatingMatrix(counts=np.array(SPLIT), n=2)
    result = fleiss_kappa(m)
    _, _, kappa = oracle_coefficients(SPLIT, 2)
    assert result.coefficient == pytest.approx(kappa, abs=1e-15)
    assert result.coefficient == pytest.approx(-1.0 / 3.0, abs=1e-12)
    assert result.p_e == pytest.approx(0.625, abs=1e-12)


def test_fleiss_kappa_unanimous_two_categories():
    m = build_rating_matrix({"a": [0, 1], "b": [0, 1]})
    assert fleiss_kappa(m).coefficient == 1.0


def test_fleiss_kappa_degenerate_single_category():
    m = build_rating_matrix({"a": [0, 0], "b": [0, 0]}, k=2)
    with pytest.raises(DegenerateChance):
        fleiss_kappa(m)


def test_bin_scores_examples():
    assert bin_scores([0.05]).tolist() == [0]
    assert bin_scores([0.43]).tolist() == [4]
    assert bin_scores([1.0]).tolist() == [9]


def test_bin_scores_out_of_range():
    with pytest.raises(OutOfRange):
        bin_scores([-0.01])
    with pytest.raises(OutOfRange):
        bin_scores([1.01])
    with pytest.raises(OutOfRange):
        bin_scores([0.5, float("nan")])


def test_bin_scores_monotone_and_surjective():
    grid = np.linspace(0.0, 1.0, 2001)
    levels = bin_scores(grid)
    assert (np.diff(levels) >= 0).all()
    assert set(levels.tolist()) == set(range(10))


def test_bootstrap_ci_unanimous():
    m = build_rating_matrix({"a": [0, 1, 0], "b": [0, 1, 0]})
    assert bootstrap_ci(["AC1"], m, resamples=200, seed=3) == {"AC1": (1.0, 1.0)}


def test_bootstrap_ci_deterministic():
    m = RatingMatrix(counts=np.tile(SPLIT, (10, 1)), n=2)
    first = bootstrap_ci(["AC1"], m, resamples=300, seed=42)
    second = bootstrap_ci(["AC1"], m, resamples=300, seed=42)
    assert first == second
    assert first != bootstrap_ci(["AC1"], m, resamples=300, seed=43)


def test_bootstrap_ci_contains_point_estimate():
    # replicated split fixture; an independently coded bootstrap (own RNG
    # stream) must also bracket the AC1 point estimate of 0.2
    counts = np.tile(SPLIT, (50, 1)).astype(float)
    m = RatingMatrix(counts=counts, n=2)
    lo, hi = bootstrap_ci(["AC1"], m, resamples=1000, seed=7)["AC1"]
    assert lo <= 0.2 <= hi

    rng = np.random.RandomState(123)  # legacy generator: independent stream
    stats = []
    for _ in range(1000):
        sub = counts[rng.randint(0, 100, size=100)]
        _, ac1, _ = oracle_coefficients(sub, 2)
        stats.append(ac1)
    olo, ohi = np.percentile(stats, [2.5, 97.5])
    assert olo <= 0.2 <= ohi
    assert abs(olo - lo) < 0.15 and abs(ohi - hi) < 0.15


def test_bootstrap_ci_requires_100_resamples():
    m = RatingMatrix(counts=np.array(SPLIT), n=2)
    with pytest.raises(ValueError):
        bootstrap_ci(["AC1"], m, resamples=50, seed=0)
    with pytest.raises(KeyError):
        bootstrap_ci(["AC1", "kappa"], m, resamples=100, seed=0)


def test_bootstrap_ci_fails_when_too_many_degenerate():
    # single item, single used category: every Fleiss resample degenerates,
    # while AC1 (P_e* = 0 here) keeps its interval from the same resamples
    m = build_rating_matrix({"a": [0], "b": [0]}, k=2)
    assert bootstrap_ci(["Fleiss"], m, resamples=200, seed=0) == {"Fleiss": None}
    assert bootstrap_ci(["AC1", "Fleiss"], m, resamples=200, seed=0) == {
        "AC1": (1.0, 1.0), "Fleiss": None}


def one_draw_ci(kind, m, resamples, seed):
    """bootstrap_ci's interval from a single multinomial draw of every resample."""
    rng = np.random.default_rng(seed)
    weights = rng.multinomial(m.num_items, m.freq / m.num_items, size=resamples)
    (stats,) = _resample_coefficients(_pattern_sums(m.counts), weights, m.n, [kind])
    lo, hi = np.percentile(stats[~np.isnan(stats)], [2.5, 97.5])
    return float(lo), float(hi)


def many_patterns(rng, items=6000):
    """About 3,000 distinct rows: 6 raters over 10 categories."""
    picks = rng.integers(0, 10, size=(6, items))
    return build_rating_matrix({f"r{j}": picks[j] for j in range(6)}, k=10)


@pytest.mark.parametrize("resamples", [100, 1000, 1001])
def test_chunked_bootstrap_equals_one_draw(resamples):
    rng = np.random.default_rng(40)
    few = rand_matrix(rng, N=300, k=2, n=5)
    many = many_patterns(rng)
    rows = _DRAW_BYTES // (8 * many.freq.size)
    assert rows < resamples and resamples % rows  # several chunks, the last partial
    for m in (few, many):
        cis = bootstrap_ci(["AC1", "Fleiss"], m, resamples=resamples, seed=resamples)
        for kind in ("AC1", "Fleiss"):
            assert cis[kind] == one_draw_ci(kind, m, resamples, seed=resamples)
            # one kind alone draws the same resamples as both together
            assert bootstrap_ci([kind], m, resamples=resamples, seed=resamples) == {
                kind: cis[kind]}


def test_bootstrap_memory_grows_with_the_chunk_not_the_resamples():
    m = many_patterns(np.random.default_rng(41))
    assert len(_patterns(m.counts, m.n)[1]) > 1500
    tracemalloc.start()
    try:
        bootstrap_ci(["AC1", "Fleiss"], m, resamples=10_000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one draw of every resample would hold 10,000 x patterns int64 weights
    # (over 120 MB) plus their float64 copy
    assert peak < 4 * 2**20


def test_detect_outliers_identical_models():
    vec = [True, False, True] * 20
    report = detect_outliers({"a": vec, "b": vec, "c": vec})
    assert report.excluded == []
    assert report.base_ac1 == 1.0


def test_detect_outliers_anticorrelated_third():
    a = [i < 20 for i in range(60)]
    c = [(not lab) if (i < 10 or 20 <= i < 40) else lab for i, lab in enumerate(a)]
    report = detect_outliers({"A": a, "B": a, "C": c})
    assert report.excluded == ["C"]
    assert report.deltas["C"] > 0.1 * report.base_ac1
    assert report.base_ac1 == pytest.approx(0.36470588, abs=1e-6)


def test_detect_outliers_too_few_models():
    with pytest.raises(TooFewModels):
        detect_outliers({"a": [True], "b": [False]})


def test_detect_outliers_never_below_two_models():
    rng = np.random.default_rng(0)
    vecs = {f"m{i}": rng.random(40) < 0.5 for i in range(4)}
    report = detect_outliers(vecs, threshold_fraction=1e-9)
    assert len(vecs) - len(report.excluded) >= 2


def test_detect_outliers_never_lowers_ac1():
    # exclusions fire only on genuine increases, so the pooled AC1 of the
    # survivors is never below the full-set AC1
    rng = np.random.default_rng(14)
    for trial in range(30):
        vecs = {
            f"m{i}": (rng.random(30) < rng.uniform(0.2, 0.8)).tolist()
            for i in range(int(rng.integers(3, 6)))
        }
        report = detect_outliers(vecs, threshold_fraction=0.01)
        survivors = {m: np.where(vecs[m], 0, 1) for m in vecs if m not in report.excluded}
        after = gwet_ac1(build_rating_matrix(survivors, k=2)).coefficient
        assert after >= report.base_ac1 - 1e-12


def test_detect_outliers_beyond_an_int64_key():
    # 64 models' bits overflow an int64 key, so their patterns come from a row sort
    rng = np.random.default_rng(16)
    vecs = {f"m{i}": rng.random(20) < 0.5 for i in range(64)}
    report = detect_outliers(vecs)

    def ac1(names):
        return gwet_ac1(build_rating_matrix(
            {m: np.where(vecs[m], 0, 1) for m in names}, k=2)).coefficient

    assert report.base_ac1 == ac1(vecs)
    assert report.deltas["m7"] == ac1([m for m in vecs if m != "m7"]) - report.base_ac1


def test_detect_outliers_needs_less_than_a_count_matrix():
    # two topics of 200,000 texts pooled, four models
    rng = np.random.default_rng(15)
    labels = {f"m{j}": rng.random(400_000) < 0.4 for j in range(4)}
    tracemalloc.start()
    try:
        detect_outliers(labels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 200_000 * 10 * 8  # 15.3 MiB


def rand_counts(rng, N=12, k=3, n=4):
    """Item rows: N items, each put by n raters into k categories at random."""
    counts = np.zeros((N, k))
    for i in range(N):
        counts[i] = np.bincount(rng.integers(0, k, size=n), minlength=k)
    return counts


def rand_matrix(rng, N=12, k=3, n=4):
    return RatingMatrix(counts=rand_counts(rng, N, k, n), n=n)


def test_permutation_invariance():
    rng = np.random.default_rng(5)
    for _ in range(50):
        counts = rand_counts(rng)
        m = RatingMatrix(counts=counts, n=4)
        item_perm = rng.permutation(counts.shape[0])
        cat_perm = rng.permutation(counts.shape[1])
        permuted = RatingMatrix(counts=counts[item_perm][:, cat_perm], n=m.n)
        assert gwet_ac1(permuted).coefficient == pytest.approx(
            gwet_ac1(m).coefficient, abs=1e-12
        )
        try:
            expected = fleiss_kappa(m).coefficient
        except DegenerateChance:
            continue
        assert fleiss_kappa(permuted).coefficient == pytest.approx(expected, abs=1e-12)


def test_rater_permutation_invariance():
    ratings = {"a": [0, 1, 0, 1], "b": [0, 1, 1, 1], "c": [1, 1, 0, 1]}
    reordered = {name: ratings[name] for name in ["c", "a", "b"]}
    m1 = build_rating_matrix(ratings, k=2)
    m2 = build_rating_matrix(reordered, k=2)
    assert np.array_equal(m1.counts, m2.counts)


def test_perfect_observed_agreement_gives_one():
    rng = np.random.default_rng(9)
    for _ in range(20):
        cats = rng.integers(0, 3, size=8)
        counts = np.zeros((8, 3))
        counts[np.arange(8), cats] = 3
        m = RatingMatrix(counts=counts, n=3)
        assert gwet_ac1(m).coefficient == 1.0
        if len(set(cats.tolist())) > 1:
            assert fleiss_kappa(m).coefficient == 1.0


def test_balanced_marginals_ac1_equals_kappa():
    # k=2 with p=(0.5, 0.5): both chance terms are 0.5, so AC1 == kappa.
    # Mirroring a matrix category-wise forces balanced marginals.
    rng = np.random.default_rng(11)
    for _ in range(20):
        half = rand_matrix(rng, N=10, k=2, n=4)
        counts = np.vstack([half.counts, half.counts[:, ::-1]])
        m = RatingMatrix(counts=counts, n=4)
        ac1 = gwet_ac1(m)
        kappa = fleiss_kappa(m)
        assert ac1.p_e == pytest.approx(0.5, abs=1e-12)
        assert kappa.p_e == pytest.approx(0.5, abs=1e-12)
        assert ac1.coefficient == pytest.approx(kappa.coefficient, abs=1e-12)


def gathered_coefficients(counts, n, idx, kind):
    """Literal item bootstrap: gather counts[idx] and apply the formulas."""
    sub = counts[idx]  # (resamples, N, k)
    N, k = idx.shape[1], counts.shape[1]
    po = (sub * (sub - 1.0)).sum(axis=(1, 2)) / (N * n * (n - 1.0))
    p = sub.sum(axis=1) / (N * n)
    if kind == "AC1":
        pe = (p * (1.0 - p)).sum(axis=1) / (k - 1.0)
    else:
        pe = (p * p).sum(axis=1)
    out = np.full(idx.shape[0], np.nan)
    ok = pe < 1.0
    out[ok] = (po[ok] - pe[ok]) / (1.0 - pe[ok])
    return out


def pattern_weights(counts, patterns, idx):
    """Per resample, how often each pattern was drawn through the items in idx."""
    position = {tuple(row): p for p, row in enumerate(patterns.tolist())}
    item_pattern = np.array([position[tuple(row)] for row in counts.tolist()])
    return np.stack([np.bincount(item_pattern[row], minlength=len(patterns))
                     for row in idx])


@pytest.mark.parametrize("k", [2, 10])
@pytest.mark.parametrize("kind", ["AC1", "Fleiss"])
def test_resample_kernel_matches_gather(k, kind):
    rng = np.random.default_rng(21 + k)
    for _ in range(10):
        counts = rand_counts(rng, N=40, k=k, n=4)
        idx = rng.integers(0, len(counts), size=(60, len(counts)))
        m = RatingMatrix(counts=counts, n=4)
        weights = pattern_weights(counts, m.counts, idx)
        (got,) = _resample_coefficients(_pattern_sums(m.counts), weights, m.n, [kind])
        np.testing.assert_allclose(
            got, gathered_coefficients(counts, m.n, idx, kind), rtol=0, atol=1e-12
        )


def test_resample_kernel_degenerate_resamples():
    # three unanimous items and one split one: every resample that misses
    # the split item has P_e = 1 under Fleiss
    counts = np.array([[3.0, 0.0]] * 3 + [[2.0, 1.0]])
    rng = np.random.default_rng(8)
    idx = rng.integers(0, 4, size=(200, 4))
    patterns, _ = _patterns(counts, 3)
    weights = pattern_weights(counts, patterns, idx)
    both = _resample_coefficients(_pattern_sums(patterns), weights, 3, ["AC1", "Fleiss"])
    for kind, got in zip(("AC1", "Fleiss"), both):
        expected = gathered_coefficients(counts, 3, idx, kind)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
        assert np.array_equal(np.isnan(got), np.isnan(expected))
    assert np.isnan(expected).sum() > 20


def test_pattern_paths_agree():
    rng = np.random.default_rng(30)
    for k, n in ((2, 2), (2, 9), (10, 4), (10, 77)):
        counts = rand_counts(rng, N=300, k=k, n=n)
        by_key = _patterns(counts, n)  # (n + 1) ** k <= 2 ** 63: the key path
        by_row = np.unique(counts, axis=0, return_counts=True)
        for got, want in zip(by_key, by_row):
            assert np.array_equal(got, want)
        assert by_key[1].sum() == len(counts)
        assert len({tuple(row) for row in counts.tolist()}) == len(by_key[0])


@pytest.mark.parametrize("n", [77, 78])
def test_patterns_at_the_int64_key_limit(n):
    # 78 ** 10 <= 2 ** 63 < 79 ** 10: n = 77 raters is the last key-path size
    # for k = 10, and n = 78 must take the row path
    counts = np.zeros((5, 10))
    counts[[0, 1], 0] = n
    counts[2, 9] = n
    counts[3, [0, 9]] = [n - n // 2, n // 2]
    counts[4, [0, 1]] = [1, n - 1]
    want_patterns, want_freq = np.unique(counts, axis=0, return_counts=True)
    patterns, freq = _patterns(counts, n)
    assert np.array_equal(patterns, want_patterns)
    assert np.array_equal(freq, want_freq)


def item_row_coefficient(counts, n, kind, point=True):
    """The coefficient straight from an items x categories count matrix, in
    the division order of the code: point estimates divide each sum over the
    items by N and then by the rater term, bootstrap resamples by their
    product once."""
    N, k = counts.shape
    pairs, totals = (counts * (counts - 1.0)).sum(), counts.sum(axis=0)
    if point:
        po, p = pairs / N / (n * (n - 1.0)), totals / N / n
    else:
        po, p = pairs / (N * n * (n - 1.0)), totals / (N * n)
    pe = (p * (1.0 - p)).sum() / (k - 1.0) if kind == "AC1" else (p * p).sum()
    return (po - pe) / (1.0 - pe) if pe < 1.0 else np.nan


@pytest.mark.parametrize("k", [2, 10])
@pytest.mark.parametrize("n", [77, 78])  # 78 ** 10 <= 2 ** 63 < 79 ** 10
def test_patterns_equal_the_item_row_formulas(k, n):
    # the pattern sums are whole numbers below 2 ** 53, so weighting the
    # patterns by their frequencies gives exactly what the item rows give
    rng = np.random.default_rng(50 + k + n)
    picks = rng.integers(0, k, size=(n, 60))
    counts = np.array([np.bincount(item, minlength=k) for item in picks.T], dtype=float)
    m = build_rating_matrix({f"r{j}": picks[j] for j in range(n)}, k=k)
    for kind, fn in (("AC1", gwet_ac1), ("Fleiss", fleiss_kappa)):
        assert fn(m).coefficient == item_row_coefficient(counts, n, kind)
        assert fn(RatingMatrix(counts=counts, n=n)).coefficient == fn(m).coefficient
    # the same multinomial draws, each expanded back into its item rows
    cis = bootstrap_ci(["AC1", "Fleiss"], m, resamples=200, seed=n)
    patterns, freq = np.unique(counts, axis=0, return_counts=True)
    weights = np.random.default_rng(n).multinomial(len(counts), freq / len(counts), size=200)
    for kind in ("AC1", "Fleiss"):
        stats = [item_row_coefficient(np.repeat(patterns, w, axis=0), n, kind, point=False)
                 for w in weights]
        lo, hi = np.percentile(stats, [2.5, 97.5])
        assert cis[kind] == (float(lo), float(hi))
