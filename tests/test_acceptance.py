"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test prints one PASS line on success (run with -s or check captured
output); a failure reads as the criterion number plus the broken assertion.
Oracles here are written directly against the defining formulas and never
call back into the implementation paths they check.
"""
import itertools
import json
import math
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

from topicensemble.agreement import (
    RatingMatrix,
    bin_scores,
    detect_outliers,
    fleiss_kappa,
    gwet_ac1,
    percent_agreement,
)
from topicensemble.annotator import ResponseCache, TopicAnnotation
from topicensemble.config import load_config
from topicensemble.corpus import Topic
from topicensemble.ensemble import (
    ScoreMatrix,
    ensemble_topic,
    intersection_label,
    optimal_threshold,
    pca_first_component,
    union_label,
)
from topicensemble.errors import DegenerateChance
from topicensemble.evaluation import auprc
from topicensemble.pipeline import run
from topicensemble.relevancy import Embedder, EmbeddingBackend, relevancy_score
from topicensemble.stubserver import Fixture, serve

E2E = Path(__file__).parent / "fixtures" / "e2e"


def ok(criterion: str) -> None:
    print(f"PASS: {criterion}")


# ----------------------------------------------------------------- oracles

def oracle_po(counts, n):
    N, k = len(counts), len(counts[0])
    return sum(
        counts[i][j] * (counts[i][j] - 1) / (n * (n - 1))
        for i in range(N) for j in range(k)
    ) / N


def oracle_ac1(counts, n):
    N, k = len(counts), len(counts[0])
    po = oracle_po(counts, n)
    p = [sum(counts[i][j] for i in range(N)) / (N * n) for j in range(k)]
    pe = sum(pj * (1 - pj) for pj in p) / (k - 1)
    return (po - pe) / (1 - pe) if pe < 1 else None


def oracle_fleiss(counts, n):
    N, k = len(counts), len(counts[0])
    po = oracle_po(counts, n)
    p = [sum(counts[i][j] for i in range(N)) / (N * n) for j in range(k)]
    pe = sum(pj * pj for pj in p)
    return (po - pe) / (1 - pe) if pe < 1 else None


def oracle_eigen(values):
    x = np.asarray(values, dtype=float)
    centered = x - x.mean(axis=0)
    cov = (centered.T @ centered) / (x.shape[0] - 1)
    vals, vecs = np.linalg.eigh(cov)
    w = vecs[:, np.argmax(vals)]
    raw = centered @ w
    rm = x.mean(axis=1)
    if raw @ (rm - rm.mean()) < 0:
        w, raw = -w, -raw
    span = raw.max() - raw.min()
    return w, (raw - raw.min()) / span


def oracle_sweep(pc1, gold):
    """Exhaustive candidate sweep: list of (threshold, f1), ascending."""
    distinct = sorted(set(np.asarray(pc1, dtype=float).tolist()))
    cands = (
        [distinct[0] - 1.0]
        + [(a + b) / 2 for a, b in zip(distinct[:-1], distinct[1:])]
        + [distinct[-1] + 1.0]
    )
    gold = np.asarray(gold, dtype=bool)
    pc1 = np.asarray(pc1, dtype=float)
    out = []
    for t in cands:
        pred = pc1 >= t
        tp = int((pred & gold).sum())
        fp = int((pred & ~gold).sum())
        fn = int((~pred & gold).sum())
        f1 = 0.0 if tp == 0 else 2 * tp / (2 * tp + fp + fn)
        out.append((t, f1))
    return out


# -------------------------------------------------------------- criterion 1

def test_c01_agreement_exhaustive_oracle():
    start = time.monotonic()
    checked = 0
    for n in (2, 3):
        row_options = [(i, n - i) for i in range(n + 1)]
        for N in (1, 2, 3):
            for rows in itertools.product(row_options, repeat=N):
                counts = [list(r) for r in rows]
                m = RatingMatrix(counts=np.array(counts, dtype=float), n=n)
                assert percent_agreement(m) == pytest.approx(
                    oracle_po(counts, n), abs=1e-12
                )
                expected_ac1 = oracle_ac1(counts, n)
                assert expected_ac1 is not None  # unreachable degenerate for k=2
                assert gwet_ac1(m).coefficient == pytest.approx(
                    expected_ac1, abs=1e-12
                )
                expected_kappa = oracle_fleiss(counts, n)
                if expected_kappa is None:
                    with pytest.raises(DegenerateChance):
                        fleiss_kappa(m)
                else:
                    assert fleiss_kappa(m).coefficient == pytest.approx(
                        expected_kappa, abs=1e-12
                    )
                checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    ok(f"criterion 1: AC1/Fleiss match the formula oracle on all {checked} "
       f"matrices with N<=3, n<=3, k=2 (1e-12, {elapsed:.2f}s)")


# -------------------------------------------------------------- criterion 2

def test_c02_worked_derived_values():
    m = RatingMatrix(counts=np.array([[2, 0], [1, 1]], dtype=float), n=2)
    assert percent_agreement(m) == pytest.approx(0.5, abs=1e-12)
    assert gwet_ac1(m).coefficient == pytest.approx(0.2, abs=1e-12)
    assert fleiss_kappa(m).coefficient == pytest.approx(-1.0 / 3.0, abs=1e-12)
    ok("criterion 2: [[2,0],[1,1]] gives P_o=0.5, AC1=0.2, kappa=-1/3 (1e-12)")


# -------------------------------------------------------------- criterion 3

def test_c03_pca_optimality():
    start = time.monotonic()
    rng = np.random.default_rng(303)
    for _ in range(100):
        values = rng.random((50, 4))
        ens = pca_first_component(
            ScoreMatrix(values=values, models=("a", "b", "c", "d"))
        )
        assert abs(np.linalg.norm(ens.weights) - 1.0) <= 1e-9
        centered = values - values.mean(axis=0)
        best = (centered @ ens.weights).var()
        directions = rng.normal(size=(4, 1000))
        directions /= np.linalg.norm(directions, axis=0)
        others = (centered @ directions).var(axis=0)
        assert (best >= others - 1e-12).all()
    fixture = np.array([[0, 0], [0, 0], [1, 0], [1, 2]], dtype=float)
    ens = pca_first_component(fixture)
    np.testing.assert_allclose(np.abs(ens.weights), [0.383, 0.924], atol=1e-3)
    w_oracle, _ = oracle_eigen(fixture)
    np.testing.assert_allclose(np.abs(ens.weights), np.abs(w_oracle), atol=1e-12)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    ok(f"criterion 3: PCA beats 1000 random unit vectors on 100 matrices, "
       f"|w|=1 +/- 1e-9, fixture weights (0.383, 0.924) ({elapsed:.2f}s)")


# -------------------------------------------------------------- criterion 4

def test_c04_threshold_exactness():
    start = time.monotonic()
    rng = np.random.default_rng(404)
    for _ in range(100):
        n = int(rng.integers(2, 201))
        pc1 = rng.choice(np.linspace(0.0, 1.0, int(rng.integers(3, 12))), size=n)
        gold = rng.random(n) < rng.uniform(0.05, 0.95)
        tau, sweep = optimal_threshold(pc1, gold)
        oracle = oracle_sweep(pc1, gold)
        best_f1 = max(f1 for _, f1 in oracle)
        got_f1 = sweep.f1.max()
        assert got_f1 == pytest.approx(best_f1, abs=1e-12)
        if gold.any():
            lowest = min(t for t, f1 in oracle if abs(f1 - best_f1) <= 1e-12)
            assert tau == pytest.approx(lowest, abs=1e-12)
        else:
            assert tau == pytest.approx(oracle[-1][0], abs=1e-12)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    ok(f"criterion 4: optimal_threshold matches the exhaustive sweep and the "
       f"lowest-candidate tie-break on 100 instances ({elapsed:.2f}s)")


# -------------------------------------------------------------- criterion 5

def test_c05_fusion_invariants():
    rng = np.random.default_rng(505)
    cases = violations = case = 0
    while cases < 10_000:
        case += 1
        n = int(rng.integers(2, 25))
        m = int(rng.integers(2, 5))
        all_agree = case % 3 == 0
        if all_agree:
            shared = rng.random(n) < 0.5
            shared[int(rng.integers(0, n))] = True
            labels = {f"m{j}": shared.copy() for j in range(m)}
            # raters scoring the same texts correlate: shared signal + noise
            base = rng.uniform(0.1, 1.0, n)
            scores = {
                f"m{j}": np.where(
                    shared,
                    np.clip(base + rng.normal(0.0, 0.08, n), 0.02, 1.0),
                    0.0,
                )
                for j in range(m)
            }
        else:
            truth = rng.random(n) < 0.5
            labels = {}
            scores = {}
            for j in range(m):
                noisy = truth ^ (rng.random(n) < 0.25)
                labels[f"m{j}"] = noisy
                scores[f"m{j}"] = np.where(noisy, rng.uniform(0.0, 1.0, n), 0.0)
            if not np.any(np.stack(list(labels.values()))):
                labels["m0"][0] = True
                scores["m0"][0] = 0.5
        stacked = np.stack([scores[k] for k in scores], axis=1)
        if np.all(stacked.var(axis=0) == 0.0):
            continue  # ZeroVariance path is covered elsewhere
        decision, ens = ensemble_topic(labels, scores)
        cases += 1
        final = decision.final_label
        union = decision.union_label
        inter = decision.intersection_label
        if np.any(final & ~union):
            violations += 1
        if np.any(inter & (ens.pc1 >= decision.tau) & ~final):
            violations += 1
        if all_agree and not (
            np.array_equal(final, union) and np.array_equal(final, inter)
        ):
            violations += 1
    assert violations == 0
    assert cases == 10_000
    ok(f"criterion 5: fusion invariants held on {cases} random ensembles "
       f"(subset, retention, all-agree pass-through), zero violations")


# -------------------------------------------------------------- criterion 6

def test_c06_relevancy_contract(tmp_path, pool):
    # fixture geometry: desc_j = b_j*e0 + sqrt(1-b_j^2)*e_j gives the topic
    # baseline b_j against the empty string e0; a phrase at similarity s to
    # desc_j is s*desc_j + sqrt(1-s^2)*u_j with u_j the in-plane orthogonal.
    rng = np.random.default_rng(606)
    dim = 8
    topics = []
    embeddings = {"": [1.0] + [0.0] * (dim - 1)}
    planned: list[tuple[Topic, list[str], list[float], float]] = []
    for j in range(1, 7):
        b = float(rng.uniform(0.0, 0.9))
        desc = f"Synthetic topic number {j} description."
        d_vec = np.zeros(dim)
        d_vec[0] = b
        d_vec[j] = math.sqrt(1 - b * b)
        u_vec = np.zeros(dim)
        u_vec[0] = math.sqrt(1 - b * b)
        u_vec[j] = -b
        embeddings[desc] = d_vec.tolist()
        topic = Topic(f"syn{j}", desc)
        topics.append(topic)
        phrases = []
        sims = []
        for i in range(50):
            s = float(rng.uniform(-1.0, 1.0))
            text = f"phrase {j}-{i}"
            embeddings[text] = (s * d_vec + math.sqrt(1 - s * s) * u_vec).tolist()
            phrases.append(text)
            sims.append(s)
        planned.append((topic, phrases, sims, b))

    server = serve(Fixture.from_dict({"dimension": dim, "embeddings": embeddings}))
    try:
        embedder = Embedder(
            EmbeddingBackend(name="syn", endpoint=server.embeddings_url),
            ResponseCache(tmp_path), pool,
        )
        for topic, phrases, sims, b in planned:
            for count in (1, 3, 7):
                chosen = rng.choice(len(phrases), size=count, replace=False)
                ann = TopicAnnotation(
                    model="m", text_id="t", topic=topic.short_name,
                    label=True, phrases=tuple(phrases[i] for i in chosen),
                )
                record = relevancy_score(ann, topic, embedder)
                assert 0.0 <= record.score <= 1.0
                assert record.baseline == pytest.approx(b, abs=1e-6)
                raw = [s.raw_sim for s in record.per_phrase_sims]
                assert raw == pytest.approx([sims[i] for i in chosen], abs=1e-6)
                # max-then-clamp == clamp-then-max, on the record's own sims
                max_then_clamp = min(max(max(raw) - record.baseline, 0.0), 1.0)
                clamp_then_max = min(
                    max(max(r - record.baseline, 0.0) for r in raw), 1.0
                )
                assert record.score == pytest.approx(max_then_clamp, abs=1e-12)
                assert max_then_clamp == pytest.approx(clamp_then_max, abs=1e-12)
                negative = relevancy_score(
                    TopicAnnotation(
                        model="m", text_id="t", topic=topic.short_name,
                        label=False, phrases=ann.phrases,
                    ),
                    topic, embedder,
                )
                assert negative.score == 0.0
    finally:
        server.stop()
    for _ in range(10_000):
        sims = rng.uniform(-1, 1, size=int(rng.integers(1, 9)))
        b = float(rng.uniform(-0.5, 0.9))
        assert max(sims.max() - b, 0.0) == pytest.approx(
            max(np.maximum(sims - b, 0.0).max(), 0.0), abs=1e-12
        )
    assert bin_scores([0.05]).tolist() == [0]
    assert bin_scores([0.43]).tolist() == [4]
    assert bin_scores([1.0]).tolist() == [9]
    ok("criterion 6: relevancy scores stayed in [0,1], negative labels score 0, "
       "max/clamp commute (1e-12), binning 0.05->0 0.43->4 1.0->9")


# -------------------------------------------------------------- criterion 7

def test_c07_majority_vote_semantics():
    assert intersection_label([True, True, False, False]) is False
    assert intersection_label([True, True, True, False]) is True
    assert intersection_label([True, True, False]) is True
    assert union_label([False, False, False, False]) is False
    assert union_label([True, False, False, False]) is True
    ok("criterion 7: strict more-than-half majority (4:2 no, 4:3 yes, 3:2 yes)")


# -------------------------------------------------------------- criterion 8

def test_c08_auprc_checks():
    assert auprc([0.9, 0.8, 0.2, 0.1], [True, True, False, False]) == pytest.approx(
        1.0, abs=1e-12
    )
    gold = [True, False, False, True, False, False]
    assert auprc([0.3] * 6, gold) == pytest.approx(2 / 6, abs=1e-12)
    assert auprc([0.9, 0.8, 0.7], [True, False, True]) == pytest.approx(
        0.8333333333, abs=1e-9
    )
    ok("criterion 8: AUPRC is 1.0 for perfect ranking, prevalence for constant "
       "scores, and 0.8333 on the three-point fixture (1e-9)")


# -------------------------------------------------------------- criterion 9

EXPECTED_FINALS = {
    "sleep": {"t1": True, "t2": True, "t3": False, "t4": False, "t5": False, "t6": False},
    "appetite": {"t1": False, "t2": False, "t3": True, "t4": True, "t5": False, "t6": False},
}

# per-model relevancy scores implied by the fixture geometry (exact fractions)
DESIGN_SCORES = {
    "sleep": {
        "m_alpha": [0.4, 0.2, 0.0, 0.0, 0.0, 0.0],
        "m_beta": [0.36, 5.2 / 17, 3.4 / 13, 6.6 / 41, 0.0, 0.0],
    },
    "appetite": {
        "m_alpha": [0.0, 0.0, 1.0, 0.6, 0.0, 0.0],
        "m_beta": [0.0, 0.0, 0.8, 0.28, 0.28, 0.0],
    },
}
DESIGN_LABELS = {
    topic: {m: [s > 0 for s in v] for m, v in per_model.items()}
    for topic, per_model in DESIGN_SCORES.items()
}


def _read_finals(run_dir: Path, topic: str) -> dict[str, bool]:
    lines = (run_dir / "ensemble" / f"{topic}.decisions.jsonl").read_text().splitlines()
    return {
        row["text_id"]: row["final"]
        for row in (json.loads(line) for line in lines[1:])
    }


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_c09_end_to_end_determinism(tmp_path):
    workdir = tmp_path / "demo"
    shutil.copytree(E2E, workdir)
    server = serve(Fixture.from_file(workdir / "fixture.json"))
    config_path = workdir / "config.yaml"
    config_path.write_text(config_path.read_text().replace("8731", str(server.port)))

    start = time.monotonic()
    cfg = load_config(config_path)
    cfg.output_dir = tmp_path / "out_a"
    run_a = run(cfg, stage="all", run_id="accept")
    elapsed = time.monotonic() - start
    assert elapsed < 60.0

    for topic, expected in EXPECTED_FINALS.items():
        got = _read_finals(run_a, topic)
        assert got == expected, topic
        # independent re-derivation: eigen + exhaustive sweep on the designed
        # score table (non-excluded models only)
        values = np.stack(
            [DESIGN_SCORES[topic][m] for m in ("m_alpha", "m_beta")], axis=1
        )
        label_mat = np.stack(
            [DESIGN_LABELS[topic][m] for m in ("m_alpha", "m_beta")], axis=1
        )
        _, pc1 = oracle_eigen(values)
        union = label_mat.any(axis=1)
        inter = label_mat.sum(axis=1) > label_mat.shape[1] / 2
        sweep = oracle_sweep(pc1, inter)
        best = max(f1 for _, f1 in sweep)
        tau = min(t for t, f1 in sweep if abs(f1 - best) <= 1e-12)
        oracle_final = union & (pc1 >= tau)
        assert [expected[f"t{i+1}"] for i in range(6)] == oracle_final.tolist()

    excluded = json.loads((run_a / "agree" / "outliers.json").read_text())["excluded"]
    assert excluded == ["m_gamma"]

    server.stop()  # second run must be served entirely by the warm cache
    cfg_b = load_config(config_path)
    cfg_b.output_dir = tmp_path / "out_b"
    run_b = run(cfg_b, stage="all", run_id="accept")
    assert _tree_bytes(run_a) == _tree_bytes(run_b)
    ok(f"criterion 9: stub-fixture run matched the hand-derived finals in "
       f"{elapsed:.1f}s; warm-cache rerun with the server stopped was "
       f"bit-identical (zero network calls)")


# ------------------------------------------------------------- criterion 10

def test_c10_outlier_rule():
    a = [i < 20 for i in range(60)]
    c = [(not lab) if (i < 10 or 20 <= i < 40) else lab for i, lab in enumerate(a)]
    vectors = {"A": a, "B": list(a), "C": c}

    def loo_oracle(vecs):
        def ac1(names):
            mat = np.array([vecs[n] for n in names], dtype=int)
            pos = mat.sum(axis=0)
            n = len(names)
            counts = np.stack([pos, n - pos], axis=1).astype(float)
            po = (counts * (counts - 1)).sum(1).mean() / (n * (n - 1))
            p = counts.mean(0) / n
            pe = float((p * (1 - p)).sum())  # k=2: 1/(k-1) = 1
            return (po - pe) / (1 - pe)

        names = list(vecs)
        base = ac1(names)
        deltas = {m: ac1([x for x in names if x != m]) - base for m in names}
        worst = max(names, key=lambda m: deltas[m])
        return base, deltas, worst if deltas[worst] > 0.1 * base else None

    base, deltas, worst = loo_oracle(vectors)
    assert worst == "C"
    report = detect_outliers(vectors, threshold_fraction=0.10)
    assert report.excluded == ["C"]
    assert report.base_ac1 == pytest.approx(base, abs=1e-12)
    for name in vectors:
        assert report.deltas[name] == pytest.approx(deltas[name], abs=1e-12)

    identical = detect_outliers({"A": a, "B": list(a), "C": list(a)})
    assert identical.excluded == []
    ok("criterion 10: leave-one-out scan excluded exactly the anti-correlated "
       "third rater on the 60-item fixture and none on the identical fixture")
