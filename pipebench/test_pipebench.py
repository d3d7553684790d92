"""Tests of the benchmark itself: oracles against brute force, the generator,
the stand-in, the checks, and a smoke run of every workload at a tiny size.

    python3 -m pytest pipebench -q
"""
from __future__ import annotations

import http.client
import itertools
import json
import math
import os
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest

import checks
import oracle
import run
import synth

HERE = Path(__file__).resolve().parent
REPO = HERE.parent


# ------------------------------------------------------------------ oracles

def brute_coefficients(ratings, k):
    """AC1 and kappa from the count-matrix formula, item by item."""
    items, n = len(ratings), len(ratings[0])
    counts = [[row.count(j) for j in range(k)] for row in ratings]
    po = sum(c * (c - 1) for row in counts for c in row) / (items * n * (n - 1))
    p = [sum(row[j] for row in counts) / (items * n) for j in range(k)]
    pe_ac1 = sum(q * (1 - q) for q in p) / (k - 1)
    pe_k = sum(q * q for q in p)
    return ((po - pe_ac1) / (1 - pe_ac1) if pe_ac1 < 1 else None,
            (po - pe_k) / (1 - pe_k) if pe_k < 1 else None)


def test_agreement_matches_count_formula_exhaustively():
    for n, items, k in ((2, 2, 2), (3, 2, 2), (3, 2, 3), (4, 1, 2)):
        for flat in itertools.product(range(k), repeat=n * items):
            ratings = [list(flat[i * n:(i + 1) * n]) for i in range(items)]
            got = oracle.agreement(np.array(ratings), k)
            want = brute_coefficients(ratings, k)
            for a, b in zip(got, want):
                assert (a is None) == (b is None)
                if a is not None:
                    assert a == pytest.approx(b, abs=1e-12)


def test_agreement_worked_example():
    ac1, kappa = oracle.agreement(np.array([[0, 0], [0, 1]]), 2)
    assert ac1 == pytest.approx(0.2, abs=1e-12)
    assert kappa == pytest.approx(-1.0 / 3.0, abs=1e-12)


def brute_sweep(score, target):
    distinct = sorted(set(score.tolist()))
    cuts = ([distinct[0] - 1.0] + [(a + b) / 2 for a, b in zip(distinct, distinct[1:])]
            + [distinct[-1] + 1.0])
    f1s = []
    for t in cuts:
        pred = score >= t
        tp = int((pred & target).sum())
        fp = int((pred & ~target).sum())
        fn = int((~pred & target).sum())
        f1s.append(0.0 if tp == 0 else 2 * tp / (2 * tp + fp + fn))
    if not target.any():
        return cuts[-1]
    best = max(f1s)
    return min(t for t, f in zip(cuts, f1s) if abs(f - best) <= 1e-12)


def test_threshold_sweep_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(2, 60))
        score = rng.choice(np.linspace(0, 1, int(rng.integers(2, 12))), size=n)
        target = rng.random(n) < rng.uniform(0.0, 1.0)
        assert oracle.lowest_best_cut(score, target) == brute_sweep(score, target)


def brute_average_precision(score, gold):
    if not gold.any():
        return None
    total, area, last_recall = int(gold.sum()), 0.0, 0.0
    for t in sorted(set(score.tolist()), reverse=True):
        pred = score >= t
        tp = int((pred & gold).sum())
        recall = tp / total
        area += (recall - last_recall) * tp / int(pred.sum())
        last_recall = recall
    return area


def test_average_precision_matches_brute_force():
    rng = np.random.default_rng(8)
    for _ in range(300):
        n = int(rng.integers(1, 50))
        score = rng.choice(np.linspace(0, 1, int(rng.integers(2, 8))), size=n)
        gold = rng.random(n) < 0.4
        want = brute_average_precision(score, gold)
        got = oracle.average_precision(score, gold)
        assert (got is None) == (want is None)
        if want is not None:
            assert got == pytest.approx(want, abs=1e-12)


def test_confusion_undefined_ratios_are_none():
    t, f = np.array([True, True]), np.array([False, False])
    assert oracle.confusion(f, t) == (None, 0.0, 0.0)
    assert oracle.confusion(t, f) == (0.0, None, 0.0)
    assert oracle.confusion(t, t) == (1.0, 1.0, 1.0)


def test_pc1_maximizes_variance_and_is_oriented():
    rng = np.random.default_rng(9)
    for _ in range(50):
        x = rng.random((40, 3))
        w, p = oracle.pc1(x)
        centered = x - x.mean(axis=0)
        vals, vecs = np.linalg.eigh(np.cov(centered, rowvar=False))
        assert np.allclose(np.abs(w), np.abs(vecs[:, -1]), atol=1e-9)
        assert abs(np.linalg.norm(w) - 1.0) < 1e-12
        dirs = rng.normal(size=(3, 500))
        dirs /= np.linalg.norm(dirs, axis=0)
        assert (centered @ w).var() >= (centered @ dirs).var(axis=0).max() - 1e-12
        assert p.min() == 0.0 and p.max() == 1.0
        row_mean = x.mean(axis=1)
        assert p @ (row_mean - row_mean.mean()) >= 0.0


def test_greedy_outliers_drops_the_noise_rater():
    a = np.array([i < 20 for i in range(60)])
    c = np.array([(not v) if (i < 10 or 20 <= i < 40) else v for i, v in enumerate(a)])
    base, first, excluded = oracle.greedy_outliers({"A": a, "B": a.copy(), "C": c}, 0.10)
    assert excluded == ["C"]
    assert first["C"] == pytest.approx(1.0 - base, abs=1e-12)
    # identical raters: nothing to gain, nothing dropped
    assert oracle.greedy_outliers({"A": a, "B": a, "C": a}, 0.10)[2] == []


# ---------------------------------------------------------------- generator

def test_generator_is_seeded():
    one, two = synth.make_labeling(3, 40), synth.make_labeling(3, 40)
    assert one.contents == two.contents and one.texts == two.texts
    assert one.planted == two.planted
    assert synth.make_labeling(4, 40).contents != one.contents
    an = synth.make_analysis(3, 50)
    assert an.cells == synth.make_analysis(3, 50).cells


def test_embeddings_sit_at_planned_cosines():
    lab = synth.make_labeling(5, 10)
    emb = lab.embeddings
    empty = emb.vector("")
    for desc, baseline in emb.descriptions.items():
        assert oracle.cosine(emb.vector(desc), empty) == pytest.approx(baseline, abs=1e-6)
    for phrase, (desc, cos) in list(emb.phrases.items())[:50]:
        assert emb.vector(phrase).dtype == np.float32
        assert oracle.cosine(emb.vector(desc), emb.vector(phrase)) == pytest.approx(cos, abs=1e-6)


def test_planted_share_is_fixed():
    lab = synth.make_labeling(6, 300)
    assert len(lab.planted) == round(synth.UNPARSEABLE_SHARE * 3 * 300)


# ----------------------------------------------------------------- stand-in

def test_standin_keeps_alive_and_plants_one_bad_answer(tmp_path):
    lab = synth.make_labeling(11, 30)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(synth.standin_spec(lab)))
    standin = run.StandIn(spec)
    try:
        model, tid = lab.planted[0] if lab.planted else ("m1", lab.texts[0]["id"])
        text = next(t["text"] for t in lab.texts if t["id"] == tid)
        conn = http.client.HTTPConnection("127.0.0.1", standin.port, timeout=10)
        answers = []
        for prompt in (f"Reworded question.\nParagraph: <<{text}>>", f"Again: {text}"):
            body = json.dumps({"model": model, "messages": [{"role": "user",
                                                             "content": prompt}]})
            conn.request("POST", "/v1/chat/completions", body)
            resp = conn.getresponse()
            assert resp.version == 11 and resp.status == 200
            answers.append(json.loads(resp.read())["choices"][0]["message"]["content"])
        if lab.planted:
            assert answers[0] in synth.UNPARSEABLE
        assert answers[1] == lab.contents[(model, tid)]
        phrase = next(iter(lab.embeddings.phrases))
        conn.request("POST", "/v1/embeddings", json.dumps({"input": [phrase, phrase, ""]}))
        data = json.loads(conn.getresponse().read())["data"]
        assert np.array_equal(np.array(data[0]["embedding"], dtype=np.float32),
                              lab.embeddings.vector(phrase))
        conn.request("POST", "/v1/chat/completions",
                     json.dumps({"model": "m1", "messages": [{"content": "unknown"}]}))
        assert conn.getresponse().status == 404
        conn.close()
        stats = standin.get("/stats")
        assert stats["chat_requests"] == 3 and stats["errors"] == 1
        assert stats["embed_inputs"] == 3 and stats["embed_inputs_distinct"] == 2
        # one request at a time: the in-flight intervals never overlap
        intervals = sorted(stats["chat_intervals"])
        assert len(intervals) == 3 and all(a <= b for a, b in intervals)
        assert all(b1 <= a2 for (_, b1), (a2, _) in zip(intervals, intervals[1:]))
    finally:
        standin.stop()
    assert standin.proc.returncode is not None


def test_launcher_reports_the_programs_own_peak_rss(tmp_path):
    # the parent touches 160 MB; a CLI started straight from it would report
    # at least that, one started through launch.py reports its own peak
    ballast = np.ones(20 * 1024 * 1024)
    child = [sys.executable, "-c", "b = b'x' * (60 * 1024 * 1024)"]
    direct = subprocess.Popen(child)
    inherited = os.wait4(direct.pid, 0)[2].ru_maxrss / 1024.0
    direct.returncode = 0
    out = tmp_path / "usage.json"
    subprocess.run([sys.executable, str(HERE / "launch.py"), str(out), *child],
                   check=True, timeout=60)
    usage = json.loads(out.read_text())
    assert ballast.sum() > 0 and inherited >= 160
    assert usage["code"] == 0 and usage["wall"] > 0 and usage["cpu"] > 0
    assert usage["launcher_mb"] < 60 <= usage["rss_mb"] < 120


def test_tracer_lists_a_missing_stage_table():
    script = ("import json, sys\n"
              "from topicensemble import pipeline\n"
              "del pipeline._STAGE_FN\n"
              "import tracer\n"
              "t = tracer.Tracer()\n"
              "tracer.install(t)\n"
              "print(json.dumps(t.missing))\n")
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
        env={**os.environ,
             "PYTHONPATH": f"{REPO / 'src'}:{HERE}"}, check=True)
    missing = json.loads(proc.stdout)
    assert missing == [f"pipeline._STAGE_FN[{s!r}]" for s in
                       ("annotate", "score", "agree", "ensemble", "evaluate")]


# ----------------------------------------------------- checks and smoke runs

def bench_round(workload: str, texts: int, tmp_path: Path):
    bench = run.Bench(REPO, Namespace(workload=workload, seed=2, trace=0, texts=texts))
    bench.work = tmp_path / "work"
    bench.setups = 1
    return bench, run.Round(bench.work, 0)


def test_checks_catch_a_changed_label(tmp_path):
    bench, rnd = bench_round("label_cold", 40, tmp_path)
    try:
        bench.setup(rnd)
        path = bench.measure(rnd, 0).run_dir / "annotate" / "annotations.jsonl"
        lines = path.read_text().splitlines()
        row = json.loads(lines[1])
        row["label"] = not row["label"]
        lines[1] = json.dumps(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(checks.CheckFailed, match="ground truth"):
            checks.check_labeling(path.parent.parent, rnd.lab)
    finally:
        rnd.close()


def test_checks_catch_a_changed_tau(tmp_path):
    bench, rnd = bench_round("analyze_large", 80, tmp_path)
    try:
        bench.setup(rnd)
        run_dir = bench.measure(rnd, 0).run_dir
        path = run_dir / "ensemble" / "sleep.decisions.jsonl"
        lines = path.read_text().splitlines()
        rows = [json.loads(line) for line in lines[1:]]
        for r in rows:
            r["tau"] += 0.01
        path.write_text("\n".join([lines[0]] + [json.dumps(r) for r in rows]) + "\n")
        labels, scores = checks.analysis_vectors(rnd.an)
        with pytest.raises(checks.CheckFailed, match="tau"):
            checks.check_analysis(run_dir, rnd.an.texts, rnd.an.models, labels,
                                  scores, rnd.an.gold, subsets=True)
    finally:
        rnd.close()


def bench_json():
    return json.loads((REPO / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(workload, trace):
    texts = 600 if workload == "analyze_large" else 45
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--texts", str(texts)],
        cwd=REPO, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = bench_json()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for value in result["metrics"].values():
        assert math.isfinite(value["value"])
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        chat = result["metrics"]["annotator.chat_requests"]["value"]
        assert (chat > 0) == (workload == "label_cold")


def test_benchmark_json_matches_the_command():
    doc = bench_json()
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "label_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
