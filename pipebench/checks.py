"""Checks of a finished run tree against the generator and the oracles.

Artifacts are read in their documented formats only: JSONL files whose
first line is a {"_meta": ...} record, CSV files whose first line is a "#"
comment. Every check raises CheckFailed with the file and the first
mismatch it finds.
"""
from __future__ import annotations

import csv
import json
import math
from itertools import combinations
from pathlib import Path

import numpy as np

import oracle
import synth

TOL = 1e-9


class CheckFailed(Exception):
    pass


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(a: float | None, b: float | None, tol: float = TOL) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= tol


def read_jsonl(path: Path) -> tuple[dict, list[dict]]:
    expect(path.is_file(), f"missing artifact {path}")
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    expect(bool(records) and "_meta" in records[0], f"{path}: no _meta line")
    return records[0]["_meta"], records[1:]


def read_csv(path: Path) -> list[dict]:
    expect(path.is_file(), f"missing artifact {path}")
    with open(path, encoding="utf-8", newline="") as fh:
        first = fh.readline()
        expect(first.startswith("#"), f"{path}: no # comment line")
        return list(csv.DictReader(fh))


def cell(value: str) -> float | None:
    return None if value == "" else float(value)


# ------------------------------------------------------- annotate and score

def check_labeling(run_dir: Path, lab: synth.Labeling) -> tuple[dict, dict]:
    """Annotations, relevancy scores and aggregation against ground truth.

    Returns (labels, scores): {topic: {model: vector in corpus order}}.
    """
    path = run_dir / "annotate" / "annotations.jsonl"
    _, rows = read_jsonl(path)
    expect(len(rows) == len(lab.answers),
           f"{path}: {len(rows)} rows, expected {len(lab.answers)}")
    for row in rows:
        key = (row["model"], row["text_id"], row["topic"])
        label, phrases = lab.answers[key]
        expect(row["label"] == label and tuple(row["phrases"]) == phrases
               and not row["parse_warning"],
               f"{path}: {key} parsed as {row['label']}, {row['phrases']}, "
               f"warning={row['parse_warning']}; ground truth {label}, {list(phrases)}")

    descriptions = dict(synth.leaves())
    emb = lab.embeddings
    empty = emb.vector("")
    leaf_score = {}
    path = run_dir / "score" / "relevancy.jsonl"
    _, rows = read_jsonl(path)
    expect(len(rows) == len(lab.answers), f"{path}: {len(rows)} rows")
    for row in rows:
        key = (row["model"], row["text_id"], row["topic"])
        label, phrases = lab.answers[key]
        score, baseline, sims, scored = 0.0, 0.0, [], label and bool(phrases)
        if scored:
            desc = emb.vector(descriptions[row["topic"]])
            baseline = oracle.cosine(desc, empty)
            sims = [oracle.cosine(desc, emb.vector(p)) for p in phrases]
            score = min(max(max(sims) - baseline, 0.0), 1.0)
        got_sims = [s["raw_sim"] for s in row["per_phrase_sims"]]
        expect(close(row["score"], score) and close(row["baseline"], baseline)
               and len(got_sims) == len(sims)
               and all(close(a, b) for a, b in zip(got_sims, sims))
               and [s["phrase"] for s in row["per_phrase_sims"]] == (list(phrases) if scored else [])
               and row["potential_false_positive"] == (label and not phrases),
               f"{path}: {key} score {row['score']} baseline {row['baseline']}, "
               f"expected {score} and {baseline}")
        leaf_score[key] = score

    parent = synth.leaf_parent()
    path = run_dir / "score" / "aggregated.jsonl"
    _, rows = read_jsonl(path)
    got = {(r["model"], r["text_id"], r["topic"]): (r["label"], r["score"]) for r in rows}
    ids = [item["id"] for item in lab.texts]
    labels: dict = {t: {} for t in synth.top_names()}
    scores: dict = {t: {} for t in synth.top_names()}
    expect(len(got) == len(lab.models) * len(ids) * len(labels), f"{path}: row count")
    for model in lab.models:
        for topic in labels:
            children = [leaf for leaf, p in parent.items() if p == topic]
            lab_vec, score_vec = [], []
            for tid in ids:
                present = [leaf_score[(model, tid, c)] for c in children
                           if lab.answers[(model, tid, c)][0]]
                want = (bool(present), sum(present) / len(present) if present else 0.0)
                have = got.get((model, tid, topic))
                expect(have is not None and have[0] == want[0] and close(have[1], want[1]),
                       f"{path}: {(model, tid, topic)} is {have}, expected {want}")
                lab_vec.append(have[0])
                score_vec.append(have[1])
            labels[topic][model] = np.array(lab_vec, dtype=bool)
            scores[topic][model] = np.array(score_vec, dtype=np.float64)
    return labels, scores


def analysis_vectors(an: synth.Analysis) -> tuple[dict, dict]:
    labels: dict = {t: {} for t in synth.top_names()}
    scores: dict = {t: {} for t in synth.top_names()}
    for topic in labels:
        for model in an.models:
            pairs = [an.cells[(model, item["id"], topic)] for item in an.texts]
            labels[topic][model] = np.array([p[0] for p in pairs], dtype=bool)
            scores[topic][model] = np.array([p[1] for p in pairs], dtype=np.float64)
    return labels, scores


# ------------------------------------------------ agree, ensemble, evaluate

def check_analysis(run_dir: Path, texts: list[dict], models: tuple[str, ...],
                   labels: dict, scores: dict, gold: dict[tuple[str, str], bool],
                   subsets: bool, outlier_fraction: float = 0.10) -> list[str]:
    """Agreement, outlier scan, fusion and evaluation; returns the excluded models."""
    path = run_dir / "agree" / "agreement.csv"
    table = {(r["topic"], r["kind"], r["target"]): r for r in read_csv(path)}
    for topic in labels:
        targets = {
            "labels": (np.stack([np.where(labels[topic][m], 0, 1) for m in models], 1), 2),
            "scores": (np.stack([oracle.score_bins(scores[topic][m]) for m in models], 1), 10),
        }
        for target, (ratings, k) in targets.items():
            ac1, fleiss = oracle.agreement(ratings, k)
            for kind, want in (("AC1", ac1), ("Fleiss", fleiss)):
                row = table.get((topic, kind, target))
                expect(row is not None, f"{path}: no row {topic} {kind} {target}")
                coef = cell(row["coefficient"])
                expect(close(coef, want), f"{path}: {topic} {kind} {target} = {coef}, "
                       f"oracle {want}")
                if want is not None:
                    lo, hi = cell(row["ci_lo"]), cell(row["ci_hi"])
                    expect(lo is not None and hi is not None and math.isfinite(lo)
                           and math.isfinite(hi) and lo <= hi,
                           f"{path}: {topic} {kind} {target} interval [{lo}, {hi}]")

    path = run_dir / "agree" / "outliers.json"
    expect(path.is_file(), f"missing artifact {path}")
    outliers = json.loads(path.read_text(encoding="utf-8"))
    pooled = {m: np.concatenate([labels[t][m] for t in labels]) for m in models}
    base, first, excluded = oracle.greedy_outliers(pooled, outlier_fraction)
    expect(outliers["excluded"] == excluded and close(outliers["base_ac1"], base)
           and all(close(outliers["deltas"].get(m), d) for m, d in first.items()),
           f"{path}: excluded {outliers['excluded']} base {outliers['base_ac1']}, "
           f"oracle {excluded} base {base}")

    kept = [m for m in models if m not in excluded]
    ids = [item["id"] for item in texts]
    summary = json.loads((run_dir / "ensemble" / "ensemble.json").read_text())["topics"]
    fused: dict = {}
    for topic in labels:
        path = run_dir / "ensemble" / f"{topic}.decisions.jsonl"
        _, rows = read_jsonl(path)
        expect([r["text_id"] for r in rows] == ids, f"{path}: text order")
        lab_mat = np.stack([labels[topic][m] for m in kept], 1)
        sco_mat = np.stack([scores[topic][m] for m in kept], 1)
        for i, r in enumerate(rows):
            expect(list(r["per_model_labels"]) == kept
                   and [r["per_model_labels"][m] for m in kept] == lab_mat[i].tolist()
                   and all(close(r["per_model_scores"][m], sco_mat[i, j], 0.0)
                           for j, m in enumerate(kept)),
                   f"{path}: per-model inputs of {r['text_id']}")
        w, p, _, union, majority, _ = oracle.fuse(lab_mat, sco_mat)
        got_w = np.array(summary[topic]["weights"])
        got_p = np.array([r["pc1"] for r in rows])
        tau = rows[0]["tau"]
        final = np.array([r["final"] for r in rows])
        row_mean = sco_mat.mean(axis=1)
        expect(summary[topic]["models"] == kept, f"ensemble.json: {topic} models")
        expect(abs(np.linalg.norm(got_w) - 1.0) <= TOL
               and np.allclose(got_w, w, rtol=0, atol=1e-6),
               f"ensemble.json: {topic} weights {got_w.tolist()}, oracle {w.tolist()}")
        expect(got_p.min() == 0.0 and got_p.max() == 1.0
               and float(got_p @ (row_mean - row_mean.mean())) >= -TOL
               and np.allclose(got_p, p, rtol=0, atol=1e-8),
               f"{path}: pc1 is not the oriented [0, 1] first component")
        expect(np.array_equal([r["union"] for r in rows], union)
               and np.array_equal([r["intersection"] for r in rows], majority),
               f"{path}: union or majority labels")
        want_tau = oracle.lowest_best_cut(got_p, majority)
        expect(all(r["tau"] == tau for r in rows) and close(tau, want_tau, 1e-12)
               and close(summary[topic]["tau"], tau, 0.0),
               f"{path}: tau {tau}, brute-force sweep gives {want_tau}")
        expect(np.array_equal(final, union & (got_p >= tau)),
               f"{path}: final is not union and pc1 >= tau")
        fused[topic] = (final, got_p, lab_mat, sco_mat)

    path = run_dir / "evaluate" / "groups.csv"
    got = {(r["group"], r["topic"]): r for r in read_csv(path)}
    tags = np.array([item.get("group") or "ungrouped" for item in texts])
    expect(len(got) == len(labels) * len(set(tags)), f"{path}: row count")
    for topic, (final, p, _, _) in fused.items():
        for group in sorted(set(tags)):
            mask = tags == group
            r = got.get((group, topic))
            expect(r is not None and int(r["count"]) == int(mask.sum())
                   and close(float(r["occurrence_rate"]), float(final[mask].mean()))
                   and close(float(r["mean_score"]), float(p[mask].mean())),
                   f"{path}: {group} {topic} is {r}")

    path = run_dir / "evaluate" / "metrics.csv"
    got = {(r["candidate"], r["topic"]): r for r in read_csv(path)}
    want_rows = 0
    for topic, (final, p, lab_mat, sco_mat) in fused.items():
        g = np.array([gold[(tid, topic)] for tid in ids])
        candidates = {m: (labels[topic][m], scores[topic][m]) for m in models}
        candidates["ensemble"] = (final, p)
        if subsets:
            for size in range(2, len(kept) + 1):
                for combo in combinations(range(len(kept)), size):
                    cols = list(combo)
                    _, sub_p, _, _, _, sub_final = oracle.fuse(lab_mat[:, cols],
                                                               sco_mat[:, cols])
                    name = "ensemble[" + "+".join(kept[j] for j in cols) + "]"
                    candidates[name] = (sub_final, sub_p)
        for name, (pred, score) in candidates.items():
            precision, sensitivity, f1 = oracle.confusion(pred, g)
            ap = oracle.average_precision(score, g)
            r = got.get((name, topic))
            expect(r is not None and close(cell(r["precision"]), precision)
                   and close(cell(r["sensitivity"]), sensitivity)
                   and close(float(r["f1"]), f1) and close(cell(r["auprc"]), ap),
                   f"{path}: {name} {topic} is {r}, expected precision {precision} "
                   f"sensitivity {sensitivity} f1 {f1} auprc {ap}")
            want_rows += 1
    expect(len(got) == want_rows, f"{path}: {len(got)} rows, expected {want_rows}")
    return excluded


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}
