"""Staged pipeline: annotate -> score -> agree -> ensemble -> evaluate.

Each stage streams its artifacts to temp files renamed into place under
{output_dir}/{run_id}/{stage}/ and reads its inputs back from the previous
stage's files, so `run all` is the same as running the stages one at a time.

Data files are JSONL (first line is a {"_meta": ...} record with the schema,
its version and the config digest) or CSV (first line is a "# key=value ..."
comment). outliers.json, ensemble.json and the per-stage manifest.json carry
the config digest too. `_read` refuses an upstream file whose header does not
match the run. Undefined numeric cells (degenerate coefficients, undefined
precision) are written as empty strings.
"""
from __future__ import annotations

import csv
import json
import logging
import math
import os
import time
from collections.abc import Iterable
from contextlib import closing, contextmanager
from pathlib import Path

import numpy as np

from . import agreement as agr
from .annotator import TopicAnnotation, ResponseCache, annotate_corpus
from .config import RunConfig, config_digest
from .corpus import TextItem, TopicSet, load_corpus, load_topics
# optimal_threshold is imported for pipebench/tracer.py, which wraps the name here
from .ensemble import degenerate_ensemble, ensemble_topic, optimal_threshold  # noqa: F401
from .errors import (
    DegenerateChance,
    MalformedRecord,
    MissingUpstreamArtifact,
    TooFewModels,
    ZeroVariance,
)
from .evaluation import (
    compare_raters,
    group_summary,
    subset_ensemble_candidates,
)
from .relevancy import Embedder, aggregate_subtopics, relevancy_score

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1
STAGES = ("annotate", "score", "agree", "ensemble", "evaluate")


# ---------------------------------------------------------------- artifact I/O

@contextmanager
def _replacing(path: Path):
    """Text handle on a temp file that replaces `path` when the block ends
    cleanly; on any error the temp file is removed and `path` is untouched."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_jsonl(path: Path, schema: str, digest: str, rows: Iterable[dict]) -> None:
    with _replacing(path) as fh:
        meta = {"schema": schema, "schema_version": SCHEMA_VERSION,
                "config_digest": digest}
        fh.write(json.dumps({"_meta": meta}, sort_keys=True) + "\n")
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        # plain-float repr even for numpy scalars, empty for NaN
        return "" if math.isnan(value) else repr(float(value))
    return str(value)


def _write_csv(path: Path, schema: str, digest: str,
               header: list[str], rows: Iterable[list]) -> None:
    with _replacing(path) as fh:
        fh.write(f"# schema={schema}/{SCHEMA_VERSION} config_digest={digest}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def _write_json(path: Path, digest: str, doc: dict) -> None:
    with _replacing(path) as fh:
        json.dump({**doc, "config_digest": digest}, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _read(path: Path, digest: str, schema: str | None = None):
    """An upstream artifact of this config: the rows of a JSONL file whose
    `_meta` header names `schema`, or, with no schema, a JSON document.

    A missing, unparseable or truncated file, or one whose header fields
    differ from this run's, raises MissingUpstreamArtifact naming the file
    and the field."""
    want = {"config_digest": digest}
    if schema is not None:
        want.update(schema=schema, schema_version=SCHEMA_VERSION)
    lineno, line = 0, "\n"  # last line read, for the error message
    try:
        with open(path, encoding="utf-8") as fh:
            if schema is None:
                head = body = json.load(fh)
            else:
                body = []
                for lineno, line in enumerate(fh, 1):
                    body.append(json.loads(line))
                head = body.pop(0) if body else None
                head = head.get("_meta") if isinstance(head, dict) else None
    except FileNotFoundError:
        raise MissingUpstreamArtifact(f"{path}: not found") from None
    except (OSError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        where = f" line {lineno}" if schema else ""
        raise MissingUpstreamArtifact(f"{path}:{where} unreadable: {exc}") from exc
    if not line.endswith("\n"):
        raise MissingUpstreamArtifact(f"{path}: line {lineno} truncated")
    if not isinstance(head, dict):
        raise MissingUpstreamArtifact(f"{path}: no header")
    prefix = "_meta." if schema else ""
    for key, value in want.items():
        if head.get(key) != value:
            raise MissingUpstreamArtifact(
                f"{path}: {prefix}{key} is {head.get(key)!r}, expected {value!r}")
    return body


# ------------------------------------------------------------------- loading

def _load_inputs(cfg: RunConfig) -> tuple[list[TextItem], TopicSet]:
    corpus = load_corpus(cfg.corpus_path, cfg.corpus_format)
    topics = load_topics(cfg.topics_path)
    return corpus, topics


# -------------------------------------------------------------------- stages

def stage_annotate(cfg: RunConfig, run_dir: Path, digest: str, run_id: str) -> None:
    corpus, topics = _load_inputs(cfg)
    with closing(ResponseCache(cfg.cache_dir)) as cache:
        matrix = annotate_corpus(
            corpus, topics, cfg.backends, cache,
            failure_budget=cfg.failure_budget, retries=cfg.retries,
            timeout=cfg.timeout, backoff=cfg.backoff,
        )
    leaves = [leaf.short_name for leaf in topics.leaves()]

    def rows():  # made while written, so they never all exist at once
        for backend in cfg.backends:
            for item in corpus:
                for leaf in leaves:
                    ann = matrix.get(backend.name, item.id, leaf)
                    yield {
                        "model": ann.model, "text_id": ann.text_id,
                        "topic": ann.topic, "label": ann.label,
                        "phrases": list(ann.phrases),
                        "parse_warning": ann.parse_warning,
                    }

    stage_dir = run_dir / "annotate"
    _write_jsonl(stage_dir / "annotations.jsonl", "annotations", digest, rows())
    _write_json(stage_dir / "manifest.json", digest,
                {"schema_version": SCHEMA_VERSION, "stage": "annotate", "run_id": run_id})
    logger.info("annotate: %d cells", len(matrix))


def stage_score(cfg: RunConfig, run_dir: Path, digest: str, run_id: str) -> None:
    corpus, topics = _load_inputs(cfg)
    annotations = [
        TopicAnnotation(
            model=r["model"], text_id=r["text_id"], topic=r["topic"],
            label=bool(r["label"]), phrases=tuple(r["phrases"]),
            parse_warning=bool(r.get("parse_warning", False)),
        )
        for r in _read(run_dir / "annotate" / "annotations.jsonl", digest, "annotations")
    ]
    leaves = {leaf.short_name: leaf for leaf in topics.leaves()}
    with closing(ResponseCache(cfg.cache_dir)) as cache:
        embedder = Embedder(
            cfg.embedding, cache,
            retries=cfg.retries, timeout=cfg.timeout, backoff=cfg.backoff,
        )
        # one batched pass warms the cache for everything scoring will touch
        to_embed = [""] + [leaf.description for leaf in leaves.values()]
        for ann in annotations:
            if ann.label and ann.phrases:
                to_embed.extend(ann.phrases)
        embedder.embed_many(to_embed)
        records = {
            (ann.model, ann.text_id, ann.topic): relevancy_score(
                ann, leaves[ann.topic], embedder)
            for ann in annotations
        }

    rows = (
        {
            "model": record.model, "text_id": record.text_id,
            "topic": record.topic, "score": record.score,
            "baseline": record.baseline,
            "per_phrase_sims": [
                {"phrase": s.phrase, "raw_sim": s.raw_sim}
                for s in record.per_phrase_sims
            ],
            "potential_false_positive": record.potential_false_positive,
        }
        for record in records.values()
    )
    stage_dir = run_dir / "score"
    _write_jsonl(stage_dir / "relevancy.jsonl", "relevancy", digest, rows)

    labels = {
        (ann.model, ann.text_id, ann.topic): ann.label for ann in annotations
    }

    def agg_rows():
        for backend in cfg.backends:
            for item in corpus:
                for topic in topics:
                    children = topic.subtopics if topic.subtopics else [topic]
                    pairs = [
                        (
                            labels[(backend.name, item.id, c.short_name)],
                            records[(backend.name, item.id, c.short_name)].score,
                        )
                        for c in children
                    ]
                    label, score = aggregate_subtopics(pairs)
                    yield {
                        "model": backend.name, "text_id": item.id,
                        "topic": topic.short_name, "label": label, "score": score,
                    }

    _write_jsonl(stage_dir / "aggregated.jsonl", "aggregated", digest, agg_rows())
    _write_json(stage_dir / "manifest.json", digest,
                {"schema_version": SCHEMA_VERSION, "stage": "score", "run_id": run_id})
    logger.info("score: %d leaf records, %d aggregated", len(records),
                len(cfg.backends) * len(corpus) * len(topics))


def _vectors_by_model_topic(
    cfg: RunConfig, corpus: list[TextItem], topics: TopicSet, rows: list[dict]
) -> tuple[dict, dict]:
    """(labels, scores): {topic: {model: per-text vector in corpus order}}."""
    cell = {(r["model"], r["text_id"], r["topic"]): r for r in rows}
    labels: dict[str, dict[str, list[bool]]] = {}
    scores: dict[str, dict[str, list[float]]] = {}
    for topic in topics.top_level_names():
        labels[topic] = {}
        scores[topic] = {}
        for backend in cfg.backends:
            lab, sco = [], []
            for item in corpus:
                row = cell.get((backend.name, item.id, topic))
                if row is None:
                    raise MissingUpstreamArtifact(
                        f"aggregated cell missing: {(backend.name, item.id, topic)}"
                    )
                lab.append(bool(row["label"]))
                sco.append(float(row["score"]))
            labels[topic][backend.name] = lab
            scores[topic][backend.name] = sco
    return labels, scores


def stage_agree(cfg: RunConfig, run_dir: Path, digest: str, run_id: str) -> None:
    corpus, topics = _load_inputs(cfg)
    rows = _read(run_dir / "score" / "aggregated.jsonl", digest, "aggregated")
    labels, scores = _vectors_by_model_topic(cfg, corpus, topics, rows)

    table = []
    for topic in topics.top_level_names():
        # category 0 = positive; fixed k=2 for labels, k=10 for binned scores
        label_ratings = {m: np.where(vec, 0, 1) for m, vec in labels[topic].items()}
        score_ratings = {m: agr.bin_scores(vec) for m, vec in scores[topic].items()}
        for target, ratings, k in (
            ("labels", label_ratings, 2),
            ("scores", score_ratings, 10),
        ):
            matrix = agr.build_rating_matrix(ratings, k=k)
            for kind, fn in (("AC1", agr.gwet_ac1), ("Fleiss", agr.fleiss_kappa)):
                try:
                    coef = fn(matrix).coefficient
                except DegenerateChance:
                    table.append([topic, kind, target, None, None, None])
                    continue
                try:
                    lo, hi = agr.bootstrap_ci(
                        kind, matrix,
                        resamples=cfg.bootstrap_resamples, seed=cfg.bootstrap_seed,
                    )
                except DegenerateChance:
                    lo = hi = None
                table.append([topic, kind, target, coef, lo, hi])

    stage_dir = run_dir / "agree"
    _write_csv(
        stage_dir / "agreement.csv", "agreement", digest,
        ["topic", "kind", "target", "coefficient", "ci_lo", "ci_hi"], table,
    )

    pooled = {
        backend.name: [
            lab
            for topic in topics.top_level_names()
            for lab in labels[topic][backend.name]
        ]
        for backend in cfg.backends
    }
    try:
        report = agr.detect_outliers(pooled, threshold_fraction=cfg.outlier_threshold)
        outliers = {
            "base_ac1": report.base_ac1,
            "deltas": report.deltas,
            "excluded": report.excluded,
            "threshold_fraction": cfg.outlier_threshold,
        }
    except TooFewModels:
        outliers = {
            "base_ac1": None, "deltas": {}, "excluded": [],
            "threshold_fraction": cfg.outlier_threshold,
            "note": "outlier detection needs >=3 models",
        }
    _write_json(stage_dir / "outliers.json", digest, outliers)
    _write_json(stage_dir / "manifest.json", digest,
                {"schema_version": SCHEMA_VERSION, "stage": "agree", "run_id": run_id})
    logger.info("agree: %d coefficient rows, excluded=%s",
                len(table), outliers["excluded"])


def stage_ensemble(cfg: RunConfig, run_dir: Path, digest: str, run_id: str) -> None:
    corpus, topics = _load_inputs(cfg)
    rows = _read(run_dir / "score" / "aggregated.jsonl", digest, "aggregated")
    excluded = set(_read(run_dir / "agree" / "outliers.json", digest)["excluded"])
    labels, scores = _vectors_by_model_topic(cfg, corpus, topics, rows)

    stage_dir = run_dir / "ensemble"
    summary = {}
    for topic in topics.top_level_names():
        models = [b.name for b in cfg.backends if b.name not in excluded]
        zero_variance = False
        try:
            decision, ens = ensemble_topic(
                labels[topic], scores[topic], topic=topic, excluded=excluded
            )
        except ZeroVariance:
            zero_variance = True
            decision, ens = degenerate_ensemble(labels[topic], excluded=excluded)
        dec_rows = (
            {
                "text_id": item.id,
                "per_model_labels": {m: bool(labels[topic][m][i]) for m in models},
                "per_model_scores": {m: float(scores[topic][m][i]) for m in models},
                "pc1": float(ens.pc1[i]),
                "union": bool(decision.union_label[i]),
                "intersection": bool(decision.intersection_label[i]),
                "final": bool(decision.final_label[i]),
                "tau": float(decision.tau),
            }
            for i, item in enumerate(corpus)
        )
        _write_jsonl(
            stage_dir / f"{topic}.decisions.jsonl", "decisions", digest, dec_rows
        )
        _write_csv(
            stage_dir / f"{topic}.sweep.csv", "sweep", digest,
            ["threshold", "precision", "sensitivity", "f1"],
            [[p.threshold, p.precision, p.sensitivity, p.f1] for p in decision.sweep],
        )
        summary[topic] = {
            "models": models,
            "weights": [float(w) for w in ens.weights],
            "orientation_sign": ens.orientation_sign,
            "tau": float(decision.tau),
            "zero_variance_fallback": zero_variance,
        }
    _write_json(stage_dir / "ensemble.json", digest, {"topics": summary})
    _write_json(stage_dir / "manifest.json", digest,
                {"schema_version": SCHEMA_VERSION, "stage": "ensemble", "run_id": run_id})
    logger.info("ensemble: %d topics, excluded=%s", len(summary), sorted(excluded))


def _load_gold(path: Path) -> dict[str, dict[str, bool]]:
    """CSV text_id,topic,label -> {topic: {text_id: bool}}."""
    truthy = {"1", "true", "yes", "y"}
    falsy = {"0", "false", "no", "n"}
    gold: dict[str, dict[str, bool]] = {}
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            missing = {"text_id", "topic", "label"} - set(reader.fieldnames or ())
            if missing:
                raise MalformedRecord(1, f"{path}: missing columns {sorted(missing)}")
            for row in reader:
                value = (row["label"] or "").strip().lower()
                if value not in truthy and value not in falsy:
                    raise MalformedRecord(
                        reader.line_num, f"{path}: gold label {row['label']!r} not boolean")
                gold.setdefault(row["topic"], {})[row["text_id"]] = value in truthy
    except UnicodeDecodeError as exc:
        raise MalformedRecord(0, f"{path} is not UTF-8: {exc}") from exc
    return gold


def stage_evaluate(cfg: RunConfig, run_dir: Path, digest: str, run_id: str) -> None:
    corpus, topics = _load_inputs(cfg)
    agg_rows = _read(run_dir / "score" / "aggregated.jsonl", digest, "aggregated")
    labels, scores = _vectors_by_model_topic(cfg, corpus, topics, agg_rows)
    stage_dir = run_dir / "evaluate"

    group_rows = []
    decisions_by_topic = {}
    for topic in topics.top_level_names():
        decisions = _read(
            run_dir / "ensemble" / f"{topic}.decisions.jsonl", digest, "decisions")
        decisions_by_topic[topic] = decisions
        final = [d["final"] for d in decisions]
        pc1 = [d["pc1"] for d in decisions]
        for summary in group_summary(
            final, pc1, [item.group for item in corpus], topic=topic
        ):
            group_rows.append(
                [summary.group, summary.topic, summary.occurrence_rate,
                 summary.mean_score, summary.count]
            )
    _write_csv(
        stage_dir / "groups.csv", "groups", digest,
        ["group", "topic", "occurrence_rate", "mean_score", "count"], group_rows,
    )

    if cfg.gold_labels is not None:
        gold = _load_gold(cfg.gold_labels)
        index = {item.id: i for i, item in enumerate(corpus)}
        metric_rows = []
        for topic in topics.top_level_names():
            topic_gold = gold.get(topic)
            if not topic_gold:
                continue
            ids = [item.id for item in corpus if item.id in topic_gold]
            sel = [index[tid] for tid in ids]
            gold_vec = [topic_gold[tid] for tid in ids]
            candidates: dict[str, tuple[list, list]] = {}
            for backend in cfg.backends:
                candidates[backend.name] = (
                    [labels[topic][backend.name][i] for i in sel],
                    [scores[topic][backend.name][i] for i in sel],
                )
            decisions = decisions_by_topic[topic]
            candidates["ensemble"] = (
                [decisions[i]["final"] for i in sel],
                [decisions[i]["pc1"] for i in sel],
            )
            if cfg.subset_ensembles:
                members = list(decisions[0]["per_model_labels"]) if decisions else []
                subsets = subset_ensemble_candidates(
                    {m: labels[topic][m] for m in members},
                    {m: scores[topic][m] for m in members},
                )
                for name, (sub_labels, sub_scores) in subsets.items():
                    candidates[name] = (
                        [bool(sub_labels[i]) for i in sel],
                        [float(sub_scores[i]) for i in sel],
                    )
            for row in compare_raters(candidates, gold_vec):
                metric_rows.append(
                    [row.candidate, topic, row.metrics.precision,
                     row.metrics.sensitivity, row.metrics.f1, row.auprc]
                )
        _write_csv(
            stage_dir / "metrics.csv", "metrics", digest,
            ["candidate", "topic", "precision", "sensitivity", "f1", "auprc"],
            metric_rows,
        )
    _write_json(stage_dir / "manifest.json", digest,
                {"schema_version": SCHEMA_VERSION, "stage": "evaluate", "run_id": run_id})
    logger.info("evaluate: %d group rows", len(group_rows))


_STAGE_FN = {
    "annotate": stage_annotate,
    "score": stage_score,
    "agree": stage_agree,
    "ensemble": stage_ensemble,
    "evaluate": stage_evaluate,
}


def make_run_id(digest: str) -> str:
    return f"{digest[:8]}-{time.strftime('%Y%m%d%H%M%S', time.gmtime())}"


def run(cfg: RunConfig, stage: str = "all", run_id: str | None = None) -> Path:
    """Execute one stage (or all) and return the run directory."""
    if stage != "all" and stage not in STAGES:
        raise ValueError(f"unknown stage {stage!r}")
    digest = config_digest(cfg)
    if run_id is None:
        run_id = make_run_id(digest)
    run_dir = Path(cfg.output_dir) / run_id
    run_dir.mkdir(parents=True, exist_ok=True)
    todo = STAGES if stage == "all" else (stage,)
    for name in todo:
        logger.info("stage %s -> %s", name, run_dir / name)
        _STAGE_FN[name](cfg, run_dir, digest, run_id)
    return run_dir


def export_triage(
    cfg: RunConfig, run_id: str, top_n: int = 20
) -> Path:
    """Ranked human-review file: the final positives with the lowest ensemble
    scores (likeliest false positives) and the final negatives with the
    highest (likeliest false negatives)."""
    _, topics = _load_inputs(cfg)
    digest = config_digest(cfg)
    run_dir = Path(cfg.output_dir) / run_id
    rows = []
    for topic in topics.top_level_names():
        decisions = _read(
            run_dir / "ensemble" / f"{topic}.decisions.jsonl", digest, "decisions")
        positives = sorted(
            (d for d in decisions if d["final"]),
            key=lambda d: (d["pc1"], d["text_id"]),
        )
        negatives = sorted(
            (d for d in decisions if not d["final"]),
            key=lambda d: (-d["pc1"], d["text_id"]),
        )
        for d in positives[:top_n]:
            rows.append([topic, d["text_id"], "review_positive", d["pc1"], d["tau"]])
        for d in negatives[:top_n]:
            rows.append([topic, d["text_id"], "review_negative", d["pc1"], d["tau"]])
    path = run_dir / "triage.csv"
    _write_csv(
        path, "triage", digest,
        ["topic", "text_id", "kind", "pc1", "tau"], rows,
    )
    return path
