"""Staged pipeline: annotate -> score -> agree -> ensemble -> evaluate.

Each stage streams its artifacts to temp files renamed into place under
{output_dir}/{run_id}/{stage}/ and reads its inputs back from the previous
stage's files, so `run all` is the same as running the stages one at a time.

Data files are JSONL (first line is a {"_meta": ...} record with the schema,
its version and the config digest) or CSV (first line is a "# key=value ..."
comment). outliers.json, ensemble.json and the per-stage manifest.json, which
`run` writes once a stage has finished, carry the config digest too. Upstream
JSONL is streamed through `_rows`, which checks the header and every row;
`_read` checks a JSON document's digest. Undefined numeric cells (degenerate
coefficients, undefined precision) are written as empty strings.
"""
from __future__ import annotations

import csv
import heapq
import json
import logging
import math
import os
import time
from array import array
from collections.abc import Iterable
from contextlib import closing, contextmanager
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import agreement as agr
from .annotator import ConnectionPool, TopicAnnotation, ResponseCache, annotate_corpus
from .config import RunConfig, config_digest
from .corpus import TextItem, TopicSet, load_corpus, load_topics
# optimal_threshold is imported for pipebench/tracer.py, which wraps the name here
from .ensemble import degenerate_ensemble, ensemble_topic, optimal_threshold  # noqa: F401
from .errors import (DegenerateChance, MalformedRecord, MissingUpstreamArtifact,
                     TooFewModels, TopicEnsembleError, ZeroVariance)
from .evaluation import compare_raters, group_summary, subset_ensemble_candidates
# relevancy_score is imported for pipebench/tracer.py, which wraps the name here
from .relevancy import (Embedder, aggregate_subtopics, relevancy_score,  # noqa: F401
                        score_annotations)

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


# JSONL row fields by schema, each with the kind of JSON value it must hold
_ROW_FIELDS = {
    "annotations": {"model": "a string", "text_id": "a string", "topic": "a string",
                    "label": "a boolean", "phrases": "a list of strings",
                    "parse_warning": "a boolean"},
    "aggregated": {"model": "a string", "text_id": "a string", "topic": "a string",
                   "label": "a boolean", "score": "a number"},
    "decisions": {"text_id": "a string", "final": "a boolean", "union": "a boolean",
                  "intersection": "a boolean", "pc1": "a number", "tau": "a number",
                  "per_model_labels": "an object"},
}
_KINDS = {"a string": (str,), "a boolean": (bool,), "a number": (int, float),
          "an object": (dict,), "a list of strings": (list,)}  # items checked too
_decode = json.JSONDecoder().decode  # json.loads without its per-call dispatch


def _check_header(path: Path, head, want: dict, prefix: str = "") -> None:
    if not isinstance(head, dict):
        raise MissingUpstreamArtifact(f"{path}: no header")
    for key, value in want.items():
        if head.get(key) != value:
            raise MissingUpstreamArtifact(
                f"{path}: {prefix}{key} is {head.get(key)!r}, expected {value!r}")


def _read(path: Path, digest: str) -> dict:
    """An upstream JSON document of this config. A missing, unparseable or
    truncated file, or one of another config, raises MissingUpstreamArtifact."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise MissingUpstreamArtifact(f"{path}: not found") from None
    except (OSError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        raise MissingUpstreamArtifact(f"{path}: unreadable: {exc}") from exc
    _check_header(path, doc, {"config_digest": digest})
    return doc


def _rows(path: Path, digest: str, schema: str):
    """Stream the rows of an upstream JSONL artifact of this config as
    (line number, row). Line 1 must be the `_meta` header of `schema`, and
    each row an object whose fields have the kinds _ROW_FIELDS names.

    A missing or unreadable file, a header of another config, a bad row or a
    truncated last line raises MissingUpstreamArtifact naming the file and
    the line or field. Consumers close the generator (`contextlib.closing`)
    so that one which stops early leaves no file open."""
    want = {"config_digest": digest, "schema": schema, "schema_version": SCHEMA_VERSION}
    checks = [(name, kind, _KINDS[kind]) for name, kind in _ROW_FIELDS[schema].items()]
    lineno, line = 0, "\n"  # last line read, for the error message
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                row = _decode(line)
                if lineno == 1:
                    head = row.get("_meta") if isinstance(row, dict) else None
                    _check_header(path, head, want, "_meta.")
                    continue
                if type(row) is not dict:
                    raise MissingUpstreamArtifact(f"{path}: line {lineno}: not an object")
                for name, kind, types in checks:
                    value = row.get(name)
                    if type(value) not in types or (
                            type(value) is list and not all(type(v) is str for v in value)):
                        got = repr(value) if name in row else "no value"
                        raise MissingUpstreamArtifact(
                            f"{path}: line {lineno}: {name} must be {kind}, got {got}")
                yield lineno, row
    except FileNotFoundError:
        raise MissingUpstreamArtifact(f"{path}: not found") from None
    except (OSError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        raise MissingUpstreamArtifact(f"{path}: line {lineno} unreadable: {exc}") from exc
    if lineno == 0:
        raise MissingUpstreamArtifact(f"{path}: no header")
    if not line.endswith("\n"):
        raise MissingUpstreamArtifact(f"{path}: line {lineno} truncated")


# ------------------------------------------------------------------- loading

def _load_corpus(cfg: RunConfig) -> list[TextItem]:
    corpus = load_corpus(cfg.corpus_path, cfg.corpus_format)
    if not corpus:
        raise TopicEnsembleError(f"corpus {cfg.corpus_path} holds no texts")
    return corpus


def _load_inputs(cfg: RunConfig) -> tuple[list[TextItem], TopicSet]:
    return _load_corpus(cfg), load_topics(cfg.topics_path)


def input_problems(cfg: RunConfig) -> list[str]:
    """Why the corpus or the topics file would not load, one line each."""
    problems = []
    for what, path, load in (("corpus", cfg.corpus_path, _load_corpus),
                             ("topics", cfg.topics_path, lambda c: load_topics(c.topics_path))):
        try:
            load(cfg)
        except (TopicEnsembleError, OSError) as exc:
            message = str(exc)  # named after the file unless it names it itself
            problems.append(message if str(path) in message else f"{what} {path}: {message}")
    return problems


class _Cells:
    """Bool label, float score and `seen` arrays over a config's (model,
    text_id, topic) cells, one axis per field in the order of `axes`
    ({field: keys}), for filling as an artifact's rows stream in. `at`
    holds each axis's key -> index lookup (None for a key outside the
    config), in axis order."""

    def __init__(self, path: Path, axes: dict[str, list[str]]):
        self.path, self.axes = path, axes
        self.at = tuple({key: i for i, key in enumerate(keys)}.get for keys in axes.values())
        shape = tuple(map(len, axes.values()))
        self.labels, self.scores = np.zeros(shape, bool), np.zeros(shape)
        self.seen = np.zeros(shape, bool)

    def check(self) -> None:
        """Raise MissingUpstreamArtifact naming the first cell not seen."""
        if not self.seen.all():
            first = np.unravel_index(np.argmin(self.seen), self.seen.shape)
            named = {field: keys[i] for (field, keys), i in zip(self.axes.items(), first)}
            raise MissingUpstreamArtifact(
                f"{self.path}: no row for "
                f"{(named['model'], named['text_id'], named['topic'])}")


# -------------------------------------------------------------------- stages

def stage_annotate(cfg: RunConfig, run_dir: Path, digest: str) -> None:
    corpus, topics = _load_inputs(cfg)
    with (closing(ResponseCache(cfg.cache_dir)) as cache,
          closing(ConnectionPool(cfg.retries, cfg.timeout, cfg.backoff)) as pool):
        annotations = annotate_corpus(corpus, topics, cfg.backends, cache, pool,
                                      failure_budget=cfg.failure_budget)
        rows = (
            {
                "model": ann.model, "text_id": ann.text_id,
                "topic": ann.topic, "label": ann.label,
                "phrases": list(ann.phrases),
                "parse_warning": ann.parse_warning,
            }
            for ann in annotations
        )
        stage_dir = run_dir / "annotate"
        _write_jsonl(stage_dir / "annotations.jsonl", "annotations", digest, rows)
    logger.info("annotate: %d cells", len(cfg.backends) * len(corpus) * len(topics.leaves()))


def stage_score(cfg: RunConfig, run_dir: Path, digest: str) -> None:
    corpus, topics = _load_inputs(cfg)
    path = run_dir / "annotate" / "annotations.jsonl"
    leaves = topics.leaves()
    models = [backend.name for backend in cfg.backends]
    text_ids, leaf_names = [item.id for item in corpus], [leaf.short_name for leaf in leaves]
    cells = _Cells(path, {"model": models, "text_id": text_ids, "topic": leaf_names})
    at_model, at_text, at_leaf = cells.at
    labels, scores, seen = cells.labels, cells.scores, cells.seen

    def annotations():  # each cell checked and its label kept as rows stream to scoring
        with closing(_rows(path, digest, "annotations")) as rows:
            for lineno, r in rows:
                cell = at_model(r["model"]), at_text(r["text_id"]), at_leaf(r["topic"])
                if None in cell or seen[cell]:
                    problem = "is not a cell of this config" if None in cell else "has two rows"
                    raise MissingUpstreamArtifact(
                        f"{path}: line {lineno}: cell {r['model'], r['text_id'], r['topic']} "
                        f"{problem}")
                labels[cell], seen[cell] = r["label"], True
                j, i, k = cell  # the config's strings, shared by every row that waits
                yield TopicAnnotation(
                    model=models[j], text_id=text_ids[i], topic=leaf_names[k],
                    label=r["label"], phrases=tuple(r["phrases"]),
                    parse_warning=r["parse_warning"])
        cells.check()

    stage_dir = run_dir / "score"
    with (closing(ResponseCache(cfg.cache_dir)) as cache,
          closing(ConnectionPool(cfg.retries, cfg.timeout, cfg.backoff)) as pool):
        embedder = Embedder(cfg.embedding, cache, pool)

        def relevancy_rows():
            for record in score_annotations(annotations(), leaves, embedder):
                cell = at_model(record.model), at_text(record.text_id), at_leaf(record.topic)
                scores[cell] = record.score
                yield {
                    "model": record.model, "text_id": record.text_id,
                    "topic": record.topic, "score": record.score,
                    "baseline": record.baseline,
                    "per_phrase_sims": [
                        {"phrase": s.phrase, "raw_sim": s.raw_sim}
                        for s in record.per_phrase_sims
                    ],
                    "potential_false_positive": record.potential_false_positive,
                }

        _write_jsonl(stage_dir / "relevancy.jsonl", "relevancy", digest, relevancy_rows())

    children = [[at_leaf(c.short_name) for c in (topic.subtopics or [topic])]
                for topic in topics]

    def agg_rows():
        for j, model in enumerate(models):
            for i, item in enumerate(corpus):
                cell_labels, cell_scores = labels[j, i].tolist(), scores[j, i].tolist()
                for topic, kids in zip(topics, children):
                    label, score = aggregate_subtopics(
                        [(cell_labels[k], cell_scores[k]) for k in kids])
                    yield {"model": model, "text_id": item.id,
                           "topic": topic.short_name, "label": label, "score": score}

    _write_jsonl(stage_dir / "aggregated.jsonl", "aggregated", digest, agg_rows())
    logger.info("score: %d leaf records, %d aggregated", labels.size,
                len(models) * len(corpus) * len(topics))


def _aggregated(cfg: RunConfig, run_dir: Path, digest: str,
                corpus: list[TextItem], topics: TopicSet) -> tuple[dict, dict]:
    """(labels, scores) from score/aggregated.jsonl: {topic: {model: per-text
    vector in corpus order}}, views of (topics, models, texts) arrays filled
    as the rows stream in. Rows outside the config are ignored; a missing
    cell raises MissingUpstreamArtifact naming it."""
    path = run_dir / "score" / "aggregated.jsonl"
    names = topics.top_level_names()
    models = [backend.name for backend in cfg.backends]
    cells = _Cells(path, {"topic": names, "model": models,
                          "text_id": [item.id for item in corpus]})
    at_topic, at_model, at_text = cells.at
    labels, scores, seen = cells.labels, cells.scores, cells.seen
    with closing(_rows(path, digest, "aggregated")) as rows:
        for _, row in rows:
            cell = at_topic(row["topic"]), at_model(row["model"]), at_text(row["text_id"])
            if None not in cell:
                labels[cell], scores[cell], seen[cell] = row["label"], row["score"], True
    cells.check()
    return ({topic: dict(zip(models, labels[k])) for k, topic in enumerate(names)},
            {topic: dict(zip(models, scores[k])) for k, topic in enumerate(names)})


def stage_agree(cfg: RunConfig, run_dir: Path, digest: str) -> None:
    corpus, topics = _load_inputs(cfg)
    labels, scores = _aggregated(cfg, run_dir, digest, corpus, topics)

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
            coefs = {}
            for kind, fn in (("AC1", agr.gwet_ac1), ("Fleiss", agr.fleiss_kappa)):
                try:
                    coefs[kind] = fn(matrix).coefficient
                except DegenerateChance:
                    pass
            # the kinds with a coefficient share one set of resamples
            cis = agr.bootstrap_ci(
                list(coefs), matrix,
                resamples=cfg.bootstrap_resamples, seed=cfg.bootstrap_seed,
            ) if coefs else {}
            for kind in ("AC1", "Fleiss"):
                table.append([topic, kind, target, coefs.get(kind),
                              *(cis.get(kind) or (None, None))])

    stage_dir = run_dir / "agree"
    _write_csv(
        stage_dir / "agreement.csv", "agreement", digest,
        ["topic", "kind", "target", "coefficient", "ci_lo", "ci_hi"], table,
    )

    pooled = {
        backend.name: np.concatenate(
            [labels[topic][backend.name] for topic in topics.top_level_names()])
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
    logger.info("agree: %d coefficient rows, excluded=%s",
                len(table), outliers["excluded"])


def stage_ensemble(cfg: RunConfig, run_dir: Path, digest: str) -> None:
    corpus, topics = _load_inputs(cfg)
    labels, scores = _aggregated(cfg, run_dir, digest, corpus, topics)
    path = run_dir / "agree" / "outliers.json"
    outliers = _read(path, digest)
    excluded = outliers.get("excluded")
    if type(excluded) is not list or not all(type(m) is str for m in excluded):
        got = repr(excluded) if "excluded" in outliers else "no value"
        raise MissingUpstreamArtifact(f"{path}: excluded must be a list of strings, got {got}")
    excluded = set(excluded)

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
        _write_jsonl(stage_dir / f"{topic}.decisions.jsonl", "decisions", digest, dec_rows)
        _write_csv(stage_dir / f"{topic}.sweep.csv", "sweep", digest,
                   ["threshold", "precision", "sensitivity", "f1"],
                   zip(*(column.tolist() for column in decision.sweep)))
        summary[topic] = {
            "models": models,
            "weights": [float(w) for w in ens.weights],
            "orientation_sign": ens.orientation_sign,
            "tau": float(decision.tau),
            "zero_variance_fallback": zero_variance,
        }
    _write_json(stage_dir / "ensemble.json", digest, {"topics": summary})
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


class _Decisions(NamedTuple):
    text_id: list[str]
    final: np.ndarray
    pc1: np.ndarray
    tau: np.ndarray
    members: list[str]  # the models of the first row's per_model_labels


def _decisions(path: Path, digest: str) -> _Decisions:
    """The columns of a {topic}.decisions.jsonl that evaluate and triage use."""
    text_id, members = [], []
    final, pc1, tau = array("b"), array("d"), array("d")
    with closing(_rows(path, digest, "decisions")) as rows:
        for _, row in rows:
            if not text_id:
                members = list(row["per_model_labels"])
            text_id.append(row["text_id"])
            final.append(row["final"])
            pc1.append(row["pc1"])
            tau.append(row["tau"])
    return _Decisions(text_id, np.asarray(final, dtype=bool), np.asarray(pc1),
                      np.asarray(tau), members)


def stage_evaluate(cfg: RunConfig, run_dir: Path, digest: str) -> None:
    corpus, topics = _load_inputs(cfg)
    labels, scores = _aggregated(cfg, run_dir, digest, corpus, topics)
    stage_dir = run_dir / "evaluate"
    ids = [item.id for item in corpus]

    group_rows = []
    decisions_by_topic = {}
    for topic in topics.top_level_names():
        path = run_dir / "ensemble" / f"{topic}.decisions.jsonl"
        decisions = decisions_by_topic[topic] = _decisions(path, digest)
        if decisions.text_id != ids:
            raise MissingUpstreamArtifact(f"{path}: rows do not follow the corpus")
        group_rows.extend(
            [s.group, s.topic, s.occurrence_rate, s.mean_score, s.count]
            for s in group_summary(decisions.final, decisions.pc1,
                                   [item.group for item in corpus], topic=topic))
    _write_csv(stage_dir / "groups.csv", "groups", digest,
               ["group", "topic", "occurrence_rate", "mean_score", "count"], group_rows)

    if cfg.gold_labels is not None:
        gold = _load_gold(cfg.gold_labels)
        metric_rows = []
        for topic in topics.top_level_names():
            topic_gold = gold.get(topic)
            if not topic_gold:
                continue
            sel = np.array([i for i, tid in enumerate(ids) if tid in topic_gold],
                           dtype=np.intp)
            gold_vec = [topic_gold[ids[i]] for i in sel]
            candidates = {
                backend.name: (labels[topic][backend.name][sel],
                               scores[topic][backend.name][sel])
                for backend in cfg.backends
            }
            decisions = decisions_by_topic[topic]
            candidates["ensemble"] = (decisions.final[sel], decisions.pc1[sel])
            if cfg.subset_ensembles:
                subsets = subset_ensemble_candidates(
                    {m: labels[topic][m] for m in decisions.members},
                    {m: scores[topic][m] for m in decisions.members},
                )
                for name, (sub_labels, sub_scores) in subsets.items():
                    candidates[name] = (sub_labels[sel], sub_scores[sel])
            metric_rows.extend(
                [row.candidate, topic, row.metrics.precision,
                 row.metrics.sensitivity, row.metrics.f1, row.auprc]
                for row in compare_raters(candidates, gold_vec))
        _write_csv(stage_dir / "metrics.csv", "metrics", digest,
                   ["candidate", "topic", "precision", "sensitivity", "f1", "auprc"],
                   metric_rows)
    logger.info("evaluate: %d group rows", len(group_rows))


_STAGE_FN = dict(zip(STAGES, (stage_annotate, stage_score, stage_agree, stage_ensemble,
                              stage_evaluate)))


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
    todo = STAGES if stage == "all" else (stage,)
    for name in todo:
        logger.info("stage %s -> %s", name, run_dir / name)
        _STAGE_FN[name](cfg, run_dir, digest)
        _write_json(run_dir / name / "manifest.json", digest,
                    {"schema_version": SCHEMA_VERSION, "stage": name, "run_id": run_id})
    return run_dir


def export_triage(cfg: RunConfig, run_id: str, top_n: int = 20) -> Path:
    """Ranked human-review file: the final positives with the lowest ensemble
    scores (likeliest false positives) and the final negatives with the
    highest (likeliest false negatives)."""
    digest = config_digest(cfg)
    run_dir = Path(cfg.output_dir) / run_id
    rows = []
    for topic in load_topics(cfg.topics_path).top_level_names():
        d = _decisions(run_dir / "ensemble" / f"{topic}.decisions.jsonl", digest)
        pc1, tau = d.pc1.tolist(), d.tau.tolist()
        for kind, picks, sign in (("review_positive", d.final, 1),
                                  ("review_negative", ~d.final, -1)):
            for i in heapq.nsmallest(top_n, np.flatnonzero(picks).tolist(),
                                     key=lambda i: (sign * pc1[i], d.text_id[i])):
                rows.append([topic, d.text_id[i], kind, pc1[i], tau[i]])
    path = run_dir / "triage.csv"
    _write_csv(path, "triage", digest, ["topic", "text_id", "kind", "pc1", "tau"], rows)
    return path
