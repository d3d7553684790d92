"""Staged pipeline: annotate -> score -> agree -> ensemble -> evaluate.

`run` loads the input files once, by `load_inputs`, before its first stage.
Each stage streams its artifacts to temp files renamed into place under
{output_dir}/{run_id}/{stage}/ and reads upstream artifacts back from disk,
so `run all` is the same as running the stages one at a time. Within one
`run`, score/aggregated.jsonl is read once, by the first stage that needs it
(`_aggregated_once`), and its arrays are kept in the run's `Inputs`.

Data files are JSONL (first line is a {"_meta": ...} record with the schema,
its version and the config digest) or CSV (first line is a "# key=value ..."
comment). outliers.json, ensemble.json and the per-stage manifest.json, which
`run` writes once a stage has finished, carry the config digest too. Upstream
JSONL is streamed through `_rows`, which checks the header and every row, and
`_cells` places each row of annotations.jsonl and aggregated.jsonl by its
position in its (model, topic) stream, which follows the corpus order; `_read`
checks a JSON document's digest. A row laid out as `_write_jsonl` writes it is
decoded from the match of its schema's pattern, built from `_ROW_FIELDS`; any
other line goes through `json` and the per-field check, which give the same
values and messages. Every JSONL artifact is formatted by the stage that
writes it, from the row's values and with no per-row dict, in the bytes
json.dumps(row, sort_keys=True, ensure_ascii=False) gives (`_encode`):
annotation rows and the relevancy rows of scored annotations one at a time,
each relevancy row without a label or phrases as a constant head and tail
of its (model, leaf, label) around its text id, aggregated and decision
rows from column windows; `_write_jsonl` puts them on disk after the
`_meta` line.
Undefined numeric cells (degenerate coefficients, undefined precision) are
written as empty strings.
"""
from __future__ import annotations

import csv
import heapq
import itertools
import json
import logging
import math
import os
import re
import sys
import time
from array import array
from collections.abc import Iterable, Set
from contextlib import closing, contextmanager
from json.encoder import encode_basestring
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import agreement as agr
from . import relevancy
from .annotator import (_JSON_TYPES, ConnectionPool, TopicAnnotation, ResponseCache,
                        annotate_corpus)
# json.dumps(row, sort_keys=True, ensure_ascii=False) without building an encoder for each row
from .annotator import _encode_sorted as _encode
from .config import RunConfig, config_digest
from .corpus import (CorpusView, TopicSet, _csv_records, _decode, _decoder, load_corpus,
                     load_corpus_view, load_topics, not_utf8)
from .ensemble import EnsembleDecision, ScoreEnsemble
# optimal_threshold is imported for pipebench/tracer.py, which wraps the name here
from .ensemble import ensemble_topic, optimal_threshold  # noqa: F401
from .errors import (ConfigInvalid, DegenerateChance, MalformedRecord,
                     MissingUpstreamArtifact, TooFewModels, TopicEnsembleError)
from .evaluation import compare_raters, group_summary, subset_ensemble_candidates
# relevancy_score is imported for pipebench/tracer.py, which wraps the name here
from .relevancy import (Embedder, RelevancyRecord, aggregate_subtopics,  # noqa: F401
                        relevancy_score, score_annotations)

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


def _meta_line(schema: str, digest: str) -> str:
    meta = {"schema": schema, "schema_version": SCHEMA_VERSION, "config_digest": digest}
    return _encode({"_meta": meta}) + "\n"


def _write_jsonl(path: Path, schema: str, digest: str, lines: Iterable[str]) -> None:
    """The `_meta` line of `schema`, then `lines`: each one or more rows as
    `_encode(row) + "\\n"` gives them, formatted by the stage that writes them."""
    with _replacing(path) as fh:
        fh.write(_meta_line(schema, digest))
        fh.writelines(lines)


# The row formatters: each gives the bytes `_encode(row) + "\\n"` gives for its
# schema's row, keys sorted, without building the row's dict.
_JSON_BOOL = ("false", "true")  # indexed by a bool


def _json_float(value: float) -> str:
    """A float as `_encode` writes it: float.__repr__ where finite."""
    return float.__repr__(value) if math.isfinite(value) else _encode(value)


def _annotation_line(ann: TopicAnnotation) -> str:
    model, text_id, topic, label, phrases, parse_warning = ann
    return (f'{{"label": {_JSON_BOOL[label]}, "model": {encode_basestring(model)}, '
            f'"parse_warning": {_JSON_BOOL[parse_warning]}, '
            f'"phrases": [{", ".join(map(encode_basestring, phrases))}], '
            f'"text_id": {encode_basestring(text_id)}, "topic": {encode_basestring(topic)}}}\n')


def _relevancy_line(record: RelevancyRecord) -> str:
    model, text_id, topic, score, baseline, per_phrase_sims, false_positive = record
    sims = ", ".join(f'{{"phrase": {encode_basestring(phrase)}, "raw_sim": {_json_float(sim)}}}'
                     for phrase, sim in per_phrase_sims)
    return (f'{{"baseline": {_json_float(baseline)}, "model": {encode_basestring(model)}, '
            f'"per_phrase_sims": [{sims}], '
            f'"potential_false_positive": {_JSON_BOOL[false_positive]}, '
            f'"score": {_json_float(score)}, "text_id": {encode_basestring(text_id)}, '
            f'"topic": {encode_basestring(topic)}}}\n')


def _around_text_id(record: RelevancyRecord) -> tuple[str, str]:
    """The relevancy line of `record`, whose text id is "", split around that
    id: head + encode_basestring(text_id) + tail is the line of the same
    record for any other text. No encoded string holds '"text_id": ""', as
    each of its quotes is escaped, so the split falls on the key."""
    head, _, tail = _relevancy_line(record).partition('"text_id": ""')
    return head + '"text_id": ', tail


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


def _scan(text: str):
    """json.loads of a text that holds one JSON value and nothing else."""
    return _decoder.scan_once(text, 0)[0]


# A row as _write_jsonl writes it (keys sorted, ", " and ": " between items, strings
# without escapes or control characters, numbers as float literals) is decoded from
# the groups of its schema's pattern, to the values json.loads would give; any other
# line is decoded by json.
_STRING = r'"[^"\\\x00-\x1f]*"'
_FLOAT = r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)"
_SCALAR = f"(?:true|false|null|{_FLOAT}|{_STRING})"
_OBJECT = rf"\{{(?:{_STRING}: {_SCALAR}(?:, {_STRING}: {_SCALAR})*)?\}}"
_FROM_TEXT = {  # by kind: the value's pattern, one group, and how its text is decoded
    "a string": (r'"([^"\\\x00-\x1f]*)"', None),
    "a boolean": ("(true|false)", "true".__eq__),
    "a number": (f"({_FLOAT})", float),
    "an object": (f"({_OBJECT})", _scan),
    "a list of strings": (rf"(\[(?:{_STRING}(?:, {_STRING})*)?\])", _scan),
    None: (_OBJECT, None),  # a field no reader checks: no group
}
# fields that rows carry and no reader checks, each an object, by schema
_UNCHECKED = {"decisions": ("per_model_scores",)}


def _row_pattern(fields: dict[str, str], unchecked: Iterable[str]):
    """(fullmatch of a row as written, its groups in `fields` order, and
    (index, decode) for each value whose text is not the value itself)."""
    kinds = {**fields, **dict.fromkeys(unchecked)}
    names = sorted(kinds)
    pattern = re.compile(r"\{" + ", ".join(f'"{name}": {_FROM_TEXT[kinds[name]][0]}'
                                           for name in names) + r"\}\n")
    groups = [name for name in names if name in fields]
    order = tuple(groups.index(name) + 1 for name in fields)
    decodes = tuple((i, _FROM_TEXT[kind][1]) for i, kind in enumerate(fields.values())
                    if _FROM_TEXT[kind][1] is not None)
    return pattern.fullmatch, order, decodes


_ROW_PATTERNS = {schema: _row_pattern(fields, _UNCHECKED.get(schema, ()))
                 for schema, fields in _ROW_FIELDS.items()}


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
    except UnicodeDecodeError as exc:  # named by line and file offset, not the chunk's
        raise MissingUpstreamArtifact(str(not_utf8(str(path), path, exc))) from exc
    except (OSError, ValueError, RecursionError) as exc:
        raise MissingUpstreamArtifact(f"{path}: unreadable: {exc}") from exc
    _check_header(path, doc, {"config_digest": digest})
    return doc


def _rows(path: Path, digest: str, schema: str, as_text: Set[str] = frozenset()):
    """Stream the rows of an upstream JSONL artifact of this config as
    (line number, values), the values a list in _ROW_FIELDS[schema] order.
    Line 1 must be the `_meta` header of `schema`, and each row an object
    whose fields have the kinds _ROW_FIELDS names. A row that takes the
    pattern path gives the fields named in `as_text` as their JSON text,
    which the pattern has checked but not decoded; the json path gives
    every value decoded.

    A missing or unreadable file, a header of another config, a bad row or a
    truncated last line raises MissingUpstreamArtifact naming the file and
    the line or field. Consumers close the generator (`contextlib.closing`)
    so that one which stops early leaves no file open."""
    want = {"config_digest": digest, "schema": schema, "schema_version": SCHEMA_VERSION}
    checks = [(name, kind, _KINDS[kind]) for name, kind in _ROW_FIELDS[schema].items()]
    fullmatch, order, decodes = _ROW_PATTERNS[schema]
    if as_text:
        names = list(_ROW_FIELDS[schema])
        decodes = tuple((i, decode) for i, decode in decodes if names[i] not in as_text)
    lineno, line = 0, "\n"  # last line read, for the error message
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                match = fullmatch(line) if lineno > 1 else None
                if match is not None:
                    values = list(match.group(*order))
                    for i, decode in decodes:
                        values[i] = decode(values[i])
                    yield lineno, values
                    continue
                row = _decode(line)
                if lineno == 1:
                    head = row.get("_meta") if isinstance(row, dict) else None
                    _check_header(path, head, want, "_meta.")
                    continue
                if type(row) is not dict:
                    raise MissingUpstreamArtifact(f"{path}: line {lineno}: not an object")
                values = []
                for name, kind, types in checks:
                    value = row.get(name)
                    if type(value) not in types or (
                            type(value) is list and not all(type(v) is str for v in value)):
                        # named by its JSON type: a row may hold corpus text
                        if name not in row:
                            got = "no value"
                        elif type(value) in types:  # a list with an item not a string
                            got = "an array holding " + _JSON_TYPES[
                                type(next(v for v in value if type(v) is not str))]
                        else:
                            got = _JSON_TYPES[type(value)]
                        raise MissingUpstreamArtifact(
                            f"{path}: line {lineno}: {name} must be {kind}, got {got}")
                    values.append(value)
                yield lineno, values
    except FileNotFoundError:
        raise MissingUpstreamArtifact(f"{path}: not found") from None
    except UnicodeDecodeError as exc:  # named by line and file offset, not the chunk's
        raise MissingUpstreamArtifact(str(not_utf8(str(path), path, exc))) from exc
    except (OSError, ValueError, RecursionError) as exc:
        raise MissingUpstreamArtifact(f"{path}: line {lineno} unreadable: {exc}") from exc
    if lineno == 0:
        raise MissingUpstreamArtifact(f"{path}: no header")
    if not line.endswith("\n"):
        raise MissingUpstreamArtifact(f"{path}: line {lineno} truncated")


# ------------------------------------------------------------------- loading

class Inputs(NamedTuple):
    """What `run` hands each stage. Annotate and score read only the first two."""

    corpus: CorpusView
    topics: TopicSet
    gold: dict[str, np.ndarray] | None
    upstream: dict  # what a stage read of an upstream artifact, kept for the later stages


def load_inputs(cfg: RunConfig, gold: bool) -> Inputs:
    """The corpus ids and groups, the topics and, if `gold` is set and the
    config names a gold labels file, {top-level topic: int8 column}: 1 or 0
    from a text's gold row, -1 where no row names the text. Raises
    ConfigInvalid with one problem per input refused."""
    problems = []

    def attempt(what: str, path: Path, load):
        try:
            return load(path)
        except (TopicEnsembleError, OSError) as exc:
            message = str(exc)  # named after the file unless it names it itself
            problems.append(message if str(path) in message else f"{what} {path}: {message}")

    corpus = attempt("corpus", cfg.corpus_path, lambda p: load_corpus_view(p, cfg.corpus_format))
    if corpus is not None and not corpus:
        problems.append(f"corpus {cfg.corpus_path} holds no texts")
    topics = attempt("topics", cfg.topics_path, load_topics)
    columns = None
    if gold and cfg.gold_labels is not None:
        names = None if topics is None else set(topics.top_level_names())
        rows = attempt("gold labels", cfg.gold_labels, lambda p: _load_gold(p, names))
        if rows is not None and not rows:
            problems.append(f"gold labels {cfg.gold_labels} holds no rows")
        if not problems:  # the corpus, the topics and the gold rows all loaded
            columns = {topic: np.fromiter((rows[topic].get(text_id, -1) for text_id in corpus.ids),
                                          dtype=np.int8, count=len(corpus))
                       for topic in topics.top_level_names() if topic in rows}
            problems.extend(f"gold labels {cfg.gold_labels}: no row of topic {topic!r} names "
                            f"a text of the corpus" for topic, column in columns.items()
                            if not (column >= 0).any())
    if problems:
        raise ConfigInvalid(problems)
    return Inputs(corpus, topics, columns, {})


def _load_gold(path: Path, topics: Set[str] | None = None) -> dict[str, dict[str, bool]]:
    """CSV text_id,topic,label, one row a (topic, text_id) -> {topic: {text_id: bool}},
    read by the corpus's CSV record loop, so an error names a row's first line.
    A row naming a topic outside `topics`, when given, is refused."""
    truthy = {"1", "true", "yes", "y"}
    falsy = {"0", "false", "no", "n"}
    where, columns = str(path), ("text_id", "topic", "label")
    gold: dict[str, dict[str, bool]] = {}
    for lineno, row in _csv_records(path, where, columns):
        text_id, topic, label = map(row.get, columns)  # a short row lacks its last fields
        value = (label or "").strip().lower()
        if value not in truthy and value not in falsy:
            raise MalformedRecord(lineno, f"{path}: gold label {label!r} not boolean")
        if topics is not None and topic not in topics:
            raise MalformedRecord(lineno, f"{path}: topic {topic!r} is not a top-level topic")
        topic_gold = gold.setdefault(topic, {})
        if text_id in topic_gold:  # rare, so read again for the first line
            first = next(n for n, r in _csv_records(path, where, columns)
                         if (r.get("topic"), r.get("text_id")) == (topic, text_id))
            raise MalformedRecord(lineno, f"{path}: duplicate gold row for "
                                          f"{topic, text_id} (first on line {first})")
        topic_gold[text_id] = value in truthy
    return gold


def _cells(path: Path, digest: str, schema: str,
           models: list[str], text_ids: list[str], topics: list[str]):
    """Stream an upstream JSONL artifact's rows as (line number, at, values),
    with `at` the row's index in a flat (topics, models, text_ids) array,
    (k * len(models) + j) * len(text_ids) + i for its indexes k, j and i, and
    the values as `_rows` gives them (model, text_id and topic first).
    Each (model, topic) pair's rows follow the corpus order, so i counts the
    pair's rows before it; pairs may interleave. A row outside the config or
    out of its pair's order, or a pair that ends early, raises
    MissingUpstreamArtifact naming the file and the cell. Consumers close the
    generator, as for `_rows`."""
    n = len(text_ids)
    streams = {(model, topic): [(k * len(models) + j) * n, 0]  # first cell, rows so far
               for j, model in enumerate(models) for k, topic in enumerate(topics)}
    with closing(_rows(path, digest, schema)) as rows:
        for lineno, values in rows:
            model, text_id, topic = values[0], values[1], values[2]
            stream = streams.get((model, topic))
            if stream is None:
                raise MissingUpstreamArtifact(
                    f"{path}: line {lineno}: cell {model, text_id, topic} "
                    f"is not a cell of this config")
            first, i = stream
            if i == n or text_id != text_ids[i]:
                due = (model, text_ids[i], topic) if i < n else "no row"
                raise MissingUpstreamArtifact(f"{path}: line {lineno}: cell "
                                              f"{model, text_id, topic} is out of order; "
                                              f"{due} belongs there")
            stream[1] = i + 1
            yield lineno, first + i, values
    for (model, topic), (_, i) in streams.items():
        if i < n:
            raise MissingUpstreamArtifact(f"{path}: no row for {model, text_ids[i], topic}")


# -------------------------------------------------------------------- stages

def stage_annotate(cfg: RunConfig, inputs: tuple, run_dir: Path, digest: str) -> None:
    topics = inputs[1]
    corpus = load_corpus(cfg.corpus_path, cfg.corpus_format)  # the one stage that reads texts
    # the stream closes first: its lanes stop and are joined before the store
    # and the pool they use are closed
    with (closing(ResponseCache(cfg.cache_dir)) as cache,
          closing(ConnectionPool(cfg.retries, cfg.timeout, cfg.backoff)) as pool,
          closing(annotate_corpus(corpus, topics, cfg.backends, cache, pool,
                                  failure_budget=cfg.failure_budget)) as annotations):
        _write_jsonl(run_dir / "annotate" / "annotations.jsonl", "annotations", digest,
                     map(_annotation_line, annotations))
    logger.info("annotate: %d cells", len(cfg.backends) * len(corpus) * len(topics.leaves()))


def stage_score(cfg: RunConfig, inputs: tuple, run_dir: Path, digest: str) -> None:
    corpus, topics = inputs[:2]
    path = run_dir / "annotate" / "annotations.jsonl"
    leaves = topics.leaves()
    models = [backend.name for backend in cfg.backends]
    text_ids, leaf_names = corpus.ids, [leaf.short_name for leaf in leaves]
    # labels and scores by (leaf, model, text), and flat views of both indexed as
    # `_cells` places a row; a cell not set is false and 0.0
    n, shape = len(text_ids), (len(leaves), len(models), len(text_ids))
    labels, scores = np.zeros(shape, bool), np.zeros(shape)
    label_at, score_at = memoryview(labels.reshape(-1)), memoryview(scores.reshape(-1))

    stage_dir = run_dir / "score"
    with (closing(ResponseCache(cfg.cache_dir)) as cache,
          closing(ConnectionPool(cfg.retries, cfg.timeout, cfg.backoff)) as pool,
          closing(_cells(path, digest, "annotations", models, text_ids, leaf_names)) as cells):
        embedder = Embedder(cfg.embedding, cache, pool)
        # the line of a row without a label or without phrases, split around its
        # text id, at pair * 2 + label, pair being its cell's index // len(text_ids):
        # the scorer's record for such a row depends on its model, leaf and label alone
        unscored = [_around_text_id(record) for record in score_annotations(
            (TopicAnnotation(model, "", leaf, label)
             for leaf in leaf_names for model in models for label in (False, True)),
            leaves, embedder)]

        def relevancy_lines():
            # READ_AHEAD rows at a time, each kept as one code from its cell's
            # index: ~at for a row that is scored, at * 2 + label for one that is not
            while True:
                codes, scored = array("q"), []
                for _, at, values in itertools.islice(cells, relevancy.READ_AHEAD):
                    label = values[3]
                    if label:
                        label_at[at] = True
                        if values[4]:
                            codes.append(~at)
                            scored.append(TopicAnnotation(values[0], values[1], values[2],
                                                          label, tuple(values[4])))
                            continue
                    codes.append(at * 2 + label)
                if not codes:
                    return
                records = score_annotations(scored, leaves, embedder)  # one record each
                for code in codes:
                    if code < 0:
                        record = next(records)
                        score_at[~code] = record.score
                        yield _relevancy_line(record)
                    else:
                        at, label = divmod(code, 2)
                        head, tail = unscored[at // n * 2 + label]
                        yield head + encode_basestring(text_ids[at % n]) + tail

        _write_jsonl(stage_dir / "relevancy.jsonl", "relevancy", digest, relevancy_lines())

    # each top-level topic's leaf indexes: its subtopics, or itself
    names = topics.top_level_names()
    kids = [[leaf_names.index(c.short_name) for c in (topic.subtopics or [topic])]
            for topic in topics]

    def aggregated_lines():
        for j, model in enumerate(models):
            yield from _aggregated_lines(model, text_ids, names, [
                _aggregate_columns(labels[kid, j], scores[kid, j]) for kid in kids])

    _write_jsonl(stage_dir / "aggregated.jsonl", "aggregated", digest, aggregated_lines())
    logger.info("score: %d leaf records, %d aggregated", labels.size,
                len(models) * len(corpus) * len(topics))


def _aggregate_columns(labels: np.ndarray, scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`aggregate_subtopics` of each column of (children, texts) label and
    score arrays, as (label, score) columns: a label is any present child,
    and a score 0.0 with no child present, the present child's score + 0.0
    with one, and aggregate_subtopics's for the cells with more."""
    present = labels.sum(axis=0)
    # the present scores' sum, 0.0 added last: a lone -0.0 gives 0.0 whatever the sum starts at
    score = np.where(labels, scores, 0.0).sum(axis=0) + 0.0
    for i in np.flatnonzero(present > 1).tolist():
        score[i] = aggregate_subtopics(list(zip(labels[:, i].tolist(), scores[:, i].tolist())))[1]
    return present > 0, score


def _aggregated_lines(model: str, text_ids: list[str], names: list[str],
                      columns: list[tuple[np.ndarray, np.ndarray]]) -> Iterable[str]:
    """One model's rows of aggregated.jsonl as `_encode` would write them,
    by text and then by top-level topic, from each topic's (label, score)
    columns in `names` order, formatted _FORMAT_WINDOW texts at a time: one
    string a window."""
    heads = [f'{{"label": {label}, "model": {encode_basestring(model)}, "score": '
             for label in _JSON_BOOL]
    tails = [f', "topic": {encode_basestring(name)}}}\n' for name in names]
    for lo in range(0, len(text_ids), _FORMAT_WINDOW):
        at = slice(lo, lo + _FORMAT_WINDOW)
        ids = [f', "text_id": {encode_basestring(text_id)}' for text_id in text_ids[at]]
        per_topic = zip(*([heads[label] + text for label, text in
                           zip(label[at].tolist(), _json_floats(score[at]))]
                          for label, score in columns))
        yield "".join(lead + text_id + tail for text_id, leads in zip(ids, per_topic)
                      for lead, tail in zip(leads, tails))


def _aggregated(cfg: RunConfig, run_dir: Path, digest: str,
                text_ids: list[str], topics: TopicSet) -> tuple[dict, dict]:
    """(labels, scores) from score/aggregated.jsonl: {topic: {model: per-text
    vector in text_ids order}}, views of (topics, models, texts) arrays filled
    as `_cells` streams the rows in. A score outside [0, 1] is refused."""
    path = run_dir / "score" / "aggregated.jsonl"
    names = topics.top_level_names()
    models = [backend.name for backend in cfg.backends]
    shape = len(names), len(models), len(text_ids)
    labels, scores = np.zeros(shape, bool), np.zeros(shape)
    # flat views of both arrays, indexed as `_cells` places a row: a memoryview
    # item is set in less time than a numpy one
    label_at, score_at = memoryview(labels.reshape(-1)), memoryview(scores.reshape(-1))
    with closing(_cells(path, digest, "aggregated", models, text_ids, names)) as cells:
        for lineno, at, (_, _, _, label, score) in cells:
            if not 0.0 <= score <= 1.0:  # NaN fails too
                raise MissingUpstreamArtifact(f"{path}: line {lineno}: score must be "
                                              f"within [0, 1], got {score!r}")
            label_at[at], score_at[at] = label, score
    return ({topic: dict(zip(models, labels[k])) for k, topic in enumerate(names)},
            {topic: dict(zip(models, scores[k])) for k, topic in enumerate(names)})


def _aggregated_once(cfg: RunConfig, inputs: Inputs, run_dir: Path, digest: str
                     ) -> tuple[dict, dict]:
    """`_aggregated`, read by the first stage of a `run` that needs it and
    reused by the later ones. It still comes from the file score wrote, so
    `run all` gives what the stages run one at a time give."""
    if "aggregated" not in inputs.upstream:
        inputs.upstream["aggregated"] = _aggregated(cfg, run_dir, digest,
                                                    inputs.corpus.ids, inputs.topics)
    return inputs.upstream["aggregated"]


def stage_agree(cfg: RunConfig, inputs: Inputs, run_dir: Path, digest: str) -> None:
    topics = inputs.topics
    labels, scores = _aggregated_once(cfg, inputs, run_dir, digest)

    table = []
    for topic in topics.top_level_names():
        # category 0 = positive; fixed k=2 for labels, k=10 for binned scores;
        # one target's int8 rating columns at a time
        for target, vectors, rate, k in (
                ("labels", labels[topic], lambda v: (~v).astype(np.int8), 2),
                ("scores", scores[topic], agr.bin_scores, 10)):
            matrix = agr.build_rating_matrix({m: rate(v) for m, v in vectors.items()}, k=k)
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


def stage_ensemble(cfg: RunConfig, inputs: Inputs, run_dir: Path, digest: str) -> None:
    corpus, topics = inputs.corpus, inputs.topics
    labels, scores = _aggregated_once(cfg, inputs, run_dir, digest)
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
        decision, ens = ensemble_topic(labels[topic], scores[topic], topic=topic,
                                       excluded=excluded)
        _write_jsonl(stage_dir / f"{topic}.decisions.jsonl", "decisions", digest,
                     _decision_lines(corpus.ids, labels[topic], scores[topic], ens, decision))
        _write_csv(stage_dir / f"{topic}.sweep.csv", "sweep", digest,
                   ["threshold", "precision", "sensitivity", "f1"],
                   zip(*(column.tolist() for column in decision.sweep)))
        summary[topic] = {
            "models": list(ens.models),
            "weights": [float(w) for w in ens.weights],
            "orientation_sign": ens.orientation_sign,
            "tau": float(decision.tau),
            "zero_variance_fallback": ens.flat,
        }
    _write_json(stage_dir / "ensemble.json", digest, {"topics": summary})
    logger.info("ensemble: %d topics, excluded=%s", len(summary), sorted(excluded))


# texts whose decision or aggregated rows are formatted at a time: about 350 KB
# of decision text, never the whole file's
_FORMAT_WINDOW = 1024


def _json_floats(column: np.ndarray) -> list[str]:
    """A float column's values as `_encode` writes each (float.__repr__
    where finite), in one pass."""
    return list(map(float.__repr__ if np.isfinite(column).all() else _encode, column.tolist()))


def _decision_lines(text_ids: list[str], labels: dict, scores: dict,
                    ens: ScoreEnsemble, decision: EnsembleDecision) -> Iterable[str]:
    """The rows of {topic}.decisions.jsonl as `_encode` would write them,
    keys sorted, formatted from `.tolist()` columns a window of rows at a
    time: one string a window."""
    members = sorted(ens.models)
    keys = [encode_basestring(m) + ": " for m in members]
    tau = _encode(float(decision.tau))
    for lo in range(0, len(text_ids), _FORMAT_WINDOW):
        at = slice(lo, lo + _FORMAT_WINDOW)
        per_label = zip(*([key + _JSON_BOOL[v] for v in labels[m][at].tolist()]
                          for key, m in zip(keys, members)))
        per_score = zip(*([key + text for text in _json_floats(scores[m][at])]
                          for key, m in zip(keys, members)))
        yield "".join(
            f'{{"final": {_JSON_BOOL[final]}, "intersection": {_JSON_BOOL[inter]}, '
            f'"pc1": {pc1}, "per_model_labels": {{{", ".join(pml)}}}, '
            f'"per_model_scores": {{{", ".join(pms)}}}, "tau": {tau}, '
            f'"text_id": {encode_basestring(text_id)}, "union": {_JSON_BOOL[union]}}}\n'
            for final, inter, pc1, pml, pms, text_id, union in zip(
                decision.final_label[at].tolist(), decision.intersection_label[at].tolist(),
                _json_floats(ens.pc1[at]), per_label, per_score, text_ids[at],
                decision.union_label[at].tolist()))


class _Decisions(NamedTuple):
    text_id: list[str]
    final: np.ndarray
    pc1: np.ndarray
    tau: np.ndarray
    members: list[str]  # the models of the first row's per_model_labels


def _decisions(path: Path, digest: str, models: list[str]) -> _Decisions:
    """The columns of a {topic}.decisions.jsonl that evaluate and triage use.
    A pc1 outside [0, 1], a tau that is not finite, and a first row whose
    per_model_labels names a model outside `models` are refused; only that
    row's per_model_labels is decoded."""
    text_id, members = [], []
    final, pc1, tau = array("b"), array("d"), array("d")
    with closing(_rows(path, digest, "decisions", as_text={"per_model_labels"})) as rows:
        for lineno, (row_text_id, row_final, _, _, row_pc1, row_tau, labels) in rows:
            if not 0.0 <= row_pc1 <= 1.0:  # NaN fails too
                raise MissingUpstreamArtifact(f"{path}: line {lineno}: pc1 must be "
                                              f"within [0, 1], got {row_pc1!r}")
            if not abs(row_tau) <= sys.float_info.max:  # so do NaN and an int past a float
                raise MissingUpstreamArtifact(f"{path}: line {lineno}: tau must be "
                                              f"finite, got {row_tau!r}")
            if not text_id:
                members = list(_scan(labels) if type(labels) is str else labels)
                for model in members:
                    if model not in models:
                        raise MissingUpstreamArtifact(
                            f"{path}: line {lineno}: per_model_labels names {model!r}, "
                            f"which is not a model of this config")
            text_id.append(row_text_id)
            final.append(row_final)
            pc1.append(row_pc1)
            tau.append(row_tau)
    return _Decisions(text_id, np.asarray(final, dtype=bool), np.asarray(pc1),
                      np.asarray(tau), members)


def stage_evaluate(cfg: RunConfig, inputs: Inputs, run_dir: Path, digest: str) -> None:
    corpus, topics, gold = inputs.corpus, inputs.topics, inputs.gold
    labels, scores = _aggregated_once(cfg, inputs, run_dir, digest)
    stage_dir = run_dir / "evaluate"

    models = [backend.name for backend in cfg.backends]
    group_rows = []
    decisions_by_topic = {}
    for topic in topics.top_level_names():
        path = run_dir / "ensemble" / f"{topic}.decisions.jsonl"
        decisions = decisions_by_topic[topic] = _decisions(path, digest, models)
        if decisions.text_id != corpus.ids:
            raise MissingUpstreamArtifact(f"{path}: rows do not follow the corpus")
        group_rows.extend(
            [s.group, s.topic, s.occurrence_rate, s.mean_score, s.count]
            for s in group_summary(decisions.final, decisions.pc1,
                                   corpus.groups, topic=topic))
    _write_csv(stage_dir / "groups.csv", "groups", digest,
               ["group", "topic", "occurrence_rate", "mean_score", "count"], group_rows)

    if gold is not None:
        metric_rows = []
        for topic, column in gold.items():
            sel = np.flatnonzero(column >= 0)
            candidates = {m: (labels[topic][m][sel], scores[topic][m][sel]) for m in models}
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
                for row in compare_raters(candidates, column[sel] == 1))
        _write_csv(stage_dir / "metrics.csv", "metrics", digest,
                   ["candidate", "topic", "precision", "sensitivity", "f1", "auprc"],
                   metric_rows)
    logger.info("evaluate: %d group rows", len(group_rows))


_STAGE_FN = dict(zip(STAGES, (stage_annotate, stage_score, stage_agree, stage_ensemble,
                              stage_evaluate)))


def run(cfg: RunConfig, stage: str = "all", run_id: str | None = None) -> Path:
    """Execute one stage (or all) and return the run directory."""
    if stage != "all" and stage not in STAGES:
        raise ValueError(f"unknown stage {stage!r}")
    todo = STAGES if stage == "all" else (stage,)
    inputs = load_inputs(cfg, gold="evaluate" in todo)
    digest = config_digest(cfg)
    if run_id is None:
        run_id = f"{digest[:8]}-{time.strftime('%Y%m%d%H%M%S', time.gmtime())}"
    run_dir = Path(cfg.output_dir) / run_id
    for name in todo:
        logger.info("stage %s -> %s", name, run_dir / name)
        _STAGE_FN[name](cfg, inputs, run_dir, digest)
        _write_json(run_dir / name / "manifest.json", digest,
                    {"schema_version": SCHEMA_VERSION, "stage": name, "run_id": run_id})
    return run_dir


def export_triage(cfg: RunConfig, run_id: str, top_n: int = 20) -> Path:
    """Ranked human-review file: the final positives with the lowest ensemble
    scores (likeliest false positives) and the final negatives with the
    highest (likeliest false negatives)."""
    digest = config_digest(cfg)
    run_dir = Path(cfg.output_dir) / run_id
    models = [backend.name for backend in cfg.backends]
    rows = []
    for topic in load_topics(cfg.topics_path).top_level_names():
        d = _decisions(run_dir / "ensemble" / f"{topic}.decisions.jsonl", digest, models)
        pc1, tau = d.pc1.tolist(), d.tau.tolist()
        for kind, picks, sign in (("review_positive", d.final, 1),
                                  ("review_negative", ~d.final, -1)):
            for i in heapq.nsmallest(top_n, np.flatnonzero(picks).tolist(),
                                     key=lambda i: (sign * pc1[i], d.text_id[i])):
                rows.append([topic, d.text_id[i], kind, pc1[i], tau[i]])
    path = run_dir / "triage.csv"
    _write_csv(path, "triage", digest, ["topic", "text_id", "kind", "pc1", "tau"], rows)
    return path
