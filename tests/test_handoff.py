"""The stage handoff's fast paths give what json gives.

`pipeline._rows` decodes a row that its schema's pattern fits from the match
groups, and any other line through json with the per-field check; the two
paths must agree on every line, in values or in the refusal's message.
`pipeline._decision_lines` and `pipeline._aggregated_lines` format rows from
columns, the row formatters (`_annotation_line`, `_relevancy_line`) format one
row each from its values, and `_around_text_id` splits the constant relevancy
line of a row the scorer does not score around its text id; each must give
the bytes `_encode` gives for the same rows.
"""
from __future__ import annotations

import itertools
import json
import math
import tempfile
from contextlib import closing, contextmanager
from json.encoder import encode_basestring
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topicensemble import pipeline
from topicensemble.annotator import TopicAnnotation
from topicensemble.errors import MissingUpstreamArtifact
from topicensemble.relevancy import PhraseSimilarity, RelevancyRecord, score_annotations

SCHEMAS = list(pipeline._ROW_FIELDS)

# a canonical row of each schema, as the stages write them
ROWS = {
    "annotations": {"model": "m1", "text_id": "t1", "topic": "sleep", "label": True,
                    "phrases": ["lying awake", "no sleep"], "parse_warning": False},
    "aggregated": {"model": "m1", "text_id": "t1", "topic": "sleep", "label": True,
                   "score": 0.4375},
    "decisions": {"text_id": "t1", "final": True, "union": True, "intersection": False,
                  "pc1": 0.25, "tau": 0.125, "per_model_labels": {"m1": True, "m2": False},
                  "per_model_scores": {"m1": 0.5, "m2": 0.0}},
}


@contextmanager
def _json_only(schema: str):
    """`_rows` with no pattern path for `schema`: every row goes through json."""
    saved = pipeline._ROW_PATTERNS[schema]
    pipeline._ROW_PATTERNS[schema] = (lambda line: None, *saved[1:])
    try:
        yield
    finally:
        pipeline._ROW_PATTERNS[schema] = saved


def _read(path: Path, schema: str) -> str:
    """What `_rows` gives for the file: its rows' values, or the refusal."""
    try:
        with closing(pipeline._rows(path, "d", schema)) as rows:
            return repr(list(rows))  # repr tells -0.0, NaN, 1 and True apart
    except MissingUpstreamArtifact as exc:
        return f"refused: {exc}"


def _both_paths(schema: str, lines: list[str]) -> str:
    """`_rows` on the lines, by both paths, which must agree; the outcome."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{schema}.jsonl"
        path.write_text(pipeline._meta_line(schema, "d") + "".join(lines), encoding="utf-8")
        fast = _read(path, schema)
        with _json_only(schema):
            slow = _read(path, schema)
    assert fast == slow
    return fast


def _matched(schema: str, line: str) -> bool:
    return pipeline._ROW_PATTERNS[schema][0](line) is not None


def _with_text(row: dict, field: str, text: str) -> str:
    """The row's canonical line with `field`'s value written as `text`."""
    return pipeline._encode({**row, field: "\0"}).replace('"\\u0000"', text, 1) + "\n"


@pytest.mark.parametrize("schema", SCHEMAS)
def test_a_canonical_row_takes_the_pattern_path(schema):
    line = pipeline._encode(ROWS[schema]) + "\n"
    assert _matched(schema, line)
    values = [ROWS[schema][name] for name in pipeline._ROW_FIELDS[schema]]
    assert _both_paths(schema, [line, line]) == repr([(2, values), (3, values)])


NUMBER_TEXTS = ["0.0", "-0.0", "1.0", "0.5e-3", "1E5", "2.5E+2", "1e400", "-1e400",
                "4.9e-324", "0." + "3" * 500, "0", "-7", "12", "1" * 5000, "NaN",
                "Infinity", "-Infinity", "01.5", "1.", ".5", "+1.0", "1e", "0x10",
                "١.0", "true", '"0.5"', "null"]


@pytest.mark.parametrize("schema,field", [("aggregated", "score"), ("decisions", "pc1"),
                                          ("decisions", "tau")])
@pytest.mark.parametrize("text", NUMBER_TEXTS)
def test_number_texts_agree(schema, field, text):
    line = _with_text(ROWS[schema], field, text)
    outcome = _both_paths(schema, [line])
    if text in ("1e400", "-1e400", "1.0", "-0.0", "4.9e-324"):
        assert _matched(schema, line)
        assert repr(float(text)) in outcome
    if text == "1" * 5000:  # too long for int(): json refuses it, and so does _rows
        assert "line 2 unreadable" in outcome and "Exceeds the limit" in outcome


STRING_TEXTS = ['"t\\u0031"', '"t\\"1"', '"t\\\\1"', '"t\\n1"', '"t\t1"', '"café"',
                '"\U0001f600"', '"a b"', '"\x7f"', '""', '"t1']


@pytest.mark.parametrize("schema", SCHEMAS)
@pytest.mark.parametrize("text", STRING_TEXTS)
def test_string_texts_agree(schema, text):
    line = _with_text(ROWS[schema], "text_id", text)
    outcome = _both_paths(schema, [line])
    if "\\" not in text and "\t" not in text and text.endswith('"'):
        assert _matched(schema, line)
        assert repr(json.loads(text)) in outcome


def _layouts(schema: str) -> dict[str, str]:
    row = ROWS[schema]
    canonical = pipeline._encode(row)
    first = sorted(row)[0]
    return {
        "reordered keys": json.dumps(dict(reversed(list(row.items())))),
        "ascii escapes": json.dumps({**row, "text_id": "café"}, sort_keys=True),
        "no spaces": json.dumps(row, sort_keys=True, separators=(",", ":")),
        "extra spaces": json.dumps(row, sort_keys=True, separators=(" , ", " :  ")),
        "leading space": " " + canonical,
        "trailing space": canonical + " ",
        "duplicate key, same value": canonical.replace(
            f'"{first}": ', f'"{first}": {json.dumps(row[first])}, "{first}": ', 1),
        "duplicate key, last wins": canonical[:-1] + f', "text_id": "t9"}}',
        "escaped duplicate key": canonical[:-1] + ', "text_\\u0069d": "t9"}',
        "extra key first": '{"aaa": 1, ' + canonical[1:],
        "extra key last": canonical[:-1] + ', "zzz": [1, 2]}',
        "missing key": pipeline._encode({k: v for k, v in row.items() if k != "text_id"}),
        "an array": json.dumps(list(row.values())),
        "garbled": canonical[: len(canonical) // 2],
        "empty": "",
        "two rows on a line": canonical + canonical,
        "CRLF": canonical + "\r",
    }


@pytest.mark.parametrize("schema", SCHEMAS)
@pytest.mark.parametrize("layout", list(_layouts("aggregated")))
def test_other_layouts_agree(schema, layout):
    line = _layouts(schema)[layout] + "\n"
    canonical = pipeline._encode(ROWS[schema]) + "\n"
    _both_paths(schema, [canonical, line, canonical])


@pytest.mark.parametrize("schema", SCHEMAS)
def test_a_missing_final_newline_agrees(schema):
    line = pipeline._encode(ROWS[schema]) + "\n"
    outcome = _both_paths(schema, [line, line[:-1]])
    assert outcome.endswith("line 3 truncated")


@pytest.mark.parametrize("schema,field,text", [
    ("annotations", "phrases", "[]"), ("annotations", "phrases", '["a", 1]'),
    ("annotations", "phrases", '[["a"]]'), ("annotations", "phrases", '["a" , "b"]'),
    ("decisions", "per_model_labels", "{}"), ("decisions", "per_model_labels", '{"m1": 1}'),
    ("decisions", "per_model_labels", '{"m1": true, "m1": false}'),
    ("decisions", "per_model_labels", '{"m1": {"x": true}}'),
    ("decisions", "per_model_labels", '{"m\\u0031": true}'),
    ("decisions", "per_model_scores", '{"m1": NaN}'),
    ("decisions", "per_model_scores", '{"m1": [1]}'),
    ("decisions", "per_model_scores", "7"),
])
def test_nested_texts_agree(schema, field, text):
    _both_paths(schema, [_with_text(ROWS[schema], field, text)])


# any JSON value, and the values of each kind a field may hold
_TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=6)
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _TEXT)
_ANY = st.recursive(_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(_TEXT, inner, max_size=3)), max_leaves=6)
_OF_KIND = {
    "a string": _TEXT,
    "a boolean": st.booleans(),
    "a number": st.one_of(st.floats(), st.integers()),
    "an object": st.dictionaries(_TEXT, _SCALARS, max_size=4),
    "a list of strings": st.lists(_TEXT, max_size=4),
}


@st.composite
def _lines(draw, schema: str) -> list[str]:
    fields = {**pipeline._ROW_FIELDS[schema],
              **dict.fromkeys(pipeline._UNCHECKED.get(schema, ()), "an object")}
    lines = []
    for _ in range(draw(st.integers(1, 3))):
        row = {}
        for name, kind in fields.items():
            how = draw(st.sampled_from(["kind"] * 6 + ["any", "missing"]))
            if how != "missing":
                row[name] = draw(_OF_KIND[kind] if how == "kind" else _ANY)
        if draw(st.booleans()):
            row = dict(draw(st.permutations(list(row.items()))))
        line = draw(st.sampled_from([
            pipeline._encode(row),
            json.dumps(row),
            json.dumps(row, sort_keys=True, ensure_ascii=False, separators=(",", ": ")),
        ]))
        lines.append(line + "\n")
    if draw(st.booleans()):
        lines[-1] = lines[-1][:-1]
    return lines


@pytest.mark.parametrize("schema", SCHEMAS)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_random_rows_agree(schema, data):
    _both_paths(schema, data.draw(_lines(schema)))


# ------------------------------------------------------------- decisions writer

def _decision_rows(text_ids, labels, scores, ens, decision):
    """The rows `_decision_lines` formats, as dicts."""
    for i, text_id in enumerate(text_ids):
        yield {
            "text_id": text_id,
            "per_model_labels": {m: bool(labels[m][i]) for m in ens.models},
            "per_model_scores": {m: float(scores[m][i]) for m in ens.models},
            "pc1": float(ens.pc1[i]),
            "union": bool(decision.union_label[i]),
            "intersection": bool(decision.intersection_label[i]),
            "final": bool(decision.final_label[i]),
            "tau": float(decision.tau),
        }


@pytest.mark.parametrize("n", [1, 2, 3, 7])
@pytest.mark.parametrize("odd", ["none", "non-finite", "escapes"])
def test_decision_lines_are_the_encoded_rows(monkeypatch, n, odd):
    monkeypatch.setattr(pipeline, "_FORMAT_WINDOW", 3)  # windows end mid-file
    rng = np.random.default_rng(n)
    models = ("m_b", 'm"a', "m_c") if odd == "escapes" else ("m_b", "m_a", "m_c")
    text_ids = [f"t{i}" + ("é\\\n" if odd == "escapes" else "") for i in range(n)]
    labels = {m: rng.random(n) < 0.5 for m in models}
    scores = {m: rng.random(n) for m in models}
    pc1 = rng.random(n) * 1e-3
    tau = 0.5
    if odd == "non-finite":
        pc1[0], scores["m_a"][-1], tau = math.nan, math.inf, -math.inf
    ens = SimpleNamespace(models=models[:2], pc1=pc1)
    decision = SimpleNamespace(union_label=rng.random(n) < 0.5,
                               intersection_label=rng.random(n) < 0.5,
                               final_label=rng.random(n) < 0.5, tau=tau)
    windows = list(pipeline._decision_lines(text_ids, labels, scores, ens, decision))
    assert len(windows) == math.ceil(n / 3)
    want = "".join(pipeline._encode(row) + "\n"
                   for row in _decision_rows(text_ids, labels, scores, ens, decision))
    assert "".join(windows) == want
    if odd == "none":
        assert all(_matched("decisions", line) for line in want.splitlines(keepends=True))


# ------------------------------------------------------------- row formatters

def _annotation(model, text_id, topic, label, phrases, parse_warning):
    """The annotation formatter's line, and the row as a dict."""
    line = pipeline._annotation_line(
        TopicAnnotation(model, text_id, topic, label, tuple(phrases), parse_warning))
    return line, {"model": model, "text_id": text_id, "topic": topic, "label": label,
                  "phrases": list(phrases), "parse_warning": parse_warning}


def _relevancy(model, text_id, topic, score, baseline, sims, false_positive):
    """The relevancy formatter's line, and the row as a dict."""
    line = pipeline._relevancy_line(RelevancyRecord(
        model, text_id, topic, score, baseline,
        tuple(PhraseSimilarity(phrase, sim) for phrase, sim in sims), false_positive))
    return line, {"model": model, "text_id": text_id, "topic": topic, "score": score,
                  "baseline": baseline,
                  "per_phrase_sims": [{"phrase": phrase, "raw_sim": sim} for phrase, sim in sims],
                  "potential_false_positive": false_positive}


def _aggregated(model, text_id, topic, label, score):
    """The aggregated formatter's line for a one-text, one-topic column, and
    the row as a dict."""
    lines = pipeline._aggregated_lines(model, [text_id], [topic],
                                       [(np.array([label]), np.array([score]))])
    return ("".join(lines), {"model": model, "text_id": text_id, "topic": topic,
                             "label": label, "score": score})


# by schema: the formatter, a typical record's values, and which of them are
# strings and which floats
FORMATTERS = {
    "annotations": (_annotation, ("m1", "t1", "sleep", True, ["lying awake", "no sleep"], False),
                    (0, 1, 2), ()),
    "relevancy": (_relevancy, ("m1", "t1", "sleep", 0.4375, 0.125,
                               [("lying awake", 0.5625), ("no sleep", 0.25)], False),
                  (0, 1, 2), (3, 4)),
    "aggregated": (_aggregated, ("m1", "t1", "sleep", True, 0.4375), (0, 1, 2), (4,)),
}
ODD_STRINGS = ['q"uote', "back\\slash", "ctl\x00\x01\x1f\n\r\t\b\f", "\x7f", "café ☕",
               "\U0001f600", "  ", ""]
ODD_FLOATS = [0.0, -0.0, 1e-300, 5e-324, 1e300, 0.1, 1e16, 123456789.0, math.nan,
              math.inf, -math.inf]


def _lines_agree(schema: str, values) -> str:
    line, row = FORMATTERS[schema][0](*values)
    assert line == pipeline._encode(row) + "\n"
    return line


@pytest.mark.parametrize("schema", list(FORMATTERS))
@pytest.mark.parametrize("text", ODD_STRINGS)
def test_row_formatters_write_strings_as_json_does(schema, text):
    _, values, strings, _ = FORMATTERS[schema]
    for i in strings:
        _lines_agree(schema, [text if j == i else v for j, v in enumerate(values)])
    if schema == "annotations":
        _lines_agree(schema, [*values[:4], [text, text + "x"], values[5]])
    if schema == "relevancy":
        _lines_agree(schema, [*values[:5], [(text, 0.5)], values[6]])


@pytest.mark.parametrize("schema", ["relevancy", "aggregated"])
@pytest.mark.parametrize("number", ODD_FLOATS, ids=repr)
def test_row_formatters_write_floats_as_json_does(schema, number):
    _, values, _, floats = FORMATTERS[schema]
    for i in floats:
        line = _lines_agree(schema, [number if j == i else v for j, v in enumerate(values)])
        if math.isfinite(number):
            assert repr(number) in line
    if schema == "relevancy":
        _lines_agree(schema, [*values[:5], [("a", number), ("b", -number)], values[6]])


@pytest.mark.parametrize("schema,values", [
    ("annotations", ("m1", "t1", "sleep", False, [], True)),
    ("relevancy", ("m1", "t1", "sleep", 0.0, 0.0, [], True)),
    ("aggregated", ("m1", "t1", "sleep", False, 0.0)),
])
def test_row_formatters_write_empty_lists_and_false_as_json_does(schema, values):
    line = _lines_agree(schema, values)
    if schema != "aggregated":
        assert "[]" in line
    if schema != "relevancy":
        assert _matched(schema, line)


_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_RECORDS = {
    "annotations": st.tuples(_TEXT, _TEXT, _TEXT, st.booleans(), st.lists(_TEXT, max_size=4),
                             st.booleans()),
    "relevancy": st.tuples(_TEXT, _TEXT, _TEXT, _FLOATS, _FLOATS,
                           st.lists(st.tuples(_TEXT, _FLOATS), max_size=4), st.booleans()),
    "aggregated": st.tuples(_TEXT, _TEXT, _TEXT, st.booleans(), _FLOATS),
}


@pytest.mark.parametrize("schema", list(FORMATTERS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_random_records_format_as_json_does(schema, data):
    line = _lines_agree(schema, data.draw(_RECORDS[schema]))
    if schema in pipeline._ROW_FIELDS:  # and the reader takes the line back
        assert _both_paths(schema, [line]) == repr(
            [(2, [json.loads(line)[name] for name in pipeline._ROW_FIELDS[schema]])])


@pytest.mark.parametrize("label", [False, True])
def test_unscored_relevancy_lines_are_the_encoded_rows(label):
    # a row without a label or phrases: the scorer's record, written as a
    # constant head and tail around the text id
    for model, topic, text_id in itertools.product(ODD_STRINGS, repeat=3):
        leaf = SimpleNamespace(short_name=topic, description="d")  # never embedded
        record = next(score_annotations([TopicAnnotation(model, "", topic, label)], [leaf],
                                        embedder=None))
        head, tail = pipeline._around_text_id(record)
        row = {"model": model, "text_id": text_id, "topic": topic, "score": 0.0,
               "baseline": 0.0, "per_phrase_sims": [], "potential_false_positive": label}
        assert head + encode_basestring(text_id) + tail == pipeline._encode(row) + "\n"
