import json
import tracemalloc

import pytest

from topicensemble import corpus
from topicensemble.corpus import (
    TextItem,
    Topic,
    TopicSet,
    load_corpus,
    load_corpus_view,
    load_topics,
)
from topicensemble.errors import (
    DuplicateId,
    DuplicateShortName,
    EmptyText,
    MalformedRecord,
    MissingDescription,
    NestingTooDeep,
    TopicEnsembleError,
)


def test_load_jsonl_empty_file(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text("")
    assert load_corpus(path, "jsonl") == []


def test_load_jsonl_order_preserved(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        '{"id": "a", "text": "first post"}\n{"id": "b", "text": "second post"}\n'
    )
    items = load_corpus(path, "jsonl")
    assert [i.id for i in items] == ["a", "b"]
    assert items[0].text == "first post"
    assert items[0].group is None


def test_load_jsonl_duplicate_id(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a", "text": "x"}\n{"id": "a", "text": "y"}\n')
    with pytest.raises(DuplicateId):
        load_corpus(path, "jsonl")


def test_load_jsonl_malformed_line_number(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a", "text": "x"}\nnot json\n')
    with pytest.raises(MalformedRecord) as excinfo:
        load_corpus(path, "jsonl")
    assert excinfo.value.line == 2


def test_load_jsonl_empty_text(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a", "text": "   "}\n')
    with pytest.raises(EmptyText):
        load_corpus(path, "jsonl")


def test_text_trimmed_but_not_folded(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a", "text": "  Mixed CASE Text  "}\n')
    items = load_corpus(path, "jsonl")
    assert items[0].text == "Mixed CASE Text"


def test_load_csv_with_quoting(tmp_path):
    path = tmp_path / "corpus.csv"
    path.write_text('id,text,group\na,"hello, world",g1\nb,plain,\n')
    items = load_corpus(path, "csv")
    assert items[0].text == "hello, world"
    assert items[0].group == "g1"
    assert items[1].group is None


def test_load_csv_missing_column(tmp_path):
    path = tmp_path / "corpus.csv"
    path.write_text("id,body\na,hello\n")
    with pytest.raises(MalformedRecord):
        load_corpus(path, "csv")


@pytest.mark.parametrize("format", ["jsonl", "csv"])
def test_non_utf8_corpus_names_line_and_byte(tmp_path, format):
    # long lines put the bad byte past the first 8 KiB the text layer decodes
    lines = {
        "jsonl": [b'{"id": "a", "text": "%s"}\n' % (b"x" * 5000),
                  b'{"id": "b", "text": "%s"}\n' % (b"y" * 5000),
                  b'{"id": "c", "text": "caf\xe9"}\n'],
        "csv": [b"id,text\n", b"a,%s\n" % (b"x" * 9000), b"c,caf\xe9\n"],
    }[format]
    path = tmp_path / f"corpus.{format}"
    data = b"".join(lines)
    path.write_bytes(data)
    with pytest.raises(MalformedRecord) as excinfo:
        load_corpus(path, format)
    assert excinfo.value.line == 3
    assert f"is not UTF-8: byte {data.index(0xE9)} (0xe9)" in str(excinfo.value)


# two texts, one with a comma and a group, one without a group
_ROUND_TRIP = {
    "jsonl": '{"id": "a", "text": "first, with comma", "group": "g1"}\n'
             '{"id": "b", "text": "second"}\n',
    "csv": 'id,text,group\na,"first, with comma",g1\nb,second,\n',
}


@pytest.mark.parametrize("format", ["jsonl", "csv"])
def test_corpus_round_trip(tmp_path, format):
    items = [
        TextItem("a", "first, with comma", "g1"),
        TextItem("b", "second"),
    ]
    path = tmp_path / f"corpus.{format}"
    path.write_text(_ROUND_TRIP[format], encoding="utf-8")
    loaded = load_corpus(path, format)
    assert [(i.id, i.text, i.group) for i in loaded] == [
        (i.id, i.text, i.group) for i in items
    ]


@pytest.mark.parametrize("format", ["jsonl", "csv"])
def test_corpus_with_a_byte_order_mark_loads(tmp_path, format):
    # spreadsheet "CSV UTF-8" exports start with one; a bad byte after it is
    # still named by its offset in the file, the mark's 3 bytes included
    path = tmp_path / f"corpus.{format}"
    path.write_bytes(b"\xef\xbb\xbf" + _ROUND_TRIP[format].encode())
    loaded = load_corpus(path, format)
    assert [(i.id, i.text, i.group) for i in loaded] == [
        ("a", "first, with comma", "g1"), ("b", "second", None)]
    assert load_corpus_view(path, format).ids == ["a", "b"]
    data = b"\xef\xbb\xbf" + _ROUND_TRIP[format].encode() + b"c,caf\xe9\n"
    path.write_bytes(data)
    with pytest.raises(MalformedRecord) as excinfo:
        load_corpus(path, format)
    assert excinfo.value.line == 3 + (format == "csv")
    assert f"is not UTF-8: byte {data.index(0xE9)} (0xe9)" in str(excinfo.value)


# a record whose quoted text spans three lines
_SPANNING = 'id,text\na,"line one\nline two\nline three"\n'


@pytest.mark.parametrize("blank", ["", "\n"], ids=["adjacent", "after-a-blank-line"])
@pytest.mark.parametrize("rest, error, message", [
    ("b,   \n", EmptyText, "line {line}: corpus {path}: empty text for id 'b'"),
    ("b,x\na,dup\n", DuplicateId,
     "line {line_after}: corpus {path}: duplicate id 'a' (first on line 2)"),
], ids=["empty-text", "duplicate-id"])
def test_csv_error_names_the_first_line_of_the_record(tmp_path, blank, rest, error, message):
    path = tmp_path / "corpus.csv"
    path.write_text(_SPANNING + blank + rest)
    line = 5 + len(blank)  # of the record after the spanning one
    with pytest.raises(error) as excinfo:
        load_corpus(path, "csv")
    assert str(excinfo.value) == message.format(line=line, line_after=line + 1, path=path)


_BAD_CORPORA = {
    "jsonl": {
        "duplicate-id": '{"id": "a", "text": "x"}\n{"id": "b", "text": "y"}\n'
                        '{"id": "a", "text": "z"}\n',
        "invalid-json": '{"id": "a", "text": "x"}\nnot json\n',
        "not-an-object": '["a", "x"]\n',
        "missing-id": '{"text": "x"}\n',
        "missing-text": '{"id": "a"}\n',
        "empty-text": '{"id": "a", "text": "x"}\n{"id": "b", "text": "   "}\n',
        "group-not-a-string": '{"id": "a", "text": "x", "group": 3}\n',
        # falsy, but not a string or null: refused, not read as ungrouped
        "group-zero": '{"id": "a", "text": "x", "group": 0}\n',
        "group-false": '{"id": "a", "text": "x", "group": false}\n',
        "group-empty-list": '{"id": "a", "text": "x", "group": []}\n',
        "group-empty-object": '{"id": "a", "text": "x", "group": {}}\n',
        "not-utf8": b'{"id": "a", "text": "x"}\n{"id": "b", "text": "caf\xe9"}\n',
    },
    "csv": {
        "duplicate-id": "id,text\na,x\nb,y\na,z\n",
        "missing-column": "id,body\na,hello\n",
        "missing-id": "id,text\n,x\n",
        "missing-text": "id,text\na\n",
        "empty-text": 'id,text\na,x\nb,"   "\n',
        "not-utf8": b"id,text\na,x\nb,caf\xe9\n",
    },
}


@pytest.mark.parametrize("format, content", [
    pytest.param(format, content, id=f"{format}-{case}")
    for format, cases in _BAD_CORPORA.items() for case, content in cases.items()])
def test_view_refuses_what_load_corpus_refuses(tmp_path, format, content):
    path = tmp_path / f"corpus.{format}"
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    with pytest.raises(TopicEnsembleError) as loaded:
        load_corpus(path, format)
    with pytest.raises(TopicEnsembleError) as viewed:
        load_corpus_view(path, format)
    assert type(viewed.value) is type(loaded.value)
    assert str(viewed.value) == str(loaded.value)
    assert str(loaded.value).startswith("line ") and str(path) in str(loaded.value)


# each message of a corpus that does not load, by format and case of _BAD_CORPORA
# (and three more), word for word
_CORPUS_MESSAGES = {
    "jsonl": {
        "duplicate-id": "line 3: corpus {path}: duplicate id 'a' (first on line 1)",
        "invalid-json": "line 2: corpus {path}: invalid JSON: "
                        "Expecting value: line 1 column 1 (char 0)",
        "not-an-object": "line 1: corpus {path}: record is not an object",
        "missing-id": "line 1: corpus {path}: missing or empty 'id'",
        "missing-text": "line 1: corpus {path}: missing 'text'",
        "empty-text": "line 2: corpus {path}: empty text for id 'b'",
        "group-not-a-string": "line 1: corpus {path}: 'group' must be a string",
        "group-zero": "line 1: corpus {path}: 'group' must be a string",
        "group-false": "line 1: corpus {path}: 'group' must be a string",
        "group-empty-list": "line 1: corpus {path}: 'group' must be a string",
        "group-empty-object": "line 1: corpus {path}: 'group' must be a string",
        "not-utf8": "line 2: corpus {path} is not UTF-8: byte 49 (0xe9): "
                    "invalid continuation byte",
        "lone-surrogate": "line 1: corpus {path}: 'text' holds '\\ud83d', "
                          "which has no UTF-8 encoding",
    },
    "csv": {
        "duplicate-id": "line 4: corpus {path}: duplicate id 'a' (first on line 2)",
        "missing-column": "line 1: corpus {path}: missing columns: ['text']",
        "missing-id": "line 2: corpus {path}: missing or empty 'id'",
        "missing-text": "line 2: corpus {path}: missing 'text'",
        "empty-text": "line 3: corpus {path}: empty text for id 'b'",
        "not-utf8": "line 3: corpus {path} is not UTF-8: byte 17 (0xe9): "
                    "invalid continuation byte",
        "blank-header": "line 1: corpus {path}: missing columns: ['id', 'text']",
        "short-row": "line 2: corpus {path}: missing or empty 'id'",
    },
}
_MORE_CORPORA = {("jsonl", "lone-surrogate"): '{"id": "a", "text": "x\\ud83d"}\n',
                 ("csv", "blank-header"): "\nid,text\na,x\n",
                 ("csv", "short-row"): "text,id\nx\n"}


@pytest.mark.parametrize("format, case", [
    pytest.param(format, case, id=f"{format}-{case}")
    for format, cases in _CORPUS_MESSAGES.items() for case in cases])
def test_every_corpus_message_is_pinned(tmp_path, format, case):
    content = _MORE_CORPORA.get((format, case)) or _BAD_CORPORA[format][case]
    path = tmp_path / f"corpus.{format}"
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    with pytest.raises(TopicEnsembleError) as excinfo:
        load_corpus_view(path, format)
    assert str(excinfo.value) == _CORPUS_MESSAGES[format][case].format(path=path)


@pytest.mark.parametrize("format, content", [
    ("jsonl", "\n  \n"), ("csv", ""), ("csv", "id,text\n"), ("csv", "id,text,group\n\n\n")],
    ids=["jsonl-blank-lines", "csv-0-bytes", "csv-header-only", "csv-blank-lines"])
def test_a_corpus_without_records_loads_empty(tmp_path, format, content):
    # `load_inputs` refuses it as holding no texts
    path = tmp_path / f"corpus.{format}"
    path.write_text(content)
    assert len(load_corpus_view(path, format)) == 0 and load_corpus(path, format) == []


def test_duplicate_id_names_both_lines(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(_BAD_CORPORA["jsonl"]["duplicate-id"])
    with pytest.raises(DuplicateId) as excinfo:
        load_corpus_view(path, "jsonl")
    assert str(excinfo.value) == (
        f"line 3: corpus {path}: duplicate id 'a' (first on line 1)")


def test_ids_that_share_a_hash_are_told_apart(tmp_path, monkeypatch):
    # ids are compared by hash first; equal hashes send the file to be read
    # again, where only equal ids are duplicates
    monkeypatch.setattr(corpus, "hash", lambda rid: 0, raising=False)
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a", "text": "x"}\n{"id": "b", "text": "y"}\n')
    assert load_corpus_view(path, "jsonl").ids == ["a", "b"]
    path.write_text(_BAD_CORPORA["jsonl"]["duplicate-id"])
    with pytest.raises(DuplicateId, match=r"^line 3: .*'a' \(first on line 1\)$"):
        load_corpus_view(path, "jsonl")


@pytest.mark.parametrize("format", ["jsonl", "csv"])
def test_view_matches_load_corpus(tmp_path, format):
    path = tmp_path / f"corpus.{format}"
    path.write_text({
        "jsonl": '{"id": "a", "text": "first", "group": "g1"}\n{"id": "b", "text": "second"}\n'
                 '{"id": "c", "text": "third", "group": "g1"}\n',
        "csv": "id,text,group\na,first,g1\nb,second,\nc,third,g1\n",
    }[format], encoding="utf-8")
    view = load_corpus_view(path, format)
    assert view.ids == [i.id for i in load_corpus(path, format)] == ["a", "b", "c"]
    assert view.groups == ["g1", None, "g1"] and view.groups[0] is view.groups[2]
    assert len(view) == 3


@pytest.mark.parametrize("chars", [50, 2000])
def test_view_memory_per_text(tmp_path, chars):
    # ids, groups and the duplicate check; a TextItem each costs 340 B more
    # than its text, and a set of ids alone up to 107 B a text
    texts = 10_000
    path = tmp_path / "corpus.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(texts):
            text = f"{i:06d} " + "w" * (chars - 7)
            fh.write(json.dumps({"id": f"text-{i:06d}", "text": text,
                                 "group": f"site-{i % 7}"}) + "\n")
    tracemalloc.start()
    try:
        view = load_corpus_view(path, "jsonl")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(view) == texts and view.ids[-1] == f"text-{texts - 1:06d}"
    assert peak / texts <= 160, f"{peak / texts:.0f} B per text"


def test_load_topics_yaml(tmp_path):
    path = tmp_path / "topics.yaml"
    path.write_text(
        "topics:\n"
        "  - short_name: workload\n"
        "    description: Heavy workload, feeling overloaded with tasks.\n"
        "  - short_name: commute\n"
        "    description: Long or stressful commute.\n"
    )
    topics = load_topics(path)
    assert len(topics) == 2
    assert topics.topics[0].short_name == "workload"
    assert topics.leaves()[1].short_name == "commute"


def test_load_topics_with_subtopics(tmp_path):
    path = tmp_path / "topics.yaml"
    path.write_text(
        "topics:\n"
        "  - short_name: friction\n"
        "    description: Workplace friction with coworkers.\n"
        "    subtopics:\n"
        + "".join(
            f"      - short_name: sub{i}\n        description: Subcategory {i}.\n"
            for i in range(10)
        )
    )
    topics = load_topics(path)
    assert len(topics.topics[0].subtopics) == 10
    assert len(topics.leaves()) == 10
    assert topics.top_level_names() == ["friction"]
    assert topics.leaves()[3] is topics.topics[0].subtopics[3]
    assert topics.leaves()[3].short_name == "sub3"


def test_load_topics_duplicate_short_name(tmp_path):
    path = tmp_path / "topics.yaml"
    path.write_text(
        "topics:\n"
        "  - {short_name: a, description: First.}\n"
        "  - {short_name: a, description: Second.}\n"
    )
    with pytest.raises(DuplicateShortName):
        load_topics(path)


def test_load_topics_missing_description(tmp_path):
    path = tmp_path / "topics.yaml"
    path.write_text("topics:\n  - {short_name: a}\n")
    with pytest.raises(MissingDescription):
        load_topics(path)


@pytest.mark.parametrize("topics, problem", [
    ("topics:\n  - {short_name: a, description: A.}\n  - {short_name: b}\n",
     "topic 2 ('b'): missing description"),
    ("topics:\n  - short_name: a\n    description: A.\n    subtopics:\n"
     "      - {short_name: a1, description: One.}\n      - {short_name: a2}\n",
     "topic 1 ('a'), subtopic 2 ('a2'): missing description"),
    ("topics:\n  - {short_name: a b, description: A.}\n",
     "topic 1 ('a b'): short_name 'a b' must match [A-Za-z0-9_]+"),
    ("topics:\n  - {short_name: a, description: A.}\n  - {short_name: a, description: B.}\n",
     "duplicate short_name 'a'"),
    ("topics:\n  - just a string\n", "topic 1: not a mapping: 'just a string'"),
], ids=["description", "subtopic-description", "charset", "duplicate", "not-a-mapping"])
def test_topics_errors_name_file_and_entry(tmp_path, topics, problem):
    path = tmp_path / "topics.yaml"
    path.write_text(topics)
    with pytest.raises(TopicEnsembleError) as excinfo:
        load_topics(path)
    assert str(excinfo.value) == f"topics file {path}: {problem}"


def test_load_topics_nesting_too_deep(tmp_path):
    path = tmp_path / "topics.yaml"
    path.write_text(
        "topics:\n"
        "  - short_name: a\n"
        "    description: Top.\n"
        "    subtopics:\n"
        "      - short_name: b\n"
        "        description: Mid.\n"
        "        subtopics:\n"
        "          - {short_name: c, description: Deep.}\n"
        "      - {short_name: d, description: Mid two.}\n"
    )
    with pytest.raises(NestingTooDeep):
        load_topics(path)


def test_topics_round_trip(tmp_path, nested_topics):
    path = tmp_path / "topics.yaml"
    path.write_text(
        "topics:\n"
        "- short_name: friction\n"
        "  description: Workplace friction with coworkers or managers.\n"
        "  subtopics:\n"
        "  - short_name: friction_blame\n"
        "    description: Blamed for problems caused by others.\n"
        "  - short_name: friction_dismiss\n"
        "    description: Suggestions dismissed without discussion.\n"
        "- short_name: sleep\n"
        "  description: Sleep problems.\n", encoding="utf-8")
    loaded = load_topics(path)
    assert loaded == nested_topics


def test_topic_short_name_charset():
    with pytest.raises(MalformedRecord):
        Topic("bad name", "Has a space.")


@pytest.mark.parametrize("name", ["sleep\n", "\nsleep", "sleep\r\n"])
def test_topic_short_name_with_a_newline_is_refused(name):
    # "$" alone would also match before a final newline
    with pytest.raises(MalformedRecord, match="must match"):
        Topic(name, "Sleep.")


def test_single_subtopic_rejected():
    with pytest.raises(MalformedRecord):
        Topic("a", "Top.", subtopics=(Topic("b", "Only child."),))


def test_topicset_must_be_non_empty():
    with pytest.raises(MalformedRecord):
        TopicSet(())
