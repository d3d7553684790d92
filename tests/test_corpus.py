import pytest

from topicensemble.corpus import (
    TextItem,
    Topic,
    TopicSet,
    load_corpus,
    load_topics,
    save_corpus,
    save_topics,
)
from topicensemble.errors import (
    DuplicateId,
    DuplicateShortName,
    EmptyText,
    MalformedRecord,
    MissingDescription,
    NestingTooDeep,
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


@pytest.mark.parametrize("format", ["jsonl", "csv"])
def test_corpus_round_trip(tmp_path, format):
    items = [
        TextItem("a", "first, with comma", "g1"),
        TextItem("b", "second"),
    ]
    path = tmp_path / f"corpus.{format}"
    save_corpus(items, path, format)
    loaded = load_corpus(path, format)
    assert [(i.id, i.text, i.group) for i in loaded] == [
        (i.id, i.text, i.group) for i in items
    ]


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
    assert topics.leaf_parent()["sub3"] == "friction"


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
    save_topics(nested_topics, path)
    loaded = load_topics(path)
    assert loaded == nested_topics


def test_topic_short_name_charset():
    with pytest.raises(MalformedRecord):
        Topic("bad name", "Has a space.")


def test_single_subtopic_rejected():
    with pytest.raises(MalformedRecord):
        Topic("a", "Top.", subtopics=(Topic("b", "Only child."),))


def test_topicset_must_be_non_empty():
    with pytest.raises(MalformedRecord):
        TopicSet(())
