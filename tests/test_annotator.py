import contextlib
import hashlib
import io
import json
import re
import socket
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topicensemble import annotator
from topicensemble.annotator import (
    ConnectionPool,
    Decoding,
    ModelBackend,
    ResponseCache,
    annotate_corpus,
    build_prompt,
    parse_response,
    post_json,
    query_backend,
    run_parallel,
)
from topicensemble.corpus import TextItem, Topic, TopicSet
from topicensemble.errors import (
    BackendUnavailable,
    BadStatus,
    CacheError,
    FailureBudgetExceeded,
    Unparseable,
)
from topicensemble.stubserver import format_response


@pytest.fixture
def survey_topics():
    return TopicSet(
        (
            Topic("workload", "Heavy workload, feeling overloaded with tasks and deadlines."),
            Topic("commute", "Long or stressful commute. Must relate to travel time."),
        )
    )


# ------------------------------------------------------------------ prompt

def test_build_prompt_exact(two_topics):
    item = TextItem("t1", "I lie awake all night.")
    expected = (
        "Does the paragraph mention any of the following topics:\n"
        "(1) sleep: Sleep problems, trouble falling asleep or staying asleep.\n"
        "(2) appetite: Appetite changes, eating more or less than usual.\n"
        "Return answer in format:\n"
        "(1) sleep: [yes/no], related phrases if any:\n"
        "(2) appetite: [yes/no], related phrases if any:\n"
        "Paragraph: `I lie awake all night.`"
    )
    assert build_prompt(two_topics, item) == expected


def test_build_prompt_single_topic():
    topics = TopicSet((Topic("focus", "Trouble concentrating."),))
    prompt = build_prompt(topics, TextItem("a", "text"))
    assert "(1) focus: Trouble concentrating.\n" in prompt
    assert "(2)" not in prompt


def test_build_prompt_fifteen_topics_in_order():
    names = [f"topic{i:02d}" for i in range(15)]
    topics = TopicSet(tuple(Topic(n, f"Description {n}.") for n in names))
    prompt = build_prompt(topics, TextItem("a", "text"))
    positions = [prompt.index(f"({k}) {n}:") for k, n in enumerate(names, 1)]
    assert positions == sorted(positions)


def test_build_prompt_pure(two_topics):
    item = TextItem("t1", "Same text.")
    assert build_prompt(two_topics, item) == build_prompt(two_topics, item)


def test_build_prompt_adds_single_period():
    topics = TopicSet((Topic("a", "No trailing period"), Topic("b", "Has one.")))
    prompt = build_prompt(topics, TextItem("x", "text"))
    assert "(1) a: No trailing period.\n" in prompt
    assert "(2) b: Has one.\n" in prompt
    assert ".." not in prompt


def test_build_prompt_enumerates_subtopics(nested_topics):
    prompt = build_prompt(nested_topics, TextItem("x", "text"))
    assert "(1) friction_blame:" in prompt
    assert "(2) friction_dismiss:" in prompt
    assert "(3) sleep:" in prompt
    assert "(1) friction:" not in prompt


# ------------------------------------------------------------------- parse

def test_parse_inline_multi_topic_response(survey_topics):
    content = (
        "(1) workload: yes, related phrases: 'staying late at the office every "
        "night', 'never a moment to catch up' (2) commute: yes, related "
        "phrases: 'two hours on the train'"
    )
    anns = parse_response(content, survey_topics)
    assert anns[0].label is True
    assert anns[0].phrases == (
        "staying late at the office every night",
        "never a moment to catch up",
    )
    assert anns[1].label is True
    assert anns[1].phrases == ("two hours on the train",)
    assert not anns[0].parse_warning


def test_parse_all_negative():
    topics = TopicSet((Topic("focus", "Trouble concentrating."), Topic("noise", "Noisy environment.")))
    anns = parse_response("(1) focus: no (2) noise: no", topics)
    assert [a.label for a in anns] == [False, False]
    assert all(a.phrases == () for a in anns)
    assert not any(a.parse_warning for a in anns)


def test_parse_refusal_unparseable(two_topics):
    with pytest.raises(Unparseable):
        parse_response("I cannot help with this request.", two_topics)


def test_parse_label_variants(two_topics):
    anns = parse_response("(1) sleep: [yes] (2) appetite: No.", two_topics)
    assert anns[0].label is True
    assert anns[1].label is False
    anns = parse_response("(1) sleep: Yes. (2) appetite: [no]", two_topics)
    assert anns[0].label is True
    assert anns[1].label is False


def test_parse_missing_topic_gets_warning(two_topics):
    anns = parse_response("(1) sleep: yes, related phrases: 'no rest'", two_topics)
    assert anns[0].label is True
    assert anns[1].label is False
    assert anns[1].parse_warning


def test_parse_unanswerable_token_conservative(two_topics):
    anns = parse_response("(1) sleep: maybe (2) appetite: no", two_topics)
    assert anns[0].label is False
    assert anns[0].parse_warning


def test_parse_yes_no_echo_is_unanswered(two_topics):
    anns = parse_response(
        "(1) sleep: [yes/no], related phrases if any: (2) appetite: no", two_topics
    )
    assert anns[0].label is False
    assert anns[0].parse_warning


def test_parse_prefers_answer_after_prompt_echo(two_topics):
    item = TextItem("t", "Cannot sleep, cannot eat.")
    echo = build_prompt(two_topics, item)
    content = echo + "\n(1) sleep: yes, related phrases: 'cannot sleep'\n(2) appetite: yes, related phrases: 'cannot eat'"
    anns = parse_response(content, two_topics)
    assert [a.label for a in anns] == [True, True]
    assert anns[0].phrases == ("cannot sleep",)


def test_parse_unquoted_comma_phrases(two_topics):
    anns = parse_response(
        "(1) sleep: yes, related phrases: tossing all night, cannot rest\n"
        "(2) appetite: no",
        two_topics,
    )
    assert anns[0].phrases == ("tossing all night", "cannot rest")


def test_parse_none_placeholder_dropped(two_topics):
    anns = parse_response(
        "(1) sleep: yes, related phrases: none (2) appetite: no", two_topics
    )
    assert anns[0].label is True
    assert anns[0].phrases == ()


def test_parse_phrases_on_negative_label_kept(two_topics):
    anns = parse_response(
        "(1) sleep: no, related phrases: 'sleeping fine' (2) appetite: no",
        two_topics,
    )
    assert anns[0].label is False
    assert anns[0].phrases == ("sleeping fine",)


def test_parse_round_trip_canonical_format(two_topics):
    rng = np.random.default_rng(17)
    words = ["rest", "hunger strikes", "tired, again", "eating less", "up at 3am"]
    for _ in range(100):
        answers = []
        for topic in two_topics:
            label = bool(rng.random() < 0.5)
            phrases = []
            if label:
                count = int(rng.integers(0, 3))
                phrases = list(rng.choice(words, size=count, replace=False))
            answers.append((topic.short_name, label, phrases))
        content = format_response(answers)
        anns = parse_response(content, two_topics)
        for ann, (name, label, phrases) in zip(anns, answers):
            assert ann.topic == name
            assert ann.label is label
            if label:
                assert list(ann.phrases) == phrases


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_topic_line_is_found_exactly_when_parse_response_recognizes_one(data):
    # the lanes' cheap test asks for the reminder where the ordered pass does
    names = data.draw(st.lists(st.from_regex(r"[A-Za-z0-9_]{1,6}", fullmatch=True),
                               min_size=1, max_size=3, unique=True))
    topics = TopicSet(tuple(Topic(name, f"About {name}.") for name in names))
    piece = st.one_of(st.sampled_from(names),
                      st.sampled_from(["(1)", "( 2 )", "(3)", ":", " ", "\n", "yes", "no",
                                       "[yes/no]", "_", "x", "\u017f", "\u212a", "."]),
                      st.text(max_size=3))
    content = "".join(data.draw(st.lists(piece, max_size=12)))
    content = data.draw(st.sampled_from([content, content.upper(), content.lower()]))
    try:
        parse_response(content, topics)
        recognized = True
    except Unparseable:
        recognized = False
    assert bool(annotator._layout(topics).topic_line.search(content)) is recognized


# The parser as it was before the in-place scan, kept as the oracle of the one
# in annotator: the same annotations and parse warnings, and Unparseable in the
# same cases.
_ORACLE_LABEL_RE = re.compile(r"^\s*,?\s*\[?\s*(yes|no)\b(?!\s*/)", re.IGNORECASE)
_ORACLE_QUOTED_RE = re.compile(r"'([^']+)'|\"([^\"]+)\"")
_ORACLE_MARKER_RE = re.compile(r"related\s+phrases(?:\s+if\s+any)?\s*:?", re.IGNORECASE)
_ORACLE_PLACEHOLDERS = {"none", "n/a", "na", "-", "no", "nothing"}


def _oracle_extract_phrases(segment):
    quoted = [a or b for a, b in _ORACLE_QUOTED_RE.findall(segment)]
    if quoted:
        return tuple(p.strip() for p in quoted if p.strip())
    marker = _ORACLE_MARKER_RE.search(segment)
    if marker:
        tail = segment[marker.end():]
    else:
        label = _ORACLE_LABEL_RE.match(segment)
        tail = segment[label.end():] if label else segment
        tail = tail.lstrip(" ,.;]")
    phrases = []
    for part in re.split(r"[,;]", tail):
        cleaned = part.strip().strip("'\"").strip()
        cleaned = cleaned.rstrip(".").strip()
        if cleaned and cleaned.lower() not in _ORACLE_PLACEHOLDERS:
            phrases.append(cleaned)
    return tuple(phrases)


def _oracle_parse(content, topics, model="", text_id=""):
    leaves = topics.leaves()
    chosen = []
    for k, leaf in enumerate(leaves, 1):
        name = re.escape(leaf.short_name)
        matches = (list(re.finditer(rf"\(\s*{k}\s*\)\s*{name}\s*:", content, re.IGNORECASE))
                   or list(re.finditer(rf"\b{name}\s*:", content, re.IGNORECASE)))
        match = None
        for candidate in reversed(matches):
            if _ORACLE_LABEL_RE.match(content[candidate.end():]):
                match = candidate
                break
        chosen.append(match if match or not matches else matches[-1])
    if all(match is None for match in chosen):
        raise Unparseable("no topic line recognized in response")
    starts = sorted(match.start() for match in chosen if match is not None)
    annotations = []
    for leaf, match in zip(leaves, chosen):
        if match is None:
            annotations.append(annotator.TopicAnnotation(model, text_id, leaf.short_name,
                                                         False, (), True))
            continue
        seg_end = min((s for s in starts if s > match.start()), default=len(content))
        segment = content[match.end():seg_end]
        label = _ORACLE_LABEL_RE.match(segment)
        annotations.append(annotator.TopicAnnotation(
            model, text_id, leaf.short_name, bool(label) and label.group(1).lower() == "yes",
            _oracle_extract_phrases(segment), label is None))
    return annotations


def _outcome(parse, content, topics):
    try:
        return parse(content, topics, "m", "t")
    except Unparseable:
        return "Unparseable"


_NAMES = st.one_of(st.from_regex(r"[A-Za-z0-9_]{1,6}", fullmatch=True),
                   st.sampled_from(["yes", "no", "related", "phrases", "none", "sleep", "Sleep"]))
_LABELS = ["yes", "Yes.", "[yes]", "YES", "no", "No.", "[no]", "[yes/no]", "maybe", "",
           " yes", ", [ no ]", "yes/", "yesno"]
_PHRASES = st.one_of(
    st.lists(st.sampled_from(["awake", "up at 3am", "n/a", " none ", "x.", "a;b", "it's"]),
             max_size=3).map(lambda ps: ", ".join(f"'{p}'" for p in ps)),
    st.lists(st.sampled_from(["tossing", "cannot rest", "ok"]),
             max_size=3).map(lambda ps: ", ".join(f'"{p}"' for p in ps)),
    st.tuples(st.sampled_from([", ", "; "]),
              st.lists(st.sampled_from(["tossing all night", "none", "-", "nothing.", "'half"]),
                       max_size=3)).map(lambda t: t[0].join(t[1])),
    st.text(max_size=8))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_parse_response_equals_the_parser_it_replaced(data):
    names = data.draw(st.lists(_NAMES, min_size=1, max_size=4, unique=True))
    topics = TopicSet(tuple(Topic(name, f"About {name}.") for name in names))
    pieces = []
    if data.draw(st.booleans()):  # a preamble, or an echo of the prompt
        pieces.append(data.draw(st.sampled_from(
            ["Here are my answers.\n", build_prompt(topics, TextItem("t", "A text.")) + "\n",
             "Sure:\n"])))
    for k, name in enumerate(names, 1):
        if not data.draw(st.booleans()) and len(names) > 1:
            continue  # a missing topic
        number = data.draw(st.sampled_from([f"({k}) ", f"( {k} ) ", "", f"({k + 1}) "]))
        shown = data.draw(st.sampled_from([name, name.upper(), name.lower()]))
        line = f"{number}{shown}{data.draw(st.sampled_from([':', ' :', '']))} "
        line += data.draw(st.sampled_from(_LABELS + [f"{other}:" for other in names]))
        marker = data.draw(st.sampled_from(["", ", related phrases: ", " related phrases if any: ",
                                            ", related  phrases ", ", "]))
        line += marker + data.draw(_PHRASES) + "".join(
            data.draw(st.lists(st.sampled_from(["\n", "]", ".", " ", ",", ";", "/"]), max_size=3)))
        pieces.append(line)
    sep = data.draw(st.sampled_from(["\n", " ", "\n\n", ""]))
    content = sep.join(pieces)
    if data.draw(st.booleans()):  # garbage anywhere
        at = data.draw(st.integers(0, len(content)))
        content = content[:at] + data.draw(st.text(max_size=6)) + content[at:]
    assert _outcome(parse_response, content, topics) == _outcome(_oracle_parse, content, topics)


@pytest.mark.parametrize("content", [
    "a: yes: no",  # a's label runs into the next leaf's line
    "(1) a: (2) yes: no",
    "a: yes\n]",  # a bracket after the label's line
    "a: no.\n, x",
    "a: [yes] ; b: no",
    "b: yes; a: no/",
    "(1) a: [yes/no], related phrases if any:\n(1) a: yes, 'x'",
])
def test_parse_response_equals_the_parser_it_replaced_at_its_edges(content):
    topics = TopicSet((Topic("a", "A."), Topic("yes", "Y."), Topic("b", "B.")))
    assert _outcome(parse_response, content, topics) == _outcome(_oracle_parse, content, topics)


# ----------------------------------------------------------- query + cache

def chat_doc(entries):
    return {"dimension": 2, "chat": entries, "embeddings": {}}


def backend_for(server, name="m1", temperature=0.0):
    return ModelBackend(
        name=name,
        endpoint=server.chat_url,
        decoding=Decoding(temperature=temperature, max_tokens=64),
    )


def test_query_backend_cache_round_trip(tmp_path, stub_server, pool):
    server = stub_server(chat_doc([{"model": "m1", "prompt": "hello", "response": "(1) x: no"}]))
    cache = ResponseCache(tmp_path)
    backend = backend_for(server)
    first = query_backend(backend, "hello", cache, pool)
    assert first.content == "(1) x: no"
    assert first.from_cache is False
    second = query_backend(backend, "hello", cache, pool)
    assert second.from_cache is True
    assert second.content == first.content
    assert second.retrieved_at == first.retrieved_at
    assert server.call_count == 1


@pytest.mark.parametrize("value", [b"{not json", b'{"content": 7}', b'["content"]', b"\xff"],
                         ids=["not-json", "content-not-text", "not-an-object", "not-utf-8"])
def test_a_corrupt_chat_entry_is_a_store_error_through_get(tmp_path, pool, value):
    # get and query_backend decode an entry as annotate does, naming the store and key
    backend = ModelBackend("m1", "http://127.0.0.1:9/v1/chat/completions")
    with contextlib.closing(ResponseCache(tmp_path)) as cache:
        key = cache.key(backend, "hello")
        cache.write([(key, value)])
        message = f"cache {cache.path}: entry {key} is not a chat answer"
        with pytest.raises(CacheError, match=re.escape(message)):
            cache.get(backend, "hello")
        with pytest.raises(CacheError, match=re.escape(message)):
            query_backend(backend, "hello", cache, pool)


def test_query_backend_distinct_decoding_distinct_keys(tmp_path, stub_server, pool):
    server = stub_server(chat_doc([{"model": "m1", "prompt": "hello", "response": "ok"}]))
    cache = ResponseCache(tmp_path)
    greedy, sampled = backend_for(server, temperature=0.0), backend_for(server, temperature=0.5)
    query_backend(greedy, "hello", cache, pool)
    query_backend(sampled, "hello", cache, pool)
    assert cache.key(greedy, "hello") != cache.key(sampled, "hello")
    assert cache.get(greedy, "hello")["content"] == cache.get(sampled, "hello")["content"] == "ok"
    assert server.call_count == 2


def test_store_key_is_pinned():
    # a store written by an earlier version must still answer: the key is the
    # SHA-256 of json.dumps({backend, prompt, temperature, max_tokens},
    # sort_keys=True, ensure_ascii=False)
    backend = ModelBackend("m_alpha", "http://127.0.0.1:1/v1/chat/completions",
                           decoding=Decoding(temperature=0.0, max_tokens=256))
    prompt = 'Paragraph: `Café au lait, "quoted"\n\ttab`'
    assert ResponseCache.key(None, backend, prompt) == (
        "aed719238ae1297c06db6ea3d2cfb5cfb38ec44d19981c2039c56f0807e9be2a")


_BACKEND_NAMES = st.one_of(st.text(), st.sampled_from(
    ['m"1', "back\\slash", "Café ☃", 'x"prompt": "', '"prompt": ""', "\\u00e9"]))
_DECODINGS = st.builds(Decoding, temperature=st.sampled_from([0, 0.0, 0.7, 1e-7]),
                       max_tokens=st.integers())


@settings(max_examples=300, deadline=None)
@given(_BACKEND_NAMES, _DECODINGS, _DECODINGS, st.text())
def test_store_key_is_the_digest_of_the_sorted_document(name, decoding, other, prompt):
    def expected(decoding):
        return hashlib.sha256(json.dumps({
            "backend": name, "prompt": prompt, "temperature": decoding.temperature,
            "max_tokens": decoding.max_tokens}, sort_keys=True, ensure_ascii=False,
        ).encode("utf-8")).hexdigest()

    first = ModelBackend(name, "http://127.0.0.1:1/v1/chat/completions", decoding=decoding)
    second = replace(first, decoding=other)  # the same name, maybe other decoding
    for backend in (first, second, first):  # the second time from the kept parts
        assert ResponseCache.key(None, backend, prompt) == expected(backend.decoding)
    same = (repr(decoding.temperature), decoding.max_tokens) == (
        repr(other.temperature), other.max_tokens)
    assert (ResponseCache.key(None, first, prompt) ==
            ResponseCache.key(None, second, prompt)) is same


def test_store_entry_is_the_json_document():
    entry = ResponseCache.entry("p", 'Café "x"')
    assert entry.startswith(b'{"prompt_digest": "148de9c5a7a44d19e56cd9ae1a554bf67847afb0c58f6e'
                            b'12fa29ac7ddfca9940", "content": "Caf\xc3\xa9 \\"x\\"", '
                            b'"retrieved_at": "')
    assert json.loads(entry)["content"] == 'Café "x"'


def test_store_read_many_keeps_key_order_across_queries(tmp_path):
    store = ResponseCache(tmp_path)
    store.write((f"k{i}", f"v{i}".encode()) for i in range(0, 1200, 2))
    keys = [f"k{i}" for i in reversed(range(1201))]  # three queries' worth
    assert store.read_many(keys) == [f"v{i}".encode() if i % 2 == 0 and i < 1200 else None
                                     for i in reversed(range(1201))]
    assert store.read_many([]) == []
    store.close()


def test_store_shared_by_threads(tmp_path):
    store = ResponseCache(tmp_path)
    errors = []

    def work(t):
        try:
            for i in range(400):
                store.write([(f"{t}/{i}", f"{t}:{i}".encode())])
                if store.read_many([f"{t}/{i // 2}"])[0] != f"{t}:{i // 2}".encode():
                    errors.append(f"{t}/{i // 2} unreadable")
        except Exception as exc:  # reported below; a thread cannot fail the test
            errors.append(repr(exc))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    store.close()
    fresh = ResponseCache(tmp_path)
    assert all(fresh.read_many([f"{t}/{i}"])[0] == f"{t}:{i}".encode()
               for t in range(8) for i in range(400))
    fresh.close()


def test_query_backend_unreachable(tmp_path):
    backend = ModelBackend(name="m1", endpoint="http://127.0.0.1:9/v1/chat/completions")
    with pytest.raises(BackendUnavailable):
        with contextlib.closing(ConnectionPool(retries=2, timeout=30.0, backoff=0.01)) as pool:
            query_backend(backend, "hello", ResponseCache(tmp_path), pool)


def test_query_backend_bad_status_not_retried(tmp_path, stub_server, pool):
    server = stub_server(chat_doc([]))
    backend = backend_for(server)
    with pytest.raises(BadStatus) as excinfo:
        query_backend(backend, "unknown prompt", ResponseCache(tmp_path), pool)
    assert excinfo.value.status == 404
    assert server.call_count == 1


def test_query_backend_auth_header(tmp_path, stub_server, monkeypatch, pool):
    server = stub_server(chat_doc([{"model": "m1", "prompt": "p", "response": "ok"}]))
    monkeypatch.setenv("STUB_TOKEN", "secret")
    backend = ModelBackend(
        name="m1", endpoint=server.chat_url, auth_env="STUB_TOKEN"
    )
    response = query_backend(backend, "p", ResponseCache(tmp_path), pool)
    assert response.content == "ok"


# --------------------------------------------------------------- transport

_REPLY = (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
          b"Content-Length: 12\r\n\r\n{\"ok\": true}")


def _read_request(rfile) -> bool:
    """Consume one request; False at end of stream."""
    length, line = 0, rfile.readline()
    if not line:
        return False
    while line not in (b"\r\n", b""):
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
        line = rfile.readline()
    rfile.read(length)
    return True


@contextlib.contextmanager
def raw_server(mode: str, reply: bytes = _REPLY):
    """An HTTP/1.1 server on 127.0.0.1, one connection at a time, that
    answers each POST with `reply` (by default {"ok": true}, without
    Connection: close). Modes: "keep-alive" serves any number of requests
    per connection, "close-after-reply" closes each connection after one
    reply, "close-before-reply" closes it after reading the request, and
    "reply-first" sends the reply as soon as it accepts, reads nothing and
    closes once the client has. A connection the client resets is dropped.
    Yields (url, counts of connections and requests)."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    counts = {"connections": 0, "requests": 0}
    stop = threading.Event()

    def serve():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            counts["connections"] += 1
            conn.settimeout(10)
            with conn, conn.makefile("rb") as rfile, contextlib.suppress(OSError):
                if mode == "reply-first":
                    conn.sendall(reply)
                    while conn.recv(65536):
                        pass
                while _read_request(rfile):
                    counts["requests"] += 1
                    if mode == "close-before-reply":
                        break
                    conn.sendall(reply)
                    if mode == "close-after-reply":
                        break

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{listener.getsockname()[1]}/v1/x", counts
    finally:
        stop.set()
        thread.join(timeout=10)
        listener.close()
    assert not thread.is_alive()


@pytest.fixture
def sleeps(monkeypatch):
    """The backoff sleeps post_json asks for, none of them taken."""
    asked = []
    monkeypatch.setattr(time, "sleep", asked.append)
    return asked


def test_post_json_reuses_a_keep_alive_connection(sleeps):
    with raw_server("keep-alive") as (url, counts):
        with contextlib.closing(ConnectionPool(retries=0, timeout=30.0, backoff=0.5)) as pool:
            for _ in range(5):
                assert post_json(pool, url, {"model": "m"}) == {"ok": True}
    assert counts == {"connections": 1, "requests": 5}
    assert sleeps == []


def test_post_json_reopens_a_dropped_keep_alive(sleeps):
    # each reused connection is found closed: reopened at once, not retried
    with raw_server("close-after-reply") as (url, counts):
        with contextlib.closing(ConnectionPool(retries=0, timeout=30.0, backoff=0.5)) as pool:
            for _ in range(5):
                assert post_json(pool, url, {"model": "m"}) == {"ok": True}
    assert counts == {"connections": 5, "requests": 5}
    assert sleeps == []


def test_post_json_failure_on_a_fresh_connection_is_a_retry(sleeps):
    with raw_server("close-before-reply") as (url, counts):
        with contextlib.closing(ConnectionPool(retries=2, timeout=30.0, backoff=0.5)) as pool:
            with pytest.raises(BackendUnavailable):
                post_json(pool, url, {"model": "m"})
    assert counts == {"connections": 3, "requests": 3}
    assert sleeps == [0.5, 1.0]


# each URL that load_config refuses as an endpoint: a scheme other than http(s),
# a port out of range or not a number, an unclosed IPv6 bracket
@pytest.mark.parametrize("url", [
    "ftp://127.0.0.1/v1/x",
    "http://127.0.0.1:99999/v1/x",
    "http://127.0.0.1:8a/v1",
    "http://[::1/v1/x",
    "http://ä..b/v1/x",  # a host with an empty label, which IDNA cannot encode
])
def test_post_json_rejects_a_url_that_is_not_http(sleeps, url):
    with contextlib.closing(ConnectionPool(retries=0, timeout=30.0, backoff=0.5)) as pool:
        with pytest.raises(BackendUnavailable, match="not an http"):
            post_json(pool, url, {"model": "m"})


def test_endpoint_gives_the_connection_key_and_the_request_target():
    # the host as the Host header and the socket take it: lower case, IDNA
    assert annotator._endpoint("http://Bücher.example:8080/v1?x=1") == (
        ("http", "xn--bcher-kva.example", 8080), "/v1?x=1")
    assert annotator._endpoint("https://[::1]") == (("https", "::1", None), "/")


_HEAD = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"


@pytest.mark.parametrize("mode, reply, connections", [
    ("keep-alive", _HEAD + b"Transfer-Encoding: chunked\r\n\r\n5;ext=1\r\n{\"ok\"\r\n"
     b"5\r\n: tru\r\n2\r\ne}\r\n0\r\nX-Trailer: 1\r\n\r\n", 1),
    ("keep-alive", b"HTTP/1.1 100 Continue\r\nX-Interim: 1\r\n\r\n" + _REPLY, 1),
    # no Content-Length: the body ends with the stream
    ("close-after-reply", _HEAD + b"\r\n{\"ok\": true}", 3),
    # the server would serve more requests on the connection, but the reply
    # said close (or was HTTP/1.0), so each call opens a new one
    ("keep-alive", _HEAD + b"Connection: close\r\nContent-Length: 12\r\n\r\n{\"ok\": true}", 3),
    ("keep-alive", b"HTTP/1.0 200 OK\r\nContent-Length: 12\r\n\r\n{\"ok\": true}", 3),
], ids=["chunked", "interim-100", "delimited-by-close", "connection-close", "http-1.0"])
def test_post_json_reads_each_reply_framing(sleeps, mode, reply, connections):
    with raw_server(mode, reply) as (url, counts):
        with contextlib.closing(ConnectionPool(retries=0, timeout=30.0, backoff=0.5)) as pool:
            for _ in range(3):
                assert post_json(pool, url, {"model": "m"}) == {"ok": True}
    assert counts == {"connections": connections, "requests": 3}
    assert sleeps == []


@pytest.mark.parametrize("reply, mode, error", [
    (b"HTTP/1.1 OK\r\n\r\n", "keep-alive", "malformed status line"),
    (b"ICY 200 OK\r\n\r\n", "keep-alive", "malformed status line"),
    (_HEAD + b"Content-Length: 40\r\n\r\n{\"ok\": true}", "close-after-reply", "cut short"),
    (_HEAD + b"Transfer-Encoding: chunked\r\n\r\nzz\r\n", "close-after-reply", "chunk size"),
    # lengths past any allocation: refused, not read
    (_HEAD + b"Content-Length: %d\r\n\r\n{}" % 10**20, "close-after-reply",
     "reply body of 100000000000000000000 bytes announced"),
    (_HEAD + b"Transfer-Encoding: chunked\r\n\r\n%x\r\n{}\r\n" % 10**20, "close-after-reply",
     "chunk size"),
    (_HEAD + b"X-Long: " + b"a" * 65536 + b"\r\n\r\n", "keep-alive", "header line longer"),
    (_HEAD + b"X-Many: 1\r\n" * 100 + b"\r\n", "keep-alive", "more than 100 header"),
])
def test_post_json_retries_a_malformed_reply(sleeps, reply, mode, error):
    with raw_server(mode, reply) as (url, counts):
        with contextlib.closing(ConnectionPool(retries=2, timeout=30.0, backoff=0.5)) as pool:
            with pytest.raises(BackendUnavailable, match=error):
                post_json(pool, url, {"model": "m"})
    assert counts == {"connections": 3, "requests": 3}
    assert sleeps == [0.5, 1.0]


@pytest.mark.parametrize("status", [b"503 Service Unavailable", b"429 Too Many Requests"])
def test_post_json_retries_a_busy_or_failing_backend(sleeps, status):
    reply = b"HTTP/1.1 " + status + b"\r\nContent-Length: 4\r\n\r\nbusy"
    with raw_server("keep-alive", reply) as (url, counts):
        with contextlib.closing(ConnectionPool(retries=2, timeout=30.0, backoff=0.5)) as pool:
            with pytest.raises(BackendUnavailable,
                               match=f"HTTP {status[:3].decode()}: error body of 4 bytes"):
                post_json(pool, url, {"model": "m"})
    assert counts["requests"] == 3
    assert sleeps == [0.5, 1.0]


@pytest.mark.parametrize("status, raised", [(b"400 Bad Request", BadStatus),
                                            (b"503 Service Unavailable", BackendUnavailable)])
def test_a_refused_reply_is_named_by_status_and_body_length(sleeps, status, raised):
    # a server may echo the refused request, corpus text and all, in its error body
    body = b'{"error": "cannot parse: I have not slept CANARY"}'
    reply = b"HTTP/1.1 %s\r\nContent-Length: %d\r\n\r\n%s" % (status, len(body), body)
    with raw_server("keep-alive", reply) as (url, counts):
        with contextlib.closing(ConnectionPool(retries=2, timeout=30.0, backoff=0.5)) as pool:
            with pytest.raises(raised) as excinfo:
                annotator.chat(ModelBackend("m", url), "I have not slept CANARY", pool)
    message = str(excinfo.value)
    assert f"HTTP {status[:3].decode()}: error body of {len(body)} bytes" in message
    assert "CANARY" not in message and "slept" not in message
    assert counts["requests"] == (1 if raised is BadStatus else 3)


@pytest.mark.parametrize("reply, error", [
    (b"CANARY slept 200 OK\r\n\r\n", "malformed status line of 21 bytes"),
    (_HEAD + b"Transfer-Encoding: chunked\r\n\r\nCANARY slept\r\n",
     "malformed chunk size line of 14 bytes"),
], ids=["status-line", "chunk-size-line"])
def test_a_malformed_reply_is_named_by_its_line_length(sleeps, reply, error):
    # a line that is not HTTP may be the reply's text, so it is not quoted
    with raw_server("close-after-reply", reply) as (url, counts):
        with contextlib.closing(ConnectionPool(retries=0, timeout=30.0, backoff=0.5)) as pool:
            with pytest.raises(BackendUnavailable) as excinfo:
                post_json(pool, url, {"model": "m"})
    assert error in str(excinfo.value)
    assert "CANARY" not in str(excinfo.value)


@pytest.mark.parametrize("body", [
    {},
    {"choices": []},
    {"choices": [{"message": {"content": None}}]},
    {"choices": [{"message": {"content": 5}}]},
    {"choices": [{"message": {"content": ["CANARY patient words"]}}]},
], ids=["no-choices", "empty-choices", "null-content", "number-content", "list-content"])
def test_chat_refuses_a_malformed_completion(monkeypatch, body):
    monkeypatch.setattr(annotator, "post_json", lambda *args: body)
    backend = ModelBackend("m", "http://127.0.0.1:9/v1/chat/completions")
    with pytest.raises(BadStatus, match="malformed completion payload") as raised:
        annotator.chat(backend, "prompt", pool=None)
    assert "CANARY" not in str(raised.value)  # a reply may echo the text it was asked about


def test_post_json_https_to_a_plain_http_server_is_a_retried_transport_error(sleeps):
    # the TLS handshake reads an HTTP reply where it expects a TLS record
    with raw_server("reply-first") as (url, counts):
        with contextlib.closing(ConnectionPool(retries=1, timeout=30.0, backoff=0.5)) as pool:
            with pytest.raises(BackendUnavailable, match="SSL"):
                post_json(pool, url.replace("http://", "https://"), {"model": "m"})
    assert counts == {"connections": 2, "requests": 0}
    assert sleeps == [0.5]


@pytest.mark.parametrize("url, target, host", [
    ("http://127.0.0.1:8080/v1/x?a=1", b"/v1/x?a=1", b"127.0.0.1:8080"),
    ("http://LocalHost:80", b"/", b"localhost"),
    ("https://example.org:443/v1/x", b"/v1/x", b"example.org"),
    ("https://example.org:8443/v1/x", b"/v1/x", b"example.org:8443"),
    ("http://[::1]:9000/v1/x", b"/v1/x", b"[::1]:9000"),
])
def test_post_json_sends_the_request_in_one_write(monkeypatch, url, target, host):
    # the head as http.client sends it: Host, Accept-Encoding, Content-Length,
    # then the caller's headers
    sent = []

    class Socket:
        sendall = sent.append

        def close(self):
            pass

    monkeypatch.setenv("STUB_TOKEN", "secret")
    pool = ConnectionPool(retries=0, timeout=30.0, backoff=0.5)
    monkeypatch.setattr(pool, "_connect", lambda key: (Socket(), io.BytesIO(_REPLY)))
    assert post_json(pool, url, {"model": "m"}, "STUB_TOKEN") == {"ok": True}
    body = b'{"model": "m"}'
    assert sent == [b"POST " + target + b" HTTP/1.1\r\nHost: " + host +
                    b"\r\nAccept-Encoding: identity\r\nContent-Length: %d\r\n"
                    b"Content-Type: application/json\r\nAuthorization: Bearer secret\r\n\r\n"
                    % len(body) + body]


def test_post_json_refuses_a_line_break_in_a_header(monkeypatch):
    monkeypatch.setenv("STUB_TOKEN", "secret\r\nX-Injected: 1")
    pool = ConnectionPool(retries=0, timeout=30.0, backoff=0.5)
    monkeypatch.setattr(pool, "_connect", lambda key: pytest.fail("connected"))
    with pytest.raises(ValueError, match="line break"):
        post_json(pool, "http://127.0.0.1:9/v1/x", {"model": "m"}, "STUB_TOKEN")


# --------------------------------------------------------- annotate_corpus

def corpus_two():
    return [
        TextItem("t1", "Cannot sleep and cannot eat.", "g1"),
        TextItem("t2", "All fine here.", "g2"),
    ]


def fixture_for(topics, corpus, models, answer_fn):
    entries = []
    for model in models:
        for item in corpus:
            prompt = build_prompt(topics, item)
            answers = [
                (leaf.short_name, *answer_fn(model, item.id, leaf.short_name))
                for leaf in topics.leaves()
            ]
            entries.append(
                {"model": model, "prompt": prompt, "response": format_response(answers)}
            )
    return entries


def annotated(*args, **kwargs) -> dict:
    """annotate_corpus's stream as {(model, text_id, topic): annotation}."""
    return {(a.model, a.text_id, a.topic): a for a in annotate_corpus(*args, **kwargs)}


def test_annotate_corpus_cardinality(tmp_path, stub_server, two_topics, pool):
    corpus = corpus_two()
    models = ["m1", "m2", "m3"]
    entries = fixture_for(
        two_topics, corpus, models,
        lambda model, tid, topic: (tid == "t1", ["cannot sleep"] if tid == "t1" else []),
    )
    server = stub_server(chat_doc(entries))
    backends = [backend_for(server, name) for name in models]
    cache = ResponseCache(tmp_path)
    matrix = annotated(corpus, two_topics, backends, cache, pool)
    assert len(matrix) == 12
    assert matrix["m1", "t1", "sleep"].label is True
    assert matrix["m2", "t2", "appetite"].label is False

    calls_before = server.call_count
    warm = annotated(corpus, two_topics, backends, cache, pool)
    assert warm == matrix
    assert server.call_count == calls_before


def test_annotate_corpus_requires_two_backends(tmp_path, stub_server, two_topics, pool):
    server = stub_server(chat_doc([]))
    with pytest.raises(ValueError):
        annotate_corpus(
            corpus_two(), two_topics, [backend_for(server)], ResponseCache(tmp_path), pool
        )


def test_annotate_corpus_rejects_duplicate_backend_names(tmp_path, stub_server, two_topics, pool):
    server = stub_server(chat_doc([]))
    backends = [backend_for(server, "same"), backend_for(server, "same")]
    with pytest.raises(ValueError):
        annotate_corpus(corpus_two(), two_topics, backends, ResponseCache(tmp_path), pool)


def test_annotate_corpus_subtopic_leaves(tmp_path, stub_server, nested_topics, pool):
    corpus = [TextItem("t1", "Some text.")]
    models = ["m1", "m2"]
    entries = fixture_for(
        nested_topics, corpus, models, lambda model, tid, topic: (False, [])
    )
    server = stub_server(chat_doc(entries))
    backends = [backend_for(server, name) for name in models]
    matrix = annotated(corpus, nested_topics, backends, ResponseCache(tmp_path), pool)
    assert len(matrix) == 2 * 1 * 3  # leaves: friction_blame, friction_dismiss, sleep
    assert matrix["m1", "t1", "friction_blame"].label is False


def test_annotate_corpus_retry_with_reminder(tmp_path, stub_server, two_topics, pool):
    corpus = [TextItem("t1", "Cannot sleep.")]
    models = ["m1", "m2"]
    entries = fixture_for(
        two_topics, corpus, models, lambda model, tid, topic: (False, [])
    )
    # m1 answers garbage first, then correctly once reminded
    prompt = build_prompt(two_topics, corpus[0])
    entries = [e for e in entries if e["model"] != "m1" or e["prompt"] != prompt]
    entries.append({"model": "m1", "prompt": prompt, "response": "whatever"})
    entries.append(
        {
            "model": "m1",
            "prompt": prompt + "\nAnswer strictly in the required format.",
            "response": "(1) sleep: yes, related phrases: 'cannot sleep'\n(2) appetite: no",
        }
    )
    server = stub_server(chat_doc(entries))
    backends = [backend_for(server, name) for name in models]
    matrix = annotated(corpus, two_topics, backends, ResponseCache(tmp_path), pool)
    assert matrix["m1", "t1", "sleep"].label is True
    assert not matrix["m1", "t1", "sleep"].parse_warning


def test_annotate_corpus_failure_budget(tmp_path, stub_server, two_topics, pool):
    corpus = [TextItem("t1", "Text one."), TextItem("t2", "Text two.")]
    models = ["m1", "m2"]
    entries = fixture_for(
        two_topics, corpus, models, lambda model, tid, topic: (False, [])
    )
    # m1 is hopeless on t1, including the reminder retry
    prompt = build_prompt(two_topics, corpus[0])
    entries = [e for e in entries if e["model"] != "m1" or e["prompt"] != prompt]
    entries.append({"model": "m1", "prompt": prompt, "response": "gibberish"})
    entries.append(
        {
            "model": "m1",
            "prompt": prompt + "\nAnswer strictly in the required format.",
            "response": "still gibberish",
        }
    )
    server = stub_server(chat_doc(entries))
    backends = [backend_for(server, name) for name in models]
    with pytest.raises(FailureBudgetExceeded):
        annotated(corpus, two_topics, backends, ResponseCache(tmp_path), pool)
    # a generous budget instead fails the cells conservatively
    matrix = annotated(
        corpus, two_topics, backends, ResponseCache(tmp_path), pool, failure_budget=0.5
    )
    failed = matrix["m1", "t1", "sleep"]
    assert failed.label is False
    assert failed.parse_warning


def test_annotate_corpus_failure_budget_counts_every_backend_together(
        tmp_path, stub_server, two_topics, pool):
    corpus = corpus_two()
    models = ["m1", "m2"]
    # m1 is hopeless on t1 and m2 on t2: 2 of 8 cells each, 4 of 8 together
    hopeless = {("m1", build_prompt(two_topics, corpus[0])),
                ("m2", build_prompt(two_topics, corpus[1]))}
    entries = [e for e in fixture_for(two_topics, corpus, models,
                                      lambda model, tid, topic: (False, []))
               if (e["model"], e["prompt"]) not in hopeless]
    for model, prompt in hopeless:
        for asked in (prompt, prompt + "\n" + annotator.FORMAT_REMINDER):
            entries.append({"model": model, "prompt": asked, "response": "gibberish"})
    server = stub_server(chat_doc(entries))
    backends = [backend_for(server, name) for name in models]
    for _ in ("cold", "warm"):
        rows = []
        with pytest.raises(FailureBudgetExceeded, match=r"^4/8 cells"):
            for row in annotate_corpus(corpus, two_topics, backends, ResponseCache(tmp_path),
                                       pool, failure_budget=0.3):
                rows.append(row)
        # the failing window of m2 yields no row before the stream raises
        assert {row.model for row in rows} == {"m1"} and len(rows) == 4


def test_annotate_corpus_stores_a_window_in_one_transaction(tmp_path, stub_server,
                                                            two_topics, monkeypatch, pool):
    corpus = corpus_two()
    models = ["m1", "m2", "m3"]
    server = stub_server(chat_doc(fixture_for(
        two_topics, corpus, models, lambda model, tid, topic: (False, []))))
    backends = [backend_for(server, name) for name in models]
    writes = []
    real_write = ResponseCache.write

    def counting_write(self, items):
        items = list(items)
        writes.append(len(items))
        return real_write(self, items)

    monkeypatch.setattr(ResponseCache, "write", counting_write)
    cache = ResponseCache(tmp_path)
    annotated(corpus, two_topics, backends, cache, pool)
    assert writes == [2, 2, 2]  # each backend's two responses, fewer than WINDOW: one transaction
    annotated(corpus, two_topics, backends, cache, pool)
    assert writes == [2, 2, 2] and server.call_count == 6  # a warm run writes nothing


def test_annotate_corpus_stores_what_arrived_before_a_failure(tmp_path, stub_server,
                                                              two_topics, pool):
    corpus = corpus_two()
    entries = fixture_for(two_topics, corpus, ["m1", "m2"],
                          lambda model, tid, topic: (False, []))
    last = build_prompt(two_topics, corpus[1])
    partial = [e for e in entries if (e["model"], e["prompt"]) != ("m2", last)]
    server = stub_server(chat_doc(partial))
    # one worker per backend: m2's lane asks for t1 before the failing t2, and
    # m1's calls race the failure, which stops the ones not yet made
    backends = [replace(backend_for(server, name), parallelism=1) for name in ("m1", "m2")]
    with pytest.raises(BadStatus):
        annotated(corpus, two_topics, backends, ResponseCache(tmp_path), pool)
    answered = server.call_count - 1  # every request but the failing one
    assert 1 <= answered <= 3
    full = stub_server(chat_doc(entries))
    backends = [replace(b, endpoint=full.chat_url) for b in backends]
    matrix = annotated(corpus, two_topics, backends, ResponseCache(tmp_path), pool)
    assert len(matrix) == 8
    assert full.call_count == 4 - answered  # the answers that arrived were stored


def test_annotate_corpus_many_workers_lose_nothing(tmp_path, stub_server, two_topics, pool):
    # 16 workers fill shared per-window lists over two windows, switching
    # threads every microsecond
    corpus = [TextItem(f"t{i}", f"Text number {i}.") for i in range(150)]
    server = stub_server(chat_doc(fixture_for(
        two_topics, corpus, ["m1", "m2"],
        lambda model, tid, topic: (topic == "sleep", [f"{model} {tid}"]))))
    backends = [replace(backend_for(server, name), parallelism=8) for name in ("m1", "m2")]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        matrix = annotated(corpus, two_topics, backends, ResponseCache(tmp_path), pool)
    finally:
        sys.setswitchinterval(interval)
    assert server.call_count == 300
    assert all(matrix[m, item.id, "sleep"].phrases == (f"{m} {item.id}",)
               for m in ("m1", "m2") for item in corpus)
    warm = annotated(corpus, two_topics, backends, ResponseCache(tmp_path), pool)
    assert warm == matrix and server.call_count == 300  # every response was stored


def test_annotate_corpus_keeps_each_backend_within_its_parallelism(tmp_path, monkeypatch,
                                                                   two_topics, pool):
    # a chat with latency, over two windows of texts: each backend has as many
    # requests in flight as its parallelism allows and never more
    monkeypatch.setattr(annotator, "WINDOW", 12)
    corpus = [TextItem(f"t{i}", f"Text number {i}") for i in range(20)]
    backends = [ModelBackend(f"m{n}", "http://127.0.0.1:9/v1/chat/completions",
                             parallelism=n) for n in (1, 2, 3)]
    lock = threading.Lock()
    now, most = Counter(), Counter()

    def slow_chat(backend, prompt, pool):
        with lock:
            now[backend.name] += 1
            most[backend.name] = max(most[backend.name], now[backend.name])
        time.sleep(0.02)
        with lock:
            now[backend.name] -= 1
        text = prompt.rsplit("`", 2)[1]  # the paragraph, as the phrase
        return format_response([("sleep", True, [f"{backend.name} {text}"]),
                                ("appetite", False, [])])

    monkeypatch.setattr(annotator, "chat", slow_chat)
    writes = Counter()  # transactions by (backend, number of answers)
    real_write = ResponseCache.write

    def counting_write(self, items):
        items = list(items)
        writes.update({(owner[key], len(items)) for key, _ in items})
        return real_write(self, items)

    monkeypatch.setattr(ResponseCache, "write", counting_write)
    with contextlib.closing(ResponseCache(tmp_path)) as cache:
        owner = {cache.key(b, build_prompt(two_topics, item)): b.name
                 for b in backends for item in corpus}
        stream = list(annotate_corpus(corpus, two_topics, backends, cache, pool))
    assert most == {"m1": 1, "m2": 2, "m3": 3}
    assert [(a.model, a.text_id, a.topic) for a in stream] == [
        (b.name, item.id, topic) for b in backends for item in corpus
        for topic in ("sleep", "appetite")]
    assert all(a.phrases == (f"{a.model} {item.text}",)
               for a, item in zip(stream[::2], corpus * 3))
    # a transaction once a backend's lane holds WINDOW arrived answers, then one
    # for the rest, each holding that backend's answers only
    assert writes == {(b.name, size): 1 for b in backends for size in (12, 8)}


def test_a_lane_starts_only_the_workers_its_texts_can_use(tmp_path, monkeypatch,
                                                          two_topics, pool):
    # 2 texts x 2 backends at parallelism 16: the calling thread runs one lane
    # and starts a thread for the other, and each lane asks on its own thread
    # and at most one worker more, not 15 more
    corpus = [TextItem(f"t{i}", f"Text number {i}") for i in range(2)]
    backends = [ModelBackend(f"m{n}", "http://127.0.0.1:9/v1/chat/completions",
                             parallelism=16) for n in range(2)]
    monkeypatch.setattr(annotator, "chat", lambda backend, prompt, pool: format_response(
        [("sleep", False, []), ("appetite", False, [])]))
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: started.append(thread) or start(thread))
    with contextlib.closing(ResponseCache(tmp_path)) as cache:
        rows = list(annotate_corpus(corpus, two_topics, backends, cache, pool))
    assert len(rows) == 2 * 2 * 2
    assert 0 < len(started) <= (2 - 1) + 2 * 1  # lanes, then 1 worker thread per lane


def canned_chat(delay, answer=None):
    """A stand-in for annotator.chat that answers after `delay(backend)`
    seconds and records each backend's calls and its most calls in flight."""
    lock = threading.Lock()
    calls, now, most = Counter(), Counter(), Counter()

    def chat(backend, prompt, pool):
        with lock:
            calls[backend.name] += 1
            now[backend.name] += 1
            most[backend.name] = max(most[backend.name], now[backend.name])
        time.sleep(delay(backend))
        with lock:
            now[backend.name] -= 1
        if answer is not None:
            return answer(backend)
        return format_response([("sleep", True, []), ("appetite", False, [])])

    return chat, calls, most


def test_annotate_corpus_keeps_every_backend_busy_at_once(tmp_path, monkeypatch,
                                                          two_topics, pool):
    # three backends at a 20 ms latency: the wall time is the slowest
    # backend's, not the sum over backends
    corpus = [TextItem(f"t{i}", f"Text number {i}") for i in range(60)]
    backends = [ModelBackend(f"m{n}", "http://127.0.0.1:9/v1/chat/completions",
                             parallelism=2) for n in range(3)]
    chat, calls, most = canned_chat(lambda backend: 0.02)
    monkeypatch.setattr(annotator, "chat", chat)
    with contextlib.closing(ResponseCache(tmp_path)) as cache:
        start = time.perf_counter()
        stream = list(annotate_corpus(corpus, two_topics, backends, cache, pool))
        wall = time.perf_counter() - start
    slowest = len(corpus) / 2 * 0.02
    assert len(stream) == 3 * 60 * 2
    assert wall <= 1.5 * slowest, f"{wall:.2f} s against {slowest:.2f} s"
    assert calls == {"m0": 60, "m1": 60, "m2": 60}
    assert most == {"m0": 2, "m1": 2, "m2": 2}


def test_annotate_corpus_asks_each_distinct_prompt_once(tmp_path, monkeypatch, two_topics,
                                                       pool):
    # t1 and t2 share a prompt: one call answers both, and they get the same rows
    corpus = [TextItem("t1", "Same text."), TextItem("t2", "Same text."),
              TextItem("t3", "Other.")]
    backends = [ModelBackend(name, "http://127.0.0.1:9/v1/chat/completions", parallelism=2)
                for name in ("m1", "m2")]
    chat, calls, _ = canned_chat(lambda backend: 0.0)
    monkeypatch.setattr(annotator, "chat", chat)
    with contextlib.closing(ResponseCache(tmp_path)) as cache:
        matrix = annotated(corpus, two_topics, backends, cache, pool)
    assert calls == {"m1": 2, "m2": 2}
    for model in ("m1", "m2"):
        for leaf in ("sleep", "appetite"):
            assert matrix[model, "t1", leaf]._replace(text_id="t2") == matrix[model, "t2", leaf]


def test_annotate_corpus_warm_rerun_repeats_the_cold_rows_when_sampling(tmp_path, monkeypatch,
                                                                        two_topics, pool):
    # at temperature 0.7 each call answers differently; repeated texts still
    # share one stored answer, so the warm rerun gives the cold run's rows
    corpus = [TextItem("t1", "Same text."), TextItem("t2", "Same text."),
              TextItem("t3", "Other.")]
    backends = [ModelBackend(name, "http://127.0.0.1:9/v1/chat/completions",
                             decoding=Decoding(temperature=0.7), parallelism=2)
                for name in ("m1", "m2")]
    made = Counter()
    lock = threading.Lock()

    def sampled(backend):
        with lock:
            made[backend.name] += 1
            yes = made[backend.name] % 2 == 1
        return format_response([("sleep", yes, ["awake"] if yes else []),
                                ("appetite", not yes, [])])

    chat, calls, _ = canned_chat(lambda backend: 0.0, sampled)
    monkeypatch.setattr(annotator, "chat", chat)
    with contextlib.closing(ResponseCache(tmp_path)) as cache:
        cold = list(annotate_corpus(corpus, two_topics, backends, cache, pool))
    cold_calls = dict(calls)
    with contextlib.closing(ResponseCache(tmp_path)) as cache:
        warm = list(annotate_corpus(corpus, two_topics, backends, cache, pool))
    assert warm == cold
    assert calls == cold_calls  # the warm rerun made no call


def test_annotate_corpus_builds_and_parses_through_the_module_names(tmp_path, monkeypatch,
                                                                  two_topics, pool):
    # pipebench's tracer times prompts and parsing by wrapping these two names
    # of the module: a warm rerun calls each once per answer through them
    corpus = [TextItem(f"t{i}", f"Text number {i}") for i in range(5)]
    backends = [ModelBackend(name, "http://127.0.0.1:9/v1/chat/completions")
                for name in ("m1", "m2", "m3")]
    chat, calls, _ = canned_chat(lambda backend: 0.0)
    monkeypatch.setattr(annotator, "chat", chat)
    with contextlib.closing(ResponseCache(tmp_path)) as cache:
        cold = list(annotate_corpus(corpus, two_topics, backends, cache, pool))
    seen = Counter()
    for name in ("build_prompt", "parse_response"):
        def counted(*args, real=getattr(annotator, name), name=name):
            seen[name] += 1
            return real(*args)

        monkeypatch.setattr(annotator, name, counted)
    with contextlib.closing(ResponseCache(tmp_path)) as cache:
        assert list(annotate_corpus(corpus, two_topics, backends, cache, pool)) == cold
    assert sum(calls.values()) == len(backends) * len(corpus)  # the cold run's only
    assert seen == {"build_prompt": 15, "parse_response": 15}


def test_a_later_backend_over_its_failure_budget_stops_the_run_early(tmp_path, monkeypatch,
                                                                     two_topics, pool):
    # m2 answers no topic line at all, also when reminded; its lane stops the
    # run while m1's pass is still going, not after m2's whole corpus
    monkeypatch.setattr(annotator, "WINDOW", 20)
    corpus = [TextItem(f"t{i}", f"Text number {i}") for i in range(600)]
    backends = [ModelBackend(name, "http://127.0.0.1:9/v1/chat/completions", parallelism=1)
                for name in ("m1", "m2")]
    chat, calls, _ = canned_chat(
        lambda backend: 0.002 if backend.name == "m1" else 0.0,
        lambda backend: "Sure." if backend.name == "m2" else format_response(
            [("sleep", False, []), ("appetite", False, [])]))
    monkeypatch.setattr(annotator, "chat", chat)
    with contextlib.closing(ResponseCache(tmp_path)) as cache:
        with pytest.raises(FailureBudgetExceeded):
            list(annotate_corpus(corpus, two_topics, backends, cache, pool, failure_budget=0.01))
    budget_texts = 0.01 * 2 * 600 * 2 / 2  # failed cells allowed, in texts of two leaves
    assert calls["m2"] <= 2 * (budget_texts + annotator.WINDOW)  # asked, then reminded
    assert calls["m1"] < len(corpus)


def drained(stream, timeout: float = 30.0) -> list:
    """The stream's rows, taken on a thread joined with a timeout, so that a
    deadlock fails the test instead of hanging it; re-raises its error."""
    out: dict = {}

    def take():
        try:
            out["rows"] = list(stream)
        except BaseException as exc:  # re-raised on the test's thread
            out["error"] = exc

    thread = threading.Thread(target=take, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"the stream did not end within {timeout} s"
    if "error" in out:
        raise out["error"]
    return out["rows"]


def paragraph_number(prompt: str) -> int:
    """i of a prompt for the text "Text number {i}." (reminded or not)."""
    return int(prompt.rsplit("`", 2)[1].split()[2].rstrip("."))


def test_a_slow_answer_holds_back_no_later_window(tmp_path, monkeypatch, two_topics, pool):
    # the first text of each window of 4 is held until its backend has 4 such
    # calls in flight, and the rest answer at once: a lane at parallelism 4
    # reaches 4 held calls only if it goes on with the next windows while the
    # earlier ones wait for their held answer
    monkeypatch.setattr(annotator, "WINDOW", 4)
    corpus = [TextItem(f"t{i}", f"Text number {i}.") for i in range(20)]
    backends = [ModelBackend(name, "http://127.0.0.1:9/v1/chat/completions", parallelism=4)
                for name in ("m1", "m2")]
    chat, calls, most = canned_chat(lambda backend: 0.0)
    lock = threading.Lock()
    held, most_held = Counter(), Counter()
    released = {b.name: threading.Event() for b in backends}

    def held_chat(backend, prompt, pool):
        if paragraph_number(prompt) % 4 == 0:
            with lock:
                held[backend.name] += 1
                most_held[backend.name] = max(most_held[backend.name], held[backend.name])
                if held[backend.name] == 4:
                    released[backend.name].set()
            released[backend.name].wait(10.0)
            # after the first wait, none: a lane that holds back later windows
            # fails on the count below, not on the drain's timeout
            released[backend.name].set()
            with lock:
                held[backend.name] -= 1
        return chat(backend, prompt, pool)

    monkeypatch.setattr(annotator, "chat", held_chat)
    with contextlib.closing(ResponseCache(tmp_path)) as cache:
        rows = drained(annotate_corpus(corpus, two_topics, backends, cache, pool))
    assert [(a.model, a.text_id) for a in rows[::2]] == [
        (b.name, item.id) for b in backends for item in corpus]
    assert calls == {"m1": 20, "m2": 20} and max(most.values()) <= 4
    assert most_held == {"m1": 4, "m2": 4}


def test_a_held_answer_holds_back_no_other_answer_from_the_store(tmp_path, monkeypatch,
                                                                 two_topics, pool):
    # each backend's call for text 0 waits until the answers for texts 1-3,
    # the rest of its window, are in the store: a lane that stored a window
    # only once all of its answers had arrived would keep them out
    monkeypatch.setattr(annotator, "WINDOW", 4)
    corpus = [TextItem(f"t{i}", f"Text number {i}.") for i in range(8)]
    backends = [ModelBackend(name, "http://127.0.0.1:9/v1/chat/completions", parallelism=2)
                for name in ("m1", "m2")]
    chat, calls, _ = canned_chat(lambda backend: 0.0)
    lock = threading.Lock()
    written: set[str] = set()
    rest: dict[str, set[str]] = {}  # each backend's keys of texts 1-3
    stored = {b.name: threading.Event() for b in backends}
    waited = {}  # whether the rest was stored when text 0's call went on
    real_write = ResponseCache.write

    def noting_write(self, items):
        items = list(items)
        real_write(self, items)
        with lock:
            written.update(key for key, _ in items)
            for name, keys in rest.items():
                if keys <= written:
                    stored[name].set()

    def held_chat(backend, prompt, pool):
        if paragraph_number(prompt) == 0:
            waited[backend.name] = stored[backend.name].wait(10.0)
        return chat(backend, prompt, pool)

    monkeypatch.setattr(ResponseCache, "write", noting_write)
    monkeypatch.setattr(annotator, "chat", held_chat)
    with contextlib.closing(ResponseCache(tmp_path)) as cache:
        rest.update({b.name: {cache.key(b, build_prompt(two_topics, item))
                              for item in corpus[1:4]} for b in backends})
        rows = drained(annotate_corpus(corpus, two_topics, backends, cache, pool))
    assert waited == {"m1": True, "m2": True}
    assert calls == {"m1": 8, "m2": 8} and len(rows) == 2 * 8 * 2


def test_a_lane_failing_while_the_ordered_pass_waits_stops_the_stream(tmp_path, monkeypatch,
                                                                     two_topics, pool,
                                                                     left_running):
    # m1's text 5 fails after 0.2 s while the ordered pass waits for m1's
    # second window: the stream raises that error, no lane is left running,
    # and every answer that arrived is in the store
    monkeypatch.setattr(annotator, "WINDOW", 4)
    corpus = [TextItem(f"t{i}", f"Text number {i}.") for i in range(12)]
    backends = [ModelBackend(name, "http://127.0.0.1:9/v1/chat/completions", parallelism=2)
                for name in ("m1", "m2")]
    answered = []

    def chat(backend, prompt, pool):
        if backend.name == "m1" and paragraph_number(prompt) == 5:
            time.sleep(0.2)
            raise BadStatus(503, "backend gone")
        answered.append((backend, prompt))
        return format_response([("sleep", False, []), ("appetite", False, [])])

    monkeypatch.setattr(annotator, "chat", chat)
    with contextlib.closing(ResponseCache(tmp_path)) as cache:
        rows = []
        start = time.perf_counter()
        before = set(threading.enumerate())
        with pytest.raises(BadStatus, match="backend gone"):
            rows.extend(drained(annotate_corpus(corpus, two_topics, backends, cache, pool),
                                timeout=10.0))
        assert time.perf_counter() - start < 5.0
        assert left_running(before) == []
        assert answered and None not in cache.read_many(
            [cache.key(backend, prompt) for backend, prompt in answered])


def test_a_prompt_in_flight_for_an_earlier_window_is_asked_once(tmp_path, monkeypatch,
                                                                 two_topics, pool):
    # t0 and t2 share a prompt, in windows 0 and 1 of 2 texts: window 1 is
    # read while t0's call is still in flight, and waits for that answer
    monkeypatch.setattr(annotator, "WINDOW", 2)
    corpus = [TextItem("t0", "Same text."), TextItem("t1", "Other."),
              TextItem("t2", "Same text."), TextItem("t3", "Third.")]
    backends = [ModelBackend(name, "http://127.0.0.1:9/v1/chat/completions", parallelism=2)
                for name in ("m1", "m2")]
    chat, calls, _ = canned_chat(lambda backend: 0.0)

    def held_chat(backend, prompt, pool):
        if "Same text." in prompt:
            time.sleep(0.1)
        return chat(backend, prompt, pool)

    monkeypatch.setattr(annotator, "chat", held_chat)
    with contextlib.closing(ResponseCache(tmp_path)) as cache:
        matrix = {(a.model, a.text_id, a.topic): a
                  for a in drained(annotate_corpus(corpus, two_topics, backends, cache, pool))}
    assert calls == {"m1": 3, "m2": 3}
    assert all(matrix[m, "t0", leaf]._replace(text_id="t2") == matrix[m, "t2", leaf]
               for m in ("m1", "m2") for leaf in ("sleep", "appetite"))


_FUZZ_TOPICS = TopicSet((Topic("sleep", "Sleep problems."), Topic("appetite", "Appetite changes.")))
_FUZZ_ANSWER = format_response([("sleep", True, ["awake"]), ("appetite", False, [])])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_annotate_corpus_lanes_under_random_windows_corpora_and_failures(left_running, data):
    # random windows, corpora with repeated texts, backends and answers:
    # paragraph v of backend n answers at once, after a format reminder, or
    # never with a topic line, and at most one call fails; some examples
    # switch threads every microsecond
    window = data.draw(st.integers(1, 8), "WINDOW")
    values = data.draw(st.lists(st.integers(0, 11), min_size=1, max_size=40), "texts")
    corpus = [TextItem(f"t{i}", f"Text number {v}.") for i, v in enumerate(values)]
    backends = [ModelBackend(f"m{n}", "http://127.0.0.1:9/v1/chat/completions",
                             parallelism=data.draw(st.integers(1, 4), f"parallelism m{n}"))
                for n in range(data.draw(st.integers(2, 3), "backends"))]
    kinds = data.draw(st.lists(st.lists(st.sampled_from(["ok", "reminded", "hopeless"]),
                                        min_size=12, max_size=12),
                               min_size=3, max_size=3), "answers")
    delays = data.draw(st.lists(st.sampled_from([0.0, 0.0005, 0.002]), min_size=12,
                                max_size=12), "delays")
    failing = data.draw(st.none() | st.tuples(st.sampled_from([b.name for b in backends]),
                                              st.integers(0, 11), st.booleans()), "failing")
    budget = data.draw(st.sampled_from([0.0, 0.2, 1.0]), "failure_budget")
    lock = threading.Lock()
    asked, arrived = Counter(), []

    def chat(backend, prompt, pool):
        v, reminded = paragraph_number(prompt), prompt.endswith(annotator.FORMAT_REMINDER)
        with lock:
            asked[backend.name, prompt] += 1
        time.sleep(delays[v])
        if failing == (backend.name, v, reminded):
            raise BadStatus(503, "backend gone")
        kind = kinds[int(backend.name[1:])][v]
        answer = _FUZZ_ANSWER if kind == ("reminded" if reminded else "ok") else "Sure."
        with lock:
            arrived.append((backend, prompt))
        return answer

    interval = sys.getswitchinterval()
    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as tmp:
        patch.setattr(annotator, "WINDOW", window)
        patch.setattr(annotator, "chat", chat)
        if data.draw(st.booleans(), "switch every microsecond"):
            sys.setswitchinterval(1e-6)
        try:
            with contextlib.closing(ResponseCache(tmp)) as cache:
                breached = False
                before = set(threading.enumerate())
                try:
                    rows = drained(annotate_corpus(corpus, _FUZZ_TOPICS, backends, cache,
                                                   None, failure_budget=budget))
                except BadStatus:
                    assert failing is not None
                    rows = None
                except FailureBudgetExceeded:
                    assert budget < 1.0
                    rows, breached = None, True
                assert left_running(before) == []
                assert set(asked.values()) == {1}  # no prompt asked twice
                assert None not in cache.read_many([cache.key(backend, prompt)
                                                    for backend, prompt in arrived])
                if rows is not None:
                    calls = sum(asked.values())
                    warm = drained(annotate_corpus(corpus, _FUZZ_TOPICS, backends, cache,
                                                   None, failure_budget=budget))
                    assert warm == rows and sum(asked.values()) == calls
                    assert [(a.model, a.text_id, a.topic) for a in rows] == [
                        (b.name, item.id, leaf) for b in backends for item in corpus
                        for leaf in ("sleep", "appetite")]
                if breached and failing is None:
                    # a lane stops no run that the ordered pass would let finish:
                    # with every answer stored, a warm run at that budget stops too
                    drained(annotate_corpus(corpus, _FUZZ_TOPICS, backends, cache, None,
                                            failure_budget=1.0))
                    calls = sum(asked.values())
                    with pytest.raises(FailureBudgetExceeded):
                        drained(annotate_corpus(corpus, _FUZZ_TOPICS, backends, cache, None,
                                                failure_budget=budget))
                    assert set(asked.values()) == {1} and sum(asked.values()) == calls
        finally:
            sys.setswitchinterval(interval)


def test_run_parallel_keeps_order_on_the_calling_thread_and_its_workers():
    # every item is taken once, in order, and one worker takes them on the
    # calling thread; run_parallel returns nothing
    received, threads = [], set()

    def record(x):
        threads.add(threading.get_ident())
        time.sleep(0.001)
        received.append(x)

    assert run_parallel(record, list(range(20)), 4) is None
    assert sorted(received) == list(range(20))
    assert threading.get_ident() in threads and len(threads) <= 4
    received.clear()
    threads.clear()
    run_parallel(record, [1, 2, 3], 1)
    assert received == [1, 2, 3]
    assert threads == {threading.get_ident()}  # one worker starts no thread
    received.clear()
    run_parallel(record, [], 4)
    assert received == []


def test_run_parallel_starts_no_call_after_the_first_failure():
    started = []

    def call(x):
        started.append(x)
        if x == 3:
            raise ValueError("boom")
        time.sleep(0.01)

    with pytest.raises(ValueError, match="boom"):
        run_parallel(call, list(range(100)), 2)
    assert 3 in started and len(started) <= 5  # items 0-3 and at most one more in flight


def test_run_parallel_takes_items_from_a_generator_in_order():
    # a generator is shared by the threads under a lock, so its items are
    # taken in order and each is called once; its exception stops them
    taken, received = [], []

    def items():
        for i in range(10):
            taken.append(i)
            yield i
        raise ValueError("no more")

    run_parallel(received.append, (taken.append(i) or i for i in range(10)), 3)
    assert taken == list(range(10)) and sorted(received) == taken
    taken.clear()
    received.clear()
    with pytest.raises(ValueError, match="no more"):
        run_parallel(received.append, items(), 3)
    assert taken == list(range(10)) and sorted(received) == taken


def test_run_parallel_waits_for_a_call_in_flight_when_interrupted(interrupted, left_running):
    # SIGINT lands while the calling thread waits for a worker's held call:
    # KeyboardInterrupt is raised only once that call has returned, and no
    # thread that run_parallel started is left running
    taken, returned = threading.Event(), []

    def call(x):
        if threading.current_thread() is threading.main_thread():
            taken.wait(5.0)  # until the worker holds the other item
            return
        taken.set()
        time.sleep(0.6)
        returned.append(time.perf_counter())

    before = set(threading.enumerate())
    error, ended = interrupted(lambda: run_parallel(call, [0, 1], 2), 0.2)
    assert isinstance(error, KeyboardInterrupt)
    assert len(returned) == 1 and returned[0] <= ended
    assert left_running(before) == []


def test_an_interrupt_waits_for_the_lanes_calls_in_flight_and_stores_their_answers(
        tmp_path, monkeypatch, two_topics, pool, interrupted, left_running):
    # 1 text x 2 backends at parallelism 1: the first call made on a thread
    # that annotate started is held 1.5 s, the other answers in 0.1 s (the
    # calling thread runs one lane, and its own call is the one an interrupt
    # cuts), and SIGINT lands at 0.4 s: annotate raises only once the held
    # answer has arrived, and both answers are in the store
    corpus = [TextItem("t0", "Text number 0.")]
    backends = [ModelBackend(f"m{n}", "http://127.0.0.1:9/v1/chat/completions",
                             parallelism=1) for n in range(2)]
    lock, held, arrived = threading.Lock(), [], {}

    def chat(backend, prompt, pool):
        with lock:
            hold = not held and threading.current_thread() is not threading.main_thread()
            held.extend([backend.name] * hold)
        time.sleep(1.5 if hold else 0.1)
        arrived[backend.name] = time.perf_counter()
        return format_response([("sleep", False, []), ("appetite", False, [])])

    monkeypatch.setattr(annotator, "chat", chat)
    with contextlib.closing(ResponseCache(tmp_path)) as cache:
        before = set(threading.enumerate())
        error, ended = interrupted(
            lambda: list(annotate_corpus(corpus, two_topics, backends, cache, pool)), 0.4)
        assert isinstance(error, KeyboardInterrupt)
        assert len(held) == 1 and sorted(arrived) == ["m0", "m1"]
        assert max(arrived.values()) <= ended
        assert left_running(before) == []
        prompt = build_prompt(two_topics, corpus[0])
        assert None not in cache.read_many([cache.key(b, prompt) for b in backends])
