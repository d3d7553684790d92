import contextlib
import socket
import sys
import threading
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

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
)
from topicensemble.corpus import TextItem, Topic, TopicSet
from topicensemble.errors import (
    BackendUnavailable,
    BadStatus,
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


def test_query_backend_distinct_decoding_distinct_keys(tmp_path, stub_server, pool):
    server = stub_server(chat_doc([{"model": "m1", "prompt": "hello", "response": "ok"}]))
    cache = ResponseCache(tmp_path)
    greedy, sampled = backend_for(server, temperature=0.0), backend_for(server, temperature=0.5)
    query_backend(greedy, "hello", cache, pool)
    query_backend(sampled, "hello", cache, pool)
    assert cache.key(greedy, "hello") != cache.key(sampled, "hello")
    assert cache.get(greedy, "hello")["content"] == cache.get(sampled, "hello")["content"] == "ok"
    assert server.call_count == 2


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
def raw_server(mode: str):
    """An HTTP/1.1 server on 127.0.0.1 that answers each POST with
    {"ok": true} and never sends Connection: close. Modes: "keep-alive"
    serves any number of requests per connection, "close-after-reply"
    closes each connection after one reply, "close-before-reply" closes it
    after reading the request. Yields (url, counts of connections and
    requests)."""
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
            with conn, conn.makefile("rb") as rfile:
                while _read_request(rfile):
                    counts["requests"] += 1
                    if mode == "close-before-reply":
                        break
                    conn.sendall(_REPLY)
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


def test_post_json_rejects_a_url_that_is_not_http(sleeps):
    with contextlib.closing(ConnectionPool(retries=0, timeout=30.0, backoff=0.5)) as pool:
        with pytest.raises(BackendUnavailable, match="not an http"):
            post_json(pool, "ftp://127.0.0.1/v1/x", {"model": "m"})


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
    assert writes == [2, 2, 2]  # each backend's window of two responses, one transaction
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
    # one worker per backend: the failing (m2, t2) request is the last to start
    backends = [replace(backend_for(server, name), parallelism=1) for name in ("m1", "m2")]
    with pytest.raises(BadStatus):
        annotated(corpus, two_topics, backends, ResponseCache(tmp_path), pool)
    assert server.call_count == 4
    full = stub_server(chat_doc(entries))
    backends = [replace(b, endpoint=full.chat_url) for b in backends]
    matrix = annotated(corpus, two_topics, backends, ResponseCache(tmp_path), pool)
    assert len(matrix) == 8
    assert full.call_count == 1  # the three answers that arrived were stored


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
    writes = []
    real_write = ResponseCache.write

    def counting_write(self, items):
        items = list(items)
        writes.append(len(items))
        return real_write(self, items)

    monkeypatch.setattr(ResponseCache, "write", counting_write)
    with contextlib.closing(ResponseCache(tmp_path)) as cache:
        stream = list(annotate_corpus(corpus, two_topics, backends, cache, pool))
    assert most == {"m1": 1, "m2": 2, "m3": 3}
    assert [(a.model, a.text_id, a.topic) for a in stream] == [
        (b.name, item.id, topic) for b in backends for item in corpus
        for topic in ("sleep", "appetite")]
    assert all(a.phrases == (f"{a.model} {item.text}",)
               for a, item in zip(stream[::2], corpus * 3))
    assert writes == [12, 8] * 3  # one transaction per backend's window
