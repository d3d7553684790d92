import hashlib
import math
import sys
import threading
import time
from contextlib import closing

import numpy as np
import pytest

from topicensemble.annotator import (
    ConnectionPool,
    ModelBackend,
    ResponseCache,
    TopicAnnotation,
    query_backend,
)
from topicensemble.corpus import Topic
from topicensemble.errors import BackendUnavailable, BadStatus, ZeroNormVector
from topicensemble import relevancy
from topicensemble.relevancy import (
    Embedder,
    EmbeddingBackend,
    aggregate_subtopics,
    cosine_similarity,
    relevancy_score,
    score_annotations,
    topic_baseline,
    truncate_words,
)


def unit(*values, dim=8):
    vec = np.zeros(dim)
    vec[: len(values)] = values
    return (vec / np.linalg.norm(vec)).tolist()


SLEEP = Topic("sleep", "Sleep problems, trouble falling asleep or staying asleep.")

# description along e0; empty string orthogonal => baseline 0
BASE_DOC = {
    "dimension": 8,
    "chat": [],
    "embeddings": {
        SLEEP.description: unit(1.0),
        "": unit(0.0, 0.0, 1.0),
        "lying awake": unit(0.43, math.sqrt(1 - 0.43**2)),
        "scared to talk": unit(0.22, math.sqrt(1 - 0.22**2)),
    },
}


def embedder_for(server, cache_dir, pool, **kwargs) -> Embedder:
    backend = EmbeddingBackend(name="emb-test", endpoint=server.embeddings_url, **kwargs)
    return Embedder(backend, ResponseCache(cache_dir), pool)


# -------------------------------------------------------------- truncation

def test_truncate_words():
    text = " ".join(f"w{i}" for i in range(500))
    truncated = truncate_words(text)
    assert truncated.split() == text.split()[:384]
    assert truncate_words(truncated) == truncated
    assert truncate_words("") == ""
    assert truncate_words("a  b\tc") == "a b c"


def test_embed_truncates_to_384_words(stub_server, tmp_path, pool):
    long_text = " ".join(f"w{i}" for i in range(500))
    truncated = truncate_words(long_text)
    doc = dict(BASE_DOC, embeddings={truncated: unit(0.0, 1.0)})
    embedder = embedder_for(stub_server(doc), tmp_path, pool)
    np.testing.assert_array_equal(
        embedder.embed(long_text), embedder.embed(truncated)
    )


# ------------------------------------------------------------------- embed

def test_embed_cache_hit_identical(stub_server, tmp_path, pool):
    server = stub_server(BASE_DOC)
    embedder = embedder_for(server, tmp_path, pool)
    first = embedder.embed("lying awake")
    calls = server.call_count
    second = embedder.embed("lying awake")
    assert server.call_count == calls
    np.testing.assert_array_equal(first, second)
    # stored under the backend's prefix as little-endian float32
    key = "emb/emb-test/" + hashlib.sha256(b"lying awake").hexdigest()
    assert embedder.cache.read(key) == first.astype("<f4").tobytes()


def test_second_store_reads_what_the_first_wrote(stub_server, tmp_path, pool):
    chat = {"model": "m1", "prompt": "hello", "response": "(1) sleep: no"}
    server = stub_server(dict(BASE_DOC, chat=[chat]))
    backend = ModelBackend(name="m1", endpoint=server.chat_url)
    emb = EmbeddingBackend(name="emb-test", endpoint=server.embeddings_url)
    first, second = ResponseCache(tmp_path), ResponseCache(tmp_path)
    answer = query_backend(backend, "hello", first, pool)
    vector = Embedder(emb, first, pool).embed("lying awake")
    calls = server.call_count
    again = query_backend(backend, "hello", second, pool)
    assert again.from_cache
    assert (again.content, again.retrieved_at) == (answer.content, answer.retrieved_at)
    np.testing.assert_array_equal(Embedder(emb, second, pool).embed("lying awake"), vector)
    assert server.call_count == calls
    first.close()
    second.close()
    assert [p.name for p in tmp_path.iterdir()] == ["cache.sqlite"]


def test_embed_empty_string_valid(stub_server, tmp_path, pool):
    embedder = embedder_for(stub_server(BASE_DOC), tmp_path, pool)
    vec = embedder.embed("")
    assert vec.shape == (8,)
    assert np.isfinite(vec).all()


def test_embed_many_batches(stub_server, tmp_path, pool):
    server = stub_server(BASE_DOC)
    embedder = embedder_for(server, tmp_path, pool, batch_size=2)
    texts = [SLEEP.description, "", "lying awake", "scared to talk", "lying awake"]
    vectors = embedder.embed_many(texts)
    assert len(vectors) == 5
    np.testing.assert_array_equal(vectors[2], vectors[4])
    assert server.call_count == 2  # 4 unique misses in batches of 2


def test_embed_unavailable(tmp_path):
    backend = EmbeddingBackend(name="e", endpoint="http://127.0.0.1:9/v1/embeddings")
    with closing(ConnectionPool(retries=1, timeout=30.0, backoff=0.01)) as pool:
        embedder = Embedder(backend, ResponseCache(tmp_path), pool)
        with pytest.raises(BackendUnavailable):
            embedder.embed("anything")


def test_embed_dimension_must_stay_constant(stub_server, tmp_path, pool):
    doc = {
        "dimension": 8,
        "chat": [],
        "embeddings": {"eight": unit(1.0), "three": [1.0, 0.0, 0.0]},
    }
    # fixture validation would catch this; bypass it to exercise the client
    from topicensemble.stubserver import Fixture, serve

    fixture = Fixture(chat={}, embeddings=doc["embeddings"], dimension=8)
    server = serve(fixture)
    try:
        embedder = embedder_for(server, tmp_path, pool)
        embedder.embed("eight")
        with pytest.raises(BadStatus):
            embedder.embed("three")
    finally:
        server.stop()


# ------------------------------------------------------------------ cosine

def test_cosine_identities():
    v = np.array([0.3, 0.4, 0.0])
    assert cosine_similarity(v, v) == pytest.approx(1.0)
    assert cosine_similarity([1, 0], [0, 1]) == pytest.approx(0.0)
    assert cosine_similarity([1, 2], [-1, -2]) == pytest.approx(-1.0)


def test_cosine_zero_norm():
    with pytest.raises(ZeroNormVector):
        cosine_similarity([0.0, 0.0], [1.0, 0.0])


def test_cosine_dimension_mismatch():
    with pytest.raises(ValueError):
        cosine_similarity([1.0, 0.0], [1.0, 0.0, 0.0])


# ---------------------------------------------------------------- baseline

def test_topic_baseline_stable_and_recomputable(stub_server, tmp_path, pool):
    server = stub_server(BASE_DOC)
    embedder = embedder_for(server, tmp_path, pool)
    first = topic_baseline(SLEEP, embedder)
    assert first == topic_baseline(SLEEP, embedder)
    # recompute from scratch against the live backend after a cache clear
    embedder.cache.close()
    (tmp_path / "cache.sqlite").unlink()
    calls = server.call_count
    again = topic_baseline(SLEEP, embedder_for(server, tmp_path, pool))
    assert server.call_count > calls
    assert again == pytest.approx(first, abs=1e-6)


def test_identical_descriptions_identical_baseline(stub_server, tmp_path, pool):
    embedder = embedder_for(stub_server(BASE_DOC), tmp_path, pool)
    other = Topic("sleep2", SLEEP.description)
    assert topic_baseline(SLEEP, embedder) == topic_baseline(other, embedder)


# ------------------------------------------------------------------- score

def annotation(phrases, label=True):
    return TopicAnnotation(
        model="m1", text_id="t1", topic="sleep", label=label, phrases=tuple(phrases)
    )


def test_relevancy_score_max_of_phrases(stub_server, tmp_path, pool):
    embedder = embedder_for(stub_server(BASE_DOC), tmp_path, pool)
    record = relevancy_score(
        annotation(["lying awake", "scared to talk"]), SLEEP, embedder
    )
    sims = [s.raw_sim for s in record.per_phrase_sims]
    assert sims == pytest.approx([0.43, 0.22], abs=1e-6)
    assert record.baseline == pytest.approx(0.0, abs=1e-6)
    assert record.score == pytest.approx(0.43, abs=1e-6)
    assert not record.potential_false_positive


def test_relevancy_score_subtracts_baseline(stub_server, tmp_path, pool):
    doc = {
        "dimension": 8,
        "chat": [],
        "embeddings": {
            SLEEP.description: unit(1.0),
            "": unit(0.6, 0.8),  # baseline 0.6 against the description
            "phrase high": unit(0.9, math.sqrt(1 - 0.81)),
            "phrase low": unit(0.3, math.sqrt(1 - 0.09)),
        },
    }
    embedder = embedder_for(stub_server(doc), tmp_path, pool)
    record = relevancy_score(annotation(["phrase high", "phrase low"]), SLEEP, embedder)
    assert record.baseline == pytest.approx(0.6, abs=1e-6)
    assert record.score == pytest.approx(0.3, abs=1e-6)  # clamp(0.9 - 0.6)
    low_only = relevancy_score(annotation(["phrase low"]), SLEEP, embedder)
    assert low_only.score == 0.0  # clamp(0.3 - 0.6) -> 0


def test_relevancy_score_phrase_equals_description(stub_server, tmp_path, pool):
    embedder = embedder_for(stub_server(BASE_DOC), tmp_path, pool)
    record = relevancy_score(annotation([SLEEP.description]), SLEEP, embedder)
    assert record.per_phrase_sims[0].raw_sim == pytest.approx(1.0, abs=1e-6)
    assert record.score == pytest.approx(1.0 - record.baseline, abs=1e-6)


def test_relevancy_score_positive_without_phrases(stub_server, tmp_path, pool):
    server = stub_server(BASE_DOC)
    embedder = embedder_for(server, tmp_path, pool)
    record = relevancy_score(annotation([]), SLEEP, embedder)
    assert record.score == 0.0
    assert record.potential_false_positive
    assert server.call_count == 0  # no embedding traffic for empty evidence


def test_relevancy_score_negative_label(stub_server, tmp_path, pool):
    server = stub_server(BASE_DOC)
    embedder = embedder_for(server, tmp_path, pool)
    record = relevancy_score(annotation(["lying awake"], label=False), SLEEP, embedder)
    assert record.score == 0.0
    assert not record.potential_false_positive
    assert server.call_count == 0


def test_relevancy_score_topic_mismatch(stub_server, tmp_path, pool):
    embedder = embedder_for(stub_server(BASE_DOC), tmp_path, pool)
    with pytest.raises(ValueError):
        relevancy_score(annotation(["x"]), Topic("other", "Other topic."), embedder)


def test_score_contract_random_fixtures(stub_server, tmp_path, pool):
    rng = np.random.default_rng(23)
    texts = {f"p{i}": (rng.normal(size=8)).tolist() for i in range(30)}
    doc = {
        "dimension": 8,
        "chat": [],
        "embeddings": {SLEEP.description: unit(1.0), "": unit(0.5, 0.5), **texts},
    }
    embedder = embedder_for(stub_server(doc), tmp_path, pool)
    for _ in range(50):
        count = int(rng.integers(1, 5))
        phrases = list(rng.choice(list(texts), size=count, replace=False))
        record = relevancy_score(annotation(phrases), SLEEP, embedder)
        assert 0.0 <= record.score <= 1.0
        raw_max = max(s.raw_sim for s in record.per_phrase_sims)
        assert record.score == pytest.approx(
            min(max(raw_max - record.baseline, 0.0), 1.0), abs=1e-12
        )


def test_max_then_clamp_equals_clamp_then_max():
    rng = np.random.default_rng(29)
    for _ in range(500):
        sims = rng.uniform(-1, 1, size=rng.integers(1, 8))
        b = rng.uniform(-0.5, 0.9)
        max_then_clamp = max(max(sims) - b, 0.0)
        clamp_then_max = max(max(s - b, 0.0) for s in sims)
        assert max_then_clamp == pytest.approx(clamp_then_max, abs=1e-12)


class SlowEmbeddings:
    """Stands in for Embedder._request: a vector per text after `delay`
    seconds, recording each batch, the most requests at once, and the
    annotations read from `source` before each record came out."""

    def __init__(self, delay: float, fail_on: str | None = None):
        self.delay, self.fail_on = delay, fail_on
        self.batches: list[list[str]] = []
        self.now = self.most = 0
        self.lock = threading.Lock()

    def __call__(self, batch):
        with self.lock:
            self.batches.append(list(batch))
            self.now += 1
            self.most = max(self.most, self.now)
        time.sleep(self.delay)
        with self.lock:
            self.now -= 1
        if self.fail_on in batch:
            raise BackendUnavailable("embedding backend down")
        return [np.array([1.0, len(t) % 7 + 1.0, t.count("1") + 1.0]) for t in batch]


def phrase_rows(rows: int, every: int):
    """Annotations of SLEEP, every `every`-th one positive with a phrase of its own."""
    return [TopicAnnotation("m", f"t{i}", "sleep", label=i % every == 0,
                            phrases=(f"phrase {i}",) if i % every == 0 else ())
            for i in range(rows)]


@pytest.mark.parametrize("rows, every, batch_size", [(1000, 1, 32), (2000, 20, 8)])
def test_score_posts_full_batches_on_every_worker(tmp_path, monkeypatch, rows, every,
                                                  batch_size, pool):
    # a cold store and distinct phrases, dense or sparse: every batch but the
    # last is full and the embedding workers are all busy at once
    slow = SlowEmbeddings(0.05)
    monkeypatch.setattr(Embedder, "_request", slow)
    backend = EmbeddingBackend("emb", "http://127.0.0.1:9/v1/embeddings",
                               batch_size=batch_size, parallelism=4)
    annotations = phrase_rows(rows, every)
    with closing(ResponseCache(tmp_path)) as cache:
        records = list(score_annotations(annotations, [SLEEP], Embedder(backend, cache, pool)))
    assert [r.text_id for r in records] == [a.text_id for a in annotations]
    texts = 2 + len(range(0, rows, every))  # the phrases, "" and the description
    full, rest = divmod(texts, batch_size)
    assert sorted(map(len, slow.batches), reverse=True) == [batch_size] * full + [rest]
    assert slow.most == 4


def test_score_reads_at_most_read_ahead_annotations_ahead(tmp_path, monkeypatch, pool):
    # too few new phrases to fill a batch within READ_AHEAD rows: the oldest
    # waiting annotation is fetched for in a part batch, and no more than
    # READ_AHEAD annotations are read ahead of the records
    monkeypatch.setattr(relevancy, "READ_AHEAD", 50)
    monkeypatch.setattr(Embedder, "_request", SlowEmbeddings(0.0))
    backend = EmbeddingBackend("emb", "http://127.0.0.1:9/v1/embeddings", batch_size=8)
    annotations = phrase_rows(1000, 100)
    read = 0

    def source():
        nonlocal read
        for ann in annotations:
            read += 1
            yield ann

    with closing(ResponseCache(tmp_path)) as cache:
        records = []
        for record in score_annotations(source(), [SLEEP], Embedder(backend, cache, pool)):
            assert read - len(records) <= 51
            records.append(record)
    assert [r.text_id for r in records] == [a.text_id for a in annotations]
    assert [r.score > 0 for r in records] == [a.label for a in annotations]


def test_score_raises_a_failed_batch_and_stops_asking(tmp_path, monkeypatch, pool):
    slow = SlowEmbeddings(0.01, fail_on="phrase 0")
    monkeypatch.setattr(Embedder, "_request", slow)
    backend = EmbeddingBackend("emb", "http://127.0.0.1:9/v1/embeddings",
                               batch_size=4, parallelism=2)
    with closing(ResponseCache(tmp_path)) as cache:
        with pytest.raises(BackendUnavailable):
            list(score_annotations(phrase_rows(2000, 1), [SLEEP], Embedder(backend, cache, pool)))
    asked = len(slow.batches)
    time.sleep(0.05)
    assert len(slow.batches) == asked < 20  # of 501: the queued ones were cancelled


def test_score_with_many_workers_loses_no_vector(tmp_path, monkeypatch, pool):
    # 16 workers of one-text batches, switching threads every microsecond:
    # every record matches a serial scoring and every vector is stored
    slow = SlowEmbeddings(0.0)
    monkeypatch.setattr(Embedder, "_request", slow)
    annotations = phrase_rows(600, 1)
    backend = EmbeddingBackend("emb", "http://127.0.0.1:9/v1/embeddings",
                               batch_size=1, parallelism=16)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with closing(ResponseCache(tmp_path / "many")) as cache:
            embedder = Embedder(backend, cache, pool)
            records = list(score_annotations(annotations, [SLEEP], embedder))
            keys = [embedder._key(a.phrases[0]) for a in annotations]
            assert None not in cache.read_many(keys)
    finally:
        sys.setswitchinterval(interval)
    assert len(slow.batches) == 602  # each phrase, "" and the description once
    with closing(ResponseCache(tmp_path / "one")) as cache:
        serial = [relevancy_score(a, SLEEP, Embedder(backend, cache, pool)) for a in annotations]
    assert records == serial


# --------------------------------------------------------------- aggregate

def test_aggregate_subtopics_examples():
    assert aggregate_subtopics([(False, 0.0), (False, 0.0)]) == (False, 0.0)
    assert aggregate_subtopics([(True, 0.4), (False, 0.0)]) == (True, 0.4)
    label, score = aggregate_subtopics(
        [(True, 0.2), (True, 0.6), (False, 0.0), (False, 0.0)]
    )
    assert label is True
    assert score == pytest.approx(0.4)


def test_aggregate_subtopics_bounds():
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        children = [
            (bool(rng.random() < 0.5), float(rng.uniform(0, 1))) for _ in range(n)
        ]
        children = [(lab, sco if lab else 0.0) for lab, sco in children]
        label, score = aggregate_subtopics(children)
        present = [sco for lab, sco in children if lab]
        if present:
            assert label is True
            assert min(present) - 1e-12 <= score <= max(children, key=lambda c: c[1])[1] + 1e-12
        else:
            assert (label, score) == (False, 0.0)


def test_aggregate_subtopics_empty():
    with pytest.raises(ValueError):
        aggregate_subtopics([])
