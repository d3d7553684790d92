"""Embedding-based relevancy scoring of evidence phrases against topics.

A positive annotation's phrases are embedded and compared to the topic
description by cosine similarity; the topic's baseline b (similarity between
the description and the empty string, which recalibrates anisotropic
embedding spaces) is subtracted and the result clamped into [0, 1]. The
score is the maximum over phrases. Negative labels and positives without
phrases score 0; the latter are flagged as potential false positives.

Embedding inputs are truncated to their first 384 whitespace-delimited words
(whitespace collapsed, so truncation is idempotent). Vectors live in the
run's one response store (annotator.ResponseCache) as little-endian float32
bytes under "emb/{backend}/" plus the truncated text's SHA-256, and requests
go through the same retrying POST as chat (annotator.post_json). Cached and
fresh vectors round-trip through float32 so warm reruns are bit-stable.
"""
from __future__ import annotations

import hashlib
import itertools
import threading
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .annotator import (
    ConnectionPool,
    ResponseCache,
    TopicAnnotation,
    post_json,
    run_parallel,
)
from .corpus import Topic
from .errors import BadStatus, ZeroNormVector

TRUNCATE_WORDS = 384
# Annotations the score stage works at a time. A window's positive phrases
# are looked up in one store read, and the ones the store lacks are POSTed
# in batches of batch_size on up to `parallelism` embedding workers: 4,096
# rows fill 4 batches of 32 if 3% of annotations carry a new phrase. The
# window's rows and its phrases' vectors (12 KiB each at 1,536 dimensions)
# are held until its last record is out.
READ_AHEAD = 4096


@dataclass(frozen=True)
class EmbeddingBackend:
    name: str  # model identifier sent on the wire
    endpoint: str
    auth_env: str | None = None
    batch_size: int = 32
    parallelism: int = 4


@dataclass(frozen=True)
class PhraseSimilarity:
    phrase: str
    raw_sim: float


@dataclass(frozen=True)
class RelevancyRecord:
    model: str
    text_id: str
    topic: str
    score: float
    baseline: float
    per_phrase_sims: tuple[PhraseSimilarity, ...] = ()
    potential_false_positive: bool = False


def truncate_words(text: str, limit: int = TRUNCATE_WORDS) -> str:
    return " ".join(text.split()[:limit])


def cosine_similarity(u: np.ndarray, v: np.ndarray) -> float:
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ZeroNormVector("cosine similarity undefined for zero-norm vector")
    return float(np.dot(u, v) / (nu * nv))


class Embedder:
    """Caching client for the embedding wire protocol.

    POSTs {model, input: [texts]} and expects {data: [{embedding: [...]}]}
    in input order. Vectors are read from and written to `cache`; requests
    go out over `pool`, with its retry policy.
    """

    def __init__(self, backend: EmbeddingBackend, cache: ResponseCache, pool: ConnectionPool):
        self.backend = backend
        self.cache = cache
        self.pool = pool
        self.parallelism = max(1, backend.parallelism)
        self._dimension: int | None = None
        self._dimension_lock = threading.Lock()  # callers may share an Embedder across threads

    def _key(self, truncated: str) -> str:
        digest = hashlib.sha256(truncated.encode("utf-8")).hexdigest()
        return f"emb/{self.backend.name}/{digest}"

    def embed_many(self, texts: Sequence[str]) -> list[np.ndarray]:
        """Embed texts: stored vectors first, the rest fetched (see fetch)."""
        vectors = self.stored(texts)
        vectors.update(self.fetch([t for t, vec in vectors.items() if vec is None]))
        return [vectors[t] for t in texts]

    def stored(self, texts: Iterable[str]) -> dict[str, np.ndarray | None]:
        """{text: its stored vector, None if there is none} for each distinct
        text, from one store read."""
        distinct = list(dict.fromkeys(texts))
        blobs = self.cache.read_many([self._key(truncate_words(t)) for t in distinct])
        return {t: None if blob is None else self._vector(blob)
                for t, blob in zip(distinct, blobs)}

    def fetch(self, texts: Sequence[str]) -> dict[str, np.ndarray]:
        """{text: vector} for texts POSTed in batches of batch_size on up to
        `parallelism` workers; each batch is stored as it arrives.

        Results are keyed by text, so assembly order never depends on
        request completion order.
        """
        truncated = {t: truncate_words(t) for t in texts}
        distinct = list(dict.fromkeys(truncated.values()))
        size = self.backend.batch_size
        batches = [distinct[start : start + size] for start in range(0, len(distinct), size)]
        blobs: dict[str, bytes] = {}

        def fetch(batch: list[str]) -> None:
            fresh = [vec.astype("<f4").tobytes() for vec in self._request(batch)]
            self.cache.write(zip(map(self._key, batch), fresh))
            blobs.update(zip(batch, fresh))

        run_parallel(fetch, batches, self.parallelism)
        return {t: self._vector(blobs[u]) for t, u in truncated.items()}

    def _vector(self, blob: bytes) -> np.ndarray:
        vec = np.frombuffer(blob, dtype="<f4").astype(np.float64)
        with self._dimension_lock:
            if self._dimension is None:
                self._dimension = vec.size
            elif vec.size != self._dimension:
                raise BadStatus(
                    200,
                    f"embedding dimension changed mid-run: "
                    f"{vec.size} != {self._dimension}",
                )
        return vec

    def _request(self, batch: list[str]) -> list[np.ndarray]:
        body = post_json(self.pool, self.backend.endpoint,
                         {"model": self.backend.name, "input": list(batch)},
                         self.backend.auth_env)
        try:
            vectors = [np.asarray(row["embedding"], dtype=np.float64) for row in body["data"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise BadStatus(200, f"malformed embedding payload: {exc}")
        if len(vectors) != len(batch):
            raise BadStatus(200, f"{len(vectors)} embeddings for {len(batch)} inputs")
        for text, vec in zip(batch, vectors):  # null decodes to NaN; json takes NaN, Infinity
            if not np.isfinite(vec).all():
                raise BadStatus(200, f"non-finite embedding for input {text[:40]!r}")
        return vectors


def topic_baseline(topic: Topic, embedder: Embedder) -> float:
    """Similarity between the topic description and the empty string."""
    desc_vec, empty_vec = embedder.embed_many([topic.description, ""])
    return cosine_similarity(desc_vec, empty_vec)


def score_annotations(annotations: Iterable[TopicAnnotation], topics: Iterable[Topic],
                      embedder: Embedder) -> Iterator[RelevancyRecord]:
    """Score a stream of annotations against their topics' descriptions: one
    record per annotation, in order.

    Negative labels and positives without phrases score 0 without touching
    the embedding backend; otherwise the score is
    clamp(max_p cos(description, phrase_p) - baseline, 0, 1). The stream is
    worked READ_AHEAD annotations at a time: one embed_many call gets the
    vectors of the window's positive phrases, and in the first window with
    one also those of the empty string and every description. Each topic's
    baseline is computed once, and each (topic, phrase) cosine once a window.
    """
    topics = {topic.short_name: topic for topic in topics}
    keys = ["", *(topic.description for topic in topics.values())]
    described: dict[str, np.ndarray] = {}  # "" and each description -> vector
    base: dict[str, tuple[np.ndarray, float]] = {}  # topic -> (description vector, b)
    annotations = iter(annotations)
    while window := list(itertools.islice(annotations, READ_AHEAD)):
        phrases = [p for ann in window if ann.label for p in ann.phrases]
        vectors: dict[str, np.ndarray] = {}
        if phrases:
            first = [] if described else keys
            texts = list(dict.fromkeys(first + phrases))
            vectors = dict(zip(texts, embedder.embed_many(texts)))
            if not described:
                described = {key: vectors[key] for key in keys}
        sims: dict[tuple[str, str], float] = {}  # (topic, phrase) -> cosine
        for ann in window:
            if ann.topic not in topics:
                raise ValueError(f"annotation topic {ann.topic!r} is not among "
                                 f"{sorted(topics)}")
            if not ann.label or not ann.phrases:
                yield RelevancyRecord(
                    model=ann.model, text_id=ann.text_id, topic=ann.topic,
                    score=0.0, baseline=0.0,
                    potential_false_positive=ann.label and not ann.phrases)
                continue
            if ann.topic not in base:
                desc_vec = described[topics[ann.topic].description]
                base[ann.topic] = desc_vec, cosine_similarity(desc_vec, described[""])
            desc_vec, baseline = base[ann.topic]
            for p in ann.phrases:
                if (ann.topic, p) not in sims:
                    sims[ann.topic, p] = cosine_similarity(desc_vec, vectors[p])
            per_phrase = tuple(PhraseSimilarity(phrase=p, raw_sim=sims[ann.topic, p])
                               for p in ann.phrases)
            raw_max = max(s.raw_sim for s in per_phrase)
            yield RelevancyRecord(
                model=ann.model, text_id=ann.text_id, topic=ann.topic,
                score=min(max(raw_max - baseline, 0.0), 1.0), baseline=baseline,
                per_phrase_sims=per_phrase)


def relevancy_score(
    annotation: TopicAnnotation, topic: Topic, embedder: Embedder
) -> RelevancyRecord:
    """Score one annotation's evidence against its topic (see score_annotations)."""
    if annotation.topic != topic.short_name:
        raise ValueError(
            f"annotation topic {annotation.topic!r} != {topic.short_name!r}"
        )
    return next(score_annotations([annotation], [topic], embedder))


def aggregate_subtopics(children: Sequence[tuple[bool, float]]) -> tuple[bool, float]:
    """Parent label/score from subtopic results: any-present, mean-of-present."""
    if not children:
        raise ValueError("need >=1 child result")
    present = [score for label, score in children if label]
    if not present:
        return False, 0.0
    return True, float(np.mean(present))
