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
from collections.abc import Sequence
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
    go out over `pool` (see post_json for no pool).
    """

    def __init__(
        self,
        backend: EmbeddingBackend,
        cache: ResponseCache,
        pool: ConnectionPool | None = None,
        retries: int = 3,
        timeout: float = 30.0,
        backoff: float = 0.5,
    ):
        self.backend = backend
        self.cache = cache
        self.pool = pool
        self.retries = retries
        self.timeout = timeout
        self.backoff = backoff
        self.parallelism = max(1, backend.parallelism)
        self._dimension: int | None = None

    def _key(self, truncated: str) -> str:
        digest = hashlib.sha256(truncated.encode("utf-8")).hexdigest()
        return f"emb/{self.backend.name}/{digest}"

    def embed(self, text: str) -> np.ndarray:
        return self.embed_many([text])[0]

    def embed_many(self, texts: Sequence[str]) -> list[np.ndarray]:
        """Embed texts (cache-first); misses go out in concurrent batches.

        Results come back keyed by text, so assembly order never depends on
        request completion order.
        """
        truncated = [truncate_words(t) for t in texts]
        vectors: dict[str, np.ndarray] = {}
        misses: list[str] = []
        for t in dict.fromkeys(truncated):
            blob = self.cache.read(self._key(t))
            if blob is None:
                misses.append(t)
            else:
                vectors[t] = np.frombuffer(blob, dtype="<f4").astype(np.float64)
        size = self.backend.batch_size
        batches = [misses[start : start + size] for start in range(0, len(misses), size)]

        def fetch(batch: list[str]) -> list[bytes]:
            blobs = [vec.astype("<f4").tobytes() for vec in self._request(batch)]
            self.cache.write(zip(map(self._key, batch), blobs))
            return blobs

        for batch, blobs in zip(batches, run_parallel(fetch, batches, self.parallelism)):
            for t, blob in zip(batch, blobs):
                vectors[t] = np.frombuffer(blob, dtype="<f4").astype(np.float64)
        out = [vectors[t] for t in truncated]
        for vec in out:
            if self._dimension is None:
                self._dimension = vec.size
            elif vec.size != self._dimension:
                raise BadStatus(
                    200,
                    f"embedding dimension changed mid-run: "
                    f"{vec.size} != {self._dimension}",
                )
        return out

    def _request(self, batch: list[str]) -> list[np.ndarray]:
        body = post_json(
            self.pool, self.backend.endpoint,
            {"model": self.backend.name, "input": list(batch)},
            self.backend.auth_env, self.retries, self.timeout, self.backoff,
        )
        try:
            vectors = [np.asarray(row["embedding"], dtype=np.float64) for row in body["data"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise BadStatus(200, f"malformed embedding payload: {exc}")
        if len(vectors) != len(batch):
            raise BadStatus(200, f"{len(vectors)} embeddings for {len(batch)} inputs")
        return vectors


def topic_baseline(topic: Topic, embedder: Embedder) -> float:
    """Similarity between the topic description and the empty string."""
    desc_vec, empty_vec = embedder.embed_many([topic.description, ""])
    return cosine_similarity(desc_vec, empty_vec)


def relevancy_score(
    annotation: TopicAnnotation, topic: Topic, embedder: Embedder
) -> RelevancyRecord:
    """Score one annotation's evidence against its topic description.

    Negative labels and positives without phrases score 0 without touching
    the embedding backend; otherwise the score is
    clamp(max_p cos(description, phrase_p) - baseline, 0, 1).
    """
    if annotation.topic != topic.short_name:
        raise ValueError(
            f"annotation topic {annotation.topic!r} != {topic.short_name!r}"
        )
    if not annotation.label or not annotation.phrases:
        return RelevancyRecord(
            model=annotation.model,
            text_id=annotation.text_id,
            topic=annotation.topic,
            score=0.0,
            baseline=0.0,
            potential_false_positive=annotation.label and not annotation.phrases,
        )
    vectors = embedder.embed_many([topic.description, ""] + list(annotation.phrases))
    desc_vec, empty_vec = vectors[0], vectors[1]
    baseline = cosine_similarity(desc_vec, empty_vec)
    sims = tuple(
        PhraseSimilarity(phrase=p, raw_sim=cosine_similarity(desc_vec, vec))
        for p, vec in zip(annotation.phrases, vectors[2:])
    )
    raw_max = max(s.raw_sim for s in sims)
    score = min(max(raw_max - baseline, 0.0), 1.0)
    return RelevancyRecord(
        model=annotation.model,
        text_id=annotation.text_id,
        topic=annotation.topic,
        score=score,
        baseline=baseline,
        per_phrase_sims=sims,
    )


def aggregate_subtopics(children: Sequence[tuple[bool, float]]) -> tuple[bool, float]:
    """Parent label/score from subtopic results: any-present, mean-of-present."""
    if not children:
        raise ValueError("need >=1 child result")
    present = [score for label, score in children if label]
    if not present:
        return False, 0.0
    return True, float(np.mean(present))
