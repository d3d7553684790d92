"""Prompting, querying and parsing of per-topic yes/no annotations.

One prompt carries every leaf topic of the topic set (subtopics are the
prompted units); each configured chat backend answers the same prompt and
the response is parsed into one annotation per (model, text, leaf topic).

Parsing is forgiving by design, in this order: exact numbered topic line,
then a case-insensitive short-name match anywhere; a response where no topic
line is recognized at all is Unparseable and triggers one re-query with a
format reminder before the cell fails conservatively (label false, flagged).
"yes"/"[yes]"/"Yes." variants all count; anything else on a recognized line
maps to label false with a parse warning. Phrases prefer quoted spans and
fall back to splitting the post-colon tail on commas/semicolons.
"""
from __future__ import annotations

import hashlib
import http.client
import json
import logging
import os
import re
import sqlite3
import threading
import time
from collections.abc import Callable, Iterable, Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from urllib.parse import urlsplit

from .corpus import TextItem, TopicSet
from .errors import (
    BackendUnavailable,
    BadStatus,
    CacheError,
    FailureBudgetExceeded,
    Unparseable,
)

logger = logging.getLogger(__name__)

FORMAT_REMINDER = "Answer strictly in the required format."
# One backend's texts that annotate works on at once: their prompts, answers
# and parsed rows. A window's requests end together, so the workers wait for
# its last ones; at a backend parallelism of 4, a window of 256 texts takes
# 64 request times and that wait is at most one of them. The window's store
# read and its one write transaction of fresh answers are per window too.
WINDOW = 256


@dataclass(frozen=True)
class Decoding:
    temperature: float = 0.0
    max_tokens: int = 512

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")


@dataclass(frozen=True)
class ModelBackend:
    name: str
    endpoint: str
    auth_env: str | None = None
    decoding: Decoding = field(default_factory=Decoding)
    parallelism: int = 4


@dataclass(frozen=True)
class RawResponse:
    model: str
    text_id: str
    content: str
    retrieved_at: str
    from_cache: bool


@dataclass(frozen=True)
class TopicAnnotation:
    model: str
    text_id: str
    topic: str
    label: bool
    phrases: tuple[str, ...] = ()
    parse_warning: bool = False


def build_prompt(topics: TopicSet, item: TextItem) -> str:
    """Render the labeling prompt for one text.

    Leaf topics are enumerated from 1 in topic-set order, first as
    "(k) name: description." lines, then as the answer-format block, then
    the paragraph quoted in backticks. Pure: identical inputs yield
    byte-identical prompts.
    """
    leaves = topics.leaves()
    if not leaves:
        raise ValueError("topic set has no leaf topics")
    if not item.text:
        raise ValueError("item text is empty")
    lines = ["Does the paragraph mention any of the following topics:"]
    for k, leaf in enumerate(leaves, 1):
        desc = leaf.description.strip()
        if not desc.endswith("."):
            desc += "."
        lines.append(f"({k}) {leaf.short_name}: {desc}")
    lines.append("Return answer in format:")
    for k, leaf in enumerate(leaves, 1):
        lines.append(f"({k}) {leaf.short_name}: [yes/no], related phrases if any:")
    lines.append(f"Paragraph: `{item.text}`")
    return "\n".join(lines)


class ResponseCache:
    """The one on-disk store of backend responses: {cache_dir}/cache.sqlite.

    One table maps keys to bytes. Chat keys are the SHA-256 of (backend name,
    prompt, decoding params) and hold the JSON document {prompt_digest,
    content, retrieved_at}; embedding keys are "emb/{backend}/" plus the
    input's SHA-256 and hold little-endian float32 vectors. WAL mode and a
    busy timeout let processes share a cache dir on a local filesystem; one
    connection serves every thread, one statement at a time. close() folds
    the WAL back into the file.
    """

    def __init__(self, cache_dir: str | Path):
        self.path = Path(cache_dir) / "cache.sqlite"
        self._lock = threading.Lock()
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._db = sqlite3.connect(self.path, timeout=60.0, check_same_thread=False)
        except (OSError, sqlite3.Error) as exc:
            raise CacheError(f"cache {self.path}: {exc}") from exc
        try:
            for sql in ("PRAGMA journal_mode=WAL", "PRAGMA synchronous=NORMAL",
                        "CREATE TABLE IF NOT EXISTS entries"
                        " (key TEXT PRIMARY KEY, value BLOB NOT NULL)"):
                self._execute(sql)
        except CacheError:
            self._db.close()
            raise

    def _execute(self, sql: str, args=(), many: bool = False) -> list:
        with self._lock:
            try:
                with self._db:  # commits a write, rolls it back on error
                    run = self._db.executemany if many else self._db.execute
                    return run(sql, args).fetchall()
            except sqlite3.Error as exc:
                raise CacheError(f"cache {self.path}: {exc}") from exc

    def read(self, key: str) -> bytes | None:
        rows = self._execute("SELECT value FROM entries WHERE key = ?", (key,))
        return rows[0][0] if rows else None

    def read_many(self, keys: Sequence[str]) -> list[bytes | None]:
        """The bytes stored under each key, None where absent: one query per
        500 keys, within SQLite's smallest bound on query parameters (999)."""
        found = {}
        for start in range(0, len(keys), 500):
            chunk = keys[start : start + 500]
            found.update(self._execute("SELECT key, value FROM entries WHERE key IN "
                                       f"({','.join('?' * len(chunk))})", chunk))
        return [found.get(key) for key in keys]

    def write(self, items: Iterable[tuple[str, bytes]]) -> None:
        """Store (key, bytes) pairs in one transaction."""
        self._execute("INSERT OR REPLACE INTO entries VALUES (?, ?)", items, many=True)

    def close(self) -> None:
        with self._lock:
            self._db.close()

    def key(self, backend: ModelBackend, prompt: str) -> str:
        payload = json.dumps(
            {
                "backend": backend.name,
                "prompt": prompt,
                "temperature": backend.decoding.temperature,
                "max_tokens": backend.decoding.max_tokens,
            },
            sort_keys=True,
            ensure_ascii=False,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def get(self, backend: ModelBackend, prompt: str) -> dict | None:
        blob = self.read(self.key(backend, prompt))
        return None if blob is None else json.loads(blob)

    @staticmethod
    def entry(prompt: str, content: str) -> bytes:
        """The stored document of a chat response retrieved now."""
        return json.dumps({
            "prompt_digest": hashlib.sha256(prompt.encode("utf-8")).hexdigest(),
            "content": content,
            "retrieved_at": datetime.now(timezone.utc).isoformat(),
        }, ensure_ascii=False).encode("utf-8")

    def put(self, backend: ModelBackend, prompt: str, content: str) -> dict:
        blob = self.entry(prompt, content)
        self.write([(self.key(backend, prompt), blob)])
        return json.loads(blob)


class ConnectionPool:
    """Keep-alive HTTP(S) connections to backends, shared by threads, and
    the retry policy of the calls made over them (see post_json).

    A call takes an idle connection to its (scheme, host, port), or opens
    one, and hands it back once the whole reply is read, so the pool holds
    as many connections per endpoint as calls were ever in flight at once:
    one per worker thread. Each socket operation waits at most `timeout`
    seconds. close() closes every idle connection; a call that fails closes
    the connection it holds. Proxy environment variables are not honoured.
    """

    def __init__(self, retries: int, timeout: float, backoff: float):
        self.retries, self.timeout, self.backoff = retries, timeout, backoff
        self._idle: dict[tuple[str, str, int | None], list] = {}
        self._lock = threading.Lock()

    def post(self, url: str, body: bytes, headers: dict) -> tuple[int, bytes]:
        """POST body to url and return (status, reply body).

        A reused connection that the server closed while it was idle is
        replaced once at no cost; any other failure propagates."""
        parts = urlsplit(url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise http.client.InvalidURL(f"not an http(s) URL: {url!r}")
        key = (parts.scheme, parts.hostname, parts.port)
        target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        with self._lock:
            idle = self._idle.get(key)
            conn = idle.pop() if idle else None
        if conn is not None:
            try:
                return self._exchange(conn, key, target, body, headers)
            except ConnectionError:  # includes RemoteDisconnected
                pass
        cls = http.client.HTTPSConnection if key[0] == "https" else http.client.HTTPConnection
        conn = cls(key[1], key[2], timeout=self.timeout)
        return self._exchange(conn, key, target, body, headers)

    def _exchange(self, conn: http.client.HTTPConnection, key: tuple, target: str,
                  body: bytes, headers: dict) -> tuple[int, bytes]:
        try:
            if conn.sock is not None:  # a reused connection
                conn.sock.settimeout(self.timeout)
            conn.request("POST", target, body, headers)
            reply = conn.getresponse()
            data = reply.read()
        except BaseException:
            conn.close()
            raise
        if conn.sock is not None:  # None: the server closed it with this reply
            with self._lock:
                self._idle.setdefault(key, []).append(conn)
        return reply.status, data

    def close(self) -> None:
        with self._lock:
            conns = [conn for idle in self._idle.values() for conn in idle]
            self._idle.clear()
        for conn in conns:
            conn.close()


def post_json(pool: ConnectionPool, url: str, payload: dict, auth_env: str | None = None):
    """POST payload as JSON and return the decoded body of the 200 reply.

    Connection errors, timeouts, HTTP protocol errors, 429 and 5xx are
    retried up to the pool's `retries` times, after `backoff`, 2·`backoff`,
    ... seconds, then raise BackendUnavailable; any other status raises
    BadStatus at once, and so does a malformed JSON body. `auth_env` names
    the environment variable holding a bearer token.
    """
    headers = {"Content-Type": "application/json"}
    if auth_env:
        headers["Authorization"] = f"Bearer {os.environ.get(auth_env, '')}"
    body = json.dumps(payload).encode("utf-8")
    last_error: Exception | None = None
    for attempt in range(pool.retries + 1):
        if attempt:
            time.sleep(pool.backoff * 2 ** (attempt - 1))
        try:
            status, data = pool.post(url, body, headers)
        except (OSError, http.client.HTTPException) as exc:
            last_error = exc
            continue
        if status == 429 or status >= 500:
            last_error = BadStatus(status, data.decode("utf-8", "replace"))
            continue
        if status != 200:
            raise BadStatus(status, data.decode("utf-8", "replace"))
        try:
            return json.loads(data)
        except ValueError as exc:  # UnicodeDecodeError is a ValueError
            raise BadStatus(status, f"malformed JSON body: {exc}")
    raise BackendUnavailable(
        f"backend {payload.get('model')!r} at {url} unreachable after "
        f"{pool.retries} retries: {last_error}"
    )


def run_parallel(fn: Callable, items: Sequence, workers: int) -> list:
    """[fn(x) for x in items] on up to `workers` threads, in input order.

    The first exception cancels every call not yet started and is re-raised
    once the running ones return, so a dead backend costs the calls in
    flight rather than the whole queue.
    """
    if len(items) <= 1:
        return [fn(x) for x in items]
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        return list(pool.map(fn, items))
    finally:
        pool.shutdown(cancel_futures=True)


def chat(backend: ModelBackend, prompt: str, pool: ConnectionPool) -> str:
    """POST one chat completion over `pool` and return its content. Retries
    and errors are those of post_json; a reply with no string content is
    BadStatus."""
    payload = {
        "model": backend.name,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": backend.decoding.temperature,
        "max_tokens": backend.decoding.max_tokens,
    }
    body = post_json(pool, backend.endpoint, payload, backend.auth_env)
    try:
        content = body["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise BadStatus(200, f"malformed completion payload: {exc}")
    if not isinstance(content, str):
        raise BadStatus(200, f"malformed completion payload: content {content!r}")
    return content


def query_backend(
    backend: ModelBackend,
    prompt: str,
    cache: ResponseCache,
    pool: ConnectionPool,
    text_id: str = "",
) -> RawResponse:
    """Answer from cache when possible, otherwise POST a chat completion.

    Retries and errors are those of chat. Fresh responses are stored
    before returning.
    """
    entry = cache.get(backend, prompt)
    from_cache = entry is not None
    if not from_cache:
        content = chat(backend, prompt, pool)
        entry = cache.put(backend, prompt, content)
    return RawResponse(
        model=backend.name,
        text_id=text_id,
        content=entry["content"],
        retrieved_at=entry["retrieved_at"],
        from_cache=from_cache,
    )


# Label token right after the topic's colon. A literal "[yes/no]" echo is an
# unanswered format line, not a yes - hence the (?!\s*/) guard.
_LABEL_RE = re.compile(r"^\s*,?\s*\[?\s*(yes|no)\b(?!\s*/)", re.IGNORECASE)
_QUOTED_RE = re.compile(r"'([^']+)'|\"([^\"]+)\"")
_PHRASE_MARKER_RE = re.compile(
    r"related\s+phrases(?:\s+if\s+any)?\s*:?", re.IGNORECASE
)
_PHRASE_PLACEHOLDERS = {"none", "n/a", "na", "-", "no", "nothing"}


def _topic_matches(content: str, index: int, short_name: str) -> list[re.Match]:
    numbered = re.compile(
        rf"\(\s*{index}\s*\)\s*{re.escape(short_name)}\s*:", re.IGNORECASE
    )
    found = list(numbered.finditer(content))
    if not found:
        anywhere = re.compile(rf"\b{re.escape(short_name)}\s*:", re.IGNORECASE)
        found = list(anywhere.finditer(content))
    return found


def _choose_match(content: str, matches: list[re.Match]) -> re.Match | None:
    if not matches:
        return None
    # prompt echoes repeat topic lines; prefer the last one that actually
    # starts with a parsable yes/no
    for match in reversed(matches):
        if _LABEL_RE.match(content[match.end() :]):
            return match
    return matches[-1]


def _extract_phrases(segment: str) -> tuple[str, ...]:
    quoted = [a or b for a, b in _QUOTED_RE.findall(segment)]
    if quoted:
        return tuple(p.strip() for p in quoted if p.strip())
    marker = _PHRASE_MARKER_RE.search(segment)
    if marker:
        tail = segment[marker.end() :]
    else:
        label = _LABEL_RE.match(segment)
        tail = segment[label.end() :] if label else segment
        tail = tail.lstrip(" ,.;]")
    parts = re.split(r"[,;]", tail)
    phrases = []
    for part in parts:
        cleaned = part.strip().strip("'\"").strip()
        cleaned = cleaned.rstrip(".").strip()
        if cleaned and cleaned.lower() not in _PHRASE_PLACEHOLDERS:
            phrases.append(cleaned)
    return tuple(phrases)


def parse_response(
    content: str,
    topics: TopicSet,
    model: str = "",
    text_id: str = "",
) -> list[TopicAnnotation]:
    """Parse one model response into per-leaf-topic annotations.

    Topics absent from the response come back with label false and
    parse_warning set. Raises Unparseable when no topic line is recognized
    at all.
    """
    leaves = topics.leaves()
    chosen: list[re.Match | None] = []
    for k, leaf in enumerate(leaves, 1):
        chosen.append(_choose_match(content, _topic_matches(content, k, leaf.short_name)))
    if all(match is None for match in chosen):
        raise Unparseable("no topic line recognized in response")
    starts = sorted(match.start() for match in chosen if match is not None)
    annotations = []
    for leaf, match in zip(leaves, chosen):
        if match is None:
            annotations.append(
                TopicAnnotation(
                    model=model, text_id=text_id, topic=leaf.short_name,
                    label=False, phrases=(), parse_warning=True,
                )
            )
            continue
        seg_end = min(
            (s for s in starts if s > match.start()), default=len(content)
        )
        segment = content[match.end() : seg_end]
        label_match = _LABEL_RE.match(segment)
        if label_match is None:
            label, warning = False, True
        else:
            label, warning = label_match.group(1).lower() == "yes", False
        annotations.append(
            TopicAnnotation(
                model=model, text_id=text_id, topic=leaf.short_name,
                label=label, phrases=_extract_phrases(segment),
                parse_warning=warning,
            )
        )
    return annotations


def annotate_corpus(
    corpus: Sequence[TextItem],
    topics: TopicSet,
    backends: Sequence[ModelBackend],
    cache: ResponseCache,
    pool: ConnectionPool,
    failure_budget: float = 0.01,
) -> Iterator[TopicAnnotation]:
    """Annotate every (backend, text) pair: a stream of one annotation per
    (backend, text, leaf topic) cell, in that order.

    Each backend's texts are worked WINDOW at a time. One store read answers
    the window's stored prompts on the calling thread; only the rest go to
    the backend's `parallelism` workers over `pool`, and their responses are
    stored in one transaction, also when a request fails (before the error
    propagates). The calling thread parses each response in order. One that
    no topic line is recognized in is asked again, the same way, with
    FORMAT_REMINDER; cells still unparseable then fail conservatively (label
    false, parse_warning), and once more than failure_budget of all cells
    have failed the stream raises FailureBudgetExceeded.
    """
    if len(backends) < 2:
        raise ValueError("ensembling needs >=2 configured backends")
    if len({b.name for b in backends}) != len(backends):
        raise ValueError("backend names must be unique within a run")
    leaves = topics.leaves()
    total_cells = len(backends) * len(corpus) * len(leaves)

    def answers(backend: ModelBackend, prompts: list[str]) -> list[str]:
        keys = [cache.key(backend, prompt) for prompt in prompts]
        blobs = cache.read_many(keys)
        contents = [None if blob is None else json.loads(blob)["content"] for blob in blobs]
        fresh: list[tuple[str, bytes]] = []  # appended by the workers

        def fetch(i: int) -> None:
            contents[i] = chat(backend, prompts[i], pool)
            fresh.append((keys[i], cache.entry(prompts[i], contents[i])))

        try:
            run_parallel(fetch, [i for i, blob in enumerate(blobs) if blob is None],
                         max(1, backend.parallelism))
        finally:
            if fresh:
                cache.write(fresh)
        return contents

    def stream() -> Iterator[TopicAnnotation]:
        failed_cells = 0
        windows = ((backend, corpus[start : start + WINDOW]) for backend in backends
                   for start in range(0, len(corpus), WINDOW))
        for backend, window in windows:
            prompts = [build_prompt(topics, item) for item in window]
            parsed: list[list[TopicAnnotation] | None] = [None] * len(window)
            todo = list(range(len(window)))
            for suffix in ("", "\n" + FORMAT_REMINDER):
                contents = answers(backend, [prompts[i] + suffix for i in todo])
                for i, content in zip(todo, contents):
                    try:
                        parsed[i] = parse_response(content, topics, backend.name, window[i].id)
                    except Unparseable:
                        pass
                todo = [i for i in todo if parsed[i] is None]
            for i in todo:
                logger.warning("unparseable response from %s for text %s; "
                               "marking cells failed", backend.name, window[i].id)
                parsed[i] = [TopicAnnotation(model=backend.name, text_id=window[i].id,
                                             topic=leaf.short_name, label=False,
                                             phrases=(), parse_warning=True)
                             for leaf in leaves]
                failed_cells += len(leaves)
                if failed_cells / total_cells > failure_budget:
                    raise FailureBudgetExceeded(
                        f"{failed_cells}/{total_cells} cells unparseable "
                        f"(budget {failure_budget:.2%})")
            for annotations in parsed:
                yield from annotations

    return stream()
