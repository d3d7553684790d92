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

import bisect
import hashlib
import json
import logging
import os
import re
import threading
import time
from collections.abc import Callable, Iterable, Iterator, Sequence, Sized
from dataclasses import dataclass, field
from datetime import datetime, timezone
from json.encoder import encode_basestring
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, NamedTuple
from urllib.parse import urlsplit

from .corpus import TextItem, Topic, TopicSet, _decode
from .errors import (
    BackendUnavailable,
    BadStatus,
    CacheError,
    FailureBudgetExceeded,
    Unparseable,
)

# socket (and ssl, for an https endpoint) and sqlite3 are imported where they
# are first used, so that the commands that reach no backend and no store
# (run --stage agree/ensemble/evaluate, validate-config) never load them. The
# backend transport is the small HTTP/1.1 client below, not http.client, which
# would load ssl and email on every run; the workers are plain threads, not a
# concurrent.futures pool.
if TYPE_CHECKING:
    import socket

logger = logging.getLogger(__name__)

FORMAT_REMINDER = "Answer strictly in the required format."
# One backend's texts that annotate reads from the store at once, with their
# prompts and parsed rows, and the arrived answers a lane stores in one transaction.
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


class TopicAnnotation(NamedTuple):
    """One (model, text, leaf topic) cell. A tuple, not a frozen dataclass:
    the stages make one per cell, and a tuple is built in one step."""

    model: str
    text_id: str
    topic: str
    label: bool
    phrases: tuple[str, ...] = ()
    parse_warning: bool = False


class _Layout(NamedTuple):
    """What build_prompt and parse_response need of a topic set."""

    head: str  # the prompt up to the paragraph's text
    leaves: list[Topic]
    numbered: re.Pattern  # leaf k's "(k) name:" lines, with group k set
    anywhere: list[re.Pattern]  # each leaf's "name:"
    # any leaf's "name:", found exactly where parse_response finds a topic line
    # (a short name starts with a word character, so each numbered line holds one)
    topic_line: re.Pattern


def _kept(owner, name: str, build: Callable):
    """build(owner), made once and kept on owner, a frozen dataclass, as `name`."""
    kept = vars(owner)
    if name not in kept:
        object.__setattr__(owner, name, build(owner))
    return kept[name]


def _layout(topics: TopicSet) -> _Layout:
    leaves = topics.leaves()
    lines = ["Does the paragraph mention any of the following topics:"]
    for k, leaf in enumerate(leaves, 1):
        desc = leaf.description.strip()
        if not desc.endswith("."):
            desc += "."
        lines.append(f"({k}) {leaf.short_name}: {desc}")
    lines.append("Return answer in format:")
    for k, leaf in enumerate(leaves, 1):
        lines.append(f"({k}) {leaf.short_name}: [yes/no], related phrases if any:")
    lines.append("Paragraph: `")
    names = [re.escape(leaf.short_name) for leaf in leaves]
    # no leaf's "(k) name:" line can hold another's, so one scan finds them all
    numbered = "|".join(rf"({k})\s*\)\s*{name}" for k, name in enumerate(names, 1))
    return _Layout("\n".join(lines), leaves, re.compile(rf"\(\s*(?:{numbered})\s*:", re.I),
                   [re.compile(rf"\b{name}\s*:", re.I) for name in names],
                   re.compile(rf"\b(?:{'|'.join(names)})\s*:", re.I))


def build_prompt(topics: TopicSet, item: TextItem) -> str:
    """Render the labeling prompt for one text.

    Leaf topics are enumerated from 1 in topic-set order, first as
    "(k) name: description." lines, then as the answer-format block, then
    the paragraph quoted in backticks; all but its text is formatted once
    per TopicSet. Pure: identical inputs yield byte-identical prompts.
    """
    return _kept(topics, "_layout", _layout).head + item.text + "`"


# json.dumps(..., ensure_ascii=False), with and without sort_keys, without
# building an encoder for each call; the store's keys and documents are these bytes
_encode_sorted = json.JSONEncoder(sort_keys=True, ensure_ascii=False).encode
_encode_unsorted = json.JSONEncoder(ensure_ascii=False).encode


def _key_parts(backend: ModelBackend) -> tuple[str, str]:
    """A backend's key document before and after the prompt's JSON string
    (the name's encoding escapes its quotes, so holds no "prompt": "")."""
    head, _, tail = _encode_sorted({
        "backend": backend.name, "prompt": "", "temperature": backend.decoding.temperature,
        "max_tokens": backend.decoding.max_tokens}).partition('"prompt": ""')
    return head + '"prompt": ', tail


class ResponseCache:
    """The one on-disk store of backend responses: {cache_dir}/cache.sqlite.

    One table maps keys to bytes. Chat keys are the SHA-256 of (backend name,
    prompt, decoding params) and hold the JSON document {prompt_digest,
    content, retrieved_at}; embedding keys are "emb/{backend}/" plus the
    input's SHA-256 and hold little-endian float32 vectors. WAL mode and a
    busy timeout let processes share a cache dir on a local filesystem; one
    connection serves every thread, one statement at a time. close() folds
    the WAL back into the file. The store only reads and writes; its callers
    fetch what it lacks. Annotate reads chat answers a window at a time, and a
    lane stores the ones that arrive WINDOW to a transaction;
    Embedder.embed_many reads a call's vectors at once and stores the new
    ones in one transaction.
    """

    def __init__(self, cache_dir: str | Path):
        import sqlite3

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
        import sqlite3

        with self._lock:
            try:
                with self._db:  # commits a write, rolls it back on error
                    run = self._db.executemany if many else self._db.execute
                    return run(sql, args).fetchall()
            except sqlite3.Error as exc:
                raise CacheError(f"cache {self.path}: {exc}") from exc

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
        """SHA-256 of _encode_sorted({backend, prompt, temperature, max_tokens}):
        the prompt's JSON string between its backend's parts, encoded once."""
        head, tail = _kept(backend, "_key_parts", _key_parts)
        return hashlib.sha256((head + encode_basestring(prompt) + tail).encode()).hexdigest()

    def get(self, backend: ModelBackend, prompt: str) -> dict | None:
        key = self.key(backend, prompt)
        blob = self.read_many([key])[0]
        return None if blob is None else self._document(key, blob)

    def _document(self, key: str, blob: bytes) -> dict:
        """The chat entry stored under key, or CacheError naming the store and
        the key if it is not a JSON document with a string content."""
        try:
            entry = _decode(str(blob, "utf-8"))
            if not isinstance(entry["content"], str):
                raise TypeError("content is not a string")
        except (ValueError, LookupError, TypeError, RecursionError) as exc:
            raise CacheError(f"cache {self.path}: entry {key} is not a chat answer: "
                             f"{exc}") from None
        return entry

    @staticmethod
    def entry(prompt: str, content: str) -> bytes:
        """The stored document of a chat response retrieved now."""
        return _encode_unsorted({
            "prompt_digest": hashlib.sha256(prompt.encode("utf-8")).hexdigest(),
            "content": content,
            "retrieved_at": datetime.now(timezone.utc).isoformat(),
        }).encode("utf-8")

    def put(self, backend: ModelBackend, prompt: str, content: str) -> dict:
        blob = self.entry(prompt, content)
        self.write([(self.key(backend, prompt), blob)])
        return json.loads(blob)


# http.client's limits on a reply's status, header and chunk-size lines
_MAX_LINE = 65536
_MAX_HEADERS = 100
# the longest body or chunk a reply may announce, far above any chat or embedding
# reply: a longer one is malformed, where reading it would overflow or exhaust memory
_MAX_BODY = 1 << 30
# a request target holds printable ASCII only
_BAD_TARGET = re.compile(r"[^\x21-\x7e]")


class ProtocolError(Exception):
    """A reply that is not well-formed HTTP/1.x, or a URL that is not
    http(s): post_json retries it as it retries a connection error."""


def _endpoint(url: str) -> tuple[tuple[str, str, int | None], str]:
    """(scheme, host in ASCII, port) of an http(s) URL, and its request
    target. ProtocolError for a URL the transport cannot reach: no host, a
    host IDNA cannot encode, a bad port or IPv6 brackets, or a target that
    is not printable ASCII. load_config checks each endpoint with it."""
    try:
        parts = urlsplit(url)
        host = parts.hostname or ""
        key = parts.scheme, host if host.isascii() else host.encode("idna").decode(), parts.port
        target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        if key[0] not in ("http", "https") or not host or _BAD_TARGET.search(target):
            raise ValueError
    except ValueError:  # also IDNA's UnicodeError
        raise ProtocolError(f"not an http(s) URL: {url!r}") from None
    return key, target


class ConnectionPool:
    """Keep-alive HTTP/1.1 connections to backends, shared by threads, and
    the retry policy of the calls made over them (see post_json).

    A call takes an idle connection to its (scheme, host, port), or opens
    one, and hands it back once the whole reply is read, so the pool holds
    as many connections per endpoint as calls were ever in flight at once:
    one per worker thread. A connection is a socket with TCP_NODELAY set
    (for https wrapped in TLS, verified against the system's CA
    certificates) and one buffered reader of its replies. A request goes out
    in one write: the request line, Host, Accept-Encoding: identity,
    Content-Length, the caller's headers and the body. Interim 1xx replies
    are skipped, and a reply's body is read by its Content-Length, by chunked
    coding, or to the end of the stream; only in that last case, or after an
    HTTP/1.0 reply or one with Connection: close, is the connection closed
    rather than handed back. Each socket operation waits at most `timeout`
    seconds. close() closes every idle connection; a call that fails closes
    the connection it holds. Proxy environment variables are not honoured.
    """

    def __init__(self, retries: int, timeout: float, backoff: float):
        self.retries, self.timeout, self.backoff = retries, timeout, backoff
        self._idle: dict[tuple[str, str, int | None], list[tuple[socket.socket, BinaryIO]]] = {}
        self._lock = threading.Lock()

    def post(self, url: str, body: bytes, headers: dict) -> tuple[int, bytes]:
        """POST body to url and return (status, reply body).

        A reused connection that the server closed while it was idle is
        replaced once at no cost; any other failure propagates: an OSError
        from the socket, or ProtocolError for a malformed reply or a URL
        that is not http(s)."""
        key, target = _endpoint(url)
        scheme, host, port = key
        # Host as http.client forms it: IPv6 in brackets, and the port unless
        # it is the scheme's default
        if ":" in host:
            host = f"[{host}]"
        if port not in (None, 443 if scheme == "https" else 80):
            host += f":{port}"
        fields = "".join(f"{name}: {value}\r\n" for name, value in headers.items())
        if fields.count("\n") != len(headers) or fields.count("\r") != len(headers):
            raise ValueError("a request header holds a line break")
        request = (f"POST {target} HTTP/1.1\r\nHost: {host}\r\nAccept-Encoding: identity\r\n"
                   f"Content-Length: {len(body)}\r\n{fields}\r\n").encode("latin-1") + body
        with self._lock:
            idle = self._idle.get(key)
            conn = idle.pop() if idle else None
        if conn is not None:
            try:
                return self._exchange(conn, key, request)
            except ConnectionError:
                pass
        return self._exchange(self._connect(key), key, request)

    def _connect(self, key: tuple[str, str, int | None]) -> tuple[socket.socket, BinaryIO]:
        import socket

        scheme, host, port = key
        sock = socket.create_connection((host, port or (443 if scheme == "https" else 80)),
                                        self.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if scheme == "https":
                import ssl

                sock = ssl.create_default_context().wrap_socket(sock, server_hostname=host)
        except BaseException:
            sock.close()
            raise
        return sock, sock.makefile("rb")

    def _exchange(self, conn: tuple[socket.socket, BinaryIO], key: tuple,
                  request: bytes) -> tuple[int, bytes]:
        try:
            conn[0].sendall(request)
            status, data, keep = _read_reply(conn[1])
        except BaseException:
            _close(conn)
            raise
        if keep:
            with self._lock:
                self._idle.setdefault(key, []).append(conn)
        else:
            _close(conn)
        return status, data

    def close(self) -> None:
        with self._lock:
            conns = [conn for idle in self._idle.values() for conn in idle]
            self._idle.clear()
        for conn in conns:
            _close(conn)


def _close(conn: tuple[socket.socket, BinaryIO]) -> None:
    conn[1].close()
    conn[0].close()


def _read_reply(rfile: BinaryIO) -> tuple[int, bytes, bool]:
    """Read one reply: (status, body, whether the connection can carry the
    next request). Interim 1xx replies are skipped; a server that closes the
    connection before the status line raises ConnectionResetError."""
    while True:
        line = rfile.readline(_MAX_LINE + 1)
        if not line:
            raise ConnectionResetError("the server closed the connection without a reply")
        parts = line.split(None, 2)
        if (len(line) > _MAX_LINE or len(parts) < 2 or not parts[0].startswith(b"HTTP/1.")
                or not (parts[1].isdigit() and 100 <= int(parts[1]) <= 999)):
            raise ProtocolError(f"malformed status line of {len(line)} bytes")
        status = int(parts[1])
        headers = _read_headers(rfile)
        if status >= 200:
            break
    keep = parts[0] != b"HTTP/1.0" and b"close" not in headers.get(b"connection", b"").lower()
    if headers.get(b"transfer-encoding", b"").lower() == b"chunked":
        return status, _read_chunked(rfile), keep
    if status in (204, 304):
        return status, b"", keep
    try:
        length = int(headers[b"content-length"])
    except (KeyError, ValueError):
        length = -1
    if length > _MAX_BODY:
        raise ProtocolError(f"reply body of {length} bytes announced, more than {_MAX_BODY}")
    if length < 0:  # delimited by the end of the stream
        return status, rfile.read(), False
    data = rfile.read(length)
    if len(data) < length:
        raise ProtocolError(f"reply body cut short: {len(data)} of {length} bytes")
    return status, data, keep


def _read_headers(rfile: BinaryIO) -> dict[bytes, bytes]:
    """The header fields up to the blank line, by lower-cased name (the
    first of repeated ones)."""
    headers: dict[bytes, bytes] = {}
    for _ in range(_MAX_HEADERS + 1):
        line = rfile.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise ProtocolError(f"header line longer than {_MAX_LINE} bytes")
        if line in (b"\r\n", b"\n", b""):
            return headers
        name, _, value = line.partition(b":")
        headers.setdefault(name.strip().lower(), value.strip())
    raise ProtocolError(f"more than {_MAX_HEADERS} header lines")


def _read_chunked(rfile: BinaryIO) -> bytes:
    chunks = []
    while True:
        line = rfile.readline(_MAX_LINE + 1)
        try:
            size = int(line.partition(b";")[0], 16)
        except ValueError:
            size = -1
        if not 0 <= size <= _MAX_BODY or len(line) > _MAX_LINE:
            raise ProtocolError(f"malformed chunk size line of {len(line)} bytes")
        if size == 0:
            break
        chunk = rfile.read(size + 2)  # the data and its CRLF
        if len(chunk) < size + 2:
            raise ProtocolError("chunked reply body cut short")
        chunks.append(chunk[:size])
    _read_headers(rfile)  # the trailer
    return b"".join(chunks)


def post_json(pool: ConnectionPool, url: str, payload: dict, auth_env: str | None = None):
    """POST payload as JSON and return the decoded body of the 200 reply.

    Connection errors, timeouts, malformed replies (ProtocolError), 429 and
    5xx are retried up to the pool's `retries` times, after `backoff`,
    2·`backoff`, ... seconds, then raise BackendUnavailable; any other status
    raises BadStatus at once, and so does a malformed JSON body. A refused
    reply is named by its status and its body's length only: a server may
    echo the request, and with it the corpus text, in its error body.
    `auth_env` names the environment variable holding a bearer token.
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
        except (OSError, ProtocolError) as exc:
            last_error = exc
            continue
        if status != 200:
            last_error = BadStatus(status, f"error body of {len(data)} bytes")
            if status == 429 or status >= 500:
                continue
            raise last_error
        try:
            return json.loads(data)
        except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
            raise BadStatus(status, f"malformed JSON body: {exc}")
    raise BackendUnavailable(
        f"backend {payload.get('model')!r} at {url} unreachable after "
        f"{pool.retries} retries: {last_error}"
    )


def run_parallel(fn: Callable, items: Iterable, workers: int,
                 failures: list[BaseException] | None = None) -> None:
    """fn(x) for each x in items, on the calling thread and up to `workers` - 1
    more threads: the only code that starts or waits for a thread.

    The threads take items from one shared iterator, under a lock, so items
    may be a generator; sized items start no more threads than they hold.
    The first exception, from fn, the iterator or an interrupt, goes into
    `failures` (the caller's, which nested calls may share), where each
    thread looks before it takes an item, and is re-raised once every
    started thread has returned. The wait is on a semaphore that each
    thread releases as it returns, not Thread.join, which an interrupt cuts
    short with the thread still running.
    """
    jobs = iter(items)
    lock = threading.Lock()
    failures = [] if failures is None else failures
    done = threading.Semaphore(0)
    ended: list[None] = []  # one entry per returned thread, appended before it releases

    def work() -> None:
        try:
            while not failures:
                with lock:
                    item = next(jobs, jobs)  # the iterator itself marks the end
                if item is jobs:
                    return
                fn(item)
        except BaseException as exc:
            failures.append(exc)

    def worker() -> None:
        try:
            work()
        finally:
            ended.append(None)
            done.release()

    if isinstance(items, Sized):
        workers = min(workers, len(items))
    started = 0
    try:
        for _ in range(workers - 1):
            threading.Thread(target=worker).start()
            started += 1
        work()
    except BaseException as exc:  # a thread that could not start, or an interrupt
        failures.append(exc)
    while len(ended) < started:  # counted by `ended`: an interrupt may eat a release
        try:
            done.acquire()
        except BaseException as exc:  # an interrupt: no thread takes another item
            failures.append(exc)
    if failures:
        raise failures[0]


# each JSON type, by the type json.loads makes of it
_JSON_TYPES = {type(None): "null", bool: "a boolean", int: "a number", float: "a number",
               str: "a string", list: "an array", dict: "an object"}


def chat(backend: ModelBackend, prompt: str, pool: ConnectionPool) -> str:
    """POST one chat completion over `pool` and return its content. Retries
    and errors are those of post_json; a reply with no string content, or
    with content that has no UTF-8 encoding (a lone surrogate, which JSON's
    \\u escapes can spell), is BadStatus."""
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
    if not isinstance(content, str):  # named by its JSON type: it may quote the prompt
        raise BadStatus(200, "malformed completion payload: content is "
                             f"{_JSON_TYPES[type(content)]}, not a string")
    if not content.isascii():
        try:
            content.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise BadStatus(200, f"malformed completion payload: content holds "
                                 f"{content[exc.start]!r}, which has no UTF-8 encoding")
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


# Label token right after the topic's colon (matched at a position: no "^"). A
# literal "[yes/no]" echo is an unanswered format line - hence the (?!\s*/) guard.
_LABEL_RE = re.compile(r"\s*,?\s*\[?\s*(yes|no)\b(?!\s*/)", re.IGNORECASE)
_QUOTED_RE = re.compile(r"'([^']+)'|\"([^\"]+)\"")
_PHRASE_MARKER_RE = re.compile(
    r"related\s+phrases(?:\s+if\s+any)?\s*:?", re.IGNORECASE
)
_PHRASE_SPLIT_RE = re.compile(r"[,;]")
_PHRASE_PLACEHOLDERS = {"none", "n/a", "na", "-", "no", "nothing"}


def _extract_phrases(content: str, start: int, end: int,
                     label: re.Match | None) -> tuple[str, ...]:
    """The phrases of the segment content[start:end], whose label is `label`."""
    if label and not content[label.end() : end].lstrip(" ,.;]").strip():  # the label alone
        return ()
    quoted = _QUOTED_RE.findall(content, start, end)
    if quoted:
        return tuple(p.strip() for p in (a or b for a, b in quoted) if p.strip())
    marker = _PHRASE_MARKER_RE.search(content, start, end)
    if marker:
        tail = content[marker.end() : end]
    else:
        tail = content[label.end() if label else start : end].lstrip(" ,.;]")
    phrases = []
    for part in _PHRASE_SPLIT_RE.split(tail):
        cleaned = part.strip().strip("'\"").strip().rstrip(".").strip()
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

    A leaf takes the last of its "(k) name:" lines (if none, "name:" spans)
    that a parsable yes/no follows, as a prompt echo repeats topic lines, else
    the last one; its segment runs to the next taken line. The scan is in
    place: one pass finds every numbered line, regexes run on the whole answer
    with pos/endpos, and the label match serves its segment unless it runs
    past it. Topics absent from the response come back with label false and
    parse_warning set. Raises Unparseable when no topic line is recognized.
    """
    layout = _kept(topics, "_layout", _layout)
    taken: list[tuple[re.Match, re.Match | None] | None] = []  # (topic line, label)
    numbered: list[list[re.Match]] = [[] for _ in layout.leaves]
    for match in layout.numbered.finditer(content):
        numbered[match.lastindex - 1].append(match)
    for matches, anywhere in zip(numbered, layout.anywhere):
        matches = matches or list(anywhere.finditer(content))
        pick = (matches[-1], None) if matches else None
        for match in reversed(matches):
            label = _LABEL_RE.match(content, match.end())
            if label:
                pick = match, label
                break
        taken.append(pick)
    if not any(taken):
        raise Unparseable("no topic line recognized in response")
    starts = sorted(pick[0].start() for pick in taken if pick)
    annotations = []
    for leaf, pick in zip(layout.leaves, taken):
        if pick is None:
            annotations.append(TopicAnnotation(model, text_id, leaf.short_name, False, (), True))
            continue
        match, label = pick
        i = bisect.bisect(starts, match.start())
        end = starts[i] if i < len(starts) else len(content)
        if label and label.end() > end:  # the label runs into the next topic line
            label = None
        annotations.append(TopicAnnotation(
            model, text_id, leaf.short_name, bool(label) and label[1].lower() == "yes",
            _extract_phrases(content, match.end(), end, label), not label))
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

    The ordered pass reads the store, each backend's texts WINDOW at a time
    (see read), and parses the answers in order. Cells without a topic line
    fail conservatively (label false, parse_warning); once more than
    failure_budget of all cells have failed, every backend's counted
    together, the stream raises FailureBudgetExceeded before it yields that
    window's rows. At the first window with an answer missing, the lanes
    fill the store (see fill): that backend's from that window, every later
    backend's from the first, all at once. The ordered pass waits for them,
    raises the first failure, and then reads on with no more waiting. Each
    lane stops on its own breach of the budget; a breach by the backends
    together is seen only after that wait. A warm run starts no thread.
    """
    if len(backends) < 2:
        raise ValueError("ensembling needs >=2 configured backends")
    if len({b.name for b in backends}) != len(backends):
        raise ValueError("backend names must be unique within a run")
    layout = _kept(topics, "_layout", _layout)
    leaves, topic_line = layout.leaves, layout.topic_line
    total_cells = len(backends) * len(corpus) * len(leaves)
    reminder = "\n" + FORMAT_REMINDER
    failures: list[BaseException] = []  # one stop list for the lanes and their workers

    def check(failed: int) -> None:  # failed texts, against the budget
        if failed * len(leaves) / total_cells > failure_budget:
            raise FailureBudgetExceeded(f"{failed * len(leaves)}/{total_cells} cells "
                                        f"unparseable (budget {failure_budget:.2%})")

    def read(backend: ModelBackend, prompts: list[str],
             ) -> tuple[list[str | None], list[tuple[str, str]]]:
        """Each prompt's stored answer, or its FORMAT_REMINDER answer where
        topic_line finds no topic line in it (None where that has none
        either, or one is missing), and the (key, prompt) of each missing
        one: one query for the answers and one for the reminded."""
        answers: list[str | None] = [None] * len(prompts)
        missing: list[tuple[str, str]] = []
        todo: Iterable[int] = range(len(prompts))
        for suffix in ("", reminder):
            asked = [prompts[i] + suffix for i in todo]
            keys = [cache.key(backend, prompt) for prompt in asked]
            unlabeled = []
            for i, key, prompt, blob in zip(todo, keys, asked, cache.read_many(keys)):
                if blob is None:
                    missing.append((key, prompt))
                elif topic_line.search(answer := cache._document(key, blob)["content"]):
                    answers[i] = answer
                else:
                    unlabeled.append(i)
            todo = unlabeled
        return answers, missing

    def lane(b: int, begin: int) -> None:
        """Ask backends[b] for each answer the store lacks, from text begin
        on, `parallelism` calls at a time from one queue: each window's
        missing prompts, read once the queue is empty, each distinct one
        asked once, also while in flight for an earlier window, and asked
        again with FORMAT_REMINDER at once if its answer has no topic line.
        Answers are stored as they arrive, in any order, WINDOW keys to a
        transaction, and what is left when the lane ends, also on failure.
        A text counts against the budget once its answer is known to have
        no topic line."""
        backend = backends[b]
        lock = threading.Lock()  # the lane's state, and no commit between a read and its asks
        waiting: dict[str, int] = {}  # the lane's texts that wait on each key in flight
        fresh: dict[str, tuple[list[tuple[str, bytes]], bool]] = {}  # (entries, failed)
        failed = 0

        def settle(hopeless: int) -> None:  # under lock: count failed texts, commit WINDOW keys
            nonlocal failed
            try:
                failed += hopeless
                check(failed)
                if len(fresh) >= WINDOW:
                    cache.write([entry for entries, _ in fresh.values() for entry in entries])
                    fresh.clear()
            except Exception as exc:
                failures.append(exc)

        def jobs() -> Iterator[tuple[str, str]]:  # run by one worker at a time
            for start in range(begin, len(corpus), WINDOW):
                prompts = [build_prompt(topics, item) for item in corpus[start : start + WINDOW]]
                with lock:
                    answers, missing = read(backend, prompts)
                    hopeless = answers.count(None) - len(missing)
                    asks = []
                    for key, prompt in missing:
                        if key in fresh:
                            hopeless += fresh[key][1]
                        elif key in waiting:
                            waiting[key] += 1
                        else:
                            waiting[key] = 1
                            asks.append((key, prompt))
                    settle(hopeless)
                yield from asks

        def call(job: tuple[str, str]) -> None:  # on a worker
            key, prompt = job
            entries: list[tuple[str, bytes]] = []
            answer = ""
            try:
                answer = chat(backend, prompt, pool)
                entries.append((key, cache.entry(prompt, answer)))
                if not topic_line.search(answer) and not prompt.endswith(reminder):
                    prompt += reminder
                    answer = chat(backend, prompt, pool)
                    entries.append((cache.key(backend, prompt), cache.entry(prompt, answer)))
            except BaseException as exc:
                failures.append(exc)  # no lane asks again
                raise
            finally:
                hopeless = not topic_line.search(answer)
                with lock:
                    fresh[key] = entries, hopeless
                    if not failures:
                        settle(hopeless * waiting.pop(key))

        try:
            # jobs() is a generator: the lane caps its workers at its texts
            run_parallel(call, jobs(), min(backend.parallelism, len(corpus) - begin), failures)
        finally:  # what has arrived is stored, also when the lane fails
            if fresh:
                cache.write([entry for entries, _ in fresh.values() for entry in entries])

    def fill(b: int, begin: int) -> None:
        """Run backends[b]'s lane from text begin and every later backend's
        from text 0, all at once, one of them on the calling thread, and
        raise the first failure once all have returned. The first failure or
        an interrupt stops every call not yet made, in every lane; the calls
        in flight on other threads end, and each lane stores what arrived."""
        run_parallel(lambda n: lane(n, begin if n == b else 0), range(b, len(backends)),
                     len(backends) - b, failures)

    def stream() -> Iterator[TopicAnnotation]:
        failed = 0  # the ordered pass counts every backend's cells together
        for b, backend in enumerate(backends):
            for start in range(0, len(corpus), WINDOW):
                window = corpus[start : start + WINDOW]
                prompts = [build_prompt(topics, item) for item in window]
                answers, missing = read(backend, prompts)
                if missing:  # only at the first such window: the lanes fill the rest
                    fill(b, start)
                    answers, _ = read(backend, prompts)
                failed += answers.count(None)
                check(failed)
                for item, answer in zip(window, answers):
                    if answer is not None:  # topic_line found a topic line: no raise
                        yield from parse_response(answer, topics, backend.name, item.id)
                        continue
                    logger.warning("unparseable response from %s for text %s; "
                                   "marking cells failed", backend.name, item.id)
                    for leaf in leaves:
                        yield TopicAnnotation(backend.name, item.id, leaf.short_name,
                                              False, (), True)

    return stream()
