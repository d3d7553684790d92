"""Deterministic in-process mock of the chat and embedding wire protocols.

Serves canned completions keyed by a digest of (model, prompt) and canned
embedding vectors keyed by exact input text, for end-to-end tests and
offline demos. Unknown requests get a 404 echoing the digest so fixture
gaps are easy to diagnose. Responses are pure lookups and byte-stable.

Fixture file: a single JSON document

    {
      "dimension": 8,
      "chat": [{"model": "...", "prompt": "...", "response": "..."}],
      "embeddings": {"some text": [0.1, ...]}
    }

Run standalone with `python -m topicensemble.stubserver fixture.json --port N`;
the chat endpoint is /v1/chat/completions and embeddings /v1/embeddings.
"""
from __future__ import annotations

import argparse
import errno
import hashlib
import json
import threading
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from .errors import PortInUse

CHAT_PATH = "/v1/chat/completions"
EMBEDDINGS_PATH = "/v1/embeddings"


def chat_digest(model: str, prompt: str) -> str:
    payload = json.dumps(
        {"model": model, "prompt": prompt}, sort_keys=True, ensure_ascii=False
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def format_response(answers: list[tuple[str, bool, list[str]]]) -> str:
    """Render annotations in the canonical answer format.

    answers is a list of (short_name, label, phrases) in prompt order; this
    is the grammar parse_response round-trips, handy for fixture authoring.
    """
    lines = []
    for k, (short_name, label, phrases) in enumerate(answers, 1):
        if label and phrases:
            quoted = ", ".join(f"'{p}'" for p in phrases)
            lines.append(f"({k}) {short_name}: yes, related phrases: {quoted}")
        elif label:
            lines.append(f"({k}) {short_name}: yes")
        else:
            lines.append(f"({k}) {short_name}: no")
    return "\n".join(lines)


@dataclass
class Fixture:
    """Canned responses: chat keyed by request digest, embeddings by text."""

    chat: dict[str, str] = field(default_factory=dict)
    embeddings: dict[str, list[float]] = field(default_factory=dict)
    dimension: int = 8

    @classmethod
    def from_dict(cls, doc: dict) -> "Fixture":
        chat = {}
        for entry in doc.get("chat", []):
            chat[chat_digest(entry["model"], entry["prompt"])] = entry["response"]
        embeddings = dict(doc.get("embeddings", {}))
        dimension = int(doc.get("dimension", 8))
        for text, vec in embeddings.items():
            if len(vec) != dimension:
                raise ValueError(
                    f"embedding for {text!r} has dim {len(vec)}, expected {dimension}"
                )
        return cls(chat=chat, embeddings=embeddings, dimension=dimension)

    @classmethod
    def from_file(cls, path: str | Path) -> "Fixture":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


class _Handler(BaseHTTPRequestHandler):
    # keep-alive, as real backends serve; with Nagle on, each reply would
    # wait for the client's delayed ACK (about 40 ms)
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def log_message(self, *args):  # keep test output quiet
        pass

    def _send(self, status: int, body: dict) -> None:
        data = json.dumps(body, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        try:
            payload = json.loads(self.rfile.read(length))
        except json.JSONDecodeError:
            self._send(400, {"error": "invalid JSON body"})
            return
        server: StubServer = self.server  # type: ignore[assignment]
        with server.lock:
            server.call_count += 1
        if self.path == CHAT_PATH:
            self._chat(server, payload)
        elif self.path == EMBEDDINGS_PATH:
            self._embeddings(server, payload)
        else:
            self._send(404, {"error": f"unknown path {self.path}"})

    def _chat(self, server: "StubServer", payload: dict) -> None:
        model = payload.get("model", "")
        messages = payload.get("messages") or []
        prompt = messages[0].get("content", "") if messages else ""
        digest = chat_digest(model, prompt)
        content = server.fixture.chat.get(digest)
        if content is None:
            self._send(404, {"error": "unknown request", "digest": digest})
            return
        self._send(
            200,
            {
                "model": model,
                "choices": [
                    {"index": 0, "message": {"role": "assistant", "content": content}}
                ],
            },
        )

    def _embeddings(self, server: "StubServer", payload: dict) -> None:
        inputs = payload.get("input") or []
        vectors = []
        for text in inputs:
            vec = server.fixture.embeddings.get(text)
            if vec is None:
                self._send(
                    404, {"error": "unknown request", "digest": text_digest(text)}
                )
                return
            vectors.append(vec)
        self._send(
            200,
            {
                "model": payload.get("model", ""),
                "data": [
                    {"index": i, "embedding": vec} for i, vec in enumerate(vectors)
                ],
            },
        )


class StubServer(ThreadingHTTPServer):
    daemon_threads = True
    block_on_close = False  # stop() must not wait on a client's idle connection

    def __init__(self, fixture: Fixture, port: int = 0):
        super().__init__(("127.0.0.1", port), _Handler)
        self.fixture = fixture
        self.call_count = 0
        self.lock = threading.Lock()
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def chat_url(self) -> str:
        return f"http://127.0.0.1:{self.port}{CHAT_PATH}"

    @property
    def embeddings_url(self) -> str:
        return f"http://127.0.0.1:{self.port}{EMBEDDINGS_PATH}"

    def stop(self) -> None:
        self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)


def serve(fixture: Fixture, port: int = 0) -> StubServer:
    """Start the stub in a daemon thread; PortInUse if the port is taken."""
    try:
        server = StubServer(fixture, port=port)
    except OSError as exc:
        if exc.errno == errno.EADDRINUSE:
            raise PortInUse(f"port {port} already in use") from exc
        raise
    # a short poll keeps stop() (shutdown waits for the next poll) fast
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    server._thread = thread
    thread.start()
    return server


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Serve a canned-response fixture")
    parser.add_argument("fixture", help="fixture JSON file")
    parser.add_argument("--port", type=int, default=8731)
    args = parser.parse_args(argv)
    server = serve(Fixture.from_file(args.fixture), port=args.port)
    print(f"stub server listening on {server.chat_url} and {server.embeddings_url}")
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        server.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
