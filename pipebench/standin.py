"""Backend stand-in for the pipeline benchmark: chat and embedding endpoints.

Run as its own process:

    python3 pipebench/standin.py SPEC.json

It binds an ephemeral port on 127.0.0.1, prints "port N" on stdout and
serves until terminated. HTTP/1.1 with keep-alive; Nagle is off and every
reply goes out in one write, so no reply waits on a delayed ACK. Answers
come from the workload's generated ground truth (see synth.py) with no
artificial delay:

* POST /v1/chat/completions finds the text inside the prompt by its unique
  token word and checks the whole text is there, so rewording the prompt
  does not matter. A planted (model, text) cell answers unparseably the
  first time and correctly after that.
* POST /v1/embeddings returns the synth.Embeddings vector of each input.
* GET /stats returns the counters; GET /reset zeroes them.

A chat request is "in flight" from the moment the stand-in reads its first
bytes to the moment it has written the reply; /stats lists those intervals
on the shared monotonic clock, so a caller can average them over any
window. The stand-in serves on one thread, one request at a time, so the
intervals never overlap and their mean over a window is at most 1: it is
the share of the window in which the stand-in holds a chat request. A
request still unread in a socket buffer is not yet in flight.
"""
from __future__ import annotations

import asyncio
import json
import re
import signal
import socket
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from synth import Embeddings  # noqa: E402

_WORD = re.compile(r"\w+")


class Backend:
    def __init__(self, spec: dict):
        self.texts: dict[str, str] = spec["texts"]
        self.answers: dict[str, dict[str, str]] = spec["answers"]
        self.planted = {tuple(cell) for cell in spec["planted"]}
        self.unparseable: list[str] = spec["unparseable"]
        self.embeddings = Embeddings.from_dict(spec["embeddings"])
        self._encoded: dict[str, str] = {}
        self.reset()

    def reset(self) -> None:
        self.chat_requests = 0
        self.embed_requests = 0
        self.embed_inputs = 0
        self.distinct: set[str] = set()
        self.other_requests = 0
        self.errors = 0
        self.chat_intervals: list[tuple[float, float]] = []

    def stats(self) -> dict:
        return {"chat_requests": self.chat_requests,
                "embed_requests": self.embed_requests,
                "embed_inputs": self.embed_inputs,
                "embed_inputs_distinct": len(self.distinct),
                "other_requests": self.other_requests,
                "errors": self.errors,
                "chat_intervals": self.chat_intervals}

    def chat(self, payload: dict) -> tuple[int, dict]:
        self.chat_requests += 1
        model = payload.get("model", "")
        messages = payload.get("messages") or []
        prompt = "\n".join(str(m.get("content", "")) for m in messages)
        tid = next((w for w in _WORD.findall(prompt) if w in self.texts), None)
        content = self.answers.get(model, {}).get(tid) if tid else None
        if content is None or self.texts[tid] not in prompt:
            self.errors += 1
            return 404, {"error": "no ground truth for this prompt"}
        if (model, tid) in self.planted:
            self.planted.discard((model, tid))
            content = self.unparseable[sum(map(ord, tid)) % len(self.unparseable)]
        return 200, {"model": model, "choices": [
            {"index": 0, "message": {"role": "assistant", "content": content}}]}

    def embed(self, payload: dict) -> str:
        self.embed_requests += 1
        inputs = payload.get("input") or []
        self.embed_inputs += len(inputs)
        self.distinct.update(inputs)
        parts = []
        for i, text in enumerate(inputs):
            enc = self._encoded.get(text)
            if enc is None:
                vec = self.embeddings.vector(text)
                enc = json.dumps([float(x) for x in vec])
                self._encoded[text] = enc
            parts.append(f'{{"index": {i}, "embedding": {enc}}}')
        return '{"data": [' + ", ".join(parts) + "]}"


class Connection(asyncio.Protocol):
    def __init__(self, backend: Backend):
        self.backend = backend
        self.buf = b""
        self.arrived = 0.0  # when the first bytes of the request in buf came
        self.transport = None

    def connection_made(self, transport):
        self.transport = transport
        sock = transport.get_extra_info("socket")
        if sock is not None:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def data_received(self, data: bytes) -> None:
        if not self.buf:
            self.arrived = time.monotonic()
        self.buf += data
        while True:
            head_end = self.buf.find(b"\r\n\r\n")
            if head_end < 0:
                return
            head = self.buf[:head_end].decode("latin-1").split("\r\n")
            length = 0
            close = False
            for line in head[1:]:
                key, _, value = line.partition(":")
                key = key.strip().lower()
                if key == "content-length":
                    length = int(value)
                elif key == "connection":
                    close = value.strip().lower() == "close"
            end = head_end + 4 + length
            if len(self.buf) < end:
                return
            body = self.buf[head_end + 4:end]
            self.buf = self.buf[end:]
            method, path, version = head[0].split()
            self.respond(method, path, body, close or version == "HTTP/1.0",
                         self.arrived)

    def respond(self, method: str, path: str, body: bytes, close: bool,
                start: float) -> None:
        backend = self.backend
        is_chat = False
        if method == "POST" and path == "/v1/chat/completions":
            is_chat = True
            status, doc = backend.chat(json.loads(body))
            data = json.dumps(doc).encode("utf-8")
        elif method == "POST" and path == "/v1/embeddings":
            status, data = 200, backend.embed(json.loads(body)).encode("utf-8")
        elif path == "/stats":
            status, data = 200, json.dumps(backend.stats()).encode("utf-8")
        elif path == "/reset":
            backend.reset()
            status, data = 200, b"{}"
        else:
            backend.other_requests += 1
            status, data = 404, b'{"error": "unknown path"}'
        reason = "OK" if status == 200 else "Not Found"
        head = (f"HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n"
                f"Content-Length: {len(data)}\r\n"
                f"Connection: {'close' if close else 'keep-alive'}\r\n\r\n")
        self.transport.write(head.encode("latin-1") + data)
        if is_chat:
            backend.chat_intervals.append((start, time.monotonic()))
        if close:
            self.transport.close()


async def serve(spec_path: str) -> None:
    backend = Backend(json.loads(Path(spec_path).read_text(encoding="utf-8")))
    loop = asyncio.get_running_loop()
    server = await loop.create_server(lambda: Connection(backend), "127.0.0.1", 0)
    stop = loop.create_future()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, lambda: stop.done() or stop.set_result(None))
    print(f"port {server.sockets[0].getsockname()[1]}", flush=True)
    async with server:
        await stop


if __name__ == "__main__":
    asyncio.run(serve(sys.argv[1]))
