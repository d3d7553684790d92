import http.client
import json
from urllib.parse import urlsplit

from topicensemble.stubserver import Fixture, chat_digest


DOC = {
    "dimension": 3,
    "chat": [{"model": "m1", "prompt": "hello", "response": "(1) x: no"}],
    "embeddings": {"hello": [1.0, 0.0, 0.0], "": [0.0, 1.0, 0.0]},
}


def post(url: str, body: dict) -> tuple[int, bytes]:
    """(status, reply body) of one JSON POST on a connection of its own."""
    parts = urlsplit(url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=10)
    try:
        conn.request("POST", parts.path, json.dumps(body).encode("utf-8"),
                     {"Content-Type": "application/json"})
        reply = conn.getresponse()
        return reply.status, reply.read()
    finally:
        conn.close()


def test_chat_hit(stub_server):
    server = stub_server(DOC)
    body = {
        "model": "m1",
        "messages": [{"role": "user", "content": "hello"}],
        "temperature": 0.0,
        "max_tokens": 16,
    }
    status, data = post(server.chat_url, body)
    assert status == 200
    assert json.loads(data)["choices"][0]["message"]["content"] == "(1) x: no"


def test_chat_unknown_prompt_echoes_digest(stub_server):
    server = stub_server(DOC)
    body = {"model": "m1", "messages": [{"role": "user", "content": "nope"}]}
    status, data = post(server.chat_url, body)
    assert status == 404
    assert json.loads(data)["digest"] == chat_digest("m1", "nope")


def test_embeddings_hit_in_order(stub_server):
    server = stub_server(DOC)
    status, body = post(server.embeddings_url, {"model": "emb", "input": ["", "hello"]})
    assert status == 200
    data = json.loads(body)["data"]
    assert data[0]["embedding"] == [0.0, 1.0, 0.0]
    assert data[1]["embedding"] == [1.0, 0.0, 0.0]


def test_embeddings_unknown_text(stub_server):
    server = stub_server(DOC)
    status, data = post(server.embeddings_url, {"model": "emb", "input": ["mystery"]})
    assert status == 404
    assert "digest" in json.loads(data)


def test_unknown_path(stub_server):
    server = stub_server(DOC)
    status, _ = post(f"http://127.0.0.1:{server.port}/v1/other", {})
    assert status == 404


def test_responses_byte_identical(stub_server):
    server = stub_server(DOC)
    body = {"model": "m1", "messages": [{"role": "user", "content": "hello"}]}
    first = post(server.chat_url, body)[1]
    second = post(server.chat_url, body)[1]
    assert first == second


def test_keep_alive(stub_server):
    server = stub_server(DOC)
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
    socks = []
    try:
        for _ in range(3):
            conn.request("POST", "/v1/embeddings", json.dumps({"input": [""]}))
            reply = conn.getresponse()
            assert reply.status == 200 and reply.version == 11
            assert json.loads(reply.read())["data"][0]["embedding"] == [0.0, 1.0, 0.0]
            socks.append(conn.sock)  # None once the server has closed it
    finally:
        conn.close()
    assert socks[0] is not None and socks == [socks[0]] * 3
    assert server.call_count == 3


def test_fixture_from_file(tmp_path):
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(DOC))
    fixture = Fixture.from_file(path)
    assert fixture.dimension == 3
    assert chat_digest("m1", "hello") in fixture.chat


def test_fixture_dimension_mismatch(tmp_path):
    bad = dict(DOC, embeddings={"x": [1.0, 2.0]})
    try:
        Fixture.from_dict(bad)
    except ValueError:
        pass
    else:
        raise AssertionError("dimension mismatch accepted")


def test_call_counter(stub_server):
    server = stub_server(DOC)
    assert server.call_count == 0
    post(server.embeddings_url, {"model": "e", "input": [""]})
    post(server.embeddings_url, {"model": "e", "input": [""]})
    assert server.call_count == 2


def test_port_in_use(stub_server):
    import pytest

    from topicensemble.errors import PortInUse
    from topicensemble.stubserver import Fixture, serve

    server = stub_server(DOC)
    with pytest.raises(PortInUse):
        serve(Fixture.from_dict(DOC), port=server.port)
