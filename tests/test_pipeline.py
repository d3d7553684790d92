import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import socket
import sqlite3
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from topicensemble import annotator, relevancy
from topicensemble.annotator import ModelBackend, ResponseCache, TopicAnnotation
from topicensemble.cli import main
from topicensemble.config import _file_digest, config_digest, load_config
from topicensemble.corpus import CorpusView, TextItem, Topic, TopicSet
from topicensemble.errors import (CacheError, ConfigInvalid, MalformedRecord,
                                  MissingUpstreamArtifact)
from topicensemble import pipeline
from topicensemble.pipeline import run
from topicensemble.relevancy import EmbeddingBackend
from topicensemble.stubserver import Fixture, serve

E2E = Path(__file__).parent / "fixtures" / "e2e"


@pytest.fixture
def e2e(tmp_path):
    """Copy of the demo fixture wired to a live stub server on a free port."""
    workdir = tmp_path / "demo"
    shutil.copytree(E2E, workdir)
    server = serve(Fixture.from_file(workdir / "fixture.json"))
    config_path = workdir / "config.yaml"
    config_path.write_text(
        config_path.read_text().replace("8731", str(server.port))
    )
    yield workdir, server
    server.stop()


def test_run_all_produces_artifact_tree(e2e):
    workdir, server = e2e
    cfg = load_config(workdir / "config.yaml")
    run_dir = run(cfg, stage="all", run_id="test-run")
    for name in (
        "annotate/annotations.jsonl",
        "annotate/manifest.json",
        "score/relevancy.jsonl",
        "score/aggregated.jsonl",
        "agree/agreement.csv",
        "agree/outliers.json",
        "ensemble/sleep.decisions.jsonl",
        "ensemble/sleep.sweep.csv",
        "ensemble/appetite.decisions.jsonl",
        "ensemble/ensemble.json",
        "evaluate/groups.csv",
        "evaluate/metrics.csv",
    ):
        assert (run_dir / name).exists(), name

    outliers = json.loads((run_dir / "agree" / "outliers.json").read_text())
    assert outliers["excluded"] == ["m_gamma"]

    digest = config_digest(cfg)
    meta = json.loads(
        (run_dir / "annotate" / "annotations.jsonl").read_text().splitlines()[0]
    )
    assert meta["_meta"]["config_digest"] == digest
    agreement_lines = (run_dir / "agree" / "agreement.csv").read_text().splitlines()
    assert digest in agreement_lines[0]
    assert agreement_lines[1] == "topic,kind,target,coefficient,ci_lo,ci_hi"
    # 2 topics x {AC1, Fleiss} x {labels, scores}
    assert len(agreement_lines) == 2 + 8
    manifest = json.loads((run_dir / "ensemble" / "manifest.json").read_text())
    assert manifest["run_id"] == "test-run"
    assert manifest["config_digest"] == digest


def test_two_backend_run_skips_the_outlier_scan_and_fuses_both(e2e):
    # outlier detection needs a third model to leave out; with two, agree
    # records why it did not run and ensemble fuses both
    workdir, server = e2e
    config_path = workdir / "config.yaml"
    doc = yaml.safe_load(config_path.read_text())
    doc["backends"] = [b for b in doc["backends"] if b["name"] != "m_gamma"]
    config_path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    cfg = load_config(config_path)
    run_dir = run(cfg, stage="all", run_id="two")
    outliers = json.loads((run_dir / "agree" / "outliers.json").read_text())
    assert outliers == {
        "base_ac1": None, "deltas": {}, "excluded": [],
        "threshold_fraction": cfg.outlier_threshold,
        "note": "outlier detection needs >=3 models",
        "config_digest": config_digest(cfg),
    }
    summary = json.loads((run_dir / "ensemble" / "ensemble.json").read_text())
    assert sorted(summary["topics"]) == ["appetite", "sleep"]
    for topic in summary["topics"].values():
        assert topic["models"] == ["m_alpha", "m_beta"]


# SHA-256 of each e2e artifact with the config digest replaced by "<digest>",
# since the digest covers the endpoints and so the stub's port
E2E_ARTIFACT_SHA256 = {
    "agree/agreement.csv": "1a6597cb9ac896d05f94a1e589dbeb2da816f357b6bdaf973294e0fac08c03ca",
    "agree/manifest.json": "1b0bcbc37c554ee13890f02cdeec8c3fc65d5546faaef11ba2a631d3df60a93f",
    "agree/outliers.json": "2cd375114abb4b329b647a1188d4d2b1bfe30dd34955608e35716ab73ad591fa",
    "annotate/annotations.jsonl":
        "b40b77a35da6d406738af3fb63fe0cba18da7c11987dfc411186e29b81792803",
    "annotate/manifest.json": "c0f76221594222c91c19491e23445a1391aae645bced5b476a7827a6757b5c9c",
    "ensemble/appetite.decisions.jsonl":
        "e8bfef4b3ac72c8f31dde30b94a8ab6745d384d43a56b97bd883b41d898b3107",
    "ensemble/appetite.sweep.csv":
        "d384a5cbaf9fd133e9625af92dd7471be9f9b61e00e4dc2c57b3177903cf4fa1",
    "ensemble/ensemble.json": "23b1ab6a7fe43f2ede7605edd5612ae09112753f663e56d545013b422d825346",
    "ensemble/manifest.json": "b5a2905fcd2a219e8e6e78577158ad2194bb64b20a2caafd1808f7cd8e839d91",
    "ensemble/sleep.decisions.jsonl":
        "55597f4953a38b4f34428b242b2deb943c38ec7a9e496a57faea97d977d4299f",
    "ensemble/sleep.sweep.csv": "89aa0f2edde6323f5355992deb28d9cd5d8582a490081fef9caedae5b8a3328e",
    "evaluate/groups.csv": "a9ecb5ae5f1dde7b66a3e140e67785395b138e9adbfc54288c0d5ce6462f1232",
    "evaluate/manifest.json": "6e1e9c8d4660b0dcec8b62b82836aa8e7a1b0023cad6b49d8afa15bbde0fbb16",
    "evaluate/metrics.csv": "48506fc3769a7f5c5aaf195f2c59261f8be84fec4b6ece9450fb96b5295b9a52",
    "score/aggregated.jsonl": "11d1155677e9b47fac9bd4bdeb639b5ee2cbe1121edb9114daaca5303ba609b2",
    "score/manifest.json": "9bccb436e5b4d4ffb5fec2cd0a86722e56a789516512ab2c8594abb7cfd03236",
    "score/relevancy.jsonl": "ee5a2f8c112992f2c7aaa7dbbf2f855bad71b4b1f4568c731f3af1aa3c632d1a",
}


def test_e2e_artifact_bytes_are_pinned(tmp_path):
    servers = [serve(Fixture.from_file(E2E / "fixture.json")) for _ in range(2)]
    try:
        assert servers[0].port != servers[1].port
        for k, server in enumerate(servers):
            workdir = tmp_path / f"demo{k}"
            shutil.copytree(E2E, workdir)
            config_path = workdir / "config.yaml"
            config_path.write_text(config_path.read_text().replace("8731", str(server.port)))
            cfg = load_config(config_path)
            run_dir = run(cfg, stage="all", run_id="pinned")
            digest = config_digest(cfg).encode()
            got = {p.relative_to(run_dir).as_posix():
                   hashlib.sha256(p.read_bytes().replace(digest, b"<digest>")).hexdigest()
                   for p in run_dir.rglob("*") if p.is_file()}
            assert got == E2E_ARTIFACT_SHA256, f"port {server.port}"
    finally:
        for server in servers:
            server.stop()


def test_warm_annotate_posts_nothing_and_uses_no_worker(e2e, monkeypatch):
    workdir, server = e2e
    cfg = load_config(workdir / "config.yaml")
    submitted, posts = [], []
    real_run_parallel, real_post = annotator.run_parallel, annotator.ConnectionPool.post

    def spying_run_parallel(fn, items, workers):
        submitted.extend(items)
        return real_run_parallel(fn, items, workers)

    def counting_post(self, *args, **kwargs):
        posts.append(args)
        return real_post(self, *args, **kwargs)

    monkeypatch.setattr(annotator.ConnectionPool, "post", counting_post)
    cold = run(cfg, stage="annotate", run_id="cold")
    assert len(posts) > 0  # the spy sees the POSTs a cold run makes
    posts.clear()
    monkeypatch.setattr(annotator, "run_parallel", spying_run_parallel)
    warm = run(cfg, stage="annotate", run_id="warm")
    assert submitted == [] and posts == []
    rel = Path("annotate") / "annotations.jsonl"
    assert (warm / rel).read_bytes() == (cold / rel).read_bytes()


def test_warm_annotate_starts_no_thread(e2e, monkeypatch):
    # a cold run of 6 texts x 3 backends at parallelism 2 starts a thread for
    # each lane but the calling thread's, and one worker thread in each lane;
    # the stub server's threads are not the run's, and a warm run starts none
    workdir, server = e2e
    cfg = load_config(workdir / "config.yaml")
    caller, started = threading.current_thread(), []
    real_start = threading.Thread.start

    def spying_start(self):
        if threading.current_thread() is caller or threading.current_thread() in started:
            started.append(self)
        return real_start(self)

    monkeypatch.setattr(threading.Thread, "start", spying_start)
    run(cfg, stage="annotate", run_id="cold")
    assert len(started) == (3 - 1) + 3 * (2 - 1)
    started.clear()
    run(cfg, stage="annotate", run_id="warm")
    assert started == []


def _numbered_corpus(workdir: Path, texts: int) -> None:
    (workdir / "corpus.jsonl").write_text("".join(
        json.dumps({"id": f"t{i}", "text": f"Text number {i}."}) + "\n"
        for i in range(texts)))


def _answer_no(prompt: str) -> str:
    """A well-formed answer to a labeling prompt: no to every topic."""
    block = prompt.split("Return answer in format:\n", 1)[1].rsplit("\nParagraph: ", 1)[0]
    return block.replace("[yes/no], related phrases if any:", "no")


def test_a_dead_later_backend_stops_the_run_during_the_first_backends_pass(tmp_path,
                                                                           monkeypatch):
    with socket.socket() as sock:  # a port nothing listens on once closed
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    workdir = tmp_path / "demo"
    shutil.copytree(E2E, workdir)
    texts = 300
    _numbered_corpus(workdir, texts)
    _write_mutated(workdir / "config.yaml",
                   {"backends.1.endpoint": f"http://127.0.0.1:{port}/v1/chat/completions"})
    calls = Counter()
    real_chat = annotator.chat

    def chat(backend, prompt, pool):  # m_alpha and m_gamma answer in 5 ms
        if backend.name == "m_beta":
            return real_chat(backend, prompt, pool)
        calls[backend.name] += 1
        time.sleep(0.005)
        return _answer_no(prompt)

    monkeypatch.setattr(annotator, "chat", chat)
    assert main(["run", "--config", str(workdir / "config.yaml"), "--run-id", "dead"]) == 4
    assert 0 < calls["m_alpha"] < texts


def test_a_writer_failing_mid_stream_leaves_no_lane_running(tmp_path, monkeypatch,
                                                            left_running):
    workdir = tmp_path / "demo"
    shutil.copytree(E2E, workdir)
    _numbered_corpus(workdir, 60)
    cfg = load_config(workdir / "config.yaml")

    def chat(backend, prompt, pool):  # the lanes' backends are slow
        time.sleep(0.0 if backend.name == "m_alpha" else 0.03)
        return _answer_no(prompt)

    def failing_write(path, schema, digest, rows):
        next(iter(rows))
        raise RuntimeError("disk full")

    store_errors = []
    real_execute = ResponseCache._execute

    def recording_execute(self, *args, **kwargs):
        try:
            return real_execute(self, *args, **kwargs)
        except CacheError as exc:
            store_errors.append(exc)
            raise

    monkeypatch.setattr(annotator, "chat", chat)
    monkeypatch.setattr(pipeline, "_write_jsonl", failing_write)
    monkeypatch.setattr(ResponseCache, "_execute", recording_execute)
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="disk full"):
        run(cfg, stage="annotate", run_id="cut")
    assert left_running(before) == []
    assert store_errors == []


def test_score_computes_each_cosine_once(e2e, monkeypatch):
    workdir, server = e2e
    cfg = load_config(workdir / "config.yaml")
    run_dir = run(cfg, stage="annotate", run_id="cos")
    calls = []
    real_cosine = relevancy.cosine_similarity

    def counting_cosine(u, v):
        calls.append(1)
        return real_cosine(u, v)

    monkeypatch.setattr(relevancy, "cosine_similarity", counting_cosine)
    run(cfg, stage="score", run_id="cos")
    rows = [json.loads(line) for line in
            (run_dir / "annotate" / "annotations.jsonl").read_text().splitlines()[1:]]
    positive = [row for row in rows if row["label"] and row["phrases"]]
    pairs = {(row["topic"], phrase) for row in positive for phrase in row["phrases"]}
    assert len(pairs) < sum(len(row["phrases"]) for row in positive)  # pairs repeat
    # one cosine per distinct (topic, phrase), plus each topic's baseline
    assert len(calls) == len(pairs) + len({row["topic"] for row in positive})


@pytest.mark.parametrize("bad,message", [
    (lambda vec: [None, *vec[1:]], "non-finite embedding"),
    (lambda vec: [float("nan"), *vec[1:]], "non-finite embedding"),
    (lambda vec: [float("inf"), *vec[1:]], "non-finite embedding"),
    (lambda vec: [1e39, *vec[1:]], "non-finite embedding"),  # infinite as float32
    (lambda vec: [0.0] * len(vec), "zero-norm embedding for input "),
], ids=["null", "nan", "infinity", "past float32", "zero"])
def test_non_finite_embedding_is_a_backend_failure(e2e, monkeypatch, capsys, bad, message):
    # refused before it is stored, so a rerun asks again and scores finite
    workdir, server = e2e
    config = str(workdir / "config.yaml")
    real_post = relevancy.post_json

    def post(*args):
        body = real_post(*args)
        body["data"][-1]["embedding"] = bad(body["data"][-1]["embedding"])
        return body

    monkeypatch.setattr(relevancy, "post_json", post)
    assert main(["run", "--config", config, "--run-id", "bad"]) == 4
    err = capsys.readouterr().err
    assert "backend failure: " in err and message in err
    assert "Traceback" not in err
    monkeypatch.undo()
    assert main(["run", "--config", config, "--run-id", "bad", "--stage", "score"]) == 0
    scored = workdir / "runs" / "bad" / "score"
    for name in ("relevancy.jsonl", "aggregated.jsonl"):
        text = (scored / name).read_text()
        assert "NaN" not in text and "Infinity" not in text


def test_run_stages_individually_equals_run_all(e2e):
    workdir, server = e2e
    cfg = load_config(workdir / "config.yaml")
    all_dir = run(cfg, stage="all", run_id="all-at-once")
    for stage in ("annotate", "score", "agree", "ensemble", "evaluate"):
        staged_dir = run(cfg, stage=stage, run_id="one-by-one")
    data_files = [
        p.relative_to(all_dir)
        for p in all_dir.rglob("*")
        if p.is_file() and p.name != "manifest.json"  # run_id differs there
    ]
    for rel in data_files:
        assert (staged_dir / rel).read_bytes() == (all_dir / rel).read_bytes(), rel


def test_run_ensemble_without_upstream(e2e):
    workdir, server = e2e
    cfg = load_config(workdir / "config.yaml")
    with pytest.raises(MissingUpstreamArtifact):
        run(cfg, stage="ensemble", run_id="orphan")


def test_final_labels_match_design(e2e):
    workdir, server = e2e
    cfg = load_config(workdir / "config.yaml")
    run_dir = run(cfg, stage="all", run_id="labels")
    finals = {}
    for topic in ("sleep", "appetite"):
        lines = (run_dir / "ensemble" / f"{topic}.decisions.jsonl").read_text().splitlines()
        rows = [json.loads(line) for line in lines[1:]]
        finals[topic] = {r["text_id"]: r["final"] for r in rows}
        assert all(set(r["per_model_labels"]) == {"m_alpha", "m_beta"} for r in rows)
    assert finals["sleep"] == {
        "t1": True, "t2": True, "t3": False, "t4": False, "t5": False, "t6": False
    }
    assert finals["appetite"] == {
        "t1": False, "t2": False, "t3": True, "t4": True, "t5": False, "t6": False
    }


def test_group_summaries(e2e):
    workdir, server = e2e
    cfg = load_config(workdir / "config.yaml")
    run_dir = run(cfg, stage="all", run_id="groups")
    lines = (run_dir / "evaluate" / "groups.csv").read_text().splitlines()
    rows = {
        (r.split(",")[0], r.split(",")[1]): r.split(",")
        for r in lines[2:]
    }
    # sleep finals t1,t2 both in forum_a
    assert float(rows[("forum_a", "sleep")][2]) == pytest.approx(2 / 3)
    assert float(rows[("forum_b", "sleep")][2]) == 0.0
    assert float(rows[("forum_a", "appetite")][2]) == pytest.approx(1 / 3)
    assert float(rows[("forum_b", "appetite")][2]) == pytest.approx(1 / 3)
    assert all(int(r[4]) == 3 for r in rows.values())


def test_metrics_rows(e2e):
    workdir, server = e2e
    cfg = load_config(workdir / "config.yaml")
    run_dir = run(cfg, stage="all", run_id="metrics")
    lines = (run_dir / "evaluate" / "metrics.csv").read_text().splitlines()
    header = lines[1].split(",")
    assert header == ["candidate", "topic", "precision", "sensitivity", "f1", "auprc"]
    rows = [line.split(",") for line in lines[2:]]
    candidates = {(r[0], r[1]) for r in rows}
    # 3 models + ensemble, per topic
    assert ("ensemble", "sleep") in candidates
    assert ("m_gamma", "appetite") in candidates
    assert len(rows) == 8
    ens_sleep = next(r for r in rows if r[0] == "ensemble" and r[1] == "sleep")
    assert float(ens_sleep[2]) == 1.0  # precision: predicted {t1,t2} vs gold {t1,t2,t3}
    assert float(ens_sleep[3]) == pytest.approx(2 / 3)
    ens_app = next(r for r in rows if r[0] == "ensemble" and r[1] == "appetite")
    assert float(ens_app[4]) == 1.0


def test_cli_validate_and_run_and_triage(e2e, capsys):
    workdir, server = e2e
    config = str(workdir / "config.yaml")
    assert main(["validate-config", "--config", config]) == 0
    assert main(["run", "--config", config, "--run-id", "cli-run"]) == 0
    assert main(
        ["export-triage", "--config", config, "--run-id", "cli-run", "--top", "3"]
    ) == 0
    triage = (workdir / "runs" / "cli-run" / "triage.csv").read_text().splitlines()
    rows = [line.split(",") for line in triage[2:]]
    kinds = {(r[0], r[2]) for r in rows}
    assert ("sleep", "review_positive") in kinds
    assert ("sleep", "review_negative") in kinds
    # review positives ranked lowest-pc1 first
    sleep_pos = [r for r in rows if r[0] == "sleep" and r[2] == "review_positive"]
    pc1s = [float(r[3]) for r in sleep_pos]
    assert pc1s == sorted(pc1s)


def test_cli_missing_upstream_exit_code(e2e):
    workdir, server = e2e
    config = str(workdir / "config.yaml")
    assert main(["run", "--config", config, "--stage", "score", "--run-id", "x"]) == 3


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("corpus: {path: missing.jsonl}\n")
    assert main(["run", "--config", str(bad)]) == 2
    assert main(["validate-config", "--config", str(bad)]) == 2


def test_cli_backend_failure_exit_code(e2e):
    workdir, server = e2e
    config_path = workdir / "config.yaml"
    server.stop()
    assert main(["run", "--config", str(config_path), "--run-id", "down"]) == 4


def test_config_invalid_details(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(
        "corpus: {path: c.jsonl, format: tsv}\n"
        "topics: t.yaml\n"
        "backends:\n"
        "  - {name: only_one, endpoint: http://x/v1}\n"
        "embedding: {endpoint: http://x/emb}\n"
        "outlier_threshold: 0\n"
    )
    with pytest.raises(ConfigInvalid) as excinfo:
        load_config(path)
    text = "\n".join(excinfo.value.problems)
    assert "format" in text
    assert "2 backends" in text
    assert "outlier_threshold" in text


def _set(doc, dotted: str, value) -> None:
    """Set a config field named by its dotted path (digits index lists)."""
    *parents, leaf = [int(k) if k.isdigit() else k for k in dotted.split(".")]
    for key in parents:
        doc = doc[key]
    doc[leaf] = value


def _scalar_fields(node, prefix: str = ""):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _scalar_fields(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}"


def _write_mutated(config_path: Path, changes: dict) -> None:
    doc = yaml.safe_load((E2E / "config.yaml").read_text())
    for dotted, value in changes.items():
        _set(doc, dotted, value)
    config_path.write_text(yaml.safe_dump(doc), encoding="utf-8")


# bootstrap cases keep their ids from when the test covered bootstrap alone
@pytest.mark.parametrize("setting, problem", [
    ("bootstrap: {resamples: 200, seed: -1}", "bootstrap.seed must be >= 0"),
    ("bootstrap: {resamples: many, seed: 7}", "bootstrap.resamples must be an integer"),
    ("bootstrap: {resamples: 200, seed: 1.5}", "bootstrap.seed must be an integer"),
    ("bootstrap: {resamples: 200, seed: abc}", "bootstrap.seed must be an integer"),
    ("bootstrap: 5", "bootstrap must be a mapping"),
    # only a missing or null section is absent: a falsy one is not a mapping
    ("bootstrap: false", "bootstrap must be a mapping, got False"),
    ("bootstrap: 0", "bootstrap must be a mapping, got 0"),
    ("bootstrap: []", "bootstrap must be a mapping, got []"),
    ("bootstrap: ''", "bootstrap must be a mapping, got ''"),
    ("corpus: false", "corpus must be a mapping, got False"),
    ("embedding: 0", "embedding must be a mapping, got 0"),
    ("backends: ''", "backends must be a list of mappings"),
    ("backends: {}", "backends must be a list of mappings"),
    ("retries: -1", "retries must be >= 0"),
    ("retries: 101", "retries must be >= 0 and <= 100"),
    ("embedding.batch_size: 0", "embedding.batch_size must be >= 1"),
    ("backends.0.parallelism: many", "backends[0].parallelism must be an integer"),
    ("backends.0.parallelism: 257", "backends[0].parallelism must be >= 1 and <= 256"),
    ("embedding.parallelism: 257", "embedding.parallelism must be >= 1 and <= 256"),
    ("failure_budget: 7", "failure_budget must be >= 0 and <= 1"),
    ("timeout: 0", "timeout must be > 0"),
    ("backoff: -0.5", "backoff must be >= 0"),
    ("timeout: 1e10", "timeout must be > 0 and <= 86400"),
    ("backoff: 1e12", "backoff must be >= 0 and <= 86400"),
    ("backends.1: 7", "backends[1] must be a mapping"),
    ("embedding: [a, b]", "embedding must be a mapping"),
    ("backends.0.endpoint: 127.0.0.1:8731/v1/chat/completions",
     "backends[0].endpoint must be an http(s) URL"),
    ("backends.0.endpoint: http://127.0.0.1:8731/v1/chat completions",
     "backends[0].endpoint must be an http(s) URL"),
    ("embedding.endpoint: ftp://127.0.0.1:8731/v1/embeddings",
     "embedding.endpoint must be an http(s) URL"),
    ("failure_budgett: 0.5", "failure_budgett is not a known field"),
    ("backends.0.parallelsim: 4", "backends[0].parallelsim is not a known field"),
    ("embedding.batchsize: 16", "embedding.batchsize is not a known field"),
    ("backends.0.auth_env: 123", "backends[0].auth_env must be a string, got 123"),
    ("backends.1.name: m_alpha", "duplicate backend name 'm_alpha'"),
    ("backends: 7", "backends must be a list of mappings"),
    ("backends.0.name: null", "backends[0] needs name and endpoint strings"),
    ("embedding.endpoint: null", "embedding needs name and endpoint strings"),
    ("corpus.format: tsv", "corpus.format must be jsonl or csv, got 'tsv'"),
    ("subset_ensembles: 1", "subset_ensembles must be true or false, got 1"),
    ("cache_dir: 5", "cache_dir must be a path, got 5"),
    ("backends.0.endpoint: http://127.0.0.1:99999/v1",
     "backends[0].endpoint must be an http(s) URL"),
], ids=lambda value: value.removeprefix("bootstrap: "))
def test_cli_bad_bootstrap_config(tmp_path, capsys, setting, problem):
    workdir = tmp_path / "demo"
    shutil.copytree(E2E, workdir)
    config_path = workdir / "config.yaml"
    _write_mutated(config_path, yaml.safe_load(setting))
    assert main(["validate-config", "--config", str(config_path)]) == 2
    assert main(["run", "--config", str(config_path), "--run-id", "bad"]) == 2
    err = capsys.readouterr().err
    assert problem in err
    assert "Traceback" not in err


def test_a_parallelism_of_256_is_accepted(tmp_path):
    # the bound itself loads; the config starts no thread
    config_path = tmp_path / "config.yaml"
    _write_mutated(config_path, {"backends.1.parallelism": 256, "embedding.parallelism": 256})
    cfg = load_config(config_path)
    assert (cfg.backends[1].parallelism, cfg.embedding.parallelism) == (256, 256)


def test_a_retries_of_100_is_accepted(tmp_path):
    config_path = tmp_path / "config.yaml"
    _write_mutated(config_path, {"retries": 100})
    assert load_config(config_path).retries == 100


def test_a_null_section_is_absent(tmp_path):
    config_path = tmp_path / "config.yaml"
    _write_mutated(config_path, {"bootstrap": None})
    cfg = load_config(config_path)
    assert (cfg.bootstrap_resamples, cfg.bootstrap_seed) == (1000, 0)


@pytest.mark.parametrize("name, content", [
    ("missing.yaml", None),
    ("config.yaml", "corpus: [unclosed\n"),
], ids=["missing", "invalid-yaml"])
def test_cli_unreadable_config(tmp_path, capsys, name, content):
    config_path = tmp_path / name
    if content is not None:
        config_path.write_text(content, encoding="utf-8")
    assert main(["validate-config", "--config", str(config_path)]) == 2
    assert main(["run", "--config", str(config_path), "--run-id", "bad"]) == 2
    err = capsys.readouterr().err
    assert err.count(f"config error: cannot read config {config_path}") == 2
    assert "Traceback" not in err


# configs with several problems: load_config reports each, in this order
@pytest.mark.parametrize("setting, problems", [
    ("{backends.1: 7, backends.2: 7}", [
        "backends[1] must be a mapping, got 7",
        "backends[1] needs name and endpoint strings",
        "backends[2] must be a mapping, got 7",
        "backends[2] needs name and endpoint strings",
        "at least 2 backends are required for ensembling",
    ]),
    # an entry whose numbers are wrong still claims its name
    ("{backends.0.parallelism: many, backends.1.name: m_alpha}", [
        "backends[0].parallelism must be an integer, got 'many'",
        "duplicate backend name 'm_alpha'",
    ]),
    ("corpus: 5", [
        "corpus must be a mapping, got 5",
        "corpus.path must be a path, got None",
    ]),
    ("[corpus, topics]", ["config {path} is not a mapping"]),
], ids=["two-entries-not-mappings", "bad-number-then-duplicate", "corpus-not-mapping",
        "document-not-mapping"])
def test_load_config_reports_every_problem_in_order(tmp_path, setting, problems):
    config_path = tmp_path / "config.yaml"
    changes = yaml.safe_load(setting)
    if isinstance(changes, dict):
        _write_mutated(config_path, changes)
    else:
        config_path.write_text(setting, encoding="utf-8")
    with pytest.raises(ConfigInvalid) as excinfo:
        load_config(config_path)
    assert excinfo.value.problems == [p.format(path=config_path) for p in problems]


def test_load_config_refuses_an_endpoint_host_idna_cannot_encode(tmp_path):
    # the transport cannot form its Host header, so the config refuses it too
    config_path = tmp_path / "config.yaml"
    _write_mutated(config_path, {"embedding.endpoint": "http://ä..b/v1/embeddings"})
    with pytest.raises(ConfigInvalid) as excinfo:
        load_config(config_path)
    assert excinfo.value.problems == [
        "embedding.endpoint must be an http(s) URL, got 'http://ä..b/v1/embeddings'"]


def test_readme_config_example_loads(tmp_path):
    # the documented keys and the accepted keys stay the same
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1]
    example = section.split("```yaml\n", 1)[1].split("```", 1)[0]
    (tmp_path / "config.yaml").write_text(example, encoding="utf-8")
    load_config(tmp_path / "config.yaml")  # raises ConfigInvalid naming each problem


E2E_FIELDS = sorted(_scalar_fields(yaml.safe_load((E2E / "config.yaml").read_text())))
WRONG_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.integers(),
    st.sampled_from([10**400, 1e308, -1e308]), st.floats(), st.text(max_size=12),
    st.lists(st.integers(), max_size=2), st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    # paths, relative to the config: input files, one that is missing, the directory
    st.sampled_from(["topics.yaml", "gold.csv", "missing", "."]),
)


@pytest.fixture(scope="module")
def e2e_inputs(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("mutated")
    shutil.copytree(E2E, workdir, dirs_exist_ok=True)
    return workdir


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from(E2E_FIELDS), WRONG_VALUES, min_size=1, max_size=3))
def test_validate_config_never_crashes(e2e_inputs, changes):
    # and `run` agrees: with no upstream artifacts, evaluate exits 3 exactly
    # when the config is valid, else 2 (config) or 1 (an input that does not load)
    config_path = e2e_inputs / "config.yaml"
    _write_mutated(config_path, changes)
    codes = []
    for argv in (["validate-config"], ["run", "--stage", "evaluate", "--run-id", "gate"]):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            codes.append(main(argv + ["--config", str(config_path)]))
        assert "Traceback" not in err.getvalue()
    validated, ran = codes
    assert validated in (0, 2)
    assert ran == 3 if validated == 0 else ran in (1, 2)


def test_config_digest_ignores_output_paths(e2e, tmp_path):
    workdir, server = e2e
    cfg_a = load_config(workdir / "config.yaml")
    moved = workdir / "config2.yaml"
    moved.write_text(
        (workdir / "config.yaml").read_text().replace(
            "output_dir: runs", f"output_dir: {tmp_path / 'elsewhere'}"
        )
    )
    cfg_b = load_config(moved)
    assert config_digest(cfg_a) == config_digest(cfg_b)


@pytest.mark.parametrize("size", [0, 1 << 16, (5 << 15) + 7])
def test_file_digest_is_the_sha256_of_the_bytes(tmp_path, size):
    # read a chunk at a time: empty, exactly one chunk, and two and a half
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(bytes(range(256)) * (size // 256) + b"x" * (size % 256))
    assert _file_digest(path) == hashlib.sha256(path.read_bytes()).hexdigest()


def test_ensemble_stage_zero_variance_fallback(tmp_path):
    # a topic nobody ever labels: every kept score column is constant, so the
    # stage falls back to flat pc1 + sentinel threshold instead of aborting.
    # m3's column varies, but outliers.json excludes m3, so it is not fused.
    workdir = tmp_path / "zv"
    workdir.mkdir()
    (workdir / "corpus.jsonl").write_text(
        '{"id": "t1", "text": "one"}\n{"id": "t2", "text": "two"}\n'
    )
    (workdir / "topics.yaml").write_text(
        "topics:\n  - {short_name: ghost, description: Never present.}\n"
    )
    (workdir / "config.yaml").write_text(
        "corpus: {path: corpus.jsonl, format: jsonl}\n"
        "topics: topics.yaml\n"
        "backends:\n"
        "  - {name: m1, endpoint: http://127.0.0.1:1/v1/chat/completions}\n"
        "  - {name: m2, endpoint: http://127.0.0.1:1/v1/chat/completions}\n"
        "  - {name: m3, endpoint: http://127.0.0.1:1/v1/chat/completions}\n"
        "embedding: {endpoint: http://127.0.0.1:1/v1/embeddings}\n"
        "output_dir: runs\n"
    )
    cfg = load_config(workdir / "config.yaml")
    digest = config_digest(cfg)
    run_dir = workdir / "runs" / "zv-run"
    agg_rows = [
        {"model": m, "text_id": t, "topic": "ghost", "label": False, "score": 0.0}
        for m in ("m1", "m2") for t in ("t1", "t2")
    ] + [
        {"model": "m3", "text_id": "t1", "topic": "ghost", "label": True, "score": 0.5},
        {"model": "m3", "text_id": "t2", "topic": "ghost", "label": False, "score": 0.0},
    ]
    (run_dir / "score").mkdir(parents=True)
    (run_dir / "score" / "aggregated.jsonl").write_text(
        "\n".join(
            [json.dumps({"_meta": {"schema": "aggregated", "schema_version": 1,
                                   "config_digest": digest}})]
            + [json.dumps(r) for r in agg_rows]
        )
        + "\n"
    )
    (run_dir / "agree").mkdir()
    (run_dir / "agree" / "outliers.json").write_text(
        json.dumps({"excluded": ["m3"], "config_digest": digest}))

    from topicensemble.pipeline import stage_ensemble

    stage_ensemble(cfg, pipeline.load_inputs(cfg, gold=False), run_dir, digest)
    summary = json.loads((run_dir / "ensemble" / "ensemble.json").read_text())
    assert summary["topics"]["ghost"] == {
        "models": ["m1", "m2"],
        "weights": [pytest.approx(2 ** -0.5, abs=1e-15)] * 2,
        "orientation_sign": 1,
        "tau": 1.0,
        "zero_variance_fallback": True,
    }
    meta = ('{"_meta": {"config_digest": "%s", "schema": "decisions", '
            '"schema_version": 1}}\n' % digest)
    rows = "".join(
        '{"final": false, "intersection": false, "pc1": 0.0, '
        '"per_model_labels": {"m1": false, "m2": false}, '
        '"per_model_scores": {"m1": 0.0, "m2": 0.0}, '
        '"tau": 1.0, "text_id": "%s", "union": false}\n' % text_id
        for text_id in ("t1", "t2"))
    assert (run_dir / "ensemble" / "ghost.decisions.jsonl").read_text() == meta + rows


def test_subset_ensembles_in_metrics(e2e):
    workdir, server = e2e
    config_path = workdir / "config.yaml"
    config_path.write_text(
        config_path.read_text().replace("subset_ensembles: false", "subset_ensembles: true")
    )
    cfg = load_config(config_path)
    run_dir = run(cfg, stage="all", run_id="subsets")
    lines = (run_dir / "evaluate" / "metrics.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[2:]]
    names = {r[0] for r in rows}
    # two non-excluded members -> exactly one subset ensemble of size >= 2
    assert "ensemble[m_alpha+m_beta]" in names
    assert len([r for r in rows if r[1] == "sleep"]) == 5


def test_a_topic_nobody_labels_reports_empty_cells(tmp_path, monkeypatch):
    # every model answers no: Fleiss's chance agreement is 1, so agreement.csv
    # has no Fleiss coefficient; nothing is predicted and gold has no
    # positive, so metrics.csv has no precision, sensitivity or AUPRC
    workdir = tmp_path / "ghost"
    shutil.copytree(E2E, workdir)
    _numbered_corpus(workdir, 6)
    (workdir / "topics.yaml").write_text(
        "topics:\n  - {short_name: ghost, description: Never present.}\n")
    (workdir / "gold.csv").write_text(
        "text_id,topic,label\n" + "".join(f"t{i},ghost,0\n" for i in range(6)))
    _write_mutated(workdir / "config.yaml", {
        "backends.0.name": "m1", "backends.1.name": "m2", "backends.2.name": "m3",
        "subset_ensembles": True})
    monkeypatch.setattr(annotator, "chat", lambda backend, prompt, pool: _answer_no(prompt))
    assert main(["run", "--config", str(workdir / "config.yaml"), "--run-id", "ghost"]) == 0
    run_dir = workdir / "runs" / "ghost"
    agreement = (run_dir / "agree" / "agreement.csv").read_text().splitlines()
    assert "ghost,Fleiss,labels,,," in agreement
    assert "ghost,Fleiss,scores,,," in agreement
    metrics = (run_dir / "evaluate" / "metrics.csv").read_text().splitlines()[2:]
    assert [row.split(",", 1)[0] for row in metrics] == [
        "m1", "m2", "m3", "ensemble", "ensemble[m1+m2]", "ensemble[m1+m3]",
        "ensemble[m2+m3]", "ensemble[m1+m2+m3]"]
    for row in metrics:
        assert row.split(",", 1)[1] == "ghost,,,0.0,"


def test_cache_dir_holds_only_the_store_after_a_run(e2e):
    workdir, server = e2e
    assert main(["run", "--config", str(workdir / "config.yaml"), "--stage", "all"]) == 0
    assert [p.name for p in (workdir / "cache").iterdir()] == ["cache.sqlite"]


@pytest.mark.parametrize("kind", ["file", "directory"])
def test_cli_cache_not_a_database(e2e, capsys, kind):
    workdir, server = e2e
    store = workdir / "cache" / "cache.sqlite"
    store.parent.mkdir(exist_ok=True)
    if kind == "file":
        store.write_text("not a database\n" * 20)
    else:
        store.mkdir()
    assert main(["run", "--config", str(workdir / "config.yaml"), "--run-id", "x"]) == 1
    err = capsys.readouterr().err
    assert f"error: cache {store.resolve()}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("kind, value", [
    ("chat", b"{not json"),
    ("chat", b'{"prompt_digest": "x", "content": 7, "retrieved_at": "x"}'),
    ("chat", b'["content"]'),
    ("emb", b"\x00" * 5),
], ids=["chat-not-json", "chat-content-not-text", "chat-not-an-object", "vector-length"])
def test_cli_corrupt_store_entry(e2e, capsys, kind, value):
    workdir, server = e2e
    config = str(workdir / "config.yaml")
    assert main(["run", "--config", config, "--run-id", "cold"]) == 0
    store = workdir / "cache" / "cache.sqlite"
    with contextlib.closing(sqlite3.connect(store)) as db, db:
        keys = [key for (key,) in db.execute("SELECT key FROM entries ORDER BY key")
                if key.startswith("emb/") is (kind == "emb")]
        db.execute("UPDATE entries SET value = ? WHERE key = ?", (value, keys[0]))
    capsys.readouterr()
    assert main(["run", "--config", config, "--run-id", "warm"]) == 1
    err = capsys.readouterr().err
    assert f"error: cache {store.resolve()}: entry {keys[0]} is not a" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("texts", [50, 500])
def test_dead_backend_fails_fast(tmp_path, monkeypatch, texts):
    with socket.socket() as sock:  # a port nothing listens on once closed
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    workdir = tmp_path / "demo"
    shutil.copytree(E2E, workdir)
    (workdir / "corpus.jsonl").write_text("".join(
        json.dumps({"id": f"t{i}", "text": f"Text number {i}."}) + "\n"
        for i in range(texts)
    ))
    config_path = workdir / "config.yaml"
    config_path.write_text(config_path.read_text().replace("8731", str(port)))
    posts = []
    real_post = annotator.ConnectionPool.post

    def counting_post(self, *args, **kwargs):
        posts.append(args)
        return real_post(self, *args, **kwargs)

    monkeypatch.setattr(annotator.ConnectionPool, "post", counting_post)
    assert main(["run", "--config", str(config_path), "--run-id", "dead"]) == 4
    cfg = load_config(config_path)
    workers = sum(b.parallelism for b in cfg.backends)
    assert 0 < len(posts) <= 2 * workers * (cfg.retries + 1)
    # the failed stage closed its store
    assert [p.name for p in cfg.cache_dir.iterdir()] == ["cache.sqlite"]


def test_cli_does_not_import_requests():
    # the backend transport is the stdlib's; runtime dependencies are numpy and pyyaml
    src = Path(pipeline.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, topicensemble.cli\n"
            "assert 'requests' not in sys.modules, 'requests imported'")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_analysis_commands_load_no_backend_io_modules(finished_run, tmp_path):
    # agree, ensemble, evaluate and validate-config reach no backend and no store
    workdir = tmp_path / "demo"
    shutil.copytree(finished_run, workdir)
    config = str(workdir / "config.yaml")
    commands = [["run", "--config", config, "--stage", stage, "--run-id", "done"]
                for stage in ("agree", "ensemble", "evaluate")]
    commands.append(["validate-config", "--config", config])
    src = Path(pipeline.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    code = ("import sys\n"
            "from topicensemble.cli import main\n"
            f"for argv in {commands!r}:\n"
            "    assert main(argv) == 0, argv\n"
            "loaded = {'socket', 'ssl', 'sqlite3', 'concurrent.futures'}"
            " & set(sys.modules)\n"
            "assert not loaded, sorted(loaded)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cold_annotate_over_http_loads_no_http_client_email_or_ssl(e2e):
    # the backend transport is annotator's own HTTP/1.1 exchange; ssl is
    # loaded only for an https endpoint
    workdir, server = e2e
    argv = ["run", "--config", str(workdir / "config.yaml"), "--stage", "annotate",
            "--run-id", "cold"]
    src = Path(pipeline.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    code = ("import sys\n"
            "from topicensemble.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "loaded = {'http.client', 'email.parser', 'ssl'} & set(sys.modules)\n"
            "assert not loaded, sorted(loaded)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert server.call_count > 0


# ------------------------------------------- artifact integrity and bad inputs

@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """A demo workdir holding a complete run "done"; its stub is stopped, so
    anything that reaches a backend afterwards fails."""
    workdir = tmp_path_factory.mktemp("finished") / "demo"
    shutil.copytree(E2E, workdir)
    server = serve(Fixture.from_file(workdir / "fixture.json"))
    config_path = workdir / "config.yaml"
    config_path.write_text(config_path.read_text().replace("8731", str(server.port)))
    try:
        assert main(["run", "--config", str(config_path), "--run-id", "done"]) == 0
    finally:
        server.stop()
    return workdir


_WRONG = {"config_digest": "0" * 64, "schema_version": 2}
# a mistyped value for each field of a row, by the artifact that holds the row
_BAD_FIELD = {
    "annotate/annotations.jsonl": {"model": 5, "text_id": None, "topic": ["sleep"],
                                   "label": "yes", "phrases": ["awake", 7],
                                   "parse_warning": 0},
    "score/aggregated.jsonl": {"model": 5, "text_id": None, "topic": ["sleep"],
                               "label": "yes", "score": "0.5"},
    "ensemble/sleep.decisions.jsonl": {"text_id": 5, "final": 1, "union": None,
                                       "intersection": "no", "pc1": "0.5", "tau": [0.5],
                                       "per_model_labels": ["m_alpha"]},
}
# the commands that read each of them: a stage, or export-triage
_ROW_READERS = {"annotate/annotations.jsonl": ["score"],
                "score/aggregated.jsonl": ["agree", "ensemble", "evaluate"],
                "ensemble/sleep.decisions.jsonl": ["evaluate", "export-triage"]}


def _row_cases(rel: str) -> list[str]:
    return ["array row"] + [f"{how} {name}" for name in _BAD_FIELD[rel]
                            for how in ("no", "bad")]


def _tamper_jsonl(path: Path, case: str, bad: dict) -> None:
    lines = path.read_text().splitlines(keepends=True)
    if case == "header":
        del lines[0]
    elif case == "truncated":
        lines[-1] = lines[-1][: len(lines[-1]) // 2]
    elif case == "array row":
        lines[2] = json.dumps(list(json.loads(lines[2]).values())) + "\n"
    elif case.startswith(("no ", "bad ")):  # damage the row on line 3
        how, name = case.split()
        row = json.loads(lines[2])
        if how == "no":
            del row[name]
        else:
            row[name] = bad[name]
        lines[2] = json.dumps(row) + "\n"
    else:
        meta = json.loads(lines[0])
        meta["_meta"][case] = _WRONG[case]
        lines[0] = json.dumps(meta) + "\n"
    path.write_text("".join(lines))


def _tamper_json(path: Path, case: str, bad: dict) -> None:
    text = path.read_text()
    if case == "truncated":
        path.write_text(text[: len(text) // 2])
        return
    doc = json.loads(text)
    if case == "header":  # the document no longer says which config wrote it
        del doc["config_digest"]
    else:
        doc[case] = _WRONG[case]
    path.write_text(json.dumps(doc))


# artifact, the stage that reads it; outliers.json has no schema_version
_UPSTREAM = [
    ("annotate/annotations.jsonl", "score"),
    ("score/aggregated.jsonl", "agree"),
    ("agree/outliers.json", "ensemble"),
    ("ensemble/sleep.decisions.jsonl", "evaluate"),
]


@pytest.mark.parametrize("rel,stage,case", [
    (rel, stage, case)
    for rel, stage in _UPSTREAM
    for case in ("config_digest", "schema_version", "header", "truncated")
    if not (rel.endswith(".json") and case == "schema_version")
] + [
    (rel, stage, case)
    for rel, stages in _ROW_READERS.items()
    for stage in stages
    for case in _row_cases(rel)
])
def test_damaged_or_stale_upstream_exits_3(finished_run, tmp_path, capsys,
                                           rel, stage, case):
    workdir = tmp_path / "demo"
    shutil.copytree(finished_run, workdir)
    path = workdir / "runs" / "done" / rel
    tamper = _tamper_json if rel.endswith(".json") else _tamper_jsonl
    tamper(path, case, _BAD_FIELD.get(rel, {}))
    config = str(workdir / "config.yaml")
    command = (["export-triage"] if stage == "export-triage"
               else ["run", "--stage", stage])
    assert main(command + ["--config", config, "--run-id", "done"]) == 3
    err = capsys.readouterr().err
    assert f"upstream artifact: {path}" in err
    assert "Traceback" not in err
    if case == "array row" or case.startswith(("no ", "bad ")):
        assert f"{path}: line 3: " in err


@pytest.mark.parametrize("name, value, want", [
    ("phrases", ["CANARY patient words", 5], "phrases must be a list of strings, "
                                             "got an array holding a number"),
    ("label", "CANARY patient words", "label must be a boolean, got a string"),
    ("model", ["CANARY patient words"], "model must be a string, got an array"),
], ids=["an array holding a number", "a string", "an array"])
def test_a_bad_row_field_is_named_by_its_json_type(finished_run, tmp_path, capsys,
                                                   name, value, want):
    # a row may hold corpus text, so the message names the value's kind, not the value
    workdir = tmp_path / "demo"
    shutil.copytree(finished_run, workdir)
    path = workdir / "runs" / "done" / "annotate" / "annotations.jsonl"
    _tamper_jsonl(path, f"bad {name}", {name: value})
    config = str(workdir / "config.yaml")
    assert main(["run", "--stage", "score", "--config", config, "--run-id", "done"]) == 3
    err = capsys.readouterr().err
    assert f"upstream artifact: {path}: line 3: {want}\n" in err
    assert "CANARY" not in err


@pytest.mark.parametrize("case", ["missing", "unknown leaf", "unknown model", "twice",
                                  "swapped", "last missing", "last twice"])
def test_score_checks_annotation_cells(finished_run, tmp_path, capsys, case):
    workdir = tmp_path / "demo"
    shutil.copytree(finished_run, workdir)
    run_dir = workdir / "runs" / "done"
    path = run_dir / "annotate" / "annotations.jsonl"
    before = {p.name: p.read_bytes() for p in (run_dir / "score").iterdir()}
    lines = path.read_text().splitlines(keepends=True)
    cells = [(None, None, None)] + [
        tuple(json.loads(line)[f] for f in ("model", "text_id", "topic")) for line in lines[1:]]
    # lines[k] is line k + 1; t2 and t3 are neighbours in the (m_alpha, sleep) stream
    k, after = (cells.index(("m_alpha", t, "sleep")) for t in ("t2", "t3"))
    last = cells.index(("m_alpha", "t6", "sleep"))
    t2, t3 = cells[k], cells[after]
    if case == "missing":  # the pair's next row moves up into line `after`
        del lines[k]
        want = f"{path}: line {after}: cell {t3} is out of order; {t2} belongs there"
    elif case == "twice":
        lines.insert(k, lines[k])
        want = f"{path}: line {k + 2}: cell {t2} is out of order; {t3} belongs there"
    elif case == "swapped":
        lines[k], lines[after] = lines[after], lines[k]
        want = f"{path}: line {k + 1}: cell {t3} is out of order; {t2} belongs there"
    elif case == "last missing":  # noticed once the file is read
        del lines[last]
        want = f"{path}: no row for {cells[last]}"
    elif case == "last twice":
        lines.insert(last, lines[last])
        want = f"{path}: line {last + 2}: cell {cells[last]} is out of order; no row belongs there"
    else:
        row = json.loads(lines[k])
        field, value = ("topic", "nap") if case == "unknown leaf" else ("model", "m_delta")
        lines[k] = json.dumps(dict(row, **{field: value})) + "\n"
        cell = tuple(dict(row, **{field: value})[f] for f in ("model", "text_id", "topic"))
        want = f"{path}: line {k + 1}: cell {cell} is not a cell of this config"
    path.write_text("".join(lines))
    config = str(workdir / "config.yaml")
    assert main(["run", "--config", config, "--stage", "score", "--run-id", "done"]) == 3
    err = capsys.readouterr().err
    assert want in err
    assert "Traceback" not in err
    assert {p.name: p.read_bytes() for p in (run_dir / "score").iterdir()} == before


@pytest.mark.parametrize("excluded", [None, "m_gamma", ["m_gamma", 5]],
                         ids=["no value", "a string", "a number in the list"])
def test_ensemble_checks_outliers_excluded(finished_run, tmp_path, capsys, excluded):
    workdir = tmp_path / "demo"
    shutil.copytree(finished_run, workdir)
    path = workdir / "runs" / "done" / "agree" / "outliers.json"
    doc = json.loads(path.read_text())
    if excluded is None:
        del doc["excluded"]
    else:
        doc["excluded"] = excluded
    path.write_text(json.dumps(doc))
    config = str(workdir / "config.yaml")
    assert main(["run", "--config", config, "--stage", "ensemble", "--run-id", "done"]) == 3
    err = capsys.readouterr().err
    got = "no value" if excluded is None else repr(excluded)
    assert f"upstream artifact: {path}: excluded must be a list of strings, got {got}" in err
    assert "Traceback" not in err


def test_resume_after_config_edit_exits_3(finished_run, tmp_path, capsys):
    workdir = tmp_path / "demo"
    shutil.copytree(finished_run, workdir)
    config_path = workdir / "config.yaml"
    config_path.write_text(config_path.read_text().replace(
        "outlier_threshold: 0.10", "outlier_threshold: 0.30"))
    before = (workdir / "runs" / "done" / "ensemble" / "ensemble.json").read_bytes()
    assert main(["run", "--config", str(config_path), "--stage", "ensemble",
                 "--run-id", "done"]) == 3
    err = capsys.readouterr().err
    assert "score/aggregated.jsonl: _meta.config_digest is" in err
    assert (workdir / "runs" / "done" / "ensemble" / "ensemble.json").read_bytes() == before


def test_export_triage_after_config_edit_exits_3(finished_run, tmp_path, capsys):
    workdir = tmp_path / "demo"
    shutil.copytree(finished_run, workdir)
    config_path = workdir / "config.yaml"
    config_path.write_text(config_path.read_text().replace("seed: 7", "seed: 8"))
    assert main(["export-triage", "--config", str(config_path), "--run-id", "done"]) == 3
    err = capsys.readouterr().err
    assert "ensemble/sleep.decisions.jsonl: _meta.config_digest is" in err
    assert not (workdir / "runs" / "done" / "triage.csv").exists()


def test_evaluate_decisions_out_of_corpus_order_exits_3(finished_run, tmp_path, capsys):
    workdir = tmp_path / "demo"
    shutil.copytree(finished_run, workdir)
    path = workdir / "runs" / "done" / "ensemble" / "sleep.decisions.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    lines[1], lines[2] = lines[2], lines[1]
    path.write_text("".join(lines))
    config = str(workdir / "config.yaml")
    assert main(["run", "--config", config, "--stage", "evaluate", "--run-id", "done"]) == 3
    assert f"{path}: rows do not follow the corpus" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "export-triage"])
def test_decisions_naming_a_foreign_model_exit_3(e2e, capsys, command):
    # subset ensembles fuse the models the first row names, so a foreign one
    # there was a KeyError traceback
    workdir, _ = e2e
    config_path = workdir / "config.yaml"
    config_path.write_text(config_path.read_text().replace(
        "subset_ensembles: false", "subset_ensembles: true"))
    config = str(config_path)
    assert main(["run", "--config", config, "--run-id", "r"]) == 0
    path = workdir / "runs" / "r" / "ensemble" / "sleep.decisions.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    assert '"per_model_labels": {"m_alpha": ' in lines[1]
    lines[1] = lines[1].replace('"m_alpha": ', '"zz": ', 1)
    path.write_text("".join(lines))
    capsys.readouterr()
    argv = (["run", "--stage", "evaluate"] if command == "evaluate" else [command])
    assert main(argv + ["--config", config, "--run-id", "r"]) == 3
    err = capsys.readouterr().err
    assert (f"upstream artifact: {path}: line 2: per_model_labels names 'zz', "
            f"which is not a model of this config") in err
    assert "Traceback" not in err


def test_run_all_reads_aggregated_once(e2e, monkeypatch):
    # agree, ensemble and evaluate share one read of score/aggregated.jsonl,
    # and give the tree the stages give when run one at a time
    workdir, _ = e2e
    cfg = load_config(workdir / "config.yaml")
    opened = Counter()
    real_open = open

    def counting_open(file, *args, **kwargs):
        opened[Path(file)] += 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(pipeline, "open", counting_open, raising=False)
    together = run(cfg, stage="all", run_id="together")
    apart = [run(cfg, stage=stage, run_id="apart") for stage in pipeline.STAGES][-1]
    assert opened[together / "score" / "aggregated.jsonl"] == 1
    assert opened[apart / "score" / "aggregated.jsonl"] == 3

    def tree(run_dir: Path) -> dict:
        return {p.relative_to(run_dir): p.read_bytes().replace(run_dir.name.encode(), b"<id>")
                for p in run_dir.rglob("*") if p.is_file()}

    assert tree(together) == tree(apart)
    assert len(tree(together)) == len(E2E_ARTIFACT_SHA256)


def _analysis_outputs(run_dir: Path) -> dict:
    return {p.relative_to(run_dir): p.read_bytes() for p in run_dir.rglob("*")
            if p.is_file() and p.parts[-2] in ("agree", "ensemble", "evaluate")}


@pytest.mark.parametrize("field", ["model", "text_id", "topic"])
def test_aggregated_rows_outside_the_config_exit_3(finished_run, tmp_path, capsys, field):
    # the file carries this config's digest, so a foreign row means it was edited
    workdir = tmp_path / "demo"
    shutil.copytree(finished_run, workdir)
    run_dir = workdir / "runs" / "done"
    before = _analysis_outputs(run_dir)
    path = run_dir / "score" / "aggregated.jsonl"
    lines = path.read_text().splitlines()
    row = dict(json.loads(lines[1]), **{field: "stranger"})
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(row) + "\n")
    cell = (row["model"], row["text_id"], row["topic"])
    problem = ("is out of order; no row belongs there" if field == "text_id"
               else "is not a cell of this config")
    config = str(workdir / "config.yaml")
    for stage in ("agree", "ensemble", "evaluate"):
        assert main(["run", "--config", config, "--stage", stage, "--run-id", "done"]) == 3
        err = capsys.readouterr().err
        assert f"{path}: line {len(lines) + 1}: cell {cell} {problem}" in err
        assert "Traceback" not in err
    assert _analysis_outputs(run_dir) == before


def test_aggregated_missing_cell_exits_3_naming_it(finished_run, tmp_path, capsys):
    workdir = tmp_path / "demo"
    shutil.copytree(finished_run, workdir)
    path = workdir / "runs" / "done" / "score" / "aggregated.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    cells = [(None, None, None)] + [
        tuple(json.loads(line)[f] for f in ("model", "text_id", "topic")) for line in lines[1:]]
    end = len(lines) - 2  # the last row of its (model, topic) stream
    assert all(cells[k][::2] != cells[end][::2] for k in range(end + 1, len(lines)))
    # the row after line 7 in the same stream, which moves up one line when 7 goes
    after = next(k for k in range(7, end) if cells[k][::2] == cells[6][::2])
    config = str(workdir / "config.yaml")
    # of two missing cells, the first problem in file order is named
    for gone, want in (
            ((end,), f"no row for {cells[end]}"),
            ((end, 6), f"line {after}: cell {cells[after]} is out of order; "
                       f"{cells[6]} belongs there")):
        path.write_text("".join(line for k, line in enumerate(lines) if k not in gone))
        for stage in ("agree", "ensemble", "evaluate"):
            assert main(["run", "--config", config, "--stage", stage, "--run-id", "done"]) == 3
            err = capsys.readouterr().err
            assert f"{path}: {want}" in err
            assert "Traceback" not in err


@pytest.mark.parametrize("score", [float("nan"), float("inf"), -0.1, 2.5],
                         ids=["NaN", "Infinity", "-0.1", "2.5"])
def test_aggregated_score_outside_unit_interval_exits_3(finished_run, tmp_path, capsys, score):
    workdir = tmp_path / "demo"
    shutil.copytree(finished_run, workdir)
    run_dir = workdir / "runs" / "done"
    before = _analysis_outputs(run_dir)
    path = run_dir / "score" / "aggregated.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    lines[2] = json.dumps(dict(json.loads(lines[2]), score=score)) + "\n"  # NaN, Infinity
    path.write_text("".join(lines))
    config = str(workdir / "config.yaml")
    for stage in ("agree", "ensemble"):
        assert main(["run", "--config", config, "--stage", stage, "--run-id", "done"]) == 3
        err = capsys.readouterr().err
        assert f"{path}: line 3: score must be within [0, 1], got {score!r}" in err
        assert "Traceback" not in err
    assert _analysis_outputs(run_dir) == before


@pytest.mark.parametrize("name, value, message", [
    ("pc1", float("nan"), "pc1 must be within [0, 1], got nan"),
    ("pc1", float("inf"), "pc1 must be within [0, 1], got inf"),
    ("pc1", -0.1, "pc1 must be within [0, 1], got -0.1"),
    ("pc1", 1.5, "pc1 must be within [0, 1], got 1.5"),
    ("tau", float("nan"), "tau must be finite, got nan"),
    ("tau", float("-inf"), "tau must be finite, got -inf"),
    ("tau", 10 ** 400, "tau must be finite, got 1" + "0" * 400),
], ids=["pc1-NaN", "pc1-Infinity", "pc1--0.1", "pc1-1.5", "tau-NaN", "tau--Infinity",
        "tau-int-past-a-float"])
def test_decision_score_out_of_range_exits_3(finished_run, tmp_path, capsys, name, value,
                                             message):
    workdir = tmp_path / "demo"
    shutil.copytree(finished_run, workdir)
    run_dir = workdir / "runs" / "done"
    path = run_dir / "ensemble" / "sleep.decisions.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    lines[2] = json.dumps(dict(json.loads(lines[2]), **{name: value})) + "\n"  # NaN, Infinity
    path.write_text("".join(lines))
    before = _analysis_outputs(run_dir)
    config = str(workdir / "config.yaml")
    for argv in (["run", "--stage", "evaluate"], ["export-triage"]):
        assert main(argv + ["--config", config, "--run-id", "done"]) == 3
        err = capsys.readouterr().err
        assert f"{path}: line 3: {message}" in err
        assert "Traceback" not in err
    assert _analysis_outputs(run_dir) == before
    assert not (run_dir / "triage.csv").exists()


def test_aggregated_memory_is_arrays(tmp_path):
    # 2 topics x 4 models x 2,500 texts; rows of dicts cost about 800 B a row,
    # and the label and score arrays alone 9 B
    topics = TopicSet((Topic("sleep", "Sleep."), Topic("appetite", "Appetite.")))
    models = ["m1", "m2", "m3", "m4"]
    corpus = [TextItem(f"text-{i:05d}", "Some text.") for i in range(2500)]
    cfg = SimpleNamespace(backends=[ModelBackend(m, "http://127.0.0.1:1/v1") for m in models])
    pipeline._write_jsonl(
        tmp_path / "score" / "aggregated.jsonl", "aggregated", "d",
        (pipeline._encode({"model": m, "text_id": item.id, "topic": t, "label": i % 3 == 0,
                           "score": i / 2500}) + "\n"
         for m in models for i, item in enumerate(corpus) for t in ("sleep", "appetite")))
    rows = len(models) * len(corpus) * 2
    tracemalloc.start()
    try:
        labels, scores = pipeline._aggregated(cfg, tmp_path, "d",
                                              [item.id for item in corpus], topics)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows >= 20_000
    assert peak / rows <= 13, f"{peak / rows:.0f} B per row"
    assert labels["appetite"]["m3"][:4].tolist() == [True, False, False, True]
    assert scores["sleep"]["m4"][2499] == 2499 / 2500


def test_score_memory_is_arrays(tmp_path, stub_server):
    # 4 models x 2,500 texts x 3 leaves; a list of annotations and a dict of
    # records cost about 730 B a row
    topics = TopicSet((Topic("work", "Work.", subtopics=(
        Topic("blame", "Blamed."), Topic("dismiss", "Dismissed."))), Topic("sleep", "Sleep.")))
    leaves = [leaf.short_name for leaf in topics.leaves()]
    models = ["m1", "m2", "m3", "m4"]
    corpus = [TextItem(f"text-{i:05d}", "Some text.") for i in range(2500)]
    phrases = [f"phrase {k}" for k in range(8)]
    texts = ["", "Blamed.", "Dismissed.", "Sleep.", *phrases]
    server = stub_server({"dimension": 4, "embeddings": {
        text: [1.0, j, j % 3, 1.0 / (j + 1)] for j, text in enumerate(texts)}})
    cfg = SimpleNamespace(
        backends=[ModelBackend(m, server.chat_url) for m in models],
        embedding=EmbeddingBackend("emb", server.embeddings_url),
        cache_dir=tmp_path / "cache", retries=0, timeout=10.0, backoff=0.01)
    view = CorpusView([item.id for item in corpus], [item.group for item in corpus])
    pipeline._write_jsonl(
        tmp_path / "annotate" / "annotations.jsonl", "annotations", "d",
        (pipeline._encode({"model": m, "text_id": item.id, "topic": leaf, "label": i % 4 == 0,
                           "phrases": [phrases[i % 8]] if i % 4 == 0 else [],
                           "parse_warning": False}) + "\n"
         for m in models for i, item in enumerate(corpus) for leaf in leaves))
    rows = len(models) * len(corpus) * len(leaves)
    pipeline.stage_score(cfg, (view, topics, None), tmp_path, "d")  # fills the store
    tracemalloc.start()
    try:
        pipeline.stage_score(cfg, (view, topics, None), tmp_path, "d")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows >= 30_000
    assert peak / rows <= 64, f"{peak / rows:.0f} B per row"
    aggregated = (tmp_path / "score" / "aggregated.jsonl").read_text().splitlines()
    assert len(aggregated) == 1 + len(models) * len(corpus) * 2
    assert json.loads(aggregated[1])["label"] is True


def test_score_writes_what_scoring_each_row_gives(tmp_path, stub_server, monkeypatch):
    # windows of 5 rows split every (model, leaf) pair, whose rows interleave
    monkeypatch.setattr(relevancy, "READ_AHEAD", 5)
    topics = TopicSet((
        Topic("sleep", "Sleep."),
        Topic("work", "Work.", subtopics=(Topic("blame", "Blamed."), Topic("dismiss", "Dismissed."))),
        Topic("mood", "Mood.", subtopics=(Topic("low", "Low."), Topic("flat", "Flat."),
                                          Topic("tense", "Tense.")))))
    leaves = topics.leaves()
    models = ["m1", "m2", "m3"]
    text_ids = [f"t{i}" for i in range(9)]
    phrases = ["lying awake", "blamed", "no energy", "on edge"]
    texts = ["", *(leaf.description for leaf in leaves), *phrases]
    server = stub_server({"dimension": 3, "embeddings": {
        text: [1.0 + j % 3, (-1.0) ** j * j, 0.5 * (j % 4)] for j, text in enumerate(texts)}})
    cfg = SimpleNamespace(
        backends=[ModelBackend(m, server.chat_url) for m in models],
        embedding=EmbeddingBackend("emb", server.embeddings_url),
        cache_dir=tmp_path / "cache", retries=0, timeout=10.0, backoff=0.01)
    rng = np.random.default_rng(7)
    queues = {}  # each pair's annotations in corpus order: labels with and without phrases
    for model in models:
        for leaf in leaves:
            queues[model, leaf.short_name] = [TopicAnnotation(
                model, text_id, leaf.short_name, bool(rng.random() < 0.6),
                tuple(rng.choice(phrases, rng.integers(0, 3)).tolist())) for text_id in text_ids]
    annotations = []
    while queues:
        pair = list(queues)[rng.integers(len(queues))]
        annotations.append(queues[pair].pop(0))
        if not queues[pair]:
            del queues[pair]
    assert any(not a.label and a.phrases for a in annotations)
    assert any(a.label and not a.phrases for a in annotations)
    pipeline._write_jsonl(tmp_path / "annotate" / "annotations.jsonl", "annotations", "d",
                          map(pipeline._annotation_line, annotations))
    pipeline.stage_score(cfg, (CorpusView(text_ids, [None] * len(text_ids)), topics, None),
                         tmp_path, "d")

    cells = {}  # (model, leaf, text id) -> (label, score)
    relevancy_lines = [pipeline._meta_line("relevancy", "d")]
    with (contextlib.closing(ResponseCache(cfg.cache_dir)) as cache,
          contextlib.closing(annotator.ConnectionPool(0, 10.0, 0.01)) as pool):
        embedder = relevancy.Embedder(cfg.embedding, cache, pool)
        for ann in annotations:
            record = next(relevancy.score_annotations([ann], leaves, embedder))
            cells[ann.model, ann.topic, ann.text_id] = ann.label, record.score
            relevancy_lines.append(pipeline._relevancy_line(record))
    aggregated_lines = [pipeline._meta_line("aggregated", "d")]
    for model in models:
        for text_id in text_ids:
            for topic in topics:
                label, score = relevancy.aggregate_subtopics(
                    [cells[model, c.short_name, text_id] for c in topic.subtopics or [topic]])
                aggregated_lines.append(pipeline._encode(
                    {"model": model, "text_id": text_id, "topic": topic.short_name,
                     "label": label, "score": score}) + "\n")
    assert sum(score > 0 for _, score in cells.values()) > 10
    assert (tmp_path / "score" / "relevancy.jsonl").read_text() == "".join(relevancy_lines)
    assert (tmp_path / "score" / "aggregated.jsonl").read_text() == "".join(aggregated_lines)


_CHILDREN = st.integers(1, 3).flatmap(lambda m: st.lists(
    st.lists(st.tuples(st.booleans(), st.floats(-2.0, 2.0)), min_size=m, max_size=m),
    min_size=1, max_size=8))


@settings(max_examples=300, deadline=None)
@given(_CHILDREN)
def test_aggregate_columns_is_aggregate_subtopics_per_cell(cells):
    # cells[i] holds text i's (label, score) for each child
    labels = np.array([[child[0] for child in cell] for cell in cells], dtype=bool).T
    scores = np.array([[child[1] for child in cell] for cell in cells], dtype=float).T
    label, score = pipeline._aggregate_columns(labels, scores)
    want = [relevancy.aggregate_subtopics(cell) for cell in cells]
    assert label.tolist() == [w[0] for w in want]
    assert list(map(float.hex, score.tolist())) == [float.hex(w[1]) for w in want]


def _rows_then_fail():
    yield {"a": 1}
    yield {"a": 2}
    raise RuntimeError("row source failed")


def _rows_then_unencodable():
    yield {"a": 1}
    yield {"a": "\ud800"}  # a lone surrogate has no UTF-8 encoding
    yield {"a": 3}


def _lines(rows):
    return (pipeline._encode(row) + "\n" for row in rows)


@pytest.mark.parametrize("write", [
    lambda path: pipeline._write_jsonl(path, "x", "d", _lines(_rows_then_fail())),
    lambda path: pipeline._write_jsonl(path, "x", "d", _lines(_rows_then_unencodable())),
    lambda path: pipeline._write_csv(path, "x", "d", ["a"],
                                     ([r["a"]] for r in _rows_then_fail())),
    lambda path: pipeline._write_json(path, "d", {"bad": object()}),
], ids=["jsonl", "jsonl-unencodable", "csv", "json"])
def test_failed_write_keeps_the_old_artifact(tmp_path, write):
    path = tmp_path / "stage" / "artifact"
    path.parent.mkdir()
    path.write_bytes(b"previous contents\n")
    with pytest.raises((RuntimeError, TypeError, UnicodeEncodeError)):
        write(path)
    assert path.read_bytes() == b"previous contents\n"
    assert [p.name for p in path.parent.iterdir()] == ["artifact"]


@pytest.mark.parametrize("name,content", [
    ("gold.csv", "text_id,topic,label\nt1,sleep,maybe\n"),
    ("gold.csv", "text_id,topic,verdict\nt1,sleep,1\n"),
    ("gold.csv", "text_id,topic,label\nt1,sleep,1\nt1,slep,1\n"),
    ("topics.yaml", "topics:\n  - short_name: sleep: x\n"),
    ("corpus.jsonl", b'{"id": "t1", "text": "caf\xe9 au lait"}\n'),
], ids=["gold-label-maybe", "gold-no-label-column", "gold-unknown-topic", "topics-not-yaml",
        "corpus-not-utf8"])
def test_bad_input_file_is_an_error_line(e2e, capsys, name, content):
    workdir, server = e2e
    path = workdir / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    assert main(["run", "--config", str(workdir / "config.yaml"), "--run-id", "bad"]) == 1
    err = capsys.readouterr().err
    assert "error: line" in err and name in err
    assert "Traceback" not in err
    assert server.call_count == 0  # refused before annotate, gold file included


@pytest.mark.parametrize("name, content", [("corpus.jsonl", ""),
                                           ("corpus.csv", "id,text,group\n")])
def test_empty_corpus_is_an_error_line(e2e, capsys, name, content):
    workdir, server = e2e
    (workdir / name).write_text(content)
    config_path = workdir / "config.yaml"
    config_path.write_text(config_path.read_text().replace(
        "path: corpus.jsonl\n  format: jsonl", f"path: {name}\n  format: {name[7:]}"))
    for stage in pipeline.STAGES:
        assert main(["run", "--config", str(config_path), "--stage", stage,
                     "--run-id", "empty"]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "holds no texts" in err and name in err
        assert "Traceback" not in err
    assert not (workdir / "runs" / "empty").exists()
    assert server.call_count == 0


_FIRST_TEXT = '{"id": "t1", "text": "I have been lying awake for hours every night this week."}\n'


@pytest.mark.parametrize("name, append, problem", [
    ("corpus.jsonl", _FIRST_TEXT, "line 7: corpus {path}: duplicate id 't1' (first on line 1)"),
    ("corpus.jsonl", '{"id": "zz", "text": " "}\n', "line 7: corpus {path}: empty text for id 'zz'"),
    ("topics.yaml", "  - short_name: mood\n",
     "topics file {path}: topic 3 ('mood'): missing description"),
], ids=["duplicate-id", "empty-text", "missing-description"])
@pytest.mark.parametrize("command, exit_code, prefix", [
    ("run", 1, "error: "), ("validate-config", 2, "config error: ")])
def test_input_error_names_file_line_and_problem(tmp_path, capsys, name, append, problem,
                                                 command, exit_code, prefix):
    workdir = tmp_path / "demo"
    shutil.copytree(E2E, workdir)
    path = workdir / name
    path.write_text(path.read_text() + append)
    assert main([command, "--config", str(workdir / "config.yaml")]) == exit_code
    err = capsys.readouterr().err
    assert prefix + problem.format(path=path.resolve()) in err.splitlines()
    assert err.count("error: ") == 1 and "Traceback" not in err


@pytest.mark.parametrize("field", ["id", "text", "group"])
@pytest.mark.parametrize("command, exit_code, prefix", [
    ("run", 1, "error: "), ("validate-config", 2, "config error: ")])
def test_corpus_field_with_a_lone_surrogate_is_refused(e2e, capsys, field, command,
                                                       exit_code, prefix):
    # "\ud83d" is valid JSON, but no artifact or store key could encode it
    workdir, server = e2e
    path = workdir / "corpus.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    record = json.loads(lines[1])
    record[field] = record[field][:4] + "\ud83d"
    lines[1] = json.dumps(record) + "\n"  # ensure_ascii: written as the escape
    assert "\\ud83d" in lines[1]
    path.write_text("".join(lines))
    assert main([command, "--config", str(workdir / "config.yaml")]) == exit_code
    err = capsys.readouterr().err
    assert (f"{prefix}line 2: corpus {path.resolve()}: {field!r} holds '\\ud83d', which has "
            f"no UTF-8 encoding") in err.splitlines()
    assert err.count("error: ") == 1 and "Traceback" not in err
    assert server.call_count == 0 and not (workdir / "runs").exists()


@pytest.mark.parametrize("name, line, replacement, field", [
    ("topics.yaml", "    description: Sleep", '    description: "Sleep problems \\ud83d."',
     "topics[0].description"),
    ("config.yaml", "  - name: m_alpha", '  - name: "m_alpha\\ud83d"', "backends[0].name"),
    ("config.yaml", "    endpoint:", '    endpoint: "http://127.0.0.1\\ud83d/v1/chat"',
     "backends[0].endpoint"),
    ("config.yaml", "    parallelism: 2", '    parallelism: 2\n    auth_env: "TOKEN\\ud83d"',
     "backends[0].auth_env"),
    ("config.yaml", "  name: emb-demo", '  name: "emb-demo\\ud83d"', "embedding.name"),
    ("config.yaml", "  path: corpus.jsonl", '  path: "corpus\\ud83d.jsonl"', "corpus.path"),
], ids=["description", "backend-name", "endpoint", "auth-env", "embedding-name", "corpus-path"])
@pytest.mark.parametrize("command", ["run", "validate-config"])
def test_config_or_topics_field_with_a_lone_surrogate_is_refused(e2e, capsys, name, line,
                                                                 replacement, field, command):
    # YAML's "\ud83d" escape loads as a lone surrogate, which no store key,
    # config digest or environment lookup could encode
    workdir, server = e2e
    path = workdir / name
    lines = path.read_text().splitlines()
    at = next(i for i, text in enumerate(lines) if text.startswith(line))
    lines[at] = replacement
    path.write_text("\n".join(lines) + "\n")
    config = workdir / "config.yaml"
    code = main([command, "--config", str(config)])
    err = capsys.readouterr().err
    problem = f"{field!r} holds '\\ud83d', which has no UTF-8 encoding"
    if name == "topics.yaml":  # an unreadable topics file, as every other one
        assert code == (1 if command == "run" else 2)
        prefix = "error: " if command == "run" else "config error: "
        assert f"{prefix}topics file {path.resolve()}: {problem}" in err.splitlines()
    else:
        assert code == 2
        assert f"config error: config {config}: {problem}" in err.splitlines()
    assert err.count("error: ") == 1 and "Traceback" not in err
    assert server.call_count == 0 and not (workdir / "runs").exists()


def test_chat_reply_with_a_lone_surrogate_is_a_backend_failure(e2e, capsys):
    # the stub escapes it as "\ud83d" in valid JSON; the reply is refused, not stored
    workdir, server = e2e
    chat = server.fixture.chat
    for digest in chat:
        chat[digest] += " \ud83d"
    assert main(["run", "--config", str(workdir / "config.yaml"), "--run-id", "bad"]) == 4
    err = capsys.readouterr().err
    assert ("backend failure: HTTP 200: malformed completion payload: content holds "
            "'\\ud83d', which has no UTF-8 encoding") in err.splitlines()
    assert "Traceback" not in err
    with contextlib.closing(ResponseCache(workdir / "cache")) as cache:
        assert cache._execute("SELECT count(*) FROM entries") == [(0,)]


# each input a JSON or YAML decoder reads, and the exit code of each command
# that reads it: config.yaml, the corpus and topics.yaml as README gives for
# an unreadable file, an upstream artifact 3, a backend reply 4
@pytest.mark.parametrize("where, codes", [
    ("config.yaml", {"validate-config": 2, "all": 2}),
    ("corpus.jsonl", {"validate-config": 2, "all": 1}),
    ("topics.yaml", {"validate-config": 2, "all": 1}),
    ("runs/done/score/aggregated.jsonl", {"agree": 3}),
    ("runs/done/agree/outliers.json", {"ensemble": 3}),
    ("reply", {"annotate": 4}),
])
def test_input_nested_past_the_recursion_limit_exits_with_its_code(finished_run, tmp_path,
                                                                   capsys, monkeypatch,
                                                                   where, codes):
    # each decoder recurses once per level of nesting, so this passes its limit
    deep = "[" * 100_000 + "]" * 100_000
    workdir = tmp_path / "demo"
    shutil.copytree(finished_run, workdir)
    path = workdir / where
    if where == "reply":
        shutil.rmtree(workdir / "cache")
        monkeypatch.setattr(annotator.ConnectionPool, "post",
                            lambda self, url, body, headers: (200, deep.encode()))
    elif where.endswith(".yaml"):  # the value of subset_ensembles, or of the first description
        text = path.read_text()
        field = "subset_ensembles: " if where == "config.yaml" else "description: "
        at = text.index(field) + len(field)
        path.write_text(text[:at] + deep + text[text.index("\n", at):])
    elif where.endswith(".jsonl"):  # the corpus's third record, the artifact's second row
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = deep + "\n"
        path.write_text("".join(lines))
    else:
        path.write_text(deep)
    for command, code in codes.items():
        argv = ([command] if command == "validate-config"
                else ["run", "--stage", command, "--run-id", "done"])
        assert main(argv + ["--config", str(workdir / "config.yaml")]) == code
        err = capsys.readouterr().err
        assert "maximum recursion depth exceeded" in err and "Traceback" not in err
        if where.startswith("runs/"):
            assert f"upstream artifact: {path}" in err


@pytest.mark.parametrize("key, what", [
    ("corpus.path", "corpus"), ("topics", "topics"), ("gold_labels", "gold labels")])
@pytest.mark.parametrize("command", ["run", "validate-config"])
def test_input_path_that_is_a_directory_is_a_config_error(tmp_path, capsys, key, what,
                                                          command):
    workdir = tmp_path / "demo"
    shutil.copytree(E2E, workdir)
    (workdir / "inputs").mkdir()
    _write_mutated(workdir / "config.yaml", {key: "inputs"})
    assert main([command, "--config", str(workdir / "config.yaml")]) == 2
    out, err = capsys.readouterr()
    assert err.splitlines() == [
        f"config error: {what} path is not a file: {(workdir / 'inputs').resolve()}"]
    assert "config OK" not in out and not (workdir / "runs").exists()


@pytest.mark.parametrize("files, problems", [
    ({"corpus.jsonl": ""}, ["corpus.jsonl holds no texts"]),
    ({"topics.yaml": "topics:\n  - short_name: sleep: x\n"},
     ["topics.yaml is not valid YAML"]),
    ({"corpus.jsonl": "", "topics.yaml": "topics: []\n"},
     ["corpus.jsonl holds no texts", "non-empty topic list"]),
    ({"gold.csv": "text_id,topic,label\nt1,sleep,maybe\n"},
     ["line 2: {workdir}/gold.csv: gold label 'maybe' not boolean"]),
    ({"gold.csv": "text_id,topic,label\nt1,sleep,1\nt2,sleep,1\nt1,sleep,0\n"},
     ["line 4: {workdir}/gold.csv: duplicate gold row for ('sleep', 't1') (first on line 2)"]),
    ({"gold.csv": "text_id,topic,label\nzz1,sleep,1\nzz2,sleep,0\n"},
     ["gold labels {workdir}/gold.csv: no row of topic 'sleep' names a text of the corpus"]),
    ({"gold.csv": "text_id,topic,label\nt1,sleep,1\nt1,slep,1\nt2,slep,0\n"},
     ["line 3: {workdir}/gold.csv: topic 'slep' is not a top-level topic"]),
], ids=["empty-corpus", "topics-not-yaml", "both", "gold-label-maybe", "gold-duplicate-row",
        "gold-names-no-corpus-text", "gold-unknown-topic"])
def test_validate_config_loads_corpus_and_topics(tmp_path, capsys, files, problems):
    workdir = tmp_path / "demo"
    shutil.copytree(E2E, workdir)
    for name, content in files.items():
        (workdir / name).write_text(content)
    assert main(["validate-config", "--config", str(workdir / "config.yaml")]) == 2
    out, err = capsys.readouterr()
    assert "config OK" not in out and "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == len(problems)
    for line, problem in zip(lines, problems):
        assert line.startswith("config error: ")
        assert problem.format(workdir=workdir.resolve()) in line


def test_gold_text_id_starting_with_hash_is_kept(tmp_path):
    gold = tmp_path / "gold.csv"
    gold.write_text("text_id,topic,label\n#t1,sleep,1\nt2,sleep,no\n")
    assert pipeline._load_gold(gold) == {"sleep": {"#t1": True, "t2": False}}


def test_gold_second_row_for_a_cell_is_refused(tmp_path):
    gold = tmp_path / "gold.csv"
    gold.write_text("text_id,topic,label\nt1,sleep,1\nt1,appetite,0\nt1,sleep,0\n")
    with pytest.raises(MalformedRecord) as exc:
        pipeline._load_gold(gold)
    assert str(exc.value) == (f"line 4: {gold}: duplicate gold row for ('sleep', 't1') "
                              f"(first on line 2)")


def test_gold_row_of_a_subtopic_is_refused(tmp_path):
    # gold labels are per top-level topic; a subtopic is scored, not evaluated
    gold = tmp_path / "gold.csv"
    gold.write_text("text_id,topic,label\nt1,sleep,1\nt2,insomnia,0\n")
    with pytest.raises(MalformedRecord) as exc:
        pipeline._load_gold(gold, {"sleep", "appetite"})
    assert str(exc.value) == f"line 3: {gold}: topic 'insomnia' is not a top-level topic"


def test_gold_with_a_byte_order_mark_names_both_lines_of_a_duplicate(tmp_path):
    gold = tmp_path / "gold.csv"
    gold.write_bytes(b"\xef\xbb\xbftext_id,topic,label\nt1,sleep,1\nt2,sleep,0\n")
    assert pipeline._load_gold(gold) == {"sleep": {"t1": True, "t2": False}}
    gold.write_bytes(b"\xef\xbb\xbftext_id,topic,label\nt1,sleep,1\nt2,sleep,0\nt1,sleep,0\n")
    with pytest.raises(MalformedRecord) as exc:
        pipeline._load_gold(gold)
    assert str(exc.value) == (f"line 4: {gold}: duplicate gold row for ('sleep', 't1') "
                              f"(first on line 2)")


@pytest.mark.parametrize("content, message", [
    ('text_id,topic,label\n"t\n1",sleep,maybe\n', "line 2: {path}: gold label 'maybe' not boolean"),
    ('text_id,topic,label\n"t\n1",sleep,1\n"t\n1",sleep,0\n',
     "line 4: {path}: duplicate gold row for ('sleep', 't\\n1') (first on line 2)"),
], ids=["not-boolean", "duplicate-row"])
def test_gold_error_names_the_first_line_of_a_spanning_row(tmp_path, content, message):
    # as a corpus error does: a quoted text_id spans lines 2 and 3
    gold = tmp_path / "gold.csv"
    gold.write_text(content)
    with pytest.raises(MalformedRecord) as exc:
        pipeline._load_gold(gold)
    assert str(exc.value) == message.format(path=gold)


@pytest.mark.parametrize("content, expected", [
    ("text_id,topic,label\nt1,sleep\n", "line 2: {path}: gold label None not boolean"),
    ("text_id,topic,label\nt1\n", "line 2: {path}: gold label None not boolean"),
    ("text_id,topic,label\nt1,sleep,1,extra\nt2,sleep,n\n", {"sleep": {"t1": True, "t2": False}}),
    ("text_id,topic,label\n\nt1,sleep,1\n\nt1,sleep,0\n",
     "line 5: {path}: duplicate gold row for ('sleep', 't1') (first on line 3)"),
    ("text_id,topic,label\r\nt1,sleep,1\r\nt1,sleep,0\r\n",
     "line 3: {path}: duplicate gold row for ('sleep', 't1') (first on line 2)"),
    ("text_id,topic,label\nt1,sleep,1\nt2,slep,1\n",
     "line 3: {path}: topic 'slep' is not a top-level topic"),
    ('label,topic,text_id\nYES,sleep,"a,b"\n', {"sleep": {"a,b": True}}),
], ids=["short-row", "shorter-row", "long-row", "blank-lines", "crlf", "unknown-topic",
        "columns-reordered"])
def test_gold_messages_and_values_are_pinned(tmp_path, content, expected):
    gold = tmp_path / "gold.csv"
    gold.write_text(content, newline="")
    if isinstance(expected, dict):
        assert pipeline._load_gold(gold, {"sleep"}) == expected
        return
    with pytest.raises(MalformedRecord) as exc:
        pipeline._load_gold(gold, {"sleep"})
    assert str(exc.value) == expected.format(path=gold)


def test_gold_missing_columns_names_them(tmp_path):
    gold = tmp_path / "gold.csv"
    gold.write_text("text_id,topic\nt1,sleep\n")
    with pytest.raises(MalformedRecord) as exc:
        pipeline._load_gold(gold)
    assert str(exc.value).startswith(f"line 1: {gold}: missing columns")
    assert str(exc.value).endswith("['label']")


@pytest.mark.parametrize("command, code, prefix", [
    ("validate-config", 2, "config error: "), ("run", 1, "error: ")])
def test_empty_gold_file_is_a_config_error(tmp_path, capsys, command, code, prefix):
    workdir = tmp_path / "demo"
    shutil.copytree(E2E, workdir)
    gold = workdir / "gold.csv"
    gold.write_bytes(b"")
    assert main([command, "--config", str(workdir / "config.yaml")]) == code
    out, err = capsys.readouterr()
    problems = [line for line in err.splitlines() if line.startswith(prefix)]
    assert len(problems) == 1 and f"{gold.resolve()}" in problems[0]
    assert "config OK" not in out and "Traceback" not in err
    assert not (workdir / "runs").exists()


def test_empty_csv_corpus_holds_no_texts(tmp_path, capsys):
    workdir = tmp_path / "demo"
    shutil.copytree(E2E, workdir)
    config = workdir / "config.yaml"
    config.write_text(config.read_text().replace(
        "path: corpus.jsonl\n  format: jsonl", "path: corpus.csv\n  format: csv"))
    (workdir / "corpus.csv").write_bytes(b"")
    assert main(["validate-config", "--config", str(config)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: corpus {workdir.resolve() / 'corpus.csv'} holds no texts"]


_LONG = "x" * 140_000  # over csv.field_size_limit()'s 131,072 characters


@pytest.mark.parametrize("file, content, line, problem", [
    ("corpus", 'id,text\na,fine\nb,"oops\nc,hello\nd,world\n', 3, "unexpected end of data"),
    ("corpus", 'id,text\na,"x"y\n', 2, "',' expected after '\"'"),
    ("corpus", f"id,text\na,{_LONG}\n", 2, "field larger than field limit (131072)"),
    ("gold", 'text_id,topic,label\nt1,sleep,"yes\nt2,sleep,no\n', 2, "unexpected end of data"),
    ("gold", 'text_id,topic,label\nt1,sleep,1\n"t2"x,sleep,1\n', 3, "',' expected after '\"'"),
    ("gold", f"text_id,topic,label\n{_LONG},sleep,1\n", 2,
     "field larger than field limit (131072)"),
], ids=["corpus-unclosed-quote", "corpus-text-after-quote", "corpus-long-field",
        "gold-unclosed-quote", "gold-text-after-quote", "gold-long-field"])
@pytest.mark.parametrize("command, code, prefix", [
    ("validate-config", 2, "config error: "), ("run", 1, "error: ")])
def test_csv_that_strict_mode_refuses_is_an_input_error(tmp_path, capsys, file, content, line,
                                                        problem, command, code, prefix):
    workdir = tmp_path / "demo"
    shutil.copytree(E2E, workdir)
    config = workdir / "config.yaml"
    if file == "corpus":
        config.write_text(config.read_text().replace(
            "path: corpus.jsonl\n  format: jsonl", "path: corpus.csv\n  format: csv"))
    path = workdir / f"{file}.csv"
    path.write_text(content, newline="")
    assert main([command, "--config", str(config)]) == code
    out, err = capsys.readouterr()
    where = f"corpus {path.resolve()}" if file == "corpus" else f"{path.resolve()}"
    assert [row for row in err.splitlines() if row.startswith(prefix)] == [
        f"{prefix}line {line}: {where}: {problem}"]
    assert "Traceback" not in err and not (workdir / "runs").exists()


@pytest.mark.parametrize("content", ["text_id,topic,label\n", "\ufefftext_id,topic,label\n\n\n"],
                         ids=["header-only", "bom-and-blank-lines"])
@pytest.mark.parametrize("command, code, prefix", [
    ("validate-config", 2, "config error: "), ("run", 1, "error: ")])
def test_gold_file_with_no_rows_is_refused(tmp_path, capsys, content, command, code, prefix):
    workdir = tmp_path / "demo"
    shutil.copytree(E2E, workdir)
    gold = workdir / "gold.csv"
    gold.write_text(content)
    assert main([command, "--config", str(workdir / "config.yaml")]) == code
    out, err = capsys.readouterr()
    assert [line for line in err.splitlines() if line.startswith(prefix)] == [
        f"{prefix}gold labels {gold.resolve()} holds no rows"]
    assert "config OK" not in out and "Traceback" not in err
    assert not (workdir / "runs").exists()


def test_corpus_and_gold_with_a_byte_order_mark_run_like_without(e2e, tmp_path, capsys):
    workdir, server = e2e
    records = [json.loads(line) for line in (workdir / "corpus.jsonl").read_text().splitlines()]
    corpus = io.StringIO()
    csv.writer(corpus, lineterminator="\n").writerows(
        [["id", "text", "group"]] + [[r["id"], r["text"], r.get("group", "")] for r in records])
    config_path = workdir / "config.yaml"
    config_path.write_text(config_path.read_text().replace(
        "path: corpus.jsonl\n  format: jsonl", "path: corpus.csv\n  format: csv"))
    (workdir / "corpus.csv").write_text(corpus.getvalue(), encoding="utf-8")
    bom = tmp_path / "bom"
    shutil.copytree(workdir, bom)
    for name in ("corpus.csv", "gold.csv"):
        (bom / name).write_bytes(b"\xef\xbb\xbf" + (workdir / name).read_bytes())
    trees = []
    for root in (workdir, bom):
        assert main(["validate-config", "--config", str(root / "config.yaml")]) == 0
        assert "config OK" in capsys.readouterr().out
        cfg = load_config(root / "config.yaml")
        run_dir = run(cfg, stage="all", run_id="bom")
        digest = config_digest(cfg).encode()
        trees.append({p.relative_to(run_dir).as_posix(): p.read_bytes().replace(digest, b"<d>")
                      for p in run_dir.rglob("*") if p.is_file()})
    assert trees[0] == trees[1] and "evaluate/metrics.csv" in trees[0]


def test_gold_topic_naming_no_corpus_text_is_an_error_line(e2e, capsys):
    workdir, server = e2e
    gold = workdir / "gold.csv"
    gold.write_text("text_id,topic,label\nzz1,sleep,1\nzz2,sleep,0\n")
    assert main(["run", "--config", str(workdir / "config.yaml"), "--run-id", "bad"]) == 1
    err = capsys.readouterr().err
    assert (f"error: gold labels {gold.resolve()}: no row of topic 'sleep' names a text "
            f"of the corpus") in err.splitlines()
    assert err.count("error:") == 1 and "Traceback" not in err
    assert server.call_count == 0 and not (workdir / "runs").exists()


def test_run_loads_each_input_once(e2e, monkeypatch):
    workdir, server = e2e
    calls = {"load_corpus_view": 0, "load_topics": 0}
    for name in calls:
        def counted(*args, _load=getattr(pipeline, name), _name=name):
            calls[_name] += 1
            return _load(*args)
        monkeypatch.setattr(pipeline, name, counted)
    assert main(["run", "--config", str(workdir / "config.yaml"), "--run-id", "once"]) == 0
    assert (workdir / "runs" / "once" / "evaluate" / "metrics.csv").exists()
    assert calls == {"load_corpus_view": 1, "load_topics": 1}


@pytest.mark.parametrize("name, where, data", [
    ("gold.csv", "", b"text_id,topic,label\n"
     + b"".join(b"t%d,sleep,1\n" % i for i in range(1000)) + b"t1000,sle\xe9p,1\n"),
    ("topics.yaml", "topics file ", b"topics:\n"
     + b"".join(b"  - short_name: s%d\n    description: %s\n" % (i, b"x" * 200)
                for i in range(40)) + b"  - short_name: caf\xe9\n"),
], ids=["gold", "topics"])
def test_input_not_utf8_names_line_and_byte(tmp_path, capsys, name, where, data):
    workdir = tmp_path / "demo"
    shutil.copytree(E2E, workdir)
    (workdir / name).write_bytes(data)
    bad = data.index(0xE9)
    assert bad > 8192  # past the first chunk that the text layer decodes
    line = data[:bad].count(b"\n") + 1
    assert main(["validate-config", "--config", str(workdir / "config.yaml")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: line {line}: {where}{workdir.resolve() / name} is not UTF-8: "
        f"byte {bad} (0xe9): invalid continuation byte"]


def _with_a_bad_byte(path: Path, rel: str) -> tuple[int, int]:
    """Put one 0xe9 byte into a copy of the e2e fixture's `rel` at `path`,
    past the first 8 KiB that the text layer decodes; return its line and
    file offset."""
    data = path.read_bytes()
    if rel == "corpus.csv":  # the corpus.jsonl records as CSV, the first text padded
        records = [json.loads(line) for line in data.decode().splitlines()]
        records[0]["text"] += " " + "x" * 9000
        rows = io.StringIO()
        csv.writer(rows, lineterminator="\n").writerows(
            [["id", "text", "group"]] + [[r["id"], r["text"], r.get("group", "")]
                                         for r in records])
        data = rows.getvalue().encode().replace(b"\nt2,", b"\nt2,caf\xe9 ", 1)
    elif rel.endswith((".yaml", ".csv")):  # a comment, or gold rows naming no text
        pad = (b"# " + b"x" * 9000 + b"\n" if rel.endswith(".yaml")
               else b"".join(b"zz%d,sleep,1\n" % i for i in range(1000)))
        data = data + pad + (b"# caf\xe9\n" if rel.endswith(".yaml") else b"zz,sle\xe9p,1\n")
    elif rel.endswith(".jsonl"):  # the first row padded, the byte in the second
        lines = data.splitlines(keepends=True)
        first = 1 if lines[0].startswith(b'{"_meta"') else 0
        row = json.loads(lines[first])
        row["~padding"] = "x" * 9000
        lines[first] = json.dumps(row).encode() + b"\n"
        lines[first + 1] = lines[first + 1].replace(b'": "', b'": "\xe9', 1)
        data = b"".join(lines)
    else:  # outliers.json, which is read whole
        data = b" " * 9000 + data.replace(b'"m_gamma"', b'"m_gamm\xe9a"', 1)
    path.write_bytes(data)
    bad = data.index(0xE9)
    assert bad > 8192 and data[bad + 1] < 0x80
    return data[:bad].count(b"\n") + 1, bad


# every file the program reads, and the exit code of each command that reads it
@pytest.mark.parametrize("rel, codes", [
    ("config.yaml", {"validate-config": 2, "all": 2}),
    ("topics.yaml", {"validate-config": 2, "all": 1}),
    ("corpus.jsonl", {"validate-config": 2, "all": 1}),
    ("corpus.csv", {"validate-config": 2, "all": 1}),
    ("gold.csv", {"validate-config": 2, "all": 1}),
    ("runs/done/annotate/annotations.jsonl", {"score": 3}),
    ("runs/done/score/aggregated.jsonl", {"agree": 3, "ensemble": 3, "evaluate": 3}),
    ("runs/done/agree/outliers.json", {"ensemble": 3}),
    ("runs/done/ensemble/sleep.decisions.jsonl", {"evaluate": 3, "export-triage": 3}),
])
def test_every_file_read_names_a_bad_byte_by_line_and_offset(finished_run, tmp_path, capsys,
                                                             rel, codes):
    workdir = tmp_path / "demo"
    shutil.copytree(finished_run, workdir)
    config = workdir / "config.yaml"
    if rel == "corpus.csv":
        shutil.copy(workdir / "corpus.jsonl", workdir / rel)
        config.write_text(config.read_text().replace(
            "path: corpus.jsonl\n  format: jsonl", "path: corpus.csv\n  format: csv"))
    line, bad = _with_a_bad_byte(workdir / rel, rel)
    name = {"config.yaml": f"config {config}", "topics.yaml": "topics file ",
            "corpus.jsonl": "corpus ", "corpus.csv": "corpus "}.get(rel, "")
    if rel != "config.yaml":
        name += str(workdir.resolve() / rel)
    for command, code in codes.items():
        argv = {"validate-config": ["validate-config"],
                "export-triage": ["export-triage", "--run-id", "done"]}.get(
                    command, ["run", "--stage", command, "--run-id", "done"])
        assert main(argv + ["--config", str(config)]) == code
        err = capsys.readouterr().err
        prefix = {2: "config error", 1: "error", 3: "missing or stale upstream artifact"}[code]
        assert [text for text in err.splitlines() if "error" in text or "artifact" in text] == [
            f"{prefix}: line {line}: {name} is not UTF-8: byte {bad} (0xe9): "
            f"invalid continuation byte"]
        assert "Traceback" not in err


def test_short_name_with_a_trailing_newline_is_a_config_error(tmp_path, capsys):
    workdir = tmp_path / "demo"
    shutil.copytree(E2E, workdir)
    topics = workdir / "topics.yaml"
    topics.write_text(topics.read_text().replace("short_name: sleep", 'short_name: "sleep\\n"'))
    assert main(["validate-config", "--config", str(workdir / "config.yaml")]) == 2
    assert "short_name 'sleep\\n' must match [A-Za-z0-9_]+" in capsys.readouterr().err


@pytest.mark.parametrize("run_id", ["", ".", "..", "{tmp_path}/elsewhere", "../x", "a/b",
                                    "a\0b"])
@pytest.mark.parametrize("command", ["run", "export-triage"])
def test_run_id_outside_output_dir_is_a_usage_error(tmp_path, capsys, command, run_id):
    # an absolute id would replace output_dir; one inside tmp_path shows it safely
    run_id = run_id.format(tmp_path=tmp_path)
    workdir = tmp_path / "demo"
    shutil.copytree(E2E, workdir)
    before = sorted(tmp_path.rglob("*"))
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(workdir / "config.yaml"), "--run-id", run_id])
    assert exc.value.code == 2
    assert "--run-id" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


def test_tracer_patches_every_name_it_looks_for():
    # pipebench's tracer wraps names of src/ by attribute; a renamed one is
    # skipped and listed as missing. install() patches modules, so it runs
    # in a child process.
    bench = Path(__file__).resolve().parent.parent / "pipebench"
    script = ("import json, tracer\n"
              "t = tracer.Tracer()\n"
              "tracer.install(t)\n"
              "print(json.dumps(t.missing))\n")
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(pipeline.__file__).parent.parent), str(bench)])}, check=True)
    assert json.loads(proc.stdout) == []


@pytest.mark.parametrize("top", ["0", "-1"])
def test_export_triage_top_below_one_is_a_usage_error(capsys, top):
    with pytest.raises(SystemExit) as exc:
        main(["export-triage", "--config", "unused.yaml", "--run-id", "x", "--top", top])
    assert exc.value.code == 2
    assert "--top" in capsys.readouterr().err
