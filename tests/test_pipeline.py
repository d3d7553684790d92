import contextlib
import io
import json
import shutil
import socket
from pathlib import Path

import pytest
import requests
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from topicensemble.cli import main
from topicensemble.config import config_digest, load_config
from topicensemble.errors import ConfigInvalid, MissingUpstreamArtifact
from topicensemble import pipeline
from topicensemble.pipeline import run
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
    ("retries: -1", "retries must be >= 0"),
    ("embedding.batch_size: 0", "embedding.batch_size must be >= 1"),
    ("backends.0.parallelism: many", "backends[0].parallelism must be an integer"),
    ("failure_budget: 7", "failure_budget must be >= 0 and <= 1"),
    ("timeout: 0", "timeout must be > 0"),
    ("backoff: -0.5", "backoff must be >= 0"),
    ("backends.1: 7", "backends[1] must be a mapping"),
    ("embedding: [a, b]", "embedding must be a mapping"),
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


E2E_FIELDS = sorted(_scalar_fields(yaml.safe_load((E2E / "config.yaml").read_text())))
WRONG_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.integers(),
    st.sampled_from([10**400, 1e308, -1e308]), st.floats(), st.text(max_size=12),
    st.lists(st.integers(), max_size=2), st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


@pytest.fixture(scope="module")
def e2e_inputs(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("mutated")
    shutil.copytree(E2E, workdir, dirs_exist_ok=True)
    return workdir


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from(E2E_FIELDS), WRONG_VALUES, min_size=1, max_size=3))
def test_validate_config_never_crashes(e2e_inputs, changes):
    config_path = e2e_inputs / "config.yaml"
    _write_mutated(config_path, changes)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["validate-config", "--config", str(config_path)])
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()


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


def test_ensemble_stage_zero_variance_fallback(tmp_path):
    # a topic nobody ever labels: every score column is constant, so the
    # stage falls back to flat pc1 + sentinel threshold instead of aborting
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
        "embedding: {endpoint: http://127.0.0.1:1/v1/embeddings}\n"
        "output_dir: runs\n"
    )
    cfg = load_config(workdir / "config.yaml")
    digest = config_digest(cfg)
    run_dir = workdir / "runs" / "zv-run"
    agg_rows = [
        {"model": m, "text_id": t, "topic": "ghost", "label": False, "score": 0.0}
        for m in ("m1", "m2") for t in ("t1", "t2")
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
        json.dumps({"excluded": [], "config_digest": digest}))

    from topicensemble.pipeline import stage_ensemble

    stage_ensemble(cfg, run_dir, digest, "zv-run")
    summary = json.loads((run_dir / "ensemble" / "ensemble.json").read_text())
    assert summary["topics"]["ghost"]["zero_variance_fallback"] is True
    assert summary["topics"]["ghost"]["weights"] == pytest.approx([2 ** -0.5] * 2)
    decisions = [
        json.loads(line)
        for line in (run_dir / "ensemble" / "ghost.decisions.jsonl")
        .read_text().splitlines()[1:]
    ]
    assert all(d["final"] is False for d in decisions)
    assert all(d["pc1"] == 0.0 for d in decisions)


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
    real_post = requests.Session.post

    def counting_post(self, *args, **kwargs):
        posts.append(args)
        return real_post(self, *args, **kwargs)

    monkeypatch.setattr(requests.Session, "post", counting_post)
    assert main(["run", "--config", str(config_path), "--run-id", "dead"]) == 4
    cfg = load_config(config_path)
    workers = sum(b.parallelism for b in cfg.backends)
    assert 0 < len(posts) <= 2 * workers * (cfg.retries + 1)
    # the failed stage closed its store
    assert [p.name for p in cfg.cache_dir.iterdir()] == ["cache.sqlite"]


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


def _tamper_jsonl(path: Path, case: str) -> None:
    lines = path.read_text().splitlines(keepends=True)
    if case == "header":
        del lines[0]
    elif case == "truncated":
        lines[-1] = lines[-1][: len(lines[-1]) // 2]
    else:
        meta = json.loads(lines[0])
        meta["_meta"][case] = _WRONG[case]
        lines[0] = json.dumps(meta) + "\n"
    path.write_text("".join(lines))


def _tamper_json(path: Path, case: str) -> None:
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
])
def test_damaged_or_stale_upstream_exits_3(finished_run, tmp_path, capsys,
                                           rel, stage, case):
    workdir = tmp_path / "demo"
    shutil.copytree(finished_run, workdir)
    path = workdir / "runs" / "done" / rel
    (_tamper_json if rel.endswith(".json") else _tamper_jsonl)(path, case)
    config = str(workdir / "config.yaml")
    assert main(["run", "--config", config, "--stage", stage, "--run-id", "done"]) == 3
    err = capsys.readouterr().err
    assert f"upstream artifact: {path}" in err
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


def _rows_then_fail():
    yield {"a": 1}
    yield {"a": 2}
    raise RuntimeError("row source failed")


def _rows_then_unencodable():
    yield {"a": 1}
    yield {"a": "\ud800"}  # a lone surrogate has no UTF-8 encoding
    yield {"a": 3}


@pytest.mark.parametrize("write", [
    lambda path: pipeline._write_jsonl(path, "x", "d", _rows_then_fail()),
    lambda path: pipeline._write_jsonl(path, "x", "d", _rows_then_unencodable()),
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
    ("topics.yaml", "topics:\n  - short_name: sleep: x\n"),
    ("corpus.jsonl", b'{"id": "t1", "text": "caf\xe9 au lait"}\n'),
], ids=["gold-label-maybe", "gold-no-label-column", "topics-not-yaml",
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


def test_gold_text_id_starting_with_hash_is_kept(tmp_path):
    gold = tmp_path / "gold.csv"
    gold.write_text("text_id,topic,label\n#t1,sleep,1\nt2,sleep,no\n")
    assert pipeline._load_gold(gold) == {"sleep": {"#t1": True, "t2": False}}


@pytest.mark.parametrize("top", ["0", "-1"])
def test_export_triage_top_below_one_is_a_usage_error(capsys, top):
    with pytest.raises(SystemExit) as exc:
        main(["export-triage", "--config", "unused.yaml", "--run-id", "x", "--top", top])
    assert exc.value.code == 2
    assert "--top" in capsys.readouterr().err
