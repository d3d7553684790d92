import json
import shutil
from pathlib import Path

import pytest

from topicensemble.cli import main
from topicensemble.config import config_digest, load_config
from topicensemble.errors import ConfigInvalid, MissingUpstreamArtifact
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


@pytest.mark.parametrize("bootstrap, problem", [
    ("{resamples: 200, seed: -1}", "bootstrap.seed must be >= 0"),
    ("{resamples: many, seed: 7}", "bootstrap.resamples must be an integer"),
    ("{resamples: 200, seed: 1.5}", "bootstrap.seed must be an integer"),
    ("{resamples: 200, seed: abc}", "bootstrap.seed must be an integer"),
    ("5", "bootstrap must be a mapping"),
])
def test_cli_bad_bootstrap_config(tmp_path, capsys, bootstrap, problem):
    workdir = tmp_path / "demo"
    shutil.copytree(E2E, workdir)
    config_path = workdir / "config.yaml"
    config_path.write_text(
        config_path.read_text().replace(
            "bootstrap:\n  resamples: 200\n  seed: 7", f"bootstrap: {bootstrap}"
        )
    )
    assert f"bootstrap: {bootstrap}" in config_path.read_text()
    assert main(["validate-config", "--config", str(config_path)]) == 2
    assert main(["run", "--config", str(config_path), "--run-id", "bad"]) == 2
    err = capsys.readouterr().err
    assert problem in err
    assert "Traceback" not in err


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
            [json.dumps({"_meta": {"schema": "aggregated", "config_digest": digest}})]
            + [json.dumps(r) for r in agg_rows]
        )
        + "\n"
    )
    (run_dir / "agree").mkdir()
    (run_dir / "agree" / "outliers.json").write_text(json.dumps({"excluded": []}))

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
