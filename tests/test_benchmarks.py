"""Smoke runs of the benchmark scripts on small inputs.

The scripts drive the library's API, so each must keep up with it; these runs
check that each finishes and prints its figures, not what the figures are.
"""
from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import topicensemble

BENCHMARKS = Path(__file__).parents[1] / "benchmarks"


@pytest.mark.parametrize("script,args,printed", [
    ("bench_agreement.py", ["--items", "2000", "--resamples", "100"], "agree chain"),
    ("bench_transport.py", ["--calls", "200", "--repeats", "1"], "calls_per_s"),
    ("bench_annotate.py", ["--texts", "20", "--repeats", "1", "--delay-ms", "1"],
     "slowest_backend_bound_s"),
    ("bench_annotate.py", ["--texts", "20", "--repeats", "1", "--delay-ms", "1",
                           "--duplicate-share", "0.5"], "chat_calls_per_backend"),
    ("bench_annotate.py", ["--texts", "20", "--repeats", "1", "--delay-ms", "1",
                           "--delay-sigma", "1.0"], "mean_hold_bound_s"),
    ("bench_annotate.py", ["--texts", "20", "--repeats", "1", "--delay-ms", "0"],
     "realized_bound_s"),
    ("bench_corpus.py", ["--texts", "2000", "--words", "5"], "load_corpus_view"),
    ("bench_corpus.py", ["--texts", "200", "--words", "5", "--dir", "missing/dir"],
     "config_digest"),
    ("bench_handoff.py", ["--texts", "500", "--repeats", "1"], "together"),
    ("bench_rerun.py", ["--texts", "50", "--repeats", "1"], "stage all"),
])
def test_benchmark_script_runs(tmp_path, script, args, printed):
    src = Path(topicensemble.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(BENCHMARKS / script), *args], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert printed in proc.stdout


def _pairs_module():
    spec = importlib.util.spec_from_file_location("pairs", BENCHMARKS / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(texts_per_s, cpu_s, correct=True, failed=0):
    return {"correct": correct, "attempted": 5, "failed": failed,
            "metrics": {"texts_per_s": {"value": texts_per_s, "unit": "1/s"},
                        "cpu_s": {"value": cpu_s, "unit": "s"}}}


END_TO_END = [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
              {"name": "texts_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
              {"name": "cpu_s", "unit": "s", "better": "lower", "bound": 0.25}]


def test_pairs_summary_reads_better_from_the_benchmark_metric():
    pairs = _pairs_module()
    runs = [(_result(1000, 2.0), _result(1100, 1.9)),
            (_result(1200, 1.6), _result(1150, 1.7)),
            (_result(1100, 1.8), _result(1300, 1.5)),
            (_result(900, 2.2), _result(1000, 2.4))]
    lines, ok = pairs.summarize(runs, END_TO_END)
    # setup_s is in no result line, so it gets no line
    assert lines == [
        "texts_per_s (1/s, higher is better): median 1050 -> 1125, "
        "parent quartiles 975..1125, change better in 3 of 4 pairs",
        "cpu_s (s, lower is better): median 1.9 -> 1.8, "
        "parent quartiles 1.75..2.05, change better in 2 of 4 pairs"]
    assert ok


@pytest.mark.parametrize("bad", [_result(1000, 2.0, correct=False), _result(1000, 2.0, failed=1),
                                 {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}],
                         ids=["not-correct", "failed-operation", "no-result-line"])
def test_pairs_summary_fails_on_a_bad_run(bad):
    lines, ok = _pairs_module().summarize([(_result(1000, 2.0), bad)], END_TO_END)
    assert not ok
    assert len(lines) == (0 if not bad["metrics"] else 2)


def test_pairs_alternate_the_first_side_and_raise_the_seed(tmp_path, monkeypatch, capsys):
    pairs = _pairs_module()
    for side in ("parent", "change"):
        (tmp_path / side / "pipebench").mkdir(parents=True)
        (tmp_path / side / "pipebench" / "run.py").touch()
    compiled, ran = [], []
    monkeypatch.setattr(pairs, "compile_sources", compiled.append)
    monkeypatch.setattr(pairs, "run_once", lambda checkout, workload, seed, seconds: ran.append(
        (checkout.name, workload, seed, seconds)) or _result(1000, 2.0, failed=seed == 3))
    code = pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                       "--workload", "label_cold", "--pairs", "3", "--seconds", "1",
                       "--seed", "2"])
    assert compiled == [tmp_path / "parent", tmp_path / "change"]
    assert ran == [("parent", "label_cold", 2, 1.0), ("change", "label_cold", 2, 1.0),
                   ("change", "label_cold", 3, 1.0), ("parent", "label_cold", 3, 1.0),
                   ("parent", "label_cold", 4, 1.0), ("change", "label_cold", 4, 1.0)]
    out = capsys.readouterr().out
    assert out.count("pair ") == 6 and "texts_per_s" in out
    assert code == 1  # the runs at seed 3 had a failed operation
