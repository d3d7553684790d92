"""Smoke runs of the benchmark scripts on small inputs.

The scripts drive the library's API, so each must keep up with it; these runs
check that each finishes and prints its figures, not what the figures are.
"""
from __future__ import annotations

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
