"""Start a benchmark script's child through pipebench/launch.py.

On Linux a child made by fork takes its parent's peak RSS into its own
ru_maxrss, so a child started straight from a script that holds a large run
would report at least the script's peak. The launcher is a bare interpreter,
so the child's figure is its own. See pipebench/launch.py.
"""
from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

LAUNCH = Path(__file__).parents[1] / "pipebench" / "launch.py"


def run_child(args: list[str]) -> tuple[subprocess.CompletedProcess, float]:
    """Run `python3 ARGS` under the launcher, with its output captured: the
    finished process, with the child's exit code, and the child's wall time."""
    with tempfile.TemporaryDirectory() as tmp:
        result = Path(tmp) / "result.json"
        proc = subprocess.run([sys.executable, str(LAUNCH), str(result), sys.executable, *args],
                              capture_output=True, text=True)
        if proc.returncode:  # the launcher itself failed
            return proc, 0.0
        usage = json.loads(result.read_text())
    proc.returncode = usage["code"]
    return proc, usage["wall"]
