"""Run one command as a child of a small process and report its usage.

    python3 pipebench/launch.py RESULT.json CMD [ARG ...]

run.py starts every timed CLI invocation through this launcher. On Linux a
process that execs takes the peak RSS of the memory map it leaves into its
own ru_maxrss; a child made by fork or vfork leaves its parent's map, so a
CLI started straight from run.py, which holds the synthetic data and the
parsed artifacts, would report at least run.py's own peak. The launcher's
map is that of a bare interpreter, far below any CLI's, so the CLI's
figure is its own (and that of anything it starts). The launcher writes
the CLI's exit code, wall time, user+sys CPU and peak RSS, and its own
peak RSS (VmHWM, the figure the CLI inherits) to RESULT.json. On SIGTERM
it stops and reaps the CLI before it exits.
"""
from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time


def own_peak_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def main(argv: list[str]) -> int:
    out, cmd = argv[0], argv[1:]
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    start = time.perf_counter()
    proc = subprocess.Popen(cmd)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"code": code, "wall": wall,
                   "cpu": usage.ru_utime + usage.ru_stime,
                   "rss_mb": usage.ru_maxrss / 1024.0,
                   "launcher_mb": own_peak_mb()}, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
