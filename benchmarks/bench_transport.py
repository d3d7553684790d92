"""Chat calls per second through one connection pool, and the client CPU
each call costs.

Starts `topicensemble.stubserver` in its own process on a free port, with a
fixture holding one chat answer, then makes --calls chat POSTs through
`annotator.post_json` on one `ConnectionPool`, one call at a time, after
WARMUP untimed ones. The prompt is a labeling prompt for three topics, as
annotate sends. Prints calls per second (wall), client CPU in ms per call
(this process only; the stub's CPU is its own), that CPU's share of the wall
time, and the ru_maxrss of this process.

--delay-ms holds each chat reply back that long in the stub, a stand-in for
a backend that takes real time to answer. The client's CPU per call sets the
call rate only while the reply time is no larger than it; with a delay the
rate is set by the delay, and only the client CPU per call shows a change to
the transport.

    PYTHONPATH=src python3 benchmarks/bench_transport.py [--calls 5000]
        [--repeats 3] [--delay-ms 0]
"""
from __future__ import annotations

import argparse
import json
import resource
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import closing
from pathlib import Path

from topicensemble.annotator import ConnectionPool, build_prompt, post_json
from topicensemble.corpus import TextItem, Topic, TopicSet

TOPICS = TopicSet((
    Topic("sleep", "Trouble falling or staying asleep."),
    Topic("workload", "Heavy workload, feeling overloaded with tasks and deadlines."),
    Topic("commute", "Long or stressful commute. Must relate to travel time."),
))
TEXT = TextItem("t1", "I have not slept properly in weeks; the deadlines keep piling up "
                      "and the train home takes an hour on a good day.")
WARMUP = 200  # calls before timing: the connection is open and the stub warm
ANSWER = "(1) sleep: yes, related phrases: 'not slept'\n(2) workload: yes\n(3) commute: no"


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


# the stub's main, with each chat reply held back argv[1] ms when that is not 0,
# times a lognormal(0, argv[2]) factor drawn from a fixed seed (1 when argv[2] is 0)
STUB = """import random, sys, time
from topicensemble import stubserver
delay, sigma, chat = float(sys.argv[1]) / 1000.0, float(sys.argv[2]), stubserver._Handler._chat
factor = random.Random(0).lognormvariate
def held_chat(self, server, payload):
    time.sleep(delay * factor(0.0, sigma))
    chat(self, server, payload)
if delay:
    stubserver._Handler._chat = held_chat
sys.exit(stubserver.main(sys.argv[3:]))
"""


def start_stub(fixture: Path, delay_ms: float,
               delay_sigma: float = 0.0) -> tuple[subprocess.Popen, str]:
    """The stub server in its own process, and its chat URL once it listens."""
    proc = subprocess.Popen(
        [sys.executable, "-c", STUB, str(delay_ms), str(delay_sigma), str(fixture),
         "--port", str(free_port())], stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    if not line.startswith("stub server listening on "):
        proc.kill()
        proc.wait()
        raise RuntimeError(f"stub server did not start: {line!r}")
    return proc, line.split()[4]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--calls", type=int, default=5000)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--delay-ms", type=float, default=0.0,
                        help="hold each chat reply back this long in the stub")
    args = parser.parse_args()

    prompt = build_prompt(TOPICS, TEXT)
    payload = {"model": "m1", "messages": [{"role": "user", "content": prompt}],
               "temperature": 0.0, "max_tokens": 512}
    with tempfile.TemporaryDirectory() as tmp:
        fixture = Path(tmp) / "fixture.json"
        fixture.write_text(json.dumps({"dimension": 8, "embeddings": {}, "chat": [
            {"model": "m1", "prompt": prompt, "response": ANSWER}]}))
        proc, url = start_stub(fixture, args.delay_ms)
        try:
            with closing(ConnectionPool(retries=0, timeout=30.0, backoff=0.0)) as pool:
                for _ in range(WARMUP):
                    post_json(pool, url, payload)
                rates, cpus, shares = [], [], []
                for _ in range(args.repeats):
                    wall, cpu = time.perf_counter(), time.process_time()
                    for _ in range(args.calls):
                        reply = post_json(pool, url, payload)
                    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
                    if reply["choices"][0]["message"]["content"] != ANSWER:
                        raise RuntimeError(f"unexpected reply {reply!r}")
                    rates.append(args.calls / wall)
                    cpus.append(1000.0 * cpu / args.calls)
                    shares.append(cpu / wall)
        finally:
            proc.terminate()
            proc.wait(timeout=10)
            proc.stdout.close()
    print(f"calls={args.calls} repeats={args.repeats} delay_ms={args.delay_ms:g} "
          f"prompt={len(prompt)} chars")
    print(f"calls_per_s {statistics.median(rates):8.0f}  "
          f"(runs: {', '.join(f'{r:.0f}' for r in rates)})")
    print(f"client_cpu_ms_per_call {statistics.median(cpus):6.3f}  "
          f"(runs: {', '.join(f'{c:.3f}' for c in cpus)})")
    print(f"client_cpu_share_of_wall {statistics.median(shares):6.3f}  "
          f"(runs: {', '.join(f'{c:.3f}' for c in shares)})")
    print(f"peak_rss {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.1f} MB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
