"""Cold annotate wall time against backends that take real time to answer.

Starts `topicensemble.stubserver` in its own process, with each chat reply
held back --delay-ms (the launcher of bench_transport.py), and a fixture
holding an answer for every (model, text). Then runs `annotate_corpus` over
--texts texts for --backends backends at --parallelism each, into an empty
store, --repeats times. Prints the median wall time against the
slowest-backend bound, distinct texts / parallelism × delay, and against
the sum over backends, which is what working one backend at a time costs;
the mean calls in flight per backend (the summed time of its chat calls
over the wall time), whose ceiling is the parallelism; and the chat calls
each backend made in the last run. With --duplicate-share S, a share S of
the texts repeat the text just before them, in the same window, as short
replies ("N/A", "no") repeat in survey answers; a backend asked once per
distinct prompt makes one call per distinct text. With --delay-sigma S > 0,
each reply is held --delay-ms times a lognormal(0, S) factor, as a local
model's reply time varies with the length of its answer, and the wall time
is also printed against the bound at the mean hold, delay · e^(S²/2). The
stub draws the holds in arrival order, so each repeat sees other holds; the
realized bound, the largest summed chat time of any backend over the
parallelism, is the bound for the holds a repeat drew, and the median of
each repeat's wall time over it is printed too. A wall/bound ratio is
printed only for a bound above 0.

    PYTHONPATH=src python3 benchmarks/bench_annotate.py [--texts 300]
        [--backends 3] [--parallelism 2] [--delay-ms 20] [--delay-sigma 0]
        [--repeats 3] [--duplicate-share 0]
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import tempfile
import threading
import time
from collections import Counter
from contextlib import closing
from pathlib import Path

from bench_transport import TOPICS, start_stub

from topicensemble import annotator
from topicensemble.annotator import (ConnectionPool, ModelBackend, ResponseCache,
                                     annotate_corpus, build_prompt)
from topicensemble.corpus import TextItem
from topicensemble.stubserver import format_response


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--texts", type=int, default=300)
    parser.add_argument("--backends", type=int, default=3)
    parser.add_argument("--parallelism", type=int, default=2)
    parser.add_argument("--delay-ms", type=float, default=20.0,
                        help="hold each chat reply back this long in the stub")
    parser.add_argument("--delay-sigma", type=float, default=0.0,
                        help="times a lognormal(0, S) factor per reply, from a fixed seed")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--duplicate-share", type=float, default=0.0,
                        help="share of texts, in [0, 1), that repeat the text before them")
    args = parser.parse_args()
    if not 0 <= args.duplicate_share < 1:
        parser.error("--duplicate-share must be in [0, 1)")
    if args.delay_sigma < 0:
        parser.error("--delay-sigma must be at least 0")

    # text i repeats text i - 1 wherever i * share passes a whole number, unless
    # i starts a window, so the repeats are spread evenly and share a window
    share = args.duplicate_share
    texts: list[str] = []
    for i in range(args.texts):
        if i % annotator.WINDOW and int(i * share) > int((i - 1) * share):
            texts.append(texts[-1])
        else:
            texts.append(f"Text number {i}: the deadlines keep piling up.")
    corpus = [TextItem(f"t{i}", text) for i, text in enumerate(texts)]
    distinct = len(set(texts))
    models = [f"m{b}" for b in range(args.backends)]
    answer = format_response([(topic.short_name, False, []) for topic in TOPICS])
    busy: Counter = Counter()
    calls: Counter = Counter()
    lock = threading.Lock()
    real_chat = annotator.chat

    def timed_chat(backend, prompt, pool):
        start = time.perf_counter()
        try:
            return real_chat(backend, prompt, pool)
        finally:
            with lock:
                busy[backend.name] += time.perf_counter() - start
                calls[backend.name] += 1

    annotator.chat = timed_chat
    with tempfile.TemporaryDirectory() as tmp:
        fixture = Path(tmp) / "fixture.json"
        fixture.write_text(json.dumps({"dimension": 8, "embeddings": {}, "chat": [
            {"model": model, "prompt": build_prompt(TOPICS, item), "response": answer}
            for model in models for item in corpus]}))
        proc, url = start_stub(fixture, args.delay_ms, args.delay_sigma)
        backends = [ModelBackend(model, url, parallelism=args.parallelism) for model in models]
        walls, inflight, realized = [], [], []
        try:
            for repeat in range(args.repeats):
                busy.clear()
                calls.clear()
                with (closing(ResponseCache(Path(tmp) / f"cache{repeat}")) as cache,
                      closing(ConnectionPool(retries=0, timeout=30.0, backoff=0.0)) as pool):
                    start = time.perf_counter()
                    with closing(annotate_corpus(corpus, TOPICS, backends, cache, pool)) as cells:
                        count = sum(1 for _ in cells)
                    wall = time.perf_counter() - start
                if count != len(models) * len(corpus) * len(TOPICS.leaves()):
                    raise RuntimeError(f"{count} cells")
                walls.append(wall)
                inflight.append([busy[model] / wall for model in models])
                realized.append(max(busy.values(), default=0.0) / args.parallelism)
        finally:
            proc.terminate()
            proc.wait(timeout=10)
            proc.stdout.close()

    slowest = distinct / args.parallelism * args.delay_ms / 1000.0
    wall = statistics.median(walls)

    def against(bound: float) -> str:
        return f"  wall/bound {wall / bound:5.2f}" if bound > 0 else ""

    print(f"texts={args.texts} distinct={distinct} backends={args.backends} "
          f"parallelism={args.parallelism} delay_ms={args.delay_ms:g} repeats={args.repeats} "
          f"duplicate_share={share:g}" + (f" delay_sigma={args.delay_sigma:g}"
                                          if args.delay_sigma else ""))
    print(f"wall_s {wall:7.3f}  (runs: {', '.join(f'{w:.3f}' for w in walls)})")
    print(f"slowest_backend_bound_s {slowest:7.3f}" + against(slowest))
    if args.delay_sigma:
        mean = slowest * math.exp(args.delay_sigma ** 2 / 2)
        print(f"mean_hold_bound_s {mean:7.3f}" + against(mean))
    # each repeat's wall against the bound for the holds that repeat drew
    print(f"realized_bound_s {statistics.median(realized):7.3f}" + (
        f"  wall/bound {statistics.median(w / r for w, r in zip(walls, realized)):5.2f}"
        if min(realized) > 0 else ""))
    print(f"sum_over_backends_s {slowest * args.backends:7.3f}")
    print("inflight_mean_per_backend " + "  ".join(
        f"{model} {statistics.median(run[b] for run in inflight):.2f}"
        for b, model in enumerate(models)) + f"  (ceiling {args.parallelism})")
    print("chat_calls_per_backend " + "  ".join(f"{model} {calls[model]}" for model in models)
          + "  (last run)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
