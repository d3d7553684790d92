"""Time a warm rerun of annotate, of score and of every stage: the pipeline's
own cost of a rerun.

Writes a labeling run's inputs (--texts texts, three leaf topics under two
top-level topics, --models backends) and fills its `cache.sqlite` directly,
as a cold run would have: a chat answer for every (model, text) under
`ResponseCache.key`, stored as `ResponseCache.entry` documents, and a vector
for every text score embeds (the empty string, each leaf description and
each evidence phrase) under the `Embedder` key. Every endpoint points at a
closed port with no retries, so a store miss fails the run. Then compiles
the package's bytecode once, so that no child compiles a stale module, and
times `run --stage annotate`, `run --stage score` and `run --stage all` (the
shape of pipebench's rerun_warm) in child processes, each a fresh
interpreter started through pipebench/launch.py so that its peak RSS is its
own, --repeats times. Repeat r runs annotate and score under run id
`r{r}` and all under `all{r}`, so each stage writes into a run directory of
its own: renaming an artifact over an existing file makes ext4 flush the
file's data first, which would be timed as the pipeline's. Prints, for each
stage, the median of the child's wall time, of its time inside the pipeline
(imports excluded) and of its peak RSS. A missing --dir is created.

    PYTHONPATH=src python3 benchmarks/bench_rerun.py [--texts 2000] [--models 3]
        [--repeats 5] [--dir DIR]
"""
from __future__ import annotations

import argparse
import compileall
import json
import resource
import statistics
import sys
import tempfile
import time
from contextlib import closing
from pathlib import Path

import numpy as np

from launched import run_child

STAGES = ("annotate", "score", "all")
TOPICS_YAML = """\
- short_name: sleep
  description: Sleep problems, trouble falling asleep or staying asleep.
- short_name: work
  description: Workplace friction.
  subtopics:
    - {short_name: work_blame, description: Being blamed at work for problems caused by others.}
    - {short_name: work_dismiss, description: Suggestions at work dismissed without discussion.}
"""
PHRASES = [f"{adjective} {noun}" for adjective in ("lying", "wide", "broken", "blamed", "ignored")
           for noun in ("awake", "at night", "for the outage", "in the meeting")]
DIMENSION = 64


def write_run(root: Path, texts: int, models: int) -> None:
    """Inputs and config of one labeling run under root, and its filled store."""
    from topicensemble.annotator import ResponseCache, build_prompt
    from topicensemble.config import load_config
    from topicensemble.corpus import load_corpus, load_topics
    from topicensemble.relevancy import Embedder, truncate_words
    from topicensemble.stubserver import format_response

    rng = np.random.default_rng(1)
    with open(root / "corpus.jsonl", "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps({"id": f"t{i:06d}", "group": f"g{i % 20}",
                                  "text": f"Note {i}: " + " ".join(rng.choice(PHRASES, 4))})
                      + "\n" for i in range(texts))
    (root / "topics.yaml").write_text(TOPICS_YAML)
    dead = "http://127.0.0.1:1"  # a closed port: any call the store does not answer fails
    backends = "".join(f"  - {{name: m{j}, endpoint: '{dead}/v1/chat/completions'}}\n"
                       for j in range(models))
    (root / "config.yaml").write_text(
        "corpus: {path: corpus.jsonl, format: jsonl}\ntopics: topics.yaml\n"
        f"backends:\n{backends}"
        f"embedding: {{name: emb, endpoint: '{dead}/v1/embeddings'}}\n"
        "cache_dir: cache\noutput_dir: runs\nretries: 0\n")
    cfg = load_config(root / "config.yaml")
    topics = load_topics(cfg.topics_path)
    leaves = topics.leaves()
    with closing(ResponseCache(cfg.cache_dir)) as cache:
        for backend in cfg.backends:
            entries = []
            for item in load_corpus(cfg.corpus_path, cfg.corpus_format):
                prompt = build_prompt(topics, item)
                said = rng.random(len(leaves)) < 0.3
                content = format_response(
                    [(leaf.short_name, bool(yes), list(rng.choice(PHRASES, 2)) if yes else [])
                     for leaf, yes in zip(leaves, said)])
                entries.append((cache.key(backend, prompt), cache.entry(prompt, content)))
            cache.write(entries)
        embedder = Embedder(cfg.embedding, cache, None)
        texts_embedded = ["", *(leaf.description for leaf in leaves), *PHRASES]
        cache.write((embedder._key(truncate_words(text)),
                     rng.normal(size=DIMENSION).astype("<f4").tobytes())
                    for text in texts_embedded)


def child(root: Path, stage: str, run_id: str) -> None:
    """Run one stage under run_id and print a JSON line with the seconds
    inside the pipeline and the peak RSS."""
    import os

    from topicensemble import pipeline
    from topicensemble.config import load_config

    os.chdir(root)
    cfg = load_config(root / "config.yaml")
    start = time.perf_counter()
    pipeline.run(cfg, stage=stage, run_id=run_id)
    seconds = time.perf_counter() - start
    print(json.dumps({"seconds": seconds, "peak_rss_mb":
                      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--texts", type=int, default=2000)
    parser.add_argument("--models", type=int, default=3)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--dir", type=Path, default=None,
                        help="where to write the run (default: a temporary directory)")
    parser.add_argument("--child", choices=STAGES, help=argparse.SUPPRESS)
    parser.add_argument("--run-id", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.child:
        child(args.dir, args.child, args.run_id)
        return 0
    import topicensemble

    compileall.compile_dir(Path(topicensemble.__file__).parent, quiet=1)
    if args.dir:
        args.dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=args.dir) as tmp:
        start = time.perf_counter()
        write_run(Path(tmp), args.texts, args.models)
        size = (Path(tmp) / "cache" / "cache.sqlite").stat().st_size
        print(f"texts={args.texts} models={args.models} cache.sqlite={size / 2**20:.1f} MB "
              f"(filled in {time.perf_counter() - start:.1f} s)")
        results: dict[str, list[dict]] = {name: [] for name in STAGES}
        for repeat in range(args.repeats):
            for name in STAGES:  # score reads what annotate wrote; all writes both again
                run_id = f"all{repeat}" if name == "all" else f"r{repeat}"
                proc, wall = run_child([__file__, "--child", name, "--dir", tmp,
                                        "--run-id", run_id])
                if proc.returncode:
                    print(f"{name}: exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                    return 1
                results[name].append({"wall_s": wall,
                                      **json.loads(proc.stdout.splitlines()[-1])})
    for name, runs in results.items():
        m = {key: statistics.median(r[key] for r in runs) for key in runs[0]}
        print(f"stage {name:<9} wall {m['wall_s']:6.3f} s  in pipeline {m['seconds']:6.3f} s  "
              f"peak_rss {m['peak_rss_mb']:6.1f} MB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
