"""Time the analysis stages (agree, ensemble, evaluate) on a written score stage.

Writes an analysis run: a corpus of --texts texts in 20 groups, --topics
top-level topics, gold labels for every text, and score/aggregated.jsonl for
--models models as the score stage writes it (10^5 texts x 4 models x 2
topics by default, about 75 MB). Then times the stages in child processes,
each a fresh interpreter started through pipebench/launch.py so that its
peak RSS is its own: every stage alone, as `run --stage X` runs it, and
the three together in one `run`, as `run --stage all` runs them after score.
Prints, for each, the median over --repeats of the child's time inside the
pipeline (imports excluded) and its peak RSS. A missing --dir is created.

    PYTHONPATH=src python3 benchmarks/bench_handoff.py [--texts 100000]
        [--models 4] [--topics 2] [--repeats 3] [--dir DIR]
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from launched import run_child

STAGES = ("agree", "ensemble", "evaluate")
RUN_ID = "bench"


def write_run(root: Path, texts: int, models: int, topics: int) -> None:
    """Inputs, config and score/aggregated.jsonl of one analysis run under root."""
    from topicensemble import pipeline
    from topicensemble.config import config_digest, load_config

    rng = np.random.default_rng(1)
    ids = [f"t{i:07d}" for i in range(texts)]
    names = [f"topic{k}" for k in range(topics)]
    models = [f"m{j}" for j in range(models)]
    with open(root / "corpus.jsonl", "w", encoding="utf-8") as fh:
        fh.writelines(f'{{"id": "{text_id}", "text": "A note.", "group": "g{i % 20}"}}\n'
                      for i, text_id in enumerate(ids))
    (root / "topics.yaml").write_text("".join(
        f"- {{short_name: {name}, description: Topic {name}.}}\n" for name in names))
    truth = rng.random((topics, texts)) < 0.3
    with open(root / "gold.csv", "w", encoding="utf-8") as fh:
        fh.write("text_id,topic,label\n")
        for name, said in zip(names, truth.tolist()):
            fh.writelines(f"{text_id},{name},{int(s)}\n" for text_id, s in zip(ids, said))
    backends = "".join(f"  - {{name: {m}, endpoint: 'http://127.0.0.1:1/v1/chat'}}\n"
                       for m in models)
    (root / "config.yaml").write_text(
        "corpus: {path: corpus.jsonl, format: jsonl}\ntopics: topics.yaml\n"
        f"backends:\n{backends}"
        "embedding: {name: emb, endpoint: 'http://127.0.0.1:1/v1/emb'}\n"
        "cache_dir: cache\noutput_dir: runs\ngold_labels: gold.csv\n")
    # model j flips a share of the truth (5% for the first, more for the rest)
    # and scores 0 where it says no, as the score stage aggregates
    flips = np.linspace(0.05, 0.2, len(models))[:, None]
    labels = truth[:, None, :] ^ (rng.random((topics, len(models), texts)) < flips)
    scores = np.where(labels, np.clip(rng.normal(0.5, 0.2, labels.shape), 0.0, 1.0), 0.0)

    def lines():  # the score stage's formatter and order: model, then text, then topic
        for j, model in enumerate(models):
            yield from pipeline._aggregated_lines(model, ids, names,
                                                  list(zip(labels[:, j], scores[:, j])))

    digest = config_digest(load_config(root / "config.yaml"))
    pipeline._write_jsonl(root / "runs" / RUN_ID / "score" / "aggregated.jsonl",
                          "aggregated", digest, lines())


def child(root: Path, stage: str) -> None:
    """Run one stage, or all three in one `run` when stage is "together", and
    print a JSON line with the seconds inside the pipeline and the peak RSS."""
    import os

    from topicensemble import pipeline
    from topicensemble.config import config_digest, load_config

    os.chdir(root)
    cfg = load_config(root / "config.yaml")
    start = time.perf_counter()
    if stage == "together":
        # run's loop over the stages after score: one load_inputs, one run
        inputs = pipeline.load_inputs(cfg, gold=True)
        digest = config_digest(cfg)
        for name in STAGES:
            pipeline._STAGE_FN[name](cfg, inputs, root / "runs" / RUN_ID, digest)
    else:
        pipeline.run(cfg, stage=stage, run_id=RUN_ID)
    seconds = time.perf_counter() - start
    print(json.dumps({"seconds": seconds, "peak_rss_mb":
                      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--texts", type=int, default=100_000)
    parser.add_argument("--models", type=int, default=4)
    parser.add_argument("--topics", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--dir", type=Path, default=None,
                        help="where to write the run (default: a temporary directory)")
    parser.add_argument("--child", choices=(*STAGES, "together"), help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.child:
        child(args.dir, args.child)
        return 0
    if args.dir:
        args.dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=args.dir) as tmp:
        start = time.perf_counter()
        write_run(Path(tmp), args.texts, args.models, args.topics)
        size = (Path(tmp) / "runs" / RUN_ID / "score" / "aggregated.jsonl").stat().st_size
        print(f"texts={args.texts} models={args.models} topics={args.topics} "
              f"aggregated.jsonl={size / 2**20:.1f} MB (written in "
              f"{time.perf_counter() - start:.1f} s)")
        results: dict[str, list[dict]] = {name: [] for name in (*STAGES, "together")}
        for _ in range(args.repeats):
            for name in results:
                proc, _ = run_child([__file__, "--child", name, "--dir", tmp])
                if proc.returncode:
                    print(f"{name}: exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                    return 1
                results[name].append(json.loads(proc.stdout.splitlines()[-1]))
    median = {name: {key: statistics.median(r[key] for r in runs) for key in runs[0]}
              for name, runs in results.items()}
    for name, m in median.items():
        print(f"{name:<9} {m['seconds']:7.3f} s  peak_rss {m['peak_rss_mb']:6.1f} MB")
    alone = sum(median[name]["seconds"] for name in STAGES)
    print(f"alone, summed {alone:.3f} s; together {median['together']['seconds']:.3f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
