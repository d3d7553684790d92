"""Time and peak RSS of reading a large corpus: the texts, the ids-and-groups
view, and the config digest.

Writes a synthetic JSONL (or CSV) corpus, 10^6 texts of 40 words each by
default (about 265 MB), then runs each reader in its own child process,
started through pipebench/launch.py, so that each peak RSS is that reader's
alone: `load_corpus` (what annotate
reads), `load_corpus_view` (what every other stage reads) and
`config_digest` (which hashes the corpus file). Each child first imports
topicensemble.pipeline, as a stage does, and prints its RSS after the
imports next to the peak. A missing --dir is created.

    python3 benchmarks/bench_corpus.py [--texts 1000000] [--words 40]
        [--format jsonl] [--dir DIR]
"""
from __future__ import annotations

import argparse
import csv
import json
import random
import resource
import sys
import tempfile
import time
from pathlib import Path

from launched import run_child

READERS = ("load_corpus", "load_corpus_view", "config_digest")
VOCABULARY = ("sleep awake night tired work boss meeting deadline appetite meal "
              "hungry skipped week every hours lately nothing always never today "
              "coworker blamed dismissed ideas stress commute train late early "
              "morning evening weekend friend family home office quiet loud").split()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def write_corpus(path: Path, texts: int, words: int, format: str) -> None:
    rnd = random.Random(1)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n") if format == "csv" else None
        if writer:
            writer.writerow(["id", "text", "group"])
        for i in range(texts):
            record = {"id": f"t{i:07d}", "text": " ".join(rnd.choices(VOCABULARY, k=words)),
                      "group": f"site_{i % 10}"}
            if writer:
                writer.writerow(record.values())
            else:
                fh.write(json.dumps(record) + "\n")


def child(reader: str, path: Path, format: str) -> None:
    """Run one reader on the corpus and print its time and peak RSS."""
    import topicensemble.pipeline  # noqa: F401  (a stage's imports: the RSS it starts from)
    from topicensemble.config import RunConfig, config_digest
    from topicensemble.corpus import load_corpus, load_corpus_view
    from topicensemble.relevancy import EmbeddingBackend

    cfg = RunConfig(corpus_path=path, corpus_format=format,
                    topics_path=path.with_name("topics.yaml"), backends=[],
                    embedding=EmbeddingBackend("emb", "http://127.0.0.1:1"),
                    cache_dir=path.parent, output_dir=path.parent)
    before = peak_rss_mb()
    start = time.perf_counter()
    if reader == "config_digest":
        result = config_digest(cfg)[:12]
    else:
        load = load_corpus if reader == "load_corpus" else load_corpus_view
        result = len(load(path, format))
    seconds = time.perf_counter() - start
    print(f"{reader:<17} {seconds:6.2f} s  peak_rss {peak_rss_mb():7.1f} MB "
          f"(after imports: {before:.1f} MB)  -> {result}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--texts", type=int, default=1_000_000)
    parser.add_argument("--words", type=int, default=40)
    parser.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    parser.add_argument("--dir", type=Path, default=None,
                        help="where to write the corpus (default: a temporary directory)")
    parser.add_argument("--child", choices=READERS, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.child:
        child(args.child, args.dir / f"corpus.{args.format}", args.format)
        return 0
    if args.dir:
        args.dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=args.dir) as tmp:
        path = Path(tmp) / f"corpus.{args.format}"
        write_corpus(path, args.texts, args.words, args.format)
        path.with_name("topics.yaml").write_text(
            "topics:\n  - {short_name: sleep, description: Sleep problems.}\n")
        print(f"texts={args.texts} words={args.words} format={args.format} "
              f"file={path.stat().st_size / 2**20:.1f} MB")
        for reader in READERS:
            proc, _ = run_child([__file__, "--child", reader, "--format", args.format,
                                 "--dir", tmp])
            if proc.returncode:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
