"""Time the agree stage's agreement chain on synthetic labels and scores.

For each topic the chain builds two rating matrices from every model's
labels and relevancy scores, as `run --stage agree` does: the labels
(k = 2) and the binned scores (k = 10). For each it computes the AC1 and
Fleiss point estimates and their bootstrap CIs from one set of resamples.
Then it runs the leave-one-out outlier scan over the labels pooled across
topics. The default, 10^6 texts x 4 models x 2 topics x 1,000 resamples,
checks that memory stays bounded at corpus scale. Peak RSS is the process's
high-water mark, printed once the inputs are made and again after the chain;
the difference is what the chain adds.

    python3 benchmarks/bench_agreement.py [--items 1000000] [--models 4]
        [--topics 2] [--resamples 1000]
"""
from __future__ import annotations

import argparse
import resource
import time

import numpy as np

from topicensemble.agreement import (
    bin_scores,
    bootstrap_ci,
    build_rating_matrix,
    detect_outliers,
    fleiss_kappa,
    gwet_ac1,
)
from topicensemble.errors import DegenerateChance


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def synthetic(rng, items: int, models: int, topics: int) -> tuple[list, list]:
    """Per topic, {model: labels} and {model: scores}: each model flips 10% of
    a shared truth, and its scores sit 0.6 higher where it says yes."""
    labels, scores = [], []
    for _ in range(topics):
        truth = rng.random(items) < 0.3
        labels.append({f"m{j}": truth ^ (rng.random(items) < 0.1) for j in range(models)})
        scores.append({})
        for name, said in labels[-1].items():
            score = rng.random(items)
            score *= 0.4
            np.add(score, 0.6, out=score, where=said)
            scores[-1][name] = score
    return labels, scores


def agree_chain(labels: list, scores: list, resamples: int) -> tuple[list, object]:
    """(per topic and target, the coefficients and CIs; the outlier report)."""
    rows = []
    for topic_labels, topic_scores in zip(labels, scores):
        # one target's rating columns at a time, as the agree stage builds them
        for vectors, rate, k in ((topic_labels, lambda v: (~v).astype(np.int8), 2),
                                 (topic_scores, bin_scores, 10)):
            matrix = build_rating_matrix({m: rate(v) for m, v in vectors.items()}, k=k)
            coefs = {}
            for kind, fn in (("AC1", gwet_ac1), ("Fleiss", fleiss_kappa)):
                try:
                    coefs[kind] = fn(matrix).coefficient
                except DegenerateChance:
                    pass
            cis = bootstrap_ci(list(coefs), matrix, resamples=resamples, seed=0)
            rows.append((k, coefs, cis))
    pooled = {m: np.concatenate([topic[m] for topic in labels]) for m in labels[0]}
    return rows, detect_outliers(pooled)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--items", type=int, default=1_000_000)
    parser.add_argument("--models", type=int, default=4)
    parser.add_argument("--topics", type=int, default=2)
    parser.add_argument("--resamples", type=int, default=1000)
    args = parser.parse_args()

    labels, scores = synthetic(np.random.default_rng(1), args.items, args.models, args.topics)
    input_mb = peak_rss_mb()

    start = time.perf_counter()
    rows, report = agree_chain(labels, scores, args.resamples)
    seconds = time.perf_counter() - start
    peak_mb = peak_rss_mb()

    print(f"items={args.items} models={args.models} topics={args.topics} "
          f"resamples={args.resamples}")
    for k, coefs, cis in rows[:2]:
        print(f"first topic, k={k}: " + "  ".join(
            f"{kind} {coefs[kind]:.6f} ci={cis[kind]}" for kind in coefs))
    print(f"outliers: base_ac1={report.base_ac1:.6f} excluded={report.excluded}")
    print(f"agree chain {seconds:.3f} s  peak_rss {peak_mb:.0f} MB (after the inputs: "
          f"{input_mb:.0f} MB, so the chain added {peak_mb - input_mb:.0f} MB)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
