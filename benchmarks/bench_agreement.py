"""Time the AC1 agreement bootstrap on a large synthetic rating matrix.

Each resample is drawn as multinomial counts over the matrix's distinct rows,
so time grows with resamples x distinct rows, not with the items; the
resamples are drawn a chunk at a time, so memory grows with chunk x distinct
rows. The default, 10^6 items x 1,000 resamples, checks that memory stays bounded
at corpus scale. Peak RSS is the process's high-water mark, printed before
the bootstrap (input generation and the rating matrix) and after it.

    python3 benchmarks/bench_agreement.py [--items 1000000] [--raters 4]
        [--categories 10] [--resamples 1000]
"""
from __future__ import annotations

import argparse
import resource
import time

import numpy as np

from topicensemble.agreement import bootstrap_ci, build_rating_matrix


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--items", type=int, default=1_000_000)
    parser.add_argument("--raters", type=int, default=4)
    parser.add_argument("--categories", type=int, default=10)
    parser.add_argument("--resamples", type=int, default=1000)
    args = parser.parse_args()

    rng = np.random.default_rng(1)
    picks = rng.integers(0, args.categories, size=(args.raters, args.items))
    m = build_rating_matrix(
        {f"r{j}": picks[j] for j in range(args.raters)}, k=args.categories
    )
    del picks
    input_mb = peak_rss_mb()

    start = time.perf_counter()
    lo, hi = bootstrap_ci(["AC1"], m, resamples=args.resamples, seed=0)["AC1"]
    seconds = time.perf_counter() - start
    peak_mb = peak_rss_mb()

    print(f"items={args.items} raters={args.raters} categories={args.categories} "
          f"resamples={args.resamples}")
    print(f"bootstrap_ci {seconds:.3f} s  ci=({lo:.6f}, {hi:.6f})  "
          f"peak_rss {peak_mb:.0f} MB (before the bootstrap: {input_mb:.0f} MB)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
