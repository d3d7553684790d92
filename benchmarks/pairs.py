"""Compare two checkouts with alternating pipebench runs, in pairs.

PARENT and CHANGE are checkouts of this repository: the commit before a
change and the change. Both have their `src` compiled to bytecode first
(`python3 -m compileall -q src`), so that no timed run compiles a stale
module in one checkout and not in the other. Pair p (from 1) runs
`pipebench/run.py --trace 0` in each checkout at seed --seed + p - 1, the
parent first on odd pairs and the change first on even ones, so a drift of
the machine's speed favours neither. Each run's result line is printed as it
arrives. Then, for each end-to-end metric of BENCHMARK.json: the medians of
both sides, the quartiles of the parent's runs, and the pairs in which the
change was better, in the direction BENCHMARK.json gives. Exits 1 if a run
was not correct or had failed operations.

    python3 benchmarks/pairs.py PARENT CHANGE --workload W [--pairs 10]
        [--seconds 5] [--seed 1]
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def compile_sources(checkout: Path) -> None:
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=checkout, check=True)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one untraced pipebench run in checkout; a run that
    prints none is not correct."""
    proc = subprocess.run([sys.executable, "pipebench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, stdout=subprocess.PIPE, text=True)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs: list[tuple[dict, dict]], end_to_end: list[dict]) -> tuple[list[str], bool]:
    """Summary lines of (parent, change) result pairs, one per end-to-end
    metric that every run reports, and whether every run was correct with no
    failed operation."""
    runs = [run for pair in pairs for run in pair]
    ok = all(run.get("correct") and not run.get("failed") for run in runs)
    lines = []
    for metric in end_to_end:
        name = metric["name"]
        if not all(name in run.get("metrics", {}) for run in runs):
            continue
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        higher = metric["better"] == "higher"
        won = sum(c > p if higher else c < p for p, c in zip(parent, change))
        q1, q3 = _quartiles(parent)
        lines.append(f"{name} ({metric['unit']}, {metric['better']} is better): median "
                     f"{statistics.median(parent):.4g} -> {statistics.median(change):.4g}, "
                     f"parent quartiles {q1:.4g}..{q3:.4g}, change better in {won} "
                     f"of {len(pairs)} pairs")
    return lines, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for checkout in (args.parent, args.change):
        if not (checkout / "pipebench" / "run.py").is_file():
            parser.error(f"{checkout} holds no pipebench/run.py")
    end_to_end = json.loads(BENCHMARK.read_text())["end_to_end"]
    for checkout in (args.parent, args.change):
        compile_sources(checkout)
    pairs = []
    for p in range(1, args.pairs + 1):
        seed = args.seed + p - 1
        sides = ["parent", "change"] if p % 2 else ["change", "parent"]
        results = {}
        for side in sides:
            results[side] = run_once(getattr(args, side), args.workload, seed, args.seconds)
            print(f"pair {p} {side} seed {seed}: {json.dumps(results[side])}", flush=True)
        pairs.append((results["parent"], results["change"]))
    lines, ok = summarize(pairs, end_to_end)
    print("\n".join(lines))
    if not ok:
        print("pairs: a run was not correct or had failed operations", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
