"""Pipeline benchmark: seeded workloads through the real topicensemble CLI.

    python3 pipebench/run.py --workload label_cold --seed 1 --seconds 5 --trace 0

Run from the repository root: the program is taken from ./src. Each round
sets up a fresh workload (inputs from --seed, a backend stand-in in its own
process, and any set-up run), then makes the workload's timed repetitions,
each CLI invocation in a fresh interpreter, and checks every output against
the generator and the oracles. Rounds repeat until --seconds of timed
invocations have passed; one round is always made. The last line of stdout
is a JSON object with "correct", "attempted" and "failed" (timed CLI
invocations) and "metrics": the end-to-end metrics with --trace 0, or with
--trace 1 the per-layer metrics of the same invocations made under
tracer.py. Values are medians over repetitions. Scratch files live under
./.pipebench-work and are removed at exit.
"""
from __future__ import annotations

import argparse
import http.client
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import synth  # noqa: E402


@dataclass(frozen=True)
class Workload:
    texts: int    # corpus size
    setups: int   # set-ups per round; setup_s is their median
    reps: int     # timed repetitions per set-up


WORKLOADS = {
    "label_cold": Workload(texts=2000, setups=5, reps=1),
    "rerun_warm": Workload(texts=2000, setups=1, reps=3),
    "analyze_large": Workload(texts=10000, setups=3, reps=1),
}
END_TO_END = {"setup_s": "s", "texts_per_s": "1/s", "cpu_s": "s",
              "peak_rss_mb": "MB", "disk_mb": "MB"}
PER_LAYER = layers.PER_LAYER
RUN_ID = "bench"


class StandIn:
    """The backend stand-in process, serving one workload's spec."""

    def __init__(self, spec_path: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "standin.py"), str(spec_path)],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline().decode() if ready else ""
        if not line.startswith("port "):
            self.stop()
            raise checks.CheckFailed("backend stand-in did not start")
        self.port = int(line.split()[1])

    def get(self, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Invocation:
    """One CLI process, started through launch.py so that its peak RSS is
    its own and not run.py's (see launch.py): wall time, CPU and peak RSS."""

    def __init__(self, root: Path, cwd: Path, args: list[str], trace_to: Path | None):
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        if trace_to is None:
            cmd = [sys.executable, "-m", "topicensemble.cli", *args]
        else:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(trace_to), *args]
        log = cwd / "cli.log"
        usage_to = cwd / f"usage-{time.monotonic_ns()}.json"
        with open(log, "ab") as err:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "launch.py"), str(usage_to), *cmd],
                cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err)
            try:
                proc.wait()
            except BaseException:
                proc.terminate()  # the launcher stops and reaps the CLI first
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
                raise
        # no result file: the launcher itself failed, and so did the invocation
        usage = (json.loads(usage_to.read_text()) if usage_to.exists() else
                 {"code": proc.returncode or 1, "wall": 0.0, "cpu": 0.0,
                  "rss_mb": 0.0, "launcher_mb": 0.0})
        self.code, self.wall, self.cpu = usage["code"], usage["wall"], usage["cpu"]
        self.rss_mb = usage["rss_mb"]
        if not self.code and self.rss_mb <= usage["launcher_mb"]:
            print(f"pipebench: peak RSS {self.rss_mb:.1f} MB is no more than the "
                  f"launcher's {usage['launcher_mb']:.1f} MB, so it is the "
                  "launcher's, not the program's", file=sys.stderr)
        self.trace = (json.loads(trace_to.read_text())
                      if trace_to is not None and trace_to.exists() else None)
        self.describe = f"run {' '.join(args[1:])} exited {self.code}"
        if self.code:
            self.describe += ":\n" + log.read_text(errors="replace")[-2000:]


@dataclass
class Rep:
    """One timed repetition: its invocations, run tree and stand-in counters."""

    run_dir: Path
    invocations: list[Invocation] = field(default_factory=list)
    stats: dict = field(default_factory=dict)


class Round:
    """One fresh set-up plus its timed repetitions."""

    def __init__(self, work: Path, index: int):
        self.dir = work / f"round{index}"
        self.standin: StandIn | None = None
        self.setup_times: list[float] = []
        self.lab: synth.Labeling | None = None
        self.an: synth.Analysis | None = None
        self.cold_stats: dict = {}

    def close(self) -> None:
        if self.standin is not None:
            self.standin.stop()
            self.standin = None


class Bench:
    def __init__(self, root: Path, args):
        self.root = root
        self.workload = args.workload
        self.seed = args.seed
        self.trace = bool(args.trace)
        spec = WORKLOADS[args.workload]
        self.texts = args.texts or spec.texts
        self.setups, self.reps = spec.setups, spec.reps
        self.work = root / ".pipebench-work" / f"{args.workload}-{os.getpid()}"
        self.attempted = self.failed = 0

    def cli(self, rnd: Round, cfg: str, stage: str, traced: bool = False) -> Invocation:
        trace_to = rnd.dir / f"trace-{time.monotonic_ns()}.json" if traced else None
        return Invocation(self.root, rnd.dir,
                          ["run", "--config", cfg, "--stage", stage, "--run-id", RUN_ID],
                          trace_to)

    # ------------------------------------------------------------ set-up

    def setup(self, rnd: Round) -> None:
        """Make the round's inputs and stand-in (several times where that is
        cheap, so setup_s is a median), leaving the last set-up in place."""
        for _ in range(self.setups):
            rnd.close()
            shutil.rmtree(rnd.dir, ignore_errors=True)
            rnd.dir.mkdir(parents=True)
            start = time.perf_counter()
            if self.workload == "analyze_large":
                self._setup_analysis(rnd)
            else:
                self._setup_labeling(rnd)
            rnd.setup_times.append(time.perf_counter() - start)
        # write back what set-up left dirty, so the timed part does not pay for it
        os.sync()
        if self.workload == "rerun_warm":
            self.check_labeling(rnd, rnd.dir / "out_cold" / RUN_ID, rnd.cold_stats)

    def _setup_labeling(self, rnd: Round) -> None:
        lab = rnd.lab = synth.make_labeling(self.seed, self.texts)
        synth.write_corpus(lab.texts, rnd.dir / "corpus.jsonl")
        synth.write_topics(rnd.dir / "topics.yaml")
        synth.write_gold(synth.labeling_gold(lab), rnd.dir / "gold.csv")
        spec = rnd.dir / "standin.json"
        spec.write_text(json.dumps(synth.standin_spec(lab)))
        rnd.standin = StandIn(spec)
        synth.write_config(rnd.dir / "cold.yaml", rnd.standin.port, lab.models, "out_cold")
        for k in range(self.reps):
            synth.write_config(rnd.dir / f"warm{k}.yaml", rnd.standin.port, lab.models,
                               f"out_warm{k}")
        if self.workload == "rerun_warm":
            cold = self.cli(rnd, "cold.yaml", "all")
            checks.expect(cold.code == 0, f"set-up cold {cold.describe}")
            rnd.cold_stats = rnd.standin.get("/stats")

    def _setup_analysis(self, rnd: Round) -> None:
        an = rnd.an = synth.make_analysis(self.seed, self.texts)
        synth.write_corpus(an.texts, rnd.dir / "corpus.jsonl")
        synth.write_topics(rnd.dir / "topics.yaml")
        synth.write_gold(an.gold, rnd.dir / "gold.csv")
        spec = rnd.dir / "standin.json"
        spec.write_text(json.dumps(synth.standin_spec(None)))
        rnd.standin = StandIn(spec)
        synth.write_config(rnd.dir / "cold.yaml", rnd.standin.port, an.models,
                           "out_cold", subset_ensembles=True)
        synth.write_aggregated(rnd.dir / "out_cold" / RUN_ID, RUN_ID,
                                self._digest(rnd.dir / "cold.yaml"), an)

    def _digest(self, cfg_path: Path) -> str:
        src = str(self.root / "src")
        if src not in sys.path:
            sys.path.insert(0, src)
        from topicensemble.config import config_digest, load_config
        return config_digest(load_config(cfg_path))

    # ------------------------------------------------------------- timed

    def measure(self, rnd: Round, k: int) -> Rep:
        """Make timed repetition k of the round and check its outputs."""
        rnd.standin.get("/reset")
        if self.workload == "analyze_large":
            stages, cfg, out = ("agree", "ensemble", "evaluate"), "cold.yaml", "out_cold"
        elif self.workload == "label_cold":
            stages, cfg, out = ("all",), "cold.yaml", "out_cold"
        else:
            stages, cfg, out = ("all",), f"warm{k}.yaml", f"out_warm{k}"
        rep = Rep(rnd.dir / out / RUN_ID)
        for stage in stages:
            inv = self.cli(rnd, cfg, stage, traced=self.trace)
            self.attempted += 1
            self.failed += inv.code != 0
            checks.expect(inv.code == 0, inv.describe)
            rep.invocations.append(inv)
        rep.stats = rnd.standin.get("/stats")
        self.check(rnd, rep)
        return rep

    def check(self, rnd: Round, rep: Rep) -> None:
        expect, stats = checks.expect, rep.stats
        if self.workload == "label_cold":
            self.check_labeling(rnd, rep.run_dir, stats)
            return
        expect(stats["chat_requests"] + stats["embed_requests"]
               + stats["other_requests"] == 0,
               f"{self.workload} made backend requests: {stats}")
        if self.workload == "rerun_warm":
            expect(checks.tree_bytes(rnd.dir / "out_cold" / RUN_ID)
                   == checks.tree_bytes(rep.run_dir),
                   f"{rep.run_dir} differs from the set-up's cold run tree")
            return
        an = rnd.an
        labels, scores = checks.analysis_vectors(an)
        excluded = checks.check_analysis(rep.run_dir, an.texts, an.models, labels,
                                         scores, an.gold, subsets=True)
        expect(excluded == ["m_noisy"], f"outlier scan excluded {excluded}")

    def check_labeling(self, rnd: Round, run_dir: Path, stats: dict) -> None:
        lab = rnd.lab
        labels, scores = checks.check_labeling(run_dir, lab)
        checks.check_analysis(run_dir, lab.texts, lab.models, labels, scores,
                              synth.labeling_gold(lab), subsets=False)
        want = len(lab.models) * len(lab.texts) + len(lab.planted)
        checks.expect(stats["chat_requests"] == want and stats["errors"] == 0,
                      f"cold run made {stats['chat_requests']} chat requests "
                      f"({stats['errors']} unanswerable), expected {want}")

    # ----------------------------------------------------------- metrics

    def metrics(self, rnd: Round, rep: Rep) -> dict[str, float]:
        wall = sum(inv.wall for inv in rep.invocations)
        if self.trace:
            return layers.per_layer([inv.trace for inv in rep.invocations], rep.stats,
                                    rep.run_dir, rnd.dir / "cache", wall)
        return {"texts_per_s": self.texts / wall,
                "cpu_s": sum(inv.cpu for inv in rep.invocations),
                "peak_rss_mb": max(inv.rss_mb for inv in rep.invocations),
                "disk_mb": layers.allocated(rnd.dir / "cache", rep.run_dir)[0]}

    # --------------------------------------------------------------- run

    def run(self, seconds: float) -> dict:
        samples: list[dict] = []
        setup_times: list[float] = []
        correct = True
        measured = 0.0
        index = 0
        while correct and (index == 0 or measured < seconds):
            rnd = Round(self.work, index)
            index += 1
            try:
                self.setup(rnd)
                setup_times.extend(rnd.setup_times)
                for k in range(self.reps):
                    rep = self.measure(rnd, k)
                    samples.append(self.metrics(rnd, rep))
                    measured += sum(inv.wall for inv in rep.invocations)
            except checks.CheckFailed as exc:
                print(f"pipebench: check failed: {exc}", file=sys.stderr)
                correct = False
            except Exception:  # an artifact too malformed to check is a failed check
                traceback.print_exc()
                correct = False
            finally:
                rnd.close()
                shutil.rmtree(rnd.dir, ignore_errors=True)
        units = PER_LAYER if self.trace else END_TO_END
        metrics = {}
        if samples:
            if not self.trace:
                for sample in samples:
                    sample["setup_s"] = statistics.median(setup_times)
            metrics = {name: {"value": statistics.median(s[name] for s in samples),
                              "unit": unit} for name, unit in units.items()}
        if not self.attempted:
            # set-up failed before any timed invocation: count it as one
            # attempted operation that failed
            self.attempted = self.failed = 1
        return {"correct": correct and bool(samples),
                "attempted": self.attempted, "failed": self.failed,
                "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--texts", type=int, default=0,
                        help="corpus size override (for smoke tests)")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "topicensemble" / "cli.py").is_file():
        print("pipebench: no topicensemble sources under ./src; run from the "
              "repository root", file=sys.stderr)
        return 2
    bench = Bench(root, args)
    # on SIGTERM, unwind so the stand-in and any CLI child are stopped and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        result = bench.run(args.seconds)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            bench.work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
