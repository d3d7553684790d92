"""Run the topicensemble CLI with spans around each layer's public functions.

    python3 pipebench/tracer.py SPANS.json run --config CFG --stage all ...

Everything after SPANS.json is passed to ``topicensemble.cli.main``. Each
wrapped function records a span (name, start, end, parent, thread) on the
monotonic clock; functions are patched where their caller looks the name
up, so no file of the program changes. Spans stay in memory and are written
to SPANS.json when the CLI returns, together with a few counters and the
process peak RSS sampled as the agree stage ends. A name that no longer
exists is skipped and listed under "missing"; that costs a per-layer number
and nothing else.
"""
from __future__ import annotations

import functools
import itertools
import json
import resource
import sys
import threading
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None, int]] = []
        self.counts: Counter = Counter()
        self.values: dict[str, float] = {}
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, fn, name: str, classify=None, on_exit=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                tracer.spans.append(
                    (span_id, name, start, end, parent, threading.get_ident()))
                if on_exit is not None:
                    on_exit()
            if classify is not None:
                key = classify(result)
                with tracer._lock:
                    tracer.counts[key] += 1
            return result

        return traced

    def patch(self, owner, attr: str, name: str, **kw) -> None:
        target = owner.__dict__ if isinstance(owner, type) else vars(owner)
        if attr not in target:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, **kw))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts),
                       "values": self.values, "missing": self.missing}, fh)


def install(tracer: Tracer) -> None:
    from topicensemble import (agreement, annotator, ensemble, evaluation, pipeline,
                               relevancy)

    def peak_rss():
        tracer.values["agree_peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    # run() dispatches stages through this dict, so the dict is where they
    # are wrapped; patching the stage_* names would record nothing
    stage_fns = getattr(pipeline, "_STAGE_FN", None)
    for stage in ("annotate", "score", "agree", "ensemble", "evaluate"):
        kw = {"on_exit": peak_rss} if stage == "agree" else {}
        if isinstance(stage_fns, dict) and stage in stage_fns:
            stage_fns[stage] = tracer.wrap(stage_fns[stage], f"pipeline.{stage}", **kw)
        else:
            tracer.missing.append(f"pipeline._STAGE_FN[{stage!r}]")

    tracer.patch(pipeline, "load_corpus", "corpus.load_corpus")
    tracer.patch(pipeline, "annotate_corpus", "annotator.annotate_corpus")
    tracer.patch(annotator, "query_backend", "annotator.query_backend")
    tracer.patch(annotator, "build_prompt", "annotator.build_prompt")
    tracer.patch(annotator, "parse_response", "annotator.parse_response")
    tracer.patch(annotator.ResponseCache, "get", "annotator.cache_get",
                 classify=lambda hit: "cache_hits" if hit is not None else "cache_misses")
    tracer.patch(annotator.ResponseCache, "put", "annotator.cache_put")
    tracer.patch(relevancy.Embedder, "embed_many", "relevancy.embed_many")
    tracer.patch(pipeline, "relevancy_score", "relevancy.relevancy_score")
    for attr in ("build_rating_matrix", "gwet_ac1", "fleiss_kappa", "bootstrap_ci",
                 "detect_outliers"):
        tracer.patch(agreement, attr, f"agreement.{attr}")
    for owner in (pipeline, evaluation):
        tracer.patch(owner, "ensemble_topic", "ensemble.ensemble_topic")
    tracer.patch(ensemble, "pca_first_component", "ensemble.pca_first_component")
    for owner in (ensemble, pipeline):
        tracer.patch(owner, "optimal_threshold", "ensemble.optimal_threshold")
    for attr in ("compare_raters", "group_summary", "subset_ensemble_candidates"):
        tracer.patch(pipeline, attr, f"evaluation.{attr}")


def main(argv: list[str]) -> int:
    out, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from topicensemble import cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
