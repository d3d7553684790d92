"""Per-layer metrics from tracer.py spans and the stand-in's counters.

A layer's time is the summed duration of its spans; a stage's self time is
its span minus the part of it that its child spans cover.
"""
from __future__ import annotations

import sys
from pathlib import Path

STAGES = ("annotate", "score", "agree", "ensemble", "evaluate")
MB = 1024.0 * 1024.0

PER_LAYER = {
    **{f"pipeline.{stage}_s": "s" for stage in STAGES},
    **{f"pipeline.{stage}_self_s": "s" for stage in STAGES},
    "pipeline.artifact_mb": "MB",
    "corpus.load_calls": "count", "corpus.load_s": "s",
    "annotator.chat_requests": "count", "annotator.query_calls": "count",
    "annotator.query_busy_s": "s", "annotator.backend_inflight_mean": "requests",
    "annotator.cache_hits": "count", "annotator.cache_misses": "count",
    "annotator.cache_get_s": "s", "annotator.cache_put_s": "s",
    "annotator.prompt_s": "s", "annotator.parse_calls": "count",
    "annotator.parse_s": "s",
    "relevancy.embed_requests": "count", "relevancy.embed_inputs": "count",
    "relevancy.embed_inputs_distinct": "count",
    "relevancy.embed_many_calls": "count", "relevancy.embed_many_s": "s",
    "relevancy.score_calls": "count", "relevancy.score_s": "s",
    "cache.files": "count", "cache.mb": "MB",
    "agreement.bootstrap_calls": "count", "agreement.bootstrap_s": "s",
    "agreement.peak_rss_mb": "MB", "agreement.rating_matrix_s": "s",
    "agreement.coefficient_s": "s", "agreement.outliers_s": "s",
    "ensemble.topic_calls": "count", "ensemble.pca_s": "s",
    "ensemble.threshold_s": "s",
    "evaluation.compare_s": "s", "evaluation.subsets_s": "s",
    "evaluation.groups_s": "s",
    "trace.wall_s": "s",
}


def allocated(*roots: Path) -> tuple[float, int]:
    """(MB allocated on disk by block count, file count) under the roots."""
    blocks = files = 0
    for root in roots:
        if root.exists():
            for p in root.rglob("*"):
                blocks += p.lstat().st_blocks
                files += p.is_file()
    return blocks * 512 / MB, files


def covered(lo: float, hi: float, intervals, union: bool = True) -> float:
    """Time within [lo, hi] covered by the (start, end) intervals; with
    union=False overlapping intervals each count in full."""
    pieces = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    pieces = [(a, b) for a, b in pieces if b > a]
    if not union:
        return sum(b - a for a, b in pieces)
    total, end = 0.0, lo
    for a, b in pieces:
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def per_layer(traces: list[dict], stats: dict, run_dir: Path, cache_dir: Path,
              wall: float) -> dict[str, float]:
    """Every PER_LAYER metric of one timed repetition.

    traces: one tracer.py dump per CLI invocation; stats: the stand-in's
    counters over the repetition; wall: the traced invocations' wall time.
    """
    by_name: dict[str, list] = {}
    children: dict[int, list] = {}
    counts: dict[str, int] = {}
    rss = 0.0
    for trace in traces:
        for span in trace["spans"]:
            by_name.setdefault(span[1], []).append(span)
            if span[4] is not None:
                children.setdefault(span[4], []).append(span)
        for key, value in trace["counts"].items():
            counts[key] = counts.get(key, 0) + value
        rss = max(rss, trace["values"].get("agree_peak_rss_mb", 0.0))
        for name in trace["missing"]:
            print(f"pipebench: traced name missing: {name}", file=sys.stderr)

    def total(name):
        return sum(s[3] - s[2] for s in by_name.get(name, []))

    def calls(name):
        return len(by_name.get(name, []))

    def self_time(name):
        return sum(s[3] - s[2] - covered(s[2], s[3], [(c[2], c[3]) for c in
                                                      children.get(s[0], [])])
                   for s in by_name.get(name, []))

    out = {}
    for stage in STAGES:
        out[f"pipeline.{stage}_s"] = total(f"pipeline.{stage}")
        out[f"pipeline.{stage}_self_s"] = self_time(f"pipeline.{stage}")
    out["pipeline.artifact_mb"] = allocated(run_dir)[0]
    out["corpus.load_calls"] = calls("corpus.load_corpus")
    out["corpus.load_s"] = total("corpus.load_corpus")
    windows = [(s[2], s[3]) for s in by_name.get("pipeline.annotate", [])]
    busy = sum(covered(a, b, stats["chat_intervals"], union=False) for a, b in windows)
    window = sum(b - a for a, b in windows)
    out["annotator.chat_requests"] = stats["chat_requests"]
    out["annotator.query_calls"] = calls("annotator.query_backend")
    out["annotator.query_busy_s"] = total("annotator.query_backend")
    out["annotator.backend_inflight_mean"] = busy / window if window else 0.0
    out["annotator.cache_hits"] = counts.get("cache_hits", 0)
    out["annotator.cache_misses"] = counts.get("cache_misses", 0)
    out["annotator.cache_get_s"] = total("annotator.cache_get")
    out["annotator.cache_put_s"] = total("annotator.cache_put")
    out["annotator.prompt_s"] = total("annotator.build_prompt")
    out["annotator.parse_calls"] = calls("annotator.parse_response")
    out["annotator.parse_s"] = total("annotator.parse_response")
    out["relevancy.embed_requests"] = stats["embed_requests"]
    out["relevancy.embed_inputs"] = stats["embed_inputs"]
    out["relevancy.embed_inputs_distinct"] = stats["embed_inputs_distinct"]
    out["relevancy.embed_many_calls"] = calls("relevancy.embed_many")
    out["relevancy.embed_many_s"] = total("relevancy.embed_many")
    out["relevancy.score_calls"] = calls("relevancy.relevancy_score")
    out["relevancy.score_s"] = total("relevancy.relevancy_score")
    out["cache.mb"], out["cache.files"] = allocated(cache_dir)
    out["agreement.bootstrap_calls"] = calls("agreement.bootstrap_ci")
    out["agreement.bootstrap_s"] = total("agreement.bootstrap_ci")
    out["agreement.peak_rss_mb"] = rss
    out["agreement.rating_matrix_s"] = total("agreement.build_rating_matrix")
    out["agreement.coefficient_s"] = (total("agreement.gwet_ac1")
                                      + total("agreement.fleiss_kappa"))
    out["agreement.outliers_s"] = total("agreement.detect_outliers")
    out["ensemble.topic_calls"] = calls("ensemble.ensemble_topic")
    out["ensemble.pca_s"] = total("ensemble.pca_first_component")
    out["ensemble.threshold_s"] = total("ensemble.optimal_threshold")
    out["evaluation.compare_s"] = total("evaluation.compare_raters")
    out["evaluation.subsets_s"] = total("evaluation.subset_ensemble_candidates")
    out["evaluation.groups_s"] = total("evaluation.group_summary")
    out["trace.wall_s"] = wall
    return out
