"""Command-line entry point.

Exit codes: 0 success, 2 config error, 3 missing or stale upstream artifact,
4 backend failure (unreachable backend or failure budget exceeded),
1 anything else.
"""
from __future__ import annotations

import argparse
import logging
import sys

from .config import load_config, validate_config
from .errors import (
    BackendUnavailable,
    BadStatus,
    ConfigInvalid,
    FailureBudgetExceeded,
    MissingUpstreamArtifact,
    TopicEnsembleError,
)
from .pipeline import STAGES, export_triage, run

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UPSTREAM = 3
EXIT_BACKEND = 4


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topicensemble",
        description="Label curated topics in a text corpus with an ensemble "
        "of locally deployed language models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the pipeline (or one stage)")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--stage", default="all", choices=("all",) + STAGES)
    run_p.add_argument("--run-id", default=None,
                       help="override the digest+timestamp run id")

    val_p = sub.add_parser("validate-config", help="parse and check a config")
    val_p.add_argument("--config", required=True)

    tri_p = sub.add_parser("export-triage",
                           help="write the ranked human-review file for a run")
    tri_p.add_argument("--config", required=True)
    tri_p.add_argument("--run-id", required=True)
    tri_p.add_argument("--top", type=_positive_int, default=20,
                       help="entries per topic and direction")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        problems = validate_config(cfg)
    except ConfigInvalid as exc:
        problems = exc.problems
    for problem in problems:
        print(f"config error: {problem}", file=sys.stderr)
    if problems:
        return EXIT_CONFIG
    if args.command == "validate-config":
        print("config OK")
        return EXIT_OK

    try:
        if args.command == "run":
            run_dir = run(cfg, stage=args.stage, run_id=args.run_id)
            print(f"run complete: {run_dir}")
        elif args.command == "export-triage":
            path = export_triage(cfg, run_id=args.run_id, top_n=args.top)
            print(f"triage written: {path}")
    except MissingUpstreamArtifact as exc:
        print(f"missing or stale upstream artifact: {exc}", file=sys.stderr)
        return EXIT_UPSTREAM
    except (BackendUnavailable, BadStatus, FailureBudgetExceeded) as exc:
        print(f"backend failure: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except TopicEnsembleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
