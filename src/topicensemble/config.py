"""Run configuration: YAML loading, validation and the config digest.

Relative paths resolve against the config file's directory. Secrets are
never inline; backends name an environment variable holding their bearer
token. The digest covers the semantic identity of a run (input file
contents, backend identities and decoding, thresholds, seeds) and excludes
workstation concerns (cache/output paths, parallelism, timeouts), so the
same experiment hashes identically wherever it runs.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import yaml

from .annotator import Decoding, ModelBackend
from .errors import ConfigInvalid
from .relevancy import EmbeddingBackend


@dataclass
class RunConfig:
    corpus_path: Path
    corpus_format: str
    topics_path: Path
    backends: list[ModelBackend]
    embedding: EmbeddingBackend
    cache_dir: Path
    output_dir: Path
    outlier_threshold: float = 0.10
    bootstrap_resamples: int = 1000
    bootstrap_seed: int = 0
    failure_budget: float = 0.01
    retries: int = 3
    timeout: float = 30.0
    backoff: float = 0.5
    gold_labels: Path | None = None
    subset_ensembles: bool = False


def _bootstrap_int(section: dict, key: str, default: int, minimum: int,
                   problems: list[str]) -> int | None:
    """bootstrap.<key> as an int >= minimum, or None with a recorded problem."""
    value = section.get(key, default)
    number = None
    fractional = isinstance(value, float) and not value.is_integer()
    if not (isinstance(value, bool) or fractional):
        try:
            number = int(value)
        except (TypeError, ValueError):
            pass
    if number is None:
        problems.append(f"bootstrap.{key} must be an integer, got {value!r}")
    elif number < minimum:
        problems.append(f"bootstrap.{key} must be >= {minimum}")
    return number


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigInvalid([f"cannot read config {path}: {exc}"])
    if not isinstance(doc, dict):
        raise ConfigInvalid([f"config {path} is not a mapping"])
    base = path.parent

    problems: list[str] = []

    def resolve(p) -> Path:
        return (base / p).resolve() if not Path(p).is_absolute() else Path(p)

    corpus = doc.get("corpus") or {}
    corpus_path = corpus.get("path")
    corpus_format = corpus.get("format", "jsonl")
    if not corpus_path:
        problems.append("corpus.path is required")
    if corpus_format not in ("jsonl", "csv"):
        problems.append(f"corpus.format must be jsonl or csv, got {corpus_format!r}")

    topics_path = doc.get("topics")
    if not topics_path:
        problems.append("topics path is required")

    backends = []
    names = set()
    for i, entry in enumerate(doc.get("backends") or []):
        name = entry.get("name")
        endpoint = entry.get("endpoint")
        if not name or not endpoint:
            problems.append(f"backends[{i}] needs name and endpoint")
            continue
        if name in names:
            problems.append(f"duplicate backend name {name!r}")
        names.add(name)
        temperature = float(entry.get("temperature", 0.0))
        if temperature < 0:
            problems.append(f"backends[{i}].temperature must be >= 0")
            temperature = 0.0
        backends.append(
            ModelBackend(
                name=name,
                endpoint=endpoint,
                auth_env=entry.get("auth_env"),
                decoding=Decoding(
                    temperature=temperature,
                    max_tokens=int(entry.get("max_tokens", 512)),
                ),
                parallelism=int(entry.get("parallelism", 4)),
            )
        )
    if len(backends) < 2:
        problems.append("at least 2 backends are required for ensembling")

    emb = doc.get("embedding") or {}
    if not emb.get("endpoint"):
        problems.append("embedding.endpoint is required")
    embedding = EmbeddingBackend(
        name=emb.get("name", "all-mpnet-base-v2"),
        endpoint=emb.get("endpoint", ""),
        auth_env=emb.get("auth_env"),
        batch_size=int(emb.get("batch_size", 32)),
        parallelism=int(emb.get("parallelism", 4)),
    )

    outlier_threshold = float(doc.get("outlier_threshold", 0.10))
    if outlier_threshold <= 0:
        problems.append("outlier_threshold must be > 0")
    bootstrap = doc.get("bootstrap") or {}
    if not isinstance(bootstrap, dict):
        problems.append("bootstrap must be a mapping of resamples and seed")
        bootstrap = {}
    resamples = _bootstrap_int(bootstrap, "resamples", 1000, 100, problems)
    seed = _bootstrap_int(bootstrap, "seed", 0, 0, problems)
    failure_budget = float(doc.get("failure_budget", 0.01))

    if problems:
        raise ConfigInvalid(problems)

    gold = doc.get("gold_labels")
    cfg = RunConfig(
        corpus_path=resolve(corpus_path),
        corpus_format=corpus_format,
        topics_path=resolve(topics_path),
        backends=backends,
        embedding=embedding,
        cache_dir=resolve(doc.get("cache_dir", ".topicensemble-cache")),
        output_dir=resolve(doc.get("output_dir", "runs")),
        outlier_threshold=outlier_threshold,
        bootstrap_resamples=resamples,
        bootstrap_seed=seed,
        failure_budget=failure_budget,
        retries=int(doc.get("retries", 3)),
        timeout=float(doc.get("timeout", 30.0)),
        backoff=float(doc.get("backoff", 0.5)),
        gold_labels=resolve(gold) if gold else None,
        subset_ensembles=bool(doc.get("subset_ensembles", False)),
    )
    return cfg


def validate_config(cfg: RunConfig) -> list[str]:
    """Checks beyond parse time: referenced files must exist and load."""
    problems = []
    if not cfg.corpus_path.exists():
        problems.append(f"corpus file not found: {cfg.corpus_path}")
    if not cfg.topics_path.exists():
        problems.append(f"topics file not found: {cfg.topics_path}")
    if cfg.gold_labels is not None and not cfg.gold_labels.exists():
        problems.append(f"gold labels file not found: {cfg.gold_labels}")
    return problems


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def config_digest(cfg: RunConfig) -> str:
    """Semantic digest of the run: inputs by content, parameters by value."""
    payload = {
        "corpus_sha256": _file_digest(cfg.corpus_path),
        "corpus_format": cfg.corpus_format,
        "topics_sha256": _file_digest(cfg.topics_path),
        "gold_sha256": _file_digest(cfg.gold_labels) if cfg.gold_labels else None,
        "backends": [
            {
                "name": b.name,
                "endpoint": b.endpoint,
                "temperature": b.decoding.temperature,
                "max_tokens": b.decoding.max_tokens,
            }
            for b in cfg.backends
        ],
        "embedding": {"name": cfg.embedding.name, "endpoint": cfg.embedding.endpoint},
        "outlier_threshold": cfg.outlier_threshold,
        "bootstrap_resamples": cfg.bootstrap_resamples,
        "bootstrap_seed": cfg.bootstrap_seed,
        "failure_budget": cfg.failure_budget,
        "subset_ensembles": cfg.subset_ensembles,
    }
    blob = json.dumps(payload, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
