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
import math
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import urlsplit

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


def _number(section: dict, key: str, default, problems: list[str], *,
            where: str = "", integer: bool = False, minimum: float = 0,
            maximum: float | None = None, exclusive: bool = False):
    """section[key] as a finite number in range, or None with a recorded problem.

    `where` prefixes the key in messages; `exclusive` makes the minimum strict.
    """
    value = section.get(key, default)
    try:
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise TypeError
        number = int(value) if integer else float(value)
        if not math.isfinite(float(value)) or number != float(value):
            raise ValueError  # infinite, NaN, or fractional for an integer
    except (TypeError, ValueError, OverflowError):
        kind = "an integer" if integer else "a number"
        problems.append(f"{where}{key} must be {kind}, got {value!r}")
        return None
    if number < minimum or (exclusive and number == minimum) or (
            maximum is not None and number > maximum):
        upper = f" and <= {maximum}" if maximum is not None else ""
        problems.append(f"{where}{key} must be {'>' if exclusive else '>='} {minimum}{upper}")
        return None
    return number


def _http_url(value: str) -> bool:
    """Whether `value` is an http(s) URL with a host and a valid port, the
    only kind of endpoint the backend transport can reach."""
    try:
        parts = urlsplit(value)
        parts.port  # raises ValueError for a port that is not a number in range
    except ValueError:
        return False
    return parts.scheme in ("http", "https") and bool(parts.hostname)


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

    def resolve(name: str, p) -> Path | None:
        if not isinstance(p, str) or not p or "\0" in p:
            problems.append(f"{name} must be a path, got {p!r}")
            return None
        return (base / p).resolve() if not Path(p).is_absolute() else Path(p)

    def mapping(name: str, value) -> dict:
        if isinstance(value, dict):
            return value
        problems.append(f"{name} must be a mapping, got {value!r}")
        return {}

    def strings(*values) -> bool:
        return all(isinstance(v, str) and v for v in values)

    def known(where: str, section: dict, *fields: str) -> None:
        problems.extend(f"{where}{key} is not a known field"
                        for key in section if key not in fields)

    def auth_env(where: str, section: dict) -> str | None:
        value = section.get("auth_env")
        if value is not None and not isinstance(value, str):
            problems.append(f"{where}auth_env must be a string, got {value!r}")
            return None
        return value

    known("", doc, "corpus", "topics", "backends", "embedding", "cache_dir", "output_dir",
          "outlier_threshold", "bootstrap", "failure_budget", "retries", "timeout",
          "backoff", "gold_labels", "subset_ensembles")
    corpus = mapping("corpus", doc.get("corpus") or {})
    known("corpus.", corpus, "path", "format")
    corpus_format = corpus.get("format", "jsonl")
    if corpus_format not in ("jsonl", "csv"):
        problems.append(f"corpus.format must be jsonl or csv, got {corpus_format!r}")

    backends = []
    names = set()
    entries = doc.get("backends") or []
    if not isinstance(entries, list):
        problems.append("backends must be a list of mappings")
        entries = []
    for i, entry in enumerate(entries):
        where = f"backends[{i}]."
        entry = mapping(f"backends[{i}]", entry)
        known(where, entry, "name", "endpoint", "auth_env", "temperature", "max_tokens",
              "parallelism")
        name, endpoint = entry.get("name"), entry.get("endpoint")
        if not strings(name, endpoint):
            problems.append(f"backends[{i}] needs name and endpoint strings")
            continue
        if name in names:
            problems.append(f"duplicate backend name {name!r}")
        if not _http_url(endpoint):
            problems.append(f"{where}endpoint must be an http(s) URL, got {endpoint!r}")
        names.add(name)
        temperature = _number(entry, "temperature", 0.0, problems, where=where)
        max_tokens = _number(entry, "max_tokens", 512, problems, where=where,
                             integer=True, minimum=1)
        parallelism = _number(entry, "parallelism", 4, problems, where=where,
                              integer=True, minimum=1)
        if None in (temperature, max_tokens, parallelism):
            continue
        backends.append(
            ModelBackend(
                name=name,
                endpoint=endpoint,
                auth_env=auth_env(where, entry),
                decoding=Decoding(temperature=temperature, max_tokens=max_tokens),
                parallelism=parallelism,
            )
        )
    if len(backends) < 2:
        problems.append("at least 2 backends are required for ensembling")

    emb = mapping("embedding", doc.get("embedding") or {})
    known("embedding.", emb, "name", "endpoint", "auth_env", "batch_size", "parallelism")
    emb_name, emb_endpoint = emb.get("name", "all-mpnet-base-v2"), emb.get("endpoint")
    if not strings(emb_name, emb_endpoint):
        problems.append("embedding needs name and endpoint strings")
    elif not _http_url(emb_endpoint):
        problems.append(f"embedding.endpoint must be an http(s) URL, got {emb_endpoint!r}")
    bootstrap = mapping("bootstrap", doc.get("bootstrap") or {})
    known("bootstrap.", bootstrap, "resamples", "seed")
    subset_ensembles = doc.get("subset_ensembles", False)
    if not isinstance(subset_ensembles, bool):
        problems.append(f"subset_ensembles must be true or false, got {subset_ensembles!r}")
    gold = doc.get("gold_labels")
    cfg = RunConfig(
        corpus_path=resolve("corpus.path", corpus.get("path")),
        corpus_format=corpus_format,
        topics_path=resolve("topics", doc.get("topics")),
        backends=backends,
        embedding=EmbeddingBackend(
            name=emb_name,
            endpoint=emb_endpoint,
            auth_env=auth_env("embedding.", emb),
            batch_size=_number(emb, "batch_size", 32, problems, where="embedding.",
                               integer=True, minimum=1),
            parallelism=_number(emb, "parallelism", 4, problems, where="embedding.",
                                integer=True, minimum=1),
        ),
        cache_dir=resolve("cache_dir", doc.get("cache_dir", ".topicensemble-cache")),
        output_dir=resolve("output_dir", doc.get("output_dir", "runs")),
        outlier_threshold=_number(doc, "outlier_threshold", 0.10, problems,
                                  exclusive=True),
        bootstrap_resamples=_number(bootstrap, "resamples", 1000, problems,
                                    where="bootstrap.", integer=True, minimum=100),
        bootstrap_seed=_number(bootstrap, "seed", 0, problems, where="bootstrap.",
                               integer=True),
        failure_budget=_number(doc, "failure_budget", 0.01, problems, maximum=1),
        retries=_number(doc, "retries", 3, problems, integer=True),
        timeout=_number(doc, "timeout", 30.0, problems, exclusive=True),
        backoff=_number(doc, "backoff", 0.5, problems),
        gold_labels=resolve("gold_labels", gold) if gold is not None else None,
        subset_ensembles=subset_ensembles,
    )
    if problems:
        raise ConfigInvalid(problems)
    return cfg


def validate_config(cfg: RunConfig) -> list[str]:
    """Checks beyond parse time: referenced files must exist.
    `pipeline.input_problems` checks that the corpus and topics load."""
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
