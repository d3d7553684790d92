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

import yaml

from .annotator import Decoding, ModelBackend, ProtocolError, _endpoint
from .corpus import _refuse_unencodable, not_utf8
from .errors import ConfigInvalid, MalformedRecord
from .relevancy import EmbeddingBackend

# The bound on `timeout` and `backoff`: one day. Far larger values overflow
# the platform's time_t in a socket timeout or a sleep.
_MAX_SECONDS = 86400
# The bound on a backend's or the embedding's `parallelism`: each worker is a
# thread, and a far larger count would ask the OS for more threads than it gives.
_MAX_WORKERS = 256
# The bound on `retries`: the sleep before retry n is backoff * 2 ** (n - 1),
# which a far larger count overflows as a float.
_MAX_RETRIES = 100


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


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except UnicodeDecodeError as exc:
        raise ConfigInvalid([str(not_utf8(f"config {path}", path, exc))]) from exc
    except (OSError, yaml.YAMLError, RecursionError) as exc:  # nested past the limit
        raise ConfigInvalid([f"cannot read config {path}: {exc}"])
    if not isinstance(doc, dict):
        raise ConfigInvalid([f"config {path} is not a mapping"])
    try:
        _refuse_unencodable(0, f"config {path}", doc)
    except MalformedRecord as exc:
        raise ConfigInvalid([exc.reason]) from None
    base = path.parent

    problems: list[str] = []

    def resolve(name: str, p) -> Path | None:
        if not isinstance(p, str) or not p or "\0" in p:
            problems.append(f"{name} must be a path, got {p!r}")
            return None
        return (base / p).resolve() if not Path(p).is_absolute() else Path(p)

    def section(name: str, value, *fields: str) -> dict:
        """`value` if it is a mapping, else {}; each unknown field is a problem."""
        if not isinstance(value, dict):
            problems.append(f"{name} must be a mapping, got {value!r}")
            return {}
        problems.extend(f"{name}.{key} is not a known field"
                        for key in value if key not in fields)
        return value

    def given(key: str, absent):
        """doc[key], or `absent` where the key is missing or null."""
        value = doc.get(key)
        return absent if value is None else value

    def backend(where: str, entry: dict, names: set, default: str | None = None):
        """(name, endpoint, auth_env) of a chat backend or the embedding, or
        None where name or endpoint is not a string; `names` holds the names
        read before this one."""
        name, endpoint, auth_env = (entry.get("name", default), entry.get("endpoint"),
                                    entry.get("auth_env"))
        if auth_env is not None and not isinstance(auth_env, str):
            problems.append(f"{where}.auth_env must be a string, got {auth_env!r}")
        if not (isinstance(name, str) and name and isinstance(endpoint, str) and endpoint):
            problems.append(f"{where} needs name and endpoint strings")
            return None
        if name in names:
            problems.append(f"duplicate backend name {name!r}")
        names.add(name)
        try:
            _endpoint(endpoint)
        except ProtocolError:
            problems.append(f"{where}.endpoint must be an http(s) URL, got {endpoint!r}")
        return name, endpoint, auth_env

    problems.extend(f"{key} is not a known field" for key in doc if key not in (
        "corpus", "topics", "backends", "embedding", "cache_dir", "output_dir",
        "outlier_threshold", "bootstrap", "failure_budget", "retries", "timeout",
        "backoff", "gold_labels", "subset_ensembles"))
    corpus = section("corpus", given("corpus", {}), "path", "format")
    corpus_format = corpus.get("format", "jsonl")
    if corpus_format not in ("jsonl", "csv"):
        problems.append(f"corpus.format must be jsonl or csv, got {corpus_format!r}")

    backends = []
    names = set()
    entries = given("backends", [])
    if not isinstance(entries, list):
        problems.append("backends must be a list of mappings")
        entries = []
    for i, entry in enumerate(entries):
        where = f"backends[{i}]"
        entry = section(where, entry, "name", "endpoint", "auth_env", "temperature",
                        "max_tokens", "parallelism")
        identity = backend(where, entry, names)
        if identity is None:
            continue
        temperature = _number(entry, "temperature", Decoding.temperature, problems,
                              where=f"{where}.")
        max_tokens = _number(entry, "max_tokens", Decoding.max_tokens, problems,
                             where=f"{where}.", integer=True, minimum=1)
        parallelism = _number(entry, "parallelism", ModelBackend.parallelism, problems,
                              where=f"{where}.", integer=True, minimum=1, maximum=_MAX_WORKERS)
        if None not in (temperature, max_tokens, parallelism):
            backends.append(ModelBackend(*identity, Decoding(temperature, max_tokens),
                                         parallelism))
    if len(backends) < 2:
        problems.append("at least 2 backends are required for ensembling")

    emb = section("embedding", given("embedding", {}), "name", "endpoint", "auth_env",
                  "batch_size", "parallelism")
    emb_identity = backend("embedding", emb, set(), "all-mpnet-base-v2") or (None,) * 3
    bootstrap = section("bootstrap", given("bootstrap", {}), "resamples", "seed")
    subset_ensembles = doc.get("subset_ensembles", RunConfig.subset_ensembles)
    if not isinstance(subset_ensembles, bool):
        problems.append(f"subset_ensembles must be true or false, got {subset_ensembles!r}")
    gold = doc.get("gold_labels")
    cfg = RunConfig(
        corpus_path=resolve("corpus.path", corpus.get("path")),
        corpus_format=corpus_format,
        topics_path=resolve("topics", doc.get("topics")),
        backends=backends,
        embedding=EmbeddingBackend(
            *emb_identity,
            batch_size=_number(emb, "batch_size", EmbeddingBackend.batch_size, problems,
                               where="embedding.", integer=True, minimum=1),
            parallelism=_number(emb, "parallelism", EmbeddingBackend.parallelism, problems,
                                where="embedding.", integer=True, minimum=1, maximum=_MAX_WORKERS),
        ),
        cache_dir=resolve("cache_dir", doc.get("cache_dir", ".topicensemble-cache")),
        output_dir=resolve("output_dir", doc.get("output_dir", "runs")),
        outlier_threshold=_number(doc, "outlier_threshold", RunConfig.outlier_threshold,
                                  problems, exclusive=True),
        bootstrap_resamples=_number(bootstrap, "resamples", RunConfig.bootstrap_resamples,
                                    problems, where="bootstrap.", integer=True, minimum=100),
        bootstrap_seed=_number(bootstrap, "seed", RunConfig.bootstrap_seed, problems,
                               where="bootstrap.", integer=True),
        failure_budget=_number(doc, "failure_budget", RunConfig.failure_budget, problems,
                               maximum=1),
        retries=_number(doc, "retries", RunConfig.retries, problems, integer=True,
                        maximum=_MAX_RETRIES),
        timeout=_number(doc, "timeout", RunConfig.timeout, problems, exclusive=True,
                        maximum=_MAX_SECONDS),
        backoff=_number(doc, "backoff", RunConfig.backoff, problems, maximum=_MAX_SECONDS),
        gold_labels=resolve("gold_labels", gold) if gold is not None else None,
        subset_ensembles=subset_ensembles,
    )
    if problems:
        raise ConfigInvalid(problems)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    """Checks beyond parse time: referenced files must exist and be files.
    `pipeline.load_inputs` checks that the corpus, topics and gold labels load."""
    problems = []
    for what, path in (("corpus", cfg.corpus_path), ("topics", cfg.topics_path),
                       ("gold labels", cfg.gold_labels)):
        if path is not None and not path.is_file():
            problems.append(f"{what} path is not a file: {path}" if path.exists()
                            else f"{what} file not found: {path}")
    if problems:
        raise ConfigInvalid(problems)


def _file_digest(path: Path) -> str:
    """SHA-256 of a file's bytes, read 64 KiB at a time so that a large
    corpus is never held whole (hashlib.file_digest needs Python 3.11).

    The chunk stays under glibc malloc's initial 128 KiB mmap threshold: a
    mapped chunk, once freed, raises that threshold to its size, and later
    buffers of up to that size then stay in the heap. With 1 MiB chunks
    that raised the peak RSS of `run --stage all` on 2,000 texts by 2 MB.
    """
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 16):
            digest.update(chunk)
    return digest.hexdigest()


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
