"""Corpus and topic ingestion.

Defines the canonical identifiers (text ids, topic short names) that every
downstream stage keys on. Loading is pure and single-threaded; the returned
values are immutable and safe to share across threads.
"""
from __future__ import annotations

import csv
import json
import re
from array import array
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .errors import (
    DuplicateId,
    DuplicateShortName,
    EmptyText,
    MalformedRecord,
    MissingDescription,
    NestingTooDeep,
)

SHORT_NAME_RE = re.compile(r"^[A-Za-z0-9_]+$")


@dataclass(frozen=True)
class TextItem:
    """One free-text unit. Text is stored trimmed but otherwise verbatim."""

    id: str
    text: str
    group: str | None = None

    def __post_init__(self):
        if not self.id:
            raise MalformedRecord(0, "text item with empty id")
        if not self.text.strip():
            raise EmptyText(self.id)


@dataclass(frozen=True)
class Topic:
    """A labeled topic: token-safe short name plus a detailed description.

    A topic may carry subtopics (one level deep, at least two); in that case
    the subtopics are the prompted units and the parent label/score is
    aggregated from them.
    """

    short_name: str
    description: str
    subtopics: tuple["Topic", ...] = ()

    def __post_init__(self):
        if not SHORT_NAME_RE.match(self.short_name):
            raise MalformedRecord(
                0, f"short_name {self.short_name!r} must match [A-Za-z0-9_]+"
            )
        if not self.description.strip():
            raise MissingDescription(self.short_name)
        if self.subtopics:
            if len(self.subtopics) < 2:
                raise MalformedRecord(
                    0, f"topic {self.short_name!r} needs >=2 subtopics or none"
                )
            for sub in self.subtopics:
                if sub.subtopics:
                    raise NestingTooDeep(
                        f"{self.short_name} -> {sub.short_name}: subtopics cannot nest"
                    )


@dataclass(frozen=True)
class TopicSet:
    """Ordered, immutable collection of topics.

    The order is the prompt enumeration order and is stable across runs.
    """

    topics: tuple[Topic, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not self.topics:
            raise MalformedRecord(0, "TopicSet must contain at least one topic")
        seen: set[str] = set()
        for top in self.topics:
            for name in [top.short_name] + [s.short_name for s in top.subtopics]:
                if name in seen:
                    raise DuplicateShortName(name)
                seen.add(name)

    def leaves(self) -> list[Topic]:
        """Prompted units in enumeration order: subtopics expand in place."""
        out: list[Topic] = []
        for top in self.topics:
            out.extend(top.subtopics if top.subtopics else [top])
        return out

    def top_level_names(self) -> list[str]:
        return [t.short_name for t in self.topics]

    def __iter__(self):
        return iter(self.topics)

    def __len__(self):
        return len(self.topics)


def load_corpus(path: str | Path, format: str = "jsonl") -> list[TextItem]:
    """Load text items from a jsonl or csv file, in file order.

    Ids are verified unique; text is trimmed of surrounding whitespace only
    (no lowercasing or unicode folding - models see the raw text).
    """
    return [TextItem(rid, text.strip(), group)
            for _, rid, text, group in _records(Path(path), format)]


@dataclass(frozen=True)
class CorpusView:
    """The ids and groups of a corpus in file order: what every stage but
    annotate reads. Texts without a group have None."""

    ids: list[str]
    groups: list[str | None]

    def __len__(self):
        return len(self.ids)


def load_corpus_view(path: str | Path, format: str = "jsonl") -> CorpusView:
    """The CorpusView of a corpus file, which refuses every file that
    load_corpus refuses. Each text is checked but not kept, and each
    distinct group string is held once."""
    ids: list[str] = []
    groups: list[str | None] = []
    shared: dict = {}
    for _, rid, _, group in _records(Path(path), format):
        ids.append(rid)
        groups.append(shared.setdefault(group, group))
    return CorpusView(ids, groups)


def _records(path: Path, format: str) -> Iterator[tuple[int, str, str, str | None]]:
    """(line, id, untrimmed text, group) of each record, in file order.

    A record that is not an object, lacks an id or a text, has an empty
    text or has a group that is not a string raises an error naming the
    file and the line; so does the first byte that is not UTF-8. Once the
    last record is read, an id that repeats raises DuplicateId.
    """
    if format not in _READERS:
        raise ValueError(f"unknown corpus format {format!r}")
    read = _READERS[format]
    where = f"corpus {path}"
    hashes = array("q")  # of each id, 8 B a record where a set of ids takes 27-107 B
    try:
        for lineno, record in read(path):
            rid, text = record.get("id"), record.get("text")
            group = record.get("group") or None
            if not isinstance(rid, str) or not rid:
                raise MalformedRecord(lineno, f"{where}: missing or empty 'id'")
            if not isinstance(text, str):
                raise MalformedRecord(lineno, f"{where}: missing 'text'")
            if not text or text.isspace():
                raise EmptyText(f"line {lineno}: {where}: empty text for id {rid!r}")
            if group is not None and not isinstance(group, str):
                raise MalformedRecord(lineno, f"{where}: 'group' must be a string")
            hashes.append(hash(rid))
            yield lineno, rid, text, group
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc
    ordered = np.frombuffer(hashes, dtype=np.int64)
    ordered.sort()  # in place
    repeated = set(ordered[1:][ordered[1:] == ordered[:-1]].tolist())
    if repeated:  # an id repeats, or two ids share a hash: read the file again to tell
        first_line: dict[str, int] = {}
        for lineno, record in read(path):
            rid = record["id"]
            if hash(rid) in repeated:
                if rid in first_line:
                    raise DuplicateId(f"line {lineno}: {where}: duplicate id {rid!r} "
                                      f"(first on line {first_line[rid]})")
                first_line[rid] = lineno


def _not_utf8(path: Path, exc: UnicodeDecodeError) -> MalformedRecord:
    """Locate the first byte that is not UTF-8 by line and file offset.

    A text file decodes in chunks, so `exc` knows neither; this reads the
    file again line by line as bytes (no UTF-8 sequence contains a newline).
    """
    offset = 0
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as bad:
                return MalformedRecord(
                    lineno, f"corpus {path} is not UTF-8: byte {offset + bad.start} "
                    f"(0x{raw[bad.start]:02x}): {bad.reason}")
            offset += len(raw)
    return MalformedRecord(0, f"corpus {path} is not UTF-8: {exc}")


_decode = json.JSONDecoder().decode  # json.loads without its per-call dispatch


def _jsonl_records(path: Path) -> Iterator[tuple[int, dict]]:
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if line.isspace():
                continue
            try:
                record = _decode(line)
            except json.JSONDecodeError as exc:
                raise MalformedRecord(lineno, f"corpus {path}: invalid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise MalformedRecord(lineno, f"corpus {path}: record is not an object")
            yield lineno, record


def _csv_records(path: Path) -> Iterator[tuple[int, dict]]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            return
        missing = {"id", "text"} - set(reader.fieldnames)
        if missing:
            raise MalformedRecord(1, f"corpus {path}: missing columns: {sorted(missing)}")
        yield from enumerate(reader, 2)


_READERS = {"jsonl": _jsonl_records, "csv": _csv_records}


def load_topics(path: str | Path) -> TopicSet:
    """Load a TopicSet from a YAML (or JSON) document.

    Accepts either a top-level list of topic entries or a mapping with a
    `topics` key; each entry is {short_name, description, subtopics?}.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        mark = getattr(exc, "problem_mark", None)
        raise MalformedRecord(
            mark.line + 1 if mark else 0, f"topics file {path} is not valid YAML: "
            f"{getattr(exc, 'problem', None) or exc}") from exc
    if isinstance(doc, dict):
        entries = doc.get("topics")
    else:
        entries = doc
    where = f"topics file {path}"
    if not isinstance(entries, list) or not entries:
        raise MalformedRecord(0, f"{where} must contain a non-empty topic list")
    topics = tuple(_topic_from_entry(e, f"{where}: topic {k}", depth=0)
                   for k, e in enumerate(entries, 1))
    try:
        return TopicSet(topics)
    except DuplicateShortName as exc:
        raise DuplicateShortName(f"{where}: duplicate short_name {str(exc)!r}") from None


def _topic_from_entry(entry, where: str, depth: int) -> Topic:
    """The Topic of one entry; `where` names the file and the entry in errors."""
    if not isinstance(entry, dict):
        raise MalformedRecord(0, f"{where}: not a mapping: {entry!r}")
    name = entry.get("short_name")
    if not isinstance(name, str) or not name:
        raise MalformedRecord(0, f"{where}: missing 'short_name'")
    where = f"{where} ({name!r})"
    desc = entry.get("description")
    if not isinstance(desc, str) or not desc.strip():
        raise MissingDescription(f"{where}: missing description")
    subs = entry.get("subtopics") or []
    if subs and depth >= 1:
        raise NestingTooDeep(f"{where}: subtopics cannot nest")
    subtopics = tuple(_topic_from_entry(s, f"{where}, subtopic {j}", depth + 1)
                      for j, s in enumerate(subs, 1))
    try:
        return Topic(short_name=name, description=desc.strip(), subtopics=subtopics)
    except MalformedRecord as exc:  # a short_name's characters or a lone subtopic
        raise MalformedRecord(0, f"{where}: {exc.reason}") from None
