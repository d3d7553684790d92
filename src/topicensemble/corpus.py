"""Corpus and topic ingestion.

Defines the canonical identifiers (text ids, topic short names) that every
downstream stage keys on. Loading is pure and single-threaded; the returned
values are immutable and safe to share across threads.
"""
from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

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

    @property
    def is_leaf(self) -> bool:
        return not self.subtopics


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

    def leaf_parent(self) -> dict[str, str]:
        """Map each leaf short_name to its top-level topic short_name."""
        out: dict[str, str] = {}
        for top in self.topics:
            for leaf in top.subtopics if top.subtopics else [top]:
                out[leaf.short_name] = top.short_name
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
    path = Path(path)
    try:
        if format == "jsonl":
            items = _load_jsonl(path)
        elif format == "csv":
            items = _load_csv(path)
        else:
            raise ValueError(f"unknown corpus format {format!r}")
    except UnicodeDecodeError as exc:
        raise MalformedRecord(0, f"corpus {path} is not UTF-8: {exc}") from exc
    seen: set[str] = set()
    for item in items:
        if item.id in seen:
            raise DuplicateId(item.id)
        seen.add(item.id)
    return items


def _load_jsonl(path: Path) -> list[TextItem]:
    items = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedRecord(lineno, f"invalid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise MalformedRecord(lineno, "record is not an object")
            items.append(_item_from_record(record, lineno))
    return items


def _load_csv(path: Path) -> list[TextItem]:
    items = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            return []
        missing = {"id", "text"} - set(reader.fieldnames)
        if missing:
            raise MalformedRecord(1, f"missing columns: {sorted(missing)}")
        for lineno, row in enumerate(reader, 2):
            items.append(_item_from_record(row, lineno))
    return items


def _item_from_record(record: dict, lineno: int) -> TextItem:
    rid = record.get("id")
    text = record.get("text")
    if not isinstance(rid, str) or not rid:
        raise MalformedRecord(lineno, "missing or empty 'id'")
    if not isinstance(text, str):
        raise MalformedRecord(lineno, "missing 'text'")
    if not text.strip():
        raise EmptyText(rid)
    group = record.get("group") or None
    return TextItem(id=rid, text=text.strip(), group=group)


def save_corpus(items: list[TextItem], path: str | Path, format: str = "jsonl") -> None:
    path = Path(path)
    if format == "jsonl":
        with open(path, "w", encoding="utf-8") as fh:
            for item in items:
                record = {"id": item.id, "text": item.text}
                if item.group is not None:
                    record["group"] = item.group
                fh.write(json.dumps(record, ensure_ascii=False) + "\n")
    elif format == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "text", "group"])
            for item in items:
                writer.writerow([item.id, item.text, item.group or ""])
    else:
        raise ValueError(f"unknown corpus format {format!r}")


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
    if not isinstance(entries, list) or not entries:
        raise MalformedRecord(0, "topic file must contain a non-empty topic list")
    return TopicSet(tuple(_topic_from_entry(e, depth=0) for e in entries))


def _topic_from_entry(entry, depth: int) -> Topic:
    if not isinstance(entry, dict):
        raise MalformedRecord(0, f"topic entry is not a mapping: {entry!r}")
    name = entry.get("short_name")
    if not isinstance(name, str) or not name:
        raise MalformedRecord(0, "topic entry missing 'short_name'")
    desc = entry.get("description")
    if not isinstance(desc, str) or not desc.strip():
        raise MissingDescription(name)
    subs = entry.get("subtopics") or []
    if subs and depth >= 1:
        raise NestingTooDeep(name)
    subtopics = tuple(_topic_from_entry(s, depth + 1) for s in subs)
    return Topic(short_name=name, description=desc.strip(), subtopics=subtopics)


def topics_to_dict(topics: TopicSet) -> dict:
    """Inverse of load_topics, for round-trip serialization."""

    def entry(t: Topic) -> dict:
        out = {"short_name": t.short_name, "description": t.description}
        if t.subtopics:
            out["subtopics"] = [entry(s) for s in t.subtopics]
        return out

    return {"topics": [entry(t) for t in topics]}


def save_topics(topics: TopicSet, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(topics_to_dict(topics), fh, sort_keys=False, allow_unicode=True)
