"""Seeded synthetic workloads for the pipeline benchmark.

Everything the program sees (corpus, topics, gold labels, config) and
everything the stand-in serves (chat answers, embedding vectors) is derived
here from one integer seed, so the same seed always yields the same inputs
and the expected outputs follow from the generator alone.

Embeddings are built, not learned: the empty string maps to a unit vector e;
each leaf description d_t sits at a chosen cosine b_t to e (its baseline);
each evidence phrase of a leaf's pool sits at a chosen cosine c to d_t. Any
other text maps to a unit vector seeded by its own bytes. Vectors are served
as float32.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DIM = 384
SALT = "pipebench-v1"

# (short_name, description, subtopics); two top-level topics, three leaves.
TOPICS = (
    ("sleep", "Sleep problems, trouble falling asleep or staying asleep.", ()),
    ("work", "Workplace friction with coworkers or managers.", (
        ("work_blame", "Being blamed at work for problems caused by others."),
        ("work_dismiss", "Suggestions at work dismissed without discussion."),
    )),
)
LEAF_PREVALENCE = {"sleep": 0.30, "work_blame": 0.20, "work_dismiss": 0.20}
TOP_PREVALENCE = {"sleep": 0.30, "work": 0.35}

_POOL_WORDS = {
    "sleep": (
        ["lying awake", "waking up", "tossing and turning", "unable to fall asleep",
         "restless", "staring at the ceiling", "exhausted", "up again",
         "dozing off", "wide awake", "nightmares", "broken sleep"],
        ["past midnight", "before dawn", "every night", "most nights", "all week",
         "since spring", "after work", "at three am", "for hours",
         "in the early hours", "on weekdays", "without a reason"],
    ),
    "work_blame": (
        ["blamed for", "held responsible for", "accused over", "singled out for",
         "criticised for", "faulted for", "scolded over", "made the scapegoat for",
         "reprimanded for", "called out for", "pinned with", "charged with"],
        ["the missed deadline", "the broken build", "the lost client",
         "the budget overrun", "the failed launch", "the data error",
         "the late shipment", "the outage", "the audit finding",
         "the delayed report", "the supplier mixup", "the scheduling error"],
    ),
    "work_dismiss": (
        ["ideas ignored", "proposal brushed off", "suggestions dismissed",
         "input waved away", "feedback ignored", "plan rejected outright",
         "concerns brushed aside", "advice overruled", "questions cut off",
         "notes never read", "request shelved", "pitch dismissed"],
        ["in the team meeting", "by the manager", "without discussion",
         "by the director", "at the standup", "in the review", "during planning",
         "by senior staff", "in front of everyone", "without a reply",
         "again this sprint", "in the retro"],
    ),
}
POOL_SIZE = 100

_FILLER = (
    "The weather was mild most of the week.",
    "I spent the weekend visiting family.",
    "The commute has been longer than usual.",
    "We started a new project last month.",
    "My neighbour adopted a dog.",
    "The local library extended its hours.",
    "I have been reading more in the evenings.",
    "Prices at the market went up again.",
    "Our team moved to a different floor.",
    "The train was delayed twice this week.",
    "I finally repaired the old bicycle.",
    "We planned a short trip for the holidays.",
)
_YES = ("yes", "Yes.", "[yes]", "YES")
_NO = ("no", "No.", "[no]")
UNPARSEABLE = (
    "I am unable to classify this paragraph.",
    "Sorry, could you restate the question?",
)
UNPARSEABLE_SHARE = 0.01
NO_PHRASE_SHARE = 0.05


def leaves() -> list[tuple[str, str]]:
    out = []
    for name, desc, subs in TOPICS:
        out.extend(subs if subs else [(name, desc)])
    return out


def leaf_parent() -> dict[str, str]:
    return {leaf: name for name, desc, subs in TOPICS
            for leaf, _ in (subs if subs else [(name, desc)])}


def top_names() -> list[str]:
    return [name for name, _, _ in TOPICS]


def token(i: int) -> str:
    """Unique word carried by text i; the stand-in finds texts by it."""
    return f"ref{i:06d}"


# ---------------------------------------------------------------- embeddings

def _seeded_unit(dim: int, *parts: str) -> np.ndarray:
    digest = hashlib.sha256("\0".join((SALT,) + parts).encode("utf-8")).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _at_cosine(anchor: np.ndarray, cosine: float, dim: int, *parts: str) -> np.ndarray:
    u = _seeded_unit(dim, *parts)
    u = u - (u @ anchor) * anchor
    u /= np.linalg.norm(u)
    return cosine * anchor + math.sqrt(1.0 - cosine * cosine) * u


@dataclass
class Embeddings:
    """Deterministic text -> float32 vector map shared by stand-in and oracle.

    descriptions: description -> baseline cosine to the empty-string vector.
    phrases: phrase -> (description, cosine to that description).
    """

    descriptions: dict[str, float]
    phrases: dict[str, tuple[str, float]]
    dim: int = DIM
    _memo: dict[str, np.ndarray] = field(default_factory=dict, repr=False)

    def _exact(self, text: str) -> np.ndarray:
        if text == "":
            return _seeded_unit(self.dim, "empty")
        if text in self.descriptions:
            return _at_cosine(self._exact(""), self.descriptions[text],
                              self.dim, "desc", text)
        if text in self.phrases:
            desc, cosine = self.phrases[text]
            return _at_cosine(self._exact(desc), cosine, self.dim, "phrase", text)
        return _seeded_unit(self.dim, "other", text)

    def vector(self, text: str) -> np.ndarray:
        vec = self._memo.get(text)
        if vec is None:
            vec = self._exact(text).astype(np.float32)
            self._memo[text] = vec
        return vec

    def to_dict(self) -> dict:
        return {"dim": self.dim, "descriptions": self.descriptions,
                "phrases": {p: list(v) for p, v in self.phrases.items()}}

    @classmethod
    def from_dict(cls, doc: dict) -> "Embeddings":
        return cls(descriptions=dict(doc["descriptions"]),
                   phrases={p: (v[0], float(v[1])) for p, v in doc["phrases"].items()},
                   dim=int(doc["dim"]))


# ------------------------------------------------------------- labeling data

@dataclass
class Labeling:
    """A corpus to label, with every model's intended answer per cell."""

    texts: list[dict]                      # {id, text, group}
    truth: dict[tuple[str, str], tuple[str, ...]]  # (text_id, leaf) -> phrases; absent = no
    answers: dict[tuple[str, str, str], tuple[bool, tuple[str, ...]]]  # (model, id, leaf)
    contents: dict[tuple[str, str], str]   # (model, id) -> parseable answer text
    planted: list[tuple[str, str]]         # (model, id) whose first answer is unparseable
    embeddings: Embeddings
    models: tuple[str, ...]


def make_labeling(seed: int, n_texts: int, models=("m1", "m2", "m3"),
                  flip=(0.04, 0.06, 0.08), n_groups: int = 5) -> Labeling:
    rng = np.random.default_rng([seed, 1])
    leaf_list = leaves()
    pools: dict[str, list[str]] = {}
    phrases: dict[str, tuple[str, float]] = {}
    descriptions: dict[str, float] = {}
    for leaf, desc in leaf_list:
        heads, tails = _POOL_WORDS[leaf]
        combos = [f"{h} {t}" for h in heads for t in tails]
        pick = rng.choice(len(combos), size=POOL_SIZE, replace=False)
        pools[leaf] = [combos[j] for j in pick]
        descriptions[desc] = float(rng.uniform(0.05, 0.20))
        for p in pools[leaf]:
            phrases[p] = (desc, float(rng.uniform(0.30, 0.95)))
    embeddings = Embeddings(descriptions=descriptions, phrases=phrases)

    texts, truth = [], {}
    for i in range(n_texts):
        tid = token(i)
        sentences = [f"Note {tid}."]
        fillers = rng.choice(len(_FILLER), size=int(rng.integers(1, 4)), replace=False)
        sentences.extend(_FILLER[j] for j in fillers)
        for leaf, _ in leaf_list:
            if rng.random() < LEAF_PREVALENCE[leaf]:
                k = int(rng.integers(1, 4))
                pick = rng.choice(POOL_SIZE, size=k, replace=False)
                evidence = tuple(pools[leaf][j] for j in pick)
                truth[(tid, leaf)] = evidence
                sentences.insert(int(rng.integers(1, len(sentences) + 1)),
                                 "It keeps happening: " + " and ".join(evidence) + ".")
        texts.append({"id": tid, "text": " ".join(sentences),
                      "group": f"site_{int(rng.integers(n_groups)):02d}"})

    answers, contents = {}, {}
    for m, model in enumerate(models):
        for item in texts:
            tid = item["id"]
            lines = []
            for k, (leaf, _) in enumerate(leaf_list, 1):
                present = (tid, leaf) in truth
                label = present != bool(rng.random() < flip[m])
                said: tuple[str, ...] = ()
                if label and present and rng.random() >= NO_PHRASE_SHARE:
                    evidence = truth[(tid, leaf)]
                    keep = rng.random(len(evidence)) < 0.7
                    keep[int(rng.integers(len(evidence)))] = True
                    said = tuple(p for p, kept in zip(evidence, keep) if kept)
                elif label and not present and rng.random() < 0.5:
                    said = (pools[leaf][int(rng.integers(POOL_SIZE))],)
                answers[(model, tid, leaf)] = (label, said)
                lines.append(_render_line(rng, k, leaf, label, said))
            preamble = "Here are my answers.\n" if rng.random() < 0.1 else ""
            contents[(model, tid)] = preamble + "\n".join(lines)

    cells = [(model, item["id"]) for model in models for item in texts]
    n_planted = round(UNPARSEABLE_SHARE * len(cells))
    planted = [cells[j] for j in sorted(rng.choice(len(cells), size=n_planted,
                                                   replace=False))]
    return Labeling(texts=texts, truth=truth, answers=answers, contents=contents,
                    planted=planted, embeddings=embeddings, models=tuple(models))


def _render_line(rng, k: int, leaf: str, label: bool, said: tuple[str, ...]) -> str:
    """One answer line in one of the format variants the parser accepts."""
    if not label:
        return f"({k}) {leaf}: {_NO[int(rng.integers(len(_NO)))]}"
    word = _YES[int(rng.integers(len(_YES)))]
    if not said:
        return f"({k}) {leaf}: {word}"
    style = rng.random()
    if style < 0.6:
        return f"({k}) {leaf}: {word}, related phrases: " + ", ".join(f"'{p}'" for p in said)
    if style < 0.8:
        return f"({k}) {leaf}: {word} related phrases if any: " + ", ".join(f'"{p}"' for p in said)
    return f"({k}) {leaf}: {word}, related phrases: " + ", ".join(said)


# ------------------------------------------------------------- analysis data

@dataclass
class Analysis:
    """Top-level labels and scores per (model, text, topic), as the score
    stage would have written them, plus gold labels."""

    texts: list[dict]
    gold: dict[tuple[str, str], bool]     # (text_id, topic) -> label
    cells: dict[tuple[str, str, str], tuple[bool, float]]  # (model, id, topic)
    models: tuple[str, ...]


def make_analysis(seed: int, n_texts: int, models=("m1", "m2", "m3", "m_noisy"),
                  flip=(0.05, 0.07, 0.09, 0.40), n_groups: int = 20) -> Analysis:
    rng = np.random.default_rng([seed, 2])
    topics = top_names()
    group = rng.integers(n_groups, size=n_texts)
    fill = rng.integers(len(_FILLER), size=n_texts)
    texts = [{"id": token(i), "text": f"Note {token(i)}. {_FILLER[fill[i]]}",
              "group": f"unit_{int(group[i]):02d}"} for i in range(n_texts)]
    gold = {}
    truth = {}
    for t in topics:
        truth[t] = rng.random(n_texts) < TOP_PREVALENCE[t]
        for i in range(n_texts):
            gold[(token(i), t)] = bool(truth[t][i])
    cells = {}
    for m, model in enumerate(models):
        for t in topics:
            label = truth[t] != (rng.random(n_texts) < flip[m])
            strong = np.clip(rng.normal(0.6, 0.15, n_texts), 0.05, 1.0)
            weak = np.clip(rng.normal(0.2, 0.1, n_texts), 0.0, 1.0)
            score = np.where(truth[t], strong, weak)
            score[rng.random(n_texts) < NO_PHRASE_SHARE] = 0.0
            score = np.where(label, score, 0.0)
            for i in range(n_texts):
                cells[(model, token(i), t)] = (bool(label[i]), float(score[i]))
    return Analysis(texts=texts, gold=gold, cells=cells, models=tuple(models))


# ------------------------------------------------------------------- writing

def write_corpus(texts: list[dict], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for item in texts:
            fh.write(json.dumps(item, ensure_ascii=False) + "\n")


def write_topics(path: Path) -> None:
    lines = []
    for name, desc, subs in TOPICS:
        lines.append(f"- short_name: {name}\n  description: {desc}")
        if subs:
            lines.append("  subtopics:")
            for sub, sub_desc in subs:
                lines.append(f"  - short_name: {sub}\n    description: {sub_desc}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_gold(gold: dict[tuple[str, str], bool], path: Path) -> None:
    rows = ["text_id,topic,label"]
    rows.extend(f"{tid},{topic},{int(label)}" for (tid, topic), label in gold.items())
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def labeling_gold(lab: Labeling) -> dict[tuple[str, str], bool]:
    parent = leaf_parent()
    gold = {}
    for item in lab.texts:
        for name in top_names():
            gold[(item["id"], name)] = any(
                (item["id"], leaf) in lab.truth for leaf, p in parent.items() if p == name
            )
    return gold


def standin_spec(lab: Labeling | None) -> dict:
    """What the stand-in serves: texts by token, answers, planted cells."""
    doc: dict = {"texts": {}, "answers": {}, "planted": [],
                 "unparseable": list(UNPARSEABLE)}
    if lab is not None:
        doc["texts"] = {item["id"]: item["text"] for item in lab.texts}
        for (model, tid), content in lab.contents.items():
            doc["answers"].setdefault(model, {})[tid] = content
        doc["planted"] = [list(cell) for cell in lab.planted]
    doc["embeddings"] = (lab.embeddings if lab else Embeddings({}, {})).to_dict()
    return doc


def write_config(path: Path, port: int, models, output_dir: str,
                 subset_ensembles: bool = False) -> None:
    base = f"http://127.0.0.1:{port}"
    lines = ["corpus:", "  path: corpus.jsonl", "  format: jsonl",
             "topics: topics.yaml", "backends:"]
    for model in models:
        lines += [f"  - name: {model}",
                  f"    endpoint: {base}/v1/chat/completions",
                  "    temperature: 0.0", "    max_tokens: 256", "    parallelism: 1"]
    lines += ["embedding:", "  name: emb-bench",
              f"  endpoint: {base}/v1/embeddings", "  batch_size: 32", "  parallelism: 1",
              "cache_dir: cache", f"output_dir: {output_dir}",
              "outlier_threshold: 0.10",
              "bootstrap:", "  resamples: 1000", "  seed: 0",
              "failure_budget: 0.01", "retries: 2", "timeout: 30", "backoff: 0.05",
              "gold_labels: gold.csv",
              f"subset_ensembles: {'true' if subset_ensembles else 'false'}"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_aggregated(run_dir: Path, run_id: str, digest: str, an: Analysis) -> None:
    """score/aggregated.jsonl and its manifest, as the score stage documents them."""
    stage = run_dir / "score"
    stage.mkdir(parents=True, exist_ok=True)
    meta = {"_meta": {"config_digest": digest, "schema": "aggregated",
                      "schema_version": 1}}
    lines = [json.dumps(meta, sort_keys=True)]
    for (model, tid, topic), (label, score) in an.cells.items():
        lines.append(json.dumps({"label": label, "model": model, "score": score,
                                 "text_id": tid, "topic": topic}, sort_keys=True))
    (stage / "aggregated.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    manifest = {"config_digest": digest, "run_id": run_id, "schema_version": 1,
                "stage": "score"}
    (stage / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
