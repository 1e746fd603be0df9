"""Step corpora: normalization, deduplicated step libraries, and statistics.

The raw material is a set of candidate how-to documents (title plus an
ordered list of step texts) and a set of per-video step sequences, either
human annotations or ASR transcript pieces. This module turns document
steps into a canonical step library and computes corpus-level ordering
statistics over grounded sequences.
"""

from __future__ import annotations

import functools
import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .errors import BadInput, EmptyCorpus, EmptyStep, NoDocuments, UnknownStep
from .jsonio import read_json, read_jsonl, write_json

# Kept candidates must differ by at least this normalized edit distance.
DEDUP_DISTANCE = 0.1

_BRACKETED_RE = re.compile(r"\([^()]*\)|\[[^\[\]]*\]")
_EDGE_PUNCT_RE = re.compile(r"^[\W_]+|[\W_]+$")
_WHITESPACE_RE = re.compile(r"\s+")


def normalize_step(raw: str) -> str:
    """Canonicalize one step text.

    Lowercases, removes bracketed and parenthesized spans, strips leading
    and trailing punctuation, and collapses internal whitespace. The result
    is stable under re-application. Raises EmptyStep when nothing is left.
    """
    text = raw.lower()
    while True:
        stripped = _BRACKETED_RE.sub(" ", text)
        if stripped == text:
            break
        text = stripped
    text = _EDGE_PUNCT_RE.sub("", text)
    text = _WHITESPACE_RE.sub(" ", text).strip()
    if not text:
        raise EmptyStep(f"step text is empty after normalization: {raw!r}")
    return text


def levenshtein(a: Sequence, b: Sequence) -> int:
    """Unit-cost edit distance between two sequences.

    Works on strings (character level) and on lists of step ids alike.

    >>> levenshtein("kitten", "sitting")
    3
    """
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        current = [i]
        for j, y in enumerate(b, start=1):
            cost = 0 if x == y else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost))
        previous = current
    return previous[-1]


def normalized_levenshtein(a: Sequence, b: Sequence) -> float:
    """Edit distance scaled by the longer input; 0.0 when both are empty."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 0.0
    return levenshtein(a, b) / longest


@functools.lru_cache(maxsize=None)
def _max_near_duplicate_edits(longest: int) -> int:
    """Largest edit count d with d / longest < DEDUP_DISTANCE, decided by that float comparison."""
    edits = int(DEDUP_DISTANCE * longest)
    while edits >= 0 and not edits / longest < DEDUP_DISTANCE:
        edits -= 1
    while (edits + 1) / longest < DEDUP_DISTANCE:
        edits += 1
    return edits


def is_near_duplicate(a: Sequence, b: Sequence) -> bool:
    """Exactly ``normalized_levenshtein(a, b) < DEDUP_DISTANCE``, decided early.

    Only the band |i - j| <= limit of the edit-distance table is computed,
    where limit is the largest edit count the threshold allows: a cell
    off the band costs at least |i - j| > limit, so it holds limit + 1,
    and a band cell then equals the true distance whenever either is at
    most limit. The edit distance is at least the length difference, and
    the smallest entry of a row never shrinks from one row to the next, so
    a pair is rejected as soon as either exceeds limit.
    """
    if len(a) < len(b):
        a, b = b, a
    if not a:
        return True  # both empty: normalized distance 0.0
    limit = _max_near_duplicate_edits(len(a))
    m = len(b)
    if len(a) - m > limit:
        return False
    cap = limit + 1
    previous = list(range(m + 1))
    for i, x in enumerate(a, start=1):
        first = max(0, i - limit)
        last = min(m, i + limit)
        current = [cap] * (m + 1)
        if first == 0:
            current[0] = i
        for j in range(max(1, first), last + 1):
            cost = 0 if x == b[j - 1] else 1
            current[j] = min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost)
        if min(current[first : last + 1]) > limit:
            return False
        previous = current
    return previous[m] <= limit


def deduplicate_library(steps: Sequence[str]) -> list[str]:
    """Drop near-duplicate step texts, keeping the earliest occurrence.

    A candidate is kept only when its normalized edit distance to every
    already-kept step is at least DEDUP_DISTANCE.
    """
    kept, _ = deduplicate_with_mapping(steps)
    return kept


def deduplicate_with_mapping(steps: Sequence[str]) -> tuple[list[str], list[int]]:
    """Deduplicate and also report, per input index, the kept index it maps to."""
    kept: list[str] = []
    mapping: list[int] = []
    for step in steps:
        match = None
        for idx, existing in enumerate(kept):
            if is_near_duplicate(step, existing):
                match = idx
                break
        if match is None:
            kept.append(step)
            mapping.append(len(kept) - 1)
        else:
            mapping.append(match)
    return kept, mapping


@dataclass(frozen=True)
class TaskSpec:
    task_id: str
    task_name: str
    category: str | None = None

    def __post_init__(self):
        if not self.task_id or not self.task_name:
            raise ValueError("task_id and task_name must be non-empty")


@dataclass(frozen=True)
class Step:
    step_id: int
    raw_text: str
    normalized_text: str


@dataclass
class StepLibrary:
    """Deduplicated canonical steps for one task.

    source_docs records (title, score) per contributing document, where the
    score is the document's ranking similarity when the caller supplies one
    and its 1-based rank otherwise. doc_sequences holds each document's
    step order re-expressed as library step ids; the linear baseline in the
    evaluation harness consumes these.
    """

    task_id: str
    steps: list[Step]
    source_docs: list[tuple[str, float]] = field(default_factory=list)
    doc_sequences: list[list[int]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.steps)

    def texts(self) -> list[str]:
        return [step.normalized_text for step in self.steps]

    def step_ids(self) -> list[int]:
        return [step.step_id for step in self.steps]

    def text_of(self, step_id: int) -> str:
        for step in self.steps:
            if step.step_id == step_id:
                return step.normalized_text
        raise UnknownStep(f"step id {step_id} not in library for task {self.task_id!r}")

    def has(self, step_id: int) -> bool:
        return 0 <= step_id < len(self.steps)

    def validate(self) -> None:
        for i, step in enumerate(self.steps):
            if step.step_id != i:
                raise ValueError(f"step ids must be contiguous from 0, got {step.step_id} at {i}")
        texts = self.texts()
        for i in range(len(texts)):
            for j in range(i + 1, len(texts)):
                if is_near_duplicate(texts[i], texts[j]):
                    raise ValueError(f"steps {i} and {j} are near-duplicates")


def build_step_library(
    task: TaskSpec,
    candidate_docs: Sequence[tuple[str, Sequence[str]]],
    top_m_docs: int = 10,
    simplify: Callable[[str], str] | None = None,
    doc_scores: Sequence[float] | None = None,
) -> StepLibrary:
    """Concatenate the top-ranked documents' steps into a deduplicated library.

    candidate_docs must already be ranked best-first; only the first
    top_m_docs are used. Steps that normalize to nothing are skipped.
    simplify is an optional text rewriting hook applied between
    normalization and deduplication; the default is the identity.
    """
    if not candidate_docs:
        raise NoDocuments(f"no candidate documents for task {task.task_id!r}")
    docs = list(candidate_docs)[:top_m_docs]

    normalized: list[str] = []
    raws: list[str] = []
    origins: list[int] = []
    for doc_index, (_, doc_steps) in enumerate(docs):
        for raw in doc_steps:
            try:
                text = normalize_step(raw)
            except EmptyStep:
                continue
            if simplify is not None:
                text = simplify(text)
                if not text:
                    continue
            normalized.append(text)
            raws.append(raw)
            origins.append(doc_index)

    kept, mapping = deduplicate_with_mapping(normalized)
    first_raw: dict[int, str] = {}
    for i, kept_index in enumerate(mapping):
        first_raw.setdefault(kept_index, raws[i])
    steps = [Step(i, first_raw[i], text) for i, text in enumerate(kept)]

    doc_sequences: list[list[int]] = [[] for _ in docs]
    for i, kept_index in enumerate(mapping):
        seq = doc_sequences[origins[i]]
        if kept_index not in seq:
            seq.append(kept_index)

    if doc_scores is not None:
        scores = [float(s) for s in doc_scores[: len(docs)]]
    else:
        scores = [float(rank) for rank in range(1, len(docs) + 1)]
    source_docs = [(title, score) for (title, _), score in zip(docs, scores)]
    return StepLibrary(task.task_id, steps, source_docs, doc_sequences)


@dataclass(frozen=True)
class SequenceItem:
    text: str
    start: float | None = None
    end: float | None = None


@dataclass
class RawSequenceRecord:
    """One video's observed items, either annotations or ASR pieces."""

    video_id: str
    task_id: str
    kind: str  # "labelled" or "asr"
    items: list[SequenceItem]
    title: str | None = None

    def validate(self) -> None:
        if self.kind not in ("labelled", "asr"):
            raise ValueError(f"unknown record kind {self.kind!r}")
        if not self.items:
            raise ValueError(f"record {self.video_id!r} has no items")
        last = None
        for item in self.items:
            if item.start is not None:
                if last is not None and item.start < last:
                    raise ValueError(f"record {self.video_id!r} has decreasing timestamps")
                last = item.start
            if item.start is not None and item.end is not None and item.end < item.start:
                raise ValueError(f"record {self.video_id!r} has end before start")


@dataclass(frozen=True)
class CorpusStats:
    """Ordering statistics over grounded sequences.

    mean_frequent_next_steps averages over steps that have at least one
    frequent successor; mean_frequent_next_steps_all divides by every step
    observed in the corpus instead.
    """

    reversal_rate: float
    mean_frequent_next_steps: float
    mean_frequent_next_steps_all: float
    frequency_threshold: int


def corpus_statistics(sequences, frequency_threshold: int = 10) -> CorpusStats:
    """Measure how non-sequential a corpus of grounded sequences is.

    reversal_rate is the fraction of unordered step pairs, observed
    consecutively in either order, that were observed in both orders.
    A successor s' of step s counts as frequent when the consecutive pair
    (s, s') occurs in more than frequency_threshold distinct videos.
    """
    sequences = list(sequences)
    if not sequences:
        raise EmptyCorpus("corpus statistics need at least one sequence")

    ordered_pairs: set[tuple[int, int]] = set()
    pair_videos: dict[tuple[int, int], set[str]] = defaultdict(set)
    observed_steps: set[int] = set()
    for seq in sequences:
        ids = seq.step_ids
        observed_steps.update(ids)
        for a, b in zip(ids, ids[1:]):
            ordered_pairs.add((a, b))
            pair_videos[(a, b)].add(seq.video_id)

    unordered = {frozenset(pair) for pair in ordered_pairs}
    reversed_pairs = sum(
        1 for pair in unordered if all(p in ordered_pairs for p in _both_orders(pair))
    )
    reversal_rate = reversed_pairs / len(unordered) if unordered else 0.0

    frequent_per_step: Counter[int] = Counter()
    for (a, _), videos in pair_videos.items():
        if len(videos) > frequency_threshold:
            frequent_per_step[a] += 1
    total_frequent = sum(frequent_per_step.values())
    mean_restricted = total_frequent / len(frequent_per_step) if frequent_per_step else 0.0
    mean_all = total_frequent / len(observed_steps) if observed_steps else 0.0
    return CorpusStats(reversal_rate, mean_restricted, mean_all, frequency_threshold)


def _both_orders(pair: frozenset) -> list[tuple[int, int]]:
    a, b = sorted(pair)
    return [(a, b), (b, a)]


# ---------------------------------------------------------------------------
# File formats


def parse_checked(where: str, parse: Callable, value):
    """parse(value); a KeyError, TypeError or ValueError it raises is BadInput naming where."""
    try:
        return parse(value)
    except KeyError as exc:
        raise BadInput(f"{where}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise BadInput(f"{where}: {exc}") from None


def parse_rows(path: str | Path, parse: Callable) -> list:
    """parse() each JSONL row; a row it rejects raises BadInput naming path:line."""
    return [
        parse_checked(f"{path}:{lineno}", parse, row)
        for lineno, row in read_jsonl(path, numbered=True)
    ]


def _task(row) -> TaskSpec:
    return TaskSpec(row["task_id"], row["task_name"], row.get("category"))


def _candidate_doc(row) -> tuple[str, list[str]]:
    steps = list(row["steps"])
    if not isinstance(row["title"], str):
        raise ValueError(f"document title must be a string: {row['title']!r}")
    return row["title"], steps


def _record(row) -> RawSequenceRecord:
    items = [
        SequenceItem(item["text"], item.get("start"), item.get("end")) for item in row["items"]
    ]
    record = RawSequenceRecord(row["video_id"], row["task_id"], row["kind"], items, row.get("title"))
    record.validate()
    return record


def load_tasks(path: str | Path) -> list[TaskSpec]:
    return parse_rows(path, _task)


def load_candidate_docs(path: str | Path) -> list[tuple[str, list[str]]]:
    return parse_rows(path, _candidate_doc)


def load_raw_records(paths: str | Path | Sequence[str | Path]) -> list[RawSequenceRecord]:
    """Load sequence records from one or many JSONL files.

    Multiple files are merged in sorted file-name order so the result does
    not depend on how the paths were supplied.
    """
    if isinstance(paths, (str, Path)):
        paths = [paths]
    records: list[RawSequenceRecord] = []
    for path in sorted(paths, key=lambda p: str(p)):
        records.extend(parse_rows(path, _record))
    return records


def library_to_json(library: StepLibrary) -> dict:
    return {
        "task_id": library.task_id,
        "steps": [
            {"step_id": s.step_id, "raw_text": s.raw_text, "normalized_text": s.normalized_text}
            for s in library.steps
        ],
        "source_docs": [[title, score] for title, score in library.source_docs],
        "doc_sequences": [list(seq) for seq in library.doc_sequences],
    }


def _library(data: dict) -> StepLibrary:
    steps = [
        Step(row["step_id"], row["raw_text"], row["normalized_text"]) for row in data["steps"]
    ]
    return StepLibrary(
        data["task_id"],
        steps,
        [(title, float(score)) for title, score in data.get("source_docs", [])],
        [list(seq) for seq in data.get("doc_sequences", [])],
    )


def library_from_json(data: dict) -> StepLibrary:
    library = _library(data)
    library.validate()
    return library


def save_library(library: StepLibrary, path: str | Path) -> None:
    write_json(library_to_json(library), path)


def load_library(path: str | Path) -> StepLibrary:
    """A malformed file is BadInput naming the path; a library that parses
    but fails validation raises as library_from_json does."""
    library = parse_checked(str(path), _library, read_json(path))
    library.validate()
    return library


def stats_to_json(stats: CorpusStats) -> dict:
    return {
        "reversal_rate": stats.reversal_rate,
        "mean_frequent_next_steps": stats.mean_frequent_next_steps,
        "mean_frequent_next_steps_all": stats.mean_frequent_next_steps_all,
        "frequency_threshold": stats.frequency_threshold,
    }
