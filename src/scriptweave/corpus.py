"""Step corpora: normalization, deduplicated step libraries, and statistics.

The raw material is a set of candidate how-to documents (title plus an
ordered list of step texts) and a set of per-video step sequences, either
human annotations or ASR transcript pieces. This module turns document
steps into a canonical step library and computes corpus-level ordering
statistics over grounded sequences.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import re
import sys
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from .errors import BadInput, EmptyCorpus, EmptyStep, NoDocuments
from .jsonio import read_json, read_jsonl, write_json
from .record import Record

# Kept candidates must differ by at least this normalized edit distance.
DEDUP_DISTANCE = 0.1

_BRACKETED_RE = re.compile(r"\([^()]*\)|\[[^\[\]]*\]")
_EDGE_PUNCT_RE = re.compile(r"^[\W_]+|[\W_]+$")
_WHITESPACE_RE = re.compile(r"\s+")
_FLOAT_MAX = sys.float_info.max


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
    """Unit-cost edit distance between two sequences of hashable elements,
    such as strings (by character) and lists of step ids.

    Myers' (1999) bit-parallel recurrence in Hyyrö's edit-distance form: a
    column of the table over the shorter sequence is two ints of +1/-1
    vertical deltas (pv, mv), so each element of the longer costs a dozen
    int operations.

    >>> levenshtein("kitten", "sitting")
    3
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    match: dict = {}  # element -> bits of its positions in b
    for i, y in enumerate(b):
        match[y] = match.get(y, 0) | 1 << i
    mask, last = (1 << len(b)) - 1, 1 << (len(b) - 1)  # last: the bit of b's last row
    pv, mv, distance = mask, 0, len(b)
    for x in a:
        eq = match.get(x, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            distance += 1
        elif mh & last:
            distance -= 1
        ph = ph << 1 | 1  # row 0 holds j, so every horizontal delta there is +1
        pv = (mh << 1 | ~(xv | ph)) & mask
        mv = ph & xv
    return distance


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


def near_duplicate_pairs(texts: Sequence[str]) -> list[tuple[int, int]]:
    """Every (i, j) with i < j and normalized_levenshtein(texts[i], texts[j])
    < DEDUP_DISTANCE, in ascending order; the texts are str.

    With limit the largest edit count the longer text allows, an edit
    touches at most one of limit + 1 pieces of the longer text (the last
    takes the remainder), so within limit edits some piece is untouched and
    is a substring of the other. Each text's pieces are found in the texts
    joined by "\n" in order of length, within those at most limit
    characters shorter (the distance is at least the length difference),
    so the finder is never the shorter text; levenshtein confirms each pair
    against the finder's limit. A text holding "\n" only adds candidates.

    >>> near_duplicate_pairs(["mix it", "stir", "mix it"])
    [(0, 2)]
    """
    order = sorted(range(len(texts)), key=lambda i: len(texts[i]))
    lengths = [len(texts[i]) for i in order]
    joined = "\n".join(texts[i] for i in order)
    starts = list(itertools.accumulate((n + 1 for n in lengths), initial=0))
    candidates = {}  # (i, j) -> the limit of its finder, the text that found it
    for i in order:
        text = texts[i]
        limit = _max_near_duplicate_edits(len(text)) if text else 0  # "" has no ratio
        size = len(text) // (limit + 1)
        pieces = {text[k * size : (k + 1) * size] for k in range(limit)} | {text[limit * size :]}
        lo = starts[bisect.bisect_left(lengths, len(text) - limit)]
        hi = starts[bisect.bisect_right(lengths, len(text))]
        for piece in pieces:
            at = joined.find(piece, lo, hi)
            while 0 <= at < hi:  # "" is also found at hi, in the first longer text
                rank = bisect.bisect_right(starts, at) - 1
                if order[rank] != i:
                    candidates[min(i, order[rank]), max(i, order[rank])] = limit
                at = joined.find(piece, starts[rank + 1], hi)  # one hit per text is enough
    return sorted((i, j) for (i, j), limit in candidates.items()
                  if levenshtein(texts[i], texts[j]) <= limit)


def deduplicate_with_mapping(steps: Sequence[str]) -> tuple[list[str], list[int]]:
    """Drop near-duplicate step texts, keeping the earliest occurrence, and
    report, per input index, the kept index it maps to.

    A candidate is kept only when its normalized edit distance to every
    already-kept step is at least DEDUP_DISTANCE; a dropped one maps to its
    earliest kept near-duplicate.
    """
    distinct = list(dict.fromkeys(steps))  # a repeat maps where its first occurrence does
    earlier: dict[int, list[int]] = defaultdict(list)
    for i, j in near_duplicate_pairs(distinct):
        earlier[j].append(i)
    kept: dict[int, int] = {}  # index in distinct -> kept index, for the kept texts
    match_of: dict[str, int] = {}
    for j, text in enumerate(distinct):
        match = next((kept[i] for i in earlier[j] if i in kept), len(kept))
        if match == len(kept):
            kept[j] = match
        match_of[text] = match
    return [distinct[i] for i in kept], [match_of[step] for step in steps]


class TaskSpec(NamedTuple):
    task_id: str
    task_name: str


class Step(NamedTuple):
    step_id: int
    raw_text: str
    normalized_text: str


class StepLibrary(Record):
    """Deduplicated canonical steps for one task.

    source_docs records (title, score) per contributing document, where the
    score is the document's 1-based rank. doc_sequences holds each document's
    step order re-expressed as library step ids; the linear baseline in the
    evaluation harness consumes these.
    """

    _fields = ("task_id", "steps", "source_docs", "doc_sequences")

    def __init__(self, task_id: str, steps: list[Step], source_docs: list, doc_sequences: list):
        self.task_id, self.steps = task_id, steps
        self.source_docs, self.doc_sequences = source_docs, doc_sequences

    def __len__(self) -> int:
        return len(self.steps)

    def texts(self) -> list[str]:
        return [step.normalized_text for step in self.steps]

    def step_ids(self) -> list[int]:
        return [step.step_id for step in self.steps]

    def has(self, step_id: int) -> bool:
        return 0 <= step_id < len(self.steps)

    def validate(self) -> None:
        for i, step in enumerate(self.steps):
            if step.step_id != i:
                raise ValueError(f"step ids must be contiguous from 0, got {step.step_id!r} at {i}")
        stray = [s for seq in self.doc_sequences for s in seq if not self.has(s)]
        if stray:
            raise ValueError(f"document step id {stray[0]!r} not in the library")
        pairs = near_duplicate_pairs(self.texts())
        if pairs:
            raise ValueError(f"steps {pairs[0][0]} and {pairs[0][1]} are near-duplicates")


def build_step_library(
    task: TaskSpec, docs: Sequence[tuple[str, Sequence[str]]]
) -> StepLibrary:
    """Concatenate the ranked documents' steps into a deduplicated library.

    docs must already be ranked best-first and cut to the documents to
    use, as match_task_documents returns them. Steps that normalize to
    nothing are skipped.
    """
    if not docs:
        raise NoDocuments(f"no candidate documents for task {task.task_id!r}")

    normalized: list[str] = []
    raws: list[str] = []
    origins: list[int] = []
    for doc_index, (_, doc_steps) in enumerate(docs):
        for raw in doc_steps:
            try:
                text = normalize_step(raw)
            except EmptyStep:
                continue
            normalized.append(text)
            raws.append(raw)
            origins.append(doc_index)

    kept, mapping = deduplicate_with_mapping(normalized)
    first_raw: dict[int, str] = {}
    doc_sequences: list[list[int]] = [[] for _ in docs]
    for raw, origin, kept_index in zip(raws, origins, mapping):
        first_raw.setdefault(kept_index, raw)
        if kept_index not in doc_sequences[origin]:
            doc_sequences[origin].append(kept_index)
    steps = [Step(i, first_raw[i], text) for i, text in enumerate(kept)]
    source_docs = [(title, float(rank)) for rank, (title, _) in enumerate(docs, start=1)]
    return StepLibrary(task.task_id, steps, source_docs, doc_sequences)


class SequenceItem(NamedTuple):
    text: str
    start: float | None
    end: float | None


class RawSequenceRecord(Record):
    """One video's observed items, either annotations or ASR pieces."""

    _fields = ("video_id", "task_id", "kind", "items", "title")

    def __init__(self, video_id: str, task_id: str, kind: str, items: list, title: str | None):
        self.video_id, self.task_id = video_id, task_id
        self.kind = kind  # "labelled" or "asr"
        self.items, self.title = items, title

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


class CorpusStats(NamedTuple):
    """Ordering statistics over grounded sequences.

    mean_frequent_next_steps averages over steps that have at least one
    frequent successor; mean_frequent_next_steps_all divides by every step
    observed in the corpus instead.
    """

    reversal_rate: float
    mean_frequent_next_steps: float
    mean_frequent_next_steps_all: float
    frequency_threshold: int


def corpus_statistics(sequences, frequency_threshold: int) -> CorpusStats:
    """Measure how non-sequential a corpus of grounded sequences is.

    reversal_rate is the fraction of unordered step pairs, observed
    consecutively in either order, that were observed in both orders.
    A successor s' of step s counts as frequent when the consecutive pair
    (s, s') occurs in more than frequency_threshold distinct videos.
    """
    sequences = list(sequences)
    if not sequences:
        raise EmptyCorpus("corpus statistics need at least one sequence")

    pair_videos: dict[tuple[int, int], set[str]] = defaultdict(set)
    observed_steps: set[int] = set()
    for seq in sequences:
        ids = seq.step_ids
        observed_steps.update(ids)
        for a, b in zip(ids, ids[1:]):
            pair_videos[(a, b)].add(seq.video_id)

    reversed_pairs = sum(1 for a, b in pair_videos if a < b and (b, a) in pair_videos)
    unordered = len(pair_videos) - reversed_pairs
    reversal_rate = reversed_pairs / unordered if unordered else 0.0

    frequent_per_step: Counter[int] = Counter()
    for (a, _), videos in pair_videos.items():
        if len(videos) > frequency_threshold:
            frequent_per_step[a] += 1
    total_frequent = sum(frequent_per_step.values())
    mean_restricted = total_frequent / len(frequent_per_step) if frequent_per_step else 0.0
    mean_all = total_frequent / len(observed_steps) if observed_steps else 0.0
    return CorpusStats(reversal_rate, mean_restricted, mean_all, frequency_threshold)


# ---------------------------------------------------------------------------
# File formats


def parse_checked(where: str, parse: Callable, value):
    """parse(value); a KeyError, AttributeError, TypeError or ValueError it
    raises (a missing key or a value of the wrong type) is BadInput naming where."""
    try:
        return parse(value)
    except KeyError as exc:
        raise BadInput(f"{where}: missing key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise BadInput(f"{where}: {exc}") from None


def checked_int(value) -> int:
    """value when it is a JSON integer; a boolean, float or string is a ValueError."""
    if type(value) is not int:
        raise ValueError(f"invalid literal for an integer: {value!r}")
    return value


def is_finite(number: int | float) -> bool:
    """False for NaN, the infinities and an integer beyond the float range."""
    return -_FLOAT_MAX <= number <= _FLOAT_MAX


def checked_float(value, optional: bool = False) -> float | None:
    """value as a float when it is a finite JSON number (or null, when
    optional); a boolean, string, NaN or infinity is a ValueError."""
    if optional and value is None:
        return None
    if type(value) not in (int, float):
        raise ValueError(f"expected a number, got {value!r}")
    if not is_finite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def checked_str(value, what: str, optional: bool = False):
    """value when it is a JSON string (or null, when optional); else a ValueError naming what."""
    if type(value) is str or (optional and value is None):
        return value
    raise ValueError(f"{what} must be a string, got {value!r}")


def shown(value) -> str:
    """repr(value) for a message: in full up to 80 characters, else its start and '...'."""
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


def parse_rows(path: str | Path, parse: Callable, unique: str | None = None,
               task_id: str | None = None) -> list:
    """parse() each JSONL row; a row it rejects, repeats an earlier row's unique
    attribute or is of a task other than task_id raises BadInput naming path:line."""
    rows, seen = [], set()
    for lineno, row in read_jsonl(path):
        where = f"{path}:{lineno}"
        parsed = parse_checked(where, parse, row)
        if task_id is not None and (row_task := row.get("task_id")) != task_id:
            raise BadInput(f"{where}: row of task {shown(row_task)}, not of task {shown(task_id)}")
        if unique is not None:
            key = getattr(parsed, unique)
            if key in seen:
                raise BadInput(f"{where}: repeated {unique} {key!r}")
            seen.add(key)
        rows.append(parsed)
    return rows


def _task(row) -> TaskSpec:
    task_id = checked_str(row["task_id"], "task_id")
    task_name = checked_str(row["task_name"], "task_name")
    if not task_id or not task_name:
        raise ValueError("task_id and task_name must be non-empty")
    return TaskSpec(task_id, task_name)


def _candidate_doc(row) -> tuple[str, list[str]]:
    if type(row["steps"]) is not list:
        raise ValueError(f"document steps must be a list, got {row['steps']!r}")
    steps = [checked_str(step, "document step") for step in row["steps"]]
    return checked_str(row["title"], "document title"), steps


def _record(row) -> RawSequenceRecord:
    items = [
        SequenceItem(
            checked_str(item["text"], "item text"),
            checked_float(item.get("start"), optional=True),
            checked_float(item.get("end"), optional=True),
        )
        for item in row["items"]
    ]
    record = RawSequenceRecord(
        checked_str(row["video_id"], "video_id"), checked_str(row["task_id"], "task_id"),
        row["kind"], items, checked_str(row.get("title"), "title", optional=True),
    )
    record.validate()
    return record


def load_tasks(path: str | Path) -> list[TaskSpec]:
    return parse_rows(path, _task, unique="task_id")


def load_candidate_docs(path: str | Path) -> list[tuple[str, list[str]]]:
    return parse_rows(path, _candidate_doc)


def load_raw_records(path: str | Path) -> list[RawSequenceRecord]:
    return parse_rows(path, _record, unique="video_id")


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


def _normalized_text(value) -> str:
    """value when normalize_step leaves it unchanged; anything else is a ValueError."""
    text = checked_str(value, "normalized_text")
    try:
        unchanged = normalize_step(text) == text
    except EmptyStep:
        unchanged = False
    if not unchanged:
        raise ValueError(f"normalized_text {text!r} is not a normalized step text")
    return text


def library_from_json(data: dict) -> StepLibrary:
    steps = [
        Step(
            checked_int(row["step_id"]),
            checked_str(row["raw_text"], "raw_text"),
            _normalized_text(row["normalized_text"]),
        )
        for row in data["steps"]
    ]
    library = StepLibrary(
        checked_str(data["task_id"], "task_id"),
        steps,
        [
            (checked_str(title, "source document title"), checked_float(score))
            for title, score in data["source_docs"]
        ],
        [[checked_int(s) for s in seq] for seq in data["doc_sequences"]],
    )
    library.validate()
    return library


def save_library(library: StepLibrary, path: str | Path) -> None:
    write_json(library_to_json(library), path)


def load_library(path: str | Path) -> StepLibrary:
    """A malformed file, or a library that fails validation, is BadInput naming the path."""
    return parse_checked(str(path), library_from_json, read_json(path))

