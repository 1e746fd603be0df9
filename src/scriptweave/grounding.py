"""Grounding noisy video items onto a task's canonical step library.

Annotated videos are matched one-to-one by greedy descending-score
assignment; narrated videos are cut into transcript pieces first and each
piece keeps its best-scoring step. Both paths emit GroundedSequence
objects whose step ids index the library.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .corpus import RawSequenceRecord, Step, StepLibrary, TaskSpec
from .corpus import checked_float, checked_int, checked_str, parse_rows
from .errors import EmptySequence, NoDocuments
# read_jsonl stays bound here: perfbench/spans.py traces it under this name.
from .jsonio import read_jsonl, write_jsonl  # noqa: F401
from .record import Record
from .similarity import SimilarityProvider, tokenize

if TYPE_CHECKING:
    from .cli import PipelineConfig

# Generic words ignored when extracting task-name keywords.
_KEYWORD_STOPWORDS = frozenset(
    {"a", "an", "and", "for", "how", "in", "of", "on", "or", "the", "to", "with", "your"}
)


class GroundedSequence(Record):
    """One video rendered as an ordered list of distinct library step ids."""

    _fields = ("video_id", "task_id", "step_ids", "scores", "dropped")

    def __init__(self, video_id: str, task_id: str, step_ids: list[int], scores: list, dropped: int):
        self.video_id, self.task_id = video_id, task_id
        self.step_ids, self.scores, self.dropped = step_ids, scores, dropped
        if not self.step_ids:
            raise EmptySequence(f"video {self.video_id!r} grounded to an empty sequence")
        if len(set(self.step_ids)) != len(self.step_ids):
            raise ValueError(f"video {self.video_id!r} has repeated step ids")
        if len(self.scores) != len(self.step_ids):
            raise ValueError(f"video {self.video_id!r} has misaligned scores")


def task_keywords(task_name: str) -> set[str]:
    return {token for token in tokenize(task_name) if token not in _KEYWORD_STOPWORDS}


def match_task_documents(
    task: TaskSpec,
    all_docs: Sequence[tuple[str, Sequence[str]]],
    provider: SimilarityProvider,
    cfg: PipelineConfig,
) -> list[tuple[str, Sequence[str]]]:
    """Pick the documents most likely describing this task.

    Titles must contain at least keyword_threshold of the task-name
    keywords (relaxed once when too few pass). Survivors are ranked by
    title similarity to the task name, best first, and the top_m_docs
    best are returned. Ties keep their input order.
    """
    if not all_docs:
        raise NoDocuments(f"no candidate documents for task {task.task_id!r}")
    keywords = task_keywords(task.task_name)

    def coverage(title: str) -> float:
        if not keywords:
            return 1.0
        return len(keywords & set(tokenize(title))) / len(keywords)

    passing = [doc for doc in all_docs if coverage(doc[0]) >= cfg.keyword_threshold]
    if len(passing) < cfg.top_m_docs:
        passing = [doc for doc in all_docs if coverage(doc[0]) >= cfg.relaxed_keyword_threshold]
    if not passing:
        raise NoDocuments(
            f"no document title matches task {task.task_id!r} even after relaxing"
        )
    ranked = sorted(passing, key=lambda doc: -provider.similarity(doc[0], task.task_name))
    return ranked[: cfg.top_m_docs]


def ground_labelled_sequence(
    record: RawSequenceRecord, library: StepLibrary, provider: SimilarityProvider, k1: float
) -> GroundedSequence:
    """Ground human annotations by greedy one-to-one assignment.

    All annotation/step pairs scoring at least k1 are visited in
    descending score order (ties: earlier annotation, then lower step id)
    and a pair is assigned when both sides are still free. Annotations
    left unassigned count as dropped. Output follows annotation order.
    """
    if record.kind != "labelled":
        raise ValueError(f"record {record.video_id!r} is not a labelled record")
    texts = [item.text for item in record.items]
    step_texts = library.texts()

    similarity = provider.similarity
    pairs = []
    for i, text in enumerate(texts):
        for j, step_text in enumerate(step_texts):
            score = similarity(text, step_text)
            if score >= k1:
                pairs.append((score, i, j))
    pairs.sort(key=lambda p: (-p[0], p[1], p[2]))

    assigned: dict[int, tuple[int, float]] = {}
    taken_steps: set[int] = set()
    for score, i, j in pairs:
        if i in assigned or j in taken_steps:
            continue
        assigned[i] = (j, score)
        taken_steps.add(j)

    step_ids = []
    scores = []
    for i in sorted(assigned):
        j, score = assigned[i]
        step_ids.append(j)
        scores.append(score)
    dropped = len(texts) - len(assigned)
    return GroundedSequence(record.video_id, record.task_id, step_ids, scores, dropped)


def preprocess_asr(items: Sequence[str], cfg: PipelineConfig) -> list[str]:
    """Clean and re-chunk transcript items.

    Items in which the tokens of any stop phrase occur consecutively are
    removed: a substring test on space-joined tokens, padded with a space at
    each end. Kept items are then concatenated left-to-right until each
    piece exceeds asr_min_words words. A short trailing remainder is folded
    into the previous piece; when the whole input is shorter than the
    minimum it becomes a single piece.

    >>> from scriptweave.cli import PipelineConfig
    >>> cfg = PipelineConfig(stop_words=("like and subscribe",), asr_min_words=3)
    >>> preprocess_asr(["Chop onions", "Like, and SUBSCRIBE!", "subscribe? no", "fry them"], cfg)
    ['Chop onions subscribe? no fry them']
    """
    phrases = [f" {' '.join(tokens)} " for tokens in map(tokenize, cfg.stop_words) if tokens]
    padded = (f" {' '.join(tokenize(text))} " for text in items)
    kept = [text for text, line in zip(items, padded) if not any(p in line for p in phrases)]

    pieces: list[str] = []
    buffer: list[str] = []
    words = 0
    for text in kept:
        buffer.append(text)
        words += len(text.split())
        if words > cfg.asr_min_words:
            pieces.append(" ".join(buffer))
            buffer = []
            words = 0
    if buffer:
        remainder = " ".join(buffer)
        if pieces:
            pieces[-1] = pieces[-1] + " " + remainder
        else:
            pieces.append(remainder)
    return pieces


def ground_asr_sequence(
    record: RawSequenceRecord,
    library: StepLibrary,
    provider: SimilarityProvider,
    cfg: PipelineConfig,
) -> GroundedSequence:
    """Ground a narrated video: best-scoring step per transcript piece.

    Pieces whose best score falls below k3 are dropped. Repeated step ids
    collapse onto their first occurrence. The caller is responsible for
    having accepted the video at task level first (see
    video_passes_task_filter).
    """
    if record.kind != "asr":
        raise ValueError(f"record {record.video_id!r} is not an asr record")
    pieces = preprocess_asr([item.text for item in record.items], cfg)
    step_texts = library.texts()

    similarity, k3 = provider.similarity, cfg.k3
    step_ids: list[int] = []
    scores: list[float] = []
    seen: set[int] = set()
    dropped = 0
    for piece in pieces:
        best_id = -1
        best = float("-inf")
        for j, step_text in enumerate(step_texts):
            score = similarity(piece, step_text)
            if score > best:
                best = score
                best_id = j
        if best_id < 0 or best < k3:
            dropped += 1
            continue
        if best_id in seen:
            continue
        seen.add(best_id)
        step_ids.append(best_id)
        scores.append(best)
    return GroundedSequence(record.video_id, record.task_id, step_ids, scores, dropped)


def video_passes_task_filter(
    video_title: str, task: TaskSpec, provider: SimilarityProvider, k2: float
) -> bool:
    """Whether a narrated video is similar enough to the task to ground at all."""
    return provider.similarity(video_title, task.task_name) >= k2


def prune_unused_steps(
    library: StepLibrary, sequences: Sequence[GroundedSequence]
) -> tuple[StepLibrary, list[GroundedSequence]]:
    """Drop library steps never used by any sequence and re-densify ids.

    Kept steps keep their relative order; sequences are remapped onto the
    new ids. Step ids change, so anything derived from the old library
    must be rebuilt.
    """
    used = sorted({step_id for seq in sequences for step_id in seq.step_ids})
    remap = {old: new for new, old in enumerate(used)}
    steps = [
        Step(remap[s.step_id], s.raw_text, s.normalized_text)
        for s in library.steps
        if s.step_id in remap
    ]
    doc_sequences = [
        [remap[sid] for sid in seq if sid in remap] for seq in library.doc_sequences
    ]
    new_library = StepLibrary(library.task_id, steps, list(library.source_docs), doc_sequences)
    new_sequences = [
        GroundedSequence(
            seq.video_id,
            seq.task_id,
            [remap[sid] for sid in seq.step_ids],
            list(seq.scores),
            seq.dropped,
        )
        for seq in sequences
    ]
    return new_library, new_sequences


def grounded_to_json(seq: GroundedSequence) -> dict:
    return {
        "video_id": seq.video_id,
        "task_id": seq.task_id,
        "step_ids": list(seq.step_ids),
        "scores": [float(s) for s in seq.scores],
        "dropped": seq.dropped,
    }


def grounded_from_json(row: dict) -> GroundedSequence:
    return GroundedSequence(
        checked_str(row["video_id"], "video_id"),
        checked_str(row["task_id"], "task_id"),
        [checked_int(s) for s in row["step_ids"]],
        [checked_float(s) for s in row["scores"]],
        checked_int(row["dropped"]),
    )


def save_grounded(sequences: Sequence[GroundedSequence], path) -> None:
    write_jsonl([grounded_to_json(seq) for seq in sequences], path)


def load_grounded(path) -> list[GroundedSequence]:
    """A row that is not a grounded sequence, or repeats a video_id, raises BadInput naming path:line."""
    return parse_rows(path, grounded_from_json, unique="video_id")
