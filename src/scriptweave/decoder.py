"""Step-constrained decoding over the path model.

The decoder works at step granularity: every emitted unit is a whole
library step, so each decoded path is a sequence of library step ids and
nothing outside the library can appear. Beam items carry step id
sequences and their accumulated log probability.
"""

from __future__ import annotations

import heapq
import math

from .corpus import StepLibrary, checked_float, checked_int, parse_rows
from .errors import EmptyLibrary, NoCompletion
# next_step_distribution stays bound here: perfbench/spans.py traces it under this name.
from .pathmodel import PathModel, next_step_distribution  # noqa: F401


class PrefixTrie:
    """The step inventory a decoder may emit: one library, one step per text
    (load_library refuses two steps with equal texts as near-duplicates)."""

    def __init__(self, library: StepLibrary):
        if not library.steps:
            raise EmptyLibrary("cannot build a trie over an empty library")
        self.library = library


def build_prefix_trie(library: StepLibrary) -> PrefixTrie:
    return PrefixTrie(library)


def constrained_beam_search(
    model: PathModel, trie: PrefixTrie, beam_width: int
) -> list[tuple[list[int], float]]:
    """Decode the most likely step paths, banning repeated steps.

    Returns up to beam_width completed paths sorted by log probability
    (descending, ties by sequence). Each path ends when the model emits
    END; its score is the raw accumulated log probability, the negation
    of sequence_nll for that path. No path repeats a step, so none is
    longer than the library's V steps, and the beam is empty by depth V.
    Raises NoCompletion when no path reaches END.

    Each depth scores every child of the beam from its parent's log-prob
    row and prefix score, skipping used steps and zero-probability moves.
    Active sequences are distinct and equally long, so the
    (-score, sequence) order of children is (-score, parent's rank in
    sequence order, next step id). Log probabilities are at most 0, so once
    beam_width paths have finished, an active item scoring below the worst
    of them can have no finishing descendant and is dropped; the search
    stops when no item is left.
    """
    if trie.library.texts() != model.library.texts():
        raise ValueError("trie and model were built over different libraries")
    if beam_width < 1:
        raise ValueError(f"beam_width must be at least 1, got {beam_width!r}")
    n_steps = len(model.library.steps)

    beam: list[tuple[tuple[int, ...], float]] = [((), 0.0)]
    finished: list[tuple[tuple[int, ...], float]] = []
    while beam:
        beam.sort()
        rows = [model.rows(seq)[1] for seq, _ in beam]
        for (seq, score), row in zip(beam, rows):
            end = score + row[n_steps]
            if end != -math.inf:
                finished.append((seq, end))
        finished.sort(key=lambda item: (-item[1], item[0]))
        del finished[beam_width:]

        floor = finished[-1][1] if len(finished) == beam_width else -math.inf
        children = heapq.nsmallest(
            beam_width,
            (
                (-(score + row[nxt]), rank, nxt)
                for rank, ((seq, score), row) in enumerate(zip(beam, rows))
                if score >= floor
                for nxt in set(range(n_steps)).difference(seq)
                if row[nxt] != -math.inf
            ),
        )
        beam = [(beam[rank][0] + (nxt,), -negated) for negated, rank, nxt in children]

    if not finished:
        raise NoCompletion("no path reached END")
    return [(list(seq), logprob) for seq, logprob in finished]


def decoded_to_rows(task_id: str, results) -> list[dict]:
    return [
        {"task_id": task_id, "steps": list(steps), "logprob": float(logprob)}
        for steps, logprob in results
    ]


def _decoded(row) -> tuple[list[int], float]:
    steps = [checked_int(s) for s in row["steps"]]
    if len(set(steps)) != len(steps):
        raise ValueError("path has repeated step ids")
    return steps, checked_float(row["logprob"])


def load_decoded(path, task_id: str) -> list[tuple[list[int], float]]:
    """Read decoded.jsonl; a malformed row or another task's raises BadInput naming path:line."""
    return parse_rows(path, _decoded, task_id=task_id)
