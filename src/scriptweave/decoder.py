"""Step-constrained decoding over the path model.

The decoder works at step granularity: every emitted unit is a whole
library step, so each decoded path is a sequence of library step ids and
nothing outside the library can appear. Beam items carry step id
sequences and their accumulated log probability.
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING

from .corpus import StepLibrary, checked_float, checked_int, parse_rows
from .errors import EmptyLibrary, NoCompletion
# next_step_distribution stays bound here: perfbench/spans.py traces it under this name.
from .pathmodel import PathModel, next_step_distribution  # noqa: F401

if TYPE_CHECKING:
    from .cli import PipelineConfig


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
    model: PathModel, trie: PrefixTrie, cfg: PipelineConfig
) -> list[tuple[list[int], float]]:
    """Decode the most likely step paths, banning repeated steps.

    Returns up to cfg.beam_width completed paths sorted by log probability
    (descending, ties by sequence). Each path ends when the model emits
    END; its score is the raw accumulated log probability, the negation
    of sequence_nll for that path. Raises NoCompletion when nothing
    reaches END within cfg.max_steps (unset: V, the longest repeat-free path).

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
    n_steps = len(model.library.steps)
    max_steps = cfg.max_steps if cfg.max_steps is not None else n_steps

    beam: list[tuple[tuple[int, ...], float]] = [((), 0.0)]
    finished: list[tuple[tuple[int, ...], float]] = []
    for depth in range(max_steps + 1):
        beam.sort()
        rows = [model.rows(seq)[1] for seq, _ in beam]
        for (seq, score), row in zip(beam, rows):
            end = score + row[n_steps]
            if end != -math.inf:
                finished.append((seq, end))
        finished.sort(key=lambda item: (-item[1], item[0]))
        del finished[cfg.beam_width :]
        if depth == max_steps:
            break

        floor = finished[-1][1] if len(finished) == cfg.beam_width else -math.inf
        children = heapq.nsmallest(
            cfg.beam_width,
            (
                (-(score + row[nxt]), rank, nxt)
                for rank, ((seq, score), row) in enumerate(zip(beam, rows))
                if score >= floor
                for nxt in set(range(n_steps)).difference(seq)
                if row[nxt] != -math.inf
            ),
        )
        beam = [(beam[rank][0] + (nxt,), -negated) for negated, rank, nxt in children]
        if not beam:
            break

    if not finished:
        raise NoCompletion(f"no path reached END within {max_steps} steps")
    return [(list(seq), logprob) for seq, logprob in finished]


def decoded_to_rows(task_id: str, results) -> list[dict]:
    return [
        {"task_id": task_id, "steps": list(steps), "logprob": float(logprob)}
        for steps, logprob in results
    ]


def _decoded(row) -> tuple[list[int], float]:
    return [checked_int(s) for s in row["steps"]], checked_float(row["logprob"])


def load_decoded(path) -> list[tuple[list[int], float]]:
    """Read decoded.jsonl; a malformed row raises BadInput naming path:line."""
    return parse_rows(path, _decoded)
