"""Step-constrained decoding over the path model.

The decoder works at step granularity: every emitted unit is a whole
library step, so each decoded path is a sequence of library step ids and
nothing outside the library can appear. Beam items carry step id
sequences and their accumulated log probability.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import StepLibrary
from .errors import EmptyLibrary, NoCompletion
# next_step_distribution stays bound here: perfbench/spans.py traces it under this name.
from .pathmodel import PathModel, next_step_distribution  # noqa: F401


@dataclass
class DecodeConfig:
    beam_width: int = 40
    max_steps: int | None = None  # None: twice the library size

    def __post_init__(self):
        if self.beam_width < 1:
            raise ValueError("beam_width must be at least 1")
        if self.max_steps is not None and self.max_steps < 0:
            raise ValueError("max_steps must be non-negative")


class PrefixTrie:
    """The step inventory a decoder may emit: one library, one step per text."""

    def __init__(self, library: StepLibrary):
        if not library.steps:
            raise EmptyLibrary("cannot build a trie over an empty library")
        owners: dict[tuple[str, ...], int] = {}
        for step in library.steps:
            tokens = tuple(step.normalized_text.split())
            if tokens in owners:
                raise ValueError(
                    f"steps {owners[tokens]} and {step.step_id} share the token "
                    f"sequence {' '.join(tokens)!r}"
                )
            owners[tokens] = step.step_id
        self.library = library


def build_prefix_trie(library: StepLibrary) -> PrefixTrie:
    return PrefixTrie(library)


def constrained_beam_search(
    model: PathModel, trie: PrefixTrie, cfg: DecodeConfig | None = None
) -> list[tuple[list[int], float]]:
    """Decode the most likely step paths, banning repeated steps.

    Returns up to beam_width completed paths sorted by log probability
    (descending, ties by sequence). Each path ends when the model emits
    END; its score is the raw accumulated log probability, the negation
    of sequence_nll for that path. Raises NoCompletion when nothing
    reaches END within max_steps.

    Each depth expands the whole beam at once: one log-prob row per item
    plus its prefix score, with used steps and zero-probability moves
    masked out. Active sequences are distinct and equally long, so the
    (-score, sequence) order of children is (-score, parent's rank in
    sequence order, next step id).
    """
    import numpy as np

    cfg = cfg or DecodeConfig()
    if trie.library.texts() != model.library.texts():
        raise ValueError("trie and model were built over different libraries")
    n_steps = len(model.library.steps)
    max_steps = cfg.max_steps if cfg.max_steps is not None else 2 * n_steps

    seqs: list[tuple[int, ...]] = [()]
    scores = np.zeros(1)
    used = np.zeros((1, n_steps), dtype=bool)
    finished: list[tuple[tuple[int, ...], float]] = []
    for depth in range(max_steps + 1):
        if not seqs:
            break
        totals = scores[:, None] + np.stack([model.rows(seq)[1] for seq in seqs])
        ends = totals[:, n_steps].tolist()
        finished.extend((seq, end) for seq, end in zip(seqs, ends) if end != -np.inf)
        finished.sort(key=lambda item: (-item[1], item[0]))
        del finished[cfg.beam_width :]
        if depth == max_steps:
            break

        steps = totals[:, :n_steps]
        steps[used] = -np.inf
        parents, nexts = np.nonzero(steps != -np.inf)
        rank = np.empty(len(seqs), dtype=np.int64)
        rank[sorted(range(len(seqs)), key=seqs.__getitem__)] = np.arange(len(seqs))
        values = steps[parents, nexts]
        keep = np.lexsort((nexts, rank[parents], -values))[: cfg.beam_width]
        parents, nexts = parents[keep], nexts[keep]
        seqs = [seqs[p] + (n,) for p, n in zip(parents.tolist(), nexts.tolist())]
        scores = values[keep]
        used = used[parents]
        used[np.arange(len(seqs)), nexts] = True

    if not finished:
        raise NoCompletion(f"no path reached END within {max_steps} steps")
    return [(list(seq), logprob) for seq, logprob in finished]


def decoded_to_rows(task_id: str, results) -> list[dict]:
    return [
        {"task_id": task_id, "steps": list(steps), "logprob": float(logprob)}
        for steps, logprob in results
    ]


def rows_to_decoded(rows) -> list[tuple[list[int], float]]:
    return [([int(s) for s in row["steps"]], float(row["logprob"])) for row in rows]
