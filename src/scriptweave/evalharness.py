"""Next-step prediction and sequence completion evaluation.

Sequences are split at the video level into train and test; every proper
prefix of a test sequence becomes an evaluation example. Identical
prefixes from different videos merge into one example whose gold sets
union, so a prediction is correct when it matches any observed
continuation.

Acc@3 is a hit rate: it counts an example as correct when any of the top
three predictions lands in the gold set. Completion distances are
unit-cost edit distances over step ids, taken against the nearest gold
completion and normalized by the longer of the two sequences.
"""

from __future__ import annotations

import random
from typing import Sequence

from .corpus import StepLibrary, levenshtein
from .errors import LengthMismatch, TooFewSequences
from .grounding import GroundedSequence
# next_step_distribution stays bound here: perfbench/spans.py traces it under this name.
from .pathmodel import PathModel, check_steps, next_step_distribution  # noqa: F401
from .record import Record


class EvalExample(Record):
    _fields = ("prefix", "gold_next", "gold_completions")

    def __init__(self, prefix: tuple[int, ...], gold_next: set, gold_completions: set):
        self.prefix, self.gold_next, self.gold_completions = prefix, gold_next, gold_completions


class EvalSplit(Record):
    _fields = ("train", "test_examples")

    def __init__(self, train: list[GroundedSequence], test_examples: list[EvalExample]):
        self.train, self.test_examples = train, test_examples


def build_eval_splits(
    sequences: Sequence[GroundedSequence], train_fraction: float, rng_seed: int
) -> EvalSplit:
    """Shuffle sequences, split by video, and expand test prefixes.

    The train side receives floor(train_fraction * n) sequences, clamped
    so both sides stay non-empty. Test examples are ordered by prefix for
    reproducibility.
    """
    sequences = list(sequences)
    if len(sequences) < 2:
        raise TooFewSequences("need at least two sequences to split")
    order = list(sequences)
    random.Random(rng_seed).shuffle(order)
    n_train = min(max(int(len(order) * train_fraction), 1), len(order) - 1)
    train, test = order[:n_train], order[n_train:]

    examples: dict[tuple[int, ...], EvalExample] = {}
    for seq in test:
        ids = seq.step_ids
        for cut in range(1, len(ids)):
            prefix = tuple(ids[:cut])
            example = examples.setdefault(prefix, EvalExample(prefix, set(), set()))
            example.gold_next.add(ids[cut])
            example.gold_completions.add(tuple(ids[cut:]))
    ordered = [examples[prefix] for prefix in sorted(examples)]
    return EvalSplit(train, ordered)


def _check_aligned(predictions: Sequence, split: EvalSplit) -> None:
    if len(predictions) != len(split.test_examples):
        raise LengthMismatch(f"{len(predictions)} predictions for {len(split.test_examples)} examples")


def next_step_metrics(predictions: Sequence[Sequence[int]], split: EvalSplit) -> dict[str, float]:
    """Macro-averaged Acc@1, Acc@3 (hit rate), Prec@3, Rec@3, F1@3.

    predictions[i] is a ranked list of step ids for test example i.
    """
    _check_aligned(predictions, split)
    if not predictions:
        return {"Acc@1": 0.0, "Acc@3": 0.0, "Prec@3": 0.0, "Rec@3": 0.0, "F1@3": 0.0}
    acc1 = acc3 = prec3 = rec3 = f13 = 0.0
    for ranked, example in zip(predictions, split.test_examples):
        gold = example.gold_next
        top3 = set(ranked[:3])
        hits = len(top3 & gold)
        acc1 += 1.0 if ranked and ranked[0] in gold else 0.0
        acc3 += 1.0 if hits else 0.0
        precision = hits / 3
        recall = hits / len(gold)
        prec3 += precision
        rec3 += recall
        if precision + recall > 0:
            f13 += 2 * precision * recall / (precision + recall)
    n = len(predictions)
    return {
        "Acc@1": acc1 / n,
        "Acc@3": acc3 / n,
        "Prec@3": prec3 / n,
        "Rec@3": rec3 / n,
        "F1@3": f13 / n,
    }


def completion_metrics(predictions: Sequence[Sequence[int]], split: EvalSplit) -> dict[str, float]:
    """Exact-match rate and edit distances against the nearest gold completion."""
    _check_aligned(predictions, split)
    if not predictions:
        return {"Acc@1": 0.0, "EditDist": 0.0, "NormalizedEditDist": 0.0}
    acc = dist_sum = norm_sum = 0.0
    for predicted, example in zip(predictions, split.test_examples):
        predicted = list(predicted)
        best: tuple[int, float] | None = None
        for gold in sorted(example.gold_completions):
            distance = levenshtein(predicted, gold)
            longest = max(len(predicted), len(gold))
            normalized = distance / longest if longest else 0.0
            if best is None or (distance, normalized) < best:
                best = (distance, normalized)
        assert best is not None  # gold_completions is never empty
        acc += 1.0 if best[0] == 0 else 0.0
        dist_sum += best[0]
        norm_sum += best[1]
    n = len(predictions)
    return {"Acc@1": acc / n, "EditDist": dist_sum / n, "NormalizedEditDist": norm_sum / n}


def _unused_steps(kind, split, library) -> list[tuple[tuple, set, list[int]]]:
    """(prefix, its step set, library steps not in it) per test example."""
    if kind not in ("random", "linear"):
        raise ValueError(f"unknown baseline {kind!r}")
    all_ids = library.step_ids()
    used_sets = [(example.prefix, set(example.prefix)) for example in split.test_examples]
    return [(prefix, used, [s for s in all_ids if s not in used]) for prefix, used in used_sets]


def baseline_predict(
    kind: str, split: EvalSplit, library: StepLibrary, rng_seed: int
) -> list[list[int]]:
    """Ranked next-step predictions for the random or linear baseline.

    random: a uniform shuffle of the steps not in the prefix. linear:
    the continuation read off the best-matching order in
    library.doc_sequences containing the prefix tail (skipping
    already-used steps), padded with the remaining steps in random order;
    falls back to random when no document contains the tail.
    """
    rng = random.Random(rng_seed)
    predictions = []
    for prefix, used, remaining in _unused_steps(kind, split, library):
        head = _linear_completion(prefix, used, library) if kind == "linear" else []
        rest = [step_id for step_id in remaining if step_id not in head] if head else remaining
        rng.shuffle(rest)
        predictions.append(head + rest)
    return predictions


def baseline_complete(
    kind: str, split: EvalSplit, library: StepLibrary, rng_seed: int
) -> list[list[int]]:
    """Completion predictions for the baselines.

    random: a random-length random continuation over unused steps.
    linear: the rest of the best-matching order in library.doc_sequences,
    falling back to random.
    """
    rng = random.Random(rng_seed)
    predictions = []
    for prefix, used, remaining in _unused_steps(kind, split, library):
        completion = _linear_completion(prefix, used, library) if kind == "linear" else []
        if not completion:
            rng.shuffle(remaining)
            completion = remaining[: rng.randint(1, len(remaining)) if remaining else 0]
        predictions.append(completion)
    return predictions


def _linear_completion(prefix, used, library) -> list[int]:
    """Unused steps after the prefix's last step in the first document with any, else []."""
    tail = prefix[-1]
    for doc in library.doc_sequences:
        if tail in doc:
            continuation = [s for s in doc[doc.index(tail) + 1 :] if s not in used]
            if continuation:
                return continuation
    return []


def model_predict_next(model: PathModel, split: EvalSplit) -> list[list[int]]:
    """Rank unused library steps by model probability for each example.

    Ties go to the lowest step id.
    """
    n_steps = len(model.library.steps)
    predictions = []
    for example in split.test_examples:
        check_steps(example.prefix, model.library)
        prob = model.rows(example.prefix)[0][:n_steps]
        used = set(example.prefix)
        ranked = sorted(range(n_steps), key=lambda step_id: -prob[step_id])
        predictions.append([step_id for step_id in ranked if step_id not in used])
    return predictions


def greedy_completion(model: PathModel, prefix: Sequence[int], max_steps: int | None) -> list[int]:
    """Most-likely continuation of a prefix until END, banning repeats.

    At most max_steps steps (None: twice the library size). Ties go to END
    first, then the lowest step id, so the result is deterministic.
    Returns only the continuation, without the prefix.
    """
    n_steps = len(model.library.steps)
    cap = max_steps if max_steps is not None else 2 * n_steps
    sequence = list(prefix)
    check_steps(sequence, model.library)
    start = len(sequence)
    used = set(sequence)
    for _ in range(cap):
        prob = model.rows(sequence)[0]
        # First maximum over [END, 0..V-1] among unused steps, so ties go to END.
        best, nxt = prob[n_steps], -1
        for step_id in range(n_steps):
            if prob[step_id] > best and step_id not in used:
                best, nxt = prob[step_id], step_id
        if nxt < 0:
            break
        sequence.append(nxt)
        used.add(nxt)
    return sequence[start:]


def model_complete(model: PathModel, split: EvalSplit, max_steps: int | None) -> list[list[int]]:
    """Greedy most-likely continuation for every test example."""
    return [greedy_completion(model, example.prefix, max_steps) for example in split.test_examples]


def metrics_table(rows: dict[str, dict[str, dict[str, float]]]) -> str:
    """Fixed-width report with one section per metric family."""

    def section(title: str, family: str, columns: list[str]) -> list[str]:
        widths = [max(len(c) + 2, 10) for c in columns]
        header = f"{'system':<12}" + "".join(f"{c:>{w}}" for c, w in zip(columns, widths))
        lines = [title, header, "-" * len(header)]
        for system in sorted(rows):
            values = rows[system][family]
            lines.append(
                f"{system:<12}" + "".join(f"{values[c]:>{w}.3f}" for c, w in zip(columns, widths))
            )
        return lines

    lines = section("next step", "next_step", ["Acc@1", "Acc@3", "Prec@3", "Rec@3", "F1@3"])
    lines.append("")
    lines += section("completion", "completion", ["Acc@1", "EditDist", "NormalizedEditDist"])
    return "\n".join(lines) + "\n"
