"""Next-step prediction and sequence completion evaluation.

Sequences are split at the video level into train and test; every proper
prefix of a test sequence becomes an evaluation example. Identical
prefixes from different videos merge into one example whose gold sets
union, so a prediction is correct when it matches any observed
continuation.

Acc@3 is a hit rate: 1 for an example when any of the top three
predictions is gold, and a ranking stops there (TOP_K). Completion
distances are unit-cost edit distances over step ids, taken against the
nearest gold completion and normalized by the longer of the two.
"""

from __future__ import annotations

import heapq
import random
from typing import Sequence

from .corpus import StepLibrary, levenshtein
from .errors import LengthMismatch, TooFewSequences
from .grounding import GroundedSequence
# next_step_distribution stays bound here: perfbench/spans.py traces it under this name.
from .pathmodel import PathModel, check_steps, next_step_distribution  # noqa: F401
from .record import Record

TOP_K = 3  # the cut of a next-step ranking: Acc@3, Prec@3, Rec@3 and F1@3 read this many


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
    order = list(sequences)
    if len(order) < 2:
        raise TooFewSequences("need at least two sequences to split")
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
    """Macro-averaged Acc@1, Acc@3 (hit rate), Prec@3, Rec@3, F1@3; 0.0 with no examples.

    predictions[i] is a ranked list of step ids for test example i.
    """
    _check_aligned(predictions, split)
    acc1 = acc3 = prec3 = rec3 = f13 = 0.0
    for ranked, example in zip(predictions, split.test_examples):
        gold = example.gold_next
        top = set(ranked[:TOP_K])
        hits = len(top & gold)
        acc1 += 1.0 if ranked and ranked[0] in gold else 0.0
        acc3 += 1.0 if hits else 0.0
        precision = hits / TOP_K
        recall = hits / len(gold)
        prec3 += precision
        rec3 += recall
        if precision + recall > 0:
            f13 += 2 * precision * recall / (precision + recall)
    n = len(predictions) or 1
    return {
        "Acc@1": acc1 / n,
        "Acc@3": acc3 / n,
        "Prec@3": prec3 / n,
        "Rec@3": rec3 / n,
        "F1@3": f13 / n,
    }


def completion_metrics(predictions: Sequence[Sequence[int]], split: EvalSplit) -> dict[str, float]:
    """Exact-match rate and edit distances to the nearest gold completion; 0.0 with no examples."""
    _check_aligned(predictions, split)
    acc = dist_sum = norm_sum = 0.0
    for predicted, example in zip(predictions, split.test_examples):
        predicted = list(predicted)
        best = None  # gold_completions is never empty, and its order does not change the minimum
        for gold in example.gold_completions:
            distance = levenshtein(predicted, gold)
            longest = max(len(predicted), len(gold))
            candidate = (distance, distance / longest if longest else 0.0)
            if best is None or candidate < best:
                best = candidate
        acc += 1.0 if best[0] == 0 else 0.0
        dist_sum += best[0]
        norm_sum += best[1]
    n = len(predictions) or 1
    return {"Acc@1": acc / n, "EditDist": dist_sum / n, "NormalizedEditDist": norm_sum / n}


def unused_steps(split: EvalSplit, library: StepLibrary) -> list[list[int]]:
    """The library steps not in each test example's prefix, in id order."""
    all_ids = library.step_ids()
    used_sets = (set(example.prefix) for example in split.test_examples)
    return [[s for s in all_ids if s not in used] for used in used_sets]


def _baseline_inputs(kind, split, library, unused) -> zip:
    """(example, its unused steps) per test example; unused is computed when None."""
    if kind not in ("random", "linear"):
        raise ValueError(f"unknown baseline {kind!r}")
    return zip(split.test_examples, unused_steps(split, library) if unused is None else unused)


def baseline_predict(
    kind: str, split: EvalSplit, library: StepLibrary, rng_seed: int, unused: list | None = None
) -> list[list[int]]:
    """Ranked next-step predictions for the random or linear baseline.

    Each ranking is a head, then min(TOP_K - len(head), len(rest)) steps
    drawn uniformly without replacement from the rest of the steps not in
    the prefix, cut to TOP_K. The head is empty for random; for linear it
    is _linear_completion's continuation. unused is unused_steps(split,
    library), when the caller already has it.
    """
    rng = random.Random(rng_seed)
    predictions = []
    for example, remaining in _baseline_inputs(kind, split, library, unused):
        head = _linear_completion(example.prefix, library) if kind == "linear" else []
        taken = set(head)
        rest = [step_id for step_id in remaining if step_id not in taken] if head else remaining
        drawn = rng.sample(rest, min(max(TOP_K - len(head), 0), len(rest)))
        predictions.append((head + drawn)[:TOP_K])
    return predictions


def baseline_complete(
    kind: str, split: EvalSplit, library: StepLibrary, rng_seed: int, unused: list | None = None
) -> list[list[int]]:
    """Completion predictions for the baselines.

    random: rng.randint(1, n) of the n unused steps, drawn uniformly
    without replacement, or [] when every step is used. linear:
    _linear_completion's continuation, falling back to random when it is
    empty. unused is as for baseline_predict.
    """
    rng = random.Random(rng_seed)
    predictions = []
    for example, remaining in _baseline_inputs(kind, split, library, unused):
        completion = _linear_completion(example.prefix, library) if kind == "linear" else []
        if not completion and remaining:
            completion = rng.sample(remaining, rng.randint(1, len(remaining)))
        predictions.append(completion)
    return predictions


def _linear_completion(prefix, library) -> list[int]:
    """The steps after the prefix's last step, less those in the prefix, in the
    first of library.doc_sequences that holds that step and leaves any; else []."""
    tail, used = prefix[-1], set(prefix)
    for doc in library.doc_sequences:
        if tail in doc:
            continuation = [s for s in doc[doc.index(tail) + 1 :] if s not in used]
            if continuation:
                return continuation
    return []


def model_predict_next(model: PathModel, split: EvalSplit) -> list[list[int]]:
    """The TOP_K most probable library steps not in each example's prefix, best first.

    Ties go to the lowest step id.
    """
    n_steps = len(model.library.steps)
    predictions = []
    for example in split.test_examples:
        check_steps(example.prefix, model.library)
        prob = model.rows(example.prefix)[0]
        used = set(example.prefix)
        unused = (step_id for step_id in range(n_steps) if step_id not in used)
        predictions.append(heapq.nsmallest(TOP_K, unused, key=lambda step_id: -prob[step_id]))
    return predictions


def greedy_completion(model: PathModel, prefix: Sequence[int], max_steps: int | None) -> list[int]:
    """Most-likely continuation of a prefix until END, banning repeats.

    At most max_steps steps (None: V, which binds no repeat-free path). Ties
    go to END first, then the lowest step id, so the result is deterministic.
    Returns only the continuation, without the prefix.
    """
    n_steps = len(model.library.steps)
    cap = max_steps if max_steps is not None else n_steps
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
    """Fixed-width report: a section per metric family (next_step titled "next
    step") and a column per metric, in the order the first system holds them,
    with the systems by name in each section."""
    lines = []
    for family, columns in next(iter(rows.values()), {}).items():
        widths = [max(len(c) + 2, 10) for c in columns]
        header = f"{'system':<12}" + "".join(f"{c:>{w}}" for c, w in zip(columns, widths))
        lines += ["", family.replace("_", " "), header, "-" * len(header)]
        for system in sorted(rows):
            values = rows[system][family]
            lines.append(
                f"{system:<12}" + "".join(f"{values[c]:>{w}.3f}" for c, w in zip(columns, widths))
            )
    return "\n".join(lines[1:]) + "\n"
