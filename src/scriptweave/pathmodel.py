"""Smoothed Markov model over step sequences.

Contexts are padded with START and every sequence is closed with END, so
the model scores complete paths. Unseen higher-order contexts back off to
lower orders; additive smoothing keeps every next step possible when
smoothing_lambda > 0. With smoothing_lambda == 0 the model is the plain
empirical estimator and unseen transitions have probability zero.

Every consumer reads PathModel.rows: the probability and log-probability
rows over [0..V-1, END] of a prefix's effective context, built once per
context with the float expressions and math.log of a per-transition
computation, so every value is bit-identical to scoring one transition.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from typing import TYPE_CHECKING, Sequence

from .corpus import StepLibrary, checked_float, checked_int, parse_checked
from .errors import EmptyCorpus, UnknownStep
from .jsonio import read_json, write_json
from .record import Record

if TYPE_CHECKING:
    from .cli import PipelineConfig

START = -1
END = -2

Row = tuple[float, ...]


class PathModel(Record):
    _fields = ("library", "order", "smoothing_lambda", "counts")

    def __init__(self, library: StepLibrary, order: int, smoothing_lambda: float, counts: dict):
        self.library, self.order, self.smoothing_lambda = library, order, smoothing_lambda
        self.counts = counts  # context tuple -> Counter of next step ids (END included)
        self.totals = {ctx: sum(counter.values()) for ctx, counter in counts.items()}
        self._rows: dict = {}  # context -> (prob, logprob) rows, filled by rows()

    @property
    def vocabulary_size(self) -> int:
        # Next-token support: every library step plus END.
        return len(self.library.steps) + 1

    def rows(self, prefix: Sequence[int]) -> tuple[Row, Row]:
        """Shared probability and log-probability rows after a
        prefix of valid step ids: column i is step i, column V is END, and a
        zero probability has log probability -inf."""
        ctx = _effective_context(self, prefix)
        rows = self._rows.get(ctx)
        if rows is None:
            rows = self._rows[ctx] = _context_rows(self, ctx)
        return rows


def train_path_model(sequences, library: StepLibrary, cfg: PipelineConfig) -> PathModel:
    """Count transitions of every order from 1 up to cfg.order."""
    sequences = list(sequences)
    if not sequences:
        raise EmptyCorpus("path model training needs at least one sequence")
    counts: dict[tuple[int, ...], Counter] = defaultdict(Counter)
    for seq in sequences:
        step_ids = list(seq.step_ids)
        check_steps(step_ids, library)
        tokens = [START] * cfg.order + step_ids + [END]
        for pos in range(cfg.order, len(tokens)):
            nxt = tokens[pos]
            for k in range(1, cfg.order + 1):
                counts[tuple(tokens[pos - k : pos])][nxt] += 1
    return PathModel(library, cfg.order, cfg.smoothing_lambda, dict(counts))


def next_step_distribution(model: PathModel, prefix: Sequence[int]) -> dict[int, float]:
    """Probability of every next step (and END) given a path prefix.

    The returned dict covers all library step ids plus END and sums to 1.
    """
    prefix = list(prefix)
    check_steps(prefix, model.library)
    prob, _ = model.rows(prefix)
    support = [step.step_id for step in model.library.steps] + [END]
    return dict(zip(support, prob))


def sequence_nll(model: PathModel, step_ids: Sequence[int]) -> float:
    """Negative log likelihood of a complete path, including the END move.

    Returns math.inf when an unsmoothed model assigns probability zero.
    """
    step_ids = list(step_ids)
    check_steps(step_ids, model.library)
    end = len(model.library.steps)
    nll = 0.0
    for i, column in enumerate(step_ids + [end]):
        logprob = model.rows(step_ids[:i])[1][column]
        if logprob == -math.inf:
            return math.inf
        nll -= logprob
    return nll


def check_steps(step_ids: Sequence[int], library: StepLibrary) -> None:
    """Raise UnknownStep for the first id that is not a step of the library."""
    for step_id in step_ids:
        if not library.has(step_id):
            raise UnknownStep(f"step id {step_id} not in library for task {library.task_id!r}")


def _effective_context(model: PathModel, prefix: Sequence[int]) -> tuple[int, ...]:
    # Highest order whose context was observed; order 1 is the floor even
    # when unseen, where smoothing alone decides the distribution.
    order = model.order
    tail = ((START,) * order + tuple(prefix[-order:]))[-order:]
    for k in range(order, 1, -1):
        ctx = tail[-k:]
        if model.totals.get(ctx, 0) > 0:
            return ctx
    return tail[-1:]


def _context_rows(model: PathModel, ctx: tuple[int, ...]) -> tuple[Row, Row]:
    # Per cell, the IEEE operations of scoring one transition:
    # (count + lam) / (total + lam * V1), count / total, or 1 / V1.
    size = model.vocabulary_size
    lam = model.smoothing_lambda
    total = model.totals.get(ctx, 0)
    counts = [0] * size
    for nxt, count in model.counts.get(ctx, {}).items():
        counts[size - 1 if nxt == END else nxt] = count
    if lam == 0.0:
        prob = (1.0 / size,) * size if total == 0 else tuple(c / total for c in counts)
    else:
        prob = tuple((c + lam) / (total + lam * size) for c in counts)
    logprob = tuple(math.log(p) if p > 0.0 else -math.inf for p in prob)
    return prob, logprob


def model_to_json(model: PathModel) -> dict:
    contexts = []
    for ctx in sorted(model.counts):
        counter = model.counts[ctx]
        counts = {
            ("END" if nxt == END else str(nxt)): counter[nxt] for nxt in sorted(counter)
        }
        contexts.append({"ctx": list(ctx), "counts": counts})
    return {
        "order": model.order,
        "lambda": model.smoothing_lambda,
        "contexts": contexts,
    }


def model_from_json(data: dict, library: StepLibrary) -> PathModel:
    """Rebuild a model; START outside a context, END outside the next steps,
    or any other id not in the library is UnknownStep."""
    order, lam = checked_int(data["order"]), checked_float(data["lambda"])
    if order < 1:
        raise ValueError("order must be at least 1")
    if lam < 0:
        raise ValueError("smoothing_lambda must be non-negative")
    counts: dict[tuple[int, ...], Counter] = {}
    for entry in data["contexts"]:
        ctx = tuple(checked_int(t) for t in entry["ctx"])
        check_steps([t for t in ctx if t != START], library)
        check_steps([_step_key(key) for key in entry["counts"] if key != "END"], library)
        counter: Counter = Counter()
        for key, value in entry["counts"].items():
            if checked_int(value) < 0:
                raise ValueError(f"negative count {value} in context {list(ctx)}")
            counter[END if key == "END" else int(key)] = value
        counts[ctx] = counter
    return PathModel(library, order, lam, counts)


def _step_key(key: str) -> int:
    """The step id a count key spells as a plain decimal integer."""
    if str(int(key)) != key:
        raise ValueError(f"invalid literal for a step id: {key!r}")
    return int(key)


def save_model(model: PathModel, path) -> None:
    write_json(model_to_json(model), path)


def load_model(path, library: StepLibrary) -> PathModel:
    """A malformed file is BadInput naming the path; unknown ids stay UnknownStep."""
    return parse_checked(str(path), lambda data: model_from_json(data, library), read_json(path))
