"""Cached probability rows against the per-transition scalar reference.

The reference functions below score one transition at a time, the way
the path model, beam search and greedy completion did before they read
cached rows. Every comparison is exact, floats included: the rows use the
same float expressions and math.log, so nothing may move by even one ulp.
"""

import math
import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from scriptweave.cli import PipelineConfig
from scriptweave.corpus import Step, StepLibrary
from scriptweave.decoder import build_prefix_trie, constrained_beam_search
from scriptweave.errors import NoCompletion
from scriptweave.evalharness import EvalExample, EvalSplit, greedy_completion, model_predict_next
from scriptweave.pathmodel import (
    END,
    START,
    PathModel,
    next_step_distribution,
    sequence_nll,
    train_path_model,
)


class Seq:
    def __init__(self, step_ids):
        self.step_ids = list(step_ids)


def make_library(n_steps):
    return StepLibrary("t1", [Step(i, f"step {i}", f"step {i}") for i in range(n_steps)], [], [])


# -- scalar reference --------------------------------------------------------


def ref_effective_context(model, prefix):
    tokens = [START] * model.order + list(prefix)
    for k in range(model.order, 1, -1):
        ctx = tuple(tokens[len(tokens) - k :])
        if model.totals.get(ctx, 0) > 0:
            return ctx
    return tuple(tokens[len(tokens) - 1 :])


def ref_transition_prob(model, ctx, nxt):
    lam = model.smoothing_lambda
    total = model.totals.get(ctx, 0)
    counter = model.counts.get(ctx)
    count = counter[nxt] if counter is not None else 0
    if lam == 0.0:
        if total == 0:
            return 1.0 / model.vocabulary_size
        return count / total
    return (count + lam) / (total + lam * model.vocabulary_size)


def ref_next_step_distribution(model, prefix):
    ctx = ref_effective_context(model, prefix)
    support = [step.step_id for step in model.library.steps] + [END]
    return {nxt: ref_transition_prob(model, ctx, nxt) for nxt in support}


def ref_sequence_nll(model, step_ids):
    nll = 0.0
    prefix = []
    for nxt in list(step_ids) + [END]:
        prob = ref_transition_prob(model, ref_effective_context(model, prefix), nxt)
        if prob <= 0.0:
            return math.inf
        nll -= math.log(prob)
        if nxt != END:
            prefix.append(nxt)
    return nll


def ref_beam_search(model, cfg):
    max_steps = cfg.max_steps if cfg.max_steps is not None else 2 * len(model.library.steps)
    active = [((), 0.0)]
    finished = []
    for depth in range(max_steps + 1):
        if not active:
            break
        expanded = []
        for seq, logprob in active:
            dist = ref_next_step_distribution(model, seq)
            for nxt in sorted(dist):
                prob = dist[nxt]
                if prob <= 0.0:
                    continue
                if nxt == END:
                    finished.append((seq, logprob + math.log(prob)))
                elif nxt not in seq and depth < max_steps:
                    expanded.append((seq + (nxt,), logprob + math.log(prob)))
        expanded.sort(key=lambda item: (-item[1], item[0]))
        active = expanded[: cfg.beam_width]
    if not finished:
        raise NoCompletion("no path reached END")
    finished.sort(key=lambda item: (-item[1], item[0]))
    return [(list(seq), logprob) for seq, logprob in finished[: cfg.beam_width]]


def ref_greedy_completion(model, prefix=(), max_steps=None):
    cap = max_steps if max_steps is not None else 2 * len(model.library.steps)
    sequence = list(prefix)
    completion = []
    for _ in range(cap):
        dist = ref_next_step_distribution(model, sequence)
        choices = [(s, p) for s, p in dist.items() if s == END or s not in sequence]
        choices.sort(key=lambda item: (-item[1], item[0]))
        nxt = choices[0][0]
        if nxt == END:
            break
        sequence.append(nxt)
        completion.append(nxt)
    return completion


def ref_model_predict_next(model, split):
    predictions = []
    for example in split.test_examples:
        dist = ref_next_step_distribution(model, example.prefix)
        used = set(example.prefix)
        candidates = [s for s in dist if s != END and s not in used]
        candidates.sort(key=lambda s: (-dist[s], s))
        predictions.append(candidates)
    return predictions


# -- generated models --------------------------------------------------------


@st.composite
def models(draw):
    n_steps = draw(st.integers(1, 30))
    step = st.integers(0, n_steps - 1)
    paths = draw(st.lists(st.lists(step, max_size=8), min_size=1, max_size=6))
    # Repeating a path makes equal counts, and so tied scores, more likely.
    paths += paths[: draw(st.integers(0, len(paths)))]
    config = PipelineConfig(
        order=draw(st.integers(1, 3)),
        smoothing_lambda=draw(st.sampled_from([0.0, 0.01, 0.1, 1.0])),
    )
    model = train_path_model([Seq(p) for p in paths], make_library(n_steps), config)
    prefixes = draw(st.lists(st.lists(step, max_size=6), min_size=1, max_size=6))
    return model, [list(p) for p in paths] + prefixes


max_steps_values = st.one_of(st.none(), st.integers(0, 12))


@settings(max_examples=200, deadline=None)
@given(models())
def test_next_step_distribution_and_nll_match_reference(case):
    model, prefixes = case
    for prefix in prefixes:
        expected = ref_next_step_distribution(model, prefix)
        assert next_step_distribution(model, prefix) == expected
        assert list(model.rows(prefix)[1]) == [
            math.log(p) if p > 0.0 else -math.inf for p in expected.values()
        ]
        assert sequence_nll(model, prefix) == ref_sequence_nll(model, prefix)


@settings(max_examples=200, deadline=None)
@given(models(), max_steps_values)
def test_greedy_completion_and_ranking_match_reference(case, max_steps):
    model, prefixes = case
    for prefix in prefixes:
        assert greedy_completion(model, prefix, max_steps) == ref_greedy_completion(
            model, prefix, max_steps
        )
    split = EvalSplit([], [EvalExample(tuple(prefix), set(), set()) for prefix in prefixes])
    assert model_predict_next(model, split) == ref_model_predict_next(model, split)


@settings(max_examples=120, deadline=None)
@given(models(), st.integers(1, 64), max_steps_values)
def test_beam_search_matches_reference(case, beam_width, max_steps):
    model, _ = case
    cfg = PipelineConfig(beam_width=beam_width, max_steps=max_steps)
    try:
        expected = ref_beam_search(model, cfg)
    except NoCompletion:
        expected = NoCompletion
    try:
        got = constrained_beam_search(model, build_prefix_trie(model.library), cfg)
    except NoCompletion:
        got = NoCompletion
    assert got == expected


def test_beam_keeps_items_tied_with_the_worst_finished_path():
    # Unsmoothed, so the moves after 1 and 3 have log probability exactly 0:
    # all four paths score log(1/2) + log(1/2). Once [0] and [2] have filled
    # a beam of two, [0, 1] is still open at exactly that score, and
    # [0, 1, 4] must still displace [2] on the sequence tie-break.
    paths = [[0], [0, 1, 4], [2], [2, 3]]
    unsmoothed = PipelineConfig(order=1, smoothing_lambda=0.0)
    model = train_path_model([Seq(p) for p in paths], make_library(5), unsmoothed)
    cfg = PipelineConfig(beam_width=2)
    got = constrained_beam_search(model, build_prefix_trie(model.library), cfg)
    score = math.log(0.5) + math.log(0.5)
    assert got == ref_beam_search(model, cfg) == [([0], score), ([0, 1, 4], score)]


def test_log_rows_are_math_log_over_a_sweep_of_counts():
    # np.log and math.log disagree in the last bit on a fraction of a percent
    # of such probabilities, so the sweep covers tens of thousands of cells.
    rng = random.Random(3)
    for n_steps in range(1, 31):
        library = make_library(n_steps)
        counts = {
            (ctx,): Counter({nxt: rng.randrange(12) for nxt in [*range(n_steps), END]})
            for ctx in [START, *range(n_steps)]
        }
        for lam in (0.0, 0.01, 0.1, 1.0):
            model = PathModel(library, 1, lam, counts)
            for prefix in [[], *([s] for s in range(n_steps))]:
                expected = ref_next_step_distribution(model, prefix).values()
                prob, logprob = model.rows(prefix)
                assert list(prob) == list(expected)
                assert list(logprob) == [
                    math.log(p) if p > 0.0 else -math.inf for p in expected
                ]
