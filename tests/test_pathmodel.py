"""Smoothed Markov path model."""

import math
import random

import pytest

from scriptweave.cli import PipelineConfig
from scriptweave.corpus import Step, StepLibrary
from scriptweave.errors import EmptyCorpus, UnknownStep
from scriptweave.pathmodel import (
    END,
    START,
    load_model,
    model_from_json,
    model_to_json,
    next_step_distribution,
    save_model,
    sequence_nll,
    train_path_model,
)


class Seq:
    def __init__(self, step_ids):
        self.step_ids = list(step_ids)


def make_library(n, task_id="t1"):
    return StepLibrary(task_id, [Step(i, f"step {i}", f"step {i}") for i in range(n)], [], [])


def train(paths, n_steps, order=2, lam=0.1):
    cfg = PipelineConfig(order=order, smoothing_lambda=lam)
    return train_path_model([Seq(p) for p in paths], make_library(n_steps), cfg)


class TestTraining:
    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpus):
            train_path_model([], make_library(2), PipelineConfig())

    def test_unknown_step_rejected(self):
        with pytest.raises(UnknownStep):
            train([[0, 7]], n_steps=2)

    def test_vocabulary_is_steps_plus_end(self):
        assert train([[0]], n_steps=3).vocabulary_size == 4

    def test_counts_cover_all_orders_up_to_configured(self):
        model = train([[0, 1]], n_steps=2, order=2)
        assert model.counts[(START, START)][0] == 1
        assert model.counts[(START,)][0] == 1
        assert model.counts[(START, 0)][1] == 1
        assert model.counts[(0,)][1] == 1
        assert model.counts[(0, 1)][END] == 1
        assert model.counts[(1,)][END] == 1


class TestNextStepDistribution:
    def test_support_is_every_step_plus_end(self):
        model = train([[0, 1]], n_steps=3)
        dist = next_step_distribution(model, [0])
        assert set(dist) == {0, 1, 2, END}

    def test_sums_to_one(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(2, 5)
            paths = [
                [rng.randrange(n) for _ in range(rng.randint(1, 4))] for _ in range(3)
            ]
            model = train(paths, n_steps=n, order=rng.randint(1, 3), lam=rng.choice([0.01, 0.1, 1.0]))
            prefix = [rng.randrange(n) for _ in range(rng.randint(0, 3))]
            assert sum(next_step_distribution(model, prefix).values()) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_smoothed_transition_from_single_observation(self):
        # one observation of step 1 after step 0, three steps in the library:
        # unseen continuations get lambda mass out of (1 + lambda * 4)
        model = train([[0, 1]], n_steps=3, order=2, lam=0.1)
        dist = next_step_distribution(model, [0])
        assert dist[1] == pytest.approx(1.1 / 1.4, abs=1e-12)
        assert dist[2] == pytest.approx(0.1 / 1.4, abs=1e-12)
        assert dist[0] == pytest.approx(0.1 / 1.4, abs=1e-12)
        assert dist[END] == pytest.approx(0.1 / 1.4, abs=1e-12)

    def test_ties_split_evenly_without_smoothing(self):
        model = train([[0, 1], [0, 2]], n_steps=3, lam=0.0)
        dist = next_step_distribution(model, [0])
        assert dist[1] == 0.5
        assert dist[2] == 0.5
        assert dist[0] == 0.0
        assert dist[END] == 0.0

    def test_unseen_high_order_context_backs_off(self):
        # (START, 1) was never observed but (1,) was, so the prediction
        # after prefix [1] must reuse the order-1 counts, not be uniform.
        model = train([[0, 1, 2]], n_steps=3, order=2, lam=0.1)
        dist = next_step_distribution(model, [1])
        assert dist[2] == pytest.approx(1.1 / 1.4, abs=1e-12)

    def test_completely_unseen_context_is_uniform(self):
        model = train([[0, 1]], n_steps=3, order=2, lam=0.1)
        dist = next_step_distribution(model, [2])
        assert all(p == pytest.approx(0.25, abs=1e-12) for p in dist.values())

    def test_completely_unseen_context_is_uniform_without_smoothing(self):
        model = train([[0, 1]], n_steps=3, order=2, lam=0.0)
        dist = next_step_distribution(model, [2])
        assert all(p == 0.25 for p in dist.values())

    def test_unknown_step_in_prefix_rejected(self):
        model = train([[0, 1]], n_steps=2)
        with pytest.raises(UnknownStep):
            next_step_distribution(model, [9])


class TestSequenceNll:
    def test_single_observed_transition_worked_value(self):
        # P(2 | 0) = 0.1 / 1.4; its negative log is ln(14)
        model = train([[0, 1]], n_steps=3, order=2, lam=0.1)
        dist = next_step_distribution(model, [0])
        assert dist[2] == pytest.approx(0.1 / 1.4, abs=1e-12)
        assert -math.log(dist[2]) == pytest.approx(2.639, abs=1e-3)

    def test_matches_stepwise_accumulation(self):
        rng = random.Random(12)
        for _ in range(100):
            n = rng.randint(2, 6)
            paths = [
                [rng.randrange(n) for _ in range(rng.randint(1, 5))] for _ in range(4)
            ]
            model = train(
                paths, n_steps=n, order=rng.randint(1, 3), lam=rng.choice([0.01, 0.1, 1.0])
            )
            query = [rng.randrange(n) for _ in range(rng.randint(0, 5))]
            manual = 0.0
            for i, nxt in enumerate(query + [END]):
                manual -= math.log(next_step_distribution(model, query[:i])[nxt])
            assert sequence_nll(model, query) == pytest.approx(manual, abs=1e-12)

    def test_single_sequence_unsmoothed_corpus_has_zero_nll(self):
        model = train([[0, 1, 2]], n_steps=3, order=2, lam=0.0)
        assert sequence_nll(model, [0, 1, 2]) == 0.0

    def test_end_transition_is_scored(self):
        # [0] never ends the training path, so stopping there has
        # probability zero without smoothing
        model = train([[0, 1]], n_steps=2, order=2, lam=0.0)
        assert sequence_nll(model, [0]) == math.inf

    def test_unseen_transition_unsmoothed_is_infinite(self):
        model = train([[0, 1]], n_steps=2, order=2, lam=0.0)
        assert sequence_nll(model, [1]) == math.inf

    def test_unknown_step_rejected(self):
        model = train([[0, 1]], n_steps=2)
        with pytest.raises(UnknownStep):
            sequence_nll(model, [0, 5])


class TestJsonRoundtrip:
    def test_layout(self):
        model = train([[0, 1]], n_steps=2, order=2, lam=0.1)
        data = model_to_json(model)
        assert data["order"] == 2
        assert data["lambda"] == 0.1
        ctxs = [tuple(entry["ctx"]) for entry in data["contexts"]]
        assert ctxs == sorted(ctxs)
        assert (START, START) in ctxs
        by_ctx = {tuple(e["ctx"]): e["counts"] for e in data["contexts"]}
        assert by_ctx[(0, 1)] == {"END": 1}
        assert by_ctx[(START, 0)] == {"1": 1}

    def test_roundtrip_preserves_distributions(self):
        library = make_library(3)
        cfg = PipelineConfig(order=2, smoothing_lambda=0.1)
        model = train_path_model([Seq([0, 1]), Seq([0, 2]), Seq([1, 2, 0])], library, cfg)
        clone = model_from_json(model_to_json(model), library)
        assert (clone.order, clone.smoothing_lambda) == (2, 0.1)
        for prefix in ([], [0], [1], [2], [0, 1], [1, 2]):
            assert next_step_distribution(clone, prefix) == next_step_distribution(
                model, prefix
            )

    @pytest.mark.parametrize(
        "ctx, key, bad",
        [
            ([0, 5], "1", 5),  # context step beyond the library
            ([START, 0], "7", 7),  # next step beyond the library
            ([-3], "1", -3),  # negative id that is no sentinel
            ([END], "1", END),  # END only as a next step
            ([0], str(START), START),  # START only in a context
            ([0], str(END), END),  # END as a next step is spelled "END"
        ],
    )
    def test_ids_outside_the_library_rejected(self, ctx, key, bad):
        data = model_to_json(train([[0, 1]], n_steps=2))
        data["contexts"].append({"ctx": ctx, "counts": {key: 1}})
        with pytest.raises(UnknownStep, match=f"step id {bad} "):
            model_from_json(data, make_library(2))

    def test_save_and_load(self, tmp_path):
        library = make_library(2)
        cfg = PipelineConfig(order=2, smoothing_lambda=0.5)
        model = train_path_model([Seq([0, 1])], library, cfg)
        path = tmp_path / "model.json"
        save_model(model, path)
        clone = load_model(path, library)
        assert clone.counts == model.counts
        assert clone.totals == model.totals
