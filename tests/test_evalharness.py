"""Evaluation splits, metrics, and baseline systems."""

import random

import pytest

from scriptweave.cli import PipelineConfig
from scriptweave.corpus import Step, StepLibrary
from scriptweave.errors import LengthMismatch, TooFewSequences
from scriptweave.evalharness import (
    EvalExample,
    EvalSplit,
    baseline_complete,
    baseline_predict,
    build_eval_splits,
    completion_metrics,
    greedy_completion,
    metrics_table,
    model_complete,
    model_predict_next,
    next_step_metrics,
)
from scriptweave.grounding import GroundedSequence
from scriptweave.pathmodel import train_path_model


def make_library(n):
    return StepLibrary("t1", [Step(i, f"step {i}", f"step {i}") for i in range(n)], [], [])


def with_docs(library, *docs):
    """library with the given document step orders, read by the linear baseline."""
    return StepLibrary(library.task_id, library.steps, [], list(docs))


def seqs(*paths):
    return [
        GroundedSequence(f"v{i}", "t1", list(p), [1.0] * len(p), 0) for i, p in enumerate(paths)
    ]


class TestBuildEvalSplits:
    def test_train_size_is_floor_of_fraction(self):
        sequences = seqs([0, 1], [1, 2], [2, 3], [3, 4], [4, 5])
        split = build_eval_splits(sequences, 0.40, rng_seed=0)
        assert len(split.train) == 2

    def test_small_fraction_keeps_one_train_sequence(self):
        split = build_eval_splits(seqs([0, 1], [1, 2], [2, 3]), 0.01, rng_seed=0)
        assert len(split.train) == 1

    def test_large_fraction_keeps_one_test_sequence(self):
        split = build_eval_splits(seqs([0, 1], [1, 2], [2, 3]), 0.99, rng_seed=0)
        assert len(split.train) == 2

    def test_every_proper_prefix_becomes_an_example(self):
        # force a known split: with 2 sequences exactly one goes to train
        split = build_eval_splits(seqs([0, 1, 2], [0, 1, 2]), 0.5, rng_seed=0)
        prefixes = [ex.prefix for ex in split.test_examples]
        assert prefixes == [(0,), (0, 1)]
        by_prefix = {ex.prefix: ex for ex in split.test_examples}
        assert by_prefix[(0,)].gold_next == {1}
        assert by_prefix[(0,)].gold_completions == {(1, 2)}
        assert by_prefix[(0, 1)].gold_next == {2}

    def test_identical_prefixes_merge_gold_sets(self):
        sequences = seqs([9], [0, 1, 2], [0, 1, 3], [0, 2])
        # find a seed under which v1, v2, v3 all land in the test side
        for seed in range(50):
            split = build_eval_splits(sequences, 0.25, rng_seed=seed)
            if {s.video_id for s in split.train} == {"v0"}:
                break
        else:
            pytest.fail("no seed places the three branching sequences in test")
        by_prefix = {ex.prefix: ex for ex in split.test_examples}
        assert by_prefix[(0,)].gold_next == {1, 2}
        assert by_prefix[(0, 1)].gold_next == {2, 3}
        assert by_prefix[(0, 1)].gold_completions == {(2,), (3,)}

    def test_examples_sorted_by_prefix(self):
        split = build_eval_splits(seqs([3, 1, 2], [0, 2, 1], [2, 0], [1, 0, 3]), 0.25, rng_seed=0)
        prefixes = [ex.prefix for ex in split.test_examples]
        assert prefixes == sorted(prefixes)

    def test_same_seed_same_split(self):
        sequences = seqs([0, 1], [1, 2], [2, 3], [3, 4])
        a = build_eval_splits(sequences, 0.5, rng_seed=7)
        b = build_eval_splits(sequences, 0.5, rng_seed=7)
        assert [s.video_id for s in a.train] == [s.video_id for s in b.train]
        assert a.test_examples == b.test_examples

    def test_needs_two_sequences(self):
        with pytest.raises(TooFewSequences):
            build_eval_splits(seqs([0, 1]), 0.40, rng_seed=0)


def split_of(*examples):
    return EvalSplit(train=[], test_examples=list(examples))


class TestNextStepMetrics:
    def test_single_gold_worked_value(self):
        # one of three predictions is right: precision 1/3, recall 1,
        # F1 = 2 * (1/3) / (4/3) = 0.5
        split = split_of(EvalExample((0,), {1}, {(1,)}))
        metrics = next_step_metrics([[1, 5, 6]], split)
        assert metrics["Acc@1"] == 1.0
        assert metrics["Acc@3"] == 1.0
        assert metrics["Prec@3"] == pytest.approx(1 / 3)
        assert metrics["Rec@3"] == 1.0
        assert metrics["F1@3"] == pytest.approx(0.5)

    def test_two_gold_worked_value(self):
        # two of three predictions are right against two golds:
        # precision 2/3, recall 1, F1 = 0.8
        split = split_of(EvalExample((0,), {1, 2}, {(1,), (2,)}))
        metrics = next_step_metrics([[1, 2, 5]], split)
        assert metrics["F1@3"] == pytest.approx(0.8)

    def test_acc3_is_a_hit_rate(self):
        split = split_of(EvalExample((0,), {1, 2}, {(1,)}))
        metrics = next_step_metrics([[5, 6, 2]], split)
        assert metrics["Acc@1"] == 0.0
        assert metrics["Acc@3"] == 1.0

    def test_miss_scores_zero_everywhere(self):
        split = split_of(EvalExample((0,), {1}, {(1,)}))
        metrics = next_step_metrics([[5, 6, 7]], split)
        assert metrics == {
            "Acc@1": 0.0,
            "Acc@3": 0.0,
            "Prec@3": 0.0,
            "Rec@3": 0.0,
            "F1@3": 0.0,
        }

    def test_macro_average_over_examples(self):
        split = split_of(
            EvalExample((0,), {1}, {(1,)}), EvalExample((1,), {2}, {(2,)})
        )
        metrics = next_step_metrics([[1], [5]], split)
        assert metrics["Acc@1"] == 0.5

    def test_empty_prediction_list_is_a_miss(self):
        split = split_of(EvalExample((0,), {1}, {(1,)}))
        assert next_step_metrics([[]], split)["Acc@1"] == 0.0

    def test_no_examples_gives_zero_metrics(self):
        assert next_step_metrics([], split_of())["Acc@1"] == 0.0

    def test_length_mismatch_rejected(self):
        split = split_of(EvalExample((0,), {1}, {(1,)}))
        with pytest.raises(LengthMismatch):
            next_step_metrics([[1], [2]], split)


class TestCompletionMetrics:
    def test_single_edit_worked_value(self):
        # predicting [1, 2, 3] against gold [1, 3] is one deletion,
        # normalized by the longer sequence: 1/3
        split = split_of(EvalExample((0,), {1}, {(1, 3)}))
        metrics = completion_metrics([[1, 2, 3]], split)
        assert metrics["Acc@1"] == 0.0
        assert metrics["EditDist"] == 1.0
        assert metrics["NormalizedEditDist"] == pytest.approx(1 / 3)

    def test_exact_match(self):
        split = split_of(EvalExample((0,), {1}, {(1, 2)}))
        metrics = completion_metrics([[1, 2]], split)
        assert metrics == {"Acc@1": 1.0, "EditDist": 0.0, "NormalizedEditDist": 0.0}

    def test_nearest_gold_completion_wins(self):
        split = split_of(EvalExample((0,), {1}, {(1, 2, 3, 4), (1, 9)}))
        metrics = completion_metrics([[1, 8]], split)
        assert metrics["EditDist"] == 1.0  # vs (1, 9), not the distance-3 gold

    def test_empty_prediction_counts_full_gold_length(self):
        split = split_of(EvalExample((0,), {1}, {(1, 2)}))
        metrics = completion_metrics([[]], split)
        assert metrics["EditDist"] == 2.0
        assert metrics["NormalizedEditDist"] == 1.0

    def test_normalized_stays_in_unit_interval(self):
        rng = random.Random(3)
        for _ in range(100):
            gold = tuple(rng.randrange(6) for _ in range(rng.randint(1, 5)))
            pred = [rng.randrange(6) for _ in range(rng.randint(0, 5))]
            split = split_of(EvalExample((0,), {gold[0]}, {gold}))
            value = completion_metrics([pred], split)["NormalizedEditDist"]
            assert 0.0 <= value <= 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(LengthMismatch):
            completion_metrics([[1]], split_of())


class TestBaselines:
    LIB = make_library(5)

    def test_random_predictions_permute_unused_steps(self):
        split = split_of(EvalExample((0, 2), {1}, {(1,)}))
        (ranked,) = baseline_predict("random", split, self.LIB, rng_seed=4)
        assert sorted(ranked) == [1, 3, 4]

    def test_random_is_seed_deterministic(self):
        split = split_of(EvalExample((0,), {1}, {(1,)}))
        a = baseline_predict("random", split, self.LIB, rng_seed=4)
        b = baseline_predict("random", split, self.LIB, rng_seed=4)
        assert a == b

    def test_linear_follows_document_order(self):
        split = split_of(EvalExample((1,), {2}, {(2,)}))
        (ranked,) = baseline_predict(
            "linear", split, with_docs(self.LIB, [0, 1, 2, 3]), rng_seed=0
        )
        assert ranked[:2] == [2, 3]
        assert sorted(ranked) == [0, 2, 3, 4]

    def test_linear_skips_steps_already_used(self):
        split = split_of(EvalExample((2, 1), {3}, {(3,)}))
        (ranked,) = baseline_predict(
            "linear", split, with_docs(self.LIB, [0, 1, 2, 3, 4]), rng_seed=0
        )
        # continuation after 1 in the document is [2, 3, 4] minus used 2
        assert ranked[:2] == [3, 4]

    def test_linear_falls_back_to_random_when_tail_unknown(self):
        split = split_of(EvalExample((4,), {1}, {(1,)}))
        (ranked,) = baseline_predict(
            "linear", split, with_docs(self.LIB, [0, 1, 2]), rng_seed=0
        )
        assert sorted(ranked) == [0, 1, 2, 3]

    def test_linear_without_documents_is_random(self):
        split = split_of(EvalExample((0,), {1}, {(1,)}), EvalExample((0, 2), {1}, {(1,)}))
        for baseline in (baseline_predict, baseline_complete):
            linear = baseline("linear", split, self.LIB, rng_seed=3)
            assert linear == baseline("random", split, self.LIB, rng_seed=3)

    def test_unknown_baseline_rejected(self):
        with pytest.raises(ValueError):
            baseline_predict("oracle", split_of(), self.LIB, rng_seed=0)
        with pytest.raises(ValueError):
            baseline_complete("oracle", split_of(), self.LIB, rng_seed=0)

    def test_linear_completion_is_document_remainder(self):
        split = split_of(EvalExample((0, 1), {2}, {(2, 3)}))
        (completion,) = baseline_complete(
            "linear", split, with_docs(self.LIB, [0, 1, 2, 3]), rng_seed=0
        )
        assert completion == [2, 3]

    def test_random_completion_uses_unused_steps(self):
        split = split_of(EvalExample((0, 1), {2}, {(2,)}))
        (completion,) = baseline_complete("random", split, self.LIB, rng_seed=5)
        assert 1 <= len(completion) <= 3
        assert set(completion) <= {2, 3, 4}
        assert len(set(completion)) == len(completion)


class Seq:
    def __init__(self, step_ids):
        self.step_ids = list(step_ids)


class TestModelSystems:
    def make_model(self):
        library = make_library(3)
        return train_path_model(
            [Seq([0, 1, 2])], library, PipelineConfig(order=2, smoothing_lambda=0.1)
        )

    def test_predictions_ranked_by_probability(self):
        model = self.make_model()
        split = split_of(EvalExample((0,), {1}, {(1, 2)}))
        (ranked,) = model_predict_next(model, split)
        assert ranked[0] == 1
        assert sorted(ranked) == [1, 2]  # 0 is used, END excluded

    def test_greedy_completion_follows_the_chain(self):
        model = self.make_model()
        assert greedy_completion(model, (0,), None) == [1, 2]
        assert greedy_completion(model, (), None) == [0, 1, 2]

    def test_greedy_completion_max_steps_caps_length(self):
        model = self.make_model()
        assert greedy_completion(model, (0,), 1) == [1]

    def test_model_complete_runs_every_example(self):
        model = self.make_model()
        split = split_of(
            EvalExample((0,), {1}, {(1, 2)}), EvalExample((0, 1), {2}, {(2,)})
        )
        assert model_complete(model, split, None) == [[1, 2], [2]]


class TestMetricsTable:
    def test_sections_and_alignment(self):
        rows = {
            "model": {
                "next_step": {"Acc@1": 0.9, "Acc@3": 1.0, "Prec@3": 0.4, "Rec@3": 1.0, "F1@3": 0.55},
                "completion": {"Acc@1": 0.5, "EditDist": 1.25, "NormalizedEditDist": 0.3},
            },
            "random": {
                "next_step": {"Acc@1": 0.2, "Acc@3": 0.5, "Prec@3": 0.2, "Rec@3": 0.5, "F1@3": 0.28},
                "completion": {"Acc@1": 0.0, "EditDist": 3.0, "NormalizedEditDist": 0.9},
            },
        }
        table = metrics_table(rows)
        lines = table.splitlines()
        assert lines[0] == "next step"
        assert "completion" in lines
        assert table.endswith("\n")
        model_line = next(l for l in lines if l.startswith("model"))
        assert "0.900" in model_line
        # systems listed alphabetically within each section
        names = [l.split()[0] for l in lines if l.startswith(("model", "random"))]
        assert names == ["model", "random", "model", "random"]
