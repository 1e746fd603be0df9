"""Step inventory checks and step-constrained beam search."""

import math

import pytest

from scriptweave.cli import PipelineConfig
from scriptweave.corpus import Step, StepLibrary
from scriptweave.decoder import (
    build_prefix_trie,
    constrained_beam_search,
    decoded_to_rows,
    load_decoded,
)
from scriptweave.errors import BadInput, EmptyLibrary, NoCompletion
from scriptweave.jsonio import write_jsonl
from scriptweave.pathmodel import sequence_nll, train_path_model


class Seq:
    def __init__(self, step_ids):
        self.step_ids = list(step_ids)


def make_library(texts, task_id="t1"):
    return StepLibrary(task_id, [Step(i, t, t) for i, t in enumerate(texts)], [], [])


class TestPrefixTrie:
    def test_empty_library_rejected(self):
        with pytest.raises(EmptyLibrary):
            build_prefix_trie(StepLibrary("t1", [], [], []))


class TestBeamSearch:
    def chain_model(self, lam=0.1):
        library = make_library(["a", "b", "c"])
        model = train_path_model(
            [Seq([0, 1, 2])], library, PipelineConfig(order=2, smoothing_lambda=lam)
        )
        return model, build_prefix_trie(library)

    def test_best_path_is_the_training_path(self):
        model, trie = self.chain_model()
        results = constrained_beam_search(model, trie, PipelineConfig(beam_width=5))
        assert results[0][0] == [0, 1, 2]

    def test_scores_are_negated_sequence_nll(self):
        model, trie = self.chain_model()
        for steps, logprob in constrained_beam_search(model, trie, PipelineConfig(beam_width=10)):
            assert logprob == pytest.approx(-sequence_nll(model, steps), abs=1e-9)

    def test_no_repeated_steps(self):
        model, trie = self.chain_model()
        for steps, _ in constrained_beam_search(model, trie, PipelineConfig(beam_width=40)):
            assert len(set(steps)) == len(steps)

    def test_all_steps_come_from_the_library(self):
        model, trie = self.chain_model()
        for steps, _ in constrained_beam_search(model, trie, PipelineConfig(beam_width=40)):
            assert set(steps) <= {0, 1, 2}

    def test_beam_width_caps_results(self):
        model, trie = self.chain_model()
        assert len(constrained_beam_search(model, trie, PipelineConfig(beam_width=3))) == 3

    def test_results_sorted_by_score_then_sequence(self):
        model, trie = self.chain_model()
        results = constrained_beam_search(model, trie, PipelineConfig(beam_width=40))
        keys = [(-logprob, tuple(steps)) for steps, logprob in results]
        assert keys == sorted(keys)

    def test_no_duplicate_paths_by_default(self):
        model, trie = self.chain_model()
        results = constrained_beam_search(model, trie, PipelineConfig(beam_width=40))
        paths = [tuple(steps) for steps, _ in results]
        assert len(paths) == len(set(paths))

    def test_unsmoothed_model_only_decodes_observed_paths(self):
        model, trie = self.chain_model(lam=0.0)
        results = constrained_beam_search(model, trie, PipelineConfig(beam_width=40))
        assert [(steps, logprob) for steps, logprob in results] == [([0, 1, 2], 0.0)]

    def test_max_steps_zero_without_empty_path_support_raises(self):
        model, trie = self.chain_model(lam=0.0)
        with pytest.raises(NoCompletion):
            constrained_beam_search(model, trie, PipelineConfig(beam_width=5, max_steps=0))

    def test_max_steps_zero_with_smoothing_decodes_empty_path(self):
        model, trie = self.chain_model(lam=0.1)
        results = constrained_beam_search(model, trie, PipelineConfig(beam_width=5, max_steps=0))
        assert [steps for steps, _ in results] == [[]]

    def test_max_steps_bounds_path_length(self):
        model, trie = self.chain_model(lam=0.1)
        results = constrained_beam_search(model, trie, PipelineConfig(beam_width=40, max_steps=2))
        assert results
        assert all(len(steps) <= 2 for steps, _ in results)

    def test_library_mismatch_rejected(self):
        model, _ = self.chain_model()
        other_trie = build_prefix_trie(make_library(["x", "y"]))
        with pytest.raises(ValueError):
            constrained_beam_search(model, other_trie, PipelineConfig())


class TestDecodedRows:
    def test_roundtrip(self, tmp_path):
        results = [([0, 2, 1], -1.25), ([], -0.5)]
        rows = decoded_to_rows("t1", results)
        assert rows == [
            {"task_id": "t1", "steps": [0, 2, 1], "logprob": -1.25},
            {"task_id": "t1", "steps": [], "logprob": -0.5},
        ]
        write_jsonl(rows, tmp_path / "decoded.jsonl")
        assert load_decoded(tmp_path / "decoded.jsonl") == results

    @pytest.mark.parametrize(
        "row, fragment",
        [
            ({"task_id": "t1", "steps": [0]}, "missing key 'logprob'"),
            ([0, 1], "list indices"),
        ],
    )
    def test_malformed_row_is_bad_input_naming_the_line(self, tmp_path, row, fragment):
        path = tmp_path / "decoded.jsonl"
        write_jsonl([{"task_id": "t1", "steps": [0], "logprob": -1.0}, row], path)
        with pytest.raises(BadInput, match=fragment) as info:
            load_decoded(path)
        assert str(info.value).startswith(f"{path}:2: ")
