"""Grounding noisy videos onto the step library."""

import pytest

from scriptweave.cli import PipelineConfig
from scriptweave.corpus import RawSequenceRecord, SequenceItem, Step, StepLibrary, TaskSpec
from scriptweave.errors import EmptySequence, NoDocuments
from scriptweave.grounding import (
    GroundedSequence,
    ground_asr_sequence,
    ground_labelled_sequence,
    grounded_from_json,
    grounded_to_json,
    load_grounded,
    match_task_documents,
    preprocess_asr,
    prune_unused_steps,
    save_grounded,
    task_keywords,
    video_passes_task_filter,
)


DEFAULTS = PipelineConfig()


class StubProvider:
    """Similarity read from an explicit symmetric table; unknown pairs score 0.
    Every call is recorded in calls."""

    def __init__(self, table=None):
        self.table = dict(table or {})
        self.calls = []

    def similarity(self, a, b):
        self.calls.append((a, b))
        if (a, b) in self.table:
            return self.table[(a, b)]
        if (b, a) in self.table:
            return self.table[(b, a)]
        return 1.0 if a == b else 0.0


def make_library(texts, task_id="t1"):
    steps = [Step(i, text, text) for i, text in enumerate(texts)]
    return StepLibrary(task_id, steps, [], [])


def labelled_record(texts, video_id="v1", task_id="t1"):
    return RawSequenceRecord(
        video_id, task_id, "labelled",
        [SequenceItem(t, float(i), float(i) + 1) for i, t in enumerate(texts)], None,
    )


def asr_record(texts, video_id="v1", task_id="t1", title="a title"):
    return RawSequenceRecord(
        video_id, task_id, "asr", [SequenceItem(t, None, None) for t in texts], title=title
    )


class TestTaskKeywords:
    def test_drops_generic_words(self):
        assert task_keywords("How to Make a Lemonade") == {"make", "lemonade"}

    def test_all_generic_words(self):
        assert task_keywords("how to") == set()


class TestMatchTaskDocuments:
    TASK = TaskSpec("t1", "replace bicycle inner tube")

    def test_keyword_coverage_filters_titles(self):
        docs = [
            ("replace bicycle inner tube easily", ["a"]),
            ("cook pasta", ["b"]),
        ]
        provider = StubProvider()
        out = match_task_documents(self.TASK, docs, provider, PipelineConfig(top_m_docs=1))
        assert out == [docs[0]]

    def test_relaxes_once_when_too_few_titles_pass(self):
        docs = [
            ("replace bicycle inner tube easily", ["a"]),  # coverage 1.0
            ("replace your bicycle inner wheel", ["b"]),  # coverage 0.75
            ("replace tube", ["c"]),  # coverage 0.5
        ]
        provider = StubProvider(
            {
                ("replace bicycle inner tube easily", self.TASK.task_name): 0.9,
                ("replace your bicycle inner wheel", self.TASK.task_name): 0.8,
            }
        )
        out = match_task_documents(self.TASK, docs, provider, PipelineConfig(top_m_docs=2))
        assert [title for title, _ in out] == [
            "replace bicycle inner tube easily",
            "replace your bicycle inner wheel",
        ]

    def test_no_relaxation_when_enough_pass_strict(self):
        docs = [
            ("replace bicycle inner tube easily", ["a"]),
            ("replace your bicycle inner wheel", ["b"]),
        ]
        out = match_task_documents(self.TASK, docs, StubProvider(), PipelineConfig(top_m_docs=1))
        assert [title for title, _ in out] == ["replace bicycle inner tube easily"]

    def test_ranked_by_title_similarity(self):
        docs = [
            ("replace bicycle inner tube slowly", ["a"]),
            ("replace bicycle inner tube fast", ["b"]),
        ]
        provider = StubProvider(
            {
                ("replace bicycle inner tube slowly", self.TASK.task_name): 0.3,
                ("replace bicycle inner tube fast", self.TASK.task_name): 0.7,
            }
        )
        out = match_task_documents(self.TASK, docs, provider, PipelineConfig(top_m_docs=5))
        assert [title for title, _ in out] == [
            "replace bicycle inner tube fast",
            "replace bicycle inner tube slowly",
        ]

    def test_similarity_ties_keep_input_order(self):
        docs = [
            ("replace bicycle inner tube a", ["a"]),
            ("replace bicycle inner tube b", ["b"]),
        ]
        out = match_task_documents(self.TASK, docs, StubProvider(), PipelineConfig(top_m_docs=5))
        assert [title for title, _ in out] == [title for title, _ in docs]

    def test_top_m_docs_caps_results(self):
        docs = [(f"replace bicycle inner tube {i}", [str(i)]) for i in range(6)]
        out = match_task_documents(self.TASK, docs, StubProvider(), PipelineConfig(top_m_docs=4))
        assert len(out) == 4

    def test_empty_doc_list_raises(self):
        with pytest.raises(NoDocuments):
            match_task_documents(self.TASK, [], StubProvider(), DEFAULTS)

    def test_nothing_matching_even_relaxed_raises(self):
        docs = [("cook pasta", ["a"]), ("fold laundry", ["b"])]
        with pytest.raises(NoDocuments):
            match_task_documents(self.TASK, docs, StubProvider(), DEFAULTS)


class TestGroundLabelled:
    def test_two_by_two_worked_assignment(self):
        # scores [[0.9, 0.5], [0.8, 0.2]]: the second annotation loses its
        # only viable step to the first and 0.2 sits below k1.
        library = make_library(["w1", "w2"])
        record = labelled_record(["v1", "v2"])
        provider = StubProvider(
            {("v1", "w1"): 0.9, ("v1", "w2"): 0.5, ("v2", "w1"): 0.8, ("v2", "w2"): 0.2}
        )
        out = ground_labelled_sequence(record, library, provider, DEFAULTS.k1)
        assert out.step_ids == [0]
        assert out.scores == [0.9]
        assert out.dropped == 1

    def test_assignment_is_one_to_one(self):
        library = make_library(["w1", "w2"])
        record = labelled_record(["v1", "v2"])
        provider = StubProvider(
            {("v1", "w1"): 0.9, ("v1", "w2"): 0.5, ("v2", "w1"): 0.8, ("v2", "w2"): 0.6}
        )
        out = ground_labelled_sequence(record, library, provider, DEFAULTS.k1)
        assert out.step_ids == [0, 1]
        assert out.scores == [0.9, 0.6]
        assert out.dropped == 0

    def test_output_follows_annotation_order_not_score_order(self):
        library = make_library(["w1", "w2"])
        record = labelled_record(["v1", "v2"])
        provider = StubProvider(
            {("v1", "w2"): 0.6, ("v2", "w1"): 0.9}
        )
        out = ground_labelled_sequence(record, library, provider, DEFAULTS.k1)
        assert out.step_ids == [1, 0]
        assert out.scores == [0.6, 0.9]

    def test_score_ties_prefer_earlier_annotation_then_lower_step(self):
        library = make_library(["w1", "w2"])
        record = labelled_record(["v1", "v2"])
        provider = StubProvider(
            {("v1", "w1"): 0.7, ("v1", "w2"): 0.7, ("v2", "w1"): 0.7, ("v2", "w2"): 0.7}
        )
        out = ground_labelled_sequence(record, library, provider, DEFAULTS.k1)
        # v1 takes w1 first, leaving v2 with w2
        assert out.step_ids == [0, 1]

    def test_raising_k1_never_adds_matches(self):
        library = make_library(["w1", "w2", "w3"])
        record = labelled_record(["v1", "v2", "v3"])
        provider = StubProvider(
            {
                ("v1", "w1"): 0.9,
                ("v2", "w2"): 0.5,
                ("v3", "w3"): 0.36,
                ("v1", "w2"): 0.4,
            }
        )
        matched = {}
        for k1 in (0.2, 0.35, 0.45, 0.6, 0.95):
            try:
                out = ground_labelled_sequence(record, library, provider, k1)
                matched[k1] = set(out.step_ids)
            except EmptySequence:
                matched[k1] = set()
        thresholds = sorted(matched)
        for lo, hi in zip(thresholds, thresholds[1:]):
            assert matched[hi] <= matched[lo]
        assert matched[0.2] == {0, 1, 2}
        assert matched[0.95] == set()

    def test_nothing_above_k1_raises(self):
        library = make_library(["w1"])
        record = labelled_record(["v1"])
        with pytest.raises(EmptySequence):
            ground_labelled_sequence(
                record, library, StubProvider({("v1", "w1"): 0.1}), DEFAULTS.k1
            )

    def test_rejects_asr_record(self):
        library = make_library(["w1"])
        record = asr_record(["v1"])
        with pytest.raises(ValueError):
            ground_labelled_sequence(record, library, StubProvider(), DEFAULTS.k1)


class TestPreprocessAsr:
    def test_removes_items_containing_stop_words(self):
        items = ["please subscribe to us", "crack the eggs into a bowl now ok friends"]
        assert preprocess_asr(items, DEFAULTS) == ["crack the eggs into a bowl now ok friends"]

    def test_stop_words_match_whole_words_only(self):
        cfg = PipelineConfig(asr_min_words=1)
        # "subscriber" must not be caught by the stop word "subscribe"
        assert preprocess_asr(["a subscriber arrived today"], cfg) == [
            "a subscriber arrived today"
        ]

    def test_stop_words_are_case_insensitive(self):
        items = ["SUBSCRIBE now", "mix the dough well ok then rest it overnight"]
        assert preprocess_asr(items, DEFAULTS) == [
            "mix the dough well ok then rest it overnight"
        ]

    def test_multi_word_stop_phrase(self):
        cfg = PipelineConfig(asr_min_words=1, stop_words=("like and subscribe",))
        assert preprocess_asr(["like and subscribe folks", "chop onions"], cfg) == [
            "chop onions"
        ]
        # the phrase must appear contiguously
        assert preprocess_asr(["we like you and you subscribe"], cfg) == [
            "we like you and you subscribe"
        ]

    def test_accumulates_until_word_count_exceeds_minimum(self):
        items = [
            "one two three four five six seven eight nine ten eleven",  # 11 words
            "alpha beta gamma delta epsilon zeta",  # 6 words
            "red green blue cyan yellow",  # 5 words
        ]
        assert preprocess_asr(items, DEFAULTS) == [
            items[0],
            items[1] + " " + items[2],
        ]

    def test_exactly_minimum_words_keeps_accumulating(self):
        cfg = PipelineConfig(asr_min_words=4)
        items = ["one two three four", "five"]
        # 4 words is not > 4, the chunk closes only after "five"
        assert preprocess_asr(items, cfg) == ["one two three four five"]

    def test_short_remainder_folds_into_previous_piece(self):
        items = [
            "one two three four five six seven eight nine ten eleven",
            "tiny tail",
        ]
        assert preprocess_asr(items, DEFAULTS) == [items[0] + " tiny tail"]

    def test_everything_short_becomes_single_piece(self):
        assert preprocess_asr(["chop", "the onions"], DEFAULTS) == ["chop the onions"]

    def test_all_items_removed_yields_no_pieces(self):
        assert preprocess_asr(["subscribe", "our channel"], DEFAULTS) == []


class TestGroundAsr:
    CFG = PipelineConfig(asr_min_words=1)

    def test_each_piece_keeps_its_best_step(self):
        library = make_library(["w1", "w2"])
        record = asr_record(["alpha one", "beta two"])
        provider = StubProvider(
            {
                ("alpha one", "w1"): 0.9,
                ("alpha one", "w2"): 0.3,
                ("beta two", "w1"): 0.2,
                ("beta two", "w2"): 0.8,
            }
        )
        out = ground_asr_sequence(record, library, provider, self.CFG)
        assert out.step_ids == [0, 1]
        assert out.scores == [0.9, 0.8]
        assert out.dropped == 0

    def test_argmax_tie_goes_to_lowest_step_id(self):
        library = make_library(["w1", "w2"])
        record = asr_record(["alpha one"])
        provider = StubProvider({("alpha one", "w1"): 0.6, ("alpha one", "w2"): 0.6})
        out = ground_asr_sequence(record, library, provider, self.CFG)
        assert out.step_ids == [0]

    def test_pieces_below_k3_are_dropped_and_counted(self):
        library = make_library(["w1"])
        record = asr_record(["alpha one", "beta two"])
        provider = StubProvider({("alpha one", "w1"): 0.39, ("beta two", "w1"): 0.9})
        out = ground_asr_sequence(record, library, provider, self.CFG)
        assert out.step_ids == [0]
        assert out.dropped == 1

    def test_score_exactly_k3_is_kept(self):
        library = make_library(["w1"])
        record = asr_record(["alpha one"])
        provider = StubProvider({("alpha one", "w1"): 0.40})
        out = ground_asr_sequence(record, library, provider, self.CFG)
        assert out.step_ids == [0]

    def test_repeated_steps_collapse_without_counting_as_dropped(self):
        library = make_library(["w1", "w2"])
        record = asr_record(["alpha one", "beta two", "gamma three"])
        provider = StubProvider(
            {
                ("alpha one", "w1"): 0.9,
                ("beta two", "w1"): 0.8,
                ("gamma three", "w2"): 0.7,
            }
        )
        out = ground_asr_sequence(record, library, provider, self.CFG)
        assert out.step_ids == [0, 1]
        assert out.scores == [0.9, 0.7]
        assert out.dropped == 0

    def test_everything_below_k3_raises(self):
        library = make_library(["w1"])
        record = asr_record(["alpha one"])
        with pytest.raises(EmptySequence):
            ground_asr_sequence(record, library, StubProvider({("alpha one", "w1"): 0.1}), self.CFG)

    def test_rejects_labelled_record(self):
        library = make_library(["w1"])
        record = labelled_record(["v1"])
        with pytest.raises(ValueError):
            ground_asr_sequence(record, library, StubProvider(), self.CFG)


class TestVideoTaskFilter:
    TASK = TaskSpec("t1", "make lemonade")

    def test_threshold_is_inclusive(self):
        provider = StubProvider({("lemonade at home", self.TASK.task_name): 0.75})
        assert video_passes_task_filter("lemonade at home", self.TASK, provider, DEFAULTS.k2)

    def test_below_threshold_fails(self):
        provider = StubProvider({("unboxing video", self.TASK.task_name): 0.7499})
        assert not video_passes_task_filter("unboxing video", self.TASK, provider, DEFAULTS.k2)


class TestPruneUnusedSteps:
    def test_remaps_to_dense_ids_preserving_order(self):
        library = make_library(["a", "b", "c", "d"])
        library.doc_sequences = [[0, 1, 2, 3], [3, 1]]
        sequences = [
            GroundedSequence("v1", "t1", [1, 3], [0.9, 0.8], dropped=1),
            GroundedSequence("v2", "t1", [3], [0.7], 0),
        ]
        new_library, new_sequences = prune_unused_steps(library, sequences)
        assert [s.step_id for s in new_library.steps] == [0, 1]
        assert [s.raw_text for s in new_library.steps] == ["b", "d"]
        assert new_library.doc_sequences == [[0, 1], [1, 0]]
        assert new_sequences[0].step_ids == [0, 1]
        assert new_sequences[0].scores == [0.9, 0.8]
        assert new_sequences[0].dropped == 1
        assert new_sequences[1].step_ids == [1]

    def test_no_unused_steps_is_identity_on_ids(self):
        library = make_library(["a", "b"])
        sequences = [GroundedSequence("v1", "t1", [0, 1], [0.5, 0.5], 0)]
        new_library, new_sequences = prune_unused_steps(library, sequences)
        assert [s.step_id for s in new_library.steps] == [0, 1]
        assert new_sequences[0].step_ids == [0, 1]


class TestGroundedSequenceValidation:
    def test_empty_sequence_rejected(self):
        with pytest.raises(EmptySequence):
            GroundedSequence("v1", "t1", [], [], 0)

    def test_repeated_ids_rejected(self):
        with pytest.raises(ValueError):
            GroundedSequence("v1", "t1", [0, 0], [0.5, 0.5], 0)

    def test_misaligned_scores_rejected(self):
        with pytest.raises(ValueError):
            GroundedSequence("v1", "t1", [0, 1], [0.5], 0)


class TestGroundedJson:
    def test_roundtrip(self, tmp_path):
        sequences = [
            GroundedSequence("v1", "t1", [0, 2], [0.9, 0.4], dropped=2),
            GroundedSequence("v2", "t1", [1], [0.5], 0),
        ]
        path = tmp_path / "grounded.jsonl"
        save_grounded(sequences, path)
        loaded = load_grounded(path)
        assert loaded == sequences

    def test_json_fields(self):
        row = grounded_to_json(GroundedSequence("v1", "t1", [0], [0.9], dropped=1))
        assert row == {
            "video_id": "v1",
            "task_id": "t1",
            "step_ids": [0],
            "scores": [0.9],
            "dropped": 1,
        }
        assert grounded_from_json(row) == GroundedSequence("v1", "t1", [0], [0.9], 1)


class TestOneCallPerPair:
    """Grounding asks the provider once per (text, step) pair, repeats included."""

    def test_labelled_scores_items_times_steps(self):
        library = make_library(["w1", "w2", "w3"])
        # Repeated annotations are scored again: a provider may memoise, grounding does not.
        record = labelled_record(["alpha", "beta", "alpha", "gamma"])
        provider = StubProvider({("alpha", "w1"): 0.9, ("beta", "w2"): 0.8})
        ground_labelled_sequence(record, library, provider, DEFAULTS.k1)
        assert provider.calls == [
            (text, step) for text in ["alpha", "beta", "alpha", "gamma"]
            for step in ["w1", "w2", "w3"]
        ]

    def test_asr_scores_pieces_times_steps(self):
        cfg = PipelineConfig(asr_min_words=1)
        library = make_library(["w1", "w2"])
        record = asr_record(["alpha one", "please subscribe now", "beta two", "alpha one"])
        pieces = preprocess_asr([item.text for item in record.items], cfg)
        assert pieces == ["alpha one", "beta two", "alpha one"]
        provider = StubProvider({("alpha one", "w1"): 0.9, ("beta two", "w2"): 0.8})
        ground_asr_sequence(record, library, provider, cfg)
        assert provider.calls == [(piece, step) for piece in pieces for step in ["w1", "w2"]]
