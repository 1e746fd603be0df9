"""Step normalization, deduplication, library construction, and statistics."""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scriptweave.corpus import (
    DEDUP_DISTANCE,
    CorpusStats,
    RawSequenceRecord,
    SequenceItem,
    Step,
    StepLibrary,
    TaskSpec,
    build_step_library,
    corpus_statistics,
    deduplicate_with_mapping,
    levenshtein,
    library_from_json,
    library_to_json,
    load_candidate_docs,
    load_raw_records,
    load_tasks,
    near_duplicate_pairs,
    normalize_step,
    normalized_levenshtein,
)
from scriptweave.errors import BadInput, EmptyCorpus, EmptyStep, NoDocuments
from scriptweave.grounding import GroundedSequence, load_grounded


class TestNormalizeStep:
    def test_lowercases_and_collapses_whitespace(self):
        assert normalize_step("  Mix   the FLOUR  ") == "mix the flour"

    def test_removes_parenthesized_spans(self):
        assert normalize_step("add sugar (about two cups) slowly") == "add sugar slowly"

    def test_removes_bracketed_spans(self):
        assert normalize_step("[music] stir the pot") == "stir the pot"

    def test_removes_nested_brackets(self):
        assert normalize_step("knead (gently (but firmly)) the dough") == "knead the dough"

    def test_strips_edge_punctuation(self):
        assert normalize_step("- Mix well!") == "mix well"
        assert normalize_step("...done...") == "done"

    def test_keeps_interior_punctuation(self):
        assert normalize_step("whisk, then fold") == "whisk, then fold"

    def test_empty_after_cleaning_raises(self):
        with pytest.raises(EmptyStep):
            normalize_step("(everything bracketed)")
        with pytest.raises(EmptyStep):
            normalize_step("!!!")
        with pytest.raises(EmptyStep):
            normalize_step("   ")

    def test_idempotent_on_random_messy_strings(self):
        rng = random.Random(7)
        pieces = ["Mix", "the", "(well)", "[b]", "flour!", "-", "  ", "Stir", "UP."]
        for _ in range(200):
            raw = " ".join(rng.choice(pieces) for _ in range(rng.randint(1, 8)))
            try:
                once = normalize_step(raw)
            except EmptyStep:
                continue
            assert normalize_step(once) == once


def oracle_levenshtein(a, b):
    """The textbook row-by-row edit-distance table: the oracle for the bit-parallel kernel."""
    previous = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        current = [i]
        for j, y in enumerate(b, start=1):
            cost = 0 if x == y else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost))
        previous = current
    return previous[-1]


def oracle_near_duplicate(a, b):
    longest = max(len(a), len(b))
    return longest == 0 or oracle_levenshtein(a, b) / longest < DEDUP_DISTANCE


def near_duplicate(a, b):
    """The pairwise test, through the kernel: near_duplicate_pairs on the two texts."""
    return near_duplicate_pairs([a, b]) == [(0, 1)]


class TestLevenshtein:
    def test_classic_pair(self):
        assert levenshtein("kitten", "sitting") == 3

    def test_empty_cases(self):
        assert levenshtein("", "") == 0
        assert levenshtein("abc", "") == 3
        assert levenshtein("", "abc") == 3

    def test_works_on_integer_sequences(self):
        assert levenshtein([1, 2, 3], [1, 3]) == 1
        assert levenshtein([1, 2], [2, 1]) == 2

    def test_symmetry(self):
        rng = random.Random(3)
        for _ in range(100):
            a = [rng.randrange(4) for _ in range(rng.randint(0, 6))]
            b = [rng.randrange(4) for _ in range(rng.randint(0, 6))]
            assert levenshtein(a, b) == levenshtein(b, a)

    # Lengths up to 150 put patterns well past 64 bits; a small alphabet
    # gives heavy repeats, and b may use a symbol a lacks (and vice versa).
    @settings(max_examples=300, deadline=None)
    @given(
        a=st.lists(st.integers(0, 3), max_size=150),
        b=st.lists(st.integers(0, 4), max_size=150),
    )
    def test_matches_row_oracle_on_int_lists(self, a, b):
        assert levenshtein(a, b) == oracle_levenshtein(a, b)
        assert levenshtein(b, a) == oracle_levenshtein(a, b)

    @settings(max_examples=200, deadline=None)
    @given(a=st.text(alphabet="ab c", max_size=120), b=st.text(alphabet="abcd ", max_size=120))
    def test_matches_row_oracle_on_strings(self, a, b):
        assert levenshtein(a, b) == oracle_levenshtein(a, b)

    def test_wide_patterns(self):
        # pattern lengths on either side of the 64-bit word size
        rng = random.Random(9)
        for n in (63, 64, 65, 128, 129, 150):
            a = [rng.randrange(6) for _ in range(n)]
            for b in ([], a, a[1:], a[:-1] + [7], list(reversed(a)), [8] * n, a + a):
                assert levenshtein(a, b) == oracle_levenshtein(a, b), (n, b)

    def test_normalized_range_and_empty(self):
        assert normalized_levenshtein("", "") == 0.0
        assert normalized_levenshtein("ab", "") == 1.0
        assert 0.0 <= normalized_levenshtein("abc", "axc") <= 1.0


class TestDeduplicate:
    def test_near_duplicate_dropped(self):
        # distance 1 over max length 13 is 1/13 < 0.1
        assert deduplicate_with_mapping(["add the salt", "add the salts"])[0] == ["add the salt"]

    def test_distinct_steps_kept(self):
        steps = ["mix the flour", "pour the milk"]
        assert deduplicate_with_mapping(steps)[0] == steps

    def test_earliest_occurrence_wins(self):
        kept, mapping = deduplicate_with_mapping(["add the salt", "add the salts", "add the salt"])
        assert kept == ["add the salt"]
        assert mapping == [0, 0, 0]

    def test_exact_boundary_distance_is_kept(self):
        # distance 1 over max length 10 is exactly 0.1, which is far enough
        assert deduplicate_with_mapping(["pour milk", "pour milks"])[0] == ["pour milk", "pour milks"]

    def test_kept_pairs_are_all_distant(self):
        rng = random.Random(11)
        words = ["mix", "stir", "pour", "chop", "the", "bowl", "pan", "fast"]
        texts = [" ".join(rng.choice(words) for _ in range(rng.randint(1, 4))) for _ in range(40)]
        kept = deduplicate_with_mapping(texts)[0]
        for i in range(len(kept)):
            for j in range(i + 1, len(kept)):
                assert normalized_levenshtein(kept[i], kept[j]) >= 0.1


@st.composite
def _near_miss_pair(draw):
    """A text and a copy of it with a few random single-character edits.

    Texts run to 90 characters, so the allowed edit count reaches 8, and
    up to 12 edits put pairs on both sides of it.
    """
    a = draw(st.text(alphabet="ab c", max_size=90))
    b = list(a)
    for _ in range(draw(st.integers(0, 12))):
        pos = draw(st.integers(0, len(b)))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        if op == "insert":
            b.insert(pos, draw(st.sampled_from("abcd ")))
        elif pos < len(b):
            if op == "delete":
                del b[pos]
            else:
                b[pos] = draw(st.sampled_from("abcd "))
    return a, "".join(b)


class TestNearDuplicate:
    @settings(max_examples=600, deadline=None)
    @given(pair=_near_miss_pair())
    def test_matches_row_oracle(self, pair):
        a, b = pair
        expected = oracle_near_duplicate(a, b)
        assert near_duplicate(a, b) == expected
        assert near_duplicate(b, a) == expected

    def test_threshold_at_every_length(self):
        # Substitutions at the front; and k characters added at one end and
        # removed at the other, which shifts the best alignment k cells off
        # the diagonal.
        rng = random.Random(5)
        for n in range(1, 61):
            text = "".join(rng.choice("abcdefgh ") for _ in range(n))
            for k in range(min(n, 8) + 1):
                for a, b in (
                    ("a" * n, "b" * k + "a" * (n - k)),
                    ("x" * k + text, text),
                    (text + "x" * k, text),
                    (text[k:] + "y" * k, text),
                ):
                    expected = oracle_near_duplicate(a, b)
                    assert near_duplicate(a, b) == expected, (n, k, a, b)
                    assert near_duplicate(b, a) == expected, (n, k, a, b)

    # The pigeonhole reject cuts the longer text into limit + 1 pieces of
    # len // (limit + 1) characters, the last taking the remainder. At 25
    # characters limit is 2: pieces [0:8], [8:16] and [16:25].
    TEXT = "abcdefghijklmnopqrstuvwxy"

    def test_equal_texts(self):
        text = self.TEXT * 4
        for n in (1, 5, 9, 10, 25, 80):
            assert near_duplicate(text[:n], text[:n])

    def test_short_texts_allow_no_edit(self):
        # under 10 characters limit is 0: one piece, the whole text
        assert near_duplicate("mix it", "mix it")
        for a, b in (("mix it", "mix at"), ("mix it", "mix its"), ("stir", "stirs"), ("a", "b")):
            assert not near_duplicate(a, b)
            assert not near_duplicate(b, a)

    def test_edits_on_piece_boundaries(self):
        text = self.TEXT
        for pos in (7, 8, 15, 16, 24):
            for b in (
                text[:pos] + "z" + text[pos + 1 :],  # substitution
                text[:pos] + text[pos + 1 :],  # deletion
                text[:pos] + "z" + text[pos:],  # insertion
            ):
                expected = oracle_near_duplicate(text, b)
                assert near_duplicate(text, b) == expected, (pos, b)
                assert near_duplicate(b, text) == expected, (pos, b)
        # two edits, one on a boundary, leave the third piece untouched
        for pos, other in ((7, 20), (8, 20), (15, 3), (16, 3)):
            b = list(text)
            b[pos] = b[other] = "z"
            assert near_duplicate(text, "".join(b)), (pos, other)
        # one edit in each piece, the third on a remainder character
        b = text[:3] + "z" + text[4:11] + "z" + text[12:24] + "z"
        assert oracle_levenshtein(text, b) == 3
        assert not near_duplicate(text, b)
        # two of them stay within the limit
        b = text[:3] + "z" + text[4:24] + "z"
        assert near_duplicate(text, b)

    def test_edits_in_the_remainder_characters(self):
        # 26 characters: limit 2, pieces [0:8], [8:16], [16:26]
        text = self.TEXT + "z"
        for b in (text[:-2] + "##", text[:17] + "#" + text[18:24] + "#" + text[25:]):
            assert oracle_levenshtein(text, b) == 2
            assert near_duplicate(text, b)
            assert near_duplicate(b, text)
        b = text[:-3] + "###"
        assert not near_duplicate(text, b)


def oracle_pairs(texts):
    return [
        (i, j)
        for i in range(len(texts))
        for j in range(i + 1, len(texts))
        if oracle_near_duplicate(texts[i], texts[j])
    ]


def oracle_deduplicate(steps):
    kept, mapping = [], []
    for step in steps:
        for match, existing in enumerate(kept):
            if oracle_near_duplicate(step, existing):
                break
        else:
            match = len(kept)
            kept.append(step)
        mapping.append(match)
    return kept, mapping


@st.composite
def _text_lists(draw):
    """Texts of 1 to 60 characters over "abc " (limits 0 to 5): new texts,
    exact repeats, copies of an earlier text with a few edits (substitutions
    alone keep the length; edits of the last text make chains a ~ b ~ c
    where a and c are not near-duplicates), and texts that repeat one
    short piece."""
    texts = []
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(["new", "repeat", "edit", "substitute", "chain", "periodic"]))
        if kind == "new" or not texts:
            text = draw(st.text(alphabet="abc ", min_size=1, max_size=60))
        elif kind == "repeat":
            text = draw(st.sampled_from(texts))
        elif kind == "periodic":
            unit = draw(st.text(alphabet="abc ", min_size=1, max_size=6))
            text = (unit * 60)[: draw(st.integers(1, 60))]
        else:
            chars = list(texts[-1] if kind == "chain" else draw(st.sampled_from(texts)))
            for _ in range(draw(st.integers(1, 6))):
                pos = draw(st.integers(0, len(chars) - 1))
                ops = ["replace"] if kind == "substitute" else ["insert", "delete", "replace"]
                op = draw(st.sampled_from(ops))
                if op == "insert":
                    chars.insert(pos, draw(st.sampled_from("abc ")))
                elif op == "delete" and len(chars) > 1:
                    del chars[pos]
                else:
                    chars[pos] = draw(st.sampled_from("abc "))
            text = "".join(chars[:60])
        texts.append(text)
    return texts


class TestNearDuplicatePairs:
    """near_duplicate_pairs against pairwise loops over the textbook distance table."""

    @settings(max_examples=400, deadline=None)
    @given(texts=_text_lists())
    def test_matches_the_pairwise_loops(self, texts):
        pairs = oracle_pairs(texts)
        assert near_duplicate_pairs(texts) == pairs
        library = StepLibrary("t", [Step(i, t, t) for i, t in enumerate(texts)], [], [])
        if pairs:
            with pytest.raises(ValueError) as raised:
                library.validate()
            assert str(raised.value) == f"steps {pairs[0][0]} and {pairs[0][1]} are near-duplicates"
        else:
            library.validate()
        assert deduplicate_with_mapping(texts) == oracle_deduplicate(texts)

    def test_repeats_and_empty_texts(self):
        texts = ["mix it", "", "mix it", "", "stir the pot", "mix it"]
        assert near_duplicate_pairs(texts) == [(0, 2), (0, 5), (1, 3), (2, 5)]
        assert deduplicate_with_mapping(texts) == (["mix it", "", "stir the pot"], [0, 1, 0, 1, 2, 0])
        assert near_duplicate_pairs([]) == []

    def test_a_text_dropped_for_one_kept_text_keeps_another(self):
        # 20 characters allow 1 edit: a ~ b and b ~ c, but a and c are 2 edits apart
        a, b, c = "a" * 20, "a" * 19 + "b", "a" * 18 + "bb"
        assert near_duplicate_pairs([a, b, c]) == [(0, 1), (1, 2)]
        assert deduplicate_with_mapping([a, b, c, b, c]) == ([a, c], [0, 0, 1, 0, 1])

    def test_a_newline_only_adds_candidates(self):
        # "b\nc" first occurs across the joint of "xab" and "cdx" in the joined texts
        texts = ["xab", "cdx", "b\nc", "b\nc"]
        assert near_duplicate_pairs(texts) == oracle_pairs(texts) == [(2, 3)]


class TestBuildStepLibrary:
    TASK = TaskSpec("t1", "bake bread")

    def docs(self):
        return [
            ("Bread A", ["Mix the flour", "Add water", "Knead dough", "Bake it"]),
            ("Bread B", ["mix the flour!", "Proof the yeast", "bake it"]),
            ("Bread C", ["(skip me)", "Slice and serve"]),
        ]

    def test_ids_contiguous_and_dedup_applied(self):
        library = build_step_library(self.TASK, self.docs())
        assert [s.step_id for s in library.steps] == list(range(len(library.steps)))
        texts = library.texts()
        assert "mix the flour" in texts
        assert texts.count("mix the flour") == 1
        assert "knead dough" in texts and "proof the yeast" in texts

    def test_first_raw_text_kept(self):
        library = build_step_library(self.TASK, self.docs())
        step = next(s for s in library.steps if s.normalized_text == "mix the flour")
        assert step.raw_text == "Mix the flour"

    def test_fully_bracketed_steps_skipped(self):
        library = build_step_library(self.TASK, self.docs())
        assert "skip me" not in library.texts()

    def test_doc_sequences_reference_kept_ids(self):
        library = build_step_library(self.TASK, self.docs())
        by_text = {s.normalized_text: s.step_id for s in library.steps}
        assert library.doc_sequences[0] == [
            by_text["mix the flour"],
            by_text["add water"],
            by_text["knead dough"],
            by_text["bake it"],
        ]
        # doc B's duplicates of doc A steps map back onto the original ids
        assert library.doc_sequences[1] == [
            by_text["mix the flour"],
            by_text["proof the yeast"],
            by_text["bake it"],
        ]

    def test_default_doc_scores_are_ranks(self):
        library = build_step_library(self.TASK, self.docs())
        assert [score for _, score in library.source_docs] == [1.0, 2.0, 3.0]

    def test_no_documents_raises(self):
        with pytest.raises(NoDocuments):
            build_step_library(self.TASK, [])

    def test_validate_accepts_built_library(self):
        build_step_library(self.TASK, self.docs()).validate()


class TestLibraryValidate:
    def test_rejects_near_duplicates(self):
        steps = [Step(0, "add the salt", "add the salt"), Step(1, "add the salts", "add the salts")]
        with pytest.raises(ValueError):
            StepLibrary("t", steps, [], []).validate()

    def test_rejects_non_contiguous_ids(self):
        steps = [Step(0, "mix", "mix"), Step(2, "stir the pot", "stir the pot")]
        with pytest.raises(ValueError):
            StepLibrary("t", steps, [], []).validate()


def _seq(video_id, ids):
    return GroundedSequence(video_id, "t", list(ids), [1.0] * len(ids), 0)


def brute_force_statistics(sequences, threshold):
    """corpus_statistics by definition, over every pair of steps seen."""
    def consecutive(seq):
        return set(zip(seq.step_ids, seq.step_ids[1:]))

    seen = set().union(*map(consecutive, sequences))
    unordered = {frozenset(pair) for pair in seen}
    both = [pair for pair in unordered if {tuple(pair), tuple(pair)[::-1]} <= seen]
    frequent = {}
    for a, b in seen:
        videos = {seq.video_id for seq in sequences if (a, b) in consecutive(seq)}
        if len(videos) > threshold:
            frequent[a] = frequent.get(a, 0) + 1
    steps = {s for seq in sequences for s in seq.step_ids}
    total = sum(frequent.values())
    return CorpusStats(
        len(both) / len(unordered) if unordered else 0.0,
        total / len(frequent) if frequent else 0.0,
        total / len(steps),
        threshold,
    )


_GROUNDED = st.lists(
    st.tuples(
        st.sampled_from("abcd"),
        st.lists(st.integers(0, 5), unique=True, min_size=1, max_size=6),
    ),
    min_size=1,
    max_size=12,
)


class TestCorpusStatistics:
    @settings(max_examples=200, deadline=None)
    @given(rows=_GROUNDED, threshold=st.integers(0, 3))
    def test_matches_brute_force_oracle(self, rows, threshold):
        sequences = [_seq(video_id, ids) for video_id, ids in rows]
        assert corpus_statistics(sequences, threshold) == brute_force_statistics(
            sequences, threshold
        )

    def test_empty_corpus_raises(self):
        with pytest.raises(EmptyCorpus):
            corpus_statistics([], frequency_threshold=10)

    def test_reversal_rate_counts_unordered_pairs(self):
        seqs = [_seq("a", [1, 2]), _seq("b", [2, 1]), _seq("c", [1, 3])]
        stats = corpus_statistics(seqs, frequency_threshold=10)
        # pairs {1,2} (both orders) and {1,3} (one order)
        assert stats.reversal_rate == pytest.approx(0.5)

    def test_frequent_successors_threshold_on_distinct_videos(self):
        # pair (1,2) in two distinct videos, others in one; threshold 1
        seqs = [_seq("a", [1, 2]), _seq("b", [1, 2]), _seq("c", [1, 3]), _seq("d", [2, 3])]
        stats = corpus_statistics(seqs, frequency_threshold=1)
        assert stats.mean_frequent_next_steps == pytest.approx(1.0)
        assert stats.mean_frequent_next_steps_all == pytest.approx(1 / 3)
        assert stats.frequency_threshold == 1

    def test_same_video_repeats_do_not_inflate_frequency(self):
        # (1,2) appears in two records that share one video id
        seqs = [_seq("a", [1, 2]), _seq("a", [1, 2])]
        stats = corpus_statistics(seqs, frequency_threshold=1)
        assert stats.mean_frequent_next_steps == 0.0

    def test_no_frequent_pairs_gives_zero_means(self):
        stats = corpus_statistics([_seq("a", [1, 2])], frequency_threshold=10)
        assert stats.mean_frequent_next_steps == 0.0
        assert stats.mean_frequent_next_steps_all == 0.0

    def test_returns_frozen_dataclass(self):
        stats = corpus_statistics([_seq("a", [1, 2])], frequency_threshold=10)
        assert isinstance(stats, CorpusStats)
        with pytest.raises(AttributeError):
            stats.reversal_rate = 1.0


class TestRecordValidation:
    def test_rejects_unknown_kind(self):
        record = RawSequenceRecord("v", "t", "weird", [SequenceItem("a", None, None)], None)
        with pytest.raises(ValueError):
            record.validate()

    def test_rejects_empty_items(self):
        with pytest.raises(ValueError):
            RawSequenceRecord("v", "t", "labelled", [], None).validate()

    def test_rejects_decreasing_timestamps(self):
        items = [SequenceItem("a", 5.0, 6.0), SequenceItem("b", 1.0, 2.0)]
        with pytest.raises(ValueError):
            RawSequenceRecord("v", "t", "labelled", items, None).validate()

    def test_rejects_end_before_start(self):
        items = [SequenceItem("a", 5.0, 1.0)]
        with pytest.raises(ValueError):
            RawSequenceRecord("v", "t", "labelled", items, None).validate()

    def test_accepts_missing_timestamps(self):
        RawSequenceRecord(
            "v", "t", "asr", [SequenceItem("a", None, None), SequenceItem("b", None, None)], None
        ).validate()


class TestFileFormats:
    def test_library_json_roundtrip(self):
        library = build_step_library(
            TaskSpec("t1", "bake bread"),
            [("Doc", ["Mix the flour", "Bake it well"])],
        )
        restored = library_from_json(library_to_json(library))
        assert restored.task_id == library.task_id
        assert restored.texts() == library.texts()
        assert restored.doc_sequences == library.doc_sequences
        assert restored.source_docs == library.source_docs

    def test_loaders_read_jsonl(self, tmp_path):
        tasks = tmp_path / "tasks.jsonl"
        tasks.write_text('{"task_id": "t1", "task_name": "bake bread"}\n')
        docs = tmp_path / "docs.jsonl"
        docs.write_text('{"title": "Bread A", "steps": ["mix", "bake the loaf"]}\n')
        records = tmp_path / "records.jsonl"
        records.write_text(
            '{"video_id": "v1", "task_id": "t1", "kind": "labelled",'
            ' "items": [{"text": "mix", "start": 1.0, "end": 2.0}, {"text": "bake", "end": null}]}\n'
        )
        assert load_tasks(tasks)[0].task_name == "bake bread"
        assert load_candidate_docs(docs)[0][0] == "Bread A"
        loaded = load_raw_records(records)
        assert loaded[0].items[0].start == 1.0
        assert loaded[0].items[1][1:] == (None, None)

    @pytest.mark.parametrize(
        "loader, text, where, fragment",
        [
            (load_tasks, '\n{"task_id": "t1", "task_name": "x"}\n{"task_id": "t2"\n', ":3:",
             "not valid JSON"),
            (load_tasks, '{"task_id": "t1"}\n', ":1:", "'task_name'"),
            (load_tasks, '["t1", "x"]\n', ":1:", ""),
            (load_candidate_docs, '{"title": 3, "steps": []}\n', ":1:", "title"),
            (load_candidate_docs, '{"steps": ["mix"]}\n', ":1:", "'title'"),
            (load_raw_records, '{"video_id": "v", "task_id": "t", "kind": "asr"}\n', ":1:",
             "'items'"),
            (load_raw_records,
             '{"video_id": "v", "task_id": "t", "kind": "asr", "items": ["x"]}\n', ":1:", ""),
            (load_raw_records,
             '{"video_id": "v", "task_id": "t", "kind": "vlog", "items": [{"text": "x"}]}\n',
             ":1:", "kind"),
            (load_tasks, '{"task_id": "t1", "task_name": 3}\n', ":1:", "task_name"),
            (load_tasks, '{"task_id": 1, "task_name": "x"}\n', ":1:", "task_id"),
            (load_candidate_docs, '{"title": "Doc", "steps": [7, "mix"]}\n', ":1:",
             "document step"),
            (load_candidate_docs, '{"title": "Doc", "steps": "Squeeze lemons"}\n', ":1:",
             "document steps must be a list"),
            (load_candidate_docs, '{"title": "Doc", "steps": {"mix": 1}}\n', ":1:",
             "document steps must be a list"),
            (load_raw_records,
             '{"video_id": "v", "task_id": "t", "kind": "labelled", "items": [{"text": 5}]}\n',
             ":1:", "item text"),
            (load_raw_records,
             '{"video_id": "v", "task_id": "t", "kind": "asr", "title": 9, "items": [{"text": "x"}]}\n',
             ":1:", "title"),
            (load_raw_records,
             '{"video_id": 5, "task_id": "t", "kind": "asr", "items": [{"text": "x"}]}\n',
             ":1:", "video_id"),
            (load_raw_records,
             '{"video_id": "v", "task_id": 1, "kind": "asr", "items": [{"text": "x"}]}\n',
             ":1:", "task_id"),
            (load_raw_records,
             '{"video_id": "v", "task_id": "t", "kind": "labelled",'
             ' "items": [{"text": "mix", "start": "soon"}]}\n', ":1:", "'soon'"),
            (load_raw_records,
             '{"video_id": "v", "task_id": "t", "kind": "labelled",'
             ' "items": [{"text": "mix", "start": 1, "end": true}]}\n', ":1:", "True"),
            (load_tasks, '{"task_id": "t1", "task_name": "x"}\n{"task_id": "t2", "task_name": "y"}\n'
             '{"task_id": "t1", "task_name": "z"}\n', ":3:", "repeated task_id 't1'"),
            (load_raw_records, '{"video_id": "v", "task_id": "t", "kind": "asr", "items": [{"text": "x"}]}\n'
             * 2, ":2:", "repeated video_id 'v'"),
            (functools.partial(load_grounded, task_id="t"), '{"video_id": "v", "task_id": "t",'
             ' "step_ids": [0], "scores": [0.5], "dropped": 0}\n' * 2, ":2:", "repeated video_id 'v'"),
            (functools.partial(load_grounded, task_id="t"), '{"video_id": "v", "task_id": "u",'
             ' "step_ids": [0], "scores": [0.5], "dropped": 0}\n', ":1:",
             "row of task 'u', not of task 't'"),
        ],
    )
    def test_malformed_rows_raise_bad_input_with_line(self, tmp_path, loader, text, where,
                                                      fragment):
        path = tmp_path / "input.jsonl"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(BadInput) as raised:
            loader(path)
        assert str(raised.value).startswith(f"{path}{where}")
        assert fragment in str(raised.value)
