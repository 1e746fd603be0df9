"""Negative generation, curriculum, and path-level contrastive losses."""

import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scriptweave.cli import PipelineConfig
from scriptweave.corpus import Step, StepLibrary
from scriptweave.contrastive import (
    MixtureWeights,
    StepVectors,
    curriculum_mixture,
    draw_negative_method,
    generate_negative,
    path_level_losses,
    sequence_representation,
    step_vectors,
)
from scriptweave.errors import DegenerateInput, EmptySequence, UnknownStep, ZeroVector


ATTEMPTS = PipelineConfig().max_shuffle_attempts


def make_library(n):
    return StepLibrary("t1", [Step(i, f"step {i}", f"step {i}") for i in range(n)], [], [])


class TestCurriculum:
    def test_pinned_epochs(self):
        assert curriculum_mixture(0) == MixtureWeights(1.0, 0.0, 0.0)
        assert curriculum_mixture(5) == MixtureWeights(0.8, 0.2, 0.0)
        assert curriculum_mixture(25) == MixtureWeights(0.0, 1.0, 0.0)
        assert curriculum_mixture(30) == MixtureWeights(0.0, 0.8, 0.2)

    def test_saturates_at_pure_cutswap(self):
        assert curriculum_mixture(55) == MixtureWeights(0.0, 0.0, 1.0)
        assert curriculum_mixture(500) == MixtureWeights(0.0, 0.0, 1.0)

    def test_constant_within_each_five_epoch_block(self):
        for start in range(0, 60, 5):
            block = {curriculum_mixture(e) for e in range(start, start + 5)}
            assert len(block) == 1

    def test_sums_to_one_exactly(self):
        for epoch in range(0, 101):
            assert sum(curriculum_mixture(epoch)) == 1.0


class TestDrawNegativeMethod:
    def test_degenerate_mixtures_are_deterministic(self):
        rng = random.Random(0)
        assert all(
            draw_negative_method(MixtureWeights(1.0, 0.0, 0.0), rng) == "resample"
            for _ in range(50)
        )
        assert all(
            draw_negative_method(MixtureWeights(0.0, 0.0, 1.0), rng) == "cutswap"
            for _ in range(50)
        )

    def test_draw_frequencies_track_mixture(self):
        rng = random.Random(1)
        mixture = MixtureWeights(0.5, 0.3, 0.2)
        counts = Counter(draw_negative_method(mixture, rng) for _ in range(20000))
        assert counts["resample"] / 20000 == pytest.approx(0.5, abs=0.02)
        assert counts["shuffle"] / 20000 == pytest.approx(0.3, abs=0.02)
        assert counts["cutswap"] / 20000 == pytest.approx(0.2, abs=0.02)


class TestResample:
    def test_same_length_distinct_steps_from_library(self):
        library = make_library(6)
        rng = random.Random(2)
        for _ in range(100):
            negative = generate_negative([0, 1, 2], "resample", library, {(0, 1, 2)}, ATTEMPTS, rng)
            assert len(negative) == 3
            assert len(set(negative)) == 3
            assert set(negative) <= set(range(6))
            assert tuple(negative) != (0, 1, 2)

    def test_never_in_valid_set(self):
        library = make_library(4)
        valid = {(0, 1), (1, 0), (2, 3)}
        rng = random.Random(3)
        for _ in range(200):
            negative = generate_negative([0, 1], "resample", library, valid, ATTEMPTS, rng)
            assert tuple(negative) not in valid

    def test_longer_than_library_rejected(self):
        library = make_library(2)
        with pytest.raises(DegenerateInput):
            generate_negative([0, 1, 0], "resample", library, set(), ATTEMPTS, random.Random(0))

    def test_exhausted_attempts_rejected(self):
        # every 1-step draw from a 1-step library is the positive itself
        library = make_library(1)
        with pytest.raises(DegenerateInput):
            generate_negative([0], "resample", library, set(), ATTEMPTS, random.Random(0))


class TestShuffle:
    def test_preserves_multiset(self):
        library = make_library(5)
        rng = random.Random(4)
        for _ in range(100):
            negative = generate_negative([3, 1, 4], "shuffle", library, {(3, 1, 4)}, ATTEMPTS, rng)
            assert sorted(negative) == [1, 3, 4]
            assert tuple(negative) != (3, 1, 4)

    def test_never_in_valid_set(self):
        library = make_library(3)
        valid = {(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0)}
        rng = random.Random(5)
        for _ in range(200):
            negative = generate_negative([0, 1, 2], "shuffle", library, valid, ATTEMPTS, rng)
            assert tuple(negative) not in valid

    def test_reversal_fallback_when_attempts_exhausted(self):
        # with two steps the only other permutation is the reversal, found
        # either by shuffling or by the deterministic fallback
        library = make_library(2)
        negative = generate_negative(
            [0, 1], "shuffle", library, {(0, 1)}, 1, random.Random(0)
        )
        assert negative == [1, 0]

    def test_single_step_rejected(self):
        with pytest.raises(DegenerateInput):
            generate_negative([0], "shuffle", make_library(2), set(), ATTEMPTS, random.Random(0))

    def test_every_permutation_valid_rejected(self):
        import itertools

        library = make_library(2)
        valid = {p for p in itertools.permutations([0, 1])}
        with pytest.raises(DegenerateInput):
            generate_negative([0, 1], "shuffle", library, valid, ATTEMPTS, random.Random(0))


class TestCutswap:
    def test_rotation_at_fixed_cut(self):
        # cutting [s1, s2, s3, s4] at position 2 yields [s3, s4, s1, s2]
        library = make_library(4)
        rotations = set()
        for seed in range(30):
            negative = generate_negative(
                [0, 1, 2, 3], "cutswap", library, {(0, 1, 2, 3)}, ATTEMPTS, random.Random(seed)
            )
            rotations.add(tuple(negative))
        assert (2, 3, 0, 1) in rotations
        assert rotations <= {(1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2)}

    def test_preserves_multiset(self):
        library = make_library(5)
        rng = random.Random(6)
        for _ in range(50):
            negative = generate_negative([2, 0, 4], "cutswap", library, {(2, 0, 4)}, ATTEMPTS, rng)
            assert sorted(negative) == [0, 2, 4]

    def test_falls_through_valid_rotations(self):
        # both other rotations of [0, 1, 2] are valid except one
        library = make_library(3)
        valid = {(0, 1, 2), (1, 2, 0)}
        for seed in range(20):
            negative = generate_negative(
                [0, 1, 2], "cutswap", library, valid, ATTEMPTS, random.Random(seed)
            )
            assert negative == [2, 0, 1]

    def test_every_rotation_valid_rejected(self):
        library = make_library(2)
        valid = {(0, 1), (1, 0)}
        with pytest.raises(DegenerateInput):
            generate_negative([0, 1], "cutswap", library, valid, ATTEMPTS, random.Random(0))

    def test_single_step_rejected(self):
        with pytest.raises(DegenerateInput):
            generate_negative([0], "cutswap", make_library(2), set(), ATTEMPTS, random.Random(0))


class TestGenerateNegativeCommon:
    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            generate_negative([0, 1], "mutate", make_library(3), set(), ATTEMPTS, random.Random(0))

    def test_empty_positive_rejected(self):
        with pytest.raises(DegenerateInput):
            generate_negative([], "shuffle", make_library(3), set(), ATTEMPTS, random.Random(0))


class FixedEmbedProvider:
    def __init__(self, table):
        self.table = table

    def embed(self, texts):
        return [tuple(self.table[t]) for t in texts]

    def similarity(self, a, b):
        raise NotImplementedError


def represent(step_ids, table):
    """sequence_representation over a library of len(table) steps whose
    texts FixedEmbedProvider embeds as table's vectors, in order."""
    library = make_library(len(table))
    provider = FixedEmbedProvider({f"step {i}": vec for i, vec in enumerate(table)})
    return sequence_representation(step_ids, library, step_vectors(library, provider))


def dense_mean(step_ids, table):
    """The dense formula: every step's whole vector added left to right to
    a zero vector, then each component divided by the path length."""
    total = [0.0] * len(table[0])
    for step_id in step_ids:
        total = [x + y for x, y in zip(total, table[step_id])]
    return [x / len(step_ids) for x in total]


class TestSequenceRepresentation:
    def test_mean_of_step_embeddings(self):
        vec = represent([0, 1], [[1.0, 0.0], [0.0, 1.0]])
        assert list(vec) == [0.5, 0.5]

    def test_empty_rejected(self):
        with pytest.raises(EmptySequence):
            represent([], [[1.0], [2.0]])

    def test_unknown_step_rejected(self):
        with pytest.raises(UnknownStep):
            represent([5], [[1.0], [2.0]])

    def test_mismatched_dimensions_rejected(self):
        # Raised once, when the table is built.
        provider = FixedEmbedProvider({"step 0": [1.0, 0.0], "step 1": [0.0, 1.0, 0.0]})
        with pytest.raises(ValueError):
            step_vectors(make_library(2), provider)

    def test_table_embeds_every_step_text_once(self):
        calls = []

        class CountingProvider(FixedEmbedProvider):
            def embed(self, texts):
                calls.append(list(texts))
                return super().embed(texts)

        library = make_library(3)
        table = {f"step {i}": [0.0, -0.0, float(i)] for i in range(3)}
        vectors = step_vectors(library, CountingProvider(table))
        assert calls == [library.texts()]
        assert vectors == StepVectors(3, [[], [(2, 1.0)], [(2, 2.0)]])

    # numpy is the oracle only: the mean is a left-to-right sum from a zero
    # vector (so -0.0 sums to 0.0), divided by n, which is what numpy's mean
    # over axis 0 computes for two or more columns.
    @settings(max_examples=400, deadline=None)
    @given(
        st.integers(2, 12).flatmap(
            lambda dim: st.lists(
                st.lists(st.floats(-1e300, 1e300), min_size=dim, max_size=dim),
                min_size=1,
                max_size=10,
            )
        )
    )
    def test_equals_numpy_mean_exactly(self, vectors):
        got = represent(range(len(vectors)), vectors)
        want = np.mean(np.stack([np.array(vec) for vec in vectors]), axis=0)
        assert [x.hex() for x in got] == [float(x).hex() for x in want]

    # Sparse vectors (mostly exact 0.0 and -0.0, a few components up to
    # +-1e300 that can overflow or cancel) along paths that repeat steps:
    # adding only the nonzero components must give the dense sum bit for bit.
    @settings(max_examples=400, deadline=None)
    @given(
        st.integers(1, 12).flatmap(
            lambda dim: st.lists(
                st.lists(
                    st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e300, 1e300)),
                    min_size=dim,
                    max_size=dim,
                ),
                min_size=1,
                max_size=6,
            )
        ).flatmap(
            lambda table: st.tuples(
                st.just(table),
                st.lists(st.integers(0, len(table) - 1), min_size=1, max_size=12),
            )
        )
    )
    def test_equals_the_dense_sum_exactly(self, case):
        table, step_ids = case
        got = represent(step_ids, table)
        assert [x.hex() for x in got] == [x.hex() for x in dense_mean(step_ids, table)]


def naive_contrastive(z_g, z_p, z_negs, temperature):
    def cos(a, b):
        return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))

    num = math.exp(cos(z_g, z_p) / temperature)
    den = num + sum(math.exp(cos(z_g, z_n) / temperature) for z_n in z_negs)
    return -math.log(num / den)


class TestPathLevelLosses:
    def test_no_negatives_is_exactly_zero(self):
        contrastive, total = path_level_losses(
            np.array([1.0, 2.0]), np.array([2.0, 1.0]), [], nll=3.5, cfg=PipelineConfig()
        )
        assert contrastive == 0.0
        assert math.copysign(1.0, contrastive) == 1.0  # +0.0, not -0.0
        assert total == 3.5

    def test_orthogonal_negative_worked_value(self):
        # aligned positive and orthogonal negative at temperature 0.1:
        # softmax(10, 0) gives loss log(1 + e^-10)
        cfg = PipelineConfig(temperature=0.1, alpha=1.0)
        contrastive, total = path_level_losses(
            np.array([1.0, 0.0]), np.array([1.0, 0.0]), [np.array([0.0, 1.0])], nll=0.0, cfg=cfg
        )
        assert contrastive == pytest.approx(math.log(1 + math.exp(-10)), abs=1e-15)
        assert contrastive == pytest.approx(4.54e-5, rel=1e-2)
        assert total == contrastive

    def test_matches_naive_formula(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            dim = int(rng.integers(2, 9))
            m = int(rng.integers(0, 5))
            z_g = rng.normal(size=dim)
            z_p = rng.normal(size=dim)
            z_negs = [rng.normal(size=dim) for _ in range(m)]
            cfg = PipelineConfig(temperature=0.1, alpha=0.7)
            nll = float(rng.uniform(0, 5))
            contrastive, total = path_level_losses(z_g, z_p, z_negs, nll, cfg)
            assert contrastive == pytest.approx(
                naive_contrastive(z_g, z_p, z_negs, 0.1), abs=1e-9
            )
            assert total == pytest.approx(nll + 0.7 * contrastive, abs=1e-12)

    def test_alpha_scales_only_the_contrastive_part(self):
        embeddings = np.array([1.0, 0.0]), np.array([0.5, 0.5]), [np.array([0.0, 1.0])]
        c1, t1 = path_level_losses(*embeddings, 2.0, PipelineConfig(temperature=0.1, alpha=1.0))
        c2, t2 = path_level_losses(*embeddings, 2.0, PipelineConfig(temperature=0.1, alpha=3.0))
        assert c1 == c2
        assert t2 - 2.0 == pytest.approx(3 * (t1 - 2.0), abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            path_level_losses(np.zeros(2), np.array([1.0, 0.0]), [], 0.0, PipelineConfig())

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            path_level_losses(
                np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0]), [], 0.0, PipelineConfig()
            )
