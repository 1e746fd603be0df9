"""TF-IDF cosine provider and the external embedding service client."""

import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import EmbedHandler
from scriptweave.errors import EmbeddingServiceError, ZeroVector
from scriptweave.similarity import HttpEmbeddingProvider, TfidfSimilarity, cosine, tokenize

CORPUS = [
    "squeeze the lemons into a pitcher",
    "add the sugar and stir",
    "add cold water to the pitcher",
    "stir until the sugar dissolves",
    "serve the lemonade chilled",
]


def naive_cosine(corpus, a, b):
    """Direct evaluation of smoothed TF-IDF cosine, kept deliberately naive."""
    docs = [tokenize(t) for t in corpus]
    df = Counter()
    for tokens in docs:
        df.update(set(tokens))

    def weights(text):
        return {
            t: c * (math.log((1 + len(docs)) / (1 + df.get(t, 0))) + 1.0)
            for t, c in Counter(tokenize(text)).items()
        }

    wa, wb = weights(a), weights(b)
    if not wa or not wb:
        return 0.0
    dot = sum(wa[t] * wb.get(t, 0.0) for t in wa)
    na = math.sqrt(sum(w * w for w in wa.values()))
    nb = math.sqrt(sum(w * w for w in wb.values()))
    return dot / (na * nb)


def occurrence_idf(corpus):
    """The smoothed idf table, every listed text tokenised (repeats too), and an unseen token's idf."""
    docs = [set(tokenize(text)) for text in corpus]
    df = Counter(token for doc in docs for token in doc)
    idf = {t: math.log((1 + len(docs)) / (1 + n)) + 1.0 for t, n in df.items()}
    return idf, math.log((1 + len(docs)) / (1 + 0)) + 1.0


def uncached_similarity(corpus, a, b):
    """The per-pair scoring arithmetic with nothing kept between calls: the bit-exact reference.
    fsum of the shared tokens' products over norm_a * norm_b, equal weights score 1.0,
    clamped at 1.0, and 0.0 without a shared token."""
    idf, unseen = occurrence_idf(corpus)
    wa, wb = ({t: c * idf.get(t, unseen) for t, c in Counter(tokenize(text)).items()}
              for text in (a, b))
    if not wa or not wb:
        return 0.0
    if wa == wb:
        return 1.0
    dot = math.fsum(wa[t] * wb[t] for t in wa.keys() & wb.keys())
    norm_a = math.sqrt(math.fsum(w * w for w in wa.values()))
    norm_b = math.sqrt(math.fsum(w * w for w in wb.values()))
    return max(-1.0, min(1.0, dot / (norm_a * norm_b)))


def uncached_embedding(corpus, text):
    """One embed() vector with nothing kept between calls: the bit-exact reference."""
    docs = [set(tokenize(t)) for t in corpus]
    counts = Counter(tokenize(text))
    vec = []
    for token in sorted(set().union(*docs)):
        idf = math.log((1 + len(docs)) / (1 + sum(token in doc for doc in docs))) + 1.0
        vec.append(counts[token] * idf)
    norm = math.sqrt(math.fsum(x * x for x in vec))
    return [x / norm for x in vec] if norm > 0 else vec


def _hexes(vectors):
    return [[x.hex() for x in vector] for vector in vectors]


def fsum_cosine(a, b):
    """None when a norm is zero (tiny components can square to zero)."""
    dot = math.fsum(x * y for x, y in zip(a, b))
    norm_a = math.sqrt(math.fsum(x * x for x in a))
    norm_b = math.sqrt(math.fsum(y * y for y in b))
    return dot / (norm_a * norm_b) if norm_a and norm_b else None


_PAIRS = st.integers(1, 12).flatmap(
    lambda dim: st.tuples(
        *[st.lists(st.floats(-1e150, 1e150), min_size=dim, max_size=dim)] * 2
    )
)


class TestCosine:
    @settings(max_examples=400, deadline=None)
    @given(_PAIRS, st.randoms(use_true_random=False))
    def test_equals_fsum_reference_in_any_order(self, pair, rng):
        a, b = pair
        want = fsum_cosine(a, b)
        if want is None:
            with pytest.raises(ZeroVector):
                cosine(a, b)
            return
        order = list(range(len(a)))
        rng.shuffle(order)
        assert cosine(a, b).hex() == want.hex() == cosine(b, a).hex()
        assert cosine([a[i] for i in order], [b[i] for i in order]).hex() == want.hex()

    def test_mismatched_dimensions_rejected(self):
        with pytest.raises(ValueError):
            cosine([1.0, 0.0], [1.0, 0.0, 0.0])


class TestTokenize:
    def test_lowercases_and_splits_on_non_alphanumerics(self):
        assert tokenize("Add the SUGAR, then stir-2x!") == [
            "add",
            "the",
            "sugar",
            "then",
            "stir",
            "2x",
        ]

    def test_empty(self):
        assert tokenize("...") == []


class TestTfidfSimilarity:
    def test_self_similarity_is_exactly_one(self):
        provider = TfidfSimilarity(CORPUS)
        rng = random.Random(5)
        words = ["squeeze", "lemons", "sugar", "zzqx", "widget", "stir", "cold"]
        for _ in range(200):
            text = " ".join(rng.choice(words) for _ in range(rng.randint(1, 6)))
            assert provider.similarity(text, text) == 1.0

    def test_symmetry_is_exact(self):
        provider = TfidfSimilarity(CORPUS)
        rng = random.Random(6)
        words = ["add", "the", "sugar", "water", "serve", "oov1", "oov2"]
        for _ in range(300):
            a = " ".join(rng.choice(words) for _ in range(rng.randint(1, 5)))
            b = " ".join(rng.choice(words) for _ in range(rng.randint(1, 5)))
            assert provider.similarity(a, b) == provider.similarity(b, a)

    def test_matches_naive_formula(self):
        provider = TfidfSimilarity(CORPUS)
        rng = random.Random(7)
        words = ["squeeze", "the", "lemons", "sugar", "stir", "cold", "water", "serve"]
        for _ in range(300):
            a = " ".join(rng.choice(words) for _ in range(rng.randint(1, 5)))
            b = " ".join(rng.choice(words) for _ in range(rng.randint(1, 5)))
            assert provider.similarity(a, b) == pytest.approx(
                naive_cosine(CORPUS, a, b), abs=1e-12
            )

    def test_disjoint_texts_score_zero(self):
        provider = TfidfSimilarity(CORPUS)
        assert provider.similarity("squeeze lemons", "patch the tube") == 0.0

    def test_empty_text_scores_zero(self):
        provider = TfidfSimilarity(CORPUS)
        assert provider.similarity("", "add sugar") == 0.0
        assert provider.similarity("...", "add sugar") == 0.0

    def test_bounded(self):
        provider = TfidfSimilarity(CORPUS)
        rng = random.Random(8)
        words = ["add", "sugar", "stir", "oov"]
        for _ in range(200):
            a = " ".join(rng.choice(words) for _ in range(rng.randint(1, 4)))
            b = " ".join(rng.choice(words) for _ in range(rng.randint(1, 4)))
            assert -1.0 <= provider.similarity(a, b) <= 1.0

    def test_rare_tokens_outweigh_common_ones(self):
        # "the" is in four corpus texts, "lemons" in one
        provider = TfidfSimilarity(CORPUS)
        shared_rare = provider.similarity("lemons here", "lemons there")
        shared_common = provider.similarity("the thing", "the other")
        assert shared_rare > shared_common

    def test_ranking_prefers_overlap(self):
        provider = TfidfSimilarity(CORPUS)
        anchor = "squeeze the lemons"
        assert provider.similarity(anchor, "squeeze lemons now") > provider.similarity(
            anchor, "serve chilled"
        )


class TestTfidfEmbed:
    def test_dimension_is_corpus_vocabulary(self):
        provider = TfidfSimilarity(CORPUS)
        vocab_size = len({t for text in CORPUS for t in tokenize(text)})
        (vec,) = provider.embed(["add sugar"])
        assert len(vec) == vocab_size

    def test_unit_norm_for_in_vocabulary_text(self):
        provider = TfidfSimilarity(CORPUS)
        (vec,) = provider.embed(["add the sugar"])
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)

    def test_out_of_vocabulary_only_text_is_zero_vector(self):
        provider = TfidfSimilarity(CORPUS)
        (vec,) = provider.embed(["qwerty zxcvb"])
        assert np.linalg.norm(vec) == 0.0

    def test_embed_cosine_matches_similarity_for_in_vocab_pairs(self):
        provider = TfidfSimilarity(CORPUS)
        pairs = [
            ("add the sugar", "stir the sugar"),
            ("squeeze the lemons", "serve the lemonade chilled"),
            ("cold water", "add cold water to the pitcher"),
        ]
        for a, b in pairs:
            va, vb = provider.embed([a, b])
            cos = float(np.dot(va, vb))
            assert cos == pytest.approx(provider.similarity(a, b), abs=1e-12)


# In-vocabulary words, out-of-vocabulary words and punctuation, so generated
# texts include empty, punctuation-only, repeated-token and OOV-only texts.
_TEXTS = st.lists(
    st.sampled_from(["the", "sugar", "stir", "lemons", "cold", "zzqx", "widget", "...", "!", ""]),
    max_size=6,
).map(" ".join)
_CALLS = st.lists(
    st.one_of(
        st.tuples(st.just("similarity"), st.tuples(_TEXTS, _TEXTS)),
        st.tuples(st.just("embed"), st.lists(_TEXTS, max_size=4)),
    ),
    max_size=12,
)


def dense_embed(provider, text):
    """The dense formula embed() once used, kept as the oracle: every vocabulary
    component, the norm summed over all of them, and every component divided."""
    vec = [0.0] * len(provider._vocab)
    for token, weight in provider._weighted_text(text)[0].items():
        if token in provider._vocab:
            vec[provider._vocab[token]] = weight
    norm = math.sqrt(math.fsum(x * x for x in vec))
    return tuple(x / norm for x in vec) if norm > 0 else tuple(vec)


class TestTfidfEmbedOracle:
    @settings(max_examples=200, deadline=None)
    @given(corpus=st.lists(_TEXTS, min_size=1, max_size=5), texts=st.lists(_TEXTS, max_size=6))
    @example(corpus=CORPUS, texts=["the sugar the sugar sugar", "zzqx widget", "", "add sugar"])
    def test_equals_the_dense_formula_bit_for_bit(self, corpus, texts):
        provider = TfidfSimilarity(corpus)
        oracle = TfidfSimilarity(corpus)
        for vec, text in zip(provider.embed(texts), texts, strict=True):
            assert [x.hex() for x in vec] == [x.hex() for x in dense_embed(oracle, text)]


# A small pool, so generated call sequences repeat pairs: overlapping texts,
# texts disjoint from the rest, empty and punctuation-only texts, and texts
# with identical weights in another word order.
_POOL = st.sampled_from(
    [
        "add the sugar",
        "sugar the add",
        "stir the sugar",
        "the the sugar sugar",
        "squeeze the lemons into a pitcher",
        "zzqx widget",
        "widget",
        "",
        "...",
    ]
)


# Words in and outside the corpus and punctuation: texts that share one token
# ("the"), several, none, only tokens outside the corpus, or no token at all.
_ROW_TEXTS = st.lists(
    st.sampled_from(["the", "sugar", "stir", "lemons", "pitcher", "zzqx", "widget", "...", "!"]),
    max_size=5,
).map(" ".join)


@st.composite
def _row_calls(draw):
    """Pairs over pools of first and second texts, asked in any order: rows filled
    before some columns exist and columns that arrive after a row was filled."""
    firsts = draw(st.lists(_ROW_TEXTS, min_size=1, max_size=6))
    seconds = draw(st.lists(_ROW_TEXTS, min_size=1, max_size=6))
    # The same weights in another word order, and a first text that is also a second.
    seconds += [" ".join(reversed(firsts[0].split())), firsts[-1]]
    pairs = st.tuples(st.sampled_from(firsts), st.sampled_from(seconds))
    return draw(st.lists(pairs, min_size=1, max_size=30))


class TestTfidfRows:
    @settings(max_examples=200, deadline=None)
    @given(calls=_row_calls())
    @example(calls=[
        ("add the sugar", "stir the sugar"),  # a row filled before most columns exist
        ("sugar the add", "add the sugar"),  # the same weights, another order
        ("add the sugar", "add the sugar"),  # a == b, and a column late for the first row
        ("add the sugar", "the lemons"),  # one shared token, late
        ("stir the lemons", "stir the sugar"),  # two shared tokens, a row filled after
        ("", "stir the sugar"),
        ("...", "..."),
        ("zzqx widget", "widget zzqx"),  # only tokens outside the corpus
        ("widget", "zzqx widget"),
        ("add the sugar", "..."),
        ("sugar stir", "sugar sugar sugar stir stir stir"),  # parallel: clamped to 1.0
    ])
    def test_rows_match_uncached_scoring(self, calls):
        provider = TfidfSimilarity(CORPUS)
        for a, b in calls:
            assert provider.similarity(a, b).hex() == uncached_similarity(CORPUS, a, b).hex()


# Texts with no token, one token or several, from few words, so corpora repeat texts.
_FIT_TEXTS = st.lists(st.sampled_from(["the", "sugar", "stir", "lemons", "zzqx", "..."]),
                      max_size=4).map(" ".join)


@st.composite
def _fit_calls(draw):
    """A corpus listing each of its texts one to three times in any order, and pairs
    over its texts and others, asked in any order: columns arrive after rows are filled."""
    texts = draw(st.lists(_FIT_TEXTS, min_size=1, max_size=6, unique=True))
    corpus = draw(st.permutations([t for t in texts for _ in range(draw(st.integers(1, 3)))]))
    pool = texts + draw(st.lists(_FIT_TEXTS, max_size=3))
    pairs = st.tuples(st.sampled_from(pool), st.sampled_from(pool))
    return corpus, draw(st.lists(pairs, min_size=1, max_size=30))


class TestTfidfFit:
    @settings(max_examples=200, deadline=None)
    @given(case=_fit_calls())
    @example(case=(["stir", "stir", "the sugar", "", "the sugar"],
                   [("stir", "stir"), ("the sugar", "stir"), ("stir", "the sugar"),
                    ("", "the"), ("the", "the sugar"), ("stir", "the the")]))
    @example(case=(["stir", "stir", "the", "the", "the", "lemons sugar sugar"],
                   [("the sugar", "sugar the sugar the")]))  # parallel: clamped to 1.0
    @example(case=(["zzqx", "... sugar ... zzqx", *["sugar ... sugar"] * 3,
                    *["sugar zzqx zzqx stir"] * 3],
                   [("lemons the zzqx ...", "sugar zzqx lemons the")]))  # a sum that needs fsum
    def test_rows_equal_the_per_pair_formula(self, case):
        corpus, pairs = case
        provider = TfidfSimilarity(corpus)
        assert (provider._idf, provider._unseen_idf) == occurrence_idf(corpus)
        assert provider._idf == TfidfSimilarity(list(reversed(corpus)))._idf
        for a, b in pairs:
            assert provider.similarity(a, b) == uncached_similarity(corpus, a, b)

    def test_each_distinct_text_is_tokenised_once(self, monkeypatch):
        tokenised = Counter()

        def counting_tokenize(text):
            tokenised[text] += 1
            return tokenize(text)

        monkeypatch.setattr("scriptweave.similarity.tokenize", counting_tokenize)
        corpus = CORPUS * 3 + ["stir", "", "stir"]
        provider = TfidfSimilarity(corpus)
        assert tokenised == Counter(set(corpus))
        # Scoring and embedding the corpus texts afterwards tokenises none of them again.
        for a in corpus:
            for b in corpus:
                provider.similarity(a, b)
        provider.embed(corpus)
        assert tokenised == Counter(set(corpus))


class TestTfidfMemo:
    @settings(max_examples=150, deadline=None)
    @given(calls=_CALLS)
    def test_long_lived_provider_matches_fresh_provider(self, calls):
        provider = TfidfSimilarity(CORPUS)
        for method, args in calls:
            fresh = TfidfSimilarity(CORPUS)
            if method == "similarity":
                got, want = provider.similarity(*args), fresh.similarity(*args)
                assert got.hex() == want.hex() == uncached_similarity(CORPUS, *args).hex()
            else:
                reference = [uncached_embedding(CORPUS, text) for text in args]
                got, want = provider.embed(args), fresh.embed(args)
                assert _hexes(got) == _hexes(want) == _hexes(reference)

    @settings(max_examples=150, deadline=None)
    @given(pairs=st.lists(st.tuples(_POOL, _POOL), min_size=1, max_size=40))
    def test_repeated_pairs_match_uncached_scoring(self, pairs):
        provider = TfidfSimilarity(CORPUS)
        for a, b in pairs:
            assert provider.similarity(a, b).hex() == uncached_similarity(CORPUS, a, b).hex()

    def test_each_pair_is_scored_once(self, monkeypatch):
        provider = TfidfSimilarity(CORPUS)
        columns = ["add the sugar", "stir the sugar", "serve chilled"]
        for column in columns:
            provider.similarity("squeeze the lemons", column)
        filled = []
        score_row = provider._score_row
        monkeypatch.setattr(provider, "_score_row", lambda a: (
            filled.append((a, list(provider._columns))) or score_row(a)))
        # Once the columns are known, a new first text is one row fill; a repeat costs nothing.
        for a in ["add the sugar", "cold water"] * 3:
            for b in columns:
                provider.similarity(a, b)
        assert filled == [("add the sugar", columns), ("cold water", columns)]
        # A column that arrives after a row was filled fills that row again, over every column.
        provider.similarity("cold water", "cold pitcher")
        provider.similarity("cold water", "cold pitcher")
        assert filled[2:] == [("cold water", columns + ["cold pitcher"])]

    def test_embedded_vectors_are_read_only(self):
        provider = TfidfSimilarity(CORPUS)
        (vec,) = provider.embed(["add the sugar"])
        with pytest.raises(TypeError):
            vec[0] = 1.0
        (again,) = provider.embed(["add the sugar"])
        assert again == vec


# Generous for a server on this host; the timeout tests set their own.
TIMEOUT = 10.0


class TestHttpEmbeddingProvider:
    def test_embed_roundtrip(self, embed_server):
        provider = HttpEmbeddingProvider(embed_server, TIMEOUT)
        vectors = provider.embed(["add sugar", "stir"])
        assert len(vectors) == 2
        assert list(vectors[0]) == [2.0, 8.0]
        assert list(vectors[1]) == [1.0, 4.0]

    def test_similarity_is_cosine_of_served_vectors(self, embed_server):
        provider = HttpEmbeddingProvider(embed_server, TIMEOUT)
        a, b = provider.embed(["add sugar", "mix it well"])
        expected = float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
        assert provider.similarity("add sugar", "mix it well") == pytest.approx(expected)

    def test_unreachable_service_is_a_hard_error(self):
        provider = HttpEmbeddingProvider("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(EmbeddingServiceError):
            provider.embed(["anything"])

    def test_timeout_is_a_hard_error(self, embed_server):
        EmbedHandler.mode = "slow"
        provider = HttpEmbeddingProvider(embed_server, timeout=0.2)
        with pytest.raises(EmbeddingServiceError):
            provider.embed(["anything"])

    def test_deeply_nested_body_is_a_hard_error(self, embed_server):
        EmbedHandler.mode = "raw"
        EmbedHandler.payload = b"[" * 100_000 + b"]" * 100_000
        with pytest.raises(EmbeddingServiceError, match="malformed embedding response"):
            HttpEmbeddingProvider(embed_server, TIMEOUT).embed(["x"])

    def test_malformed_body_is_a_hard_error(self, embed_server):
        EmbedHandler.mode = "garbage"
        with pytest.raises(EmbeddingServiceError):
            HttpEmbeddingProvider(embed_server, TIMEOUT).embed(["x"])

    def test_missing_key_is_a_hard_error(self, embed_server):
        EmbedHandler.mode = "missing_key"
        with pytest.raises(EmbeddingServiceError):
            HttpEmbeddingProvider(embed_server, TIMEOUT).embed(["x"])

    def test_wrong_vector_count_is_a_hard_error(self, embed_server):
        EmbedHandler.mode = "wrong_count"
        with pytest.raises(EmbeddingServiceError):
            HttpEmbeddingProvider(embed_server, TIMEOUT).embed(["x", "y"])

    def test_ragged_vectors_are_a_hard_error(self, embed_server):
        EmbedHandler.mode = "ragged"
        with pytest.raises(EmbeddingServiceError):
            HttpEmbeddingProvider(embed_server, TIMEOUT).embed(["x", "y"])

    @pytest.mark.parametrize(
        "vector",
        [
            [1.0, float("nan")],
            [float("inf"), 1.0],
            [1.0, -float("inf")],
            [10**400, 1.0],
            ["1.0", 2.0],
            [[1.0], 2.0],
            [True, 2.0],
            [None, 2.0],
            3.0,
            {"x": 1.0},
        ],
    )
    def test_malformed_vector_is_a_hard_error(self, embed_server, vector):
        provider = HttpEmbeddingProvider(embed_server, TIMEOUT)
        EmbedHandler.mode = "payload"
        EmbedHandler.payload = vector
        with pytest.raises(EmbeddingServiceError):
            provider.embed(["add sugar"])
        EmbedHandler.mode = "ok"
        assert list(provider.embed(["add sugar"])[0]) == [2.0, 8.0]

    def test_integer_components_are_floats(self, embed_server):
        EmbedHandler.mode = "payload"
        EmbedHandler.payload = [3, -1]
        (vec,) = HttpEmbeddingProvider(embed_server, TIMEOUT).embed(["add sugar"])
        assert [x.hex() for x in vec] == [(3.0).hex(), (-1.0).hex()]

    def test_each_distinct_text_is_sent_once(self, embed_server):
        provider = HttpEmbeddingProvider(embed_server, TIMEOUT)
        queries = ["add sugar", "stir it", "add sugar"]
        keys = ["add sugar", "mix it well", "serve", "stir"]
        scores = [[provider.similarity(q, k) for k in keys] for q in queries]
        assert len(EmbedHandler.received) <= 7
        assert sorted(EmbedHandler.received) == sorted(set(queries) | set(keys))
        fresh = [[HttpEmbeddingProvider(embed_server, TIMEOUT).similarity(q, k) for k in keys]
                 for q in queries]
        assert scores == fresh

    def test_failed_request_caches_nothing(self, embed_server):
        provider = HttpEmbeddingProvider(embed_server, TIMEOUT)
        EmbedHandler.mode = "garbage"
        with pytest.raises(EmbeddingServiceError):
            provider.similarity("add sugar", "stir")
        EmbedHandler.mode = "ok"
        EmbedHandler.received = []
        assert provider.similarity("add sugar", "stir") == pytest.approx(
            HttpEmbeddingProvider(embed_server, TIMEOUT).similarity("add sugar", "stir")
        )
        assert EmbedHandler.received[:2] == ["add sugar", "stir"]

    def test_dimension_change_between_requests_is_a_hard_error(self, embed_server):
        provider = HttpEmbeddingProvider(embed_server, TIMEOUT)
        provider.embed(["add sugar"])
        EmbedHandler.mode = "wider"
        with pytest.raises(EmbeddingServiceError):
            provider.similarity("add sugar", "stir")

    def test_embedded_vectors_are_read_only(self, embed_server):
        (vec,) = HttpEmbeddingProvider(embed_server, TIMEOUT).embed(["add sugar"])
        with pytest.raises(TypeError):
            vec[0] = 1.0
