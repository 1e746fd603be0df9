"""Text similarity providers for document matching and grounding.

Two implementations of the same small interface: a self-contained TF-IDF
cosine provider, and a client for an external embedding service. Both are
deterministic for fixed inputs. Every float sum is math.fsum, the exactly
rounded sum, so scores do not depend on summation order or the Python
version (the idf's math.log still comes from the platform's libm).
"""

from __future__ import annotations

import json
import math
import operator
import re
from collections import Counter
from typing import Iterable, Protocol, Sequence

from .corpus import checked_float
from .errors import EmbeddingServiceError, ZeroVector

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def cosine(a: Sequence[float], b: Sequence[float]) -> float:
    """Cosine similarity, with the dot product and both norms summed by math.fsum.

    Vectors of different lengths are a ValueError and a zero-norm vector
    is ZeroVector.
    """
    if len(a) != len(b):
        raise ValueError(f"embedding dimensions differ: {len(a)} vs {len(b)}")
    norm_a = math.sqrt(math.fsum(x * x for x in a))
    norm_b = math.sqrt(math.fsum(x * x for x in b))
    if norm_a == 0.0 or norm_b == 0.0:
        raise ZeroVector("cosine similarity of a zero-norm embedding is undefined")
    return math.fsum(map(operator.mul, a, b)) / (norm_a * norm_b)


class SimilarityProvider(Protocol):
    def embed(self, texts: Sequence[str]) -> list[Sequence[float]]: ...

    def similarity(self, a: str, b: str) -> float: ...


class TfidfSimilarity:
    """Token-level TF-IDF cosine similarity.

    Document frequencies are frozen at construction from corpus_texts,
    using smoothed idf so every token keeps positive weight; each distinct
    text is tokenised once, counted once per occurrence, and its tokens are
    kept until it is weighted. similarity() scores arbitrary text pairs,
    extending the weighting to tokens outside the corpus, which keeps
    similarity(a, a) == 1.0 for any text with at least one token. embed()
    projects onto the fixed corpus vocabulary so vectors from different
    calls share one dimension; tokens outside the vocabulary contribute
    nothing there. It keeps no vector and returns fresh read-only tuples.

    Each distinct text's weights and L2 norm are computed once and kept for
    the life of the provider, one CLI stage, so the memo needs no bound.
    Scores come in rows. Every second text similarity() has been asked about
    is a column, kept with its norm and in an inverted index (token ->
    column texts and their weights). When the first text's row lacks the
    second, the whole row is filled again against every known column, term
    at a time: one product per posting, and an fsum only for a column that
    two or more tokens hit. A repeated pair, or any pair of a filled row, is
    a dictionary lookup. Scores use the same float operations as uncached
    scoring, so every score is bit-identical to it in any call order.

    A row costs one score per column, so it pays only when each stage's
    columns are few and arrive early: the task name in library, the step
    texts and the task name in ground (a row never exceeds V + 1 scores),
    none in losses, which only embeds. Grounding asks for one pair per
    call, so the benchmark's count of similarity() calls stays a count of
    pairs asked for (ROADMAP item 4).
    """

    def __init__(self, corpus_texts: Iterable[str]):
        occurrences = Counter(corpus_texts)
        self._tokens = {text: tokenize(text) for text in occurrences}
        df: dict[str, int] = {}
        for text, n in occurrences.items():
            for token in set(self._tokens[text]):
                df[token] = df.get(token, 0) + n
        n_docs = occurrences.total()
        # Smoothed idf, computed once per token; a token outside the corpus has df 0.
        self._idf = {t: math.log((1 + n_docs) / (1 + n)) + 1.0 for t, n in df.items()}
        self._unseen_idf = math.log((1 + n_docs) / (1 + 0)) + 1.0
        self._vocab = {token: i for i, token in enumerate(sorted(self._idf))}
        self._weighted: dict[str, tuple[dict[str, float], float]] = {}
        self._rows: dict[str, dict[str, float]] = {}
        self._columns: dict[str, float] = {}  # every b asked about, and its norm
        self._index: dict[str, list[tuple[str, float]]] = {}

    def _weighted_text(self, text: str) -> tuple[dict[str, float], float]:
        if text not in self._weighted:
            idf, unseen = self._idf, self._unseen_idf
            tokens = self._tokens.pop(text) if text in self._tokens else tokenize(text)
            weights = {t: count * idf.get(t, unseen) for t, count in Counter(tokens).items()}
            self._weighted[text] = (weights, math.sqrt(math.fsum(w * w for w in weights.values())))
        return self._weighted[text]

    def similarity(self, a: str, b: str) -> float:
        try:
            return self._rows[a][b]
        except KeyError:
            pass
        if b not in self._columns:
            weights, self._columns[b] = self._weighted_text(b)
            for token, weight in weights.items():
                self._index.setdefault(token, []).append((b, weight))
        row = self._rows[a] = self._score_row(a)
        return row[b]

    def _score_row(self, a: str) -> dict[str, float]:
        """a's scores against every column in the index."""
        wa, norm_a = self._weighted_text(a)
        norms, index = self._columns, self._index
        row = dict.fromkeys(norms, 0.0)  # an empty text, or no shared token, scores 0.0
        postings = sorted(((index[t], w) for t, w in wa.items() if t in index),
                          key=lambda entry: len(entry[0]), reverse=True)
        if not postings:
            return row
        # One product per posting: the longest list fills dots, and only a column
        # that two or more tokens hit keeps its products, to be summed by fsum.
        first, weight = postings[0]
        dots = {column: weight * column_weight for column, column_weight in first}
        shared: dict[str, list[float]] = {}
        for posting, weight in postings[1:]:
            for column, column_weight in posting:
                product = weight * column_weight
                if column not in dots:
                    dots[column] = product
                elif column in shared:
                    shared[column].append(product)
                else:
                    shared[column] = [dots[column], product]
        for column, products in shared.items():
            dots[column] = math.fsum(products)
        # Scores are never negative (idf >= 1), so only the top needs a clamp.
        for column, dot in dots.items():
            score = dot / (norm_a * norms[column])
            row[column] = score if score < 1.0 else 1.0
        # A column with a's weight map scores exactly 1.0. For one token the
        # arithmetic gives it: sqrt(w * w) == w in binary floating point.
        weighted = self._weighted
        for column in shared:
            if weighted[column][0] == wa:
                row[column] = 1.0
        return row

    def embed(self, texts: Sequence[str]) -> list[tuple[float, ...]]:
        vectors = []
        for text in texts:
            vec = [0.0] * len(self._vocab)
            for token, weight in self._weighted_text(text)[0].items():
                if token in self._vocab:
                    vec[self._vocab[token]] = weight
            norm = math.sqrt(math.fsum(x * x for x in vec))
            vectors.append(tuple(x / norm for x in vec) if norm > 0 else tuple(vec))
        return vectors


class HttpEmbeddingProvider:
    """Client for an external embedding service.

    POSTs {"texts": [...]} to {base_url}/embed and expects
    {"vectors": [[...], ...]} back. Any transport failure, timeout, or
    malformed payload raises EmbeddingServiceError, and so does a vector
    component that is not a finite number; there is deliberately no silent
    lexical fallback. Vectors are kept per text for the life of the
    provider, so each distinct text is sent at most once; a failed request
    keeps nothing. Returned vectors are shared tuples.
    """

    def __init__(self, base_url: str, timeout: float):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self._vectors: dict[str, tuple[float, ...]] = {}

    def _request(self, texts: list[str]) -> list[tuple[float, ...]]:
        import urllib.error
        import urllib.request

        payload = json.dumps({"texts": texts}).encode("utf-8")
        request = urllib.request.Request(
            self.base_url + "/embed",
            data=payload,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                body = response.read()
        except (urllib.error.URLError, TimeoutError, OSError) as exc:
            raise EmbeddingServiceError(f"embedding service request failed: {exc}") from exc
        try:
            data = json.loads(body)
            vectors = [_parse_vector(v) for v in data["vectors"]]
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise EmbeddingServiceError(f"malformed embedding response: {exc}") from exc
        if len(vectors) != len(texts):
            raise EmbeddingServiceError(
                f"expected {len(texts)} vectors, got {len(vectors)}"
            )
        # Cached and new vectors are compared with each other, so all share one dimension.
        known = next(iter(self._vectors.values()), vectors[0])
        if any(len(v) != len(known) for v in vectors):
            raise EmbeddingServiceError("embedding vectors have mismatched dimensions")
        return vectors

    def embed(self, texts: Sequence[str]) -> list[tuple[float, ...]]:
        texts = list(texts)
        missing = [text for text in dict.fromkeys(texts) if text not in self._vectors]
        if missing:
            self._vectors.update(zip(missing, self._request(missing)))
        return [self._vectors[text] for text in texts]

    def similarity(self, a: str, b: str) -> float:
        try:
            return cosine(*self.embed([a, b]))
        except ZeroVector:
            return 0.0


def _parse_vector(value) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise TypeError("an embedding vector must be a list of numbers")
    return tuple(map(checked_float, value))
