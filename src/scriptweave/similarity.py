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
    using smoothed idf so every token keeps positive weight. similarity()
    scores arbitrary text pairs, extending the weighting to tokens outside
    the corpus, which keeps similarity(a, a) == 1.0 for any text with at
    least one token. embed() projects onto the fixed corpus vocabulary so
    vectors from different calls share one dimension; tokens outside the
    vocabulary contribute nothing there.

    Work is memoised for the life of the provider: each distinct text is
    tokenised and weighted once, and its L2 norm and unit vector are kept.
    Scores come in rows. Every second text similarity() has been asked
    about is a column, kept in an inverted index (token -> column texts and
    their weights). When the first text's row lacks the second, the whole
    row is filled again against every known column in one pass over that
    index; so a repeated pair, or any pair of a filled row, is a dictionary
    lookup. Scores use the same float operations as uncached scoring (each
    shared token's product, summed by fsum), so every score is
    bit-identical to it in any call order.

    A row costs one score per column, so it pays only when each stage's
    columns are few and arrive early: the task name in library, the step
    texts and the task name in ground (a row never exceeds V + 1 scores),
    none in losses, which only embeds. Grounding asks for one pair per
    call, so the benchmark's count of similarity() calls stays a count of
    pairs asked for (ROADMAP item 4).

    Vectors returned by embed() are shared and read-only. A provider serves
    one CLI stage, so the memo needs no bound.
    """

    def __init__(self, corpus_texts: Iterable[str]):
        docs = [tokenize(text) for text in corpus_texts]
        df: Counter[str] = Counter()
        for tokens in docs:
            df.update(set(tokens))
        # Smoothed idf, computed once per token; a token outside the corpus has df 0.
        self._idf = {t: math.log((1 + len(docs)) / (1 + n)) + 1.0 for t, n in df.items()}
        self._unseen_idf = math.log((1 + len(docs)) / (1 + 0)) + 1.0
        self._vocab = {token: i for i, token in enumerate(sorted(self._idf))}
        self._weighted: dict[str, tuple[dict[str, float], float]] = {}
        self._vectors: dict[str, tuple[float, ...]] = {}
        self._rows: dict[str, dict[str, float]] = {}
        self._columns: dict[str, None] = {}  # every b asked about, as an ordered set
        self._index: dict[str, list[tuple[str, float]]] = {}

    def _weights(self, text: str) -> dict[str, float]:
        idf, unseen = self._idf, self._unseen_idf
        return {t: count * idf.get(t, unseen) for t, count in Counter(tokenize(text)).items()}

    def _memo_weights(self, text: str) -> tuple[dict[str, float], float]:
        weights = self._weights(text)
        entry = (weights, math.sqrt(math.fsum(w * w for w in weights.values())))
        self._weighted[text] = entry
        return entry

    def similarity(self, a: str, b: str) -> float:
        row = self._rows.get(a)
        if row is not None:
            score = row.get(b)
            if score is not None:
                return score
        if b not in self._columns:
            weights, _ = self._weighted.get(b) or self._memo_weights(b)
            self._columns[b] = None
            for token, weight in weights.items():
                self._index.setdefault(token, []).append((b, weight))
        row = self._rows[a] = self._score_row(a)
        return row[b]

    def _score_row(self, a: str) -> dict[str, float]:
        """a's scores against every column in the index."""
        wa, norm_a = self._weighted.get(a) or self._memo_weights(a)
        row = dict.fromkeys(self._columns, 0.0)  # an empty text, or no shared token, scores 0.0
        products: dict[str, list[float]] = {}
        for token, weight in wa.items():
            for column, column_weight in self._index.get(token, ()):
                products.setdefault(column, []).append(weight * column_weight)
        weighted, n_a, fsum = self._weighted, len(wa), math.fsum
        for column, shared in products.items():
            wb, norm_b = weighted[column]
            if len(shared) == n_a and wa == wb:
                row[column] = 1.0
            else:
                # fsum of one product is that product; scores are never negative (idf >= 1).
                score = (shared[0] if len(shared) == 1 else fsum(shared)) / (norm_a * norm_b)
                row[column] = score if score < 1.0 else 1.0
        return row

    def _memo_vector(self, text: str) -> tuple[float, ...]:
        weights, _ = self._weighted.get(text) or self._memo_weights(text)
        vec = [0.0] * len(self._vocab)
        for token, weight in weights.items():
            index = self._vocab.get(token)
            if index is not None:
                vec[index] = weight
        norm = math.sqrt(math.fsum(x * x for x in vec))
        vector = tuple(x / norm for x in vec) if norm > 0 else tuple(vec)
        self._vectors[text] = vector
        return vector

    def embed(self, texts: Sequence[str]) -> list[tuple[float, ...]]:
        vectors = []
        for text in texts:
            vec = self._vectors.get(text)
            vectors.append(vec if vec is not None else self._memo_vector(text))
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
