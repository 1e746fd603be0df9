"""Text similarity providers for document matching and grounding.

Two implementations of the same small interface: a self-contained TF-IDF
cosine provider, and a client for an external embedding service. Both are
deterministic for fixed inputs.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from typing import TYPE_CHECKING, Iterable, Protocol, Sequence

from .errors import EmbeddingServiceError

if TYPE_CHECKING:
    import numpy as np

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


class SimilarityProvider(Protocol):
    def embed(self, texts: Sequence[str]) -> list[np.ndarray]: ...

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

    Per-text work is memoised for the life of the provider: each distinct
    text is tokenised and weighted once, and its L2 norm and unit vector
    are kept. Pair scores are computed from the memoised weights with the
    same float operations as uncached scoring, so they are bit-identical
    to it in any call order. Vectors returned by embed() are shared and
    read-only. A provider serves one CLI stage, so the memo needs no bound.
    """

    def __init__(self, corpus_texts: Iterable[str]):
        docs = [tokenize(text) for text in corpus_texts]
        self._num_docs = len(docs)
        df: Counter[str] = Counter()
        for tokens in docs:
            df.update(set(tokens))
        self._df = dict(df)
        self._vocab = {token: i for i, token in enumerate(sorted(self._df))}
        self._weighted: dict[str, tuple[dict[str, float], float]] = {}
        self._vectors: dict[str, np.ndarray] = {}

    def _idf(self, token: str) -> float:
        return math.log((1 + self._num_docs) / (1 + self._df.get(token, 0))) + 1.0

    def _weights(self, text: str) -> dict[str, float]:
        return {t: count * self._idf(t) for t, count in Counter(tokenize(text)).items()}

    def _memo_weights(self, text: str) -> tuple[dict[str, float], float]:
        weights = self._weights(text)
        entry = (weights, math.sqrt(sum(w * w for w in weights.values())))
        self._weighted[text] = entry
        return entry

    def similarity(self, a: str, b: str) -> float:
        wa, norm_a = self._weighted.get(a) or self._memo_weights(a)
        wb, norm_b = self._weighted.get(b) or self._memo_weights(b)
        if not wa or not wb:
            return 0.0
        if wa == wb:
            return 1.0
        # Summing over sorted tokens keeps the result exactly symmetric.
        dot = sum(wa[t] * wb[t] for t in sorted(wa.keys() & wb.keys()))
        return max(-1.0, min(1.0, dot / (norm_a * norm_b)))

    def _memo_vector(self, text: str) -> np.ndarray:
        import numpy as np

        vec = np.zeros(len(self._vocab))
        for token, count in Counter(tokenize(text)).items():
            index = self._vocab.get(token)
            if index is not None:
                vec[index] = count * self._idf(token)
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec = vec / norm
        vec.flags.writeable = False
        self._vectors[text] = vec
        return vec

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        vectors = []
        for text in texts:
            vec = self._vectors.get(text)
            vectors.append(vec if vec is not None else self._memo_vector(text))
        return vectors


class HttpEmbeddingProvider:
    """Client for an external embedding service.

    POSTs {"texts": [...]} to {base_url}/embed and expects
    {"vectors": [[...], ...]} back. Any transport failure, timeout, or
    malformed payload raises EmbeddingServiceError; there is deliberately
    no silent lexical fallback. Vectors are kept per text for the life of
    the provider, so each distinct text is sent at most once; a failed
    request keeps nothing. Returned vectors are shared and read-only.
    """

    def __init__(self, base_url: str, timeout: float = 10.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self._vectors: dict[str, np.ndarray] = {}

    def _request(self, texts: list[str]) -> list[np.ndarray]:
        import urllib.error
        import urllib.request

        import numpy as np

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
            vectors = [np.asarray(v, dtype=float) for v in data["vectors"]]
        except (ValueError, KeyError, TypeError) as exc:
            raise EmbeddingServiceError(f"malformed embedding response: {exc}") from exc
        if len(vectors) != len(texts):
            raise EmbeddingServiceError(
                f"expected {len(texts)} vectors, got {len(vectors)}"
            )
        # Cached and new vectors are compared with each other, so all share one dimension.
        known = next(iter(self._vectors.values()), vectors[0])
        if any(v.shape != known.shape for v in vectors):
            raise EmbeddingServiceError("embedding vectors have mismatched dimensions")
        for vec in vectors:
            vec.flags.writeable = False
        return vectors

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        texts = list(texts)
        missing = [text for text in dict.fromkeys(texts) if text not in self._vectors]
        if missing:
            self._vectors.update(zip(missing, self._request(missing)))
        return [self._vectors[text] for text in texts]

    def similarity(self, a: str, b: str) -> float:
        import numpy as np

        va, vb = self.embed([a, b])
        norm_a = float(np.linalg.norm(va))
        norm_b = float(np.linalg.norm(vb))
        if norm_a == 0.0 or norm_b == 0.0:
            return 0.0
        return float(np.dot(va, vb) / (norm_a * norm_b))
