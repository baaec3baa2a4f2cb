"""Text embeddings for questions and triplets.

A deterministic feature-hashing embedder keeps the pipeline fully offline; a
remote provider speaking the common /embeddings wire format can be swapped in
without changing anything downstream.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np

from .llm_client import LlmUnavailable, ProviderClient


class EmptyText(ValueError):
    """Nothing to embed: empty or token-free input."""


class DimensionMismatch(ValueError):
    """Vectors of different dimensions were combined."""


DEFAULT_DIM = 256


def _unit_rows(V: np.ndarray) -> np.ndarray:
    """Each row of V scaled to unit norm; a zero row has no direction, so it becomes e0."""
    norms = np.sqrt(np.einsum("ij,ij->i", V, V))
    zero = norms == 0.0
    V[zero, 0] = 1.0
    norms[zero] = 1.0
    return V / norms[:, None]


_TOKEN_RE = re.compile(r"[a-z0-9]+")


def _hash_token(token: str, dim: int) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Buckets and signs of the word token and of each of its character trigrams."""
    buckets, signs = [], []
    for feat in [token] + [token[i:i + 3] for i in range(len(token) - 2)]:
        digest = hashlib.blake2b(feat.encode("utf-8"), digest_size=8).digest()
        buckets.append(int.from_bytes(digest[:4], "little") % dim)
        signs.append(1.0 if digest[4] & 1 else -1.0)
    return tuple(buckets), tuple(signs)


def _hashed_bags(texts: list[str], dim: int, memo: dict) -> np.ndarray:
    """Unit-norm signed bags of the texts' hashed features, one row per text.

    `memo` maps token -> (buckets, signs). Every entry is an integer sum of
    +/-1, exact in float64, so the order-free bincount and the sum of squares
    behind each norm give the same bits as accumulating one feature at a time.
    """
    if dim < 16:
        raise ValueError(f"dim {dim} too small (min 16)")
    buckets: list[int] = []
    signs: list[float] = []
    lengths = []
    for text in texts:
        tokens = _TOKEN_RE.findall(text.lower())
        if not tokens:
            raise EmptyText(f"no tokens in {text!r}")
        before = len(buckets)
        for tok in tokens:
            hashed = memo.get(tok)
            if hashed is None:
                hashed = memo[tok] = _hash_token(tok, dim)
            buckets += hashed[0]
            signs += hashed[1]
        lengths.append(len(buckets) - before)
    n = len(texts)
    rows = np.repeat(np.arange(n), lengths)
    V = np.bincount(rows * dim + np.asarray(buckets, dtype=np.intp),
                    weights=signs, minlength=n * dim).reshape(n, dim)
    return _unit_rows(V)  # signed hashing can cancel a text to zero


class LocalHashEmbedder:
    """Offline provider: word tokens and in-word character trigrams hashed into
    a signed bag, one unit vector of `dim` entries per text.

    A pure function of (text, dim): word order never matters, token counts do.
    Token hashes are memoised per instance: metric, relation, unit and year
    tokens recur in nearly every triplet text. Concurrent writes to the memo
    store the same value under a key, so threads share it without a lock.
    """

    def __init__(self, dim: int = DEFAULT_DIM):
        self.dim = dim
        self._memo: dict[str, tuple[tuple[int, ...], tuple[float, ...]]] = {}

    def embed(self, text: str) -> np.ndarray:
        return _hashed_bags([text], self.dim, self._memo)[0]

    def embed_many(self, texts: list[str]) -> np.ndarray:
        """Rows equal to `embed(text)`, for every text in one pass."""
        return _hashed_bags(texts, self.dim, self._memo)


class RemoteEmbedder(ProviderClient):
    """Provider for a POST {endpoint}/embeddings server, over the shared cached request path."""

    def embed(self, text: str) -> np.ndarray:
        if not text.strip():
            raise EmptyText("empty text")
        payload = {"model": self.cfg.model, "input": text}
        return self._post("/embeddings", payload, self._unit_vector)

    def embed_many(self, texts: list[str]) -> np.ndarray:
        """One row per text, each through `embed` and its cache.

        No texts give a (0, 0) array without a request: the width is the server's.
        """
        if not texts:
            return np.empty((0, 0))
        return np.stack([self.embed(text) for text in texts])

    @staticmethod
    def _unit_vector(body: dict) -> np.ndarray:
        try:
            vec = np.array(body["data"][0]["embedding"], dtype=np.float64)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise LlmUnavailable(f"malformed embeddings response: {body}") from exc
        if vec.ndim != 1 or not vec.size:
            raise LlmUnavailable(f"malformed embeddings response: {body}")
        return _unit_rows(vec[None, :])[0]
