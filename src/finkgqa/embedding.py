"""Text embeddings for questions and triplets.

A deterministic feature-hashing embedder keeps the pipeline fully offline; a
remote provider speaking the common /embeddings wire format can be swapped in
without changing anything downstream.
"""

from __future__ import annotations

import hashlib
import re
import sys

import numpy as np

from .llm_client import LlmUnavailable, ProviderClient


class EmptyText(ValueError):
    """Nothing to embed: empty or token-free input."""


class DimensionMismatch(ValueError):
    """Vectors of different dimensions were combined."""


DEFAULT_DIM = 256


def _unit_fractions(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(V, its row norms), so that V / norms[:, None] scales each row of V to
    unit norm; a zero row has no direction, so it becomes e0 over 1.0."""
    norms = np.sqrt(np.einsum("ij,ij->i", V, V))
    zero = norms == 0.0
    V[zero, 0] = 1.0
    norms[zero] = 1.0
    return V, norms


_TOKEN_RE = re.compile(r"[a-z0-9]+")


def _pack_piece(piece: str, dim: int, width: int, features: dict[str, bytes]) -> bytes:
    """Packed feature codes of the tokens in one lowercased, whitespace-free piece.

    A feature (a word token or one of its character trigrams) hashes to a
    bucket b and a sign: code b for +1, dim + b for -1, packed into `width`
    bytes in native byte order. `features` memoises each feature's code.
    """
    packed = []
    for token in _TOKEN_RE.findall(piece):
        for feat in [token] + [token[i:i + 3] for i in range(len(token) - 2)]:
            code = features.get(feat)
            if code is None:
                digest = hashlib.blake2b(feat.encode("utf-8"), digest_size=8).digest()
                bucket = int.from_bytes(digest[:4], "little") % dim
                code = features[feat] = (bucket if digest[4] & 1 else dim + bucket) \
                    .to_bytes(width, sys.byteorder)
            packed.append(code)
    return b"".join(packed)


def _hashed_bags(texts: list[str], dim: int, pieces: dict[str, bytes],
                 features: dict[str, bytes]) -> tuple[np.ndarray, np.ndarray]:
    """Signed bags of the texts' hashed features and their norms, one row per
    text, as `_unit_fractions` gives them.

    Tokens never cross whitespace, and lowercasing maps one character at a
    time (only the final sigma looks at its neighbours, and no sigma is
    ASCII), so a text's tokens are those of its lowercased whitespace-separated
    pieces, in order. `pieces` memoises each piece's packed codes, and
    `features` each feature's code. Each bag entry is a count of +1 codes
    minus a count of -1 codes: an integer, as the sum of +/-1 one feature at
    a time would give, so the rows and the norms have the same bits. The bags
    come back in the narrowest signed integer dtype that holds every count.
    """
    if dim < 16:
        raise ValueError(f"dim {dim} too small (min 16)")
    dtype = np.dtype(np.uint16 if 2 * dim <= 1 << 16 else np.uint32)  # codes < 2·dim
    packed = []
    for text in texts:
        codes = b"".join([pieces[p] if p in pieces else
                          pieces.setdefault(p, _pack_piece(p, dim, dtype.itemsize, features))
                          for p in text.lower().split()])
        if not codes:
            raise EmptyText(f"no tokens in {text!r}")
        packed.append(codes)
    n = len(texts)
    rows = np.repeat(np.arange(n), [len(codes) // dtype.itemsize for codes in packed])
    counts = np.bincount(rows * 2 * dim + np.frombuffer(b"".join(packed), dtype=dtype),
                         minlength=n * 2 * dim).reshape(n, 2, dim)
    V = np.subtract(counts[:, 0], counts[:, 1], dtype=np.float64)
    V, norms = _unit_fractions(V)  # signed hashing can cancel a text to zero
    peak = int(np.abs(V).max(initial=0.0))
    # -1 - peak fits a signed type exactly when +peak does.
    return V.astype(np.min_scalar_type(-1 - peak)), norms


class LocalHashEmbedder:
    """Offline provider: word tokens and in-word character trigrams hashed into
    a signed bag, one unit vector of `dim` entries per text.

    A pure function of (text, dim): word order never matters, token counts do.
    Each whitespace-separated piece of a text is memoised per instance as its
    packed feature codes, and each word or trigram feature as its code:
    metric, relation, unit and year pieces recur in nearly every triplet
    text, and a new piece (a value, say) mostly holds known trigrams.
    Concurrent writes to the memos store the same value under a key, so
    threads share them without a lock.
    """

    def __init__(self, dim: int = DEFAULT_DIM):
        self.dim = dim
        self._pieces: dict[str, bytes] = {}
        self._features: dict[str, bytes] = {}

    def embed(self, text: str) -> np.ndarray:
        numerators, denominators = self.embed_fractions([text])
        return (numerators / denominators[:, None])[0]

    def embed_fractions(self, texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """Every text's embedding in one pass, as (numerators, denominators):
        the texts' signed bucket counts, in the narrowest signed integer dtype
        that holds them, and their norms. Row i of the quotient has the bits
        of `embed(texts[i])`."""
        return _hashed_bags(texts, self.dim, self._pieces, self._features)


class RemoteEmbedder(ProviderClient):
    """Provider for a POST {endpoint}/embeddings server, over the shared cached request path."""

    def embed(self, text: str) -> np.ndarray:
        if not text.strip():
            raise EmptyText("empty text")
        payload = {"model": self.cfg.model, "input": text}
        return self._post("/embeddings", payload, self._unit_vector)

    def embed_fractions(self, texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """One `embed` row per text, each through its cache, over denominators
        of 1.0, which divide back exactly.

        No texts give (0, 0) numerators without a request: the width is the server's.
        """
        if not texts:
            return np.empty((0, 0)), np.ones(0)
        return np.stack([self.embed(text) for text in texts]), np.ones(len(texts))

    @staticmethod
    def _unit_vector(body: dict) -> np.ndarray:
        try:
            vec = np.array(body["data"][0]["embedding"], dtype=np.float64)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise LlmUnavailable(f"malformed embeddings response: {body}") from exc
        if vec.ndim != 1 or not vec.size:
            raise LlmUnavailable(f"malformed embeddings response: {body}")
        V, norms = _unit_fractions(vec[None, :])
        return V[0] / norms[0]
