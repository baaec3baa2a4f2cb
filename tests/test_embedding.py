import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from finkgqa.embedding import (
    DimensionMismatch,
    Embedding,
    EmbeddingConfig,
    EmptyText,
    LocalHashEmbedder,
    ProviderUnavailable,
    RemoteEmbedder,
    cosine,
    fallback_embed,
)


def test_local_embed_deterministic():
    a = fallback_embed("x")
    b = fallback_embed("x")
    assert np.array_equal(a.values, b.values)
    assert a.provider_tag == b.provider_tag == "local-hash-256"


def test_unit_norm():
    for text in ("x", "net revenue in 2015", "a b c d e f g"):
        vec = fallback_embed(text).values
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-6


def test_empty_text_rejected():
    with pytest.raises(EmptyText):
        fallback_embed("")
    with pytest.raises(EmptyText):
        fallback_embed("   !!!   ")


def test_min_dimension():
    with pytest.raises(ValueError):
        fallback_embed("x", dim=8)
    with pytest.raises(ValueError):
        LocalHashEmbedder(dim=8).embed("x")


def test_repeated_token_same_direction():
    once = fallback_embed("aa")
    twice = fallback_embed("aa aa")
    assert abs(cosine(once, twice) - 1.0) < 1e-6


def test_bag_model_ignores_word_order():
    a = fallback_embed("net revenue grew in 2015")
    b = fallback_embed("2015 in grew revenue net")
    assert np.array_equal(a.values, b.values)


def test_similarity_ordering():
    anchor = fallback_embed("net revenue 2015")
    close = fallback_embed("net revenue in 2015")
    far = fallback_embed("lease obligations")
    assert cosine(anchor, close) > cosine(anchor, far)


def _reference_embedding(text: str, dim: int) -> np.ndarray:
    """Independent reimplementation: accumulate into a dict, then vectorize."""
    import re as _re

    words = _re.findall(r"[a-z0-9]+", text.lower())
    counts: dict[int, float] = {}
    feats = []
    for w in words:
        feats.append(w)
        for i in range(len(w) - 2):
            feats.append(w[i:i + 3])
    for f in feats:
        h = hashlib.blake2b(f.encode(), digest_size=8).digest()
        idx = int.from_bytes(h[:4], "little") % dim
        counts[idx] = counts.get(idx, 0.0) + (1.0 if h[4] & 1 else -1.0)
    vec = np.zeros(dim)
    for idx, val in counts.items():
        vec[idx] = val
    norm = np.linalg.norm(vec)
    if norm == 0:
        vec[0] = 1.0
        norm = 1.0
    return vec / norm


def test_matches_independent_reimplementation():
    text = "net revenue of Entergy was 5829 million USD in 2015"
    mine = fallback_embed(text, dim=256).values
    theirs = _reference_embedding(text, 256)
    assert np.allclose(mine, theirs, atol=1e-12)


# ---------------------------------------------------------------------------
# Cosine


def test_cosine_identity():
    a = fallback_embed("hello world")
    assert abs(cosine(a, a) - 1.0) < 1e-6


def test_cosine_orthogonal():
    dim = 16
    a = Embedding(values=np.eye(dim)[0], provider_tag="t")
    b = Embedding(values=np.eye(dim)[1], provider_tag="t")
    assert abs(cosine(a, b)) < 1e-6


def test_cosine_hand_computed():
    a = Embedding(values=np.array([0.6, 0.8]), provider_tag="t")
    b = Embedding(values=np.array([0.8, 0.6]), provider_tag="t")
    # 0.6*0.8 + 0.8*0.6 = 0.96 by hand
    assert math.isclose(cosine(a, b), 0.96, abs_tol=1e-12)


def test_cosine_dimension_mismatch():
    a = fallback_embed("x", dim=32)
    b = fallback_embed("x", dim=64)
    with pytest.raises(DimensionMismatch):
        cosine(a, b)


texts = st.text(alphabet="abcdefg 0123456789", min_size=1, max_size=30).filter(
    lambda s: any(c.isalnum() for c in s))


@given(texts, texts)
def test_cosine_symmetry_exact(s1, s2):
    a = fallback_embed(s1, dim=64)
    b = fallback_embed(s2, dim=64)
    assert cosine(a, b) == cosine(b, a)
    assert -1.0 <= cosine(a, b) <= 1.0


@given(texts)
def test_fallback_norm_property(s):
    assert abs(np.linalg.norm(fallback_embed(s, dim=64).values) - 1.0) < 1e-6


# ---------------------------------------------------------------------------
# Remote provider


def test_remote_embedder_normalizes_and_caches(tmp_path):
    from finkgqa.llm_client import ResponseCache

    calls = []

    def transport(url, payload, headers, timeout):
        calls.append((url, payload))
        return 200, {"data": [{"embedding": [3.0, 4.0]}]}

    embedder = RemoteEmbedder(EmbeddingConfig(endpoint="http://e", model_name="m"),
                              cache=ResponseCache(tmp_path), transport=transport)
    first = embedder.embed("hello")
    assert np.allclose(first.values, [0.6, 0.8])
    assert first.provider_tag == "remote:m"
    second = embedder.embed("hello")
    assert np.array_equal(first.values, second.values)
    assert calls == [("http://e/embeddings", {"model": "m", "input": "hello"})]


def test_remote_embedder_unavailable():
    def transport(url, payload, headers, timeout):
        return 500, {}

    embedder = RemoteEmbedder(EmbeddingConfig(endpoint="http://e", model_name="m",
                                              max_retries=1), transport=transport)
    with pytest.raises(ProviderUnavailable):
        embedder.embed("hello")


def test_provider_objects_share_interface():
    local = LocalHashEmbedder(dim=64)
    vec = local.embed("net revenue")
    assert vec.dim == 64
    assert vec.provider_tag == local.tag


# ---------------------------------------------------------------------------
# Memoised local provider

_TEXTS = ["NET_REVENUE HAS_VALUE_IN_2015 5829 million USD",
          "what was the net revenue of entergy in 2015?",
          "OPERATING_EXPENSES HAS_VALUE_AFTER_2020 (123) thousand GBP",
          "aa aa aa", "x", "EPS HAS_VALUE_IN_2019 1.25 USD"]


@given(st.lists(texts, min_size=1, max_size=8))
def test_local_embedder_bitwise_equals_fallback(batch):
    embedder = LocalHashEmbedder(dim=64)
    for text in batch + batch:  # the second pass is served from the token memo
        assert embedder.embed(text).values.tobytes() == \
            fallback_embed(text, dim=64).values.tobytes()


def test_local_embedder_shared_by_threads_stays_exact():
    import sys
    import threading

    embedder = LocalHashEmbedder(dim=256)
    n_threads = 4  # more than the cores, and than the pipeline's two workers
    start = threading.Barrier(n_threads)
    results: dict[int, list] = {}

    def work(worker):
        start.wait(timeout=10)
        order = _TEXTS if worker % 2 else _TEXTS[::-1]
        results[worker] = [(t, embedder.embed(t).values) for t in order * 50]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(w,)) for w in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(results) == list(range(n_threads))
    for worker in results:
        for text, values in results[worker]:
            assert values.tobytes() == fallback_embed(text, dim=256).values.tobytes()
    for text in _TEXTS:  # and after the threads have filled the memo
        assert embedder.embed(text).values.tobytes() == \
            fallback_embed(text, dim=256).values.tobytes()
