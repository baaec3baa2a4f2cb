import hashlib
import re
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from finkgqa.embedding import (
    DimensionMismatch,
    EmptyText,
    LocalHashEmbedder,
    RemoteEmbedder,
)
from finkgqa.kg_schema import make_triplet
from finkgqa.llm_client import LlmUnavailable, ProviderConfig, ResponseCache
from finkgqa.preprocess import QuestionRecord

from feature_reference import dense_reference


def fresh_embed(text: str, dim: int = 256) -> np.ndarray:
    """The local embedding of `text` from an embedder with an empty piece memo."""
    return LocalHashEmbedder(dim).embed(text)


def test_local_embed_deterministic():
    assert np.array_equal(fresh_embed("x"), fresh_embed("x"))


def test_unit_norm():
    for text in ("x", "net revenue in 2015", "a b c d e f g"):
        vec = fresh_embed(text)
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-6


def test_empty_text_rejected():
    with pytest.raises(EmptyText):
        fresh_embed("")
    with pytest.raises(EmptyText):
        fresh_embed("   !!!   ")


def test_min_dimension():
    with pytest.raises(ValueError):
        LocalHashEmbedder(dim=8).embed("x")
    with pytest.raises(ValueError):
        LocalHashEmbedder(dim=8).embed_fractions(["x"])


def test_repeated_token_same_direction():
    once = fresh_embed("aa")
    twice = fresh_embed("aa aa")
    assert abs(float(np.dot(once, twice)) - 1.0) < 1e-6


def test_bag_model_ignores_word_order():
    a = fresh_embed("net revenue grew in 2015")
    b = fresh_embed("2015 in grew revenue net")
    assert np.array_equal(a, b)


def test_similarity_ordering():
    anchor = fresh_embed("net revenue 2015")
    close = fresh_embed("net revenue in 2015")
    far = fresh_embed("lease obligations")
    assert np.dot(anchor, close) > np.dot(anchor, far)


def test_cosine_dimension_mismatch():
    # The cosine of two embeddings is the cos_sim column of the feature rows;
    # embeddings of different widths must be rejected in either role.
    a = fresh_embed("x", dim=32)
    b = fresh_embed("x", dim=64)

    class Fixed:
        def __init__(self, question, triplet):
            self.question, self.triplet = question, triplet

        def embed(self, text):
            return self.question

        def embed_fractions(self, texts):
            return np.stack([self.triplet] * len(texts)), np.ones(len(texts))

    question = QuestionRecord(text="x", gold_answer="x")
    triplets = [make_triplet("NET_REVENUE", Decimal(1), subject="x", source_doc="d")]
    for q_emb, t_emb in ((a, b), (b, a)):
        with pytest.raises(DimensionMismatch):
            dense_reference(question, triplets, Fixed(q_emb, t_emb))


def _reference_embedding(text: str, dim: int) -> np.ndarray:
    """Independent reimplementation: accumulate into a dict, then vectorize."""
    words = re.findall(r"[a-z0-9]+", text.lower())
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


def quotient_rows(embedder, texts: list[str]) -> np.ndarray:
    """The rows that `embedder.embed_fractions(texts)` stands for."""
    numerators, denominators = embedder.embed_fractions(texts)
    return numerators / denominators[:, None]


texts = st.text(alphabet="abcdefg 0123456789", min_size=1, max_size=30).filter(
    lambda s: any(c.isalnum() for c in s))

# At dim=16 the one-character tokens "c" and "7" hash to bucket 7 with
# opposite signs, so this text's bag is exactly zero.
CANCELLING = "c 7"


# Whitespace-separated pieces plus the characters whose lowercasing needs
# care: U+212A KELVIN SIGN and U+0130 lowercase to ASCII ("k", "i" + U+0307),
# and a capital sigma lowercases by context (a final sigma at a word's end).
# The separators include tab, newline and the Unicode spaces U+00A0, U+2003
# and U+3000.
unicode_texts = st.text(
    alphabet=st.sampled_from(list("abcK07 -_:") + ["\u212a", "\u0130", "\u03a3",
                                                      "\t", "\n", "\u00a0", "\u2003",
                                                      "\u3000"]),
    min_size=1, max_size=30).filter(lambda s: re.search(r"[a-z0-9]", s.lower()))


@example(["net revenue of Entergy was 5829 million USD in 2015"], 256)
@example([CANCELLING], 16)
@example(["\u212aelvin \u0130stanbul \u0130\u0130 ab\u03a3 \u03a3\u03a3x k\u03a3k",
          "NET_REVENUE\u00a0HAS_VALUE\u2003in\u30002015\tk\nk"], 64)
@example(["NET_REVENUE HAS_VALUE_IN_2015 5829 million USD"] * 2, 1 << 15)  # widest 2-byte codes
# At dim 2^15 + 1 the word "at25" has bucket 2^15 - 1 and sign -1: code 2^16,
# the first that needs four bytes.
@example(["at25 NET_REVENUE HAS_VALUE_IN_2015 5829 million USD"], (1 << 15) + 1)
@given(st.lists(st.one_of(texts, unicode_texts), min_size=1, max_size=6),
       st.sampled_from([16, 64, 256]))
def test_matches_independent_reimplementation(batch, dim):
    expected = [_reference_embedding(text, dim).tobytes() for text in batch]
    assert [fresh_embed(text, dim=dim).tobytes() for text in batch] == expected
    embedder = LocalHashEmbedder(dim)
    # One batch in which every piece recurs, then the memo those calls warmed.
    rows = quotient_rows(embedder, batch + batch[::-1])
    assert [row.tobytes() for row in rows] == expected + expected[::-1]
    assert [embedder.embed(text).tobytes() for text in batch] == expected
    assert [row.tobytes() for row in quotient_rows(embedder, batch)] == expected


def test_cancelling_text_pins_first_axis():
    assert fresh_embed(CANCELLING, dim=16).tolist() == [1.0] + [0.0] * 15


@given(texts)
def test_fallback_norm_property(s):
    assert abs(np.linalg.norm(fresh_embed(s, dim=64)) - 1.0) < 1e-6


# ---------------------------------------------------------------------------
# Remote provider


def _remote_cfg(**kw):
    return ProviderConfig(**{"endpoint": "http://e", "model": "m", **kw})


def test_remote_embedder_normalizes_and_caches(tmp_path):
    calls = []

    def transport(url, payload, headers, timeout):
        calls.append((url, payload))
        return 200, {"data": [{"embedding": [3.0, 4.0]}]}

    embedder = RemoteEmbedder(_remote_cfg(), cache=ResponseCache(tmp_path),
                              transport=transport)
    first = embedder.embed("hello")
    assert np.allclose(first, [0.6, 0.8])
    second = embedder.embed("hello")
    assert np.array_equal(first, second)
    assert quotient_rows(embedder, ["hello", "hello"]).tobytes() == first.tobytes() * 2
    assert calls == [("http://e/embeddings", {"model": "m", "input": "hello"})]


def test_remote_embedder_unavailable(monkeypatch):
    sleeps = []
    monkeypatch.setattr("time.sleep", sleeps.append)

    def transport(url, payload, headers, timeout):
        return 500, {}

    embedder = RemoteEmbedder(_remote_cfg(max_retries=1), transport=transport)
    with pytest.raises(LlmUnavailable):
        embedder.embed("hello")
    assert sleeps == [0.5]


@pytest.mark.parametrize("malformed", [
    {"unexpected": "shape"},
    {"data": [{"embedding": ["not", "numbers"]}]},
    {"data": [{"embedding": []}]},
    {"data": [{"embedding": [[1.0, 2.0]]}]},
])
def test_remote_embedder_refetches_after_malformed_body(tmp_path, malformed):
    bodies = [malformed, {"data": [{"embedding": [3.0, 4.0]}]}]
    calls = []

    def transport(url, payload, headers, timeout):
        calls.append(payload)
        return 200, bodies[len(calls) - 1]

    embedder = RemoteEmbedder(_remote_cfg(), cache=ResponseCache(tmp_path),
                              transport=transport)
    with pytest.raises(LlmUnavailable):
        embedder.embed("hello")
    assert list(tmp_path.glob("*.json")) == []
    assert np.allclose(embedder.embed("hello"), [0.6, 0.8])
    assert len(calls) == 2


def test_remote_embedder_backs_off_between_retries(monkeypatch):
    sleeps = []
    monkeypatch.setattr("time.sleep", sleeps.append)
    statuses = iter([500, 503, 502, 200])

    def transport(url, payload, headers, timeout):
        return next(statuses), {"data": [{"embedding": [1.0, 0.0]}]}

    embedder = RemoteEmbedder(_remote_cfg(max_retries=3), transport=transport)
    assert np.array_equal(embedder.embed("hello"), [1.0, 0.0])
    assert sleeps == [0.5, 1.0, 2.0]


def test_remote_zero_vector_pins_first_axis():
    def transport(url, payload, headers, timeout):
        return 200, {"data": [{"embedding": [0.0, 0.0]}]}

    embedder = RemoteEmbedder(_remote_cfg(), transport=transport)
    assert embedder.embed("hello").tolist() == [1.0, 0.0]


def test_embed_fractions_of_no_texts_is_zero_rows_without_a_request():
    calls = []

    def transport(url, payload, headers, timeout):
        calls.append(payload)
        return 200, {"data": [{"embedding": [3.0, 4.0]}]}

    remote = quotient_rows(RemoteEmbedder(_remote_cfg(), transport=transport), [])
    assert remote.shape[0] == 0 and remote.dtype == np.float64
    assert calls == []
    local = quotient_rows(LocalHashEmbedder(dim=48), [])
    assert local.shape == (0, 48) and local.dtype == np.float64


def test_provider_objects_share_interface():
    vec = LocalHashEmbedder(dim=64).embed("net revenue")
    assert vec.shape == (64,)


# ---------------------------------------------------------------------------
# Memoised local provider

_TEXTS = ["NET_REVENUE HAS_VALUE_IN_2015 5829 million USD",
          "what was the net revenue of entergy in 2015?",
          "OPERATING_EXPENSES HAS_VALUE_AFTER_2020 (123) thousand GBP",
          "aa aa aa", "x", "EPS HAS_VALUE_IN_2019 1.25 USD"]


@given(st.lists(texts, min_size=1, max_size=8))
def test_local_embedder_bitwise_equals_fallback(batch):
    embedder = LocalHashEmbedder(dim=64)
    for text in batch + batch:  # the second pass is served from the piece memo
        assert embedder.embed(text).tobytes() == fresh_embed(text, dim=64).tobytes()


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
        results[worker] = [(t, embedder.embed(t)) for t in order * 50]

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
            assert values.tobytes() == fresh_embed(text).tobytes()
    for text in _TEXTS:  # and after the threads have filled the memo
        assert embedder.embed(text).tobytes() == fresh_embed(text).tobytes()


@given(st.lists(texts, min_size=1, max_size=8), st.sampled_from([16, 64]))
def test_embed_fractions_rows_equal_embed(batch, dim):
    embedder = LocalHashEmbedder(dim=dim)
    rows = quotient_rows(embedder, batch + [CANCELLING] + batch)
    assert rows.shape == (2 * len(batch) + 1, dim)
    fresh = LocalHashEmbedder(dim=dim)  # an empty memo on the per-text side
    for text, row in zip(batch + [CANCELLING] + batch, rows):
        assert row.tobytes() == fresh.embed(text).tobytes()


def test_embed_fractions_rejects_token_free_text():
    embedder = LocalHashEmbedder(dim=32)
    with pytest.raises(EmptyText):
        embedder.embed_fractions(["net revenue", "  !!! ", "eps"])
    assert quotient_rows(embedder, []).shape == (0, 32)
