"""The retriever's training set: each question's embedding is stored once,
and each triplet embedding as the embedder's fraction.

`cmd_train_retriever` keeps the training pairs as a `GroupedFeatures`
(question embeddings, a row -> document index, each triplet embedding's
numerators and denominator, and the structural columns). These tests hold it
to the dense matrix it replaces: the same rows bit for bit, the same model
file, and a peak well below that matrix's size. The triplet store is read
one document's run of lines at a time, and each run's parsed triplets are
freed once its rows are appended.
"""

import gc
import hashlib
import json
import random
import tracemalloc
from collections import Counter
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from finkgqa import kg_schema, pipeline as pl, retriever
from finkgqa.embedding import DimensionMismatch, LocalHashEmbedder, RemoteEmbedder
from finkgqa.kg_schema import parse_triplets_file
from finkgqa.llm_client import ProviderConfig
from finkgqa.preprocess import QuestionRecord

METRICS = ("net revenue", "operating expenses", "interest expense", "cost of sales",
           "net income", "long-term debt", "capital expenditures", "inventories",
           "deferred revenue", "free cash flow", "dividends paid")


def _record(doc_id: str, years: list[int], metrics: tuple[str, ...],
            rng: random.Random) -> dict:
    """A FinQA-shaped record: year rows, USD columns, one percent column."""
    header = ["Year", *metrics, "operating margin"]
    rows = [[str(year)] + [f"${rng.randint(100, 99_999):,}" for _ in metrics]
            + [f"{rng.randint(10, 400) / 10}%"] for year in years]
    year_row = rng.choice(rows)
    col = rng.randrange(1, len(header))
    return {
        "id": doc_id,
        "pre_text": [f"{doc_id} reported its results for {years[-1]}."],
        "post_text": ["management expects continued growth."],
        "table": [header, *rows],
        "qa": {
            "question": f"what was the {header[col]} of {doc_id} in {year_row[0]}?",
            "answer": year_row[col],
            "gold_inds": {"table_1": f"the {header[col]} of {year_row[0]} is {year_row[col]} ."},
        },
    }


def _write_corpus(path: Path, n_docs: int, n_years: int = 8, seed: int = 0) -> Path:
    """n_docs documents of n_years rows by 12 numeric columns, plus one
    document with a single numeric cell, so that one question has one candidate."""
    rng = random.Random(seed)
    records = [_record(f"corp-{i}", list(range(2010, 2010 + n_years)), METRICS, rng)
               for i in range(n_docs)]
    records.insert(n_docs // 2, _record("lone-corp", [2019], (), rng))
    path.write_text(json.dumps(records), encoding="utf-8")
    return path


def _config(tmp_path: Path, corpus: Path, epochs: int) -> pl.PipelineConfig:
    return pl.PipelineConfig(
        seed=5, data={"train": str(corpus)}, output_dir=str(tmp_path / "out"),
        cache_dir=str(tmp_path / "cache"), extraction_backend="table",
        epochs=epochs)


def _dense_training_set(cfg: pl.PipelineConfig):
    """The dense construction the grouped one replaced: per-document
    `build_features` blocks joined by `np.concatenate`."""
    docs = pl._load_documents(cfg, "train")
    triplets = parse_triplets_file(pl.triplets_path(cfg, "train").read_text(encoding="utf-8"))
    by_doc: dict[str, list] = {}
    for t in triplets:
        by_doc.setdefault(t.source_doc, []).append(t)
    embedder = pl.build_embedder(cfg.embeddings, cfg.cache_dir)
    blocks, labels = [], []
    for doc in docs:
        doc_triplets = by_doc.get(doc.id, [])
        if not doc_triplets:
            continue
        labels.extend(retriever.label_triplets(doc, doc_triplets))
        blocks.append(retriever.build_features(doc.question, doc_triplets, embedder))
    return np.concatenate(blocks), np.asarray(labels, dtype=np.float64)


def test_train_retriever_writes_the_dense_matrix_model(tmp_path):
    cfg = _config(tmp_path, _write_corpus(tmp_path / "train.json", n_docs=6), epochs=3)
    pl.cmd_ingest(cfg)
    pl.cmd_extract(cfg)
    summary = pl.cmd_train_retriever(cfg)

    X, y = _dense_training_set(cfg)
    n_pos = int(y.sum())
    train_cfg = retriever.TrainConfig(epochs=cfg.epochs, seed=cfg.seed,
                                      positive_weight=(len(y) - n_pos) / n_pos)
    assert summary["pairs"] == len(X) and len(X) % train_cfg.batch_size != 0
    model, _ = retriever.train(X, y, train_cfg)
    retriever.save_model(model, tmp_path / "dense_model.json")
    assert pl.model_path(cfg).read_bytes() == (tmp_path / "dense_model.json").read_bytes()


def _assert_batches_equal(X: retriever.GroupedFeatures, dense: np.ndarray,
                          batch_size: int, rng: np.random.Generator) -> None:
    """Every mini-batch, as `train` draws them, gathers the dense rows' bytes."""
    assert X.shape == dense.shape
    order = rng.permutation(len(dense))
    for start in range(0, len(order), batch_size):
        batch = order[start:start + batch_size]
        rows = X[batch]
        assert rows.dtype == dense.dtype and rows.shape == (len(batch), dense.shape[1])
        assert rows.tobytes() == dense[batch].tobytes()


NUMERATOR_DTYPES = ("int8", "int16", "int32", "float64")


@settings(deadline=None)
@given(sizes=st.lists(st.integers(1, 9), min_size=1, max_size=8),
       dim=st.integers(1, 6), batch_size=st.integers(1, 16), seed=st.integers(0, 2**16),
       dtypes=st.lists(st.sampled_from(NUMERATOR_DTYPES), min_size=8, max_size=8))
@example(sizes=[1, 7, 1, 3], dim=4, batch_size=5, seed=0,  # 12 % 5 != 0
         dtypes=["int8", "int16", "int8", "float64"] * 2)
def test_grouped_rows_equal_dense_rows(sizes, dim, batch_size, seed, dtypes):
    """Document j's numerators take dtypes[j], over their full range, so the
    store widens as later documents need."""
    rng = np.random.default_rng(seed)
    parts, blocks = [], []  # per document: `feature_parts` output, and its dense rows
    for size, dtype in zip(sizes, dtypes):
        q = rng.normal(size=dim)
        if dtype == "float64":  # http-like: unit rows over 1.0
            numerators, denominators = rng.normal(size=(size, dim)), np.ones(size)
        else:
            info = np.iinfo(dtype)
            numerators = rng.integers(info.min, info.max, size=(size, dim), dtype=dtype,
                                      endpoint=True)
            denominators = rng.uniform(0.5, 2.0 ** 20, size=size)
        S = rng.normal(size=(size, retriever.N_STRUCTURAL))
        parts.append((q, numerators, denominators, S))
        blocks.append(np.hstack([np.tile(q, (size, 1)),
                                 numerators.astype(np.float64) / denominators[:, None], S]))
    X = retriever.GroupedFeatures()
    for part in parts:
        X.append(*part)
    assert X.N.dtype == np.result_type(*dtypes[:len(sizes)])
    _assert_batches_equal(X, np.concatenate(blocks), batch_size, rng)


def _piece_triplet(text: str, doc: str) -> kg_schema.Triplet:
    """A triplet whose embedded text is `text`."""
    return kg_schema.make_triplet("NET_REVENUE", Decimal(5), subject=text, relation="",
                                  obj="", source_doc=doc)


def _rows_from_provider(provider, documents: list[list[str]],
                        dim: int) -> retriever.GroupedFeatures:
    """Grouped rows of `provider`'s `feature_parts` equal its `build_features`
    rows, for one question per document against triplets with these texts."""
    questions = [QuestionRecord(text=f"what was net revenue of corp-{j} in 2019?",
                                gold_answer="5") for j in range(len(documents))]
    triplets = [[_piece_triplet(text, f"corp-{j}") for text in texts]
                for j, texts in enumerate(documents)]
    dense = np.concatenate([retriever.build_features(q, ts, provider)
                            for q, ts in zip(questions, triplets)])
    assert dense.shape[1] == retriever.feature_dim(dim)
    X = retriever.GroupedFeatures()
    for q, ts in zip(questions, triplets):
        X.append(*retriever.feature_parts(q, ts, provider))
    for batch_size in (1, 3, 64):
        _assert_batches_equal(X, dense, batch_size, np.random.default_rng(batch_size))
    return X


# At dim 16 "c" and "7" cancel to a zero bag (tests/test_embedding.py's CANCELLING).
CANCELLING = "c 7"


def test_grouped_rows_from_the_local_embedder_equal_dense_rows():
    """Counts past int8 and past int16 widen the store; a zero bag is e0 over 1.0."""
    documents = [["net revenue 2019", "operating expenses 2018 5829 million"],
                 [CANCELLING, " ".join(["aa"] * 200), "interest expense 2017"],
                 [" ".join(["ab"] * 40_000), CANCELLING],
                 ["cost of sales 2019"]]
    embedder = LocalHashEmbedder(dim=16)
    numerators, denominators = embedder.embed_fractions([CANCELLING])
    assert numerators.tolist() == [[1] + [0] * 15] and denominators.tolist() == [1.0]
    for texts, dtype in zip(documents, ("int8", "int16", "int32", "int8")):
        assert embedder.embed_fractions(texts)[0].dtype == dtype
    X = _rows_from_provider(embedder, documents, dim=16)
    assert X.N.dtype == np.int32


def _remote_embedder(width) -> RemoteEmbedder:
    """An http embedder whose server answers each text with `width()` floats
    drawn from the text's hash."""
    def transport(url, payload, headers, timeout):
        seed = int.from_bytes(hashlib.blake2b(payload["input"].encode()).digest()[:8], "little")
        vec = np.random.default_rng(seed).normal(size=width())
        return 200, {"data": [{"embedding": vec.tolist()}]}

    cfg = ProviderConfig(kind="http", endpoint="http://embeddings.invalid", model="m")
    return RemoteEmbedder(cfg, transport=transport)


def test_grouped_rows_from_an_http_embedder_equal_dense_rows():
    documents = [["net revenue 2019", "operating expenses 2018"], [CANCELLING],
                 ["interest expense 2017", "cost of sales", "eps 1.25"]]
    X = _rows_from_provider(_remote_embedder(lambda: 24), documents, dim=24)
    assert X.N.dtype == np.float64


def test_grouped_features_reject_a_document_of_another_width():
    """An http embedder whose dimension changes between documents."""
    width = [24]
    embedder = _remote_embedder(lambda: width[0])
    question = QuestionRecord(text="what was net revenue in 2019?", gold_answer="5")
    X = retriever.GroupedFeatures()
    X.append(*retriever.feature_parts(question, [_piece_triplet("a b", "d0")], embedder))
    width[0] = 32
    parts = retriever.feature_parts(QuestionRecord(text="and in 2018?", gold_answer="4"),
                                    [_piece_triplet("c d", "d1")], embedder)
    with pytest.raises(DimensionMismatch):
        X.append(*parts)


def _train_retriever_peak(tmp_path, n_docs: int) -> float:
    """tracemalloc's peak during `cmd_train_retriever`, over the dense matrix's bytes."""
    cfg = _config(tmp_path, _write_corpus(tmp_path / "train.json", n_docs=n_docs), epochs=1)
    pl.cmd_ingest(cfg)
    pl.cmd_extract(cfg)
    tracemalloc.start()
    try:
        pairs = pl.cmd_train_retriever(cfg)["pairs"]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pairs > 75 * n_docs
    return peak / (pairs * retriever.feature_dim(cfg.embeddings.dim) * 8)


def test_train_retriever_peak_is_below_twice_the_dense_matrix(tmp_path):
    ratio = _train_retriever_peak(tmp_path, n_docs=20)
    assert ratio < 2, f"peak {ratio:.2f}x the dense matrix"


def test_train_retriever_peak_is_below_the_dense_matrix(tmp_path):
    """The packed triplet embeddings leave the dense matrix's bytes unspent."""
    ratio = _train_retriever_peak(tmp_path, n_docs=20)
    assert ratio < 0.8, f"peak {ratio:.2f}x the dense matrix"


def _live_triplets() -> int:
    gc.collect()
    return sum(isinstance(o, kg_schema.Triplet) for o in gc.get_objects())


def test_parsed_triplets_are_freed_before_training(tmp_path, monkeypatch):
    cfg = _config(tmp_path, _write_corpus(tmp_path / "train.json", n_docs=20), epochs=1)
    pl.cmd_ingest(cfg)
    pl.cmd_extract(cfg)
    store = pl.triplets_path(cfg, "train").read_text(encoding="utf-8")
    per_doc = Counter(t.source_doc for t in parse_triplets_file(store))
    assert sum(per_doc.values()) > 10 * max(per_doc.values())

    train = retriever.train
    live_at_train = []

    def counting_train(*args, **kwargs):
        live_at_train.append(_live_triplets() - before)
        return train(*args, **kwargs)

    monkeypatch.setattr(retriever, "train", counting_train)
    before = _live_triplets()  # whatever earlier tests left alive
    pl.cmd_train_retriever(cfg)
    assert len(live_at_train) == 1
    assert live_at_train[0] <= max(per_doc.values()), live_at_train


def test_featurisation_holds_one_document_and_one_parse_block(tmp_path, monkeypatch):
    """While a document is featurised, at most its own parsed triplets and one
    parse block's are alive, not the whole store."""
    cfg = _config(tmp_path, _write_corpus(tmp_path / "train.json", n_docs=20), epochs=1)
    pl.cmd_ingest(cfg)
    pl.cmd_extract(cfg)
    store = pl.triplets_path(cfg, "train").read_text(encoding="utf-8")
    per_doc = Counter(t.source_doc for t in parse_triplets_file(store))
    bound = max(per_doc.values()) + kg_schema.PARSE_BLOCK
    assert sum(per_doc.values()) > 10 * bound

    feature_parts = retriever.feature_parts
    live_at_featurising = []

    def counting_feature_parts(*args, **kwargs):
        live_at_featurising.append(_live_triplets() - before)
        return feature_parts(*args, **kwargs)

    monkeypatch.setattr(retriever, "feature_parts", counting_feature_parts)
    before = _live_triplets()  # whatever earlier tests left alive
    pl.cmd_train_retriever(cfg)
    assert len(live_at_featurising) == len(per_doc)
    assert max(live_at_featurising) <= bound, live_at_featurising
