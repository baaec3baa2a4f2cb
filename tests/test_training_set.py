"""The retriever's training set: each question's embedding is stored once.

`cmd_train_retriever` keeps the training pairs as a `GroupedFeatures`
(question embeddings, a row -> document index, and the rest of each row).
These tests hold it to the dense matrix it replaces: the same rows bit for
bit, the same model file, and a peak well below that matrix's size. Each
document's parsed triplets are freed once its rows are filled.
"""

import gc
import json
import random
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st

from finkgqa import kg_schema, pipeline as pl, retriever
from finkgqa.kg_schema import parse_triplets_file

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


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(1, 9), min_size=1, max_size=8),
       dim=st.integers(1, 6), batch_size=st.integers(1, 16), seed=st.integers(0, 2**16))
@example(sizes=[1, 7, 1, 3], dim=4, batch_size=5, seed=0)  # 12 % 5 != 0
def test_grouped_rows_equal_dense_rows(sizes, dim, batch_size, seed):
    rng = np.random.default_rng(seed)
    width = retriever.feature_dim(dim)
    blocks = []  # per-document blocks shaped like `build_features` output
    for size in sizes:
        block = rng.normal(size=(size, width))
        block[:, :dim] = rng.normal(size=dim)
        blocks.append(block)
    dense = np.concatenate(blocks)
    X = retriever.GroupedFeatures(sizes)
    for j, block in enumerate(blocks):
        X.fill(j, block)
    assert X.shape == dense.shape
    order = rng.permutation(len(dense))  # mini-batches as `train` draws them
    for start in range(0, len(order), batch_size):
        batch = order[start:start + batch_size]
        rows = X[batch]
        assert rows.dtype == dense.dtype and rows.shape == (len(batch), width)
        assert rows.tobytes() == dense[batch].tobytes()


def test_train_retriever_peak_is_below_twice_the_dense_matrix(tmp_path):
    cfg = _config(tmp_path, _write_corpus(tmp_path / "train.json", n_docs=20), epochs=1)
    pl.cmd_ingest(cfg)
    pl.cmd_extract(cfg)
    tracemalloc.start()
    try:
        pairs = pl.cmd_train_retriever(cfg)["pairs"]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    dense_bytes = pairs * retriever.feature_dim(cfg.embeddings.dim) * 8
    assert pairs > 1500
    assert peak < 2 * dense_bytes, f"peak {peak / dense_bytes:.2f}x the dense matrix"


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
