"""Stage memory against artifact size: no stage holds a second copy of its split.

Each stage's tracemalloc peak is measured against the bytes of the artifacts
it reads or writes, on a corpus of long filings built here: 30 documents of
100 + 100 narrative sentences around an 8 x 6 table, with the mock chat
provider. A stage that builds its artifact as one string, or keeps every
parsed document next to every output line, peaks at several times the
artifact; a stage that streams its lines peaks near the part it must hold.
"""

import json
import shutil
import tracemalloc
from pathlib import Path

from finkgqa import pipeline as pl

N_DOCS = 30
N_SENTENCES = 100  # before the table, and again after it
YEARS = ("2016", "2017", "2018", "2019", "2020", "2021", "2022")
COLUMNS = ("Year", "Net Revenue", "Operating Income", "Total Assets", "Capital Expenditures",
           "Headcount")


def _record(d: int) -> dict:
    def sentences(where: str) -> list[str]:
        return [f"In {where} note {i} of filing {d}, management discussed segment {i % 7} "
                f"results, liquidity and the outlook for fiscal {YEARS[i % len(YEARS)]}."
                for i in range(N_SENTENCES)]

    rows = [[year, *(f"${100 * d + 10 * r + c}" for c in range(1, len(COLUMNS)))]
            for r, year in enumerate(YEARS)]
    return {
        "id": f"filing-{d}",
        "pre_text": sentences("the opening"),
        "post_text": sentences("the closing"),
        "table": [list(COLUMNS), *rows],
        "qa": {"question": f"what was the net revenue of filing {d} in 2021?",
               "answer": rows[5][1].lstrip("$"), "exe_ans": float(rows[5][1].lstrip("$")),
               "program": "", "gold_inds": {"table_5": f"net revenue of 2021 is {rows[5][1]}"}},
    }


def _peak_bytes(stage) -> int:
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        stage()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _size(*paths: Path) -> int:
    return sum(Path(p).stat().st_size for p in paths)


def test_each_stage_peaks_near_what_it_streams(tmp_path):
    """Measured on this corpus with CPython 3.11, when each stage built its artifact
    as one string next to every parsed document, then streamed: ingest 3.55x ->
    2.58x the raw file; extract 2.37x -> 0.32x its document and triplet stores;
    vanilla answering 5.59x -> 2.88x its predictions; evaluation 3.58x -> 0.30x.
    Against the triplet store, when the whole store was parsed before the first
    document, then read one run at a time: train-retriever 20.02x -> 15.54x
    (the rest is mostly the model's fixed Adam buffers and the saved file).
    Each bound sits about halfway between. Answering in kg mode keeps every
    candidate parsed, by design, and peaks while the model loads: 10.45x ->
    10.48x. Its bound sits 10% above, below what holding the store's text as
    well (another 1x) would reach."""
    corpus = tmp_path / "filings.json"
    corpus.write_text(json.dumps([_record(d) for d in range(N_DOCS)]), encoding="utf-8")
    cfg = pl.PipelineConfig(
        seed=3, data={"test": str(corpus)}, output_dir=str(tmp_path / "out"),
        cache_dir=str(tmp_path / "cache"),
        chat=pl.ProviderConfig(kind="mock", answer_key=str(corpus)))
    pl.build_chat_client(cfg.chat, None)  # the memoised answer key is no stage's cost
    ratios = {}
    ratios["ingest"] = _peak_bytes(lambda: pl.cmd_ingest(cfg)) / _size(corpus)
    peak = _peak_bytes(lambda: pl.cmd_extract(cfg))
    ratios["extract"] = peak / _size(pl.documents_path(cfg, "test"),
                                     pl.triplets_path(cfg, "test"))
    predictions = pl.predictions_path(cfg, "test", "vanilla")
    ratios["answer"] = _peak_bytes(lambda: pl.cmd_answer(cfg, "test", "vanilla")) \
        / _size(predictions)
    ratios["evaluate"] = _peak_bytes(lambda: pl.cmd_evaluate(cfg, "test", "vanilla")) \
        / _size(predictions)
    # The retriever trains on the test split's stores, copied to the train names.
    for path in (pl.documents_path, pl.triplets_path):
        shutil.copyfile(path(cfg, "test"), path(cfg, "train"))
    store = pl.triplets_path(cfg, "test")
    ratios["train-retriever"] = _peak_bytes(lambda: pl.cmd_train_retriever(cfg)) / _size(store)
    ratios["answer-kg"] = _peak_bytes(lambda: pl.cmd_answer(cfg, "test", "kg")) / _size(store)
    bounds = {"ingest": 3.0, "extract": 1.3, "answer": 4.2, "evaluate": 1.9,
              "train-retriever": 17.8, "answer-kg": 11.5}
    assert {k: round(v, 2) for k, v in ratios.items() if v >= bounds[k]} == {}
