"""Self-check of the benchmark's corpus generator: python3 -m pytest bench"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from corpus import QUESTION_KINDS, make_split, write_corpus  # noqa: E402
from finkgqa.evaluator import execute_program, parse_program  # noqa: E402
from finkgqa.extraction import extract_table_triplets  # noqa: E402
from finkgqa.preprocess import load_split  # noqa: E402
from finkgqa.retriever import label_triplets  # noqa: E402
from run import WORKLOADS  # noqa: E402


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def corpus(request, tmp_path_factory):
    shape = WORKLOADS[request.param].shape
    paths = write_corpus(7, shape, tmp_path_factory.mktemp(request.param))
    return shape, {split: load_split(path) for split, path in paths.items()}, paths


def test_every_record_loads_with_none_skipped(corpus):
    shape, docs, _ = corpus
    assert len(docs["train"]) == shape.n_train
    assert len(docs["test"]) == shape.n_test


def test_gold_programs_execute_to_exe_ans(corpus):
    _, docs, _ = corpus
    for doc in docs["train"] + docs["test"]:
        q = doc.question
        assert execute_program(parse_program(q.gold_program), doc.table) \
            == float(q.gold_exe_answer), doc.id


def test_question_texts_are_unique_within_a_split(corpus):
    _, docs, _ = corpus
    for split in docs.values():
        texts = [doc.question.text for doc in split]
        assert len(set(texts)) == len(texts)


def test_tables_have_finqa_shapes(corpus):
    shape, docs, paths = corpus
    lo, hi = shape.year_rows
    for doc in docs["train"] + docs["test"]:
        keys = [row[0] for row in doc.table.rows]
        assert keys[-1] == "thereafter"
        assert lo <= len(keys) - 1 <= hi
        assert all(key.isdigit() for key in keys[:-1])
        assert doc.question.gold_inds
        assert sum("($ in millions)" in h for h in doc.table.header) == shape.usd_cols
        assert sum("(%)" in h for h in doc.table.header) == shape.pct_cols
    cells = [cell for doc in docs["test"] for row in doc.table.rows for cell in row[1:]]
    assert any(cell.startswith("(") for cell in cells)
    raw = json.loads(paths["test"].read_text(encoding="utf-8"))
    programs = [record["qa"]["program"] for record in raw]
    assert {p.split("(")[0] for p in programs} == {"subtract", "divide"}
    assert any("#0" in p for p in programs)


def test_gold_cells_are_labelled_positive(corpus):
    # The weak labels that train the retriever and score kg_recall_at_k must
    # find every question's supporting cells.
    _, docs, _ = corpus
    for doc in docs["train"] + docs["test"]:
        triplets = extract_table_triplets(doc)
        assert any(label_triplets(doc, triplets)), doc.id


def test_seed_decides_content_but_not_size():
    shape = WORKLOADS["chain-cold"].shape
    a = make_split(1, "test", shape, 30)
    assert make_split(1, "test", shape, 30) == a
    b = make_split(2, "test", shape, 30)
    assert a != b

    def size(split):
        ops = sorted(tuple(step.op for step in parse_program(r["qa"]["program"])) for r in split)
        return sum(len(r["table"]) for r in split), ops

    assert size(a) == size(b)
    assert len(set(size(a)[1])) == len(QUESTION_KINDS)
