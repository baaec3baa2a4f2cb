import json
import re

import pytest
from hypothesis import example, given, reject, strategies as st

from finkgqa.preprocess import (
    FinDocument,
    MalformedRecord,
    Table,
    assemble_text,
    context_years,
    document_record,
    linearize_table,
    load_split,
    parse_record,
)


def test_parse_record_fixture(corpus_docs):
    doc = corpus_docs[0]
    assert doc.id == "alpha-corp-2021"
    assert len(doc.table.rows) == 2
    assert doc.table.header == ("Year", "Net Revenue", "Operating Expenses")
    assert doc.question.text.startswith("what was the net revenue")
    assert doc.question.gold_exe_answer == 120
    assert len(doc.question.gold_inds) == 1


def test_empty_post_text_maps_to_empty(corpus_docs):
    doc = next(d for d in corpus_docs if d.id == "epsilon-labs-eps")
    assert doc.post_text == ()


def test_parse_record_missing_id_or_question():
    with pytest.raises(MalformedRecord):
        parse_record(json.dumps({"pre_text": ["x"], "qa": {"question": "q", "answer": "a"}}))
    with pytest.raises(MalformedRecord):
        parse_record(json.dumps({"id": "d", "pre_text": ["x"], "qa": {"answer": "a"}}))
    with pytest.raises(MalformedRecord):
        parse_record(json.dumps({"id": "d", "qa": {"question": "q", "answer": "a"}}))


def test_short_rows_padded():
    doc = parse_record(json.dumps({
        "id": "pad", "pre_text": [],
        "table": [["Year", "Revenue", "Costs"], ["2020", "10"]],
        "qa": {"question": "q", "answer": "a"},
    }))
    assert doc.table.rows == (("2020", "10", ""),)


def test_gold_inds_accepts_list_and_dict():
    base = {"id": "g", "pre_text": ["x"],
            "qa": {"question": "q", "answer": "a"}}
    as_list = parse_record(json.dumps({**base, "qa": {**base["qa"], "gold_inds": ["s1", "s2"]}}))
    as_dict = parse_record(json.dumps({**base, "qa": {**base["qa"],
                                                      "gold_inds": {"text_0": "s1", "table_1": "s2"}}}))
    assert as_list.question.gold_inds == ("s1", "s2")
    assert as_dict.question.gold_inds == ("s1", "s2")
    # a blank entry is dropped from either shape
    with_blank = parse_record(json.dumps({**base, "qa": {**base["qa"],
                                                         "gold_inds": {"x": "s1", "y": "  "}}}))
    assert with_blank.question.gold_inds == ("s1",)


_text = st.text(max_size=12)  # any code point but a surrogate, blank included
_cell = st.one_of(_text, st.integers(-10**9, 10**9),
                  st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def raw_records(draw):
    """FinQA-shaped records with the variations `parse_record` normalizes."""
    width = draw(st.integers(0, 4))
    header = draw(st.lists(_cell, min_size=width, max_size=width))
    rows = draw(st.lists(st.lists(_cell, max_size=width + 2), max_size=4))  # short and long
    gold_inds = draw(st.one_of(st.none(), _text, st.lists(_text, max_size=3),
                               st.dictionaries(_text, _text, max_size=3)))
    return {
        "id": draw(_text) + "d",
        "pre_text": draw(st.one_of(_text, st.lists(_text, max_size=3))),
        "post_text": draw(st.one_of(st.none(), st.lists(_text, max_size=3))),
        "table": [header, *rows] if draw(st.booleans()) else [],
        "qa": {
            "question": draw(_text) + "?",
            "answer": draw(st.one_of(st.just(""), _text)),
            "exe_ans": draw(st.one_of(st.none(), st.booleans(), st.integers(),
                                      st.floats(allow_nan=False),
                                      st.decimals(allow_nan=False).map(str),
                                      # a NaN Decimal never equals another one
                                      _text.filter(lambda t: "nan" not in t.lower()))),
            "program": draw(st.one_of(st.none(), _text)),
            "gold_inds": gold_inds,
        },
    }


_RECORD = {"id": "r", "pre_text": "one sentence, not a list", "post_text": ["after"],
           "table": [["Year", "Revenue", 2021], ["2020", 1.5], ["2021", 7, -3, "extra"]],
           "qa": {"question": "q", "answer": "", "exe_ans": " 1.50 ", "program": "add(1, 2)",
                  "gold_inds": {"table_1": "the revenue of 2020 is 1.5 .", "text_0": "  "}}}


@given(raw_records())
@example(_RECORD)  # string pre_text, short and long rows, numeric cells, exe_ans only
@example({"id": "ü", "pre_text": ["Umsatz stieg um 5 % — 2021"], "table": [],
          "qa": {"question": "wie viel?", "answer": "5 %", "exe_ans": 0.05,
                 "gold_inds": ["Umsatz stieg um 5 % — 2021", " "]}})  # non-ASCII, no table
def test_document_record_round_trips(record):
    try:
        doc = parse_record(record)
    except MalformedRecord:
        reject()
    assert parse_record(json.loads(json.dumps(document_record(doc)))) == doc


def _reference_sentences(value, name):
    """Text-field parsing that checks and converts item by item."""
    if not value:
        return ()
    if isinstance(value, str):
        value = [value]
    elif not isinstance(value, (list, tuple)) or any(isinstance(s, (list, dict)) for s in value):
        raise MalformedRecord(f"{name} is neither text nor a list of sentences")
    return tuple(str(s) for s in value if str(s).strip())


def _reference_table(raw_table, doc_id):
    """Table parsing that checks and converts cell by cell, and its repair notes."""
    rows = raw_table or []
    if not isinstance(rows, (list, tuple)) or not all(isinstance(r, (list, tuple)) for r in rows):
        raise MalformedRecord(f"record {doc_id} has a table that is not a list of lists")
    if any(isinstance(c, (list, dict)) for row in rows for c in row):
        raise MalformedRecord(f"record {doc_id} has a table cell that is a list or an object")
    rows = [[str(c) for c in row] for row in rows]
    if not rows:
        return Table(), []
    width, data, notes = len(rows[0]), [], []
    for i, row in enumerate(rows[1:]):
        if len(row) < width:
            notes.append(f"doc {doc_id}: padding short table row {i} "
                         f"({len(row)} -> {width} cells)")
            row = row + [""] * (width - len(row))
        elif len(row) > width:
            notes.append(f"doc {doc_id}: truncating long table row {i} "
                         f"({len(row)} -> {width} cells)")
            row = row[:width]
        data.append(tuple(row))
    return Table(header=tuple(rows[0]), rows=tuple(data)), notes


# Any JSON value but an object: text, numbers, null, booleans and nested lists.
_item = st.one_of(_text, st.integers(-10**6, 10**6), st.floats(allow_nan=False),
                  st.none(), st.booleans(), st.lists(_text, max_size=2))
_items = st.one_of(st.lists(_text, max_size=3), st.lists(_item, max_size=3))


@given(st.one_of(st.none(), _text, _items), st.one_of(st.none(), _items),
       st.lists(_items, max_size=4), st.booleans())
@example(["a", 1.5], [None, "b"], [["Year", 2021], ["2020", None, "x"], ["2021"]], False)
@example(["a", ["b"]], None, [], False)
@example(None, None, [["Year", "Revenue"], ["2020", ["5"]]], False)
@example("one", None, [["Year", "Revenue"], ("2020", "5")], False)
def test_parse_record_matches_the_per_item_reference(pre, post, table, as_tuples):
    """All-text fields take a one-pass check; any other record parses, or is
    refused, exactly as the per-item reference does."""
    if as_tuples:  # the shape of an in-memory `document_record`
        table = [tuple(row) for row in table]
    record = {"id": "d", "pre_text": pre, "post_text": post, "table": table,
              "qa": {"question": "q?", "answer": "a"}}
    try:
        sentences = (_reference_sentences(pre, "pre_text"),
                     _reference_sentences(post, "post_text"))
        expected_table, expected_notes = _reference_table(table, "d")
        expected = (*sentences, expected_table)
        if not expected[0] and not expected[1] and expected_table.is_empty():
            raise MalformedRecord("record d has no text and no table")
    except MalformedRecord as exc:
        with pytest.raises(MalformedRecord) as raised:
            parse_record(record)
        assert str(raised.value) == str(exc)
        return
    repairs = []
    doc = parse_record(record, repairs)
    assert (doc.pre_text, doc.post_text, doc.table) == expected
    assert repairs == expected_notes


def test_document_record_round_trips_the_fixture(corpus_docs):
    for doc in corpus_docs:
        assert parse_record(json.dumps(document_record(doc))) == doc


def test_table_arity_invariant():
    with pytest.raises(ValueError):
        Table(header=("a", "b"), rows=(("1",),))


# ---------------------------------------------------------------------------
# Linearization


def test_linearize_reference_table():
    table = Table(header=("Year", "Revenue"),
                  rows=(("2020", "$100M"), ("2021", "$120M")))
    assert linearize_table(table) == [
        "For 2020, revenue is $100M.",
        "For 2021, revenue is $120M.",
    ]


def test_linearize_empty_table():
    assert linearize_table(Table()) == []


def test_linearize_2x3_fixture_counts():
    # Hand enumeration: 2 rows x 2 data columns = 4 sentences, row-major.
    table = Table(header=("Year", "Revenue", "Costs"),
                  rows=(("2020", "10", "7"), ("2021", "12", "8")))
    sentences = linearize_table(table)
    assert sentences == [
        "For 2020, revenue is 10.",
        "For 2020, costs is 7.",
        "For 2021, revenue is 12.",
        "For 2021, costs is 8.",
    ]


def test_linearize_keeps_acronym_headers():
    table = Table(header=("Year", "EPS"), rows=(("2021", "3.5"),))
    assert linearize_table(table) == ["For 2021, EPS is 3.5."]


def test_empty_cells_produce_no_sentence():
    table = Table(header=("Year", "Revenue", "Costs"),
                  rows=(("2020", "", "7"),))
    assert linearize_table(table) == ["For 2020, costs is 7."]


def test_linearize_deterministic():
    table = Table(header=("Year", "Revenue"), rows=(("2020", "$100M"),))
    assert linearize_table(table) == linearize_table(table)


def _linearize_per_cell(table: Table) -> list[str]:
    """Reference: the column phrase recomputed for every cell."""
    sentences = []
    for row in table.rows:
        row_key = row[0].strip() if row else ""
        for col in range(1, len(table.header)):
            cell = row[col].strip()
            if not cell:
                continue
            phrase = " ".join(w if re.fullmatch(r"[A-Z][A-Z0-9]+", w) else w.lower()
                              for w in table.header[col].strip().split())
            sentences.append(f"For {row_key}, {phrase} is {cell}.")
    return sentences


header_words = st.sampled_from(["EPS", "Revenue", "net", "INCOME", "Q4", "X", "cAsH",
                                "FY2020", "2021", "per-share", "(USD)"])
header_cells = st.lists(header_words, max_size=4).flatmap(
    lambda words: st.sampled_from([" ", "  ", "\t", " \u3000 "]).map(
        lambda gap: gap + gap.join(words) + gap))
row_cells = st.sampled_from(["", " ", "10", " $1,200 ", "(3.5)", "n/a", "2020"])


@st.composite
def tables(draw):
    header = tuple(draw(st.lists(header_cells, min_size=1, max_size=5)))
    rows = draw(st.lists(st.tuples(*[row_cells] * len(header)), max_size=4))
    return Table(header=header, rows=tuple(rows))


@given(tables())
def test_linearize_matches_per_cell_reference(table):
    assert linearize_table(table) == _linearize_per_cell(table)


# ---------------------------------------------------------------------------
# Assembly


def test_assemble_pre_text_only():
    doc = FinDocument(id="d", pre_text=("A.", "B."))
    assert assemble_text(doc) == "A. B."


def test_assemble_table_only():
    table = Table(header=("Year", "Revenue"),
                  rows=(("2020", "$100M"), ("2021", "$120M")))
    doc = FinDocument(id="d", table=table)
    assert assemble_text(doc) == "For 2020, revenue is $100M. For 2021, revenue is $120M."


def test_assemble_contains_every_sentence_once(corpus_docs):
    doc = corpus_docs[0]
    text = assemble_text(doc)
    parts = list(doc.pre_text) + linearize_table(doc.table) + list(doc.post_text)
    for part in parts:
        assert text.count(part.strip()) == 1
    # order preserved
    positions = [text.index(p.strip()) for p in parts]
    assert positions == sorted(positions)


# Every code point that the regex class \s matches, which is also every one
# for which str.isspace() holds.
_WHITESPACE = "".join(chr(c) for c in (9, 10, 11, 12, 13, 28, 29, 30, 31, 32, 133, 160,
                                       5760, *range(8192, 8203), 8232, 8233, 8239,
                                       8287, 12288))


def test_whitespace_table_is_complete():
    import sys

    assert len(_WHITESPACE) == 29
    assert {c for c in map(chr, range(sys.maxunicode + 1)) if re.match(r"\s", c)} \
        == set(_WHITESPACE) == {c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()}


_spaced = st.text(alphabet=st.sampled_from(_WHITESPACE + "ab1.,$e\u0301"), max_size=40)


@given(st.lists(_spaced, max_size=4), st.lists(_spaced, max_size=4))
def test_assemble_collapses_whitespace_like_the_regex(pre, post):
    import unicodedata

    doc = FinDocument(id="d", pre_text=tuple(pre), post_text=tuple(post))
    text = " ".join(p.strip() for p in pre + post if p.strip())
    expected = re.sub(r"\s+", " ", unicodedata.normalize("NFC", text)).strip()
    assert assemble_text(doc) == expected


def test_numeric_tokens_survive_assembly(corpus_docs):
    for doc in corpus_docs:
        text = assemble_text(doc)
        for row in doc.table.rows:
            for cell in row[1:]:
                for token in re.findall(r"[\d,.]+", cell):
                    assert token in text, (doc.id, token)


cells = st.text(alphabet="abc 0123456789$.,", min_size=0, max_size=8)


@given(st.lists(st.tuples(cells, cells, cells), min_size=1, max_size=5))
def test_assembly_never_drops_sentences(rows):
    table = Table(header=("key", "col a", "col b"),
                  rows=tuple((a, b, c) for a, b, c in rows))
    doc = FinDocument(id="d", pre_text=("intro sentence.",), table=table)
    text = assemble_text(doc)
    parts = ["intro sentence."] + linearize_table(table)
    collapsed = [re.sub(r"\s+", " ", p).strip() for p in parts]
    assert text == " ".join(c for c in collapsed if c)


def test_load_split_counts_and_ids(corpus_path):
    docs = load_split(corpus_path)
    assert len(docs) == 5
    assert len({d.id for d in docs}) == 5


@pytest.mark.parametrize("bad", [
    None, 1, "x",
    {"id": "bad", "pre_text": ["x"], "qa": "nope"},
    {"id": "bad", "table": [["Year", "Revenue"], 5], "qa": {"question": "q", "answer": "a"}},
    {"id": "bad", "pre_text": 5, "qa": {"question": "q", "answer": "a"}},
    {"id": "bad", "pre_text": ["x"], "qa": {"question": "q", "answer": "a", "gold_inds": 5}},
    # a nested value is no sentence and no cell: its repr would reach the document store
    {"id": "bad", "pre_text": ["x", ["y"]], "qa": {"question": "q", "answer": "a"}},
    {"id": "bad", "post_text": [{"s": "y"}], "qa": {"question": "q", "answer": "a"}},
    {"id": "bad", "pre_text": ["x"], "qa": {"question": "q", "answer": "a", "gold_inds": [["x"]]}},
    {"id": "bad", "pre_text": ["x"],
     "qa": {"question": "q", "answer": "a", "gold_inds": {"text_0": {"s": "x"}}}},
    {"id": "bad", "table": [["Year", "Revenue"], ["2020", [5]]],
     "qa": {"question": "q", "answer": "a"}},
    {"id": "bad", "table": [["Year", {"c": "Revenue"}], ["2020", "5"]],
     "qa": {"question": "q", "answer": "a"}},
], ids=["null", "number", "string", "qa-string", "table-row-number", "pre-text-number",
        "gold-inds-number", "pre-text-list-sentence", "post-text-object-sentence",
        "gold-inds-list-sentence", "gold-inds-object-value", "table-list-cell",
        "table-object-cell"])
def test_load_split_skips_a_misshapen_record(tmp_path, corpus_path, bad):
    records = json.loads(corpus_path.read_text())
    path = tmp_path / "split.json"
    path.write_text(json.dumps(records[:2] + [bad] + records[2:]))
    assert load_split(path) == load_split(corpus_path)


@pytest.mark.parametrize("top", [{"id": "d"}, 5, "records"], ids=["object", "number", "string"])
def test_load_split_refuses_a_file_that_is_not_an_array(tmp_path, top):
    path = tmp_path / "split.json"
    path.write_text(json.dumps(top))
    with pytest.raises(ValueError, match="split.json"):
        load_split(path)


def test_context_years():
    table = Table(header=("Year", "Revenue"),
                  rows=(("2019", "1"), ("2020", "2"), ("thereafter", "3")))
    assert context_years(table) == [2019, 2020]
