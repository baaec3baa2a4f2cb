"""Load FinQA-format records, write them back normalized, and flatten each
document into one text stream.

Tables are linearized with a fixed sentence template so that narrative text
and table cells can be processed uniformly downstream.
"""

from __future__ import annotations

import functools
import json
import re
import unicodedata
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from itertools import chain
from pathlib import Path
from typing import Iterator


class MalformedRecord(ValueError):
    """Record is unusable (no id or question, or a misshapen field); caller should skip it."""


@dataclass(frozen=True)
class Table:
    """Header row plus data rows; every row has the same arity as the header."""

    header: tuple[str, ...] = ()
    rows: tuple[tuple[str, ...], ...] = ()

    def __post_init__(self):
        for i, row in enumerate(self.rows):
            if len(row) != len(self.header):
                raise ValueError(f"row {i} arity {len(row)} != header arity {len(self.header)}")

    def is_empty(self) -> bool:
        return not self.rows


@dataclass(frozen=True)
class QuestionRecord:
    text: str
    gold_answer: str
    gold_exe_answer: Decimal | None = None
    gold_program: str | None = None
    gold_inds: tuple[str, ...] = ()


@dataclass(frozen=True)
class FinDocument:
    """One report excerpt: narrative text around a table, plus its question."""

    id: str
    pre_text: tuple[str, ...] = ()
    post_text: tuple[str, ...] = ()
    table: Table = field(default_factory=Table)
    question: QuestionRecord | None = None


def _all_text(items) -> bool:
    """Whether every item is exactly a `str`, checked in one C-level pass."""
    return set(map(type, items)) <= {str}


def _as_sentences(value, name: str) -> tuple[str, ...]:
    if not value:
        return ()
    if type(value) is list and _all_text(value):  # as a JSON record holds it
        return tuple(s for s in value if s.strip())
    if isinstance(value, str):
        value = [value]
    elif not isinstance(value, (list, tuple)) or any(isinstance(s, (list, dict)) for s in value):
        raise MalformedRecord(f"{name} is neither text nor a list of sentences")
    return tuple(str(s) for s in value if str(s).strip())


def _gold_inds_list(raw) -> tuple[str, ...]:
    # FinQA ships gold_inds as a key->sentence mapping; a plain list also works.
    return _as_sentences(list(raw.values()) if isinstance(raw, dict) else raw, "gold_inds")


def _build_table(raw_table, doc_id: str, repairs: list[str] | None) -> Table:
    rows = raw_table or []
    # A JSON record's all-text table is a list of lists of str: nothing to check or convert.
    if not (type(rows) is list and set(map(type, rows)) <= {list}
            and _all_text(chain.from_iterable(rows))):
        if not isinstance(rows, (list, tuple)) or \
                not all(isinstance(r, (list, tuple)) for r in rows):
            raise MalformedRecord(f"record {doc_id} has a table that is not a list of lists")
        if any(isinstance(c, (list, dict)) for row in rows for c in row):
            raise MalformedRecord(f"record {doc_id} has a table cell that is a list or an object")
        rows = [[str(c) for c in row] for row in rows]
    if not rows:
        return Table()
    header = rows[0]
    width = len(header)
    data = []
    for i, row in enumerate(rows[1:]):
        if len(row) < width:
            if repairs is not None:
                repairs.append(f"doc {doc_id}: padding short table row {i} "
                               f"({len(row)} -> {width} cells)")
            row = row + [""] * (width - len(row))
        elif len(row) > width:
            if repairs is not None:
                repairs.append(f"doc {doc_id}: truncating long table row {i} "
                               f"({len(row)} -> {width} cells)")
            row = row[:width]
        data.append(tuple(row))
    return Table(header=tuple(header), rows=tuple(data))


def parse_record(raw_json: str | dict, repairs: list[str] | None = None) -> FinDocument:
    """Parse one FinQA-format object into a FinDocument.

    Missing optional fields become empty; short table rows are padded with
    empty cells and long ones truncated, each described in `repairs` when it
    is given. Raises MalformedRecord when the id, question text or all content
    is missing, or when `qa` is not an object, the table is not a list of
    lists, or a text field, a sentence or a table cell has the wrong shape.
    """
    record = json.loads(raw_json) if isinstance(raw_json, str) else raw_json
    doc_id = str(record.get("id") or "").strip()
    if not doc_id:
        raise MalformedRecord("record has no id")

    qa = record.get("qa") or {}
    if not isinstance(qa, dict):
        raise MalformedRecord(f"record {doc_id} has a qa that is not an object")
    question_text = str(qa.get("question") or "").strip()
    if not question_text:
        raise MalformedRecord(f"record {doc_id} has no question text")

    answer = str(qa.get("answer") or "").strip()
    exe_raw = qa.get("exe_ans")
    exe_ans = None
    if exe_raw is not None and not isinstance(exe_raw, bool):
        try:
            exe_ans = Decimal(str(exe_raw))
        except InvalidOperation:
            exe_ans = None
    if not answer:
        if exe_ans is None:
            raise MalformedRecord(f"record {doc_id} has no gold answer")
        answer = str(exe_raw).strip()

    question = QuestionRecord(
        text=question_text,
        gold_answer=answer,
        gold_exe_answer=exe_ans,
        gold_program=str(qa["program"]) if qa.get("program") else None,
        gold_inds=_gold_inds_list(qa.get("gold_inds")),
    )

    pre_text = _as_sentences(record.get("pre_text"), "pre_text")
    post_text = _as_sentences(record.get("post_text"), "post_text")
    table = _build_table(record.get("table"), doc_id, repairs)
    if not pre_text and not post_text and table.is_empty():
        raise MalformedRecord(f"record {doc_id} has no text and no table")

    return FinDocument(id=doc_id, pre_text=pre_text, post_text=post_text,
                       table=table, question=question)


def document_record(doc: FinDocument) -> dict:
    """`doc` as a normalized FinQA record: `parse_record` reads it back to `doc`."""
    q, table = doc.question, doc.table
    exe_ans = None if q.gold_exe_answer is None else str(q.gold_exe_answer)
    return {"id": doc.id, "pre_text": doc.pre_text, "post_text": doc.post_text,
            "table": [table.header, *table.rows] if table != Table() else [],
            "qa": {"question": q.text, "answer": q.gold_answer, "exe_ans": exe_ans,
                   "program": q.gold_program, "gold_inds": q.gold_inds}}


def iter_split(path: str | Path, skipped: list[tuple[int, str]] | None = None,
               repairs: list[str] | None = None) -> Iterator[FinDocument]:
    """Parse a JSON-array split file one record at a time, skipping malformed
    records and repeated ids; each skipped record's index and the reason are
    appended to `skipped`, and each padded or truncated table row is described
    in `repairs`. Nothing is logged: `ingest` reports both, and a later reader
    of the same file (the mock's answer key) does not repeat them.

    Each raw record is freed once it is parsed, so the file's records and
    their documents are not all held at once.
    """
    with open(path, encoding="utf-8") as f:
        raw = json.load(f)
    if not isinstance(raw, list):
        raise ValueError(f"{path} holds a {type(raw).__name__}, not a JSON array of records")
    raw.reverse()  # popped from the end, in file order
    seen: set[str] = set()
    for i in range(len(raw)):
        record = raw.pop()
        try:
            if not isinstance(record, dict):
                raise MalformedRecord(f"a {type(record).__name__}, not an object")
            doc = parse_record(record, repairs)
            if doc.id in seen:
                raise MalformedRecord(f"duplicate id {doc.id}")
        except MalformedRecord as exc:
            if skipped is not None:
                skipped.append((i, str(exc)))
            continue
        seen.add(doc.id)
        yield doc


def load_split(path: str | Path) -> list[FinDocument]:
    """Every document `iter_split` yields."""
    return list(iter_split(path))


_ACRONYM_RE = re.compile(r"[A-Z][A-Z0-9]+$")


@functools.lru_cache(maxsize=4096)
def _column_phrase(header_cell: str) -> str:
    # Lowercase the header for the sentence, but leave all-caps tokens (EPS) alone.
    # Memoised: a split repeats a handful of column headers.
    words = header_cell.split()
    return " ".join(w if _ACRONYM_RE.fullmatch(w) else w.lower() for w in words)


def linearize_table(table: Table) -> list[str]:
    """One sentence per (data row, data column) cell, row-major.

    Template: "For {row key}, {column header} is {cell value}." Cell values are
    reproduced verbatim; empty cells produce no sentence.
    """
    phrases = [_column_phrase(h) for h in table.header[1:]]
    sentences = []
    for row in table.rows:
        row_key = row[0].strip() if row else ""
        for phrase, cell in zip(phrases, row[1:]):
            cell = cell.strip()
            if cell:
                sentences.append(f"For {row_key}, {phrase} is {cell}.")
    return sentences


def context_years(table: Table) -> list[int]:
    """Distinct years mentioned anywhere in the table, ascending."""
    years = set()
    for row in (table.header,) + table.rows:
        for cell in row:
            for m in re.finditer(r"\b(19\d{2}|20\d{2}|2100)\b", cell):
                years.add(int(m.group(0)))
    return sorted(years)


def assemble_text(doc: FinDocument) -> str:
    """Concatenate pre-text, linearized table sentences, and post-text.

    Single spaces between sentences, Unicode NFC, internal whitespace
    collapsed. Numerals are never altered.
    """
    parts = list(doc.pre_text) + linearize_table(doc.table) + list(doc.post_text)
    text = " ".join(p.strip() for p in parts if p.strip())
    text = unicodedata.normalize("NFC", text)
    # str.split() and the regex class \s agree on all 29 whitespace code points.
    return " ".join(text.split())
