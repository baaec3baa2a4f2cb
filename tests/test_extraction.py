import json
from decimal import Decimal, InvalidOperation

import pytest
from hypothesis import example, given, strategies as st

from finkgqa.extraction import (
    DocumentExtractor,
    NoJsonFound,
    PromptAssetError,
    build_extraction_prompt,
    chunk_sentences,
    extract_table_triplets,
    load_prompt_asset,
    parse_extraction_response,
)
from finkgqa.kg_schema import (
    EmptyAfterNormalization,
    NotNumeric,
    canonical_metric,
    make_triplet,
    normalize_period,
    parse_numeric,
    validate_triplet,
)
from finkgqa.llm_client import ChatClient, MockChatTransport, ProviderConfig
from finkgqa.preprocess import FinDocument, Table

ENTERGY_ELEMENT = {
    "subject": "NET_REVENUE:Entergy",
    "relation": "HAS_VALUE_IN_2015",
    "object": "5829 million USD",
    "financial_metric_entity_type": "NET_REVENUE",
    "company": "Entergy",
    "period": "2015",
    "value": "5829",
    "unit": "million USD",
}


# ---------------------------------------------------------------------------
# Prompt construction


def test_prompt_contains_rule_lines():
    prompt = build_extraction_prompt("some document text")
    assert "Use EXACT TEXT" in prompt
    assert "Standardize periods" in prompt
    assert "Extract liberally for coverage" in prompt
    assert "Multiple periods → separate extractions" in prompt
    for line in ("SUBJECT:", "RELATION:", "OBJECT:", "PERIOD:"):
        assert line in prompt
    assert "JSON array" in prompt


def test_prompt_document_comes_last():
    prompt = build_extraction_prompt("THE-DOCUMENT-BODY")
    assert prompt.rstrip().endswith("THE-DOCUMENT-BODY")
    assert prompt.index("ATTRIBUTE REQUIREMENTS") < prompt.index("THE-DOCUMENT-BODY")


def test_prompt_contains_few_shot_examples():
    prompt = build_extraction_prompt("doc")
    assert "Example 1 input" in prompt
    assert "NET_REVENUE:Entergy" in prompt
    assert "Example 5 output" in prompt


def test_empty_asset_fails_at_startup(tmp_path, mock_client):
    empty = tmp_path / "rules.txt"
    empty.write_text("# header only\n# ---\n   \n")
    with pytest.raises(PromptAssetError):
        load_prompt_asset(empty)
    with pytest.raises(PromptAssetError):
        DocumentExtractor(mock_client, asset_path=empty)


# ---------------------------------------------------------------------------
# Response parsing


def test_parse_entergy_response():
    raw = "Here are the facts:\n```json\n" + json.dumps([ENTERGY_ELEMENT]) + "\n```"
    result = parse_extraction_response(raw, "doc-1")
    assert len(result.triplets) == 1
    assert result.rejected == ()
    t = result.triplets[0]
    assert t.subject == "NET_REVENUE:Entergy"
    assert t.relation == "HAS_VALUE_IN_2015"
    assert t.value == Decimal("5829")
    assert t.period.canonical() == "2015"
    assert t.source_doc == "doc-1"
    assert validate_triplet(t) == []


def test_prose_without_array_raises():
    with pytest.raises(NoJsonFound):
        parse_extraction_response("no facts found in this document", "d")


def test_invalid_element_lands_in_rejected():
    bad = dict(ENTERGY_ELEMENT, object="approximately 5829 million USD")
    raw = json.dumps([ENTERGY_ELEMENT, bad])
    result = parse_extraction_response(raw, "d")
    assert len(result.triplets) == 1
    assert len(result.rejected) == 1
    fragment, violations = result.rejected[0]
    assert "ObjectValueMismatch" in violations
    assert "approximately" in fragment


def test_non_numeric_value_rejected():
    bad = dict(ENTERGY_ELEMENT, value="not a number", object="xyz")
    result = parse_extraction_response(json.dumps([bad]), "d")
    assert result.triplets == ()
    assert result.rejected[0][1] == ("ValueNotNumeric",)


@pytest.mark.parametrize("value", ["1e999999999999999999", "1e100000", "1e-100000",
                                   "NaN", "Infinity", "-Infinity", "sNaN"])
def test_value_out_of_decimal_range_rejected(value):
    bad = dict(ENTERGY_ELEMENT, value=value)
    result = parse_extraction_response(json.dumps([bad, ENTERGY_ELEMENT]), "d")
    assert result.rejected == ((json.dumps(bad), ("ValueNotNumeric",)),)
    assert [t.value for t in result.triplets] == [Decimal("5829")]


def test_every_rejection_kind_records_its_element_as_dumped(monkeypatch):
    from finkgqa import extraction

    elements = [
        5, "NET_REVENUE 5829", [1, {"b": None}], None,
        dict(ENTERGY_ELEMENT, value="not a number", object="xyz"),
        dict(ENTERGY_ELEMENT, financial_metric_entity_type="!!! ", subject=""),
        dict(ENTERGY_ELEMENT, object="approximately 5829 million USD", unit="€ m"),
        dict(ENTERGY_ELEMENT, relation="WAS", period=" fiscal\t2015 "),
        ENTERGY_ELEMENT,
        {"subject": "unmappable", "nested": {"z": [1.5, -0.0, 1e300]}},
    ]
    real = extraction._triplet_from_element

    def triplet_from_element(elem, doc_id):
        if elem.get("subject") == "unmappable":
            raise KeyError("object")
        return real(elem, doc_id)

    monkeypatch.setattr(extraction, "_triplet_from_element", triplet_from_element)
    result = parse_extraction_response(json.dumps(elements), "d")
    assert len(result.triplets) == 1
    assert [violations[0] for _, violations in result.rejected] == [
        "NotAnObject", "NotAnObject", "NotAnObject", "NotAnObject", "ValueNotNumeric",
        "MetricEmpty", "ObjectValueMismatch", "RelationMalformed", "Unmappable:KeyError"]
    rejected_elements = elements[:8] + elements[9:]
    assert [fragment for fragment, _ in result.rejected] == \
        [json.dumps(e) for e in rejected_elements]


def test_tolerates_prose_and_multiple_arrays():
    raw = "I think [not json] hmm " + json.dumps([ENTERGY_ELEMENT]) + " trailing"
    result = parse_extraction_response(raw, "d")
    assert len(result.triplets) == 1


json_scalars = st.one_of(st.none(), st.booleans(), st.integers(),
                         st.floats(allow_nan=False), st.text(max_size=10))
json_elements = st.one_of(
    json_scalars,
    st.dictionaries(st.sampled_from(["subject", "relation", "object", "period",
                                     "value", "unit", "company",
                                     "financial_metric_entity_type", "junk"]),
                    json_scalars, max_size=6),
)


@given(st.lists(json_elements, max_size=6), st.text(max_size=20))
def test_parser_never_emits_invalid_triplets(elements, prefix):
    raw = prefix + json.dumps(elements)
    try:
        result = parse_extraction_response(raw, "fuzz-doc")
    except NoJsonFound:
        return
    for t in result.triplets:
        assert validate_triplet(t) == []


def _reference_triplet(elem: dict, doc_id: str):
    """The element-to-triplet mapping as it read each field where it used it."""
    subject = str(elem.get("subject") or "").strip()
    metric_raw = (elem.get("financial_metric_entity_type")
                  or elem.get("metric_type")
                  or subject.split(":", 1)[0])
    metric = canonical_metric(str(metric_raw))
    company = str(elem.get("company") or "").strip()
    if not company and ":" in subject:
        company = subject.split(":", 1)[1].strip()
    period = normalize_period(str(elem.get("period") or ""))
    value_raw = elem.get("value")
    unit = str(elem.get("unit") or "").strip()
    if value_raw is None or str(value_raw).strip() == "":
        parsed = parse_numeric(str(elem.get("object") or ""))
        value, unit = parsed.magnitude, unit or parsed.unit
    else:
        try:
            value = Decimal(str(value_raw))
        except InvalidOperation:
            parsed = parse_numeric(str(value_raw))
            value, unit = parsed.magnitude, unit or parsed.unit
        else:
            if not value.is_finite() or abs(value.adjusted()) > 30:
                raise NotNumeric(f"value {value_raw!r} is not a finite figure in range")
    if unit == "%":
        unit = "percent"
    return make_triplet(
        metric_type=metric, value=value, unit=unit, company=company or None,
        period=period, source_doc=doc_id, subject=subject or None,
        relation=str(elem.get("relation") or "").strip() or None,
        obj=str(elem["object"]).strip() if elem.get("object") else None,
    )


def _reference_parse(elements: list, doc_id: str):
    """Triplets and rejections of the reference path: make_triplet, then the
    full validate_triplet, id check included."""
    triplets, rejected = [], []
    for elem in elements:
        if not isinstance(elem, dict):
            violations = ("NotAnObject",)
        else:
            try:
                triplet = _reference_triplet(elem, doc_id)
            except (NotNumeric, InvalidOperation):
                violations = ("ValueNotNumeric",)
            except EmptyAfterNormalization:
                violations = ("MetricEmpty",)
            except (ValueError, KeyError, TypeError) as exc:
                violations = (f"Unmappable:{type(exc).__name__}",)
            else:
                violations = tuple(validate_triplet(triplet))
        if violations:
            rejected.append((json.dumps(elem), violations))
        else:
            triplets.append(triplet)
    return tuple(triplets), tuple(rejected)


@given(st.lists(json_elements, max_size=6))
@example([ENTERGY_ELEMENT, dict(ENTERGY_ELEMENT, relation="WAS"), {"value": 7, "subject": "x"},
          dict(ENTERGY_ELEMENT, object="approximately 5829"), {"object": "$5 million"}])
def test_parser_matches_the_fully_validated_reference(elements):
    result = parse_extraction_response(json.dumps(elements), "fuzz-doc")
    assert (result.triplets, result.rejected) == _reference_parse(elements, "fuzz-doc")


def test_each_fresh_triplet_id_is_derived_once(monkeypatch):
    from finkgqa import kg_schema

    calls = []
    triplet_id_for = kg_schema.triplet_id_for
    monkeypatch.setattr(kg_schema, "triplet_id_for",
                        lambda *fields: calls.append(fields) or triplet_id_for(*fields))
    elements = [dict(ENTERGY_ELEMENT, value=str(v), object=f"{v} million USD")
                for v in range(7)]
    result = parse_extraction_response(json.dumps(elements), "d")
    assert (len(result.triplets), result.rejected) == (7, ())
    assert len(calls) == 7

    calls.clear()
    table = Table(header=("Year", "Revenue", "Costs"),
                  rows=(("2020", "5", "3"), ("2021", "7", "n/a")))
    assert len(extract_table_triplets(_doc(table))) == 3
    assert len(calls) == 3


# ---------------------------------------------------------------------------
# Deterministic table extraction


def _doc(table: Table) -> FinDocument:
    return FinDocument(id="tbl-doc", pre_text=("context.",), table=table)


def test_reference_table_extraction():
    table = Table(header=("Year", "Revenue"),
                  rows=(("2020", "$100M"), ("2021", "$120M")))
    triplets = extract_table_triplets(_doc(table))
    assert [(t.metric_type, t.period.canonical(), str(t.value), t.unit)
            for t in triplets] == [
        ("REVENUE", "2020", "100", "million USD"),
        ("REVENUE", "2021", "120", "million USD"),
    ]


def test_all_text_table_yields_nothing():
    table = Table(header=("Item", "Status"),
                  rows=(("alpha", "good"), ("beta", "poor")))
    assert extract_table_triplets(_doc(table)) == []


def test_mixed_table_against_hand_enumeration():
    # Hand enumeration: numeric cells are (2020, revenue)=5, (2020, margin)=10%,
    # (2021, revenue)=7, (2021, note) is text, (total, revenue)=12 with
    # period UNKNOWN; margin for 2021 is empty.
    table = Table(
        header=("Year", "Revenue", "Margin", "Note"),
        rows=(
            ("2020", "5", "10%", "solid"),
            ("2021", "7", "", "n/a"),
            ("total", "12", "flat", "ok"),
        ),
    )
    triplets = extract_table_triplets(_doc(table))
    got = [(t.metric_type, t.relation, str(t.value), t.unit) for t in triplets]
    assert got == [
        ("REVENUE", "HAS_VALUE_IN_2020", "5", ""),
        ("MARGIN", "HAS_VALUE_IN_2020", "10", "percent"),
        ("REVENUE", "HAS_VALUE_IN_2021", "7", ""),
        ("REVENUE", "HAS_VALUE", "12", ""),
    ]


def test_extraction_idempotent_and_bounded():
    table = Table(header=("Year", "A", "B"),
                  rows=(("2020", "1", "2"), ("2021", "3", "x")))
    doc = _doc(table)
    first = extract_table_triplets(doc)
    second = extract_table_triplets(doc)
    assert first == second
    assert len(first) <= len(table.rows) * (len(table.header) - 1)
    for t in first:
        assert validate_triplet(t) == []


def test_year_like_headers_are_skipped():
    # Metric names cannot start with a digit; those cells are dropped rather
    # than emitted as invalid triplets.
    table = Table(header=("Item", "2019", "2018"),
                  rows=(("net sales", "100", "90"),))
    assert extract_table_triplets(_doc(table)) == []


# ---------------------------------------------------------------------------
# Chunking and the extractor loop


def test_chunking_respects_budget_and_overlap():
    sentences = [f"sentence number {i}." for i in range(10)]
    chunks = chunk_sentences(sentences, char_budget=60, overlap=2)
    assert all(sum(len(s) + 1 for s in c) <= 60 or len(c) == 1 for c in chunks)
    # every sentence appears in at least one chunk, in order
    flat = [s for c in chunks for s in c]
    for s in sentences:
        assert s in flat
    for earlier, later in zip(chunks, chunks[1:]):
        assert earlier[-2:] == later[:len(earlier[-2:])] or len(earlier) == 1


def test_chunking_single_chunk_when_small():
    sentences = ["a.", "b."]
    assert chunk_sentences(sentences, char_budget=1000) == [["a.", "b."]]


def test_extractor_deduplicates_across_chunks(answer_key, corpus_docs):
    transport = MockChatTransport(answer_key=answer_key)
    client = ChatClient(ProviderConfig(model="m", endpoint="http://mock.invalid"),
                        transport=transport)
    doc = corpus_docs[0]
    wide = DocumentExtractor(client).extract(doc)
    narrow = DocumentExtractor(client, chunk_chars=80, chunk_overlap=1).extract(doc)
    assert {t.triplet_id for t in narrow.triplets} == {t.triplet_id for t in wide.triplets}


def test_extractor_keeps_one_triplet_of_a_repeated_element(corpus_docs):
    from finkgqa.llm_client import chat_response

    reply = chat_response(json.dumps([ENTERGY_ELEMENT, dict(ENTERGY_ELEMENT)]))
    client = ChatClient(ProviderConfig(model="m", endpoint="http://mock.invalid"),
                        transport=lambda url, payload, headers, timeout: (200, reply))
    result = DocumentExtractor(client).extract(corpus_docs[0])
    assert [t.subject for t in result.triplets] == ["NET_REVENUE:Entergy"]


def test_truncated_chunks_are_split_and_retried(corpus_docs):
    from finkgqa.llm_client import chat_response

    big_prompts = []

    def transport(url, payload, headers, timeout):
        prompt = payload["messages"][-1]["content"]
        doc_part = prompt.rsplit("DOCUMENT:", 1)[-1]
        # pretend anything beyond one short sentence overflows max_tokens
        if len(doc_part.strip()) > 40:
            big_prompts.append(prompt)
            return 200, chat_response("...", finish_reason="length")
        return 200, chat_response("[]")

    client = ChatClient(ProviderConfig(model="m", endpoint="http://mock.invalid"),
                        transport=transport)
    doc = corpus_docs[0]
    result = DocumentExtractor(client, chunk_chars=500).extract(doc)
    assert big_prompts, "the oversized chunk should have been attempted"
    assert result.triplets == ()
    # single sentences that still truncate are recorded, not fatal
    assert any(violations == ("LlmTruncated",) for _, violations in result.rejected)


def test_failed_chunk_request_loses_only_that_chunk(answer_key, corpus_docs):
    doc = corpus_docs[0]
    failing = "For 2021, net revenue is $120."
    mock = MockChatTransport(answer_key=answer_key)

    def transport(url, payload, headers, timeout):
        if failing in payload["messages"][-1]["content"]:
            return 503, {"error": "overloaded"}
        return mock(url, payload, headers, timeout)

    def extract(transport):
        cfg = ProviderConfig(model="m", endpoint="http://mock.invalid", max_retries=0)
        # one sentence per chunk, so the failing sentence is one request
        extractor = DocumentExtractor(ChatClient(cfg, transport=transport),
                                      chunk_chars=1, chunk_overlap=0)
        return extractor.extract(doc)

    healthy, result = extract(mock), extract(transport)
    assert [t.value for t in healthy.triplets] == [100, 80, 120, 90]
    assert result.triplets == tuple(t for t in healthy.triplets if t.value != 120)
    assert result.rejected == ((failing, ("LlmUnavailable",)),)
