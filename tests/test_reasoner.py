from decimal import Decimal

from hypothesis import given, strategies as st

from finkgqa.kg_schema import NotNumeric, Period, PeriodKind, make_triplet, parse_numeric
from finkgqa.llm_client import ChatClient, ProviderConfig, chat_response
from finkgqa.preprocess import QuestionRecord
from finkgqa.reasoner import (
    answer_question,
    build_reasoning_prompt,
    build_text_prompt,
    parse_answer,
)


def entergy():
    return make_triplet("NET_REVENUE", Decimal("5829"), "million USD",
                        company="Entergy", period=Period(PeriodKind.ANNUAL, 2015),
                        source_doc="d")


QUESTION = QuestionRecord(text="what was net revenue in 2015?", gold_answer="5829")


def _numeric(text: str) -> bool:
    try:
        parse_numeric(text)
    except NotNumeric:
        return False
    return True


def test_prompt_contains_fact_rendering():
    prompt = build_reasoning_prompt(QUESTION, [entergy()])
    assert "5829 million USD" in prompt
    assert "1. NET_REVENUE:Entergy HAS_VALUE_IN_2015 5829 million USD (2015)" in prompt
    assert "Question: what was net revenue in 2015?" in prompt
    assert "ANSWER:" in prompt


def test_prompt_with_no_facts():
    prompt = build_reasoning_prompt(QUESTION, [])
    assert "(none)" in prompt
    assert "Question: what was net revenue in 2015?" in prompt


def test_prompt_deterministic_and_order_preserving():
    other = make_triplet("EPS", Decimal("3"), period=Period(PeriodKind.ANNUAL, 2016),
                         source_doc="d")
    a = build_reasoning_prompt(QUESTION, [entergy(), other])
    b = build_reasoning_prompt(QUESTION, [entergy(), other])
    assert a == b
    assert a.index("NET_REVENUE") < a.index("EPS")
    swapped = build_reasoning_prompt(QUESTION, [other, entergy()])
    assert swapped.index("EPS") < swapped.index("NET_REVENUE")


def test_text_prompt_carries_document():
    prompt = build_text_prompt(QUESTION, "the full document body")
    assert "the full document body" in prompt
    assert "ANSWER:" in prompt


def _client_replying(text: str) -> ChatClient:
    def transport(url, payload, headers, timeout):
        return 200, chat_response(text)

    return ChatClient(ProviderConfig(model="m", endpoint="http://x"), transport=transport)


def test_numeric_answer_parsed():
    prompt = build_reasoning_prompt(QUESTION, [entergy()])
    ans = answer_question(prompt, _client_replying("ANSWER: 58.29"))
    assert ans.kind == "NUMERIC"
    assert ans.raw_text == "58.29"
    assert not ans.fallback_used


def test_boolean_answer():
    ans = parse_answer("thinking...\nANSWER: yes")
    assert ans.kind == "BOOLEAN"
    assert ans.raw_text == "yes"


def test_missing_marker_falls_back_to_last_line():
    ans = parse_answer("the revenue went up a lot\nso the value is forty-two")
    assert ans.fallback_used
    assert ans.raw_text == "so the value is forty-two"
    assert ans.kind == "TEXT"


def test_last_answer_line_wins():
    ans = parse_answer("ANSWER: 1\nwait, revising\nANSWER: 2")
    assert ans.raw_text == "2"


def test_kind_numeric_iff_value_present():
    for raw in ("ANSWER: 12%", "ANSWER: maybe", "ANSWER: no", ""):
        ans = parse_answer(raw)
        assert (ans.kind == "NUMERIC") == _numeric(ans.raw_text)


@given(st.text(max_size=200))
def test_parse_answer_never_raises(raw):
    ans = parse_answer(raw)
    assert ans.kind in ("NUMERIC", "BOOLEAN", "TEXT")
    assert (ans.kind == "NUMERIC") == _numeric(ans.raw_text)
