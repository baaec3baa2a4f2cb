"""Prompt the LLM with filtered facts (or raw text) and parse its final answer."""

from __future__ import annotations

import re
from dataclasses import dataclass

from .kg_schema import NotNumeric, Triplet, parse_numeric
from .llm_client import ChatClient
from .preprocess import QuestionRecord


@dataclass(frozen=True)
class Answer:
    raw_text: str
    kind: str = "TEXT"  # NUMERIC | BOOLEAN | TEXT
    fallback_used: bool = False


_INSTRUCTION = (
    "Work through the question step by step if needed, then finish your reply "
    "with a single line of the form:\nANSWER: <value>"
)


def _fact_line(idx: int, t: Triplet) -> str:
    period = t.period.canonical()
    return f"{idx}. {t.subject} {t.relation} {t.object} ({period})"


def build_reasoning_prompt(question: QuestionRecord, triplets: list[Triplet]) -> str:
    """Numbered fact list, then the question, then the answer-line instruction."""
    if triplets:
        facts = "\n".join(_fact_line(i + 1, t) for i, t in enumerate(triplets))
    else:
        facts = "(none)"
    return (
        "Answer the question using the numbered financial facts below.\n\n"
        f"Facts:\n{facts}\n\n"
        f"Question: {question.text}\n\n"
        f"{_INSTRUCTION}\n"
    )


def build_text_prompt(question: QuestionRecord, doc_text: str) -> str:
    """Baseline prompt: the raw document text instead of filtered facts."""
    return (
        "Answer the question using the document below.\n\n"
        f"Document:\n{doc_text}\n\n"
        f"Question: {question.text}\n\n"
        f"{_INSTRUCTION}\n"
    )


_ANSWER_LINE_RE = re.compile(r"^\s*ANSWER:\s*(.*\S)\s*$", re.IGNORECASE | re.MULTILINE)


def parse_answer(raw: str) -> Answer:
    """Extract the final ANSWER: line and classify it.

    Never raises: responses without the marker fall back to the last non-empty
    line with the fallback flag set.
    """
    matches = _ANSWER_LINE_RE.findall(raw or "")
    fallback = not matches
    if matches:
        text = matches[-1].strip()
    else:
        lines = [ln.strip() for ln in (raw or "").splitlines() if ln.strip()]
        text = lines[-1] if lines else ""

    if text.lower().rstrip(".") in ("yes", "no"):
        return Answer(raw_text=text, kind="BOOLEAN", fallback_used=fallback)
    try:
        parse_numeric(text)
    except NotNumeric:
        return Answer(raw_text=text, kind="TEXT", fallback_used=fallback)
    return Answer(raw_text=text, kind="NUMERIC", fallback_used=fallback)


def answer_question(prompt: str, client: ChatClient) -> Answer:
    """Ask the model to answer from the filtered facts of a `build_reasoning_prompt` prompt."""
    return parse_answer(client.complete(prompt))


def answer_from_text(prompt: str, client: ChatClient) -> Answer:
    """Baseline route: ask the model to answer from a `build_text_prompt` prompt."""
    return parse_answer(client.complete(prompt))
