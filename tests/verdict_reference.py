"""The verdict path as two modules once split it, which `evaluator.evaluate_split` is held to.

`cmd_evaluate` built a mutable `EvalRecord` per document, pre-setting MISSING
or ERROR on one without an answer, and `judge_record` filled in the rest. The
tests hold `evaluate_split`'s verdict lines to `to_dict()` of these records.
A judge reply cut at max_tokens raised here; `evaluate_split` scores it
JUDGE_ERROR, so the tests draw no such reply.
"""

from dataclasses import dataclass
from decimal import Decimal

from finkgqa.evaluator import JudgeIndecisive, _try_parse, judge_with_llm, numbers_equivalent
from finkgqa.llm_client import ChatClient, LlmUnavailable
from finkgqa.reasoner import Answer, parse_answer


@dataclass
class EvalRecord:
    doc_id: str
    predicted: Answer
    gold: str
    gold_exe: Decimal | None = None
    verdict: str = "INCORRECT"  # CORRECT | INCORRECT | JUDGE_ERROR | MISSING | ERROR
    judge_used: str = "RULES"  # RULES | LLM | NONE

    def to_dict(self) -> dict:
        return {
            "doc_id": self.doc_id,
            "predicted": self.predicted.raw_text,
            "gold": self.gold,
            "verdict": self.verdict,
            "judge_used": self.judge_used,
        }


def _rules_inconclusive(pred: str, gold: str) -> bool:
    return _try_parse(pred) is None and _try_parse(gold) is None \
        and pred.strip().lower() != gold.strip().lower()


def judge_record(record: EvalRecord, judge_client: ChatClient | None = None) -> EvalRecord:
    """Fill in the verdict, preferring the deterministic rules judge."""
    if record.verdict in ("MISSING", "ERROR"):  # no prediction: nothing to judge
        return record
    pred = record.predicted.raw_text
    correct = numbers_equivalent(pred, record.gold)
    if not correct and record.gold_exe is not None:
        correct = numbers_equivalent(pred, str(record.gold_exe))

    if not correct and judge_client is not None \
            and record.predicted.kind == "TEXT" \
            and _rules_inconclusive(pred, record.gold):
        record.judge_used = "LLM"
        try:
            correct = judge_with_llm(pred, record.gold, judge_client)
        except (LlmUnavailable, JudgeIndecisive):
            record.verdict = "JUDGE_ERROR"
            return record
    record.verdict = "CORRECT" if correct else "INCORRECT"
    return record


def record_for(doc_id: str, answer: str | None, failed: bool, gold: str,
               gold_exe: Decimal | None) -> EvalRecord:
    """The record `cmd_evaluate` built for a document: `answer` is its first
    prediction line's answer, None when it has no line."""
    raw_answer = "" if answer is None else answer
    record = EvalRecord(
        doc_id=doc_id,
        predicted=(parse_answer(f"ANSWER: {raw_answer}")
                   if raw_answer.strip() else Answer(raw_text="")),
        gold=gold,
        gold_exe=gold_exe,
    )
    if answer is None or failed:  # no answer, or its request failed: nothing to judge
        record.verdict, record.judge_used = "ERROR" if failed else "MISSING", "NONE"
    return record
