"""Execution-accuracy scoring: rules-based answer equivalence, an optional LLM
judge for phrase-level paraphrases, a gold-program executor, and run reports.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal

from .kg_schema import NotNumeric, parse_numeric
from .llm_client import ChatClient, LlmTruncated, LlmUnavailable
from .preprocess import Table
from .reasoner import parse_answer

SCALE_FACTORS = {"thousand": Decimal(10) ** 3, "million": Decimal(10) ** 6,
                 "billion": Decimal(10) ** 9}
# Two numeric answers match when they differ by at most this share of either one.
ROUNDING_REL_TOL = 0.01
# Row labels of the report table.
BASELINE_LABEL = "Llama (vanilla)"
TREATMENT_LABEL = "Llama + KG"


class EmptyInput(ValueError):
    """evaluate_split needs at least one record."""


class ProgramError(ValueError):
    """Base for gold-program execution failures."""


class DivideByZero(ProgramError):
    pass


class BadReference(ProgramError):
    pass


class RowNotFound(ProgramError):
    pass


# ---------------------------------------------------------------------------
# Gold-program execution

ARITH_OPS = ("add", "subtract", "multiply", "divide", "exp", "greater")
TABLE_OPS = ("table_max", "table_min", "table_sum", "table_average")


@dataclass(frozen=True)
class ProgramStep:
    op: str
    arg1: str
    arg2: str

    def __post_init__(self):
        if self.op not in ARITH_OPS + TABLE_OPS:
            raise ValueError(f"unknown op {self.op!r}")


_STEP_RE = re.compile(r"([a-z_]+)\(([^()]*)\)")


def parse_program(text: str) -> list[ProgramStep]:
    """Parse a program string like "subtract(120, 100), divide(#0, 100)"."""
    steps = []
    for m in _STEP_RE.finditer(text):
        op = m.group(1)
        parts = [p.strip() for p in m.group(2).split(",")]
        if len(parts) == 1:
            parts.append("none")
        if len(parts) > 2:
            # Row labels may themselves contain commas; the last part is arg2.
            parts = [", ".join(parts[:-1]), parts[-1]]
        steps.append(ProgramStep(op=op, arg1=parts[0], arg2=parts[1]))
    return steps


def _literal(token: str) -> float | None:
    t = token.strip().lower()
    if t.startswith("const_"):
        t = t[len("const_"):]
        if t == "m1":
            return -1.0
    percent = t.endswith("%")
    t = t.rstrip("%").replace(",", "").replace("$", "")
    try:
        value = float(t)
    except ValueError:
        return None
    return value / 100.0 if percent else value


def _fold_key(text: str) -> str:
    return re.sub(r"\s+", " ", text).strip().casefold()


def _row_values(table: Table, label: str) -> list[float]:
    """The row's numeric cells, read as `extraction.cell_element` reads them; a
    percent cell is divided by 100, as a percent literal is."""
    target = _fold_key(label)
    for row in table.rows:
        if row and _fold_key(row[0]) == target:
            values = []
            for cell in row[1:]:
                value = _try_parse(cell)
                if value is not None:
                    number = float(value.magnitude)
                    values.append(number / 100.0 if value.unit == "percent" else number)
            if not values:
                raise BadReference(f"row {label!r} has no numeric cells")
            return values
    raise RowNotFound(f"no table row with key {label!r}")


def execute_program(steps: list[ProgramStep], table: Table | None = None) -> float:
    """Evaluate the steps in order; the last step's value is the result.

    greater yields 1.0/0.0; exp is exponentiation; #n references resolve to
    earlier step results only.
    """
    results: list[float] = []
    for idx, step in enumerate(steps):
        if step.op in ARITH_OPS:
            a = _resolve(step.arg1, idx, results)
            b = _resolve(step.arg2, idx, results)
            if step.op == "add":
                value = a + b
            elif step.op == "subtract":
                value = a - b
            elif step.op == "multiply":
                value = a * b
            elif step.op == "divide":
                if b == 0:
                    raise DivideByZero(f"step {idx}: divide by zero")
                value = a / b
            elif step.op == "exp":
                value = a ** b
            else:
                value = 1.0 if a > b else 0.0
        else:
            if table is None:
                raise RowNotFound(f"step {idx}: table op without a table")
            values = _row_values(table, step.arg1)
            if step.op == "table_max":
                value = max(values)
            elif step.op == "table_min":
                value = min(values)
            elif step.op == "table_sum":
                value = sum(values)
            else:
                value = sum(values) / len(values)
        results.append(value)
    if not results:
        raise BadReference("empty program")
    return results[-1]


def _resolve(token: str, idx: int, results: list[float]) -> float:
    t = token.strip()
    if t.startswith("#"):
        try:
            ref = int(t[1:])
        except ValueError:
            raise BadReference(f"step {idx}: malformed reference {token!r}") from None
        if not 0 <= ref < idx:
            raise BadReference(f"step {idx}: reference {token!r} not to an earlier step")
        return results[ref]
    lit = _literal(t)
    if lit is None:
        raise BadReference(f"step {idx}: non-numeric operand {token!r}")
    return lit


# ---------------------------------------------------------------------------
# Rules judge

_BOOL_WORDS = {"yes": 1.0, "true": 1.0, "no": 0.0, "false": 0.0}


def _try_parse(text: str):
    try:
        return parse_numeric(text)
    except NotNumeric:
        return None


def _candidates(value) -> list[Decimal]:
    """Numeric readings of one side after unit-scale and percent bridging."""
    out = [value.magnitude]
    unit = value.unit.lower()
    for word, factor in SCALE_FACTORS.items():
        if word in unit:
            out.append(value.magnitude * factor)
            break
    if "percent" in unit:
        out.append(value.magnitude / 100)
    return out


def _close(a: Decimal, b: Decimal) -> bool:
    if a == b:
        return True
    fa, fb = float(a), float(b)
    slack = ROUNDING_REL_TOL + 1e-12
    for denom in (fb, fa):
        if denom != 0 and abs(fa - fb) / abs(denom) <= slack:
            return True
    return False


def numbers_equivalent(pred: str, gold: str) -> bool:
    """Decide whether two answer strings mean the same number.

    Numeric answers match within ROUNDING_REL_TOL after unit-scale expansion
    (K/M/B) and percent/decimal bridging in both directions; 1/0 bridges to
    yes/no; everything else falls back to case-insensitive string equality.
    Symmetric by construction.
    """
    p_raw = str(pred).strip()
    g_raw = str(gold).strip()
    if p_raw.lower() == g_raw.lower():
        return True

    p_val = _try_parse(p_raw)
    g_val = _try_parse(g_raw)

    p_bool = _BOOL_WORDS.get(p_raw.lower().rstrip("."))
    g_bool = _BOOL_WORDS.get(g_raw.lower().rstrip("."))
    if p_bool is not None and g_bool is not None:
        return p_bool == g_bool
    # A gold boolean program executes to 1/0; bridge that to yes/no.
    if p_bool is not None and g_val is not None and not g_val.unit:
        return Decimal(p_bool) == g_val.magnitude
    if g_bool is not None and p_val is not None and not p_val.unit:
        return Decimal(g_bool) == p_val.magnitude

    if p_val is None or g_val is None:
        return False
    return any(_close(a, b)
               for a in _candidates(p_val)
               for b in _candidates(g_val))


# ---------------------------------------------------------------------------
# Optional LLM judge

JUDGE_PROMPT = """You compare a predicted answer with a gold answer to a financial question.
Treat them as equivalent when they differ only in format (20% equals 0.20),
minor rounding within about one percent, unit variations ($1.2M equals
$1,200,000), or wording that states the same fact.

Predicted answer: {pred}
Gold answer: {gold}

Reply with exactly one word, YES or NO."""


class JudgeIndecisive(RuntimeError):
    """The judge endpoint answered with neither YES nor NO."""


def judge_with_llm(pred: str, gold: str, client: ChatClient) -> bool:
    """Ask the configured judge model for a verdict at temperature 0."""
    prompt = JUDGE_PROMPT.format(pred=pred, gold=gold)
    text = client.complete(prompt, temperature=0.0).strip().upper()
    if text.startswith("YES"):
        return True
    if text.startswith("NO"):
        return False
    raise JudgeIndecisive(f"unparseable judge verdict: {text[:80]!r}")


# ---------------------------------------------------------------------------
# Split evaluation and reporting

def judge(answer: str, gold: str, gold_exe: Decimal | None = None,
          judge_client: ChatClient | None = None) -> tuple[str, str]:
    """The verdict on one answer and the judge that gave it ("RULES" or "LLM").

    The rules decide CORRECT against the gold answer or the gold program's
    result. The LLM judge is asked only where the rules cannot tell a
    paraphrase: a judge is configured, the answer is not yes/no, and neither
    side is a number (the texts differ, or the rules would have matched them).
    A judge that is unavailable, cut at max_tokens or indecisive gives
    JUDGE_ERROR.
    """
    if numbers_equivalent(answer, gold) or (
            gold_exe is not None and numbers_equivalent(answer, str(gold_exe))):
        return "CORRECT", "RULES"
    if (judge_client is None or answer.strip().lower().rstrip(".") in ("yes", "no")
            or _try_parse(answer) is not None or _try_parse(gold) is not None):
        return "INCORRECT", "RULES"
    try:
        return "CORRECT" if judge_with_llm(answer, gold, judge_client) else "INCORRECT", "LLM"
    except (LlmUnavailable, LlmTruncated, JudgeIndecisive):
        return "JUDGE_ERROR", "LLM"


def evaluate_split(records: list[tuple[str, str | None, bool, str, Decimal | None]],
                   judge_client: ChatClient | None = None) -> list[dict]:
    """The verdict line of each `(doc_id, answer, failed, gold, gold_exe)` record, in order.

    `answer` is the document's prediction line's answer, None when it has no
    line, and `failed` says that line's request failed. A document without a
    line is MISSING and a failed one ERROR, both judged by no judge ("NONE");
    any other answer is read as the reasoner reads an ANSWER line and judged
    by `judge`.
    """
    if not records:
        raise EmptyInput("no records to evaluate")
    lines = []
    for doc_id, answer, failed, gold, gold_exe in records:
        predicted = parse_answer(f"ANSWER: {answer}").raw_text if (answer or "").strip() else ""
        if answer is None or failed:
            verdict, judge_used = "ERROR" if failed else "MISSING", "NONE"
        else:
            verdict, judge_used = judge(predicted, gold, gold_exe, judge_client)
        lines.append({"doc_id": doc_id, "predicted": predicted, "gold": gold,
                      "verdict": verdict, "judge_used": judge_used})
    return lines


def compare_runs(baseline_acc: float, treatment_acc: float) -> dict:
    """Absolute and relative improvement between two accuracies (percent units).

    The relative improvement is None for a zero baseline, where it is undefined.
    """
    for value in (baseline_acc, treatment_acc):
        if not 0 <= value <= 100:
            raise ValueError(f"accuracy {value} outside [0, 100]")
    delta = treatment_acc - baseline_acc
    return {
        "absolute_pp": delta,
        "relative_pct": 100.0 * delta / baseline_acc if baseline_acc else None,
    }


def format_report(baseline_acc: float, treatment_acc: float) -> str:
    """Two-row accuracy table with absolute and relative deltas ("-" when undefined)."""
    delta = compare_runs(baseline_acc, treatment_acc)
    relative = delta["relative_pct"]
    relative = "-" if relative is None else f"{relative:+.2f}"
    width = max(len(BASELINE_LABEL), len(TREATMENT_LABEL)) + 2
    lines = [
        f"{'Method':<{width}}{'Acc. (%)':>10}{'Delta (pp)':>12}{'Delta (%)':>12}",
        f"{BASELINE_LABEL:<{width}}{baseline_acc:>10.2f}{'-':>12}{'-':>12}",
        (f"{TREATMENT_LABEL:<{width}}{treatment_acc:>10.2f}"
         f"{delta['absolute_pp']:>+12.2f}{relative:>12}"),
    ]
    return "\n".join(lines) + "\n"
