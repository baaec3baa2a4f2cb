import json
import random
from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

from finkgqa.evaluator import (
    BadReference,
    DivideByZero,
    EmptyInput,
    ROUNDING_REL_TOL,
    ProgramStep,
    RowNotFound,
    compare_runs,
    evaluate_split,
    execute_program,
    format_report,
    judge,
    judge_with_llm,
    numbers_equivalent,
    parse_program,
)
from finkgqa.llm_client import ChatClient, ProviderConfig, chat_response
from finkgqa.preprocess import Table
import verdict_reference as reference

# ---------------------------------------------------------------------------
# Program execution


def test_change_ratio_pattern():
    steps = parse_program("subtract(120, 100), divide(#0, 100)")
    assert execute_program(steps) == pytest.approx(0.2)


def test_divide_by_zero_raises():
    with pytest.raises(DivideByZero):
        execute_program(parse_program("divide(5, 0)"))


def test_greater_returns_one_or_zero():
    assert execute_program(parse_program("greater(3.5, 3.1)")) == 1.0
    assert execute_program(parse_program("greater(3.1, 3.5)")) == 0.0


def test_const_and_percent_literals():
    assert execute_program(parse_program("multiply(const_100, 2)")) == 200.0
    assert execute_program(parse_program("add(const_m1, 2)")) == 1.0
    assert execute_program(parse_program("add(17%, 0)")) == pytest.approx(0.17)


def test_bad_references_raise():
    with pytest.raises(BadReference):
        execute_program(parse_program("add(#0, 1)"))
    with pytest.raises(BadReference):
        execute_program(parse_program("add(1, 1), add(#5, 1)"))
    with pytest.raises(BadReference):
        execute_program([ProgramStep("add", "fish", "1")])


def test_table_operations():
    table = Table(header=("", "2019", "2018", "2017"),
                  rows=(("net sales", "$100", "90", "(10)"),
                        ("costs", "50", "40", "30")))
    assert execute_program(parse_program("table_sum(net sales, none)"), table) == 180.0
    assert execute_program(parse_program("table_max(costs, none)"), table) == 50.0
    assert execute_program(parse_program("table_min(net sales, none)"), table) == -10.0
    assert execute_program(parse_program("table_average(costs, none)"), table) == 40.0


def test_table_operations_read_spaced_cells():
    # FinQA writes a negative as "( 300 )" and a percent as "( 1.5 ) %".
    table = Table(header=("", "2019", "2018", "2017"),
                  rows=(("change", "$ 1,200", "( 300 )", "( 1.5 ) %"),))
    assert execute_program(parse_program("table_sum(change, none)"), table) \
        == pytest.approx(1200 - 300 - 0.015)
    assert execute_program(parse_program("table_min(change, none)"), table) == -300.0
    assert execute_program(parse_program("table_max(change, none)"), table) == 1200.0


def test_table_row_folding_and_missing():
    table = Table(header=("", "a"), rows=(("Net  Sales ", "7"),))
    assert execute_program(parse_program("table_sum(net sales, none)"), table) == 7.0
    with pytest.raises(RowNotFound):
        execute_program(parse_program("table_sum(margin, none)"), table)


def _oracle_eval(steps):
    """Independent tree-walking evaluator that recomputes references recursively."""

    def value_of(i):
        op, a, b = steps[i].op, steps[i].arg1, steps[i].arg2
        av = value_of(int(a[1:])) if a.startswith("#") else float(a)
        bv = value_of(int(b[1:])) if b.startswith("#") else float(b)
        if op == "add":
            return av + bv
        if op == "subtract":
            return av - bv
        if op == "multiply":
            return av * bv
        if op == "divide":
            return av / bv
        if op == "exp":
            return av ** bv
        return 1.0 if av > bv else 0.0

    return value_of(len(steps) - 1)


def _random_program(rng, max_steps=3):
    ops = ["add", "subtract", "multiply", "divide", "exp", "greater"]
    steps = []
    n = rng.randint(1, max_steps)
    for i in range(n):
        op = rng.choice(ops)

        def operand():
            if i > 0 and rng.random() < 0.4:
                return f"#{rng.randrange(i)}"
            return f"{rng.uniform(-9, 9):.2f}"

        a, b = operand(), operand()
        if op == "divide":
            b = f"{rng.choice([1, -1]) * rng.uniform(0.5, 9):.2f}"
        if op == "exp":
            a = f"{rng.uniform(0.5, 3):.2f}"
            b = str(rng.randint(0, 3))
        steps.append(ProgramStep(op, a, b))
    return steps


def test_random_programs_match_oracle():
    rng = random.Random(2024)
    checked = 0
    while checked < 200:
        steps = _random_program(rng)
        try:
            expected = _oracle_eval(steps)
        except ZeroDivisionError:
            continue
        assert execute_program(steps) == expected
        checked += 1


# ---------------------------------------------------------------------------
# Rules judge


@pytest.mark.parametrize("pred,gold,expected", [
    ("20%", "0.20", True),
    ("0.20", "20%", True),
    ("$1.2M", "$1,200,000", True),
    ("$1,200,000", "$1.2M", True),
    ("58.3", "58.34", True),
    ("60", "58.34", False),
    ("yes", "yes", True),
    ("yes", "no", False),
    ("yes", "1", True),
    ("no", "0", True),
    ("n/a", "N/A", True),
    ("growth was strong", "strong growth", False),
    ("1.5 billion", "1,500 million", True),
    ("14.1%", "0.141", True),
    ("-5", "(5)", True),
    ("about 120", "120", True),
])
def test_numbers_equivalent_cases(pred, gold, expected):
    assert numbers_equivalent(pred, gold) is expected


def test_tolerance_is_relative():
    assert ROUNDING_REL_TOL == 0.01
    gold = 58.34
    assert numbers_equivalent(str(gold * 1.01), str(gold))
    assert numbers_equivalent(str(gold * 0.99), str(gold))
    assert not numbers_equivalent(str(gold * 1.03), str(gold))
    assert not numbers_equivalent(str(gold * 0.97), str(gold))


printable = st.text(min_size=0, max_size=30)
numeric_strings = st.decimals(allow_nan=False, allow_infinity=False,
                              places=3, min_value=-10**9,
                              max_value=10**9).map(str)
answer_strings = st.one_of(printable, numeric_strings,
                           numeric_strings.map(lambda s: s + "%"),
                           st.sampled_from(["yes", "no", "$1.2M", "n/a"]))


@given(answer_strings)
def test_equivalence_reflexive(s):
    assert numbers_equivalent(s, s)


@given(answer_strings, answer_strings)
def test_equivalence_symmetric(a, b):
    assert numbers_equivalent(a, b) == numbers_equivalent(b, a)


@given(st.floats(min_value=0.001, max_value=1e9, allow_nan=False))
def test_relative_band_property(gold):
    tol = ROUNDING_REL_TOL
    assert numbers_equivalent(repr(gold * (1 + tol)), repr(gold))
    assert numbers_equivalent(repr(gold * (1 - tol)), repr(gold))
    assert not numbers_equivalent(repr(gold * (1 + 3 * tol)), repr(gold))
    assert not numbers_equivalent(repr(gold * (1 - 3 * tol)), repr(gold))


# ---------------------------------------------------------------------------
# LLM judge


def _judge_client(reply: str):
    captured = {}

    def transport(url, payload, headers, timeout):
        captured.update(payload)
        return 200, chat_response(reply)

    client = ChatClient(ProviderConfig(model="judge", endpoint="http://j"),
                        transport=transport)
    return client, captured


def test_llm_judge_yes():
    client, captured = _judge_client("YES")
    assert judge_with_llm("grew by 20%", "20% increase", client) is True
    assert captured["temperature"] == 0.0


def test_llm_judge_no_and_garbage():
    client, _ = _judge_client("NO")
    assert judge_with_llm("a", "b", client) is False
    client, _ = _judge_client("perhaps?")
    from finkgqa.evaluator import JudgeIndecisive
    with pytest.raises(JudgeIndecisive):
        judge_with_llm("a", "b", client)


def test_garbage_judge_yields_judge_error_verdict():
    client, _ = _judge_client("perhaps?")
    records = [("d", "grew by a fifth", False, "up twenty percent", None)]
    judged = evaluate_split(records, judge_client=client)
    assert judged[0]["verdict"] == "JUDGE_ERROR"
    assert judged[0]["judge_used"] == "LLM"
    assert _accuracy(judged) == 0.0


def test_judge_asks_the_llm_only_where_the_rules_cannot_tell():
    client, captured = _judge_client("YES")
    assert judge("grew by a fifth", "up twenty percent", None, client) == ("CORRECT", "LLM")
    assert captured
    for answer, gold in [("yes", "up twenty percent"), ("no.", "up twenty percent"),
                         ("20", "up twenty percent"), ("grew by a fifth", "20%")]:
        captured.clear()
        assert judge(answer, gold, None, client) == ("INCORRECT", "RULES")
        assert not captured  # a yes/no or a number on either side: the rules decide
    assert judge("grew by a fifth", "up twenty percent") == ("INCORRECT", "RULES")


# A scripted judge: YES, NO, another word, or an unavailable server.
_JUDGE_REPLIES = st.sampled_from([(200, chat_response("YES")), (200, chat_response("NO")),
                                  (200, chat_response("maybe")), (503, {"error": "down"})])


_ANSWER_TEXTS = ["", " ", "yes", "No.", "true", "20%", "0.2", "1,200", "$1.2M", "(5)",
                 "grew by a fifth", "Grew by a fifth", "up twenty percent", "n/a",
                 "ANSWER: 7", "answer:", "\n", "7\nANSWER: 8", "a\nb"]


@given(st.lists(st.tuples(
           st.one_of(st.none(), st.sampled_from(_ANSWER_TEXTS),
                     st.lists(st.sampled_from(_ANSWER_TEXTS), max_size=3).map(" ".join),
                     st.text(max_size=8)),
           st.sampled_from([False, False, False, True]),
           st.one_of(st.sampled_from(_ANSWER_TEXTS), st.text(max_size=8)),
           st.one_of(st.none(), st.sampled_from([Decimal("0.2"), Decimal("1200"),
                                                 Decimal("-5"), Decimal("1")]))),
           min_size=1, max_size=6),
       st.one_of(st.none(), _JUDGE_REPLIES))
def test_verdict_lines_match_the_reference(rows, reply):
    records = [(f"d{i}", answer, failed, gold, gold_exe)
               for i, (answer, failed, gold, gold_exe) in enumerate(rows)]
    client = None
    if reply is not None:
        client = ChatClient(ProviderConfig(model="judge", endpoint="http://j", max_retries=0),
                            transport=lambda url, payload, headers, timeout: reply)
    want = [reference.judge_record(reference.record_for(*r), client).to_dict()
            for r in records]
    assert evaluate_split(records, judge_client=client) == want


# ---------------------------------------------------------------------------
# Split evaluation


def _record(pred: str, gold: str, doc_id="d") -> tuple:
    return doc_id, pred, False, gold, None


def _accuracy(lines: list[dict]) -> float:
    return sum(line["verdict"] == "CORRECT" for line in lines) / len(lines)


def test_all_correct_accuracy():
    records = [_record("1", "1"), _record("2", "2"),
               _record("3", "3"), _record("4", "4")]
    judged = evaluate_split(records)
    assert _accuracy(judged) == 1.0
    assert all(r["verdict"] == "CORRECT" for r in judged)


def test_quarter_correct():
    records = [_record("1", "1"), _record("9", "2"),
               _record("9", "3"), _record("9", "4")]
    assert _accuracy(evaluate_split(records)) == 0.25


def test_scrambled_is_zero():
    records = [_record("13", "1"), _record("23", "2"), _record("33", "3")]
    assert _accuracy(evaluate_split(records)) == 0.0


def test_empty_input_raises():
    with pytest.raises(EmptyInput):
        evaluate_split([])


def test_accuracy_permutation_invariant():
    records = [_record(str(i), str(i if i % 2 else i + 1), doc_id=str(i))
               for i in range(8)]
    forward = _accuracy(evaluate_split(list(records)))
    backward = _accuracy(evaluate_split(list(reversed(records))))
    assert forward == backward


def test_gold_exe_fallback():
    judged = evaluate_split([("d", "0.25", False, "25%", Decimal("0.25"))])
    assert judged[0]["verdict"] == "CORRECT"


def test_verdicts_jsonl_shape():
    judged = evaluate_split([_record("1", "1")])
    line = json.loads(json.dumps(judged[0]))
    assert set(line) == {"doc_id", "predicted", "gold", "verdict", "judge_used"}


# ---------------------------------------------------------------------------
# Run comparison


def test_compare_runs_reference_numbers():
    delta = compare_runs(51.93, 58.34)
    assert round(delta["absolute_pp"], 2) == 6.41
    assert round(delta["relative_pct"], 2) == 12.34


def test_compare_runs_identity_and_closed_form():
    assert compare_runs(40.0, 40.0) == {"absolute_pp": 0.0, "relative_pct": 0.0}
    delta = compare_runs(40.0, 50.0)
    assert delta["absolute_pp"] == pytest.approx(10.0)
    assert delta["relative_pct"] == pytest.approx(25.0)


def test_compare_runs_zero_baseline():
    assert compare_runs(0.0, 10.0) == {"absolute_pp": 10.0, "relative_pct": None}
    treatment = format_report(0.0, 0.0).splitlines()[2]
    assert treatment.split()[-2:] == ["+0.00", "-"]


def test_format_report_shape():
    table = format_report(51.93, 58.34)
    lines = table.strip().splitlines()
    assert len(lines) == 3
    assert "Llama (vanilla)" in lines[1]
    assert "Llama + KG" in lines[2]
    assert "+6.41" in lines[2]
    assert "+12.34" in lines[2]
