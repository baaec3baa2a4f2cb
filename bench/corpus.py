"""Seeded generator of FinQA-shaped corpora for the pipeline benchmark.

Each record has the FinQA layout (Chen et al., arXiv:2109.00122): narrative
``pre_text``/``post_text`` around a table whose rows are years, plus one
question with a gold ``program``, its executed value ``exe_ans``, the rendered
``answer`` and the ``gold_inds`` sentences that support it.

The shapes the pipeline finds awkward are all present: 4-8 year rows followed
by a ``thereafter`` row, accounting negatives written ``(123)``, percent and
``$ in millions`` columns, and questions over one year or two years.

Sizes do not depend on the seed: row counts cycle through their range and are
only shuffled, and every document has the same number of columns and
sentences. Two seeds therefore give different content but the same amount of
work, which keeps run-to-run spread down.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path

USD_METRICS = (
    "net revenue", "operating expenses", "operating leases", "purchase obligations",
    "capital expenditures", "long-term debt", "interest expense", "cost of sales",
    "research and development", "depreciation and amortization", "deferred revenue",
    "net income", "goodwill impairment", "restructuring charges", "pension contributions",
    "share repurchases", "dividends paid", "free cash flow", "accounts receivable",
    "inventories", "income tax expense", "selling general and administrative",
    "unrecognized tax benefits", "environmental remediation", "asset retirement obligations",
)
PCT_METRICS = (
    "operating margin", "effective tax rate", "gross margin", "return on equity",
    "revenue growth", "discount rate", "expected return on plan assets",
    "loss ratio", "utilization rate", "payout ratio",
)

_NAME_PARTS = ("al", "bel", "cor", "dan", "el", "fen", "gar", "hol", "ist", "jor",
               "kal", "lum", "mar", "nor", "ost", "pel", "quin", "ros", "sar", "tor",
               "ul", "ver", "wes", "xan", "yor", "zen")
_SUFFIXES = ("corp", "inc", "holdings", "group", "industries", "systems", "energy",
             "financial", "technologies", "partners")

_CAUSES = ("higher volumes in the americas", "favorable pricing", "lower commodity costs",
           "the acquisition completed in the prior year", "improved product mix",
           "foreign currency translation", "cost reduction initiatives",
           "increased demand for services", "the divestiture of a business unit",
           "a reduction in headcount", "higher interest rates", "new store openings")
_NOUNS = ("revenue", "operating income", "backlog", "cash flow from operations",
          "capital spending", "borrowings under the credit facility", "pension expense",
          "warranty reserves", "contract liabilities", "lease payments",
          "stock-based compensation", "tax credits", "restructuring reserves")
_VERBS = ("increase", "decrease", "remain flat", "grow modestly", "decline slightly")
_PURPOSES = ("planned capital expenditures", "scheduled debt maturities",
             "the share repurchase program", "working capital requirements",
             "dividend payments", "pension funding obligations")


@dataclass(frozen=True)
class Shape:
    """Input size of one workload's corpus; every document has this shape."""

    n_train: int
    n_test: int
    year_rows: tuple[int, int]  # inclusive range of year rows per table
    usd_cols: int
    pct_cols: int
    pre_sentences: int
    post_sentences: int

    def describe(self) -> dict:
        d = asdict(self)
        d["year_rows"] = list(self.year_rows)
        d["thereafter_row"] = True
        d["table_cells_per_doc_max"] = (self.year_rows[1] + 1) * (self.usd_cols + self.pct_cols)
        return d


def _money(rng: random.Random, negative_share: float) -> tuple[str, str, float]:
    """(cell text, program literal, value) of a `$ in millions` cell."""
    while True:
        if rng.random() < 0.25:
            value = round(rng.uniform(10, 999), 1)
        else:
            value = float(rng.randint(50, 9999))
        if not 1900 <= value <= 2100:  # a value that reads as a year confuses labels
            break
    text = f"{value:,.1f}" if value != int(value) else f"{int(value):,}"
    literal = text.replace(",", "")
    if rng.random() < negative_share:
        return f"({text})", "-" + literal, -value
    return f"${text}", literal, value


def _percent(rng: random.Random) -> tuple[str, str, float]:
    value = round(rng.uniform(0.5, 60.0), 1)
    return f"{value:.1f}%", f"{value:.1f}", value


def _company(rng: random.Random, taken: set[str]) -> str:
    while True:
        name = "".join(rng.choice(_NAME_PARTS) for _ in range(rng.randint(2, 3)))
        company = f"{name} {rng.choice(_SUFFIXES)}"
        if company not in taken:
            taken.add(company)
            return company


def _sentence(rng: random.Random, company: str, years: list[int]) -> str:
    # Narrative must never read like the table template ("For <row>, <col> is <v>.")
    # or carry the prompt markers the mock chat provider keys on.
    year = rng.choice(years)
    x = rng.randint(12, 4800)
    p = round(rng.uniform(0.5, 35.0), 1)
    kind = rng.randrange(5)
    if kind == 0:
        return (f"{company} reported {rng.choice(_NOUNS)} of ${x} million in {year} , "
                f"primarily due to {rng.choice(_CAUSES)} .")
    if kind == 1:
        return (f"the company expects {rng.choice(_NOUNS)} to {rng.choice(_VERBS)} by "
                f"approximately {p}% over the next {rng.randint(2, 7)} years .")
    if kind == 2:
        return (f"management believes that cash on hand of ${x} million will be sufficient "
                f"to fund {rng.choice(_PURPOSES)} through {year + rng.randint(1, 4)} .")
    if kind == 3:
        return (f"as of december 31 , {year} , {company} had ${x} million of "
                f"{rng.choice(_NOUNS)} outstanding , compared with ${rng.randint(12, 4800)} "
                f"million a year earlier .")
    return (f"the change in {rng.choice(_NOUNS)} reflects {rng.choice(_CAUSES)} , "
            f"partially offset by {rng.choice(_CAUSES)} .")


def _fmt_gold(metric: str, year: int, cell: str) -> str:
    # FinQA row sentences spell negatives with a minus sign, which is also what
    # retriever.label_triplets needs to match a "(123)" cell.
    value = cell.replace("$", "$ ")
    if value.startswith("(") and value.endswith(")"):
        value = "-" + value[1:-1]
    return f"the {metric} of {year} is {value} ;"


def make_record(rng: random.Random, doc_id: str, shape: Shape, n_year_rows: int,
                kind: str, taken: set[str]) -> dict:
    company = _company(rng, taken)
    last_year = rng.randint(2012, 2022)
    years = list(range(last_year - n_year_rows + 1, last_year + 1))
    usd = rng.sample(USD_METRICS, shape.usd_cols)
    pct = rng.sample(PCT_METRICS, shape.pct_cols)
    header = ["year"] + [f"{m} ($ in millions)" for m in usd] + [f"{m} (%)" for m in pct]

    cells: dict[tuple[int, str], tuple[str, str, float]] = {}
    rows = []
    for year in reversed(years):  # latest year first, as filings print them
        row = [str(year)]
        for m in usd:
            cells[year, m] = _money(rng, negative_share=0.1)
            row.append(cells[year, m][0])
        for m in pct:
            cells[year, m] = _percent(rng)
            row.append(cells[year, m][0])
        rows.append(row)
    # Obligation schedules end in a "thereafter" row; percent columns leave it blank.
    rows.append(["thereafter"] + [_money(rng, 0.0)[0] for _ in usd] + [""] * len(pct))

    if kind == "ratio":  # one year, two metrics
        year = rng.choice(years)
        m1, m2 = rng.sample(usd, 2)
        a, b = cells[year, m1], cells[year, m2]
        question = f"what was the ratio of {m1} to {m2} for {company} in {year}?"
        program = f"divide({a[1]}, {b[1]})"
        exe = a[2] / b[2]
        answer = f"{exe:.2f}"
        gold = {f"table_{last_year - year + 1}":
                _fmt_gold(m1, year, a[0]) + " " + _fmt_gold(m2, year, b[0])}
    else:  # two years, one metric
        y1, y2 = sorted(rng.sample(years, 2))
        m = rng.choice(usd)
        a, b = cells[y1, m], cells[y2, m]
        gold = {f"table_{last_year - y2 + 1}": _fmt_gold(m, y2, b[0]),
                f"table_{last_year - y1 + 1}": _fmt_gold(m, y1, a[0])}
        if kind == "change":
            question = f"what was the change in {m} for {company} from {y1} to {y2}?"
            program = f"subtract({b[1]}, {a[1]})"
            exe = b[2] - a[2]
            answer = f"{exe:.1f}"
        else:
            question = (f"what was the percentage change in {m} for {company} "
                        f"between {y1} and {y2}?")
            program = f"subtract({b[1]}, {a[1]}), divide(#0, {a[1]})"
            exe = (b[2] - a[2]) / a[2]
            answer = f"{100 * exe:.1f}%"

    return {
        "id": doc_id,
        "pre_text": [_sentence(rng, company, years) for _ in range(shape.pre_sentences)],
        "post_text": [_sentence(rng, company, years) for _ in range(shape.post_sentences)],
        "table": [header] + rows,
        "qa": {"question": question, "answer": answer, "exe_ans": exe,
               "program": program, "gold_inds": gold},
    }


QUESTION_KINDS = ("change", "pct_change", "ratio")


def make_split(seed: int, name: str, shape: Shape, n_docs: int) -> list[dict]:
    """`n_docs` records whose sizes depend on the shape only, not on the seed."""
    rng = random.Random(f"{name}:{seed}")
    lo, hi = shape.year_rows
    row_counts = [lo + i % (hi - lo + 1) for i in range(n_docs)]
    kinds = [QUESTION_KINDS[i % len(QUESTION_KINDS)] for i in range(n_docs)]
    rng.shuffle(row_counts)
    rng.shuffle(kinds)
    taken: set[str] = set()
    return [make_record(rng, f"{name}-{seed}-{i:05d}", shape, row_counts[i], kinds[i], taken)
            for i in range(n_docs)]


def write_corpus(seed: int, shape: Shape, out_dir: Path) -> dict[str, Path]:
    """Write train.json and test.json; returns split -> path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for split, n in (("train", shape.n_train), ("test", shape.n_test)):
        path = out_dir / f"{split}.json"
        path.write_text(json.dumps(make_split(seed, split, shape, n)), encoding="utf-8")
        paths[split] = path
    return paths
