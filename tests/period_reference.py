"""The period grammar as four hand-written parts, which the one table is held to.

`kg_schema` renders and parses periods from one table of per-kind templates
and one list of free-text rules. The tests hold it to these functions and this
pattern, written out rule by rule: same Period, canonical string and relation
for any text, and the same relation names accepted.
"""

import functools
import re

from finkgqa.kg_schema import MAX_YEAR, MIN_YEAR, UNKNOWN_PERIOD, Period, PeriodKind

RELATION_RE = re.compile(r"HAS_VALUE_(IN|AS_OF|AFTER|BEFORE)_.+")

_CANONICAL_PERIOD_RES: list[tuple[re.Pattern, PeriodKind]] = [
    (re.compile(r"(\d{4})-Q([1-4])$"), PeriodKind.QUARTER),
    (re.compile(r"AS_OF_(\d{4})$"), PeriodKind.AS_OF),
    (re.compile(r"AFTER_(\d{4})$"), PeriodKind.AFTER),
    (re.compile(r"BEFORE_(\d{4})$"), PeriodKind.BEFORE),
    (re.compile(r"(\d{4})$"), PeriodKind.ANNUAL),
]


@functools.lru_cache(maxsize=4096)
def period_from_string(canonical: str) -> Period:
    """Strict inverse of Period.canonical(); raises ValueError on anything else.

    Memoised: a store repeats a handful of period strings per document, and
    the frozen Period can be shared.
    """
    s = canonical.strip()
    if s == "UNKNOWN":
        return UNKNOWN_PERIOD
    for pattern, kind in _CANONICAL_PERIOD_RES:
        m = pattern.fullmatch(s)
        if m:
            quarter = int(m.group(2)) if kind is PeriodKind.QUARTER else None
            return Period(kind, int(m.group(1)), quarter)
    raise ValueError(f"not a canonical period string: {canonical!r}")


def _safe_year(text: str) -> int | None:
    year = int(text)
    return year if MIN_YEAR <= year <= MAX_YEAR else None


def normalize_period(raw: str, context_years: list[int] | None = None) -> Period:
    """Map a free-text temporal expression to a canonical Period.

    Rule table: "YYYY" / "fiscal YYYY" / "FY YYYY" are annual; "YYYY-Qn" /
    "Qn YYYY" quarterly; "as of ... YYYY" point-in-time; "thereafter" /
    "after YYYY" open-ended forward ("thereafter" resolves against the latest
    context year); "prior to YYYY" / "before YYYY" backward. Anything else is
    UNKNOWN; canonical strings are fixed points.
    """
    s = (raw or "").strip()
    if not s:
        return UNKNOWN_PERIOD

    try:
        return period_from_string(s)
    except ValueError:
        pass

    low = re.sub(r"\s+", " ", s.lower())

    m = re.fullmatch(r"(?:fiscal(?: year)?|fy) ?(\d{4})", low)
    if m:
        year = _safe_year(m.group(1))
        return Period(PeriodKind.ANNUAL, year) if year else UNKNOWN_PERIOD

    m = re.fullmatch(r"q([1-4]) (\d{4})", low)
    if m:
        year = _safe_year(m.group(2))
        return Period(PeriodKind.QUARTER, year, int(m.group(1))) if year else UNKNOWN_PERIOD
    m = re.fullmatch(r"(\d{4})[ -]q([1-4])", low)
    if m:
        year = _safe_year(m.group(1))
        return Period(PeriodKind.QUARTER, year, int(m.group(2))) if year else UNKNOWN_PERIOD

    if low.startswith("as of"):
        m = re.search(r"(\d{4})", low)
        if m:
            year = _safe_year(m.group(1))
            return Period(PeriodKind.AS_OF, year) if year else UNKNOWN_PERIOD
        return UNKNOWN_PERIOD

    if "thereafter" in low:
        years = [y for y in (context_years or []) if MIN_YEAR <= y <= MAX_YEAR]
        return Period(PeriodKind.AFTER, max(years)) if years else UNKNOWN_PERIOD

    m = re.fullmatch(r"after (\d{4})", low)
    if m:
        year = _safe_year(m.group(1))
        return Period(PeriodKind.AFTER, year) if year else UNKNOWN_PERIOD

    m = re.fullmatch(r"(?:prior to|before) (\d{4})", low)
    if m:
        year = _safe_year(m.group(1))
        return Period(PeriodKind.BEFORE, year) if year else UNKNOWN_PERIOD

    return UNKNOWN_PERIOD


def relation_for_period(period: Period) -> str:
    """Canonical relation name for a period (HAS_VALUE when period is unknown)."""
    if period.kind is PeriodKind.UNKNOWN:
        return "HAS_VALUE"
    if period.kind is PeriodKind.ANNUAL:
        return f"HAS_VALUE_IN_{period.year}"
    if period.kind is PeriodKind.QUARTER:
        return f"HAS_VALUE_IN_{period.year}_Q{period.quarter}"
    return f"HAS_VALUE_{period.kind.value}_{period.year}"
