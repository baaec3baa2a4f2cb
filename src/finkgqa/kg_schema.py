"""Financial-fact triplet schema: periods, numeric values, validation, JSONL store.

Every fact extracted from a document is a subject/relation/object triplet with
typed attributes (metric, company, period, value, unit). This module owns the
canonical forms and keeps everything downstream of extraction schema-checked.
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from enum import Enum
from json.encoder import encode_basestring_ascii as _json_str
from typing import NamedTuple


class NotNumeric(ValueError):
    """Raised when a value string contains no parseable number."""


class EmptyAfterNormalization(ValueError):
    """Raised when metric canonicalization leaves nothing."""


class TripletParseError(ValueError):
    """Raised by the triplet-store parser; carries the failing line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


METRIC_RE = re.compile(r"[A-Z][A-Z0-9_]*")

MIN_YEAR = 1900
MAX_YEAR = 2100

class PeriodKind(str, Enum):
    ANNUAL = "ANNUAL"
    QUARTER = "QUARTER"
    AS_OF = "AS_OF"
    AFTER = "AFTER"
    BEFORE = "BEFORE"
    UNKNOWN = "UNKNOWN"


# The period grammar: each kind's canonical string and relation name, where
# `{y}` is the year and `{q}` the quarter. A Period fills exactly the fields
# its templates name; period_from_string and RELATION_RE are built from the
# same rows.
_PERIOD_TEMPLATES: dict[PeriodKind, tuple[str, str]] = {
    PeriodKind.ANNUAL: ("{y}", "HAS_VALUE_IN_{y}"),
    PeriodKind.QUARTER: ("{y}-Q{q}", "HAS_VALUE_IN_{y}_Q{q}"),
    PeriodKind.AS_OF: ("AS_OF_{y}", "HAS_VALUE_AS_OF_{y}"),
    PeriodKind.AFTER: ("AFTER_{y}", "HAS_VALUE_AFTER_{y}"),
    PeriodKind.BEFORE: ("BEFORE_{y}", "HAS_VALUE_BEFORE_{y}"),
    PeriodKind.UNKNOWN: ("UNKNOWN", "HAS_VALUE"),
}

# A relation name with a period: a template's text before its year, then
# anything. The unknown period's HAS_VALUE is checked on its own.
RELATION_RE = re.compile("(?:%s).+" % "|".join(dict.fromkeys(
    re.escape(relation.partition("{y}")[0])
    for _, relation in _PERIOD_TEMPLATES.values() if "{y}" in relation)))


@dataclass(frozen=True)
class Period:
    """Normalized temporal qualifier of a fact."""

    kind: PeriodKind = PeriodKind.UNKNOWN
    year: int | None = None
    quarter: int | None = None

    def __post_init__(self):
        canonical, relation = _PERIOD_TEMPLATES[self.kind]
        kind, year, quarter = self.kind.value, self.year, self.quarter
        if (year is None) is ("{y}" in canonical):
            raise ValueError(f"{kind} period needs a year" if year is None
                             else f"{kind} period takes no year, got {year}")
        if year is not None and not MIN_YEAR <= year <= MAX_YEAR:
            raise ValueError(f"year {year} outside {MIN_YEAR}-{MAX_YEAR}")
        if (quarter is None) is ("{q}" in canonical):
            raise ValueError(f"{kind} period needs a quarter" if quarter is None
                             else f"{kind} period takes no quarter, got {quarter}")
        if quarter is not None and not 1 <= quarter <= 4:
            raise ValueError(f"quarter {quarter} outside 1-4")
        # Rendered once: a store shares a few memoised Periods among all its facts.
        object.__setattr__(self, "_canonical", canonical.format(y=year, q=quarter))
        object.__setattr__(self, "_relation", relation.format(y=year, q=quarter))

    def canonical(self) -> str:
        return self._canonical

    def relation(self) -> str:
        """The relation name of a fact in this period."""
        return self._relation


UNKNOWN_PERIOD = Period()


def _template_re(template: str) -> re.Pattern:
    """A pattern of the strings a template renders: a year has four digits, a quarter is 1-4."""
    pattern = re.escape(template).replace(re.escape("{y}"), r"(?P<year>\d{4})")
    return re.compile(pattern.replace(re.escape("{q}"), r"(?P<quarter>[1-4])"))


_CANONICAL_RES = {kind: _template_re(canonical)
                  for kind, (canonical, _) in _PERIOD_TEMPLATES.items()}


@functools.lru_cache(maxsize=4096)
def period_from_string(canonical: str) -> Period:
    """Strict inverse of Period.canonical(); raises ValueError on anything else,
    a year outside MIN_YEAR-MAX_YEAR included.

    Memoised: a store repeats a handful of period strings per document, and
    the frozen Period can be shared.
    """
    s = canonical.strip()
    for kind, pattern in _CANONICAL_RES.items():
        m = pattern.fullmatch(s)
        if m:
            return Period(kind, **{name: int(v) for name, v in m.groupdict().items()})
    raise ValueError(f"not a canonical period string: {canonical!r}")


# Free-text periods, each pattern matched against the whole lowercased text
# with its whitespace runs collapsed. The first rule that matches decides. A
# rule without a year group takes the latest context year.
_FREE_TEXT_PERIODS: list[tuple[re.Pattern, PeriodKind]] = [
    (re.compile(r"(?:fiscal(?: year)?|fy) ?(?P<year>\d{4})"), PeriodKind.ANNUAL),
    (re.compile(r"q(?P<quarter>[1-4]) (?P<year>\d{4})"), PeriodKind.QUARTER),
    (re.compile(r"(?P<year>\d{4})[ -]q(?P<quarter>[1-4])"), PeriodKind.QUARTER),
    (re.compile(r"as of(?:.*?(?P<year>\d{4}))?.*"), PeriodKind.AS_OF),
    (re.compile(r".*thereafter.*"), PeriodKind.AFTER),
    (re.compile(r"after (?P<year>\d{4})"), PeriodKind.AFTER),
    (re.compile(r"(?:prior to|before) (?P<year>\d{4})"), PeriodKind.BEFORE),
]


def normalize_period(raw: str, context_years: list[int] | None = None) -> Period:
    """Map a free-text temporal expression to a canonical Period.

    A canonical string is read as itself, other text by the first rule of
    _FREE_TEXT_PERIODS that matches it; "thereafter" resolves against the
    latest context year. A rule that finds no year, or one Period refuses,
    gives UNKNOWN, as does text that no rule matches.
    """
    s = (raw or "").strip()
    if not s:
        return UNKNOWN_PERIOD
    try:
        return period_from_string(s)
    except ValueError:
        pass
    low = " ".join(s.lower().split())
    for pattern, kind in _FREE_TEXT_PERIODS:
        m = pattern.fullmatch(low)
        if m:
            found = m.groupdict()
            year = found["year"] if "year" in found else max(
                (y for y in context_years or () if MIN_YEAR <= y <= MAX_YEAR), default=None)
            quarter = found.get("quarter")
            try:
                return Period(kind, year and int(year), quarter and int(quarter))
            except ValueError:
                return UNKNOWN_PERIOD
    return UNKNOWN_PERIOD


@dataclass(frozen=True)
class NormalizedValue:
    """A parsed numeric value: exact magnitude plus a textual unit."""

    magnitude: Decimal
    unit: str = ""

    def render(self) -> str:
        text = render_decimal(self.magnitude)
        return f"{text} {self.unit}" if self.unit else text


def render_decimal(value: Decimal) -> str:
    """Plain (non-scientific) decimal string."""
    return format(value, "f")


_CURRENCY_SYMBOLS = {"$": "USD", "€": "EUR", "£": "GBP"}
_CURRENCY_CODES = {"usd": "USD", "eur": "EUR", "gbp": "GBP"}
_SCALE_WORDS = {
    "thousand": "thousand", "thousands": "thousand", "k": "thousand",
    "million": "million", "millions": "million", "m": "million",
    "mm": "million", "mn": "million",
    "billion": "billion", "billions": "billion", "b": "billion", "bn": "billion",
}
_PERCENT_WORDS = {"%", "percent", "percentage", "pct"}

_NUMBER_RE = re.compile(r"[-+]?(?:\d[\d,]*(?:\.\d+)?|\.\d+)")
_PAREN_NUMBER_RE = re.compile(r"\(\s*[^()]*\d[^()]*\)")
_UNIT_TOKEN_RE = re.compile(r"[A-Za-z%]+|[^\sA-Za-z\d.,()+\-]")


def parse_numeric(raw: str) -> NormalizedValue:
    """Parse a human-readable value string into magnitude and unit.

    Currency symbols and digit grouping are stripped, accounting parentheses
    negate, scale words and suffixes (thousand/K, million/M, billion/B) go into
    the unit alongside any currency, and "%" becomes the unit "percent". The
    stated scale is kept literally; nothing is rescaled.
    """
    s = str(raw)
    negative = False

    m = _PAREN_NUMBER_RE.search(s)
    if m:
        negative = True
        s = s[:m.start()] + m.group(0)[1:-1] + s[m.end():]

    currency = None
    for symbol, code in _CURRENCY_SYMBOLS.items():
        if symbol in s:
            currency = currency or code
            s = s.replace(symbol, " ")

    m = _NUMBER_RE.search(s)
    if m is None:
        raise NotNumeric(f"no number in {raw!r}")
    try:
        magnitude = Decimal(m.group(0).replace(",", ""))
    except InvalidOperation as exc:
        raise NotNumeric(f"unparseable number in {raw!r}") from exc
    if negative and magnitude >= 0:
        magnitude = -magnitude

    remainder = s[:m.start()] + " " + s[m.end():]
    scale = None
    percent = False
    leftovers: list[str] = []
    for token in _UNIT_TOKEN_RE.findall(remainder):
        low = token.lower()
        if low in _PERCENT_WORDS:
            percent = True
        elif low in _SCALE_WORDS and scale is None:
            scale = _SCALE_WORDS[low]
        elif low in _CURRENCY_CODES and currency is None:
            currency = _CURRENCY_CODES[low]
        else:
            leftovers.append(token)

    if percent:
        return NormalizedValue(magnitude, "percent")
    parts = [p for p in (scale, currency) if p] + leftovers
    return NormalizedValue(magnitude, " ".join(parts))


@functools.lru_cache(maxsize=4096)
def canonical_metric(raw: str) -> str:
    """Uppercase a metric name, collapsing runs of non-alphanumerics to "_".

    Memoised like period_from_string: a store repeats a few column headers per
    document. A failing name raises again on every call.
    """
    text = re.sub(r"[^A-Za-z0-9]+", "_", raw).strip("_").upper()
    if not text:
        raise EmptyAfterNormalization(f"no metric content in {raw!r}")
    return text


def triplet_id_for(source_doc: str, subject: str, relation: str, obj: str) -> str:
    """Stable 128-bit content hash of a triplet's identifying fields."""
    payload = "\x1e".join((source_doc, subject, relation, obj)).encode("utf-8")
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


class Triplet(NamedTuple):
    """One knowledge-graph fact with its typed attributes.

    A NamedTuple because one is built for every fact extracted or read back
    from a store, and a tuple is the cheapest record to build and to hold.
    """

    subject: str
    relation: str
    object: str
    metric_type: str
    company: str | None
    period: Period
    value: Decimal
    unit: str
    source_doc: str
    triplet_id: str

    def text(self) -> str:
        """Rendering used when the triplet is embedded or shown to a model."""
        return f"{self.subject} {self.relation} {self.object}"


def make_triplet(
    metric_type: str,
    value: Decimal,
    unit: str = "",
    company: str | None = None,
    period: Period = UNKNOWN_PERIOD,
    source_doc: str = "",
    subject: str | None = None,
    relation: str | None = None,
    obj: str | None = None,
) -> Triplet:
    """Build a triplet, deriving subject/relation/object and the content hash."""
    if subject is None:
        subject = f"{metric_type}:{company}" if company else metric_type
    if relation is None:
        relation = period.relation()
    if obj is None:
        obj = NormalizedValue(value, unit).render()
    # Positional: a NamedTuple takes keywords at about twice the cost, once per fact.
    return Triplet(subject, relation, obj, metric_type, company or None, period, value,
                   unit, source_doc, triplet_id_for(source_doc, subject, relation, obj))


@functools.lru_cache(maxsize=4096)
def _is_metric(name: str) -> bool:
    """METRIC_RE's verdict, memoised: a store repeats a few metric names."""
    return METRIC_RE.fullmatch(name) is not None


@functools.lru_cache(maxsize=4096)
def _is_relation(name: str) -> bool:
    """RELATION_RE's verdict (or the unknown period's HAS_VALUE), memoised like _is_metric."""
    return name == UNKNOWN_PERIOD.relation() or RELATION_RE.fullmatch(name) is not None


def field_violations(t: Triplet) -> list[str]:
    """The invariants of `t`'s fields that it violates: every check but the id's.

    A triplet that `make_triplet` has just built needs only these, because
    its id was derived from its own fields.
    """
    violations = []
    if not t.subject:
        violations.append("SubjectEmpty")
    if not _is_metric(t.metric_type or ""):
        violations.append("MetricNotCanonical")
    if not _is_relation(t.relation or ""):
        violations.append("RelationMalformed")
    if not t.object.startswith(render_decimal(t.value)):
        violations.append("ObjectValueMismatch")
    return violations


def triplet_from_dict(d: dict) -> Triplet:
    return Triplet(d["subject"], d["relation"], d["object"], d["metric_type"],
                   d.get("company") or None, period_from_string(d["period"]),
                   Decimal(d["value"]), d.get("unit", ""), d.get("source_doc", ""),
                   d["triplet_id"])


_STORE_LINE = ('{"subject": %s, "relation": %s, "object": %s, "metric_type": %s, '
               '"company": %s, "period": %s, "value": %s, "unit": %s, '
               '"source_doc": %s, "triplet_id": %s}\n')


def serialize_triplets(triplets: list[Triplet]) -> str:
    """Newline-delimited JSON, one triplet per line, canonical key order.

    Each line is assembled from JSON-escaped fields, byte for byte what
    json.dumps gives for the same dict with default settings.
    """
    return "".join([
        _STORE_LINE % (
            _json_str(t.subject), _json_str(t.relation), _json_str(t.object),
            _json_str(t.metric_type),
            "null" if t.company is None else _json_str(t.company),
            _json_str(t.period.canonical()), _json_str(render_decimal(t.value)),
            _json_str(t.unit), _json_str(t.source_doc), _json_str(t.triplet_id))
        for t in triplets])


# Lines per json.loads in parse_triplets_file: one call per block saves the
# per-call overhead, and a small block keeps little decoded text alive at once.
# A reader that streams a store hands it one block's lines at a time.
PARSE_BLOCK = 64
# What a malformed line raises: bad JSON (a ValueError), a value that is not
# an object (TypeError), a missing key, or a bad period or value.
_BAD_LINE = (KeyError, TypeError, ValueError, InvalidOperation)


def parse_triplets_file(text: str, first_line: int = 1) -> list[Triplet]:
    """Inverse of serialize_triplets; raises TripletParseError with line number.

    `first_line` is the number of text's first line in its file, so the
    error names the file's line when text is one part of it. Each block of
    PARSE_BLOCK lines is decoded as one JSON array of its non-blank lines. A
    block that fails, or that does not decode to one value per non-blank line
    (a line holding two objects does not), is parsed again line by line,
    which raises at its first bad line.
    """
    lines = text.splitlines()
    triplets: list[Triplet] = []
    for start in range(0, len(lines), PARSE_BLOCK):
        block = lines[start:start + PARSE_BLOCK]
        filled = [line for line in block if line.strip()]
        try:
            dicts = json.loads("[" + ",".join(filled) + "]")
            if len(dicts) == len(filled):
                triplets += [triplet_from_dict(d) for d in dicts]
                continue
        except _BAD_LINE:
            pass
        for line_no, line in enumerate(block, start=first_line + start):
            if not line.strip():
                continue
            try:
                triplets.append(triplet_from_dict(json.loads(line)))
            except _BAD_LINE as exc:
                raise TripletParseError(line_no, str(exc)) from exc
    return triplets
