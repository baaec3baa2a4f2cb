import json
from decimal import Decimal

import pytest
from hypothesis import example, given, strategies as st

from finkgqa.kg_schema import (
    METRIC_RE,
    RELATION_RE,
    EmptyAfterNormalization,
    NormalizedValue,
    NotNumeric,
    Period,
    PeriodKind,
    Triplet,
    TripletParseError,
    UNKNOWN_PERIOD,
    canonical_metric,
    field_violations,
    make_triplet,
    normalize_period,
    parse_numeric,
    parse_triplets_file,
    period_from_string,
    render_decimal,
    serialize_triplets,
    triplet_from_dict,
    triplet_id_for,
)
import period_reference as reference
from triplet_reference import validate_triplet

# ---------------------------------------------------------------------------
# Period normalization


@pytest.mark.parametrize("raw,expected", [
    ("2007", Period(PeriodKind.ANNUAL, 2007)),
    ("AS_OF_2010", Period(PeriodKind.AS_OF, 2010)),
    ("fiscal 2015", Period(PeriodKind.ANNUAL, 2015)),
    ("FY 2015", Period(PeriodKind.ANNUAL, 2015)),
    ("FY2015", Period(PeriodKind.ANNUAL, 2015)),
    ("2007-Q4", Period(PeriodKind.QUARTER, 2007, 4)),
    ("Q2 2019", Period(PeriodKind.QUARTER, 2019, 2)),
    ("as of december 31, 2010", Period(PeriodKind.AS_OF, 2010)),
    ("after 2015", Period(PeriodKind.AFTER, 2015)),
    ("prior to 2012", Period(PeriodKind.BEFORE, 2012)),
    ("before 2012", Period(PeriodKind.BEFORE, 2012)),
    ("UNKNOWN", UNKNOWN_PERIOD),
    ("", UNKNOWN_PERIOD),
    ("total operating expenses", UNKNOWN_PERIOD),
    ("987", UNKNOWN_PERIOD),
    ("2500", UNKNOWN_PERIOD),
])
def test_normalize_period_rule_table(raw, expected):
    assert normalize_period(raw, [2014, 2015]) == expected


def test_thereafter_uses_latest_context_year():
    assert normalize_period("thereafter", [2013, 2015]) == Period(PeriodKind.AFTER, 2015)
    assert normalize_period("thereafter", []) == UNKNOWN_PERIOD
    assert normalize_period("thereafter") == UNKNOWN_PERIOD


ALL_CANONICAL_PERIODS = [
    Period(PeriodKind.ANNUAL, 2015),
    Period(PeriodKind.QUARTER, 2007, 4),
    Period(PeriodKind.QUARTER, 2022, 1),
    Period(PeriodKind.AS_OF, 2010),
    Period(PeriodKind.AFTER, 2015),
    Period(PeriodKind.BEFORE, 1999),
    UNKNOWN_PERIOD,
]


@pytest.mark.parametrize("period", ALL_CANONICAL_PERIODS)
def test_normalize_period_idempotent_on_canonical(period):
    assert normalize_period(period.canonical()) == period
    assert period_from_string(period.canonical()) == period


periods = st.one_of(
    st.just(UNKNOWN_PERIOD),
    st.builds(Period, st.just(PeriodKind.ANNUAL), st.integers(1900, 2100)),
    st.builds(Period, st.just(PeriodKind.AS_OF), st.integers(1900, 2100)),
    st.builds(Period, st.just(PeriodKind.AFTER), st.integers(1900, 2100)),
    st.builds(Period, st.just(PeriodKind.BEFORE), st.integers(1900, 2100)),
    st.builds(Period, st.just(PeriodKind.QUARTER), st.integers(1900, 2100),
              st.integers(1, 4)),
)


@given(periods)
def test_normalize_period_idempotence_property(period):
    assert normalize_period(period.canonical()) == period


def test_period_invariants_enforced():
    with pytest.raises(ValueError):
        Period(PeriodKind.ANNUAL, None)
    with pytest.raises(ValueError):
        Period(PeriodKind.QUARTER, 2020)
    with pytest.raises(ValueError):
        Period(PeriodKind.ANNUAL, 1066)
    with pytest.raises(ValueError):
        Period(PeriodKind.QUARTER, 2020, 5)
    # A field the canonical string would drop: it would not survive the store.
    for kind, year, quarter in [(PeriodKind.ANNUAL, 2019, 2), (PeriodKind.AS_OF, 2019, 4),
                                (PeriodKind.UNKNOWN, 2019, None)]:
        with pytest.raises(ValueError):
            Period(kind, year, quarter)


@given(st.sampled_from(PeriodKind),
       st.one_of(st.none(), st.integers(1895, 2105), st.integers()),
       st.one_of(st.none(), st.integers(-1, 6)))
def test_every_period_round_trips_or_is_refused(kind, year, quarter):
    try:
        period = Period(kind, year, quarter)
    except ValueError:
        return
    assert period_from_string(period.canonical()) == period
    assert field_violations(entergy_triplet()._replace(relation=period.relation())) == []


# The free-text shapes the hand-written grammar read, with the years at and
# just past either end of the range, and the canonical strings in both cases.
_CANONICAL_STRINGS = ["2019", "2019-Q3", "AS_OF_2019", "AFTER_2100", "BEFORE_1900",
                      "AFTER_2101", "BEFORE_1899", "UNKNOWN"]
PERIOD_FRAGMENTS = [
    "fiscal", "fy", "fiscal year", "q1", "Q4", "q5", "as of", "thereafter", "after",
    "prior to", "before", "1899", "2019", "2100", "2101", "12345", "\u0662\u0660\u0661\u0669",
    *_CANONICAL_STRINGS, *map(str.lower, _CANONICAL_STRINGS), "-", " ", "  ", "\t", "\n",
]


def _parsed(parse, text):
    try:
        return parse(text)
    except ValueError:
        return ValueError


@given(st.lists(st.sampled_from(PERIOD_FRAGMENTS), max_size=6).map("".join),
       st.one_of(st.none(), st.lists(st.integers(1895, 2105), max_size=3)))
@example("as of 12345 2019", None)
@example("Q4 2101", None)
@example("fy2019 thereafter", [2014])
@example("\u0662\u0660\u0661\u0669-Q1", None)
@example(" as of\tthereafter 2019", [1899, 2015])
@example("as of thereafter", [2015])
def test_period_grammar_matches_the_reference(text, context_years):
    got = normalize_period(text, context_years)
    want = reference.normalize_period(text, context_years)
    assert got == want
    assert got.canonical() == want.canonical()
    assert got.relation() == reference.relation_for_period(want)
    assert _parsed(period_from_string, text) == _parsed(reference.period_from_string, text)


_RELATION_PREFIXES = ["", "HAS_VALUE", "HAS_VALUE_", "HAS_VALUE_IN", "HAS_VALUE_IN_",
                      "HAS_VALUE_AS_OF_", "HAS_VALUE_AS_", "HAS_VALUE_AFTER_",
                      "HAS_VALUE_BEFORE_", "has_value_in_"]


@given(st.one_of(st.text(max_size=20),
                 st.builds(str.__add__, st.sampled_from(_RELATION_PREFIXES),
                           st.text(max_size=6))))
@example("HAS_VALUE_IN_\n")
@example("HAS_VALUE_IN_2019\n")
@example("HAS_VALUE_AS_OF_")
def test_relation_pattern_matches_the_reference(relation):
    assert ((RELATION_RE.fullmatch(relation) is None)
            == (reference.RELATION_RE.fullmatch(relation) is None))


# ---------------------------------------------------------------------------
# Numeric parsing


@pytest.mark.parametrize("raw,magnitude,unit", [
    ("5829 million USD", Decimal("5829"), "million USD"),
    ("$100,690,000", Decimal("100690000"), "USD"),
    ("(12.5)%", Decimal("-12.5"), "percent"),
    ("$1.2M", Decimal("1.2"), "million USD"),
    ("3.4 billion", Decimal("3.4"), "billion"),
    ("12 thousand EUR", Decimal("12"), "thousand EUR"),
    ("£250", Decimal("250"), "GBP"),
    ("-7.5 percent", Decimal("-7.5"), "percent"),
    ("42", Decimal("42"), ""),
    ("158 shares", Decimal("158"), "shares"),
    (".5", Decimal("0.5"), ""),
])
def test_parse_numeric_cases(raw, magnitude, unit):
    value = parse_numeric(raw)
    assert value.magnitude == magnitude
    assert value.unit == unit


def test_parse_numeric_rejects_non_numbers():
    for raw in ("", "no digits here", "n/a", "$"):
        with pytest.raises(NotNumeric):
            parse_numeric(raw)


def test_unit_carries_no_sign_or_grouping():
    value = parse_numeric("($1,234.5) million")
    assert value.magnitude == Decimal("-1234.5")
    assert "-" not in value.unit and "," not in value.unit


UNIT_VOCAB = ["", "USD", "percent", "million USD", "billion USD",
              "thousand GBP", "million EUR", "shares"]

normalized_values = st.builds(
    NormalizedValue,
    st.decimals(allow_nan=False, allow_infinity=False, places=4,
                min_value=Decimal("-1e12"), max_value=Decimal("1e12")),
    st.sampled_from(UNIT_VOCAB),
)


@given(normalized_values)
def test_parse_numeric_render_round_trip(value):
    assert parse_numeric(value.render()) == value


# ---------------------------------------------------------------------------
# Metric canonicalization


@pytest.mark.parametrize("raw,expected", [
    ("net revenue", "NET_REVENUE"),
    ("NET_REVENUE", "NET_REVENUE"),
    ("operating  expenses (total)", "OPERATING_EXPENSES_TOTAL"),
    ("earnings-per-share", "EARNINGS_PER_SHARE"),
    ("  total rental expense  ", "TOTAL_RENTAL_EXPENSE"),
])
def test_canonical_metric(raw, expected):
    assert canonical_metric(raw) == expected


def test_canonical_metric_empty():
    # Each called twice: the memo must not keep a failure as if it were a result.
    for raw in ("  --  ", "  --  ", "", ""):
        with pytest.raises(EmptyAfterNormalization):
            canonical_metric(raw)


# ---------------------------------------------------------------------------
# Triplet validation and serialization


def entergy_triplet():
    return make_triplet("NET_REVENUE", Decimal("5829"), "million USD",
                        company="Entergy", period=Period(PeriodKind.ANNUAL, 2015),
                        source_doc="doc-1")


def test_reference_triplet_is_valid():
    t = entergy_triplet()
    assert t.subject == "NET_REVENUE:Entergy"
    assert t.relation == "HAS_VALUE_IN_2015"
    assert t.object == "5829 million USD"
    assert validate_triplet(t) == []


def test_validate_flags_non_canonical_metric():
    t = entergy_triplet()
    bad = make_triplet("NET_REVENUE", t.value, t.unit, company=t.company,
                       period=t.period, source_doc=t.source_doc)
    bad = bad._replace(metric_type="net revenue")
    assert "MetricNotCanonical" in validate_triplet(bad)


def test_validate_flags_object_value_mismatch():
    t = entergy_triplet()
    bad = t._replace(object="approximately 5829 million USD")
    assert "ObjectValueMismatch" in validate_triplet(bad)


def test_validate_flags_bad_relation_and_id():
    t = entergy_triplet()
    bad = t._replace(relation="VALUED_AT_2015")
    assert "RelationMalformed" in validate_triplet(bad)
    bad = t._replace(triplet_id="0" * 32)
    assert "TripletIdMismatch" in validate_triplet(bad)


def test_field_checks_skip_only_the_id():
    t = entergy_triplet()
    bad = t._replace(triplet_id="0" * 32)
    assert field_violations(bad) == []
    assert validate_triplet(bad) == ["TripletIdMismatch"]


@given(st.text(max_size=12), st.text(max_size=30))
@example("NET_REVENUE", "HAS_VALUE")
@example("net revenue", "HAS_VALUE_IN_2015")
def test_memoised_field_checks_match_the_patterns(metric, relation):
    t = entergy_triplet()._replace(metric_type=metric, relation=relation)
    expected = []
    if METRIC_RE.fullmatch(metric) is None:
        expected.append("MetricNotCanonical")
    if relation != "HAS_VALUE" and RELATION_RE.fullmatch(relation) is None:
        expected.append("RelationMalformed")
    assert field_violations(t) == expected
    id_violation = [] if relation == "HAS_VALUE_IN_2015" else ["TripletIdMismatch"]
    assert validate_triplet(t) == expected + id_violation


def test_has_value_relation_for_unknown_period():
    t = make_triplet("REVENUE", Decimal("10"), period=UNKNOWN_PERIOD)
    assert t.relation == "HAS_VALUE"
    assert validate_triplet(t) == []


def test_triplet_id_is_stable_content_hash():
    a = triplet_id_for("d", "S", "R", "O")
    assert a == triplet_id_for("d", "S", "R", "O")
    assert a != triplet_id_for("d", "S", "R", "O2")
    assert len(a) == 32
    int(a, 16)  # hex


def test_serialize_empty_is_empty_string():
    assert serialize_triplets([]) == ""
    assert parse_triplets_file("") == []


def test_entergy_round_trip():
    t = entergy_triplet()
    line = serialize_triplets([t])
    assert line.count("\n") == 1
    assert parse_triplets_file(line) == [t]


def _store(n: int) -> str:
    """A store of n valid lines."""
    return serialize_triplets([
        make_triplet("NET_REVENUE", Decimal(i), "million USD", company="Entergy",
                     period=Period(PeriodKind.ANNUAL, 2000 + i % 20), source_doc="doc-1")
        for i in range(n)])


def test_parse_error_carries_line_number():
    good = serialize_triplets([entergy_triplet()])
    with pytest.raises(TripletParseError) as err:
        parse_triplets_file(good + "{broken\n")
    assert err.value.line_no == 2


_GOOD = serialize_triplets([entergy_triplet()])
_TWO_ON_ONE_LINE = _GOOD.rstrip("\n") + ", " + _GOOD


@pytest.mark.parametrize("text,line_no", [
    (_store(63) + "{broken\n" + _store(3), 64),
    (_store(64) + "{broken\n" + _store(3), 65),
    (_store(150) + "{broken\n" + _store(3), 151),
    (_store(100) + "\n  \n\n" + "{broken\n" + _store(3), 104),
    (_GOOD + _TWO_ON_ONE_LINE, 2),
    (_store(70) + _TWO_ON_ONE_LINE + _store(3), 71),
    (_store(70) + '{"subject": "S"}\n' + _store(3), 71),
    (_store(70) + _GOOD.replace('"value": "5829"', '"value": "x"'), 71),
    (_store(70) + "[1, 2]\n" + _store(3), 71),
    ("null\n", 1),
], ids=["last-of-first-block", "first-of-second-block", "third-block",
        "blank-lines-count", "two-objects", "two-objects-later-block", "missing-key",
        "bad-value", "array", "null"])
def test_parse_error_names_the_line_in_any_block(text, line_no):
    with pytest.raises(TripletParseError) as err:
        parse_triplets_file(text)
    assert err.value.line_no == line_no


def test_bench_shaped_store_round_trips():
    # 40 documents of 8 year rows by 12 columns plus a `thereafter` row: the
    # kg-warm-wide store's shape, with negative, fractional and percent values.
    columns = [(f"METRIC_{c}", "percent" if c >= 9 else "million USD") for c in range(12)]
    ts = []
    for d in range(40):
        company = None if d % 3 else f"Company {d}"
        periods = [Period(PeriodKind.ANNUAL, 2010 + y) for y in range(8)] + [UNKNOWN_PERIOD]
        for y, period in enumerate(periods):
            for c, (metric, unit) in enumerate(columns):
                value = Decimal(d * 1000 + y * 37 - c * 113) / (10 if unit == "percent" else 1)
                ts.append(make_triplet(metric, value, unit, company=company, period=period,
                                       source_doc=f"doc-{d:03d}"))
    text = serialize_triplets(ts)
    back = parse_triplets_file(text)
    assert back == ts
    assert back == [triplet_from_dict(json.loads(line)) for line in text.splitlines()]
    assert serialize_triplets(back) == text


metrics = st.from_regex(r"[A-Z][A-Z0-9_]{0,12}", fullmatch=True)
companies = st.one_of(st.none(), st.from_regex(r"[A-Za-z][A-Za-z0-9 ]{0,10}",
                                               fullmatch=True).map(str.strip))
values = st.decimals(allow_nan=False, allow_infinity=False, places=4,
                     min_value=Decimal("-1e12"), max_value=Decimal("1e12"))
triplets = st.builds(
    make_triplet,
    metric_type=metrics,
    value=values,
    unit=st.sampled_from(UNIT_VOCAB),
    company=companies,
    period=periods,
    source_doc=st.from_regex(r"[a-z0-9-]{1,16}", fullmatch=True),
)


@given(st.lists(triplets, max_size=20))
def test_serialize_parse_identity(ts):
    text = serialize_triplets(ts)
    back = parse_triplets_file(text)
    assert back == ts
    assert serialize_triplets(back) == text
    for t in back:
        assert validate_triplet(t) == []


@given(triplets)
def test_generated_triplets_are_valid(t):
    assert validate_triplet(t) == []
    assert t.period.relation() == t.relation
    assert t.object.startswith(render_decimal(t.value))


def triplet_to_dict(t: Triplet) -> dict:
    """Reference for one store line: json.dumps of this dict is what
    serialize_triplets must write."""
    return {
        "subject": t.subject,
        "relation": t.relation,
        "object": t.object,
        "metric_type": t.metric_type,
        "company": t.company,
        "period": t.period.canonical(),
        "value": render_decimal(t.value),
        "unit": t.unit,
        "source_doc": t.source_doc,
        "triplet_id": t.triplet_id,
    }


# Any text, plus the characters JSON escapes specially: quotes, backslashes,
# control characters, U+2028 and a lone surrogate.
any_text = st.text(alphabet=st.one_of(
    st.characters(blacklist_categories=("Cs",)),
    st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "\u2028",
                     "\ud800", "é", "€", "😀"]),
), max_size=12)
loose_triplets = st.builds(
    Triplet,
    subject=any_text,
    relation=any_text,
    object=any_text,
    metric_type=any_text,
    company=st.one_of(st.none(), any_text),
    period=periods,
    value=values,
    unit=st.one_of(st.just(""), any_text),
    source_doc=any_text,
    triplet_id=any_text,
)


@given(st.lists(loose_triplets, max_size=5))
@example([Triplet('q"\\ \x00\x1f\u2028\ud800 é€😀', "R", "1 x", "M", None,
                  UNKNOWN_PERIOD, Decimal("1"), "", "d\n", "id")])
def test_serialize_matches_json_dumps(ts):
    expected = "".join(json.dumps(triplet_to_dict(t)) + "\n" for t in ts)
    assert serialize_triplets(ts) == expected
