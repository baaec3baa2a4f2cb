"""Turn document text into schema-validated triplets.

The main route prompts an LLM with extraction rules plus few-shot examples and
parses its JSON back through the schema normalizers. A deterministic
table-walking extractor covers offline runs and doubles as a sanity baseline.
"""

from __future__ import annotations

import functools
import json
import logging
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from importlib import resources
from pathlib import Path

from .kg_schema import (
    EmptyAfterNormalization,
    NotNumeric,
    Triplet,
    canonical_metric,
    field_violations,
    make_triplet,
    normalize_period,
    parse_numeric,
)
from .llm_client import ChatClient, LlmTruncated, LlmUnavailable
from .preprocess import FinDocument, linearize_table

logger = logging.getLogger(__name__)

DEFAULT_CHUNK_CHARS = 6000
DEFAULT_CHUNK_OVERLAP = 2
# A model's literal value beyond 10**±30 is no reported figure; rendering one
# with a huge exponent in plain notation would also exhaust memory.
_MAX_VALUE_EXPONENT = 30


class NoJsonFound(ValueError):
    """The model response contains no JSON array at all."""


class PromptAssetError(RuntimeError):
    """The extraction prompt asset is missing or empty; fail at startup."""


@dataclass(frozen=True)
class ExtractionResult:
    doc_id: str
    triplets: tuple[Triplet, ...]
    rejected: tuple[tuple[str, tuple[str, ...]], ...] = ()


@functools.cache
def load_prompt_asset(path: str | Path | None = None) -> str:
    """Load the extraction rules + few-shot asset, raising on empty content."""
    if path is not None:
        raw = Path(path).read_text(encoding="utf-8")
    else:
        raw = resources.files("finkgqa").joinpath("assets/extraction_prompt.txt") \
            .read_text(encoding="utf-8")
    body = raw.split("# ---\n", 1)[-1].strip()
    if not body:
        raise PromptAssetError(f"extraction prompt asset {path or '<packaged>'} is empty")
    return body


def build_extraction_prompt(doc_text: str, asset_path: str | Path | None = None) -> str:
    """Extraction rules, attribute requirements, and examples, document last."""
    return f"{load_prompt_asset(asset_path)}\n\nDOCUMENT:\n{doc_text}\n"


def _first_json_array(raw: str):
    decoder = json.JSONDecoder()
    idx = raw.find("[")
    while idx != -1:
        try:
            value, _ = decoder.raw_decode(raw, idx)
        except json.JSONDecodeError:
            value = None
        if isinstance(value, list):
            return value
        idx = raw.find("[", idx + 1)
    raise NoJsonFound("no JSON array in response")


def _triplet_from_element(elem: dict, doc_id: str) -> Triplet:
    """The triplet `make_triplet` builds from one reply element; each field is
    read once."""
    get = elem.get
    subject = str(get("subject") or "").strip()
    metric_raw = (get("financial_metric_entity_type")
                  or get("metric_type")
                  or subject.split(":", 1)[0])
    metric = canonical_metric(str(metric_raw))

    company = str(get("company") or "").strip()
    if not company and ":" in subject:
        company = subject.split(":", 1)[1].strip()

    period = normalize_period(str(get("period") or ""))

    value_raw = get("value")
    obj_raw = get("object")
    unit = str(get("unit") or "").strip()
    if value_raw is None or str(value_raw).strip() == "":
        parsed = parse_numeric(str(obj_raw or ""))
        value, unit = parsed.magnitude, unit or parsed.unit
    else:
        try:
            value = Decimal(str(value_raw))
        except InvalidOperation:
            parsed = parse_numeric(str(value_raw))
            value, unit = parsed.magnitude, unit or parsed.unit
        else:
            if not value.is_finite() or abs(value.adjusted()) > _MAX_VALUE_EXPONENT:
                raise NotNumeric(f"value {value_raw!r} is not a finite figure in range")
    if unit == "%":
        unit = "percent"

    return make_triplet(
        metric_type=metric,
        value=value,
        unit=unit,
        company=company or None,
        period=period,
        source_doc=doc_id,
        subject=subject or None,
        relation=str(get("relation") or "").strip() or None,
        obj=str(obj_raw).strip() if obj_raw else None,
    )


def parse_extraction_response(raw: str, doc_id: str) -> ExtractionResult:
    """Pull the first JSON array out of a model response and validate every element.

    Invalid elements end up in `rejected` with the violated invariants; valid
    triplets are kept in reply order, repeats included: `DocumentExtractor.extract`
    de-duplicates a document's triplets across all of its chunks.
    """
    elements = _first_json_array(raw)
    triplets: list[Triplet] = []
    rejected: list[tuple[str, tuple[str, ...]]] = []
    for elem in elements:
        if not isinstance(elem, dict):
            violations = ("NotAnObject",)
        else:
            try:
                triplet = _triplet_from_element(elem, doc_id)
            except (NotNumeric, InvalidOperation):
                violations = ("ValueNotNumeric",)
            except EmptyAfterNormalization:
                violations = ("MetricEmpty",)
            except (ValueError, KeyError, TypeError) as exc:
                violations = (f"Unmappable:{type(exc).__name__}",)
            else:
                # made by make_triplet, so its id matches its fields
                violations = tuple(field_violations(triplet))
        if violations:
            # Only a rejected element is serialised, for the audit file.
            rejected.append((json.dumps(elem), violations))
            continue
        triplets.append(triplet)
    return ExtractionResult(doc_id=doc_id, triplets=tuple(triplets),
                            rejected=tuple(rejected))


def extract_table_triplets(doc: FinDocument) -> list[Triplet]:
    """Deterministic fallback: one triplet per numeric table cell.

    Metric comes from the column header, period from the row key; cells whose
    derived triplet cannot satisfy the schema are skipped.
    """
    triplets = []
    seen: set[str] = set()
    for row in doc.table.rows:
        row_key = row[0].strip() if row else ""
        period = normalize_period(row_key)
        for col in range(1, len(doc.table.header)):
            cell = row[col].strip()
            if not cell:
                continue
            try:
                metric = canonical_metric(doc.table.header[col])
                parsed = parse_numeric(cell)
            except (NotNumeric, EmptyAfterNormalization):
                continue
            triplet = make_triplet(
                metric_type=metric,
                value=parsed.magnitude,
                unit=parsed.unit,
                period=period,
                source_doc=doc.id,
            )
            if field_violations(triplet) or triplet.triplet_id in seen:
                continue
            seen.add(triplet.triplet_id)
            triplets.append(triplet)
    return triplets


def chunk_sentences(sentences: list[str], char_budget: int,
                    overlap: int = DEFAULT_CHUNK_OVERLAP) -> list[list[str]]:
    """Greedy sentence chunks under a character budget, overlapping by a few
    sentences so facts straddling a boundary are still seen whole."""
    if not sentences:
        return []
    chunks: list[list[str]] = []
    start = 0
    while start < len(sentences):
        size = 0
        end = start
        while end < len(sentences) and (size + len(sentences[end]) + 1 <= char_budget
                                        or end == start):
            size += len(sentences[end]) + 1
            end += 1
        chunks.append(sentences[start:end])
        if end >= len(sentences):
            break
        start = max(end - overlap, start + 1)
    return chunks


class DocumentExtractor:
    """LLM-backed extraction over (possibly chunked) document text."""

    def __init__(self, client: ChatClient, asset_path: str | Path | None = None,
                 chunk_chars: int = DEFAULT_CHUNK_CHARS,
                 chunk_overlap: int = DEFAULT_CHUNK_OVERLAP):
        self.client = client
        self.asset_path = asset_path
        self.chunk_chars = chunk_chars
        self.chunk_overlap = chunk_overlap
        load_prompt_asset(asset_path)  # fail fast on a bad asset

    def extract(self, doc: FinDocument) -> ExtractionResult:
        sentences = list(doc.pre_text) + linearize_table(doc.table) + list(doc.post_text)
        chunks = chunk_sentences(sentences, self.chunk_chars, self.chunk_overlap)

        triplets: list[Triplet] = []
        rejected: list[tuple[str, tuple[str, ...]]] = []
        seen: set[str] = set()
        pending = list(chunks)
        while pending:
            chunk = pending.pop(0)
            prompt = build_extraction_prompt(" ".join(chunk), self.asset_path)
            try:
                reply = self.client.complete(prompt)
            except LlmTruncated:
                if len(chunk) > 1:
                    # Response hit the token limit; retry on smaller pieces.
                    mid = len(chunk) // 2
                    pending[:0] = [chunk[:mid], chunk[mid:]]
                    logger.warning("doc %s: truncated response, splitting chunk "
                                   "of %d sentences", doc.id, len(chunk))
                    continue
                rejected.append((" ".join(chunk)[:200], ("LlmTruncated",)))
                continue
            except LlmUnavailable as exc:
                # One failed request loses this chunk, not the document or the split.
                logger.warning("doc %s: chunk request failed: %s", doc.id, exc)
                rejected.append((" ".join(chunk)[:200], ("LlmUnavailable",)))
                continue
            try:
                parsed = parse_extraction_response(reply, doc.id)
            except NoJsonFound:
                logger.warning("doc %s: chunk response had no JSON array", doc.id)
                rejected.append((reply[:200], ("NoJsonFound",)))
                continue
            rejected.extend(parsed.rejected)
            for t in parsed.triplets:
                if t.triplet_id not in seen:
                    seen.add(t.triplet_id)
                    triplets.append(t)
        return ExtractionResult(doc_id=doc.id, triplets=tuple(triplets),
                                rejected=tuple(rejected))
