"""Spans around the pipeline's public functions, and the per-layer metrics built from them.

Tracing lives entirely in the benchmark: `traced()` swaps each public function
or method for a wrapper at the name its caller resolves (``pipeline`` imports
``load_split``, ``assemble_text``, ``parse_triplets_file`` and
``serialize_triplets`` by name, so those are patched on ``pipeline``), and
puts the originals back on exit. The wrappers are thread-safe: each thread
keeps its own span stack, and a span opened on a worker thread with an empty
stack takes the running pipeline stage as its parent.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

import numpy as np

STAGES = ("ingest", "extract", "train_retriever", "answer_vanilla", "answer_kg",
          "evaluate", "report")

# name, unit, better: the per-layer metrics every traced run reports.
LAYER_METRICS: list[tuple[str, str, str]] = [
    ("embedding.embed.calls", "count", "lower"),
    ("embedding.embed.s", "s", "lower"),
    ("embedding.embed.distinct_ratio", "ratio", "higher"),
    ("retriever.build_features.calls", "count", "lower"),
    ("retriever.build_features.s", "s", "lower"),
    ("retriever.train.s", "s", "lower"),
    ("retriever.train.pairs_per_s", "1/s", "higher"),
    ("retriever.filter_topk.ms_p50", "ms", "lower"),
    ("retriever.filter_topk.ms_tail", "ms", "lower"),
    ("retriever.filter_topk.tail_pct", "%", "higher"),
    ("retriever.filter_topk.samples", "count", "higher"),
    ("retriever.filter_topk.candidates_per_q", "count", "lower"),
    ("kg_schema.parse_triplets_file.s", "s", "lower"),
    ("kg_schema.serialize_triplets.s", "s", "lower"),
    ("kg_schema.triplets", "count", "higher"),
    ("llm_client.cache_put.calls", "count", "lower"),
    ("llm_client.cache_put.s", "s", "lower"),
    ("llm_client.cache_put.bytes", "B", "lower"),
    ("llm_client.cache_get.hits", "count", "higher"),
    ("llm_client.cache_get.misses", "count", "lower"),
    ("llm_client.cache_get.hit_ratio", "ratio", "higher"),
    ("llm_client.cache_get.s", "s", "lower"),
    ("llm_client.complete.calls", "count", "lower"),
    ("llm_client.complete.s", "s", "lower"),
    ("llm_client.transport.calls", "count", "lower"),
    ("llm_client.transport.s", "s", "lower"),
    ("llm_client.transport.retries", "count", "lower"),
    ("llm_client.transport.failures", "count", "lower"),
    ("extraction.extract.ms_p50", "ms", "lower"),
    ("extraction.extract.ms_tail", "ms", "lower"),
    ("extraction.extract.tail_pct", "%", "higher"),
    ("extraction.extract.samples", "count", "higher"),
    ("extraction.extract.chunks_per_doc", "count", "lower"),
    ("extraction.extract.triplets", "count", "higher"),
    ("extraction.extract.rejected", "count", "lower"),
    ("extraction.extract.unknown_period", "count", "lower"),
    ("preprocess.load_split.s", "s", "lower"),
    ("preprocess.assemble_text.s", "s", "lower"),
    ("preprocess.assemble_text.calls", "count", "lower"),
    ("reasoner.answer_question.s", "s", "lower"),
    ("reasoner.answer_from_text.s", "s", "lower"),
    ("reasoner.prompt_chars.kg", "chars", "lower"),
    ("reasoner.prompt_chars.vanilla", "chars", "lower"),
    ("reasoner.fallback_used", "count", "lower"),
    ("evaluator.evaluate_split.s", "s", "lower"),
    ("evaluator.evaluate_split.records", "count", "higher"),
    *[(f"pipeline.{stage}.{kind}", "s", "lower") for stage in STAGES for kind in ("s", "self_s")],
    ("trace.chain_s", "s", "lower"),
    ("trace.untraced_chain_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
]


class Tracer:
    """Collects spans (name, start, end, id, parent, thread, attrs) in memory."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.iteration = 0
        self.stage: int | None = None  # span id of the pipeline stage now running
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str | Callable, fn: Callable,
             describe: Callable | None = None, stage: bool = False) -> Callable:
        """`fn` recording one span per call; `describe(result, args)` adds attributes.

        `name` may be a function of the call's arguments. A `stage` span becomes
        the parent of spans that worker threads open while it runs.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                sid = next(tracer._ids)
            parent = stack[-1] if stack else tracer.stage
            stack.append(sid)
            if stage:
                outer_stage, tracer.stage = tracer.stage, sid
            t0 = time.perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if stage:
                    tracer.stage = outer_stage
                span_name = name(args) if callable(name) else name
                if not ok:
                    tracer._record(span_name, t0, t1, sid, parent, {"error": True})
            tracer._record(span_name, t0, t1, sid, parent,
                           describe(result, args) if describe else None)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _record(self, name, t0, t1, sid, parent, attrs) -> None:
        with self._lock:
            self.spans.append((self.iteration, name, t0, t1, sid, parent,
                               threading.get_ident(), attrs))

    def write(self, path: Path) -> None:
        keys = ("iteration", "name", "start", "end", "id", "parent", "thread", "attrs")
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(keys, span))) + "\n")


def _patch_points(tracer: Tracer) -> list[tuple[object, str, Callable]]:
    from finkgqa import embedding, evaluator, extraction, kg_schema, llm_client
    from finkgqa import pipeline, reasoner, retriever

    def cache_put_bytes(_result, args):
        cache, key = args[0], args[1]
        path = cache.dir / f"{key}.json" if cache.dir else None
        return {"bytes": path.stat().st_size if path and path.exists() else 0}

    def extract_counts(result, _args):
        unknown = sum(1 for t in result.triplets
                      if t.period.kind is kg_schema.PeriodKind.UNKNOWN)
        return {"triplets": len(result.triplets), "rejected": len(result.rejected),
                "unknown": unknown}

    points = [
        (pipeline, "cmd_ingest", "pipeline.ingest", None),
        (pipeline, "cmd_extract", "pipeline.extract", None),
        (pipeline, "cmd_train_retriever", "pipeline.train_retriever", None),
        (pipeline, "cmd_answer", lambda args: f"pipeline.answer_{args[2]}", None),
        (pipeline, "cmd_evaluate", "pipeline.evaluate", None),
        (pipeline, "cmd_report", "pipeline.report", None),
        (pipeline, "load_split", "preprocess.load_split", None),
        (pipeline, "assemble_text", "preprocess.assemble_text", None),
        (pipeline, "parse_triplets_file", "kg_schema.parse_triplets_file",
         lambda r, a: {"n": len(r)}),
        (pipeline, "serialize_triplets", "kg_schema.serialize_triplets",
         lambda r, a: {"n": len(a[0])}),
        (retriever, "build_features", "retriever.build_features", None),
        (retriever, "train", "retriever.train", lambda r, a: {"pairs": len(a[1])}),
        (retriever, "filter_topk", "retriever.filter_topk",
         lambda r, a: {"candidates": len(a[1])}),
        (reasoner, "answer_question", "reasoner.answer_question",
         lambda r, a: {"fallback": r.fallback_used}),
        (reasoner, "answer_from_text", "reasoner.answer_from_text",
         lambda r, a: {"fallback": r.fallback_used}),
        (evaluator, "evaluate_split", "evaluator.evaluate_split",
         lambda r, a: {"records": len(a[0])}),
        (extraction.DocumentExtractor, "extract", "extraction.extract", extract_counts),
        (embedding.LocalHashEmbedder, "embed", "embedding.embed",
         lambda r, a: {"text": hash(a[1])}),
        (llm_client.ChatClient, "complete", "llm_client.complete",
         lambda r, a: {"chars": len(a[1])}),
        (llm_client.ResponseCache, "get", "llm_client.cache_get",
         lambda r, a: {"hit": r is not None}),
        (llm_client.ResponseCache, "put", "llm_client.cache_put", cache_put_bytes),
        (llm_client.MockChatTransport, "__call__", "llm_client.transport",
         lambda r, a: {"status": r[0]}),
    ]
    return [(owner, attr, tracer.wrap(name, getattr(owner, attr), describe,
                                      stage=attr.startswith("cmd_")))
            for owner, attr, name, describe in points]


@contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    patches = _patch_points(tracer)
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail(samples_ms: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least ten samples beyond it.

    Falls back to the median when there are fewer than twenty samples.
    """
    if not samples_ms:
        return 50.0, 0.0
    n = len(samples_ms)
    pct = next((p for p in TAIL_PERCENTILES if n * (100.0 - p) / 100.0 >= 10), 50.0)
    return pct, float(np.percentile(samples_ms, pct))


def _self_time(span, children) -> float:
    """Span duration minus the union of its children's intervals within it."""
    t0, t1 = span[2], span[3]
    covered, cursor = 0.0, t0
    for c0, c1 in sorted((max(c[2], t0), min(c[3], t1)) for c in children):
        if c1 <= cursor:
            continue
        covered += c1 - max(c0, cursor)
        cursor = c1
    return (t1 - t0) - covered


def layer_metrics(spans: list[tuple], n_iterations: int) -> dict[str, float]:
    """Per-iteration totals and ratios from the spans of `n_iterations` traced iterations.

    Times named `.s` are summed span durations (busy time, added up over
    worker threads); latency distributions pool the samples of every iteration.
    """
    by_name: dict[str, list[tuple]] = {}
    children: dict[int, list[tuple]] = {}
    by_id: dict[int, tuple] = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)
        children.setdefault(span[5], []).append(span)
        by_id[span[4]] = span

    def group(name):
        return by_name.get(name, [])

    def per_iter(value) -> float:
        return value / n_iterations if n_iterations else 0.0

    def busy(name) -> float:
        return per_iter(sum(s[3] - s[2] for s in group(name)))

    def attrs(span) -> dict:
        return span[7] or {}

    def attr_sum(name, key) -> float:
        return per_iter(sum(attrs(s).get(key, 0) for s in group(name)))

    def ratio(a, b) -> float:
        return a / b if b else 0.0

    def latency(prefix, name):
        ms = [1e3 * (s[3] - s[2]) for s in group(name)]
        pct, value = tail(ms)
        return {f"{prefix}.ms_p50": float(np.median(ms)) if ms else 0.0,
                f"{prefix}.ms_tail": value, f"{prefix}.tail_pct": pct,
                f"{prefix}.samples": float(len(ms))}

    def parent_name(span) -> str | None:
        parent = by_id.get(span[5])
        return parent[1] if parent else None

    m: dict[str, float] = {}

    embeds = group("embedding.embed")
    distinct_per_iter = {}
    for s in embeds:
        distinct_per_iter.setdefault(s[0], set()).add(attrs(s).get("text"))
    m["embedding.embed.calls"] = per_iter(len(embeds))
    m["embedding.embed.s"] = busy("embedding.embed")
    m["embedding.embed.distinct_ratio"] = ratio(
        sum(len(v) for v in distinct_per_iter.values()), len(embeds))

    m["retriever.build_features.calls"] = per_iter(len(group("retriever.build_features")))
    m["retriever.build_features.s"] = busy("retriever.build_features")
    m["retriever.train.s"] = busy("retriever.train")
    m["retriever.train.pairs_per_s"] = ratio(attr_sum("retriever.train", "pairs"),
                                             m["retriever.train.s"])
    m.update(latency("retriever.filter_topk", "retriever.filter_topk"))
    topk = group("retriever.filter_topk")
    m["retriever.filter_topk.candidates_per_q"] = ratio(
        sum(attrs(s).get("candidates", 0) for s in topk), len(topk))

    m["kg_schema.parse_triplets_file.s"] = busy("kg_schema.parse_triplets_file")
    m["kg_schema.serialize_triplets.s"] = busy("kg_schema.serialize_triplets")
    m["kg_schema.triplets"] = attr_sum("kg_schema.serialize_triplets", "n")

    m["llm_client.cache_put.calls"] = per_iter(len(group("llm_client.cache_put")))
    m["llm_client.cache_put.s"] = busy("llm_client.cache_put")
    m["llm_client.cache_put.bytes"] = attr_sum("llm_client.cache_put", "bytes")
    gets = group("llm_client.cache_get")
    hits = sum(1 for s in gets if attrs(s).get("hit"))
    m["llm_client.cache_get.hits"] = per_iter(hits)
    m["llm_client.cache_get.misses"] = per_iter(len(gets) - hits)
    m["llm_client.cache_get.hit_ratio"] = ratio(hits, len(gets))
    m["llm_client.cache_get.s"] = busy("llm_client.cache_get")
    m["llm_client.complete.calls"] = per_iter(len(group("llm_client.complete")))
    m["llm_client.complete.s"] = busy("llm_client.complete")
    transport = group("llm_client.transport")
    attempts: dict[int, int] = {}
    for s in transport:
        attempts[s[5]] = attempts.get(s[5], 0) + 1
    m["llm_client.transport.calls"] = per_iter(len(transport))
    m["llm_client.transport.s"] = busy("llm_client.transport")
    m["llm_client.transport.retries"] = per_iter(sum(n - 1 for n in attempts.values()))
    m["llm_client.transport.failures"] = per_iter(sum(
        1 for s in transport if attrs(s).get("error") or attrs(s).get("status", 200) >= 500))

    m.update(latency("extraction.extract", "extraction.extract"))
    extracts = group("extraction.extract")
    extract_ids = {s[4] for s in extracts}
    chunks = sum(1 for s in group("llm_client.complete") if s[5] in extract_ids)
    m["extraction.extract.chunks_per_doc"] = ratio(chunks, len(extracts))
    for key, metric in (("triplets", "triplets"), ("rejected", "rejected"),
                        ("unknown", "unknown_period")):
        m[f"extraction.extract.{metric}"] = attr_sum("extraction.extract", key)

    m["preprocess.load_split.s"] = busy("preprocess.load_split")
    m["preprocess.assemble_text.s"] = busy("preprocess.assemble_text")
    m["preprocess.assemble_text.calls"] = per_iter(len(group("preprocess.assemble_text")))

    m["reasoner.answer_question.s"] = busy("reasoner.answer_question")
    m["reasoner.answer_from_text.s"] = busy("reasoner.answer_from_text")
    for mode, caller in (("kg", "reasoner.answer_question"),
                         ("vanilla", "reasoner.answer_from_text")):
        sent = [attrs(s).get("chars", 0) for s in group("llm_client.complete") if parent_name(s) == caller]
        m[f"reasoner.prompt_chars.{mode}"] = ratio(sum(sent), len(sent))
    m["reasoner.fallback_used"] = (attr_sum("reasoner.answer_question", "fallback")
                                   + attr_sum("reasoner.answer_from_text", "fallback"))

    m["evaluator.evaluate_split.s"] = busy("evaluator.evaluate_split")
    m["evaluator.evaluate_split.records"] = attr_sum("evaluator.evaluate_split", "records")

    for stage in STAGES:
        name = f"pipeline.{stage}"
        m[f"{name}.s"] = busy(name)
        m[f"{name}.self_s"] = per_iter(sum(_self_time(s, children.get(s[4], []))
                                           for s in group(name)))
    m["trace.spans"] = per_iter(len(spans))
    return m
