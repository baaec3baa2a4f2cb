"""End-to-end pipeline commands behind the CLI.

Each command reads its upstream artifacts from the output directory, does one
stage of work, and atomically writes flat JSONL keyed by document id so any
stage can be re-run in isolation. With mock providers the whole chain is
deterministic: identical inputs produce byte-identical artifacts.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import islice
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import evaluator, extraction, reasoner, retriever
from .embedding import EmptyText, LocalHashEmbedder, RemoteEmbedder
from .extraction import DocumentExtractor
from .kg_schema import PARSE_BLOCK, Triplet, parse_triplets_file, serialize_triplets
from .llm_client import (ChatClient, LlmTruncated, LlmUnavailable, MockChatTransport,
                         ProviderConfig, ResponseCache, open_atomic, provider_identity,
                         write_atomic)
from .preprocess import (FinDocument, assemble_text, document_record, iter_split,
                         load_split, parse_record)

logger = logging.getLogger(__name__)

SPLITS = ("train", "dev", "test")


class MissingArtifact(FileNotFoundError):
    """An upstream artifact is absent; the message names the producing command."""


@dataclass
class PipelineConfig:
    seed: int = 13
    data: dict = field(default_factory=dict)  # split -> path
    output_dir: str = "out"
    cache_dir: str = "cache"
    chat: ProviderConfig = field(default_factory=ProviderConfig)
    embeddings: ProviderConfig = field(default_factory=lambda: ProviderConfig(kind="local"))
    judge: ProviderConfig = field(default_factory=lambda: ProviderConfig(kind="none"))
    extraction_backend: str = "llm"  # llm | table
    max_inflight: int = 4
    prompt_asset: str = ""
    retriever_k: int = 10
    epochs: int = 20

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        path = Path(path)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file {path} is not JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ValueError(f"config file {path} holds no JSON object")
        cfg = cls()
        apply_overrides(cfg, _flatten(raw))
        base = path.parent
        # An empty path stays empty, so that split is skipped, not read as the directory.
        cfg.data = {k: str(_resolve(base, v)) if v else v for k, v in cfg.data.items()}
        cfg.output_dir = str(_resolve(base, cfg.output_dir))
        cfg.cache_dir = str(_resolve(base, cfg.cache_dir))
        if cfg.prompt_asset:
            cfg.prompt_asset = str(_resolve(base, cfg.prompt_asset))
        if cfg.chat.answer_key:
            cfg.chat.answer_key = str(_resolve(base, cfg.chat.answer_key))
        return cfg


def _resolve(base: Path, value: str) -> Path:
    p = Path(value)
    return p if p.is_absolute() else base / p


def _flatten(raw: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in raw.items():
        dotted = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, dotted + "."))
        else:
            flat[dotted] = value
    return flat


_BOOL_WORDS = {"true": True, "1": True, "yes": True, "on": True,
               "false": False, "0": False, "no": False, "off": False}


def _coerce(key: str, current, value):
    """`value` for the field that holds `current`: the same type check for a config
    file's values and for `--set`'s strings, which numeric fields read as JSON."""
    if isinstance(value, str) and isinstance(current, bool):
        value = _BOOL_WORDS.get(value.lower(), value)
    elif isinstance(value, str) and isinstance(current, (int, float)):
        try:
            value = json.loads(value)
        except ValueError:
            pass
    # bool is an int subclass, so types are compared exactly; a float field takes an int
    if type(value) is type(current) or (type(current) is float and type(value) is int):
        return type(current)(value)
    raise ValueError(f"config key {key} needs {type(current).__name__}, got {value!r}")


_SHARED = ("kind", "endpoint", "model", "api_key_env", "max_retries", "timeout")
# Every dotted config key but data.<split>, and the attribute it sets. A provider
# role takes only the fields its clients read: the judge always asks at temperature 0.
CONFIG_KEYS = {
    "seed": "seed", "output_dir": "output_dir", "cache_dir": "cache_dir",
    "extraction.backend": "extraction_backend", "extraction.max_inflight": "max_inflight",
    "extraction.prompt_asset": "prompt_asset", "retriever.k": "retriever_k",
    "retriever.epochs": "epochs",
    **{f"providers.{role}.{name}": f"{role}.{name}" for role, names in (
        ("chat", _SHARED + ("temperature", "max_tokens", "answer_key", "scramble")),
        ("embeddings", _SHARED + ("dim",)),
        ("judge", _SHARED + ("max_tokens",))) for name in names},
}


def apply_overrides(cfg: PipelineConfig, overrides: dict) -> None:
    """Apply dotted-path overrides like retriever.k=5 or data.test=path onto the config."""
    for key, value in overrides.items():
        section, _, split = key.partition(".")
        if section == "data" and split in SPLITS:
            cfg.data[split] = _coerce(key, "", value)
            continue
        if key not in CONFIG_KEYS:
            raise KeyError(f"unknown config key: {key}")
        role, _, name = CONFIG_KEYS[key].rpartition(".")
        target = getattr(cfg, role) if role else cfg
        setattr(target, name, _coerce(key, getattr(target, name), value))


# ---------------------------------------------------------------------------
# Providers

def _answer_key(path: str) -> tuple[str, dict[str, str]]:
    """The sha256 and the question -> gold answer key of the mock's raw corpus
    file; ("", {}) when no file is named. One stat finds the file's version."""
    if not path:
        return "", {}
    st = os.stat(path)
    return _read_answer_key(path, st.st_mtime_ns, st.st_size)


@functools.lru_cache(maxsize=4)
def _read_answer_key(path: str, mtime_ns: int, size: int) -> tuple[str, dict[str, str]]:
    """`_answer_key`, read once per version: the stat fields are part of the
    memo key, so a rewritten file is read again. The key is parsed as `ingest`
    parses the file. Every caller gets the same dict, which `MockChatTransport`
    copies. `load_split` logs no skipped record and no repaired table row:
    `ingest` has reported each once."""
    return (hashlib.sha256(Path(path).read_bytes()).hexdigest(),
            {doc.question.text: doc.question.gold_answer for doc in load_split(path)})


def build_chat_client(provider: ProviderConfig, cache_dir: str | None,
                      role: str = "chat") -> ChatClient:
    """The client of `providers.<role>`. Its cache entries are keyed on what decides
    the replies: for the mock, `scramble` and the content of its answer key."""
    cache = ResponseCache(cache_dir)
    if provider.kind == "mock":
        # An empty model is sent as "mock-chat", which every cached request keys on.
        cfg = replace(provider, model=provider.model or "mock-chat")
        key_sha256, answer_key = _answer_key(provider.answer_key)
        transport = MockChatTransport(answer_key=answer_key, scramble=provider.scramble)
        identity = {**provider_identity(cfg), "scramble": provider.scramble,
                    "answer_key": key_sha256}
        return ChatClient(cfg, cache=cache, transport=transport, identity=identity)
    if provider.kind == "http":
        if not provider.model:
            raise ValueError(f"providers.{role}.model must name the model of an http provider")
        return ChatClient(provider, cache=cache)
    raise ValueError(f"unsupported chat provider kind: {provider.kind}")


def build_embedder(provider: ProviderConfig, cache_dir: str | None):
    if provider.kind == "local":
        return LocalHashEmbedder(dim=provider.dim)
    if provider.kind == "http":
        return RemoteEmbedder(provider, cache=ResponseCache(cache_dir))
    raise ValueError(f"unsupported embeddings provider kind: {provider.kind}")


# ---------------------------------------------------------------------------
# Artifact paths and IO

def documents_path(cfg: PipelineConfig, split: str) -> Path:
    return Path(cfg.output_dir) / f"documents_{split}.jsonl"


def triplets_path(cfg: PipelineConfig, split: str) -> Path:
    return Path(cfg.output_dir) / f"triplets_{split}.jsonl"


def model_path(cfg: PipelineConfig) -> Path:
    return Path(cfg.output_dir) / "retriever_model.json"


def manifest_path(cfg: PipelineConfig) -> Path:
    return Path(cfg.output_dir) / "train_manifest.jsonl"


def rejected_path(cfg: PipelineConfig, split: str) -> Path:
    return Path(cfg.output_dir) / f"rejected_{split}.jsonl"


def predictions_path(cfg: PipelineConfig, split: str, mode: str) -> Path:
    return Path(cfg.output_dir) / f"predictions_{split}_{mode}.jsonl"


def verdicts_path(cfg: PipelineConfig, split: str, mode: str) -> Path:
    return Path(cfg.output_dir) / f"verdicts_{split}_{mode}.jsonl"


def eval_summary_path(cfg: PipelineConfig, split: str, mode: str) -> Path:
    return Path(cfg.output_dir) / f"eval_{split}_{mode}.json"


def report_path(cfg: PipelineConfig) -> Path:
    return Path(cfg.output_dir) / "report.txt"


def _configured_splits(cfg: PipelineConfig) -> list[str]:
    return [s for s in SPLITS if cfg.data.get(s)]


def _load_documents(cfg: PipelineConfig, split: str) -> list[FinDocument]:
    return list(_iter_documents(_require(documents_path(cfg, split), "ingest")))


def _iter_documents(store: Path) -> Iterator[FinDocument]:
    """A document store's documents, parsed one line at a time."""
    with open(store, encoding="utf-8") as f:
        for line in f:
            yield parse_record(line)


def _triplet_runs(store: Path) -> Iterator[list[Triplet]]:
    """The triplet store's triplets in store order, one run at a time: a run is
    a document's triplets on consecutive lines.

    Each PARSE_BLOCK lines of the file are decoded by one `parse_triplets_file`
    call, through this module's global, which bench/tracing.py wraps. Lines
    are counted where `str.splitlines` splits them, so a `TripletParseError`
    names the line of the file. Only the run being built and the rest of one
    block's triplets are held.
    """
    run: list[Triplet] = []
    first_line = 1
    with open(store, encoding="utf-8") as f:
        while text := "".join(islice(f, PARSE_BLOCK)):
            for t in parse_triplets_file(text, first_line):
                if run and t.source_doc != run[0].source_doc:
                    yield run
                    run = []
                run.append(t)
            first_line += len(text.splitlines())
    if run:
        yield run


def _require(path: Path, producer: str) -> Path:
    if not path.exists():
        raise MissingArtifact(f"{path.name} not found; run `{producer}` first")
    return path


# ---------------------------------------------------------------------------
# Commands

def _map_requests(fn, items: Iterable, provider: ProviderConfig | None,
                  max_inflight: int) -> Iterator:
    """`map(fn, items)`, where each call may send requests to `provider`.

    Calls to an `http` provider wait on the network, so `max_inflight` of them
    run at once on worker threads; the pool takes every item when the first
    result is asked for. An in-process provider is CPU-bound: on the workers
    its calls would only contend for the interpreter lock, so they run on the
    caller, one item at a time as the results are asked for.
    """
    if provider is None or provider.kind != "http":
        return map(fn, items)
    return _pool_map(fn, items, max_inflight)


def _pool_map(fn, items: Iterable, max_inflight: int) -> Iterator:
    with ThreadPoolExecutor(max_workers=max(max_inflight, 1)) as pool:
        yield from pool.map(fn, items)


def cmd_ingest(cfg: PipelineConfig) -> dict:
    """Parse every configured split into the document store every later stage reads.

    Returns the document count per split and the number of records skipped
    as malformed or as a repeated id. Each skipped record and each padded or
    truncated table row is logged here, once.
    """
    counts, n_errors = {}, 0
    for split in _configured_splits(cfg):
        path = cfg.data[split]
        if not Path(path).exists():
            raise MissingArtifact(f"dataset file for split {split!r} not found at {path!r}")
        skipped: list[tuple[int, str]] = []
        repairs: list[str] = []
        counts[split] = 0
        with open_atomic(documents_path(cfg, split)) as store:
            for doc in iter_split(path, skipped, repairs):
                store.write(json.dumps(document_record(doc)) + "\n")
                counts[split] += 1
        for repair in repairs:
            logger.warning("%s", repair)
        for index, reason in skipped:
            logger.warning("skipping record %d of %s: %s", index, path, reason)
        n_errors += len(skipped)
        logger.info("ingested %d documents for split %s, skipped %d records",
                    counts[split], split, len(skipped))
    return {"ingested": counts, "n_errors": n_errors}


def cmd_extract(cfg: PipelineConfig) -> dict:
    """Extract triplets for every configured split into the triplet store.

    Returns the triplet count per split and the number of failed chat requests;
    each loses only its own chunk, which is written to the rejected file.
    """
    counts, n_errors = {}, 0
    for split in _configured_splits(cfg):
        docs = _iter_documents(_require(documents_path(cfg, split), "ingest"))
        if cfg.extraction_backend == "table":
            # the table backend rejects nothing, so its rejected file is empty
            results = (extraction.ExtractionResult(
                doc.id, tuple(extraction.extract_table_triplets(doc))) for doc in docs)
        else:
            client = build_chat_client(cfg.chat, cfg.cache_dir)
            extractor = DocumentExtractor(client, asset_path=cfg.prompt_asset or None)
            results = _map_requests(extractor.extract, docs, cfg.chat, cfg.max_inflight)
        n_triplets = n_rejected = failed = 0
        # Each document's lines are written as it finishes; an exception leaves
        # both earlier files as they were.
        with open_atomic(triplets_path(cfg, split)) as store, \
                open_atomic(rejected_path(cfg, split)) as audit:
            for result in results:
                store.write(serialize_triplets(list(result.triplets)))
                n_triplets += len(result.triplets)
                for fragment, violations in result.rejected:
                    audit.write(json.dumps({
                        "doc_id": result.doc_id,
                        "fragment": fragment,
                        "violations": list(violations),
                    }) + "\n")
                    n_rejected += 1
                    # a chunk whose request failed, or whose reply stayed cut at max_tokens
                    failed += violations in (("LlmUnavailable",), ("LlmTruncated",))
        if n_rejected:
            logger.info("split %s: %d fragments rejected, %d of them by a failed "
                        "request", split, n_rejected, failed)
        n_errors += failed
        counts[split] = n_triplets
        logger.info("extracted %d triplets for split %s", n_triplets, split)
    return {"triplets": counts, "n_errors": n_errors}


# One train_manifest.jsonl line from JSON-escaped fields: the bytes of
# json.dumps({"doc_id", "triplet_id", "label"}) with default settings.
_MANIFEST_LINE = '{"doc_id": %s, "triplet_id": %s, "label": %d}\n'


def cmd_train_retriever(cfg: PipelineConfig) -> dict:
    """Label train-split triplets from gold supporting facts and fit the filter.

    The triplet store is featurised one run at a time, as it is read, so the
    pairs are in store order; triplets of a document the document store lacks,
    or whose question has no token to embed, are not used. The runs' parts
    are joined into one `GroupedFeatures` once the store is read. The manifest
    is written as the runs are read, and replaces the old one only once the
    new model is saved.
    """
    store = _require(triplets_path(cfg, "train"), "extract")
    # Labelling and featurising read only a document's question; keep nothing else.
    docs = {doc.id: FinDocument(doc.id, question=doc.question)
            for doc in _iter_documents(_require(documents_path(cfg, "train"), "ingest"))}
    embedder = build_embedder(cfg.embeddings, cfg.cache_dir)
    parts: list[tuple] = []  # each run's `build_features`
    labels: list[int] = []
    with open_atomic(manifest_path(cfg)) as manifest:
        for run in _triplet_runs(store):
            doc = docs.get(run[0].source_doc)
            if doc is None:
                continue
            try:
                parts.append(retriever.build_features(doc.question, run, embedder))
            except EmptyText as exc:
                logger.warning("train: leaving out document %s: %s", doc.id, exc)
                continue
            run_labels = retriever.label_triplets(doc, run)
            labels.extend(run_labels)
            doc_id = _json_str(doc.id)
            manifest.writelines(_MANIFEST_LINE % (doc_id, _json_str(t.triplet_id), label)
                                for t, label in zip(run, run_labels))
        if not labels:
            raise MissingArtifact("no training pairs; run `extract` on the train split first")

        del embedder, docs  # they serve featurisation only; free them before training
        X = retriever.GroupedFeatures(parts)
        del parts
        y = np.asarray(labels, dtype=np.float64)
        n_pos = int(y.sum())
        n_neg = len(y) - n_pos
        train_cfg = retriever.TrainConfig(
            epochs=cfg.epochs,
            seed=cfg.seed,
            positive_weight=(n_neg / n_pos) if n_pos and n_neg else 1.0,
        )
        model, history = retriever.train(X, y, train_cfg)
        retriever.save_model(model, model_path(cfg))
    logger.info("trained retriever on %d pairs (%d positive); final loss %.4f",
                len(y), n_pos, history[-1])
    return {"pairs": len(y), "positives": n_pos, "final_loss": history[-1]}


def cmd_answer(cfg: PipelineConfig, split: str, mode: str) -> dict[str, int]:
    """Answer the split's questions, from filtered facts (kg) or raw text (vanilla).

    Returns the number of questions answered and the number that failed. A
    provider request that fails (`LlmUnavailable`, or `LlmTruncated` for a
    reply cut at max_tokens), or in kg mode a question with no token to embed
    (`EmptyText`), fails only its own question: its line is written with an
    empty answer and an `error` key, which no other line carries.
    """
    if mode not in ("vanilla", "kg"):
        raise ValueError(f"mode must be vanilla or kg, got {mode!r}")
    client = build_chat_client(cfg.chat, cfg.cache_dir)  # a bad setting fails first
    docs = _load_documents(cfg, split)
    embedder = None
    if mode == "kg":
        by_doc: dict[str, list[Triplet]] = {}
        for run in _triplet_runs(_require(triplets_path(cfg, split), "extract")):
            by_doc.setdefault(run[0].source_doc, []).extend(run)
        model = retriever.load_model(_require(model_path(cfg), "train-retriever"))
        embedder = build_embedder(cfg.embeddings, cfg.cache_dir)

    def prepare(doc: FinDocument) -> tuple[str, str, str, list[str], str | None]:
        """The document's id and question, the question's prompt, its retrieved
        triplet ids, and the error that stopped it."""
        q = doc.question
        if mode == "vanilla":
            return doc.id, q.text, reasoner.build_text_prompt(q, assemble_text(doc)), [], None
        try:
            picked = retriever.filter_topk(q, by_doc.get(doc.id, []), model, embedder,
                                           cfg.retriever_k)
        except (LlmUnavailable, EmptyText) as exc:  # a failed request, or no token to embed
            return doc.id, q.text, "", [], str(exc)
        facts = [t for t, _ in picked]
        return (doc.id, q.text, reasoner.build_reasoning_prompt(q, facts),
                [t.triplet_id for t in facts], None)

    def request(prepared: tuple) -> tuple[reasoner.Answer, str | None]:
        _, _, prompt, _, error = prepared
        if error is None:
            try:
                if mode == "vanilla":
                    return reasoner.answer_from_text(prompt, client), None
                return reasoner.answer_question(prompt, client), None
            except (LlmUnavailable, LlmTruncated) as exc:
                error = str(exc)
        return reasoner.Answer(raw_text=""), error

    # Every prompt is built before the first request. Only kg mode's retrieval
    # sends embeddings requests.
    prepared = list(_map_requests(prepare, docs, cfg.embeddings if mode == "kg" else None,
                                  cfg.max_inflight))
    del docs  # the prepared tuples hold all that the requests and the lines need
    replies = list(_map_requests(request, prepared, cfg.chat, cfg.max_inflight))

    with open_atomic(predictions_path(cfg, split, mode)) as f:
        for (doc_id, question, prompt, ids, _), (answer, error) in zip(prepared, replies):
            entry = {
                "doc_id": doc_id,
                "question": question,
                "answer": answer.raw_text,
                "kind": answer.kind,
                "fallback_used": answer.fallback_used,
                "retrieved": ids,
                "prompt": prompt,
            }
            if error is not None:
                entry["error"] = error
                logger.warning("%s/%s: no answer for %s: %s", split, mode, doc_id, error)
            f.write(json.dumps(entry) + "\n")
    n_errors = sum(1 for _, error in replies if error is not None)
    logger.info("answered %d of %d questions (%s, %s mode)",
                len(replies) - n_errors, len(replies), split, mode)
    return {"answered": len(replies) - n_errors, "n_errors": n_errors}


def cmd_evaluate(cfg: PipelineConfig, split: str, mode: str) -> dict:
    """Judge each split document's first prediction line against its gold
    answer with `evaluator.evaluate_split`, and write verdicts plus a summary."""
    pred_file = _require(predictions_path(cfg, split, mode), "answer")
    store = _require(documents_path(cfg, split), "ingest")
    # Each id's first line, as (answer, whether its request failed); the rest is unused.
    first: dict[str, tuple[str, bool]] = {}
    n_lines = 0
    with open(pred_file, encoding="utf-8") as f:
        for text in f:
            for line in text.splitlines():  # the line breaks of str.splitlines
                n_lines += 1
                try:
                    entry = json.loads(line)
                    if entry["doc_id"] not in first:  # only a split document's is looked up
                        first[entry["doc_id"]] = (str(entry.get("answer", "")),
                                                  "error" in entry)
                except (ValueError, TypeError, KeyError):  # not an object with a doc_id
                    continue

    records = [(doc.id, *first.get(doc.id, (None, False)), doc.question.gold_answer,
                doc.question.gold_exe_answer) for doc in _iter_documents(store)]
    judge_client = None
    if cfg.judge.kind != "none":  # an unsupported kind fails in build_chat_client
        judge_client = build_chat_client(cfg.judge, cfg.cache_dir, role="judge")
    verdicts = evaluator.evaluate_split(records, judge_client=judge_client)
    write_atomic(verdicts_path(cfg, split, mode),
                 "".join(json.dumps(line) + "\n" for line in verdicts))
    counts = Counter(line["verdict"] for line in verdicts)
    n_missing, n_unscored = counts["MISSING"], n_lines - len(verdicts) + counts["MISSING"]
    if n_missing or n_unscored:
        logger.warning("%s/%s: %d of %d prediction lines not scored (repeated, unknown id or "
                       "malformed); %d of %d documents have none and score MISSING", split,
                       mode, n_unscored, n_lines, n_missing, len(verdicts))
    accuracy = counts["CORRECT"] / len(verdicts)
    summary = {
        "split": split,
        "mode": mode,
        "n": len(verdicts),
        "n_missing": n_missing,
        "n_errors": counts["ERROR"],
        "correct": counts["CORRECT"],
        "accuracy": accuracy,
        "accuracy_pct": 100.0 * accuracy,
    }
    write_atomic(eval_summary_path(cfg, split, mode),
                 json.dumps(summary, indent=2) + "\n")
    logger.info("evaluated %s/%s: accuracy %.4f", split, mode, accuracy)
    return summary


def _accuracy_pct(value: str | float, cfg: PipelineConfig) -> float:
    try:
        return float(value)
    except ValueError:
        pass
    path = Path(value)
    if not path.is_absolute():
        path = Path(cfg.output_dir) / path
    summary = json.loads(_require(path, "evaluate").read_text(encoding="utf-8"))
    return float(summary["accuracy_pct"])


def cmd_report(cfg: PipelineConfig, baseline: str | float, treatment: str | float) -> str:
    """Render the baseline-vs-treatment comparison table."""
    base = _accuracy_pct(baseline, cfg)
    treat = _accuracy_pct(treatment, cfg)
    table = evaluator.format_report(base, treat)
    write_atomic(report_path(cfg), table)
    return table
