"""End-to-end pipeline commands behind the CLI.

Each command reads its upstream artifacts from the output directory, does one
stage of work, and atomically writes flat JSONL keyed by document id so any
stage can be re-run in isolation. With mock providers the whole chain is
deterministic: identical inputs produce byte-identical artifacts.
"""

from __future__ import annotations

import functools
import json
import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path

import numpy as np

from . import evaluator, extraction, reasoner, retriever
from .embedding import LocalHashEmbedder, RemoteEmbedder
from .evaluator import EvalRecord
from .extraction import DocumentExtractor
from .kg_schema import parse_triplets_file, serialize_triplets
from .llm_client import (ChatClient, LlmTruncated, LlmUnavailable, MockChatTransport,
                         ProviderConfig, ResponseCache, write_atomic)
from .preprocess import (FinDocument, assemble_text, document_record, load_split,
                         parse_record)

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
        raw = json.loads(path.read_text(encoding="utf-8"))
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


def apply_overrides(cfg: PipelineConfig, overrides: dict) -> None:
    """Apply dotted-path overrides like retriever.k=5 or data.test=path onto the config."""
    aliases = {
        "retriever.k": "retriever_k",
        "retriever.epochs": "epochs",
        "extraction.backend": "extraction_backend",
        "extraction.max_inflight": "max_inflight",
        "extraction.prompt_asset": "prompt_asset",
    }
    for key, value in overrides.items():
        section, _, split = key.partition(".")
        if section == "data" and split in SPLITS:
            cfg.data[split] = _coerce(key, "", value)
            continue
        target = cfg
        parts = aliases.get(key, key).split(".")
        if (parts[0] == "providers" and len(parts) > 1
                and isinstance(getattr(cfg, parts[1], None), ProviderConfig)):
            parts = parts[1:]  # providers.<role>.<key> is <role>.<key>
        *path, name = parts
        for part in path:
            # Only a provider section has fields of its own to descend into.
            target = getattr(target, part, None)
            if not isinstance(target, ProviderConfig):
                raise KeyError(f"unknown config key: {key}")
        if name not in {f.name for f in fields(target)}:
            raise KeyError(f"unknown config key: {key}")
        setattr(target, name, _coerce(key, getattr(target, name), value))


# ---------------------------------------------------------------------------
# Providers

def _mock_answer_key(path: str) -> dict[str, str]:
    if not path:
        return {}
    st = os.stat(path)
    return _read_answer_key(path, st.st_mtime_ns, st.st_size)


@functools.lru_cache(maxsize=4)
def _read_answer_key(path: str, mtime_ns: int, size: int) -> dict[str, str]:
    """The question -> gold answer key of a raw corpus file, as `ingest` parses
    it, read once per version. The stat fields are part of the memo key, so a
    rewritten file is read again. Every caller gets the same dict, which
    `MockChatTransport` copies."""
    return {doc.question.text: doc.question.gold_answer for doc in load_split(path)}


def build_chat_client(provider: ProviderConfig, cache_dir: str | None) -> ChatClient:
    # An empty model is sent as "mock-chat", which every cached request keys on.
    cfg = replace(provider, model=provider.model or "mock-chat")
    cache = ResponseCache(cache_dir)
    if provider.kind == "mock":
        transport = MockChatTransport(answer_key=_mock_answer_key(provider.answer_key),
                                      scramble=provider.scramble)
        return ChatClient(cfg, cache=cache, transport=transport)
    if provider.kind == "http":
        return ChatClient(cfg, cache=cache)
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
    with open(_require(documents_path(cfg, split), "ingest"), encoding="utf-8") as f:
        return [parse_record(line) for line in f]


def _load_triplets(cfg: PipelineConfig, split: str) -> dict[str, list]:
    """The split's triplet store grouped by source document, in store order."""
    by_doc: dict[str, list] = {}
    store = _require(triplets_path(cfg, split), "extract")
    # Called through this module's global, which bench/tracing.py wraps.
    for t in parse_triplets_file(store.read_text(encoding="utf-8")):
        by_doc.setdefault(t.source_doc, []).append(t)
    return by_doc


def _require(path: Path, producer: str) -> Path:
    if not path.exists():
        raise MissingArtifact(f"{path.name} not found; run `{producer}` first")
    return path


# ---------------------------------------------------------------------------
# Commands

def _map_requests(fn, items: list, provider: ProviderConfig | None,
                  max_inflight: int) -> list:
    """`[fn(item) for item in items]`, where each call may send requests to `provider`.

    Calls to an `http` provider wait on the network, so `max_inflight` of them
    run at once on worker threads. An in-process provider is CPU-bound: on the
    workers its calls would only contend for the interpreter lock.
    """
    if provider is None or provider.kind != "http":
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=max(max_inflight, 1)) as pool:
        return list(pool.map(fn, items))


def cmd_ingest(cfg: PipelineConfig) -> dict[str, int]:
    """Parse every configured split into the document store every later stage reads."""
    counts = {}
    for split in _configured_splits(cfg):
        path = cfg.data[split]
        if not Path(path).exists():
            raise MissingArtifact(f"dataset file for split {split!r} not found at {path!r}")
        docs = load_split(path)
        write_atomic(documents_path(cfg, split),
                     "".join(json.dumps(document_record(doc)) + "\n" for doc in docs))
        counts[split] = len(docs)
        logger.info("ingested %d documents for split %s", len(docs), split)
    return counts


def cmd_extract(cfg: PipelineConfig) -> dict:
    """Extract triplets for every configured split into the triplet store.

    Returns the triplet count per split and the number of failed chat requests;
    each loses only its own chunk, which is written to the rejected file.
    """
    counts, n_errors = {}, 0
    for split in _configured_splits(cfg):
        docs = _load_documents(cfg, split)
        if cfg.extraction_backend == "table":
            per_doc = [extraction.extract_table_triplets(doc) for doc in docs]
        else:
            client = build_chat_client(cfg.chat, cfg.cache_dir)
            extractor = DocumentExtractor(client, asset_path=cfg.prompt_asset or None)
            results = _map_requests(extractor.extract, docs, cfg.chat, cfg.max_inflight)
            per_doc = [list(r.triplets) for r in results]
            # keep every rejected fragment on disk for auditing
            audit_lines, failed = [], 0
            for result in results:
                for fragment, violations in result.rejected:
                    audit_lines.append(json.dumps({
                        "doc_id": result.doc_id,
                        "fragment": fragment,
                        "violations": list(violations),
                    }))
                    failed += violations == ("LlmUnavailable",)
            write_atomic(rejected_path(cfg, split),
                         "".join(l + "\n" for l in audit_lines))
            if audit_lines:
                logger.info("split %s: %d fragments rejected, %d of them by a failed "
                            "request", split, len(audit_lines), failed)
            n_errors += failed
        triplets = [t for group in per_doc for t in group]
        write_atomic(triplets_path(cfg, split), serialize_triplets(triplets))
        counts[split] = len(triplets)
        logger.info("extracted %d triplets for split %s", len(triplets), split)
    return {"triplets": counts, "n_errors": n_errors}


# One train_manifest.jsonl line from JSON-escaped fields: the bytes of
# json.dumps({"doc_id", "triplet_id", "label"}) with default settings.
_MANIFEST_LINE = '{"doc_id": %s, "triplet_id": %s, "label": %d}\n'


def cmd_train_retriever(cfg: PipelineConfig) -> dict:
    """Label train-split triplets from gold supporting facts and fit the filter."""
    by_doc = _load_triplets(cfg, "train")
    docs = [doc for doc in _load_documents(cfg, "train") if doc.id in by_doc]
    if not docs:
        raise MissingArtifact("no training pairs; run `extract` on the train split first")

    embedder = build_embedder(cfg.embeddings, cfg.cache_dir)
    X = retriever.GroupedFeatures([len(by_doc[doc.id]) for doc in docs])
    labels, manifest = [], []
    for j, doc in enumerate(docs):
        # Popped so that each document's parsed triplets are freed once featurised.
        doc_triplets = by_doc.pop(doc.id)
        doc_labels = retriever.label_triplets(doc, doc_triplets)
        X.fill(j, retriever.build_features(doc.question, doc_triplets, embedder))
        labels.extend(doc_labels)
        doc_id = _json_str(doc.id)
        manifest.extend(_MANIFEST_LINE % (doc_id, _json_str(t.triplet_id), label)
                        for t, label in zip(doc_triplets, doc_labels))

    del embedder  # its memos serve featurisation only; free them before training
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
    write_atomic(manifest_path(cfg), "".join(manifest))
    logger.info("trained retriever on %d pairs (%d positive); final loss %.4f",
                len(y), n_pos, history[-1])
    return {"pairs": len(y), "positives": n_pos, "final_loss": history[-1]}


def cmd_answer(cfg: PipelineConfig, split: str, mode: str) -> dict[str, int]:
    """Answer the split's questions, from filtered facts (kg) or raw text (vanilla).

    Returns the number of questions answered and the number that failed. A
    provider request that fails (`LlmUnavailable`, or `LlmTruncated` for a
    reply cut at max_tokens) fails only its own question: its line is written
    with an empty answer and an `error` key, which no other line carries.
    """
    if mode not in ("vanilla", "kg"):
        raise ValueError(f"mode must be vanilla or kg, got {mode!r}")
    client = build_chat_client(cfg.chat, cfg.cache_dir)  # a bad setting fails first
    docs = _load_documents(cfg, split)
    embedder = None
    if mode == "kg":
        by_doc = _load_triplets(cfg, split)
        model = retriever.load_model(_require(model_path(cfg), "train-retriever"))
        embedder = build_embedder(cfg.embeddings, cfg.cache_dir)

    def prepare(doc: FinDocument) -> tuple[str, list[str], str | None]:
        """The question's prompt, its retrieved triplet ids, and the error that stopped it."""
        if mode == "vanilla":
            return reasoner.build_text_prompt(doc.question, assemble_text(doc)), [], None
        try:
            picked = retriever.filter_topk(doc.question, by_doc.get(doc.id, []), model,
                                           embedder, cfg.retriever_k)
        except LlmUnavailable as exc:  # an embeddings request failed
            return "", [], str(exc)
        facts = [t for t, _ in picked]
        return (reasoner.build_reasoning_prompt(doc.question, facts),
                [t.triplet_id for t in facts], None)

    def request(prepared: tuple) -> tuple[reasoner.Answer, str | None]:
        prompt, _, error = prepared
        if error is None:
            try:
                if mode == "vanilla":
                    return reasoner.answer_from_text(prompt, client), None
                return reasoner.answer_question(prompt, client), None
            except (LlmUnavailable, LlmTruncated) as exc:
                error = str(exc)
        return reasoner.Answer(raw_text=""), error

    # Only kg mode's retrieval sends embeddings requests.
    prepared = _map_requests(prepare, docs, cfg.embeddings if mode == "kg" else None,
                             cfg.max_inflight)
    replies = _map_requests(request, prepared, cfg.chat, cfg.max_inflight)

    lines = []
    for doc, (prompt, ids, _), (answer, error) in zip(docs, prepared, replies):
        entry = {
            "doc_id": doc.id,
            "question": doc.question.text,
            "answer": answer.raw_text,
            "kind": answer.kind,
            "fallback_used": answer.fallback_used,
            "retrieved": ids,
            "prompt": prompt,
        }
        if error is not None:
            entry["error"] = error
            logger.warning("%s/%s: no answer for %s: %s", split, mode, doc.id, error)
        lines.append(json.dumps(entry) + "\n")
    write_atomic(predictions_path(cfg, split, mode), "".join(lines))
    n_errors = sum(1 for _, error in replies if error is not None)
    logger.info("answered %d of %d questions (%s, %s mode)",
                len(lines) - n_errors, len(lines), split, mode)
    return {"answered": len(lines) - n_errors, "n_errors": n_errors}


def cmd_evaluate(cfg: PipelineConfig, split: str, mode: str) -> dict:
    """Judge the first prediction for each split document against its gold
    answer, and write verdicts plus a summary."""
    pred_file = _require(predictions_path(cfg, split, mode), "answer")
    docs = _load_documents(cfg, split)
    ids = {doc.id for doc in docs}
    lines = pred_file.read_text(encoding="utf-8").splitlines()
    entries: dict[str, dict] = {}
    for line in lines:
        try:
            entry = json.loads(line)
            if entry["doc_id"] in ids:  # a split document's id is a string
                entries.setdefault(entry["doc_id"], entry)
        except (ValueError, TypeError, KeyError):  # not an object with a doc_id
            continue
    n_missing, n_unscored = len(docs) - len(entries), len(lines) - len(entries)
    if n_missing or n_unscored:
        logger.warning("%s/%s: %d of %d prediction lines not scored (repeated, unknown id or "
                       "malformed); %d of %d documents have none and score MISSING", split,
                       mode, n_unscored, len(lines), n_missing, len(docs))

    records = []
    for doc in docs:
        entry = entries.get(doc.id, {})
        raw_answer = str(entry.get("answer", ""))
        record = EvalRecord(
            doc_id=doc.id,
            predicted=(reasoner.parse_answer(f"ANSWER: {raw_answer}")
                       if raw_answer.strip() else reasoner.Answer(raw_text="")),
            gold=doc.question.gold_answer,
            gold_exe=doc.question.gold_exe_answer,
        )
        if not entry or "error" in entry:  # no answer, or its request failed: nothing to judge
            record.verdict, record.judge_used = "ERROR" if entry else "MISSING", "NONE"
        records.append(record)

    judge_client = None
    if cfg.judge.kind != "none":  # an unsupported kind fails in build_chat_client
        judge_client = build_chat_client(cfg.judge, cfg.cache_dir)
    accuracy, judged = evaluator.evaluate_split(records, judge_client=judge_client)
    write_atomic(verdicts_path(cfg, split, mode), evaluator.verdicts_jsonl(judged))
    summary = {
        "split": split,
        "mode": mode,
        "n": len(judged),
        "n_missing": n_missing,
        "n_errors": sum(1 for r in judged if r.verdict == "ERROR"),
        "correct": sum(1 for r in judged if r.verdict == "CORRECT"),
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
