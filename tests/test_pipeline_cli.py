import hashlib
import json
import os
import re
from dataclasses import fields
from pathlib import Path

import pytest

from finkgqa import cli, pipeline as pl
from finkgqa.kg_schema import PARSE_BLOCK, TripletParseError, parse_triplets_file
from finkgqa.llm_client import chat_response
from finkgqa.preprocess import load_split, parse_record


def _config(tmp_path: Path, corpus: Path, scramble: bool = False,
            subdir: str = "run") -> pl.PipelineConfig:
    base = tmp_path / subdir
    return pl.PipelineConfig(
        seed=17,
        data={"train": str(corpus), "test": str(corpus)},
        output_dir=str(base / "out"),
        cache_dir=str(base / "cache"),
        chat=pl.ProviderConfig(kind="mock", answer_key=str(corpus), scramble=scramble),
    )


def _run_all(cfg: pl.PipelineConfig) -> dict:
    pl.cmd_ingest(cfg)
    pl.cmd_extract(cfg)
    pl.cmd_train_retriever(cfg)
    pl.cmd_answer(cfg, "test", "vanilla")
    pl.cmd_answer(cfg, "test", "kg")
    vanilla = pl.cmd_evaluate(cfg, "test", "vanilla")
    kg = pl.cmd_evaluate(cfg, "test", "kg")
    pl.cmd_report(cfg, vanilla["accuracy_pct"], kg["accuracy_pct"])
    return {"vanilla": vanilla, "kg": kg}


def _output_digests(cfg: pl.PipelineConfig) -> dict:
    out = Path(cfg.output_dir)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


def test_ingest_output_shape(tmp_path, corpus_path):
    cfg = _config(tmp_path, corpus_path)
    counts = pl.cmd_ingest(cfg)
    assert counts == {"ingested": {"train": 5, "test": 5}, "n_errors": 0}
    lines = pl.documents_path(cfg, "test").read_text(encoding="utf-8").splitlines()
    assert [parse_record(line) for line in lines] == load_split(corpus_path)
    for line in lines:
        record = json.loads(line)
        assert set(record) == {"id", "pre_text", "post_text", "table", "qa"}
        assert set(record["qa"]) == {"question", "answer", "exe_ans", "program", "gold_inds"}


def test_ingest_linearizes_no_table(tmp_path, corpus_path, monkeypatch):
    from finkgqa import preprocess

    cfg = _config(tmp_path, corpus_path)
    pl.cmd_ingest(cfg)
    before = {split: pl.documents_path(cfg, split).read_bytes() for split in ("train", "test")}
    calls = []

    def counting(table):
        calls.append(table)
        return linearize(table)

    linearize = preprocess.linearize_table
    monkeypatch.setattr(preprocess, "linearize_table", counting)
    pl.cmd_ingest(cfg)
    assert calls == []  # the store keeps each table; extract and vanilla answer linearize it
    assert {split: pl.documents_path(cfg, split).read_bytes()
            for split in ("train", "test")} == before


def test_later_stages_never_read_the_raw_split(tmp_path, corpus_path):
    """After `ingest`, the chain runs from the output directory alone."""
    reference = _config(tmp_path, corpus_path, subdir="reference")
    _run_all(reference)
    cfg = _config(tmp_path, corpus_path)
    pl.cmd_ingest(cfg)
    cfg.data = {split: str(tmp_path / "moved.json") for split in cfg.data}  # no such file
    pl.cmd_extract(cfg)
    pl.cmd_train_retriever(cfg)
    pl.cmd_answer(cfg, "test", "vanilla")
    pl.cmd_answer(cfg, "test", "kg")
    vanilla = pl.cmd_evaluate(cfg, "test", "vanilla")
    kg = pl.cmd_evaluate(cfg, "test", "kg")
    pl.cmd_report(cfg, vanilla["accuracy_pct"], kg["accuracy_pct"])
    assert _output_digests(cfg) == _output_digests(reference)


def test_full_run_emits_all_artifacts(tmp_path, corpus_path):
    cfg = _config(tmp_path, corpus_path)
    summaries = _run_all(cfg)
    assert summaries["kg"]["accuracy"] == 1.0
    assert summaries["vanilla"]["accuracy"] == 1.0
    out = Path(cfg.output_dir)
    expected = {
        "documents_train.jsonl", "documents_test.jsonl",
        "triplets_train.jsonl", "triplets_test.jsonl",
        "retriever_model.json", "train_manifest.jsonl",
        "predictions_test_vanilla.jsonl", "predictions_test_kg.jsonl",
        "verdicts_test_vanilla.jsonl", "verdicts_test_kg.jsonl",
        "eval_test_vanilla.json", "eval_test_kg.json",
        "report.txt",
    }
    assert expected <= {p.name for p in out.iterdir()}


def test_rerun_is_byte_identical(tmp_path, corpus_path):
    cfg = _config(tmp_path, corpus_path)
    _run_all(cfg)
    first = _output_digests(cfg)
    _run_all(cfg)  # warm cache, overwrite everything
    assert _output_digests(cfg) == first


def test_extract_rerun_hits_cache(tmp_path, corpus_path, monkeypatch):
    cfg = _config(tmp_path, corpus_path)
    pl.cmd_ingest(cfg)

    created = []
    original = pl.MockChatTransport

    def tracking(*args, **kwargs):
        transport = original(*args, **kwargs)
        created.append(transport)
        return transport

    monkeypatch.setattr(pl, "MockChatTransport", tracking)
    pl.cmd_extract(cfg)
    cold_calls = sum(t.calls for t in created)
    assert cold_calls > 0
    created.clear()
    pl.cmd_extract(cfg)
    assert sum(t.calls for t in created) == 0  # served entirely from the cache


def test_scrambled_answers_score_zero(tmp_path, corpus_path):
    cfg = _config(tmp_path, corpus_path, scramble=True)
    pl.cmd_ingest(cfg)
    pl.cmd_extract(cfg)
    pl.cmd_train_retriever(cfg)
    pl.cmd_answer(cfg, "test", "kg")
    assert pl.cmd_evaluate(cfg, "test", "kg")["accuracy"] == 0.0


def test_scrambled_mock_over_a_warm_cache_scores_zero(tmp_path, corpus_path):
    """The cache keys on the mock's `scramble`, so a faithful run's replies are
    not served to a scrambled one."""
    cfg = _config(tmp_path, corpus_path)
    assert _run_all(cfg)["kg"]["accuracy"] == 1.0
    cfg.chat.scramble = True
    pl.cmd_answer(cfg, "test", "kg")
    assert pl.cmd_evaluate(cfg, "test", "kg")["accuracy"] == 0.0


def test_rewritten_answer_key_misses_the_cache(tmp_path, corpus_path):
    corpus = tmp_path / "key.json"
    records = json.loads(corpus_path.read_text())
    corpus.write_text(json.dumps(records))
    provider = pl.ProviderConfig(kind="mock", answer_key=str(corpus))
    prompt = f"Question: {records[0]['qa']['question']}\nEnd with ANSWER: <value>"

    def reply():
        client = pl.build_chat_client(provider, str(tmp_path / "cache"))
        return client.complete(prompt).splitlines()[-1]

    assert reply() == "ANSWER: " + records[0]["qa"]["answer"]
    records[0]["qa"]["answer"] = "999"
    corpus.write_text(json.dumps(records))
    st = corpus.stat()
    os.utime(corpus, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
    assert reply() == "ANSWER: 999"


def test_http_chat_or_judge_without_a_model_names_the_key(tmp_path, corpus_path):
    with pytest.raises(ValueError, match="providers.chat.model"):
        pl.build_chat_client(pl.ProviderConfig(kind="http", endpoint="http://127.0.0.1:9"),
                             None)
    cfg = _config(tmp_path, corpus_path)
    _run_all(cfg)
    cfg.judge = pl.ProviderConfig(kind="http", endpoint="http://127.0.0.1:9")
    with pytest.raises(ValueError, match="providers.judge.model"):
        pl.cmd_evaluate(cfg, "test", "kg")


def test_train_manifest_shape(tmp_path, corpus_path):
    cfg = _config(tmp_path, corpus_path)
    pl.cmd_ingest(cfg)
    pl.cmd_extract(cfg)
    pl.cmd_train_retriever(cfg)
    lines = Path(pl.manifest_path(cfg)).read_text().splitlines()
    assert len(lines) == 12
    for line in lines:
        entry = json.loads(line)
        assert set(entry) == {"doc_id", "triplet_id", "label"}
        assert entry["label"] in (0, 1)
    labels = [json.loads(l)["label"] for l in lines]
    assert 0 < sum(labels) < len(labels)  # both classes present


def test_train_manifest_escapes_as_json_dumps(tmp_path, corpus_path):
    records = json.loads(corpus_path.read_text())
    for record, doc_id in zip(records, ['q"uote', "back\\slash", "ctrl\x01\tid", "café 收入"]):
        record["id"] = doc_id
    corpus = tmp_path / "odd_ids.json"
    corpus.write_text(json.dumps(records))
    cfg = _config(tmp_path, corpus)
    pl.cmd_ingest(cfg)
    pl.cmd_extract(cfg)
    pl.cmd_train_retriever(cfg)
    text = Path(pl.manifest_path(cfg)).read_text(encoding="utf-8")
    entries = [json.loads(line) for line in text.splitlines()]
    assert text == "".join(json.dumps(e) + "\n" for e in entries)
    assert {e["doc_id"] for e in entries} >= {r["id"] for r in records[:4]}


def _reorder_store(path: Path) -> None:
    """Rewrite a triplet store with its document groups reversed and the second
    half of one document's lines moved to the end, as a second run of it."""
    groups: dict[str, list[str]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        groups.setdefault(json.loads(line)["source_doc"], []).append(line)
    # not the first group, which ends the reversed store next to the moved lines
    split = max(list(groups)[1:], key=lambda doc_id: len(groups[doc_id]))
    lines = groups[split]
    assert len(lines) >= 2
    groups[split] = lines[:len(lines) // 2]
    runs = [groups[doc_id] for doc_id in reversed(groups)] + [lines[len(lines) // 2:]]
    path.write_text("".join(line + "\n" for run in runs for line in run), encoding="utf-8")


def test_stores_out_of_document_order_give_the_same_pairs_and_retrievals(tmp_path,
                                                                         corpus_path):
    """Training reads a store in store order, and answering merges a document's
    runs, so an edited store trains on the same pairs and retrieves the same ids."""
    cfg = _config(tmp_path, corpus_path)
    pl.cmd_ingest(cfg)
    pl.cmd_extract(cfg)
    ordered = pl.cmd_train_retriever(cfg)
    pl.cmd_answer(cfg, "test", "kg")
    manifest = pl.manifest_path(cfg).read_text(encoding="utf-8").splitlines()
    model = pl.model_path(cfg).read_bytes()
    retrieved = [json.loads(line)["retrieved"] for line in _answer_lines(cfg, "kg")]
    assert any(retrieved)

    for split in ("train", "test"):
        _reorder_store(pl.triplets_path(cfg, split))
    edited = pl.cmd_train_retriever(cfg)
    assert (edited["pairs"], edited["positives"]) == (ordered["pairs"], ordered["positives"])
    edited_manifest = pl.manifest_path(cfg).read_text(encoding="utf-8").splitlines()
    assert edited_manifest != manifest and sorted(edited_manifest) == sorted(manifest)

    pl.model_path(cfg).write_bytes(model)  # the ordered store's model scores the same
    pl.cmd_answer(cfg, "test", "kg")
    assert [json.loads(line)["retrieved"] for line in _answer_lines(cfg, "kg")] == retrieved


@pytest.mark.parametrize("breaks", [("\n",), ("\n", "\r\n", "\u2028", "\x1c", "\r")],
                         ids=["newline", "mixed"])
def test_store_parse_error_names_the_line_of_the_file(tmp_path, corpus_path, breaks):
    """A bad line past the first parse blocks is reported with the line number
    `parse_triplets_file` gives over the whole file, where lines split as
    `str.splitlines` splits them, by `train-retriever` and by `answer`."""
    cfg = _config(tmp_path, corpus_path)
    pl.cmd_ingest(cfg)
    pl.cmd_extract(cfg)
    pl.cmd_train_retriever(cfg)
    lines = pl.triplets_path(cfg, "train").read_text(encoding="utf-8").splitlines()
    lines = (lines * (3 * PARSE_BLOCK // len(lines)))[:2 * PARSE_BLOCK + 7]
    lines[-3:-3] = ["", "{broken"]
    text = "".join(line + breaks[i % len(breaks)] for i, line in enumerate(lines))
    with pytest.raises(TripletParseError) as whole:
        parse_triplets_file(text)
    assert whole.value.line_no == len(lines) - 3
    for split in ("train", "test"):
        pl.triplets_path(cfg, split).write_bytes(text.encode("utf-8"))
    for stage in (lambda: pl.cmd_train_retriever(cfg), lambda: pl.cmd_answer(cfg, "test", "kg")):
        with pytest.raises(TripletParseError) as streamed:
            stage()
        assert streamed.value.line_no == whole.value.line_no


def test_failed_fit_keeps_the_earlier_model_and_manifest(tmp_path, corpus_path, monkeypatch):
    """The manifest is written while the store is read, but replaces the old one
    only once the new model is saved."""
    cfg = _config(tmp_path, corpus_path)
    pl.cmd_ingest(cfg)
    pl.cmd_extract(cfg)
    pl.cmd_train_retriever(cfg)
    paths = [pl.model_path(cfg), pl.manifest_path(cfg)]
    before = [p.read_bytes() for p in paths]

    def failing_train(*args, **kwargs):
        raise RuntimeError("fit failed")

    monkeypatch.setattr(pl.retriever, "train", failing_train)
    with pytest.raises(RuntimeError, match="fit failed"):
        pl.cmd_train_retriever(cfg)
    assert [p.read_bytes() for p in paths] == before
    assert list(Path(cfg.output_dir).glob("*.tmp")) == []


def test_mock_answer_key_is_read_once_per_file_version(tmp_path, corpus_path, monkeypatch):
    corpus = tmp_path / "key.json"
    records = json.loads(corpus_path.read_text())
    corpus.write_text(json.dumps(records))
    reads = []
    load_split = pl.load_split
    monkeypatch.setattr(pl, "load_split", lambda path: reads.append(path) or load_split(path))
    provider = pl.ProviderConfig(kind="mock", answer_key=str(corpus))
    question = records[0]["qa"]["question"]
    prompt = f"Question: {question}\nEnd with ANSWER: <value>"

    def reply():
        return pl.build_chat_client(provider, None).complete(prompt).splitlines()[-1]

    assert reply() == reply() == "ANSWER: " + records[0]["qa"]["answer"]
    assert reads == [str(corpus)]
    # A rewrite of the same size, as an edit to one digit would be; a later
    # write gets a later modification time.
    records[0]["qa"]["answer"] = "999"
    corpus.write_text(json.dumps(records))
    st = corpus.stat()
    os.utime(corpus, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
    assert reply() == "ANSWER: 999"
    assert reads == [str(corpus)] * 2


def test_rejected_fragments_persisted(tmp_path, corpus_path, answer_key):
    from finkgqa.llm_client import chat_response

    cfg = _config(tmp_path, corpus_path)
    pl.cmd_ingest(cfg)

    bad_element = json.dumps([{
        "subject": "X", "financial_metric_entity_type": "X",
        "object": "roughly 5", "value": "5", "unit": "", "period": "2020",
    }])

    original = pl.MockChatTransport

    class Tainted(original):
        def __call__(self, url, payload, headers, timeout):
            prompt = payload["messages"][-1]["content"]
            if "ATTRIBUTE REQUIREMENTS" in prompt:
                return 200, chat_response(bad_element)
            return super().__call__(url, payload, headers, timeout)

    import unittest.mock as mock
    with mock.patch.object(pl, "MockChatTransport", Tainted):
        pl.cmd_extract(cfg)
    entries = [json.loads(l) for l in
               Path(pl.rejected_path(cfg, "test")).read_text().splitlines()]
    assert entries
    assert all("ObjectValueMismatch" in e["violations"] for e in entries)


def test_kg_predictions_record_provenance(tmp_path, corpus_path):
    cfg = _config(tmp_path, corpus_path)
    pl.cmd_ingest(cfg)
    pl.cmd_extract(cfg)
    pl.cmd_train_retriever(cfg)
    pl.cmd_answer(cfg, "test", "kg")
    entries = [json.loads(l) for l in
               Path(pl.predictions_path(cfg, "test", "kg")).read_text().splitlines()]
    for entry in entries:
        assert entry["retrieved"], entry["doc_id"]
        assert "Facts:" in entry["prompt"]


def test_missing_artifacts_name_producer(tmp_path, corpus_path):
    moved = _config(tmp_path, corpus_path, subdir="moved")
    moved.data["test"] = str(tmp_path / "moved.json")  # no such file
    with pytest.raises(pl.MissingArtifact, match="split 'test' not found"):
        pl.cmd_ingest(moved)
    cfg = _config(tmp_path, corpus_path)
    with pytest.raises(pl.MissingArtifact, match="ingest"):
        pl.cmd_extract(cfg)
    with pytest.raises(pl.MissingArtifact, match="extract"):
        pl.cmd_train_retriever(cfg)
    with pytest.raises(pl.MissingArtifact, match="answer"):
        pl.cmd_evaluate(cfg, "test", "kg")
    pl.cmd_ingest(cfg)
    pl.cmd_extract(cfg)
    with pytest.raises(pl.MissingArtifact, match="train-retriever"):
        pl.cmd_answer(cfg, "test", "kg")


def test_vanilla_and_kg_share_reasoning_surface(tmp_path, corpus_path):
    cfg = _config(tmp_path, corpus_path)
    pl.cmd_ingest(cfg)
    pl.cmd_extract(cfg)
    pl.cmd_train_retriever(cfg)
    pl.cmd_answer(cfg, "test", "vanilla")
    pl.cmd_answer(cfg, "test", "kg")
    vanilla = [json.loads(l) for l in
               Path(pl.predictions_path(cfg, "test", "vanilla")).read_text().splitlines()]
    kg = [json.loads(l) for l in
          Path(pl.predictions_path(cfg, "test", "kg")).read_text().splitlines()]
    assert [e["doc_id"] for e in vanilla] == [e["doc_id"] for e in kg]
    assert all("Document:" in e["prompt"] for e in vanilla)
    assert all("Facts:" in e["prompt"] for e in kg)


# ---------------------------------------------------------------------------
# Answering: where the work runs, and what a failed request does


def _answer_lines(cfg: pl.PipelineConfig, mode: str) -> list[str]:
    path = pl.predictions_path(cfg, "test", mode)
    return path.read_text(encoding="utf-8").splitlines(keepends=True)


def _failing_for(question: str, reply: tuple = (503, {"error": "overloaded"})):
    """A mock transport class that sends `reply` to every request naming `question`."""
    class Failing(pl.MockChatTransport):
        def __call__(self, url, payload, headers, timeout):
            if question in payload["messages"][-1]["content"]:
                return reply
            return super().__call__(url, payload, headers, timeout)
    return Failing


def _embeddings_server(threads: list[int], failing_text: str | None = None):
    """An http transport serving local hash embeddings; it answers 503 to `failing_text`
    and records the thread of every request in `threads`."""
    import threading

    from finkgqa.embedding import LocalHashEmbedder

    local = LocalHashEmbedder()

    def transport(url, payload, headers, timeout):
        assert url.endswith("/embeddings")
        threads.append(threading.get_ident())
        if payload["input"] == failing_text:
            return 503, {"error": "overloaded"}
        return 200, {"data": [{"embedding": local.embed(payload["input"]).tolist()}]}
    return transport


def _http_embeddings_config(tmp_path: Path, corpus: Path) -> pl.PipelineConfig:
    cfg = _config(tmp_path, corpus)
    cfg.embeddings = pl.ProviderConfig(kind="http", endpoint="http://127.0.0.1:9",
                                       model="embed", max_retries=0)
    return cfg


def _chat_server(corpus: Path):
    """An http transport that answers chat requests as the in-process mock does."""
    mock = pl.MockChatTransport(answer_key=pl._answer_key(str(corpus))[1])

    def transport(url, payload, headers, timeout):
        assert url.endswith("/chat/completions")
        return mock(url, payload, headers, timeout)
    return transport


def _http_chat_config(tmp_path: Path, corpus: Path, subdir: str) -> pl.PipelineConfig:
    cfg = _config(tmp_path, corpus, subdir=subdir)
    # The in-process mock's model name: every request payload is the same.
    cfg.chat = pl.ProviderConfig(kind="http", endpoint="http://127.0.0.1:9",
                                 model="mock-chat", max_retries=0)
    return cfg


def test_scoring_runs_on_the_calling_thread_and_requests_in_the_pool(
        tmp_path, corpus_path, monkeypatch):
    """In-process providers run on the calling thread and build no pool; requests
    to an http chat provider run on the workers, and scoring stays on the caller."""
    import threading

    from finkgqa import llm_client, retriever
    from finkgqa.llm_client import ChatClient

    threads: dict[str, list[int]] = {"filter_topk": [], "assemble_text": [], "complete": []}

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            threads[name].append(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapper

    pools = []

    class RecordingPool(pl.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(pl, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(retriever, "filter_topk",
                        recording("filter_topk", retriever.filter_topk))
    monkeypatch.setattr(pl, "assemble_text", recording("assemble_text", pl.assemble_text))
    monkeypatch.setattr(ChatClient, "complete", recording("complete", ChatClient.complete))
    caller = threading.get_ident()

    cfg = _config(tmp_path, corpus_path)
    cfg.max_inflight = 4
    pl.cmd_ingest(cfg)
    pl.cmd_extract(cfg)
    pl.cmd_train_retriever(cfg)
    pl.cmd_answer(cfg, "test", "kg")
    pl.cmd_answer(cfg, "test", "vanilla")
    # 10 extraction requests (train and test) and 10 answers; only vanilla
    # answering assembles text, for its 5 documents; all on the caller
    assert len(threads["complete"]) == 20
    assert (len(threads["filter_topk"]), len(threads["assemble_text"])) == (5, 5)
    assert set(threads["complete"]) == set(threads["filter_topk"]) \
        == set(threads["assemble_text"]) == {caller}
    assert pools == []

    for calls in threads.values():
        calls.clear()
    cfg = _http_chat_config(tmp_path, corpus_path, subdir="http")
    cfg.max_inflight = 4
    monkeypatch.setattr(llm_client, "http_transport", _chat_server(corpus_path))
    pl.cmd_ingest(cfg)
    pl.cmd_extract(cfg)
    pl.cmd_train_retriever(cfg)
    pl.cmd_answer(cfg, "test", "kg")
    pl.cmd_answer(cfg, "test", "vanilla")
    assert len(threads["complete"]) == 20
    assert caller not in threads["complete"]
    assert (len(threads["filter_topk"]), len(threads["assemble_text"])) == (5, 5)
    assert set(threads["filter_topk"]) == set(threads["assemble_text"]) == {caller}
    # one pool per split for extract, and one for each answer's chat requests
    assert pools == [{"max_workers": 4}] * 4


def test_predictions_do_not_depend_on_the_worker_count(tmp_path, corpus_path, monkeypatch):
    """An http-served mock, on one worker thread or four, writes the in-process
    mock's bytes."""
    from finkgqa import llm_client

    inline = _config(tmp_path, corpus_path, subdir="in-process")
    _run_all(inline)
    monkeypatch.setattr(llm_client, "http_transport", _chat_server(corpus_path))
    for workers in (1, 4):
        cfg = _http_chat_config(tmp_path, corpus_path, subdir=f"workers-{workers}")
        cfg.max_inflight = workers
        _run_all(cfg)
        for name in ("triplets_train.jsonl", "triplets_test.jsonl",
                     "predictions_test_vanilla.jsonl", "predictions_test_kg.jsonl"):
            served, in_process = (Path(c.output_dir, name).read_bytes() for c in (cfg, inline))
            assert served == in_process, (workers, name)


@pytest.mark.parametrize("reply, error", [
    ((503, {"error": "overloaded"}), "503"),  # LlmUnavailable
    ((200, chat_response("ANSWER: 1", finish_reason="length")), "max_tokens"),  # LlmTruncated
], ids=["unavailable", "truncated"])
def test_failed_request_fails_only_its_question(tmp_path, corpus_path, corpus_docs,
                                                monkeypatch, reply, error):
    clean = _config(tmp_path, corpus_path, subdir="clean")
    pl.cmd_ingest(clean)
    pl.cmd_answer(clean, "test", "vanilla")

    cfg = _config(tmp_path, corpus_path)
    cfg.chat.max_retries = 0
    pl.cmd_ingest(cfg)
    failed = corpus_docs[1]
    monkeypatch.setattr(pl, "MockChatTransport", _failing_for(failed.question.text, reply))
    assert pl.cmd_answer(cfg, "test", "vanilla") == {"answered": 4, "n_errors": 1}

    lines, clean_lines = _answer_lines(cfg, "vanilla"), _answer_lines(clean, "vanilla")
    assert len(lines) == 5
    entry = json.loads(lines.pop(1))
    assert entry["doc_id"] == failed.id
    assert entry["answer"] == ""
    assert error in entry["error"]
    clean_lines.pop(1)
    assert lines == clean_lines  # every other line keeps its bytes

    summary = pl.cmd_evaluate(cfg, "test", "vanilla")
    assert (summary["n"], summary["n_errors"], summary["n_missing"]) == (5, 1, 0)
    assert summary["accuracy"] == pytest.approx(0.8)
    verdicts = [json.loads(line) for line in
                pl.verdicts_path(cfg, "test", "vanilla").read_text().splitlines()]
    assert verdicts[1]["verdict"] == "ERROR"
    assert verdicts[1]["judge_used"] == "NONE"
    assert [v["verdict"] for v in verdicts].count("CORRECT") == 4


def test_retrieval_with_http_embeddings_runs_on_the_workers(tmp_path, corpus_path,
                                                           monkeypatch):
    import threading

    from finkgqa import llm_client, retriever

    cfg = _http_embeddings_config(tmp_path, corpus_path)
    requests: list[int] = []
    monkeypatch.setattr(llm_client, "http_transport", _embeddings_server(requests))
    pl.cmd_ingest(cfg)
    pl.cmd_extract(cfg)
    pl.cmd_train_retriever(cfg)

    scored: list[int] = []

    def recording(*args, **kwargs):
        scored.append(threading.get_ident())
        return filter_topk(*args, **kwargs)

    filter_topk = retriever.filter_topk
    monkeypatch.setattr(retriever, "filter_topk", recording)
    cfg.cache_dir = str(tmp_path / "cold-cache")  # every embeddings request is sent
    requests.clear()
    assert pl.cmd_answer(cfg, "test", "kg") == {"answered": 5, "n_errors": 0}
    # Scoring waits on the embeddings requests, so it runs where they may overlap.
    assert len(scored) == 5
    assert requests
    assert threading.get_ident() not in scored + requests


TOKEN_FREE = "¿—?"  # the local embedder finds no token in it


def _with_question(tmp_path: Path, corpus: Path, index: int, question: str) -> Path:
    """A copy of the corpus whose record `index` asks `question`."""
    records = json.loads(corpus.read_text(encoding="utf-8"))
    records[index]["qa"]["question"] = question
    path = tmp_path / f"with-question-{index}.json"
    path.write_text(json.dumps(records), encoding="utf-8")
    return path


@pytest.mark.parametrize("failure", ["request", "token-free"])
def test_failed_embeddings_request_fails_only_its_question(failure, tmp_path, corpus_path,
                                                          corpus_docs, monkeypatch):
    """A 503 from the embeddings server, or a question with no token for the
    local embedder, fails that question's line alone."""
    from finkgqa import llm_client

    if failure == "request":
        cfg = _http_embeddings_config(tmp_path, corpus_path)
        monkeypatch.setattr(llm_client, "http_transport", _embeddings_server([]))
    else:
        cfg = _config(tmp_path, corpus_path)
    pl.cmd_ingest(cfg)
    pl.cmd_extract(cfg)
    pl.cmd_train_retriever(cfg)
    pl.cmd_answer(cfg, "test", "kg")
    clean_lines = _answer_lines(cfg, "kg")

    failed = corpus_docs[2]
    if failure == "request":
        cfg.cache_dir = str(tmp_path / "cold-cache")  # the question's embedding is not cached
        monkeypatch.setattr(llm_client, "http_transport",
                            _embeddings_server([], failing_text=failed.question.text))
        reason = "503"
    else:
        # only the test split asks it, so the model is the clean run's
        cfg.data["test"] = str(_with_question(tmp_path, corpus_path, 2, TOKEN_FREE))
        pl.cmd_ingest(cfg)
        reason = "no tokens"
    assert pl.cmd_answer(cfg, "test", "kg") == {"answered": 4, "n_errors": 1}
    assert pl.cmd_evaluate(cfg, "test", "kg")["n_errors"] == 1

    lines = _answer_lines(cfg, "kg")
    entry = json.loads(lines.pop(2))
    assert entry["doc_id"] == failed.id
    assert (entry["answer"], entry["retrieved"], entry["prompt"]) == ("", [], "")
    assert reason in entry["error"]
    clean_lines.pop(2)
    assert lines == clean_lines


def test_token_free_training_question_leaves_out_only_its_document(tmp_path, corpus_path,
                                                                    corpus_docs, caplog):
    clean = _config(tmp_path, corpus_path, subdir="clean")
    pl.cmd_ingest(clean)
    pl.cmd_extract(clean)
    clean_summary = pl.cmd_train_retriever(clean)

    cfg = _config(tmp_path, _with_question(tmp_path, corpus_path, 2, TOKEN_FREE))
    pl.cmd_ingest(cfg)
    pl.cmd_extract(cfg)
    with caplog.at_level("WARNING"):
        summary = pl.cmd_train_retriever(cfg)

    failed = corpus_docs[2].id
    manifest = [json.loads(line) for line in
                pl.manifest_path(cfg).read_text(encoding="utf-8").splitlines()]
    clean_manifest = [json.loads(line) for line in
                      pl.manifest_path(clean).read_text(encoding="utf-8").splitlines()]
    assert manifest == [m for m in clean_manifest if m["doc_id"] != failed]
    assert summary["pairs"] == len(manifest) < clean_summary["pairs"]
    assert [r.getMessage() for r in caplog.records if failed in r.getMessage()]
    assert pl.model_path(cfg).exists()


def test_failed_extraction_request_fails_only_its_chunk(tmp_path, corpus_path, corpus_docs,
                                                        monkeypatch):
    clean = _config(tmp_path, corpus_path, subdir="clean")
    pl.cmd_ingest(clean)
    pl.cmd_extract(clean)

    cfg = _config(tmp_path, corpus_path)
    cfg.chat.max_retries = 0
    pl.cmd_ingest(cfg)
    failed = corpus_docs[1]
    monkeypatch.setattr(pl, "MockChatTransport", _failing_for(failed.pre_text[0]))
    counts = pl.cmd_extract(cfg)
    # the failing document is in both splits: one failed request for each
    assert counts == {"triplets": {"train": 10, "test": 10}, "n_errors": 2}

    lines = pl.triplets_path(cfg, "test").read_text(encoding="utf-8").splitlines()
    clean_lines = pl.triplets_path(clean, "test").read_text(encoding="utf-8").splitlines()
    assert lines == [l for l in clean_lines if json.loads(l)["source_doc"] != failed.id]
    rejected = [json.loads(l) for l in
                pl.rejected_path(cfg, "test").read_text(encoding="utf-8").splitlines()]
    assert [(r["doc_id"], r["violations"]) for r in rejected] == \
        [(failed.id, ["LlmUnavailable"])]
    assert rejected[0]["fragment"].startswith(failed.pre_text[0])


def test_cli_extract_exits_1_when_a_request_failed(tmp_path, corpus_path, corpus_docs,
                                                   capsys, monkeypatch):
    config = str(_write_cli_config(tmp_path, corpus_path))
    assert cli.main(["ingest", "--config", config]) == 0
    monkeypatch.setattr(pl, "MockChatTransport", _failing_for(corpus_docs[0].pre_text[0]))
    capsys.readouterr()
    assert cli.main(["extract", "--config", config,
                     "--set", "providers.chat.max_retries=0"]) == 1
    assert json.loads(capsys.readouterr().out)["n_errors"] == 2
    for name in ("triplets_test.jsonl", "rejected_test.jsonl"):
        assert (tmp_path / "out" / name).exists()


def test_failed_extract_keeps_the_earlier_stores(tmp_path, corpus_path, monkeypatch):
    """An exception part-way through the split leaves both earlier files byte
    for byte and no temp file, though each document's lines are written as it
    finishes."""
    cfg = _config(tmp_path, corpus_path)
    cfg.data = {"test": str(corpus_path)}
    pl.cmd_ingest(cfg)
    pl.cmd_extract(cfg)
    paths = [pl.triplets_path(cfg, "test"), pl.rejected_path(cfg, "test")]
    before = [p.read_bytes() for p in paths]
    extract = pl.DocumentExtractor.extract
    calls = []

    def failing_third(self, doc):
        calls.append(doc.id)
        if len(calls) == 3:
            raise RuntimeError("extractor failed")
        return extract(self, doc)

    monkeypatch.setattr(pl.DocumentExtractor, "extract", failing_third)
    with pytest.raises(RuntimeError, match="extractor failed"):
        pl.cmd_extract(cfg)
    assert len(calls) == 3
    assert [p.read_bytes() for p in paths] == before
    assert list(Path(cfg.output_dir).glob("*.tmp")) == []


def test_ingest_skips_a_null_record_and_the_cli_exits_1(tmp_path, corpus_path, capsys):
    records = json.loads(corpus_path.read_text())
    corpus = tmp_path / "with_null.json"
    corpus.write_text(json.dumps(records[:2] + [None] + records[2:]))
    config = str(_write_cli_config(tmp_path, corpus))
    assert cli.main(["ingest", "--config", config]) == 1
    assert json.loads(capsys.readouterr().out) == \
        {"ingested": {"train": 5, "test": 5}, "n_errors": 2}
    lines = (tmp_path / "out" / "documents_test.jsonl").read_text().splitlines()
    assert [json.loads(line)["id"] for line in lines] == [r["id"] for r in records]


def test_only_ingest_warns_of_a_skipped_record(tmp_path, corpus_path, caplog):
    """The mock reads its answer key from the same file, but does not repeat
    `ingest`'s warning for a record it skips."""
    records = json.loads(corpus_path.read_text())
    corpus = tmp_path / "with_null.json"
    corpus.write_text(json.dumps(records[:2] + [None] + records[2:]))
    cfg = _config(tmp_path, corpus)
    cfg.data = {"test": str(corpus)}
    pl._read_answer_key.cache_clear()  # a memoised key would hide a second read
    with caplog.at_level("WARNING"):
        pl.cmd_ingest(cfg)
        pl.cmd_extract(cfg)
        pl.build_chat_client(cfg.chat, None)
    skips = [r.getMessage() for r in caplog.records if "skipping record" in r.getMessage()]
    assert skips == [f"skipping record 2 of {corpus}: a NoneType, not an object"]


def test_only_ingest_warns_of_a_padded_table_row(tmp_path, corpus_path, caplog):
    """The mock's answer key parses the same raw file, but does not repeat
    `ingest`'s warning for a table row it pads."""
    records = json.loads(corpus_path.read_text())
    records[1]["table"][1] = records[1]["table"][1][:-1]  # one short row
    corpus = tmp_path / "short_row.json"
    corpus.write_text(json.dumps(records))
    cfg = _config(tmp_path, corpus)
    cfg.data = {"test": str(corpus)}
    pl._read_answer_key.cache_clear()  # a memoised key would hide a second read
    padded = f"doc {records[1]['id']}: padding short table row 0 (1 -> 2 cells)"
    with caplog.at_level("WARNING"):
        pl.cmd_ingest(cfg)
        assert [r.getMessage() for r in caplog.records] == [padded]
        caplog.clear()
        pl.cmd_extract(cfg)
    assert [r.getMessage() for r in caplog.records if "table row" in r.getMessage()] == []


# ---------------------------------------------------------------------------
# Config handling


def test_config_from_file_with_relative_paths(tmp_path, corpus_path):
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({
        "seed": 99,
        "data": {"train": corpus_path.name, "test": str(corpus_path)},
        "output_dir": "artifacts",
        "providers": {
            "chat": {"kind": "mock", "answer_key": str(corpus_path)},
            "embeddings": {"kind": "local", "dim": 128},
        },
        "retriever": {"k": 5, "epochs": 7},
        "extraction": {"backend": "table"},
    }))
    (tmp_path / corpus_path.name).write_text(corpus_path.read_text())

    cfg = pl.PipelineConfig.from_file(config_file)
    assert cfg.seed == 99
    assert cfg.data["train"] == str(tmp_path / corpus_path.name)
    assert cfg.output_dir == str(tmp_path / "artifacts")
    assert cfg.chat.kind == "mock"
    assert cfg.embeddings.dim == 128
    assert cfg.retriever_k == 5
    assert cfg.epochs == 7
    assert cfg.extraction_backend == "table"


def test_config_file_empty_split_is_skipped(tmp_path, corpus_path):
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({
        "data": {"dev": "", "test": str(corpus_path)},
        "output_dir": "out",
    }))
    cfg = pl.PipelineConfig.from_file(config_file)
    assert cfg.data["dev"] == ""
    assert list(pl.cmd_ingest(cfg)["ingested"]) == ["test"]


# Field names that are no config key, and provider keys that no client of their role reads.
FLAT_SPELLINGS = ("retriever_k", "epochs", "max_inflight", "extraction_backend",
                  "prompt_asset", *(f"{role}.{f.name}" for role in ("chat", "embeddings", "judge")
                                    for f in fields(pl.ProviderConfig)))
NO_EFFECT_KEYS = ("providers.judge.temperature", "providers.embeddings.temperature",
                  "providers.embeddings.max_tokens", "providers.embeddings.answer_key",
                  "providers.embeddings.scramble", "providers.judge.answer_key",
                  "providers.judge.scramble", "providers.chat.dim", "providers.judge.dim")


def test_overrides_reject_unknown_keys(tmp_path):
    cfg = pl.PipelineConfig()
    assert len(FLAT_SPELLINGS) == 38
    for key in ("no.such.key", "retriever.mode", "retriever.threshold", "data.holdout",
                "retriever.hidden_size", "extraction.chunk_chars", "report.baseline_label",
                "seed.real", "chat.kind.upper", "providers.seed", "providers", "data",
                "providers.chat", *FLAT_SPELLINGS, *NO_EFFECT_KEYS):
        with pytest.raises(KeyError, match=re.escape(key)):
            pl.apply_overrides(cfg, {key: "1"})
    assert cfg == pl.PipelineConfig()
    for key in ("retriever.k", "providers.chat.temperature"):
        with pytest.raises(ValueError, match=key):
            pl.apply_overrides(cfg, {key: "abc"})
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({"data": {"tset": "test.json"}}))
    with pytest.raises(KeyError, match="data.tset"):
        pl.PipelineConfig.from_file(config_file)


def test_overrides_check_value_types(tmp_path):
    """A config file's values and --set strings pass the same check, by the
    type of the field they replace."""
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({"retriever": {"k": 2.7}}))
    with pytest.raises(ValueError, match="retriever.k"):
        pl.PipelineConfig.from_file(config_file)
    cfg = pl.PipelineConfig()
    for key, value in (("retriever.k", "1.5"), ("retriever.k", True), ("seed", "true"),
                       ("providers.chat.scramble", "ture"), ("providers.chat.scramble", 1),
                       ("providers.chat.temperature", False), ("output_dir", 5),
                       ("data.test", 3)):
        with pytest.raises(ValueError, match=key):
            pl.apply_overrides(cfg, {key: value})
    assert cfg == pl.PipelineConfig()

    pl.apply_overrides(cfg, {"retriever.k": "3", "extraction.max_inflight": 2,
                             "providers.chat.temperature": "1", "providers.judge.timeout": 5})
    assert (cfg.retriever_k, cfg.max_inflight) == (3, 2)
    assert (cfg.chat.temperature, cfg.judge.timeout) == (1.0, 5.0)
    assert type(cfg.chat.temperature) is type(cfg.judge.timeout) is float
    for word, expected in (("On", True), ("false", False), ("1", True), ("no", False),
                           ("yes", True), ("off", False), (True, True)):
        pl.apply_overrides(cfg, {"providers.chat.scramble": word})
        assert cfg.chat.scramble is expected


def test_cli_config_errors_print_one_line(tmp_path, capsys):
    """A bad key, a bad value or an unreadable config file is a usage error:
    one line on stderr and exit status 2, no traceback."""
    not_json = tmp_path / "not_json.json"
    not_json.write_text("{\"seed\": 1,")
    a_list = tmp_path / "list.json"
    a_list.write_text("[1]")
    missing = tmp_path / "missing.json"
    cases = [(["--set", "retriever_k=5"], "unknown config key: retriever_k"),
             (["--set", "retriever.k=five"], "config key retriever.k needs int, got 'five'"),
             (["--set", "retriever.k"], "--set expects key=value, got 'retriever.k'"),
             (["--config", str(missing)], f"No such file or directory: '{missing}'"),
             (["--config", str(not_json)], f"config file {not_json} is not JSON: "),
             (["--config", str(a_list)], f"config file {a_list} holds no JSON object")]
    for extra, message in cases:
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["ingest", "--output-dir", str(tmp_path / "out"), *extra])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: finkgqa") and "Traceback" not in err
        last = err.rstrip("\n").splitlines()[-1]
        assert last.startswith("finkgqa: error: ") and message in last, (extra, last)
    assert not (tmp_path / "out").exists()


def test_readme_config_tables_list_every_accepted_key():
    """The README documents exactly the 35 keys `apply_overrides` accepts."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("Every config key", 1)[1].split("Everything else is fixed", 1)[0]
    documented = [key for line in section.splitlines()
                  if line.startswith("| `")
                  for key in re.findall(r"`([^`]+)`", line.split("|")[1])]
    assert len(documented) == len(set(documented)) == 35
    assert set(documented) == set(pl.CONFIG_KEYS) | {f"data.{s}" for s in pl.SPLITS}
    for key in documented:  # a known key refuses a value of no config type; an unknown one
        with pytest.raises(ValueError, match=re.escape(key)):  # would raise KeyError first
            pl.apply_overrides(pl.PipelineConfig(), {key: object()})


def test_out_of_range_provider_setting_fails_when_the_client_is_built(tmp_path, corpus_path):
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({
        "data": {"test": str(corpus_path)},
        "output_dir": "out",
        "providers": {"chat": {"kind": "mock", "temperature": 3.0}},
    }))
    cfg = pl.PipelineConfig.from_file(config_file)
    with pytest.raises(ValueError, match="temperature"):
        pl.cmd_answer(cfg, "test", "vanilla")
    assert not pl.predictions_path(cfg, "test", "vanilla").exists()
    with pytest.raises(ValueError, match="max_retries"):
        cli.main(["answer", "--config", str(config_file), "--mode", "vanilla",
                  "--set", "providers.chat.temperature=0.5",
                  "--set", "providers.chat.max_retries=-1"])


def test_artifact_writers_sharing_a_path_do_not_collide(tmp_path, race):
    """Four threads rewrite one artifact at once: no writer fails, the file
    holds one writer's whole text and no temp file is left."""
    path = pl.documents_path(pl.PipelineConfig(output_dir=str(tmp_path / "out")), "test")
    texts = [f"writer {i}\n" * 50 for i in range(4)]

    def writer(i):
        for _ in range(200):
            pl.write_atomic(path, texts[i])

    assert race(writer) == []
    assert path.read_text(encoding="utf-8") in texts
    assert list(path.parent.glob("*.tmp")) == []


def test_table_backend_runs_without_chat_provider(tmp_path, corpus_path):
    cfg = _config(tmp_path, corpus_path)
    cfg.extraction_backend = "table"
    pl.cmd_ingest(cfg)
    counts = pl.cmd_extract(cfg)
    assert counts == {"triplets": {"train": 12, "test": 12}, "n_errors": 0}


def test_table_backend_replaces_an_earlier_rejected_file(tmp_path, corpus_path, corpus_docs,
                                                         monkeypatch):
    """Every extract run writes both files, so no earlier run's rejections stay
    beside a new triplet store."""
    cfg = _config(tmp_path, corpus_path)
    cfg.chat.max_retries = 0
    pl.cmd_ingest(cfg)
    monkeypatch.setattr(pl, "MockChatTransport", _failing_for(corpus_docs[0].pre_text[0]))
    assert pl.cmd_extract(cfg)["n_errors"] == 2
    assert pl.rejected_path(cfg, "test").read_text(encoding="utf-8")
    cfg.extraction_backend = "table"
    assert pl.cmd_extract(cfg)["n_errors"] == 0
    assert pl.rejected_path(cfg, "test").read_text(encoding="utf-8") == ""


def test_truncated_extraction_chunk_counts_as_an_error(tmp_path, corpus_path, monkeypatch):
    """A one-sentence chunk whose reply is still cut at max_tokens is lost like
    one whose request failed, and counts in n_errors the same way."""
    cfg = _config(tmp_path, corpus_path)
    pl.cmd_ingest(cfg)
    truncated = (200, chat_response("[", finish_reason="length"))
    monkeypatch.setattr(pl, "MockChatTransport", _failing_for("ATTRIBUTE REQUIREMENTS",
                                                              truncated))
    counts = pl.cmd_extract(cfg)
    lost = 0
    for split in ("train", "test"):
        rejected = [json.loads(l) for l in
                    pl.rejected_path(cfg, split).read_text(encoding="utf-8").splitlines()]
        assert rejected and all(r["violations"] == ["LlmTruncated"] for r in rejected)
        lost += len(rejected)
    assert counts == {"triplets": {"train": 0, "test": 0}, "n_errors": lost}


# ---------------------------------------------------------------------------
# CLI entry point


def _write_cli_config(tmp_path, corpus_path) -> Path:
    config_file = tmp_path / "cli-config.json"
    config_file.write_text(json.dumps({
        "seed": 17,
        "data": {"train": str(corpus_path), "test": str(corpus_path)},
        "output_dir": str(tmp_path / "out"),
        "cache_dir": str(tmp_path / "cache"),
        "providers": {"chat": {"kind": "mock", "answer_key": str(corpus_path)}},
    }))
    return config_file


def test_cli_six_commands(tmp_path, corpus_path, capsys):
    config = str(_write_cli_config(tmp_path, corpus_path))
    assert cli.main(["ingest", "--config", config]) == 0
    assert cli.main(["extract", "--config", config]) == 0
    assert cli.main(["train-retriever", "--config", config]) == 0
    assert cli.main(["answer", "--config", config, "--split", "test", "--mode", "kg"]) == 0
    assert cli.main(["evaluate", "--config", config, "--split", "test", "--mode", "kg"]) == 0
    assert cli.main(["report", "--config", config,
                     "--baseline", "51.93", "--treatment", "58.34"]) == 0
    out = capsys.readouterr().out
    assert '"accuracy": 1.0' in out
    assert "+6.41" in out
    assert (tmp_path / "out" / "report.txt").exists()
    # a scrambled run's 0% baseline leaves the relative delta undefined
    assert cli.main(["report", "--config", config, "--baseline", "0", "--treatment", "0"]) == 0
    treatment = (tmp_path / "out" / "report.txt").read_text().splitlines()[2]
    assert treatment.split()[-2:] == ["+0.00", "-"]


def test_cli_answer_exits_1_when_a_request_failed(tmp_path, corpus_path, corpus_docs,
                                                  capsys, monkeypatch):
    config = str(_write_cli_config(tmp_path, corpus_path))
    assert cli.main(["ingest", "--config", config]) == 0
    monkeypatch.setattr(pl, "MockChatTransport", _failing_for(corpus_docs[0].question.text))
    capsys.readouterr()
    assert cli.main(["answer", "--config", config, "--mode", "vanilla",
                     "--set", "providers.chat.max_retries=0"]) == 1
    assert json.loads(capsys.readouterr().out)["n_errors"] == 1
    assert (tmp_path / "out" / "predictions_test_vanilla.jsonl").exists()


def test_cli_set_overrides(tmp_path, corpus_path, capsys):
    config = str(_write_cli_config(tmp_path, corpus_path))
    assert cli.main(["ingest", "--config", config,
                     "--set", "extraction.backend=table"]) == 0
    assert cli.main(["extract", "--config", config,
                     "--set", "extraction.backend=table"]) == 0
    out = capsys.readouterr().out
    assert '"triplets"' in out
    one_doc = tmp_path / "one_doc.json"
    one_doc.write_text(json.dumps(json.loads(corpus_path.read_text())[:1]))
    assert cli.main(["ingest", "--config", config, "--set", f"data.test={one_doc}"]) == 0
    assert json.loads(capsys.readouterr().out)["ingested"]["test"] == 1


def test_cli_report_accepts_summary_files(tmp_path, corpus_path, capsys):
    config = str(_write_cli_config(tmp_path, corpus_path))
    cli.main(["ingest", "--config", config])
    cli.main(["extract", "--config", config])
    cli.main(["train-retriever", "--config", config])
    cli.main(["answer", "--config", config, "--mode", "vanilla"])
    cli.main(["answer", "--config", config, "--mode", "kg"])
    cli.main(["evaluate", "--config", config, "--mode", "vanilla"])
    cli.main(["evaluate", "--config", config, "--mode", "kg"])
    capsys.readouterr()
    assert cli.main(["report", "--config", config,
                     "--baseline", "eval_test_vanilla.json",
                     "--treatment", "eval_test_kg.json"]) == 0
    table = capsys.readouterr().out
    assert "Llama (vanilla)" in table and "Llama + KG" in table


def test_unknown_judge_kind_fails_instead_of_judging_by_rules(tmp_path, corpus_path):
    cfg = _config(tmp_path, corpus_path)
    pl.cmd_ingest(cfg)
    pl.cmd_answer(cfg, "test", "vanilla")
    cfg.judge = pl.ProviderConfig(kind="HTTP")
    with pytest.raises(ValueError, match="HTTP"):
        pl.cmd_evaluate(cfg, "test", "vanilla")
    assert not pl.eval_summary_path(cfg, "test", "vanilla").exists()


def test_truncated_judge_reply_scores_one_judge_error(tmp_path, corpus_path, monkeypatch):
    from finkgqa import llm_client

    cfg = _config(tmp_path, corpus_path)
    pl.cmd_ingest(cfg)
    pl.cmd_answer(cfg, "test", "vanilla")
    # The first document gets a phrase for gold and for answer, so the LLM judge is asked.
    store = pl.documents_path(cfg, "test")
    records = [json.loads(line) for line in store.read_text(encoding="utf-8").splitlines()]
    records[0]["qa"].update(answer="up twenty percent", exe_ans=None)
    store.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    preds = pl.predictions_path(cfg, "test", "vanilla")
    lines = [json.loads(line) for line in preds.read_text(encoding="utf-8").splitlines()]
    lines[0]["answer"] = "grew by a fifth"
    preds.write_text("".join(json.dumps(e) + "\n" for e in lines), encoding="utf-8")
    cfg.judge = pl.ProviderConfig(kind="http", endpoint="http://judge", model="j",
                                  max_retries=0)
    monkeypatch.setattr(llm_client, "http_transport", lambda url, payload, headers, timeout:
                        (200, chat_response("YES", finish_reason="length")))

    summary = pl.cmd_evaluate(cfg, "test", "vanilla")
    assert (summary["n"], summary["correct"], summary["n_errors"]) == (5, 4, 0)
    verdicts = [json.loads(line) for line in
                pl.verdicts_path(cfg, "test", "vanilla").read_text().splitlines()]
    assert (verdicts[0]["verdict"], verdicts[0]["judge_used"]) == ("JUDGE_ERROR", "LLM")
    assert [v["verdict"] for v in verdicts[1:]] == ["CORRECT"] * 4


def test_missing_predictions_count_as_incorrect(tmp_path, corpus_path):
    cfg = _config(tmp_path, corpus_path)
    pl.cmd_ingest(cfg)
    pl.cmd_answer(cfg, "test", "vanilla")
    preds = pl.predictions_path(cfg, "test", "vanilla")
    lines = preds.read_text(encoding="utf-8").splitlines(keepends=True)
    assert len(lines) == 5
    preds.write_text(lines[0], encoding="utf-8")  # 1 of 5 questions answered

    summary = pl.cmd_evaluate(cfg, "test", "vanilla")
    assert summary["accuracy"] == pytest.approx(0.2)
    assert summary["n"] == 5
    assert summary["n_missing"] == 4
    assert summary["correct"] == 1
    verdicts = [json.loads(line) for line in
                pl.verdicts_path(cfg, "test", "vanilla").read_text().splitlines()]
    assert [v["verdict"] for v in verdicts] == ["CORRECT"] + ["MISSING"] * 4


def _evaluate_edited(tmp_path, corpus_path, edit) -> tuple[dict, list[dict]]:
    """Evaluate the vanilla predictions after `edit` has rewritten their lines."""
    cfg = _config(tmp_path, corpus_path)
    pl.cmd_ingest(cfg)
    pl.cmd_answer(cfg, "test", "vanilla")
    preds = pl.predictions_path(cfg, "test", "vanilla")
    preds.write_text("".join(edit(preds.read_text(encoding="utf-8").splitlines(keepends=True))),
                     encoding="utf-8")
    summary = pl.cmd_evaluate(cfg, "test", "vanilla")
    verdicts = [json.loads(line) for line in
                pl.verdicts_path(cfg, "test", "vanilla").read_text().splitlines()]
    return summary, verdicts


def test_zero_exe_ans_with_empty_answer_scores_correct(tmp_path, corpus_path):
    records = json.loads(corpus_path.read_text())
    records[0]["qa"].update(answer="", exe_ans=0)
    corpus = tmp_path / "zero.json"
    corpus.write_text(json.dumps(records))
    summary, verdicts = _evaluate_edited(tmp_path, corpus, lambda lines: lines)
    assert verdicts[0]["gold"] == "0"
    assert verdicts[0]["verdict"] == "CORRECT"
    assert (summary["n"], summary["correct"]) == (5, 5)


def test_repeated_prediction_line_is_scored_once(tmp_path, corpus_path, corpus_docs):
    def repeat_first_with_a_wrong_answer(lines):
        return lines + [json.dumps({**json.loads(lines[0]), "answer": "-1"}) + "\n"]

    summary, verdicts = _evaluate_edited(tmp_path, corpus_path, repeat_first_with_a_wrong_answer)
    assert (summary["n"], summary["correct"], summary["n_missing"]) == (5, 5, 0)
    assert [v["doc_id"] for v in verdicts] == [doc.id for doc in corpus_docs]


def test_prediction_for_unknown_id_is_not_scored(tmp_path, corpus_path, corpus_docs, caplog):
    def add_a_stray(lines):
        return [json.dumps({**json.loads(lines[0]), "doc_id": "not-in-split"}) + "\n"] + lines

    with caplog.at_level("WARNING", logger=pl.logger.name):
        summary, verdicts = _evaluate_edited(tmp_path, corpus_path, add_a_stray)
    assert (summary["n"], summary["correct"], summary["n_missing"]) == (5, 5, 0)
    assert [v["doc_id"] for v in verdicts] == [doc.id for doc in corpus_docs]
    warnings = [r.getMessage() for r in caplog.records
                if r.name == pl.logger.name and r.levelname == "WARNING"]
    assert len(warnings) == 1 and "1 of 6 prediction lines" in warnings[0]


@pytest.mark.parametrize("bad_line", [
    "{not json", "null", "[1, 2]", '"text"', '{"answer": "50"}',
    '{"doc_id": ["beta-industries-change"], "answer": "50"}',
], ids=["not-json", "null", "array", "string", "no-doc-id", "list-doc-id"])
def test_malformed_prediction_line_costs_only_its_document(tmp_path, corpus_path, bad_line):
    def break_second(lines):
        return [lines[0], bad_line + "\n", *lines[2:]]

    summary, verdicts = _evaluate_edited(tmp_path, corpus_path, break_second)
    assert (summary["n"], summary["correct"], summary["n_missing"]) == (5, 4, 1)
    assert [v["verdict"] for v in verdicts] == ["CORRECT", "MISSING"] + ["CORRECT"] * 3
