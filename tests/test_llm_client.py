import http.server
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import finkgqa
from finkgqa.llm_client import (
    ChatClient,
    LlmTruncated,
    LlmUnavailable,
    MockChatTransport,
    ProviderConfig,
    ResponseCache,
    chat_response,
)


class _ScriptedHandler(http.server.BaseHTTPRequestHandler):
    """Replays a scripted list of (status, body) responses and records requests."""

    script: list = []
    requests: list = []

    def do_POST(self):
        n = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(n))
        type(self).requests.append({"path": self.path,
                                    "auth": self.headers.get("Authorization"),
                                    "payload": payload})
        status, body = self.script.pop(0) if self.script else (200, chat_response("ok"))
        blob = json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def log_message(self, *args):
        pass


@pytest.fixture()
def scripted_server():
    handler = type("Handler", (_ScriptedHandler,), {"script": [], "requests": []})
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}", handler
    server.shutdown()
    server.server_close()


def _cfg(endpoint, **kw):
    defaults = dict(model="test-model", endpoint=endpoint, max_retries=3, timeout=5.0)
    defaults.update(kw)
    return ProviderConfig(**defaults)


def test_wire_format_and_passthrough(scripted_server, monkeypatch):
    url, handler = scripted_server
    monkeypatch.setenv("FINKGQA_API_KEY", "sekrit")
    handler.script.append((200, chat_response('{"fixed": "json"}')))
    text = ChatClient(_cfg(url)).complete("hello there")
    assert text == '{"fixed": "json"}'

    sent = handler.requests[0]
    assert sent["path"] == "/chat/completions"
    assert sent["auth"] == "Bearer sekrit"
    assert sent["payload"]["model"] == "test-model"
    assert sent["payload"]["messages"] == [{"role": "user", "content": "hello there"}]
    assert sent["payload"]["temperature"] == 0.2
    assert sent["payload"]["max_tokens"] == 2048


def test_retries_survive_two_500s(scripted_server, monkeypatch):
    sleeps = []
    monkeypatch.setattr("time.sleep", sleeps.append)
    url, handler = scripted_server
    handler.script.extend([(500, {}), (500, {}), (200, chat_response("finally"))])
    client = ChatClient(_cfg(url))
    assert client.complete("retry me") == "finally"
    assert len(handler.requests) == 3
    assert sleeps == [0.5, 1.0]


def test_unavailable_after_retry_budget(scripted_server, monkeypatch):
    sleeps = []
    monkeypatch.setattr("time.sleep", sleeps.append)
    url, handler = scripted_server
    handler.script.extend([(500, {})] * 4)
    with pytest.raises(LlmUnavailable):
        ChatClient(_cfg(url, max_retries=2)).complete("never works")
    assert len(handler.requests) == 3  # initial try + 2 retries
    assert sleeps == [0.5, 1.0]


def test_truncated_response_raises(scripted_server):
    url, handler = scripted_server
    handler.script.append((200, chat_response("partial...", finish_reason="length")))
    with pytest.raises(LlmTruncated):
        ChatClient(_cfg(url)).complete("long doc")


def test_cache_hit_makes_zero_network_calls(scripted_server, tmp_path):
    url, handler = scripted_server
    handler.script.append((200, chat_response("cached answer")))
    cache = ResponseCache(tmp_path)
    client = ChatClient(_cfg(url), cache=cache)

    assert client.complete("same prompt") == "cached answer"
    assert len(handler.requests) == 1
    assert client.complete("same prompt") == "cached answer"
    assert len(handler.requests) == 1

    # one cache file holding request, response, timestamp
    files = list(tmp_path.glob("*.json"))
    assert len(files) == 1
    entry = json.loads(files[0].read_text())
    assert set(entry) == {"request", "response", "timestamp"}


def test_cache_key_sensitive_to_prompt_bytes(scripted_server, tmp_path):
    url, handler = scripted_server
    handler.script.extend([(200, chat_response("a")), (200, chat_response("b"))])
    client = ChatClient(_cfg(url), cache=ResponseCache(tmp_path))
    client.complete("prompt one")
    client.complete("prompt one ")  # one extra byte forces a fresh call
    assert len(handler.requests) == 2


def test_cache_key_includes_model_and_temperature():
    k1 = ResponseCache.key_for({"prompt": "p", "model": "m", "temperature": 0.2})
    k2 = ResponseCache.key_for({"prompt": "p", "model": "m2", "temperature": 0.2})
    k3 = ResponseCache.key_for({"prompt": "p", "model": "m", "temperature": 0.0})
    assert len({k1, k2, k3}) == 3


def test_config_invariants():
    for bad in ({"temperature": 3.0}, {"temperature": -0.1}, {"max_tokens": 0},
                {"max_retries": -1}):
        with pytest.raises(ValueError):
            ChatClient(_cfg("http://x", **bad))


# ---------------------------------------------------------------------------
# Mock transport


def test_mock_transport_reasoning_answers(answer_key):
    transport = MockChatTransport(answer_key=answer_key)
    client = ChatClient(_cfg("http://mock.invalid"), transport=transport)
    question = "what was the net revenue of alpha corp in 2021?"
    text = client.complete(f"Facts:\n(none)\n\nQuestion: {question}\n\nANSWER: <value>")
    assert text.endswith("ANSWER: 120")


def test_mock_transport_scramble_changes_answers(answer_key):
    straight = MockChatTransport(answer_key=answer_key)
    scrambled = MockChatTransport(answer_key=answer_key, scramble=True)
    prompt = "Question: was the EPS of epsilon labs greater in 2021 than in 2020?\nANSWER: <v>"
    ok = ChatClient(_cfg("http://mock.invalid"), transport=straight).complete(prompt)
    bad = ChatClient(_cfg("http://mock.invalid"), transport=scrambled).complete(prompt)
    assert ok.endswith("ANSWER: yes")
    assert bad.endswith("ANSWER: no")


def test_mock_transport_counts_calls(answer_key, tmp_path):
    transport = MockChatTransport(answer_key=answer_key)
    client = ChatClient(_cfg("http://mock.invalid"), cache=ResponseCache(tmp_path),
                        transport=transport)
    client.complete("Question: q?\nANSWER: <v>")
    client.complete("Question: q?\nANSWER: <v>")
    assert transport.calls == 1


# ---------------------------------------------------------------------------
# Cache correctness


def _scripted(*bodies):
    """Transport replaying (200, body) responses in order and counting calls."""
    sent = []

    def transport(url, payload, headers, timeout):
        sent.append(payload)
        return 200, bodies[len(sent) - 1]

    return transport, sent


def test_truncated_response_is_not_cached(tmp_path):
    transport, sent = _scripted(chat_response("partial", finish_reason="length"),
                                chat_response("complete"))
    client = ChatClient(_cfg("http://x", max_tokens=10), cache=ResponseCache(tmp_path),
                        transport=transport)
    with pytest.raises(LlmTruncated):
        client.complete("long doc")
    assert list(tmp_path.glob("*.json")) == []
    assert client.complete("long doc") == "complete"
    assert len(sent) == 2


def test_malformed_body_is_not_cached(tmp_path):
    transport, sent = _scripted({"unexpected": "shape"}, chat_response("fine"))
    client = ChatClient(_cfg("http://x"), cache=ResponseCache(tmp_path),
                        transport=transport)
    with pytest.raises(LlmUnavailable):
        client.complete("prompt")
    assert client.complete("prompt") == "fine"
    assert len(sent) == 2


def test_cache_key_covers_max_tokens(tmp_path):
    transport, sent = _scripted(chat_response("short"), chat_response("long"))
    cache = ResponseCache(tmp_path)
    short = ChatClient(_cfg("http://x", max_tokens=10), cache=cache, transport=transport)
    long = ChatClient(_cfg("http://x", max_tokens=1000), cache=cache, transport=transport)
    assert short.complete("prompt") == "short"
    assert long.complete("prompt") == "long"
    assert [p["max_tokens"] for p in sent] == [10, 1000]
    assert short.complete("prompt") == "short"
    assert len(sent) == 2  # the repeat was served from the cache


def test_second_endpoint_misses_the_first_endpoints_entries(tmp_path):
    """Two endpoints serving one model name are different providers; a trailing
    slash names the same one."""
    transport, sent = _scripted(chat_response("from a"), chat_response("from b"))
    cache = ResponseCache(tmp_path)

    def client(endpoint):
        return ChatClient(_cfg(endpoint, kind="http"), cache=cache, transport=transport)

    assert client("http://a.invalid/v1").complete("prompt") == "from a"
    assert client("http://b.invalid/v1").complete("prompt") == "from b"
    assert client("http://a.invalid/v1/").complete("prompt") == "from a"
    assert len(sent) == 2
    # the identity is hashed into the entry name, not sent
    assert sent[0] == sent[1]


def test_unreadable_cache_entry_is_a_miss(tmp_path, caplog):
    transport, sent = _scripted(chat_response("first"), chat_response("second"))
    client = ChatClient(_cfg("http://x"), cache=ResponseCache(tmp_path),
                        transport=transport)
    client.complete("prompt")
    [entry] = tmp_path.glob("*.json")
    entry.write_text(entry.read_text()[:20], encoding="utf-8")  # truncated file

    with caplog.at_level("WARNING", logger="finkgqa.llm_client"):
        assert client.complete("prompt") == "second"
    assert len(sent) == 2
    assert "unreadable cache entry" in caplog.text
    assert client.complete("prompt") == "second"
    assert len(sent) == 2  # rewritten by the fresh call, so this one hits the cache


def test_importing_the_cli_leaves_the_http_client_unloaded():
    # The mock chat provider and the local embedder send no request, so
    # `requests` is imported by `http_transport` on the first one instead.
    env = dict(os.environ)
    src = str(Path(finkgqa.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, finkgqa.cli; print('requests' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "False"


def test_two_caches_put_one_key_concurrently(tmp_path, race):
    """Two caches on one directory (as two processes sharing a cache dir would
    be) write the same entry at once; every put lands and no temp file is left."""
    caches = [ResponseCache(tmp_path), ResponseCache(tmp_path)]
    key = ResponseCache.key_for({"prompt": "shared"})
    written = [chat_response(f"writer {i}") for i in range(4)]

    def writer(i):
        for _ in range(200):
            caches[i % 2].put(key, {"prompt": "shared"}, written[i])

    assert race(writer) == []
    assert caches[0].get(key) in written
    assert list(tmp_path.glob("*.tmp")) == []
