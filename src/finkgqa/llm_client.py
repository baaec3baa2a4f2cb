"""Remote provider clients: OpenAI-style wire format, disk cache, retries.

One request path serves every remote provider: the chat client behind
extraction, reasoning and the optional answer judge, and the remote embedder.
A deterministic in-process mock transport stands in for the server so the whole
pipeline can run offline and reproducibly.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, TypeVar

logger = logging.getLogger(__name__)

Transport = Callable[[str, dict, dict, float], tuple[int, dict]]
T = TypeVar("T")


class LlmUnavailable(RuntimeError):
    """The provider kept failing after the configured retries, or sent a malformed body."""


class LlmTruncated(RuntimeError):
    """The model stopped at the token limit; the caller may re-chunk."""


RETRY_BACKOFF_S = 0.5  # first retry's wait; each further retry doubles it


@dataclass
class ProviderConfig:
    """One provider's settings, mirroring a `providers.<role>` object of the config file."""

    kind: str = "mock"  # mock | http | local | none
    endpoint: str = ""
    model: str = ""
    api_key_env: str = "FINKGQA_API_KEY"
    temperature: float = 0.2
    max_tokens: int = 2048
    max_retries: int = 3
    timeout: float = 60.0
    dim: int = 256  # local embedder only
    answer_key: str = ""  # mock chat only: corpus file with gold answers
    scramble: bool = False  # mock chat only


def write_atomic(path: Path, text: str) -> None:
    """Write `text` to `path` through a temp name per writer, then rename it into place.

    Writers in other threads or processes may write the same path at once:
    each renames a complete file of its own, so readers never see a partial one.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
    except FileNotFoundError:  # only the first write into a new directory pays for mkdir
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


class ResponseCache:
    """One file per request hash, holding request, response, and timestamp."""

    def __init__(self, cache_dir: str | Path | None):
        self.dir = Path(cache_dir) if cache_dir else None
        if self.dir:
            self.dir.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def key_for(payload: dict) -> str:
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    def get(self, key: str) -> dict | None:
        if not self.dir:
            return None
        path = self.dir / f"{key}.json"
        if not path.exists():
            return None
        try:
            with open(path, encoding="utf-8") as f:
                return json.load(f)["response"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            logger.warning("unreadable cache entry %s treated as a miss: %r", path.name, exc)
            return None

    def put(self, key: str, request: dict, response: dict) -> None:
        if not self.dir:
            return
        entry = {"request": request, "response": response, "timestamp": time.time()}
        write_atomic(self.dir / f"{key}.json", json.dumps(entry, indent=2))


def http_transport(url: str, payload: dict, headers: dict, timeout: float) -> tuple[int, dict]:
    # Imported on the first request: the mock and local providers never send
    # one, and importing `requests` adds megabytes of memory and start-up time.
    import requests

    resp = requests.post(url, json=payload, headers=headers, timeout=timeout)
    try:
        body = resp.json()
    except ValueError:
        body = {"error": resp.text}
    return resp.status_code, body


class ProviderClient:
    """The one request path to a remote provider: cache, retries with backoff, validation.

    Subclasses build a payload and a body parser per call; transport errors
    and 5xx responses are retried, and only a body the parser accepts is
    cached, so a truncated or malformed one is fetched again on the next call.
    """

    def __init__(self, cfg: ProviderConfig, cache: ResponseCache | None = None,
                 transport: Transport | None = None):
        if not 0 <= cfg.temperature <= 2:
            raise ValueError(f"temperature {cfg.temperature} outside [0, 2]")
        if cfg.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        if cfg.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.cfg = cfg
        self.cache = cache or ResponseCache(None)
        self.transport = transport or http_transport

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.cfg.api_key_env, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        return headers

    def _post(self, suffix: str, payload: dict, parse: Callable[[dict], T]) -> T:
        """POST `payload` to the endpoint + `suffix`; an identical payload hits the cache.

        `parse(body)` returns the result or raises on a body it rejects.
        """
        cache_key = ResponseCache.key_for(payload)
        cached = self.cache.get(cache_key)
        if cached is not None:
            return parse(cached)

        url = self.cfg.endpoint.rstrip("/") + suffix
        headers = self._headers()
        attempts = self.cfg.max_retries + 1
        last_error: str | None = None
        for attempt in range(attempts):
            if attempt:
                time.sleep(RETRY_BACKOFF_S * 2 ** (attempt - 1))
            try:
                status, body = self.transport(url, payload, headers, self.cfg.timeout)
            except Exception as exc:
                last_error = repr(exc)
                logger.warning("%s attempt %d failed: %s", url, attempt + 1, last_error)
                continue
            if status >= 500:
                last_error = f"server status {status}"
                logger.warning("%s attempt %d failed: %s", url, attempt + 1, last_error)
                continue
            if status != 200:
                raise LlmUnavailable(f"{url} returned {status}: {body}")
            result = parse(body)
            self.cache.put(cache_key, payload, body)
            return result
        raise LlmUnavailable(f"{url} unreachable after {attempts} attempts: {last_error}")


class ChatClient(ProviderClient):
    """Chat-completions client over the shared cached request path."""

    def complete(self, prompt: str, temperature: float | None = None) -> str:
        """The reply to one user message; an identical request payload hits the cache."""
        temp = self.cfg.temperature if temperature is None else temperature
        payload = {
            "model": self.cfg.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": temp,
            "max_tokens": self.cfg.max_tokens,
        }
        return self._post("/chat/completions", payload, self._reply_text)

    @staticmethod
    def _reply_text(body: dict) -> str:
        try:
            choice = body["choices"][0]
            text = choice["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise LlmUnavailable(f"malformed chat response: {body}") from exc
        if choice.get("finish_reason") == "length":
            raise LlmTruncated("response hit the max_tokens limit")
        return text


def chat_response(text: str, finish_reason: str = "stop") -> dict:
    """Shape a plain string like a chat-completions response body."""
    return {"choices": [{"message": {"role": "assistant", "content": text},
                         "finish_reason": finish_reason}]}


class MockChatTransport:
    """Deterministic stand-in for a chat server, keyed off prompt markers.

    Extraction prompts are answered by re-reading the linearized table
    sentences out of the document section. A reasoning prompt is answered by
    looking its `Question:` line up in a question -> gold-answer key (optionally
    scrambled to force mismatches); a question not in the key, or one that
    spans lines, gets "unknown". Judge prompts get a fixed verdict. Counts
    calls so tests can assert that the cache kept the network cold.
    """

    def __init__(self, answer_key: dict[str, str] | None = None, scramble: bool = False):
        self.answer_key = dict(answer_key or {})
        self.scramble = scramble
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, url: str, payload: dict, headers: dict, timeout: float) -> tuple[int, dict]:
        with self._lock:
            self.calls += 1
        prompt = payload["messages"][-1]["content"]
        if "ATTRIBUTE REQUIREMENTS" in prompt:
            return 200, chat_response(self._extract(prompt))
        if "ANSWER:" in prompt:
            return 200, chat_response(self._answer(prompt))
        return 200, chat_response("YES")

    # Matches the table-linearization template with a numeric-shaped value.
    _FACT_RE = re.compile(
        r"For ([^,]+), (.+?) is "
        r"([$€£]?\(?-?[\d,]+(?:\.\d+)?[KMBkmb]?\)?%?"
        r"(?: (?:million|billion|thousand))?(?: (?:USD|EUR|GBP))?)\."
    )

    def _extract(self, prompt: str) -> str:
        from . import kg_schema

        doc_text = prompt.rsplit("DOCUMENT:", 1)[-1]
        facts = []
        for m in self._FACT_RE.finditer(doc_text):
            row_key, header, cell = m.group(1), m.group(2), m.group(3)
            try:
                metric = kg_schema.canonical_metric(header)
                value = kg_schema.parse_numeric(cell)
            except (kg_schema.NotNumeric, kg_schema.EmptyAfterNormalization):
                continue
            period = kg_schema.normalize_period(row_key)
            facts.append({
                "subject": metric,
                "relation": kg_schema.relation_for_period(period),
                "object": kg_schema.NormalizedValue(value.magnitude, value.unit).render(),
                "financial_metric_entity_type": metric,
                "company": None,
                "period": period.canonical(),
                "value": kg_schema.render_decimal(value.magnitude),
                "unit": value.unit,
            })
        return json.dumps(facts)

    def _answer(self, prompt: str) -> str:
        m = re.search(r"^Question: (.+)$", prompt, flags=re.MULTILINE)
        gold = self.answer_key.get(m.group(1).strip()) if m else None
        if gold is None:
            return "ANSWER: unknown"
        answer = self._scrambled(gold) if self.scramble else gold
        return f"Using the provided context.\nANSWER: {answer}"

    @staticmethod
    def _scrambled(gold: str) -> str:
        from . import kg_schema

        low = gold.strip().lower()
        if low == "yes":
            return "no"
        if low == "no":
            return "yes"
        try:
            value = kg_schema.parse_numeric(gold)
        except kg_schema.NotNumeric:
            return f"not {gold}"
        wrong = value.magnitude * 10 + 13
        return kg_schema.NormalizedValue(wrong, value.unit).render()
