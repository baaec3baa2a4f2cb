import sys
import threading
from pathlib import Path

import pytest
from hypothesis import settings

from finkgqa.llm_client import ChatClient, MockChatTransport, ProviderConfig
from finkgqa.preprocess import load_split

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS = FIXTURES / "fin_sample.json"

# `pytest --hypothesis-profile ci` runs every property test on ten times the
# default examples; CI's embedder step uses it. No deadline: a slow runner
# must not fail an example that is only slow.
settings.register_profile("ci", max_examples=1000, deadline=None)


@pytest.fixture(scope="session")
def corpus_path() -> Path:
    return CORPUS


@pytest.fixture(scope="session")
def corpus_docs():
    return load_split(CORPUS)


@pytest.fixture(scope="session")
def answer_key(corpus_docs) -> dict:
    return {doc.question.text: doc.question.gold_answer for doc in corpus_docs}


@pytest.fixture()
def mock_client(answer_key):
    transport = MockChatTransport(answer_key=answer_key)
    cfg = ProviderConfig(model="mock-chat", endpoint="http://mock.invalid")
    return ChatClient(cfg, transport=transport)


@pytest.fixture()
def race():
    """Runs `target(i)` for i in range(n) in n threads at once, switching
    threads as often as the interpreter allows; returns what they raised."""
    def run(target, n=4):
        errors = []

        def guarded(i):
            try:
                target(i)
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=guarded, args=(i,)) for i in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        return errors

    return run
