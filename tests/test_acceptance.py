"""Acceptance suite: one test per release criterion, each printing a PASS line
with its elapsed time and asserting the criterion's runtime budget.
"""

import hashlib
import os
import random
import time
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from finkgqa import pipeline as pl
from finkgqa.evaluator import (
    DivideByZero,
    compare_runs,
    execute_program,
    numbers_equivalent,
    parse_program,
)
from finkgqa.kg_schema import (
    Period,
    PeriodKind,
    UNKNOWN_PERIOD,
    make_triplet,
    normalize_period,
    parse_triplets_file,
    serialize_triplets,
)
from finkgqa.retriever import (
    TrainConfig,
    bce_loss,
    forward_batch,
    init_model,
    loss_and_gradients,
    train,
)
from triplet_reference import validate_triplet


class _Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, \
                f"{self.name} took {elapsed:.2f}s (budget {self.seconds}s)"
            print(f"ACCEPTANCE PASS {self.name} ({elapsed:.2f}s)")
        return False


def test_run_comparison_arithmetic():
    with _Budget("run-comparison-arithmetic", 1.0):
        delta = compare_runs(51.93, 58.34)
        assert round(delta["absolute_pp"], 2) == 6.41
        assert round(delta["relative_pct"], 2) == 12.34


def test_judge_rules_fixed_cases():
    with _Budget("judge-rules-fixed-cases", 1.0):
        cases = [
            ("20%", "0.20", True),
            ("$1.2M", "$1,200,000", True),
            ("58.3", "58.34", True),
            ("60", "58.34", False),
        ]
        for pred, gold, expected in cases:
            assert numbers_equivalent(pred, gold) is expected, (pred, gold)
            assert numbers_equivalent(gold, pred) is expected, (gold, pred)


def _oracle_eval(steps):
    def value_of(i):
        op, a, b = steps[i].op, steps[i].arg1, steps[i].arg2
        av = value_of(int(a[1:])) if a.startswith("#") else float(a)
        bv = value_of(int(b[1:])) if b.startswith("#") else float(b)
        return {
            "add": lambda: av + bv,
            "subtract": lambda: av - bv,
            "multiply": lambda: av * bv,
            "divide": lambda: av / bv,
            "exp": lambda: av ** bv,
            "greater": lambda: 1.0 if av > bv else 0.0,
        }[op]()

    return value_of(len(steps) - 1)


def test_executor_matches_independent_evaluator():
    with _Budget("executor-oracle-equivalence", 5.0):
        from finkgqa.evaluator import ProgramStep

        rng = random.Random(90210)
        ops = ["add", "subtract", "multiply", "divide", "exp", "greater"]
        checked = 0
        while checked < 200:
            steps = []
            for i in range(rng.randint(1, 3)):
                op = rng.choice(ops)

                def operand():
                    if i > 0 and rng.random() < 0.4:
                        return f"#{rng.randrange(i)}"
                    return f"{rng.uniform(-9, 9):.2f}"

                a, b = operand(), operand()
                if op == "divide":
                    b = f"{rng.choice([1, -1]) * rng.uniform(0.5, 9):.2f}"
                if op == "exp":
                    a = f"{rng.uniform(0.5, 3):.2f}"
                    b = str(rng.randint(0, 3))
                steps.append(ProgramStep(op, a, b))
            try:
                expected = _oracle_eval(steps)
            except ZeroDivisionError:
                continue
            assert execute_program(steps) == expected
            checked += 1

        with pytest.raises(DivideByZero):
            execute_program(parse_program("divide(5, 0)"))


def test_mlp_gradients_and_training():
    with _Budget("mlp-correctness", 30.0):
        # analytic gradients vs central finite differences, eps = 1e-4
        rng = np.random.default_rng(7)
        for trial in range(10):
            model = init_model(4, 3, seed=trial)
            X = rng.normal(size=(4, 4))
            y = rng.integers(0, 2, size=4).astype(np.float64)
            w = float(rng.uniform(0.5, 2.0))
            _, analytic = loss_and_gradients(model, X, y, w)
            eps = 1e-4

            def loss_at(name, flat_idx, delta):
                probe = {"W1": model.W1.copy(), "b1": model.b1.copy(),
                         "W2": model.W2.copy(), "b2": model.b2}
                if name == "b2":
                    probe["b2"] += delta
                else:
                    arr = probe[name]
                    arr.flat[flat_idx] += delta
                from finkgqa.retriever import MlpModel
                m = MlpModel(**probe)
                scores = forward_batch(m, X)
                return bce_loss(scores, y, w)

            worst = 0.0
            for name in ("W1", "b1", "W2"):
                grad = np.atleast_1d(analytic[name])
                for idx in range(grad.size):
                    fd = (loss_at(name, idx, eps) - loss_at(name, idx, -eps)) / (2 * eps)
                    a = grad.flat[idx]
                    rel = abs(a - fd) / max(abs(a) + abs(fd), 1e-8)
                    worst = max(worst, rel)
            fd = (loss_at("b2", 0, eps) - loss_at("b2", 0, -eps)) / (2 * eps)
            worst = max(worst, abs(analytic["b2"] - fd)
                        / max(abs(analytic["b2"]) + abs(fd), 1e-8))
            assert worst < 1e-4, f"trial {trial}: max relative error {worst:.2e}"

        # seeded training on a 500-point separable set
        gen = np.random.default_rng(21)
        X = gen.uniform(-1, 1, size=(700, 2))
        X = X[np.abs(X[:, 0] + X[:, 1]) > 0.05][:500]
        assert len(X) == 500
        y = (X[:, 0] + X[:, 1] > 0).astype(np.float64)
        cfg = TrainConfig(learning_rate=0.01, epochs=200, batch_size=64,
                          seed=5, hidden_size=8, positive_weight=1.0)
        model, history = train(X, y, cfg)
        scores = forward_batch(model, X)
        accuracy = ((scores >= 0.5) == (y == 1)).mean()
        assert accuracy >= 0.95

        again, history2 = train(X, y, cfg)
        assert history == history2
        assert np.array_equal(model.W1, again.W1)
        assert np.array_equal(model.b1, again.b1)
        assert np.array_equal(model.W2, again.W2)
        assert model.b2 == again.b2


def _random_triplet(rng: random.Random):
    metrics = ["NET_REVENUE", "OPERATING_EXPENSES", "TOTAL_ASSETS", "EPS",
               "TOTAL_RENTAL_EXPENSE", "NET_INCOME", "GROSS_MARGIN"]
    units = ["", "USD", "million USD", "billion USD", "percent", "thousand GBP"]
    companies = [None, "Entergy", "Sysco", "Acme Corp"]
    kind = rng.choice(list(PeriodKind))
    year = rng.randint(1900, 2100)
    if kind is PeriodKind.UNKNOWN:
        period = UNKNOWN_PERIOD
    elif kind is PeriodKind.QUARTER:
        period = Period(kind, year, rng.randint(1, 4))
    else:
        period = Period(kind, year)
    value = Decimal(rng.randint(-10 ** 9, 10 ** 9)) / (10 ** rng.randint(0, 4))
    return make_triplet(rng.choice(metrics), value, rng.choice(units),
                        company=rng.choice(companies), period=period,
                        source_doc=f"doc-{rng.randint(0, 999)}")


def test_schema_round_trips():
    with _Budget("schema-round-trips", 5.0):
        rng = random.Random(451)
        triplets = [_random_triplet(rng) for _ in range(1000)]
        text = serialize_triplets(triplets)
        back = parse_triplets_file(text)
        assert back == triplets
        assert serialize_triplets(back) == text
        for t in back:
            assert validate_triplet(t) == [], t

        canonical_forms = ["2015", "2007-Q4", "AS_OF_2010", "AFTER_2015",
                           "BEFORE_1999", "UNKNOWN"]
        for form in canonical_forms:
            period = normalize_period(form)
            assert period.canonical() == form
            assert normalize_period(period.canonical()) == period


FIXTURE = Path(__file__).parent / "fixtures" / "fin_sample.json"


def _pipeline_config(base: Path, scramble: bool = False) -> pl.PipelineConfig:
    return pl.PipelineConfig(
        seed=17,
        data={"train": str(FIXTURE), "test": str(FIXTURE)},
        output_dir=str(base / "out"),
        cache_dir=str(base / "cache"),
        chat=pl.ProviderConfig(kind="mock", answer_key=str(FIXTURE),
                               scramble=scramble),
    )


def _run_chain(cfg: pl.PipelineConfig) -> dict:
    pl.cmd_ingest(cfg)
    pl.cmd_extract(cfg)
    pl.cmd_train_retriever(cfg)
    pl.cmd_answer(cfg, "test", "vanilla")
    pl.cmd_answer(cfg, "test", "kg")
    vanilla = pl.cmd_evaluate(cfg, "test", "vanilla")
    kg = pl.cmd_evaluate(cfg, "test", "kg")
    pl.cmd_report(cfg, vanilla["accuracy_pct"], kg["accuracy_pct"])
    return kg


def _digests(cfg: pl.PipelineConfig) -> dict:
    out = Path(cfg.output_dir)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def test_end_to_end_determinism(tmp_path):
    with _Budget("end-to-end-determinism", 30.0):
        cfg = _pipeline_config(tmp_path / "perfect")
        kg_summary = _run_chain(cfg)
        first = _digests(cfg)
        assert kg_summary["accuracy"] == 1.0

        kg_again = _run_chain(cfg)  # rerun over warm cache, same directories
        assert _digests(cfg) == first
        assert kg_again == kg_summary

        scrambled = _pipeline_config(tmp_path / "scrambled", scramble=True)
        assert _run_chain(scrambled)["accuracy"] == 0.0


@pytest.mark.skipif(not os.environ.get("FINQA_DATA_DIR"),
                    reason="set FINQA_DATA_DIR to the directory holding "
                           "train.json/dev.json/test.json to run")
def test_dataset_ingestion_counts():
    with _Budget("dataset-ingestion-counts", 60.0):
        from finkgqa.preprocess import load_split

        data_dir = Path(os.environ["FINQA_DATA_DIR"])
        expected = {"train.json": 6251, "dev.json": 883, "test.json": 1147}
        for filename, count in expected.items():
            docs = load_split(data_dir / filename)
            assert len(docs) == count, f"{filename}: {len(docs)} != {count}"
