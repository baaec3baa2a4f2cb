"""Question/triplet relevance filter: engineered features into a small MLP.

Features combine semantic signals (question embedding, triplet embedding,
their cosine) with structural ones (temporal distance, metric-token overlap,
company and unit flags). The two-layer network is trained from scratch with
weighted binary cross-entropy and Adam updates; everything is seeded and
bit-reproducible.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .embedding import DimensionMismatch, cosine
from .kg_schema import Triplet, render_decimal
from .preprocess import FinDocument, QuestionRecord

TEMPORAL_CAP = 10.0
SCORE_EPS = 1e-12
LOSS_CLAMP = 1e-7


class LengthMismatch(ValueError):
    """Scores and labels differ in length."""


class DegenerateData(ValueError):
    """Training data contains a single class."""


STRUCTURAL_COLUMNS = ("cos_sim", "temporal_distance", "temporal_missing",
                      "metric_overlap", "company_match", "unit_is_percent")
N_STRUCTURAL = len(STRUCTURAL_COLUMNS)


def feature_dim(embedding_dim: int) -> int:
    return 2 * embedding_dim + N_STRUCTURAL


_YEAR_RE = re.compile(r"\b(19\d{2}|20\d{2}|2100)\b")
_WORD_RE = re.compile(r"[a-z0-9]+")


def question_year(text: str) -> int | None:
    """First four-digit year token in the question, if any."""
    m = _YEAR_RE.search(text)
    return int(m.group(0)) if m else None


def metric_overlap(metric_type: str, question_tokens: set[str]) -> float:
    """Jaccard overlap of the metric's `_`-separated tokens and the question's words."""
    metric_tokens = {t for t in metric_type.lower().split("_") if t}
    if not metric_tokens and not question_tokens:
        return 0.0
    union = metric_tokens | question_tokens
    return len(metric_tokens & question_tokens) / len(union)


def build_features(question: QuestionRecord, triplets: list[Triplet],
                   provider) -> np.ndarray:
    """Feature rows for one question against its candidates, in input order.

    Each row is [question embedding, triplet embedding, STRUCTURAL_COLUMNS].
    The question-side work (embedding, year, tokens) is done once.
    """
    q_emb = provider.embed(question.text)
    q_year = question_year(question.text)
    q_lower = question.text.lower()
    q_tokens = set(_WORD_RE.findall(q_lower))
    dim = q_emb.dim

    X = np.empty((len(triplets), feature_dim(dim)), dtype=np.float64)
    X[:, :dim] = q_emb.values
    for i, triplet in enumerate(triplets):
        t_emb = provider.embed(triplet.text())
        # One dot product per row: a batched T @ q sums in another order and
        # changes the low bits of the features.
        cos_sim = cosine(q_emb, t_emb)
        t_year = triplet.period.year
        if q_year is None or t_year is None:
            distance, missing = TEMPORAL_CAP, 1.0
        else:
            distance, missing = min(abs(q_year - t_year), TEMPORAL_CAP), 0.0
        company = triplet.company
        X[i, dim:2 * dim] = t_emb.values
        X[i, 2 * dim:] = (
            cos_sim,
            distance,
            missing,
            metric_overlap(triplet.metric_type, q_tokens),
            1.0 if company and company.lower() in q_lower else 0.0,
            1.0 if "percent" in triplet.unit.lower() else 0.0,
        )
    return X


@dataclass
class MlpModel:
    """Two-layer perceptron: ReLU hidden layer, sigmoid output."""

    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: float
    seed: int = 0

    @property
    def input_dim(self) -> int:
        return int(self.W1.shape[1])

    @property
    def hidden_size(self) -> int:
        return int(self.W1.shape[0])


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 20
    batch_size: int = 64
    seed: int = 13
    hidden_size: int = 64
    positive_weight: float = 1.0

    def __post_init__(self):
        for name in ("learning_rate", "epochs", "batch_size", "hidden_size",
                     "positive_weight"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")


def init_model(input_dim: int, hidden_size: int, seed: int) -> MlpModel:
    """Uniform init in +/- sqrt(6 / (fan_in + fan_out)) from a seeded generator."""
    rng = np.random.default_rng(seed)
    lim1 = np.sqrt(6.0 / (input_dim + hidden_size))
    lim2 = np.sqrt(6.0 / (hidden_size + 1))
    return MlpModel(
        W1=rng.uniform(-lim1, lim1, size=(hidden_size, input_dim)),
        b1=np.zeros(hidden_size),
        W2=rng.uniform(-lim2, lim2, size=hidden_size),
        b2=0.0,
        seed=seed,
    )


def _sigmoid(z):
    return np.where(z >= 0, 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500))),
                    np.exp(np.clip(z, -500, 500)) / (1.0 + np.exp(np.clip(z, -500, 500))))


def forward_batch(m: MlpModel, X: np.ndarray) -> np.ndarray:
    """Score each row of X; every score lies strictly inside (0, 1)."""
    if X.shape[1] != m.input_dim:
        raise DimensionMismatch(f"input dim {X.shape[1]} != model dim {m.input_dim}")
    Z1 = X @ m.W1.T + m.b1
    H = np.maximum(Z1, 0.0)
    z2 = H @ m.W2 + m.b2
    return np.clip(_sigmoid(z2), SCORE_EPS, 1.0 - SCORE_EPS)


def bce_loss(scores, labels, positive_weight: float = 1.0) -> float:
    """Mean weighted binary cross-entropy with scores clamped away from 0 and 1."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if s.shape != y.shape or s.size == 0:
        raise LengthMismatch(f"{s.shape} scores vs {y.shape} labels")
    s = np.clip(s, LOSS_CLAMP, 1.0 - LOSS_CLAMP)
    per_sample = -(positive_weight * y * np.log(s) + (1.0 - y) * np.log(1.0 - s))
    return float(per_sample.mean())


def loss_and_gradients(m: MlpModel, X: np.ndarray, y: np.ndarray,
                       positive_weight: float = 1.0):
    """Backprop through the weighted BCE; returns (loss, grads per parameter)."""
    n = X.shape[0]
    Z1 = X @ m.W1.T + m.b1
    H = np.maximum(Z1, 0.0)
    z2 = H @ m.W2 + m.b2
    s = np.clip(_sigmoid(z2), SCORE_EPS, 1.0 - SCORE_EPS)
    loss = bce_loss(s, y, positive_weight)

    # d(loss)/d(z2) for the weighted BCE, averaged over the batch.
    dz2 = ((1.0 - y) * s - positive_weight * y * (1.0 - s)) / n
    dW2 = H.T @ dz2
    db2 = float(dz2.sum())
    dH = np.outer(dz2, m.W2)
    dZ1 = dH * (Z1 > 0)
    dW1 = dZ1.T @ X
    db1 = dZ1.sum(axis=0)
    return loss, {"W1": dW1, "b1": db1, "W2": dW2, "b2": db2}


def train(X: np.ndarray, y: np.ndarray, cfg: TrainConfig) -> tuple[MlpModel, list[float]]:
    """Seeded mini-batch training with Adam-style moment estimates.

    Identical (data, config) produces a bit-identical model; the returned
    history holds the mean per-sample loss of each epoch.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    classes = set(np.unique(y).tolist())
    if not {0.0, 1.0} <= classes:
        raise DegenerateData(f"need both classes, got labels {sorted(classes)}")

    model = init_model(X.shape[1], cfg.hidden_size, cfg.seed)
    rng = np.random.default_rng(cfg.seed + 1)

    beta1, beta2, eps = 0.9, 0.999, 1e-8
    model.b2 = np.asarray(model.b2)  # 0-d while training, so one update fits all
    names = ("W1", "b1", "W2", "b2")
    m1 = {name: np.zeros_like(getattr(model, name)) for name in names}
    m2 = {name: np.zeros_like(getattr(model, name)) for name in names}
    step = 0

    history: list[float] = []
    n = X.shape[0]
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            loss, grads = loss_and_gradients(model, X[batch], y[batch],
                                             cfg.positive_weight)
            epoch_loss += loss * len(batch)
            step += 1
            for name in names:
                g = grads[name]
                m1[name] = beta1 * m1[name] + (1 - beta1) * g
                m2[name] = beta2 * m2[name] + (1 - beta2) * g * g
                m1_hat = m1[name] / (1 - beta1 ** step)
                m2_hat = m2[name] / (1 - beta2 ** step)
                setattr(model, name, getattr(model, name) - cfg.learning_rate * m1_hat
                        / (np.sqrt(m2_hat) + eps))
        history.append(epoch_loss / n)
    model.b2 = float(model.b2)
    return model, history


_NUMBER_TOKEN_RE = re.compile(r"[-+]?\d[\d,]*(?:\.\d+)?")


def label_triplets(doc: FinDocument, triplets: list[Triplet]) -> list[int]:
    """Weak labels from the gold supporting facts.

    A triplet is positive when its value (plain or digit-grouped) appears as a
    number token in a supporting sentence whose years do not contradict the
    triplet's period; everything else is negative.
    """
    labels = []
    for t in triplets:
        rendered = render_decimal(t.value)
        positive = False
        for sentence in (doc.question.gold_inds if doc.question else ()):
            numbers = {tok.replace(",", "") for tok in _NUMBER_TOKEN_RE.findall(sentence)}
            if rendered not in numbers and not _decimal_in(rendered, numbers):
                continue
            years = {int(y) for y in _YEAR_RE.findall(sentence)}
            if t.period.year is None or not years or t.period.year in years:
                positive = True
                break
        labels.append(1 if positive else 0)
    return labels


def _decimal_in(rendered: str, tokens: set[str]) -> bool:
    from decimal import Decimal, InvalidOperation

    try:
        target = Decimal(rendered)
    except InvalidOperation:
        return False
    for tok in tokens:
        try:
            if Decimal(tok) == target:
                return True
        except InvalidOperation:
            continue
    return False


def score(question: QuestionRecord, triplets: list[Triplet], model: MlpModel,
          provider) -> np.ndarray:
    """Relevance score of every candidate, in input order, from one forward pass."""
    if not triplets:
        return np.empty(0)
    return forward_batch(model, build_features(question, triplets, provider))


def _ranked(pairs) -> list[tuple[Triplet, float]]:
    """Score descending; ties break on ascending triplet id."""
    return sorted(((t, float(s)) for t, s in pairs),
                  key=lambda pair: (-pair[1], pair[0].triplet_id))


def filter_topk(question: QuestionRecord, triplets: list[Triplet], model: MlpModel,
                provider, k: int) -> list[tuple[Triplet, float]]:
    """The k best-scoring triplets, descending; ties break on ascending id."""
    if k <= 0:
        return []
    return _ranked(zip(triplets, score(question, triplets, model, provider)))[:k]


def filter_threshold(question: QuestionRecord, triplets: list[Triplet],
                     model: MlpModel, provider,
                     threshold: float = 0.5) -> list[tuple[Triplet, float]]:
    """Alternative selection mode: keep everything scoring at or above threshold."""
    scores = score(question, triplets, model, provider)
    return _ranked((t, s) for t, s in zip(triplets, scores) if s >= threshold)


def save_model(model: MlpModel, path: str | Path) -> None:
    doc = {
        "input_dim": model.input_dim,
        "hidden_size": model.hidden_size,
        "seed": model.seed,
        "W1": model.W1.tolist(),
        "b1": model.b1.tolist(),
        "W2": model.W2.tolist(),
        "b2": model.b2,
    }
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def load_model(path: str | Path) -> MlpModel:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    model = MlpModel(
        W1=np.asarray(doc["W1"], dtype=np.float64),
        b1=np.asarray(doc["b1"], dtype=np.float64),
        W2=np.asarray(doc["W2"], dtype=np.float64),
        b2=float(doc["b2"]),
        seed=int(doc.get("seed", 0)),
    )
    if model.W1.shape != (doc["hidden_size"], doc["input_dim"]) \
            or model.b1.shape != (doc["hidden_size"],) \
            or model.W2.shape != (doc["hidden_size"],):
        raise DimensionMismatch("model file dimensions are inconsistent")
    return model
