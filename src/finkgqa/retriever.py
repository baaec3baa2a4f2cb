"""Question/triplet relevance filter: engineered features into a small MLP.

Features combine semantic signals (question embedding, triplet embedding,
their cosine) with structural ones (temporal distance, metric-token overlap,
company and unit flags). The two-layer network is trained from scratch with
weighted binary cross-entropy and Adam updates; everything is seeded and
bit-reproducible.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
import re
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

import numpy as np

from .embedding import DimensionMismatch
from .kg_schema import Triplet
from .llm_client import write_atomic
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


def _parts(question: QuestionRecord, triplets: list[Triplet], provider
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(q, numerators, denominators, T, S): `feature_parts` and the triplet
    embeddings T = numerators / denominators, which cos_sim needs."""
    q = provider.embed(question.text)
    dim = q.shape[0]
    S = np.empty((len(triplets), N_STRUCTURAL), dtype=np.float64)
    if not triplets:
        return q, np.empty((0, dim)), np.empty(0), np.empty((0, dim)), S
    numerators, denominators = provider.embed_fractions([t.text() for t in triplets])
    if numerators.shape[1] != dim:
        raise DimensionMismatch(f"question dim {dim} vs triplet dim {numerators.shape[1]}")
    T = numerators / denominators[:, None]
    q_year = question_year(question.text)
    q_lower = question.text.lower()
    q_tokens = set(_WORD_RE.findall(q_lower))

    # One dot product per row, as vecdot runs np.dot's kernel on each row: a
    # batched T @ q sums in another order and changes the low bits of the features.
    S[:, 0] = np.clip(np.vecdot(T, q), -1.0, 1.0)
    t_years = np.array([t.period.year for t in triplets], dtype=np.float64)  # None -> nan
    gap = np.abs(t_years - (np.nan if q_year is None else q_year))
    missing = np.isnan(gap)
    S[:, 1] = np.where(missing, TEMPORAL_CAP, np.minimum(gap, TEMPORAL_CAP))
    S[:, 2] = missing
    overlap = {m: metric_overlap(m, q_tokens) for m in {t.metric_type for t in triplets}}
    S[:, 3] = [overlap[t.metric_type] for t in triplets]
    S[:, 4] = [bool(t.company) and t.company.lower() in q_lower for t in triplets]
    S[:, 5] = ["percent" in t.unit.lower() for t in triplets]
    return q, numerators, denominators, T, S


def feature_parts(question: QuestionRecord, triplets: list[Triplet], provider
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """`build_features` rows for one question as (q, numerators, denominators, S).

    Row i is [q | numerators[i] / denominators[i] | S[i]]: q is the question
    embedding, the quotient is candidate i's embedding, from one
    `provider.embed_fractions` call, and S holds its STRUCTURAL_COLUMNS. The
    question-side work (embedding, year, tokens) is done once.
    """
    q, numerators, denominators, _, S = _parts(question, triplets, provider)
    return q, numerators, denominators, S


def build_features(question: QuestionRecord, triplets: list[Triplet],
                   provider) -> np.ndarray:
    """Feature rows for one question against its candidates, in input order.

    Each row is [question embedding, triplet embedding, STRUCTURAL_COLUMNS],
    from the parts `feature_parts` returns.
    """
    q, _, _, T, S = _parts(question, triplets, provider)
    dim = q.shape[0]
    X = np.empty((len(S), feature_dim(dim)), dtype=np.float64)
    X[:, :dim] = q
    X[:, dim:2 * dim] = T
    X[:, 2 * dim:] = S
    return X


class GroupedFeatures:
    """`build_features` rows of many questions, kept as `feature_parts`.

    Row i is [Q[doc[i]] | N[i] / D[i] | S[i]]: Q holds one question embedding
    per group of rows, doc maps each row to its group, and the triplet
    embedding stays the embedder's fraction. The local embedder's numerators
    are signed bucket counts, so N takes the narrowest signed integer dtype
    that holds every group's counts (widened when a later group needs more).
    At dim 256 with int8 counts a row is about 320 bytes (dim + 8·8: the
    counts, its denominator, STRUCTURAL_COLUMNS and doc), plus 8·dim per
    group, against 8·(2·dim+6) = 4,144 when dense. The rows are exact:
    indexing divides N by D as the embedder does, so `train` sees the
    float64 values of the dense matrix. It gathers into a reused scratch
    buffer, which the next index overwrites.

    Groups are appended one at a time, so a caller that streams its
    candidates need not know their number. Each array grows in place
    (`ndarray.resize` reallocates it) by at least a quarter of its length,
    so the rows are never held twice; rows past `shape[0]` are spare room.
    """

    def __init__(self):
        self.doc = np.empty(0, dtype=np.intp)
        self.D = np.empty(0)
        self.S = np.empty((0, N_STRUCTURAL))
        self.Q = self.N = self._buf = None
        self._groups = self._rows = 0

    def append(self, q: np.ndarray, numerators: np.ndarray, denominators: np.ndarray,
               S: np.ndarray) -> None:
        """Add one group's `feature_parts`, of at least one row. The first group
        sets the dimension, because an http embedder chooses its own."""
        if self.Q is None:
            self.Q = np.empty((0, q.shape[0]))
            self.N = np.empty((0, q.shape[0]), dtype=numerators.dtype)
            self._buf = np.empty((0, feature_dim(q.shape[0])))
        if q.shape[0] != self.Q.shape[1]:
            raise DimensionMismatch(f"group {self._groups} has dim {q.shape[0]}, "
                                    f"the first group {self.Q.shape[1]}")
        dtype = np.promote_types(self.N.dtype, numerators.dtype)
        if dtype != self.N.dtype:
            self.N = self.N.astype(dtype)
        j, start, end = self._groups, self._rows, self._rows + len(S)
        if j == len(self.Q):
            _grow(self.Q, j + 1)
        if end > len(self.doc):
            for array in (self.doc, self.N, self.D, self.S):
                _grow(array, end)
        self.Q[j] = q
        self.doc[start:end] = j
        self.N[start:end] = numerators
        self.D[start:end] = denominators
        self.S[start:end] = S
        self._groups, self._rows = j + 1, end

    @property
    def shape(self) -> tuple[int, int]:
        return self._rows, self._buf.shape[1]

    def __getitem__(self, rows: np.ndarray) -> np.ndarray:
        if len(rows) > len(self._buf):
            self._buf = np.empty((len(rows), self.shape[1]))
        out = self._buf[:len(rows)]
        dim = self.Q.shape[1]
        out[:, :dim] = self.Q[self.doc[rows]]
        np.divide(self.N[rows], self.D[rows, None], out=out[:, dim:2 * dim])
        out[:, 2 * dim:] = self.S[rows]
        return out


def _grow(array: np.ndarray, n: int) -> None:
    """Resize `array` in place to at least n rows, and by at least a quarter.
    The reference check is off, as the caller's own references would fail it:
    no view of a `GroupedFeatures` array outlives the call that made it."""
    array.resize((max(n, len(array) + len(array) // 4), *array.shape[1:]), refcheck=False)


_PARAMS = ("W1", "b1", "W2", "b2")


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
    """Logistic function; exp never overflows because its argument is -|z|."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _forward(m: MlpModel, X: np.ndarray):
    """(pre-activations Z1, hidden layer H, scores s strictly inside (0, 1))."""
    Z1 = X @ m.W1.T + m.b1
    H = np.maximum(Z1, 0.0)
    z2 = H @ m.W2 + m.b2
    return Z1, H, np.clip(_sigmoid(z2), SCORE_EPS, 1.0 - SCORE_EPS)


def forward_batch(m: MlpModel, X: np.ndarray) -> np.ndarray:
    """Score each row of X; every score lies strictly inside (0, 1)."""
    if X.shape[1] != m.input_dim:
        raise DimensionMismatch(f"input dim {X.shape[1]} != model dim {m.input_dim}")
    return _forward(m, X)[2]


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
                       positive_weight: float = 1.0, out: dict | None = None):
    """Backprop through the weighted BCE; returns (loss, grads per parameter).

    The gradients are float64 arrays shaped like W1, b1, W2 and b2 (0-d),
    written into `out`'s arrays when it is given, else into new ones.
    """
    n = X.shape[0]
    Z1, H, s = _forward(m, X)
    loss = bce_loss(s, y, positive_weight)
    if out is None:
        out = {name: np.empty(np.shape(getattr(m, name))) for name in _PARAMS}

    # d(loss)/d(z2) for the weighted BCE, averaged over the batch.
    dz2 = ((1.0 - y) * s - positive_weight * y * (1.0 - s)) / n
    np.matmul(H.T, dz2, out=out["W2"])
    out["b2"][...] = dz2.sum()
    dH = np.outer(dz2, m.W2)
    dZ1 = dH * (Z1 > 0)
    np.matmul(dZ1.T, X, out=out["W1"])
    dZ1.sum(axis=0, out=out["b1"])
    return loss, out


def train(X: np.ndarray | GroupedFeatures, y: np.ndarray,
          cfg: TrainConfig) -> tuple[MlpModel, list[float]]:
    """Seeded mini-batch training with Adam-style moment estimates.

    X is a float64 (n_pairs, feature_dim) array or a `GroupedFeatures`; only
    `X.shape` and `X[rows]` are used. Identical (data, config) produces a
    bit-identical model; the returned history holds the mean per-sample loss
    of each epoch.
    """
    y = np.asarray(y, dtype=np.float64)
    classes = set(np.unique(y).tolist())
    if not {0.0, 1.0} <= classes:
        raise DegenerateData(f"need both classes, got labels {sorted(classes)}")

    model = init_model(X.shape[1], cfg.hidden_size, cfg.seed)
    rng = np.random.default_rng(cfg.seed + 1)

    beta1, beta2, eps = 0.9, 0.999, 1e-8
    lr = cfg.learning_rate
    # The parameters, their gradients, first and second moments, and two
    # scratch buffers are six flat buffers; each parameter is a view into the
    # first, so one Adam step is 14 in-place calls over all four parameters,
    # in the operation order of the textbook form
    # p - (lr * m1_hat) / (sqrt(m2_hat) + eps).
    shapes = [np.shape(getattr(model, name)) for name in _PARAMS]
    sizes = [math.prod(shape) for shape in shapes]
    p, g, m1, m2, a, b = (np.zeros(sum(sizes)) for _ in range(6))

    def views(flat: np.ndarray) -> dict[str, np.ndarray]:
        parts = np.split(flat, np.cumsum(sizes)[:-1])
        return {name: part.reshape(shape) for name, part, shape in zip(_PARAMS, parts, shapes)}

    for name, view in views(p).items():
        view[...] = getattr(model, name)
        setattr(model, name, view)  # b2 is 0-d while training
    grads = views(g)
    step = 0

    history: list[float] = []
    n = X.shape[0]
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            loss, _ = loss_and_gradients(model, X[batch], y[batch], cfg.positive_weight,
                                         out=grads)
            epoch_loss += loss * len(batch)
            step += 1
            bias1, bias2 = 1 - beta1 ** step, 1 - beta2 ** step
            np.multiply(m1, beta1, out=m1)
            np.multiply(g, 1 - beta1, out=a)
            np.add(m1, a, out=m1)
            np.multiply(m2, beta2, out=m2)
            np.multiply(g, 1 - beta2, out=b)
            np.multiply(b, g, out=b)
            np.add(m2, b, out=m2)
            np.divide(m1, bias1, out=a)
            np.multiply(a, lr, out=a)
            np.divide(m2, bias2, out=b)
            np.sqrt(b, out=b)
            np.add(b, eps, out=b)
            np.divide(a, b, out=a)
            np.subtract(p, a, out=p)
        history.append(epoch_loss / n)
    model.b2 = float(model.b2)
    return model, history


_NUMBER_TOKEN_RE = re.compile(r"[-+]?\d[\d,]*(?:\.\d+)?")


def _sentence_index(sentence: str) -> tuple[frozenset[Decimal], frozenset[int]]:
    """A gold sentence's number tokens (digit grouping dropped) as Decimals, and its years."""
    numbers = _NUMBER_TOKEN_RE.findall(sentence)
    return (frozenset(Decimal(tok.replace(",", "")) for tok in numbers),
            frozenset(int(y) for y in _YEAR_RE.findall(sentence)))


def label_triplets(doc: FinDocument, triplets: list[Triplet]) -> list[int]:
    """Weak labels from the gold supporting facts.

    A triplet is positive when its value (plain or digit-grouped) appears as a
    number token in a supporting sentence whose years do not contradict the
    triplet's period; everything else is negative.
    """
    index = [_sentence_index(s) for s in (doc.question.gold_inds if doc.question else ())]
    labels = []
    for t in triplets:
        # Decimal equality, so "5.0" matches "5"; a non-finite value (a signalling
        # NaN cannot even be hashed) matches no token.
        value, year = t.value, t.period.year
        positive = value.is_finite() and any(
            value in values and (year is None or not years or year in years)
            for values, years in index)
        labels.append(1 if positive else 0)
    return labels


def score(question: QuestionRecord, triplets: list[Triplet], model: MlpModel,
          provider) -> np.ndarray:
    """Relevance score of every candidate, in input order, from one forward pass."""
    if not triplets:
        return np.empty(0)
    return forward_batch(model, build_features(question, triplets, provider))


def filter_topk(question: QuestionRecord, triplets: list[Triplet], model: MlpModel,
                provider, k: int) -> list[tuple[Triplet, float]]:
    """The k best-scoring triplets, descending; ties break on ascending id."""
    if k <= 0:
        return []
    scores = score(question, triplets, model, provider)
    return sorted(((t, float(s)) for t, s in zip(triplets, scores)),
                  key=lambda pair: (-pair[1], pair[0].triplet_id))[:k]


def save_model(model: MlpModel, path: str | Path) -> None:
    """Write the model as one JSON object, W1, b1 and W2 each as base64 of its
    little-endian float64 bytes in C order: bit-exact (NaN payloads included),
    and no float is printed on save or parsed on load."""
    doc = {"input_dim": model.input_dim, "hidden_size": model.hidden_size,
           "seed": model.seed}
    for name in ("W1", "b1", "W2"):
        raw = np.asarray(getattr(model, name), dtype="<f8").tobytes()
        doc[name] = base64.b64encode(raw).decode("ascii")
    doc["b2"] = model.b2
    write_atomic(Path(path), json.dumps(doc))


def load_model(path: str | Path) -> MlpModel:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    hidden, width = int(doc["hidden_size"]), int(doc["input_dim"])
    arrays = {}
    for name, shape in (("W1", (hidden, width)), ("b1", (hidden,)), ("W2", (hidden,))):
        blob = doc[name]
        if not isinstance(blob, str):
            raise DimensionMismatch(
                f"{name} in {Path(path).name} is not packed float64 (a model from an "
                "older release); re-run `train-retriever`")
        try:
            raw = base64.b64decode(blob, validate=True)
        except binascii.Error as exc:
            raise DimensionMismatch(f"{name} in {Path(path).name} is not base64: {exc}") from None
        n_bytes = 8 * math.prod(shape)
        if len(raw) != n_bytes:
            raise DimensionMismatch(f"{name} holds {len(raw)} bytes, not the "
                                    f"{n_bytes} of shape {shape}")
        # astype copies into a writable array of the native byte order
        arrays[name] = np.frombuffer(raw, "<f8").astype(np.float64).reshape(shape)
    return MlpModel(**arrays, b2=float(doc["b2"]), seed=int(doc.get("seed", 0)))
