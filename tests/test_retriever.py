import base64
import json
import math
import re
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finkgqa.embedding import DimensionMismatch, LocalHashEmbedder
from finkgqa.kg_schema import Period, PeriodKind, UNKNOWN_PERIOD, make_triplet, render_decimal
from finkgqa.preprocess import QuestionRecord
from finkgqa.retriever import (
    STRUCTURAL_COLUMNS,
    DegenerateData,
    LengthMismatch,
    MlpModel,
    TrainConfig,
    bce_loss,
    feature_dim,
    filter_topk,
    forward_batch,
    init_model,
    label_triplets,
    load_model,
    loss_and_gradients,
    metric_overlap,
    question_year,
    save_model,
    score,
    train,
)

from feature_reference import dense_reference

EMBEDDER = LocalHashEmbedder(dim=32)


def _question(text="what was net revenue in 2020?"):
    return QuestionRecord(text=text, gold_answer="x")


def _triplet(metric="NET_REVENUE", year=2020, unit="", company=None, value="5"):
    period = Period(PeriodKind.ANNUAL, year) if year else UNKNOWN_PERIOD
    return make_triplet(metric, Decimal(value), unit, company=company,
                        period=period, source_doc="d")


# ---------------------------------------------------------------------------
# Features


def _features(question, triplet):
    """The single feature row of one (question, triplet) pair."""
    X = dense_reference(question, [triplet], EMBEDDER)
    assert X.shape == (1, feature_dim(32))
    return X[0]


def _col(row, name):
    return row[2 * 32 + STRUCTURAL_COLUMNS.index(name)]


def test_equal_years_give_zero_distance():
    row = _features(_question(), _triplet(year=2020))
    assert _col(row, "temporal_distance") == 0.0
    assert _col(row, "temporal_missing") == 0.0


def test_missing_year_hits_cap_and_flag():
    row = _features(_question("what is the trend?"), _triplet(year=2020))
    assert _col(row, "temporal_missing") == 1.0
    assert _col(row, "temporal_distance") == 10.0
    row = _features(_question(), _triplet(year=None))
    assert _col(row, "temporal_missing") == 1.0
    assert _col(row, "temporal_distance") == 10.0


def test_distance_capped_at_ten():
    row = _features(_question("value in 1990?"), _triplet(year=2020))
    assert _col(row, "temporal_distance") == 10.0
    assert _col(row, "temporal_missing") == 0.0


def test_metric_overlap_hand_computed():
    # question tokens: what, is, net, revenue, of, alpha, corp, in, 2015 (9)
    # metric tokens: net, revenue; intersection 2, union 9 -> 2/9
    q = "what is net revenue of alpha corp in 2015"
    assert metric_overlap("NET_REVENUE", set(q.split())) == pytest.approx(2 / 9)
    assert metric_overlap("", set()) == 0.0
    assert _col(_features(_question(q), _triplet()), "metric_overlap") == pytest.approx(2 / 9)


def test_company_and_percent_flags():
    row = _features(_question("what did entergy report for 2020?"),
                    _triplet(company="Entergy", unit="percent"))
    assert _col(row, "company_match") == 1.0
    assert _col(row, "unit_is_percent") == 1.0
    row = _features(_question(), _triplet(company="Sysco"))
    assert _col(row, "company_match") == 0.0
    assert _col(row, "unit_is_percent") == 0.0


def test_feature_vector_length_constant():
    triplets = [_triplet(), _triplet(year=None, unit="percent")]
    for question in (_question(), _question("trend?")):
        assert dense_reference(question, triplets, EMBEDDER).shape == (2, feature_dim(32))
    assert dense_reference(_question(), [], EMBEDDER).shape == (0, feature_dim(32))


def test_features_pure():
    triplets = [_triplet(), _triplet(year=2019)]
    a = dense_reference(_question(), triplets, EMBEDDER)
    b = dense_reference(_question(), triplets, EMBEDDER)
    assert np.array_equal(a, b)


def _per_pair_row(question, triplet, dim=32):
    """Reference row built pair by pair: q, t, then the six scalars."""
    q = LocalHashEmbedder(dim).embed(question.text)
    t = LocalHashEmbedder(dim).embed(triplet.text())
    q_year, t_year = question_year(question.text), triplet.period.year
    if q_year is None or t_year is None:
        distance, missing = 10.0, 1.0
    else:
        distance, missing = float(min(abs(q_year - t_year), 10.0)), 0.0
    company = triplet.company and triplet.company.lower() in question.text.lower()
    scalars = [float(np.clip(np.dot(q, t), -1.0, 1.0)), distance, missing,
               metric_overlap(triplet.metric_type,
                              set(re.findall(r"[a-z0-9]+", question.text.lower()))),
               1.0 if company else 0.0,
               1.0 if "percent" in triplet.unit.lower() else 0.0]
    return np.concatenate([q, t, np.asarray(scalars, dtype=np.float64)])


def test_build_features_rows_match_per_pair_construction():
    question = _question("what did entergy report as net revenue in 2019?")
    triplets = [_triplet(), _triplet(year=None, unit="percent"),
                _triplet(metric="OPERATING_EXPENSES", year=2012, company="Entergy"),
                _triplet(metric="EPS", year=2019, unit="USD", value="1.25")]
    X = dense_reference(question, triplets, LocalHashEmbedder(dim=32))
    for row, triplet in zip(X, triplets):
        assert row.tobytes() == _per_pair_row(question, triplet).tobytes()


def test_build_features_rejects_mixed_dimensions():
    class Mixed:
        def embed(self, text):
            return LocalHashEmbedder(dim=32).embed(text)

        def embed_fractions(self, texts):
            return LocalHashEmbedder(dim=64).embed_fractions(texts)

    with pytest.raises(DimensionMismatch):
        dense_reference(_question(), [_triplet()], Mixed())


class _FixedVectors:
    """Provider returning set vectors: one for the question, rows for the triplets."""

    def __init__(self, question_vec, triplet_rows):
        self.question_vec = np.asarray(question_vec, dtype=np.float64)
        self.triplet_rows = np.asarray(triplet_rows, dtype=np.float64)

    def embed(self, text):
        return self.question_vec

    def embed_fractions(self, texts):
        assert len(texts) == len(self.triplet_rows)
        return self.triplet_rows, np.ones(len(texts))


def _cos_column(question, triplets, provider):
    X = dense_reference(question, triplets, provider)
    return X[:, 2 * provider.embed(question.text).shape[0] + STRUCTURAL_COLUMNS.index("cos_sim")]


def test_cos_sim_column_hand_computed():
    # 0.6*0.8 + 0.8*0.6 = 0.96 by hand
    cos = _cos_column(_question(), [_triplet()], _FixedVectors([0.6, 0.8], [[0.8, 0.6]]))
    assert math.isclose(cos[0], 0.96, abs_tol=1e-12)


def test_cos_sim_column_orthogonal():
    eye = np.eye(16)
    cos = _cos_column(_question(), [_triplet(), _triplet(year=2019)],
                      _FixedVectors(eye[0], eye[1:3]))
    assert np.all(np.abs(cos) < 1e-6)


def test_cos_sim_column_identity():
    triplet = _triplet(company="Entergy")
    cos = _cos_column(_question(triplet.text()), [triplet], EMBEDDER)
    assert abs(cos[0] - 1.0) < 1e-6


def _per_row_cos(question, triplets, provider):
    """The cos_sim column as one np.dot per row of the triplet embeddings."""
    q = provider.embed(question.text)
    numerators, denominators = provider.embed_fractions([t.text() for t in triplets])
    T = numerators / denominators[:, None]
    return np.clip([np.dot(q, row) for row in T], -1.0, 1.0)


@pytest.mark.parametrize("n,dim", [(1, 16), (5, 32), (105, 64), (40, 301)])
def test_cos_sim_column_is_the_per_row_dot_bit_for_bit(n, dim):
    rng = np.random.default_rng(n * 1000 + dim)
    triplets = [_triplet(metric=f"METRIC_{i}", year=2000 + i % 20, value=str(i))
                for i in range(n)]
    rows = rng.standard_normal((n, dim))
    question_vec = rng.standard_normal(dim)
    providers = [
        LocalHashEmbedder(dim=dim),
        _FixedVectors(question_vec / np.linalg.norm(question_vec),
                      rows / np.linalg.norm(rows, axis=1)[:, None]),
        _FixedVectors(question_vec, rows),  # unnormalised: the clip bites
    ]
    question = _question("what was metric 3 in 2003 versus 2004?")
    for provider in providers:
        assert _cos_column(question, triplets, provider).tobytes() == \
            _per_row_cos(question, triplets, provider).tobytes()


def _text_triplet(text):
    """A triplet whose text() has exactly the tokens of `text`."""
    return make_triplet("NET_REVENUE", Decimal(1), subject=text, relation="", obj="",
                        source_doc="d")


_WORDS = st.text(alphabet="abcdefg 0123456789", min_size=1, max_size=30).filter(
    lambda s: any(c.isalnum() for c in s))


@given(_WORDS, _WORDS)
def test_cos_sim_column_symmetric_and_bounded(s1, s2):
    embedder = LocalHashEmbedder(dim=64)
    forward = _cos_column(_question(s1), [_text_triplet(s2)], embedder)[0]
    backward = _cos_column(_question(s2), [_text_triplet(s1)], embedder)[0]
    assert forward == backward
    assert -1.0 <= forward <= 1.0


def test_question_year_first_token():
    assert question_year("change from 2019 to 2020") == 2019
    assert question_year("no year here") is None


# ---------------------------------------------------------------------------
# Forward pass


def _forward_one(model, x):
    return float(forward_batch(model, np.asarray(x, dtype=np.float64)[None, :])[0])


def test_zero_model_scores_half():
    model = MlpModel(W1=np.zeros((3, 4)), b1=np.zeros(3), W2=np.zeros(3), b2=0.0)
    assert forward_batch(model, np.zeros((2, 4))).tolist() == [0.5, 0.5]


def test_hand_computed_forward():
    model = MlpModel(W1=np.array([[1.0, 0.0], [0.0, 1.0]]),
                     b1=np.array([0.5, -0.5]),
                     W2=np.array([1.0, -1.0]), b2=0.25)
    x = np.array([0.2, 0.3])
    # z1 = [0.7, -0.2] -> relu [0.7, 0]; z2 = 0.7 + 0.25 = 0.95
    expected = 1.0 / (1.0 + math.exp(-0.95))
    assert _forward_one(model, x) == pytest.approx(expected, abs=1e-12)


def test_score_strictly_inside_unit_interval():
    rng = np.random.default_rng(0)
    model = init_model(6, 4, seed=1)
    scores = forward_batch(model, rng.normal(size=(50, 6)) * 100)
    assert np.all((scores > 0.0) & (scores < 1.0))


def test_forward_dimension_mismatch():
    model = init_model(4, 3, seed=0)
    with pytest.raises(DimensionMismatch):
        forward_batch(model, np.zeros((1, 5)))


def test_monotone_in_logit():
    # Raising b2 raises the pre-sigmoid logit, so the score must rise.
    model = init_model(4, 3, seed=0)
    x = np.ones(4)
    scores = []
    for bump in (0.0, 0.5, 1.0, 2.0):
        m = MlpModel(W1=model.W1, b1=model.b1, W2=model.W2, b2=model.b2 + bump)
        scores.append(_forward_one(m, x))
    assert scores == sorted(scores)
    assert len(set(scores)) == len(scores)


# ---------------------------------------------------------------------------
# Loss


def test_bce_half_score_is_ln2():
    assert bce_loss([0.5], [1], 1.0) == pytest.approx(math.log(2), abs=1e-12)


def test_bce_perfect_scores_tiny():
    assert bce_loss([1.0 - 1e-7, 1e-7], [1, 0], 1.0) <= 1e-6


def test_bce_mixed_batch_against_independent_computation():
    scores = [0.9, 0.2, 0.6]
    labels = [1, 0, 1]
    w = 2.0
    expected = (-(w * math.log(0.9)) - math.log(1 - 0.2) - (w * math.log(0.6))) / 3
    assert bce_loss(scores, labels, w) == pytest.approx(expected, abs=1e-12)


def test_bce_length_mismatch():
    with pytest.raises(LengthMismatch):
        bce_loss([0.5, 0.5], [1], 1.0)
    with pytest.raises(LengthMismatch):
        bce_loss([], [], 1.0)


# ---------------------------------------------------------------------------
# Gradients vs central finite differences


def _fd_gradients(model, X, y, w, eps=1e-4):
    """Finite-difference oracle over the public forward + loss path."""
    def loss_of(m):
        return bce_loss(forward_batch(m, X), y, w)

    grads = {}
    for name in ("W1", "b1", "W2"):
        param = getattr(model, name).astype(np.float64)
        grad = np.zeros_like(param)
        it = np.nditer(param, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            plus = param.copy(); plus[idx] += eps
            minus = param.copy(); minus[idx] -= eps
            grad[idx] = (loss_of(_with(model, name, plus))
                         - loss_of(_with(model, name, minus))) / (2 * eps)
            it.iternext()
        grads[name] = grad
    plus = _with(model, "b2", model.b2 + eps)
    minus = _with(model, "b2", model.b2 - eps)
    grads["b2"] = (loss_of(plus) - loss_of(minus)) / (2 * eps)
    return grads


def _with(model, name, value):
    fields = {"W1": model.W1, "b1": model.b1, "W2": model.W2, "b2": model.b2}
    fields[name] = value
    return MlpModel(**fields)


def _max_rel_error(analytic, numeric):
    worst = 0.0
    for name in ("W1", "b1", "W2", "b2"):
        a = np.atleast_1d(np.asarray(analytic[name], dtype=np.float64))
        f = np.atleast_1d(np.asarray(numeric[name], dtype=np.float64))
        denom = np.maximum(np.abs(a) + np.abs(f), 1e-8)
        worst = max(worst, float((np.abs(a - f) / denom).max()))
    return worst


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(42)
    for trial in range(10):
        model = init_model(4, 3, seed=trial)
        X = rng.normal(size=(5, 4))
        y = rng.integers(0, 2, size=5).astype(np.float64)
        w = float(rng.uniform(0.5, 3.0))
        _, analytic = loss_and_gradients(model, X, y, w)
        numeric = _fd_gradients(model, X, y, w)
        assert _max_rel_error(analytic, numeric) < 1e-4


# ---------------------------------------------------------------------------
# Training


def _separable_set(n=500, seed=7):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 2))
    margin = X[:, 0] + X[:, 1]
    X = X[np.abs(margin) > 0.05][:n]
    y = (X[:, 0] + X[:, 1] > 0).astype(np.float64)
    return X, y


def test_training_reaches_95_percent_on_separable_set():
    X, y = _separable_set()
    cfg = TrainConfig(learning_rate=0.01, epochs=200, batch_size=64, seed=3,
                      hidden_size=8, positive_weight=1.0)
    model, history = train(X, y, cfg)
    scores = forward_batch(model, X)
    accuracy = ((scores >= 0.5) == (y == 1)).mean()
    assert accuracy >= 0.95
    assert len(history) == 200
    assert history[-1] < history[0]


def test_training_bit_identical_for_same_seed():
    X, y = _separable_set(n=120)
    cfg = TrainConfig(learning_rate=0.01, epochs=20, batch_size=32, seed=11,
                      hidden_size=8, positive_weight=1.0)
    m1, h1 = train(X, y, cfg)
    m2, h2 = train(X, y, cfg)
    assert h1 == h2
    assert np.array_equal(m1.W1, m2.W1)
    assert np.array_equal(m1.b1, m2.b1)
    assert np.array_equal(m1.W2, m2.W2)
    assert m1.b2 == m2.b2


def test_single_class_rejected():
    X = np.zeros((4, 2))
    with pytest.raises(DegenerateData):
        train(X, np.ones(4), TrainConfig())


@settings(max_examples=15, deadline=None)
@given(st.integers(4, 24), st.integers(2, 5), st.integers(0, 1000))
def test_training_keeps_weights_finite(n, d, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(scale=50.0, size=(n, d))
    y = np.zeros(n)
    y[: n // 2] = 1.0
    cfg = TrainConfig(learning_rate=0.05, epochs=3, batch_size=8,
                      seed=seed, hidden_size=4, positive_weight=2.0)
    model, history = train(X, y, cfg)
    for arr in (model.W1, model.b1, model.W2, [model.b2]):
        assert np.all(np.isfinite(arr))
    assert all(np.isfinite(h) for h in history)


def _train_out_of_place(X, y, cfg):
    """Reference training loop: every Adam update allocates fresh arrays."""
    model = init_model(X.shape[1], cfg.hidden_size, cfg.seed)
    rng = np.random.default_rng(cfg.seed + 1)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    model.b2 = np.asarray(model.b2)
    names = ("W1", "b1", "W2", "b2")
    m1 = {name: np.zeros_like(getattr(model, name)) for name in names}
    m2 = {name: np.zeros_like(getattr(model, name)) for name in names}
    step = 0
    history = []
    n = X.shape[0]
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            loss, grads = loss_and_gradients(model, X[batch], y[batch], cfg.positive_weight)
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


@pytest.mark.parametrize("n,d,positive_weight", [(200, 6, 1.0), (333, 40, 3.5)])
def test_in_place_adam_bitwise_equals_reference_loop(tmp_path, n, d, positive_weight):
    rng = np.random.default_rng(n)
    X = rng.normal(size=(n, d))
    y = (rng.uniform(size=n) < 0.3).astype(np.float64)
    cfg = TrainConfig(learning_rate=0.01, epochs=4, batch_size=64, seed=d,
                      hidden_size=8, positive_weight=positive_weight)
    model, history = train(X, y, cfg)
    reference, ref_history = _train_out_of_place(X, y, cfg)
    assert history == ref_history
    save_model(model, tmp_path / "mine.json")
    save_model(reference, tmp_path / "reference.json")
    assert (tmp_path / "mine.json").read_bytes() == (tmp_path / "reference.json").read_bytes()


def _sigmoid_three_clips(z):
    """The sigmoid as first written: clipped logits, both branches evaluated."""
    return np.where(z >= 0, 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500))),
                    np.exp(np.clip(z, -500, 500)) / (1.0 + np.exp(np.clip(z, -500, 500))))


def test_sigmoid_after_score_clip_equals_three_clip_form():
    from finkgqa.retriever import SCORE_EPS, _sigmoid

    rng = np.random.default_rng(0)
    z = np.concatenate([rng.normal(scale=s, size=250_000) for s in (1.0, 30.0, 400.0)]
                       + [[0.0, -0.0, 500.0, -500.0, 800.0, -800.0, np.inf, -np.inf,
                           36.7, -36.7, 745.2, -745.2, 1e-300, -1e-300]])
    with np.errstate(over="ignore"):
        old = np.clip(_sigmoid_three_clips(z), SCORE_EPS, 1.0 - SCORE_EPS)
    new = np.clip(_sigmoid(z), SCORE_EPS, 1.0 - SCORE_EPS)
    assert new.tobytes() == old.tobytes()


def test_train_config_invariants():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)


# ---------------------------------------------------------------------------
# Labeling


def test_label_triplets_hand_marked(corpus_docs):
    from finkgqa.extraction import extract_table_triplets

    doc = next(d for d in corpus_docs if d.id == "alpha-corp-2021")
    triplets = extract_table_triplets(doc)
    # gold sentence "the net revenue of 2021 is $120 ." marks only
    # NET_REVENUE@2021 positive: value 120 and year 2021 both present.
    assert [t.relation for t in triplets] == [
        "HAS_VALUE_IN_2020", "HAS_VALUE_IN_2020",
        "HAS_VALUE_IN_2021", "HAS_VALUE_IN_2021",
    ]
    assert label_triplets(doc, triplets) == [0, 0, 1, 0]


def test_label_year_mismatch_is_negative(corpus_docs):
    from finkgqa.extraction import extract_table_triplets

    doc = next(d for d in corpus_docs if d.id == "delta-group-assets")
    triplets = extract_table_triplets(doc)
    labels = dict(zip((t.relation for t in triplets), label_triplets(doc, triplets)))
    # 900 appears in the gold sentence, but its only year is 2010.
    assert labels["HAS_VALUE_IN_2009"] == 0
    assert labels["HAS_VALUE_IN_2010"] == 1


def test_label_grouped_digits_match(corpus_docs):
    from finkgqa.extraction import extract_table_triplets

    doc = next(d for d in corpus_docs if d.id == "delta-group-assets")
    triplets = extract_table_triplets(doc)
    by_rel = {t.relation: t for t in triplets}
    assert str(by_rel["HAS_VALUE_IN_2010"].value) == "1050"  # cell was "$1,050"


def _label_triplets_per_pair(doc, triplets):
    """The labelling rule re-parsed for every (triplet, sentence) pair."""
    from decimal import InvalidOperation

    def decimal_in(rendered, tokens):
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

    labels = []
    for t in triplets:
        rendered = render_decimal(t.value)
        positive = False
        for sentence in (doc.question.gold_inds if doc.question else ()):
            numbers = {tok.replace(",", "")
                       for tok in re.findall(r"[-+]?\d[\d,]*(?:\.\d+)?", sentence)}
            if rendered not in numbers and not decimal_in(rendered, numbers):
                continue
            years = {int(y) for y in re.findall(r"\b(19\d{2}|20\d{2}|2100)\b", sentence)}
            if t.period.year is None or not years or t.period.year in years:
                positive = True
                break
        labels.append(1 if positive else 0)
    return labels


_SENTENCE_PIECES = ["the", "net revenue of", "in", "2019", "2020", "2021", "1,050", "1050",
                    "1050.00", "-5", "+5", "5.0", "0.5", "$120", "12,0", "(3)", "3", ",",
                    "was", "1990 and 2019", "20211", "7.25%"]
_VALUES = ["1050", "1050.0", "-5", "5", "5.00", "0.5", "120", "3", "-3", "7.25", "120",
           "0", "-0", "1E+3", "Infinity", "NaN", "sNaN"]


@settings(max_examples=200, deadline=None)
@given(
    sentences=st.lists(st.lists(st.sampled_from(_SENTENCE_PIECES), max_size=8)
                       .map(" ".join), max_size=4),
    cells=st.lists(st.tuples(st.sampled_from(_VALUES),
                             st.one_of(st.none(), st.integers(2018, 2022))), max_size=12),
    has_question=st.booleans(),
)
def test_label_triplets_matches_per_pair_rule(sentences, cells, has_question):
    from finkgqa.preprocess import FinDocument

    question = QuestionRecord(text="q", gold_answer="x", gold_inds=tuple(sentences))
    doc = FinDocument(id="d", question=question if has_question else None)
    triplets = [_triplet(year=year, value=value) for value, year in cells]
    assert label_triplets(doc, triplets) == _label_triplets_per_pair(doc, triplets)


# ---------------------------------------------------------------------------
# Filtering


def _scored_fixture(n=20):
    question = _question()
    triplets = [_triplet(metric=f"METRIC_{i}", year=2000 + i, value=str(i + 1))
                for i in range(n)]
    model = init_model(feature_dim(32), 4, seed=5)
    return question, triplets, model


def _per_row_oracle(question, triplets, model):
    """Each candidate scored alone from its per-pair row, then fully sorted."""
    scored = [(t, _forward_one(model, _per_pair_row(question, t))) for t in triplets]
    return sorted(scored, key=lambda pair: (-pair[1], pair[0].triplet_id))


def test_topk_zero_and_total():
    question, triplets, model = _scored_fixture(5)
    assert filter_topk(question, triplets, model, EMBEDDER, 0) == []
    assert filter_topk(question, [], model, EMBEDDER, 3) == []
    everything = filter_topk(question, triplets, model, EMBEDDER, 99)
    assert len(everything) == 5
    scores = [s for _, s in everything]
    assert scores == sorted(scores, reverse=True)


def test_topk_matches_brute_force_sort():
    question, triplets, model = _scored_fixture(20)
    top5 = filter_topk(question, triplets, model, EMBEDDER, 5)
    oracle = _per_row_oracle(question, triplets, model)[:5]
    assert [t.triplet_id for t, _ in top5] == [t.triplet_id for t, _ in oracle]
    # One batched matrix product sums in another order than per-row products.
    assert [s for _, s in top5] == pytest.approx([s for _, s in oracle], abs=1e-12)


_METRICS = ["NET_REVENUE", "OPERATING_EXPENSES", "TOTAL_ASSETS", "EPS", "NET_INCOME"]


@settings(max_examples=40, deadline=None)
@given(
    words=st.lists(st.sampled_from(["what", "was", "net", "revenue", "total", "assets",
                                    "eps", "change", "in", "2015", "2019", "percent",
                                    "entergy", "expenses"]), min_size=1, max_size=10),
    cells=st.lists(st.tuples(st.sampled_from(_METRICS),
                             st.one_of(st.none(), st.integers(2010, 2021)),
                             st.integers(-999, 99999)),
                   min_size=0, max_size=40, unique=True),
    unit=st.sampled_from(["", "percent", "million USD"]),
    seed=st.integers(0, 10_000),
    k=st.integers(1, 12),
)
def test_topk_property_matches_per_row_oracle(words, cells, unit, seed, k):
    question = _question(" ".join(words))
    triplets = [_triplet(metric=m, year=y, unit=unit, value=str(v),
                         company="Entergy" if v % 2 else None)
                for m, y, v in cells]
    model = init_model(feature_dim(32), 8, seed=seed)
    picked = filter_topk(question, triplets, model, LocalHashEmbedder(dim=32), k)
    oracle = _per_row_oracle(question, triplets, model)[:k]
    assert [t.triplet_id for t, _ in picked] == [t.triplet_id for t, _ in oracle]


def test_score_returns_one_value_per_candidate_in_order():
    question, triplets, model = _scored_fixture(7)
    scores = score(question, triplets, model, EMBEDDER)
    assert scores.shape == (7,)
    for t, s in zip(triplets, scores):
        assert s == pytest.approx(_forward_one(model, _per_pair_row(question, t)), abs=1e-12)
    assert score(question, [], model, EMBEDDER).shape == (0,)


def test_topk_subset_and_tie_determinism():
    question, triplets, model = _scored_fixture(8)
    zero = MlpModel(W1=np.zeros_like(model.W1), b1=np.zeros_like(model.b1),
                    W2=np.zeros_like(model.W2), b2=0.0)
    picked = filter_topk(question, triplets, zero, EMBEDDER, 3)
    ids = [t.triplet_id for t, _ in picked]
    assert ids == sorted(ids)  # all scores tie at 0.5; ids ascending
    assert {t.triplet_id for t, _ in picked} <= {t.triplet_id for t in triplets}


# ---------------------------------------------------------------------------
# Model file


def test_model_save_load_round_trip(tmp_path):
    model = init_model(10, 4, seed=9)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert np.array_equal(model.W1, loaded.W1)
    assert np.array_equal(model.b1, loaded.b1)
    assert np.array_equal(model.W2, loaded.W2)
    assert model.b2 == loaded.b2
    assert loaded.seed == 9


# Bit patterns the model file must carry through unchanged: -0.0, +-inf, the
# smallest and largest subnormals, and NaNs with payloads (quiet, signalling,
# negative). A JSON float list keeps none of the payloads.
_SPECIAL_BITS = [0x8000000000000000, 0x7FF0000000000000, 0xFFF0000000000000,
                 0x0000000000000001, 0x000FFFFFFFFFFFFF, 0x7FF8000000000000,
                 0x7FF8000000000123, 0x7FF0000000000001, 0xFFF4000000ABCDEF]
_BITS = st.one_of(st.sampled_from(_SPECIAL_BITS), st.integers(0, 2**64 - 1))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 9), st.data())
def test_model_file_round_trip_is_bit_exact(tmp_path_factory, hidden, width, data):
    def draw(n):
        return np.array(data.draw(st.lists(_BITS, min_size=n, max_size=n)),
                        dtype=np.uint64).view(np.float64)

    model = MlpModel(W1=draw(hidden * width).reshape(hidden, width), b1=draw(hidden),
                     W2=draw(hidden), b2=-0.0, seed=3)
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    for name in ("W1", "b1", "W2"):
        mine, back = getattr(model, name), getattr(loaded, name)
        assert back.shape == mine.shape and back.dtype == np.float64
        assert np.array_equal(back.view(np.uint64), mine.view(np.uint64)), name
    assert math.copysign(1.0, loaded.b2) == -1.0 and loaded.seed == 3


def _saved_model_doc(tmp_path):
    path = tmp_path / "model.json"
    save_model(init_model(10, 4, seed=9), path)
    return path, json.loads(path.read_text())


def test_model_loader_refuses_a_list_format_file(tmp_path):
    path, doc = _saved_model_doc(tmp_path)
    model = init_model(10, 4, seed=9)
    doc.update(W1=model.W1.tolist(), b1=model.b1.tolist(), W2=model.W2.tolist())
    path.write_text(json.dumps(doc))
    with pytest.raises(DimensionMismatch, match="re-run `train-retriever`"):
        load_model(path)


def test_model_loader_refuses_a_blob_one_float_short(tmp_path):
    path, doc = _saved_model_doc(tmp_path)
    doc["W1"] = base64.b64encode(base64.b64decode(doc["W1"])[:-8]).decode("ascii")
    path.write_text(json.dumps(doc))
    with pytest.raises(DimensionMismatch, match="W1"):
        load_model(path)


def test_model_loader_refuses_a_non_base64_blob(tmp_path):
    path, doc = _saved_model_doc(tmp_path)
    doc["b1"] = "*" + doc["b1"][1:]
    path.write_text(json.dumps(doc))
    with pytest.raises(DimensionMismatch, match="b1"):
        load_model(path)


def test_model_loader_rejects_dimension_mismatch(tmp_path):
    import json

    model = init_model(10, 4, seed=9)
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    doc["hidden_size"] = 5
    path.write_text(json.dumps(doc))
    with pytest.raises(DimensionMismatch):
        load_model(path)
