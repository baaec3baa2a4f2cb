"""The dense feature matrix that `retriever.build_features`' parts stand for.

Training and `retriever.score` gather their rows from those parts through a
`GroupedFeatures`; the tests hold the gathered rows to this matrix, built the
plain way, bit for bit.
"""

import numpy as np

from finkgqa.retriever import build_features, feature_dim


def dense_reference(question, triplets, provider) -> np.ndarray:
    """One row per candidate, in input order: [question embedding | triplet
    embedding | STRUCTURAL_COLUMNS], the triplet embedding being the quotient
    of the provider's fraction."""
    q, numerators, denominators, S = build_features(question, triplets, provider)
    dim = q.shape[0]
    X = np.empty((len(S), feature_dim(dim)), dtype=np.float64)
    X[:, :dim] = q
    X[:, dim:2 * dim] = numerators / denominators[:, None]
    X[:, 2 * dim:] = S
    return X
