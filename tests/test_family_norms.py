"""The restart family's constants without a dense SVD.

``restart._spectral_norm`` takes sigma_max from the top eigenvalue of a
Gram matrix; these tests hold it, and the family's L, sigma_max(A), server
deviation and L_F1, to numpy's SVD-based ``np.linalg.norm(X, 2)`` within
2 max(n, k) eps relative (the bound CHANGES.md derives).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from visim.restart import _spectral_norm, synthetic_strongly_monotone

EPS = np.finfo(float).eps


def _assert_within(got, want, shape):
    assert abs(got - want) <= 2 * max(shape) * EPS * want, (got, want, shape)


@settings(max_examples=300)
@given(st.integers(1, 60), st.integers(1, 60),
       st.sampled_from(["gaussian", "rank-one", "antisymmetric", "zero"]),
       st.booleans(), st.floats(-200.0, 200.0), st.integers(0, 2**32 - 1))
@example(1, 1, "zero", False, 0.0, 0)
@example(60, 1, "rank-one", True, 200.0, 1)
@example(1, 60, "gaussian", True, -200.0, 2)
@example(1, 1, "antisymmetric", False, 0.0, 3)  # the 1 x 1 antisymmetric 0
def test_spectral_norm_matches_the_svd(n, k, kind, scale_columns, exponent, seed):
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        X = rng.standard_normal((n, k))
    elif kind == "rank-one":
        X = np.outer(rng.standard_normal(n), rng.standard_normal(k))
    elif kind == "antisymmetric":
        B = rng.standard_normal((n, n))
        X = 0.5 * (B - B.T)
    else:
        X = np.zeros((n, k))
    if scale_columns:
        X *= 10.0 ** rng.uniform(-12.0, 0.0, size=X.shape[1])
    X *= 10.0 ** exponent
    got, want = _spectral_norm(X), float(np.linalg.norm(X, 2))
    if want == 0.0:
        assert got == 0.0
    _assert_within(got, want, X.shape)


def _replay(dim, m, mu, delta, seed):
    """The family and its A and E_i, drawn again from its seed as it draws
    them."""
    shards, _, consts = synthetic_strongly_monotone(dim, m, mu, delta, seed)
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((dim, dim))
    A = 0.5 * (B - B.T)
    A *= 1.0 / _spectral_norm(A)
    rng.standard_normal(dim)  # the solution's direction
    E = rng.standard_normal((m, dim, dim))
    E -= E.mean(axis=0)
    E *= delta / _spectral_norm(E[0])
    for i, shard in enumerate(shards):
        assert np.array_equal(shard.matrix, A + E[i] + mu * np.eye(dim))
    return A, E, shards, consts


@pytest.mark.parametrize("mu", [1e-3, 0.1, 0.5, 1.0, 3.0, 100.0])
def test_family_L_is_the_norm_of_A_plus_mu_I(mu):
    # L = hypot(1, mu) in closed form: A is normal with sigma_max(A) = 1
    for dim in range(2, 51):
        A, _, _, consts = _replay(dim, 3, mu, 1.0, seed=dim)
        _assert_within(consts.L, float(np.linalg.norm(A + mu * np.eye(dim), 2)),
                       A.shape)


@pytest.mark.parametrize("dim", [2, 3, 10, 50, 200])
def test_family_scales_A_and_the_server_deviation_exactly(dim):
    delta = 0.7
    A, E, shards, consts = _replay(dim, 4, 0.5, delta, seed=11)
    _assert_within(1.0, float(np.linalg.norm(A, 2)), A.shape)
    _assert_within(delta, float(np.linalg.norm(E[0], 2)), A.shape)
    _assert_within(consts.L_F1, float(np.linalg.norm(shards[0].matrix, 2)),
                   A.shape)
