import numpy as np
import pytest

from oracles import sampled_similarity_ratio
from test_cluster import _blocks
from visim.cluster import ClusterState, gather_average
from visim.errors import ConfigError, ShapeError
from visim.geometry import Point
from visim.operators import (
    OperatorShard,
    SimilarityConstants,
    lipschitz_matrix_game,
    saddle_shard,
    similarity_matrix_game,
)


def _rand_pair(rng, d):
    return Point.of(rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(d)))


def _evaluate(op, z):
    """op's F at the Point z, cut into z's blocks."""
    return _blocks(op.evaluate(z.concat()), z)


def test_saddle_operator_blocks():
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    z = Point.of([1.0, 0.0], [0.0, 1.0])
    out = _evaluate(saddle_shard(M), z)
    np.testing.assert_allclose(out[0], M @ [0.0, 1.0])
    np.testing.assert_allclose(out[1], -(M.T @ [1.0, 0.0]))


def test_saddle_operator_shape_errors():
    op = saddle_shard(np.eye(3))
    with pytest.raises(ShapeError):
        op.evaluate(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ShapeError):
        op.evaluate(np.array([1.0, 0.0, 1.0, 0.0]))
    with pytest.raises(ShapeError):
        saddle_shard(np.ones(3))


def test_bilinear_monotonicity_is_equality():
    # <F(u)-F(v), u-v> = 0 exactly for saddle operators
    rng = np.random.default_rng(0)
    M = rng.normal(size=(6, 6))
    op = saddle_shard(M)
    for _ in range(200):
        u = _rand_pair(rng, 6)
        v = _rand_pair(rng, 6)
        fu, fv = _evaluate(op, u), _evaluate(op, v)
        val = sum(
            float((a - b) @ (c - d))
            for a, b, c, d in zip(fu, fv, u.blocks, v.blocks)
        )
        assert abs(val) <= 1e-10


def test_lipschitz_in_l1_linf_pairing():
    rng = np.random.default_rng(1)
    M = rng.normal(size=(5, 5)) * 3
    L = lipschitz_matrix_game(M)
    op = saddle_shard(M)
    for _ in range(1000):
        u = _rand_pair(rng, 5)
        v = _rand_pair(rng, 5)
        fu, fv = _evaluate(op, u), _evaluate(op, v)
        num = max(float(np.abs(a - b).max()) for a, b in zip(fu, fv))
        den = sum(float(np.abs(a - b).sum()) for a, b in zip(u.blocks, v.blocks))
        assert num <= L * den + 1e-12


def test_lipschitz_examples():
    assert lipschitz_matrix_game(np.array([[1.0, 2.0], [3.0, 4.0]])) == 4.0
    assert lipschitz_matrix_game(np.zeros((3, 3))) == 0.0
    assert lipschitz_matrix_game(-5.0 * np.eye(2)) == 5.0


def test_similarity_examples():
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert similarity_matrix_game(M, M) == 0.0
    N = M - np.array([[0.1, 0.0], [0.0, -0.2]])
    assert similarity_matrix_game(M, N) == pytest.approx(0.2)
    # triangle check
    assert similarity_matrix_game(M, N) <= (
        lipschitz_matrix_game(M) + lipschitz_matrix_game(N)
    )
    with pytest.raises(ShapeError):
        similarity_matrix_game(M, np.eye(3))


def test_average_operator_linearity():
    rng = np.random.default_rng(2)
    mats = np.stack([rng.normal(size=(4, 4)) for _ in range(5)])
    cluster = ClusterState(shards=[saddle_shard(M) for M in mats])
    mean_op = saddle_shard(np.mean(mats, axis=0))
    for _ in range(50):
        z = _rand_pair(rng, 4)
        got = _blocks(gather_average(cluster, [z.concat()])[0], z)
        want = _evaluate(mean_op, z)
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, atol=1e-12)


def test_average_operator_edge_cases():
    M = np.array([[1.0, -1.0], [0.5, 2.0]])
    z = Point.of([0.3, 0.7], [0.6, 0.4])
    single = _evaluate(saddle_shard(M), z)
    want = (M @ z.blocks[1], -(M.T @ z.blocks[0]))
    for a, b in zip(single, want):
        np.testing.assert_array_equal(a, b)
    # M and -M cancel
    zero = gather_average(
        ClusterState(shards=[saddle_shard(M), saddle_shard(-M)]), [z.concat()]
    )[0]
    for b in _blocks(zero, z):
        np.testing.assert_allclose(b, 0.0, atol=1e-15)
    with pytest.raises(ShapeError):
        saddle_shard(M).evaluate(np.array([0.3, 0.7]))
    with pytest.raises(ShapeError):
        OperatorShard(M, np.zeros(2)).evaluate(z.concat())
    with pytest.raises(ConfigError):
        ClusterState(shards=[])


def test_affine_shard():
    A = np.array([[2.0, 0.0], [0.0, 3.0]])
    b = np.array([1.0, -1.0])
    shard = OperatorShard(A, b)
    out = shard.evaluate(np.array([1.0, 1.0]))
    np.testing.assert_allclose(out, [3.0, 2.0])
    assert shard.payload[0] is shard.matrix and shard.payload[1] is shard.offset
    saddle = saddle_shard(A)
    assert saddle.payload is saddle.matrix and saddle.offset is None
    with pytest.raises(ShapeError):
        OperatorShard(np.ones((2, 3)), b)
    with pytest.raises(ShapeError):
        OperatorShard(A, np.ones(3))


def test_similarity_constants_norm_tag():
    c = SimilarityConstants(L=1.0, L_F1=1.0, delta=0.1)
    assert c.norm_tag == "l1/linf"
    with pytest.raises(ConfigError):
        SimilarityConstants(L=1.0, L_F1=1.0, delta=-0.1)


def test_empirical_similarity_check_passes_on_matrix_game():
    rng = np.random.default_rng(3)
    mats = np.stack([rng.normal(size=(4, 4)) for _ in range(6)])
    mean = np.mean(mats, axis=0)
    cluster = ClusterState(shards=[saddle_shard(M) for M in mats])
    shard1 = saddle_shard(mats[0])
    delta = similarity_matrix_game(mean, mats[0])
    ratio = sampled_similarity_ratio(
        shard1.evaluate,
        lambda z: gather_average(cluster, [z])[0],
        trials=500,
        seed=4,
        block_dims=(4, 4),
    )
    # the uniform bound is never exceeded empirically
    assert 0.0 < ratio <= delta * (1 + 1e-9)


def test_empirical_similarity_check_identical_and_zero_delta():
    M = np.array([[1.0, 0.0], [0.0, 1.0]])
    shard = saddle_shard(M)
    same = sampled_similarity_ratio(
        shard.evaluate, shard.evaluate, trials=20, seed=5, block_dims=(2, 2)
    )
    assert same == 0.0
    # note: adding a constant to every entry would be invisible on the
    # simplex (constant deviation); scale instead
    other = saddle_shard(2.0 * M)
    bad = sampled_similarity_ratio(
        shard.evaluate, other.evaluate, trials=20, seed=6, block_dims=(2, 2)
    )
    assert bad > 1e-15
