import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from visim.cluster import ClusterState, gather_average, shard_data
from visim.errors import ConfigError, ShapeError
from visim.geometry import Point
from visim.operators import OperatorShard, saddle_shard


def _cluster(mats):
    return ClusterState(shards=[saddle_shard(M) for M in mats])


def _pair(rng, d):
    return Point.of(rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(d)))


def _blocks(flat, z):
    """The flat array cut into the blocks of the Point z."""
    return np.split(flat, np.cumsum([b.size for b in z.blocks])[:-1])


def test_round_counts_one_per_exchange():
    rng = np.random.default_rng(0)
    cluster = _cluster([rng.normal(size=(3, 3)) for _ in range(4)])
    z = _pair(rng, 3).concat()
    gather_average(cluster, [z])
    assert cluster.round_count == 1
    # batching: two points still one round
    gather_average(cluster, [z, _pair(rng, 3).concat()])
    assert cluster.round_count == 2


def test_gather_average_matches_mean_matrix():
    rng = np.random.default_rng(1)
    mats = [rng.normal(size=(4, 4)) for _ in range(5)]
    cluster = _cluster(mats)
    mean_op = saddle_shard(np.mean(mats, axis=0))
    z = _pair(rng, 4)
    out = gather_average(cluster, [z.concat()])[0]
    want = mean_op.evaluate(z.concat())
    for a, b in zip(_blocks(out, z), _blocks(want, z)):
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_byte_accounting():
    rng = np.random.default_rng(2)
    cluster = _cluster([rng.normal(size=(3, 3)) for _ in range(4)])
    z = _pair(rng, 3).concat()
    gather_average(cluster, [z])
    # 2 directions * m workers * 6 coords * 8 bytes
    assert cluster.bytes_sent == 2 * 4 * 6 * 8
    gather_average(cluster, [z, z])
    assert cluster.bytes_sent == 2 * 4 * 6 * 8 * 3


@pytest.mark.parametrize("k", [1, 2, 5])
def test_k_point_exchange_is_one_round(k):
    # one round and 2 m n k 8 bytes: k points of n coordinates, out to and
    # back from each of the m workers
    rng = np.random.default_rng(20 + k)
    m, d = 3, 4
    cluster = _cluster([rng.normal(size=(d, d)) for _ in range(m)])
    points = [_pair(rng, d).concat() for _ in range(k)]
    out = gather_average(cluster, points)
    assert len(out) == k and all(f.shape == (2 * d,) for f in out)
    assert cluster.round_count == 1
    assert cluster.bytes_sent == 2 * m * (2 * d) * k * 8


def test_mis_sized_point_moves_no_counter():
    rng = np.random.default_rng(21)
    cluster = _cluster([rng.normal(size=(3, 3)) for _ in range(4)])
    gather_average(cluster, [_pair(rng, 3).concat()])
    rounds, sent = cluster.round_count, cluster.bytes_sent
    good = _pair(rng, 3).concat()
    for bad in (good[:5], np.append(good, 0.0), good.reshape(2, 3)):
        with pytest.raises(ShapeError):
            gather_average(cluster, [bad])
        # a bad point anywhere in the exchange rejects all of it
        with pytest.raises(ShapeError):
            gather_average(cluster, [good, bad])
    assert (cluster.round_count, cluster.bytes_sent) == (rounds, sent)


def test_worker_failure_reports_index():
    # a shard whose shape differs from worker 1's is rejected at construction
    shards = [saddle_shard(np.eye(2)), saddle_shard(np.eye(2)), saddle_shard(np.eye(3))]
    with pytest.raises(ShapeError, match="worker 3: matrix shape"):
        ClusterState(shards=shards)


def test_gather_input_validation():
    cluster = _cluster([np.eye(2)])
    with pytest.raises(ConfigError):
        gather_average(cluster, [])
    with pytest.raises(ConfigError):
        gather_average(ClusterState(shards=[]), [np.array([1.0, 0.0])])


def test_shard_data_block_means():
    M = np.eye(2)
    N = 2 * np.eye(2)
    shards = shard_data([M, M, N, N], 2)
    np.testing.assert_allclose(shards[0].payload, M)
    np.testing.assert_allclose(shards[1].payload, N)
    single = shard_data([M, N], 1)
    np.testing.assert_allclose(single[0].payload, 1.5 * np.eye(2))
    with pytest.raises(ConfigError):
        shard_data([M, M, N], 2)


def test_shard_means_average_to_global_mean():
    rng = np.random.default_rng(5)
    mats = rng.normal(size=(20, 3, 3))
    shards = shard_data(mats, 5)
    assert len(shards) == 5
    payload_mean = np.mean([s.payload for s in shards], axis=0)
    np.testing.assert_allclose(payload_mean, mats.mean(axis=0), atol=1e-12)


def test_paper_scale_shard_sizes():
    # T = 10^4 over 5 devices -> local datasets of size 2 * 10^3
    mats = np.ones((10_000, 2, 2))
    shards = shard_data(mats, 5)
    assert len(shards) == 5


def test_block_layout_mismatch_detected():
    # saddle shards act on two blocks, affine ones on one: no mixing
    good = saddle_shard(np.eye(2))
    bad = OperatorShard(np.eye(2), np.zeros(2))
    with pytest.raises(ShapeError, match="worker 2: affine shard"):
        ClusterState(shards=[good, bad])
    with pytest.raises(ShapeError, match="worker 2: saddle shard"):
        ClusterState(shards=[bad, good])


def _per_shard_loop(shards, z):
    """F(z) shard by shard: each worker's output summed in worker order,
    then divided by m."""
    acc = None
    for shard in shards:
        if shard.offset is None:
            x, y = z.blocks
            out = [shard.matrix @ y, -(shard.matrix.T @ x)]
        else:
            out = [shard.matrix @ z.blocks[0] + shard.offset]
        if acc is None:
            acc = [b.copy() for b in out]
        else:
            for a, b in zip(acc, out):
                a += b
    return [a / len(shards) for a in acc]


def _worker_order_mean(arrays):
    total = arrays[0].copy()
    for a in arrays[1:]:
        total += a
    return total / len(arrays)


def _average_operator_product(shards, z):
    """F(z) by the workers' average operator: the shard matrices (and
    offsets) summed in worker order and divided by m, then one product."""
    A = _worker_order_mean([s.matrix for s in shards])
    if shards[0].offset is None:
        x, y = z.blocks
        return [A @ y, -(A.T @ x)]
    b = _worker_order_mean([s.offset for s in shards])
    return [A @ z.blocks[0] + b]


# a gather is one product by the average operator, bit for bit; it agrees
# with the per-shard loop only to round-off
# (test_gather_is_one_average_product)
@pytest.mark.parametrize("m", [1, 5, 250])
@pytest.mark.parametrize("d", [2, 25])
def test_gather_equals_average_operator_product_bitwise_saddle(m, d):
    rng = np.random.default_rng(10 * m + d)
    shards = [saddle_shard(rng.normal(size=(d, d))) for _ in range(m)]
    cluster = ClusterState(shards=shards)
    for _ in range(5):
        z = _pair(rng, d)
        got = gather_average(cluster, [z.concat()])[0]
        for a, b in zip(_blocks(got, z), _average_operator_product(shards, z)):
            np.testing.assert_array_equal(a, b)
        # the server's own shard, a stack of one, is its plain product
        f1 = cluster.server_shard.evaluate(z.concat())
        for a, b in zip(_blocks(f1, z), _per_shard_loop(shards[:1], z)):
            np.testing.assert_array_equal(a, b)


def test_gather_equals_average_operator_product_bitwise_affine():
    rng = np.random.default_rng(7)
    dim, m = 200, 5
    shards = [
        OperatorShard(rng.normal(size=(dim, dim)), rng.normal(size=dim))
        for _ in range(m)
    ]
    cluster = ClusterState(shards=shards)
    for _ in range(5):
        z = Point.of(rng.normal(size=dim))
        got = gather_average(cluster, [z.concat()])[0]
        np.testing.assert_array_equal(
            _blocks(got, z)[0], _average_operator_product(shards, z)[0]
        )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 300),
    st.integers(2, 30),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_gather_is_one_average_product(m, d, affine, seed):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    mats = scale * rng.normal(size=(m, d, d))
    if affine:
        offs = scale * rng.normal(size=(m, d))
        shards = [OperatorShard(A, b) for A, b in zip(mats, offs)]
        z = Point.of(rng.normal(size=d))
    else:
        shards = [saddle_shard(A) for A in mats]
        z = Point.of(rng.normal(size=d), rng.normal(size=d))
    cluster = ClusterState(shards=shards)

    calls = []
    evaluate = OperatorShard.evaluate
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(OperatorShard, "evaluate",
                   lambda self, p: calls.append(self) or evaluate(self, p))
        got = gather_average(cluster, [z.concat()])[0]
    # one operator evaluated, whatever m is
    assert len(calls) == 1
    assert cluster.round_count == 1

    for a, b in zip(_blocks(got, z), _average_operator_product(shards, z)):
        np.testing.assert_array_equal(a, b)

    # forward error against the worker-order loop: each side is within
    # (m + d + 1) u S of the exact average, u = eps / 2, with
    # S = mean_i(|A_i| |z| + |b_i|) (a length-d product, m - 1 additions,
    # one division); one more eps absorbs the second-order terms
    abs_mean = np.mean(np.abs(mats), axis=0)
    if affine:
        S = [abs_mean @ np.abs(z.blocks[0]) + np.mean(np.abs(offs), axis=0)]
    else:
        x, y = z.blocks
        S = [abs_mean @ np.abs(y), abs_mean.T @ np.abs(x)]
    bound = (m + d + 2) * np.finfo(float).eps
    for a, b, s in zip(_blocks(got, z), _per_shard_loop(shards, z), S):
        assert np.all(np.abs(a - b) <= bound * s)
