import numpy as np
import pytest

from visim.cluster import ClusterState, gather_average, reset_counters, shard_data
from visim.errors import ConfigError, ShapeError
from visim.geometry import Point
from visim.operators import OperatorShard, SaddleBilinear, saddle_shard


def _cluster(mats):
    return ClusterState(shards=[saddle_shard(M) for M in mats])


def _pair(rng, d):
    return Point.of(rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(d)))


def test_round_counts_one_per_exchange():
    rng = np.random.default_rng(0)
    cluster = _cluster([rng.normal(size=(3, 3)) for _ in range(4)])
    z = _pair(rng, 3)
    gather_average(cluster, [z])
    assert cluster.round_count == 1
    # batching: two points still one round
    gather_average(cluster, [z, _pair(rng, 3)])
    assert cluster.round_count == 2


def test_gather_average_matches_mean_matrix():
    rng = np.random.default_rng(1)
    mats = [rng.normal(size=(4, 4)) for _ in range(5)]
    cluster = _cluster(mats)
    mean_op = SaddleBilinear(np.mean(mats, axis=0))
    z = _pair(rng, 4)
    out = gather_average(cluster, [z])[0]
    want = mean_op(z)
    for a, b in zip(out.blocks, want.blocks):
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_byte_accounting():
    rng = np.random.default_rng(2)
    cluster = _cluster([rng.normal(size=(3, 3)) for _ in range(4)])
    z = _pair(rng, 3)
    gather_average(cluster, [z])
    # 2 directions * m workers * 6 coords * 8 bytes
    assert cluster.bytes_sent == 2 * 4 * 6 * 8
    gather_average(cluster, [z, z])
    assert cluster.bytes_sent == 2 * 4 * 6 * 8 * 3


def test_reset_counters_idempotent():
    rng = np.random.default_rng(3)
    cluster = _cluster([rng.normal(size=(2, 2)) for _ in range(2)])
    gather_average(cluster, [_pair(rng, 2)])
    reset_counters(cluster)
    assert cluster.round_count == 0 and cluster.bytes_sent == 0
    reset_counters(cluster)
    assert cluster.round_count == 0 and cluster.bytes_sent == 0
    gather_average(cluster, [_pair(rng, 2)])
    assert cluster.round_count == 1


def test_worker_failure_reports_index():
    def boom(z):
        raise ValueError("synthetic shard failure")

    shards = [saddle_shard(np.eye(2)), OperatorShard(payload=None, evaluate=boom)]
    cluster = ClusterState(shards=shards)
    with pytest.raises(ValueError, match="worker 2"):
        gather_average(cluster, [Point.of([1.0, 0.0], [0.0, 1.0])])


def test_gather_input_validation():
    cluster = _cluster([np.eye(2)])
    with pytest.raises(ConfigError):
        gather_average(cluster, [])
    with pytest.raises(ConfigError):
        gather_average(ClusterState(shards=[]), [Point.of([1.0, 0.0])])


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
    good = saddle_shard(np.eye(2))
    bad = OperatorShard(
        payload=None,
        evaluate=lambda z: __import__("visim").DualVector.of([1.0, 0.0]),
    )
    cluster = ClusterState(shards=[good, bad])
    with pytest.raises(ShapeError):
        gather_average(cluster, [Point.of([1.0, 0.0], [0.0, 1.0])])
