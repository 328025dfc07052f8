import math

import numpy as np
import pytest

from visim.cluster import ClusterState
from visim.errors import ParameterError
from visim.geometry import (
    DualVector,
    bregman_divergence,
    entropy_simplex,
    max_divergence_bound,
    uniform_point,
)
from visim.operators import OperatorShard, saddle_shard
from visim.paus import PausConfig, duality_gap, paus_run


def _game_cluster(d, T, m, seed):
    rng = np.random.default_rng(seed)
    C = rng.uniform(0.0, 1.0, size=(d, d))
    xi = rng.choice([-1.0, 1.0], size=(T, 1, 1))
    mats = (1.0 + xi) * C
    mean = mats.mean(axis=0)
    n = T // m
    shard_mats = [mats[i * n : (i + 1) * n].mean(axis=0) for i in range(m)]
    delta = float(np.abs(mean - shard_mats[0]).max())
    l_f1 = float(np.abs(shard_mats[0]).max())
    cluster = ClusterState(shards=[saddle_shard(M) for M in shard_mats])
    return cluster, mean, shard_mats, delta, l_f1


def _config(d, delta, l_f1, iters, gamma=None):
    geom = entropy_simplex(d)
    return PausConfig(
        gamma=gamma if gamma is not None else 1.0 / delta,
        iters=iters,
        geometry=geom,
        z0=uniform_point(geom),
        l_f1=l_f1,
        delta=delta,
    )


def test_zero_operator_returns_start():
    d = 3
    geom = entropy_simplex(d)
    zero = OperatorShard(
        payload=None,
        evaluate=lambda z: DualVector.of(np.zeros(d), np.zeros(d)),
    )
    cluster = ClusterState(shards=[zero, zero])
    cfg = PausConfig(
        gamma=1.0, iters=1, geometry=geom, z0=uniform_point(geom), l_f1=1.0
    )
    out = paus_run(cfg, cluster)
    for a, b in zip(out.u_avg.blocks, cfg.z0.blocks):
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_two_rounds_per_iteration():
    cluster, mean, _, delta, l_f1 = _game_cluster(d=4, T=40, m=4, seed=0)
    cfg = _config(4, delta, l_f1, iters=7)
    out = paus_run(cfg, cluster)
    assert cluster.round_count == 2 * 7
    assert [rec.round for rec in out.log] == [2 * (k + 1) for k in range(7)]


def test_gap_envelope_on_small_game():
    # Gap(u_avg) <= max_z V(z, z0) / (K gamma) at gamma = 1/delta
    cluster, mean, _, delta, l_f1 = _game_cluster(d=5, T=60, m=4, seed=1)
    for K in (5, 20, 60):
        cfg = _config(5, delta, l_f1, iters=K)
        out = paus_run(cfg, cluster)
        bound = max_divergence_bound(cfg.geometry, cfg.z0) / (K * cfg.gamma)
        gap = duality_gap(mean, out.u_avg.blocks[0], out.u_avg.blocks[1])
        assert gap <= bound + 1e-9


def test_worker_permutation_changes_nothing_downstream():
    # the server shard (index 0) is part of the algorithm, so only permute
    # the non-server workers; the gathered averages are identical
    cluster, mean, shard_mats, delta, l_f1 = _game_cluster(d=4, T=60, m=4, seed=2)
    permuted = ClusterState(
        shards=[saddle_shard(M) for M in [shard_mats[0]] + shard_mats[1:][::-1]]
    )
    cfg = _config(4, delta, l_f1, iters=10)
    a = paus_run(cfg, cluster).u_avg
    b = paus_run(cfg, permuted).u_avg
    np.testing.assert_allclose(a.concat(), b.concat(), atol=1e-12)


def test_iterates_stay_on_simplex_and_positive():
    cluster, _, _, delta, l_f1 = _game_cluster(d=6, T=60, m=4, seed=3)
    cfg = _config(6, delta, l_f1, iters=30)
    out = paus_run(cfg, cluster, keep_iterates=True)
    assert len(out.u_path) == 30 and len(out.z_path) == 31
    for p in out.u_path + out.z_path + [out.u_avg]:
        for b in p.blocks:
            assert np.all(b > 0.0)
            assert abs(b.sum() - 1.0) < 1e-9


def test_log_predicate_filters_records():
    cluster, _, _, delta, l_f1 = _game_cluster(d=3, T=40, m=4, seed=4)
    cfg = _config(3, delta, l_f1, iters=12)
    out = paus_run(cfg, cluster, log_predicate=lambda k: k % 4 == 3)
    assert [rec.round for rec in out.log] == [8, 16, 24]
    # gap is NaN when no gap_fn is supplied
    assert all(math.isnan(rec.iterate_gap) for rec in out.log)


def test_ergodic_average_is_mean_of_u_path():
    cluster, _, _, delta, l_f1 = _game_cluster(d=4, T=40, m=4, seed=5)
    cfg = _config(4, delta, l_f1, iters=9)
    out = paus_run(cfg, cluster, keep_iterates=True)
    want = np.mean([u.concat() for u in out.u_path], axis=0)
    np.testing.assert_allclose(out.u_avg.concat(), want, atol=1e-12)


def test_gamma_above_one_over_delta_rejected():
    geom = entropy_simplex(3)
    with pytest.raises(ParameterError):
        PausConfig(
            gamma=2.1,
            iters=1,
            geometry=geom,
            z0=uniform_point(geom),
            l_f1=1.0,
            delta=0.5,
        )
    # boundary gamma = 1/delta is fine
    PausConfig(
        gamma=2.0, iters=1, geometry=geom, z0=uniform_point(geom),
        l_f1=1.0, delta=0.5,
    )
    with pytest.raises(ParameterError):
        PausConfig(gamma=1.0, iters=0, geometry=geom,
                   z0=uniform_point(geom), l_f1=1.0)


def test_duality_gap_examples():
    # rock-paper-scissors: uniform play is the equilibrium
    rps = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
    u = np.full(3, 1.0 / 3.0)
    assert duality_gap(rps, u, u) == pytest.approx(0.0, abs=1e-15)
    # off-equilibrium play has a positive gap
    assert duality_gap(rps, np.array([1.0, 0.0, 0.0]), u) > 0.9
    M = np.array([[1.0, 0.0], [0.0, 0.0]])
    e1 = np.array([1.0, 0.0])
    assert duality_gap(M, e1, e1) == pytest.approx(1.0)
