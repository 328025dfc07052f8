import numpy as np
import pytest

from oracles import per_block_floor
from visim.baselines import (
    BaselineConfig,
    BaselineKind,
    euclidean_paus_run,
    mirror_prox_run,
)
from visim.cluster import ClusterState
from visim.errors import ParameterError
from visim.geometry import (
    entropy_simplex,
    euclidean_simplex,
    prox_map,
    uniform_point,
)
from visim.operators import saddle_shard
from visim.paus import duality_gap


def _game_cluster(d, T, m, seed):
    rng = np.random.default_rng(seed)
    C = rng.uniform(0.0, 1.0, size=(d, d))
    xi = rng.choice([-1.0, 1.0], size=(T, 1, 1))
    mats = (1.0 + xi) * C
    mean = mats.mean(axis=0)
    n = T // m
    shard_mats = [mats[i * n : (i + 1) * n].mean(axis=0) for i in range(m)]
    cluster = ClusterState(shards=[saddle_shard(M) for M in shard_mats])
    L = float(np.abs(mean).max())
    delta_l2 = float(np.linalg.norm(mean - shard_mats[0], 2))
    l_f1_l2 = float(np.linalg.norm(shard_mats[0], 2))
    return cluster, mean, L, delta_l2, l_f1_l2


def test_zero_operator_keeps_start():
    d = 3
    geom = entropy_simplex(d)
    zero = saddle_shard(np.zeros((d, d)))
    cfg = BaselineConfig(
        kind=BaselineKind.MIRROR_PROX, stepsize=1.0, iters=5,
        geometry=geom, z0=uniform_point(geom),
    )
    out = mirror_prox_run(cfg, ClusterState(shards=[zero, zero]))
    for a, b in zip(out.u_avg.blocks, cfg.z0.blocks):
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_mirror_prox_gap_decays_like_one_over_k():
    cluster, mean, L, _, _ = _game_cluster(d=6, T=60, m=4, seed=0)
    geom = entropy_simplex(6)
    gaps = {}
    for K in (20, 200):
        cfg = BaselineConfig(
            kind=BaselineKind.MIRROR_PROX, stepsize=1.0 / L, iters=K,
            geometry=geom, z0=uniform_point(geom),
        )
        out = mirror_prox_run(cfg, ClusterState(shards=list(cluster.shards)))
        gaps[K] = duality_gap(mean, out.u_avg.blocks[0], out.u_avg.blocks[1])
    # classical extragradient bound: Gap <= L * max V / K
    assert gaps[200] <= 2.0 * np.log(6.0) * L / 200 + 1e-12
    # at 10x the iterations the gap is close to 10x smaller (5% ripple slack)
    assert gaps[200] <= gaps[20] / 10.0 * 2.0


def test_mirror_prox_round_accounting():
    cluster, mean, L, _, _ = _game_cluster(d=4, T=40, m=4, seed=1)
    geom = entropy_simplex(4)
    cfg = BaselineConfig(
        kind=BaselineKind.MIRROR_PROX, stepsize=1.0 / L, iters=9,
        geometry=geom, z0=uniform_point(geom),
    )
    out = mirror_prox_run(cfg, cluster, log_predicate=lambda k: k % 3 == 2)
    assert cluster.round_count == 18
    assert [rec.round for rec in out.log] == [6, 12, 18]
    assert all(rec.inner_iters == 0 for rec in out.log)


def test_mirror_prox_matches_reference_extragradient_loop():
    # the extragradient loop written out with the geometry primitives; each
    # gather is one product by the workers' average matrix, the shard
    # matrices summed in worker order and divided by m
    cluster, mean, L, _, _ = _game_cluster(d=4, T=40, m=4, seed=6)
    shards = list(cluster.shards)
    geom = entropy_simplex(4)
    K, step = 12, 1.0 / L

    def gap_fn(u):
        return duality_gap(mean, u.blocks[0], u.blocks[1])

    cfg = BaselineConfig(
        kind=BaselineKind.MIRROR_PROX, stepsize=step, iters=K,
        geometry=geom, z0=uniform_point(geom),
    )
    out = mirror_prox_run(cfg, cluster, gap_fn=gap_fn)

    M_avg = shards[0].matrix.copy()
    for s in shards[1:]:
        M_avg += s.matrix
    M_avg = M_avg / len(shards)

    def f_avg(z):
        x, y = z[:4], z[4:]
        return np.concatenate([M_avg @ y, -(M_avg.T @ x)])

    def floor(z):
        return np.concatenate(per_block_floor(np.split(z, 2)))

    z = uniform_point(geom).concat()
    w_sum = np.zeros(8)
    gaps = []
    for k in range(K):
        w = prox_map(geom, z, f_avg(z), step)
        z = floor(prox_map(geom, z, f_avg(w), step))
        w_sum += floor(w)
        u_avg = geom.layout.split(w_sum / (k + 1))
        gaps.append(gap_fn(u_avg))

    np.testing.assert_array_equal(out.u_avg.concat(), u_avg.concat())
    assert [rec.iterate_gap for rec in out.log] == gaps
    assert [rec.round for rec in out.log] == [2 * (k + 1) for k in range(K)]
    assert cluster.round_count == 2 * K
    assert cluster.bytes_sent == 2 * K * (2 * 4 * 8 * 8)


def test_euclidean_run_stays_on_simplex():
    cluster, mean, L, delta_l2, l_f1_l2 = _game_cluster(d=5, T=60, m=4, seed=2)
    geom = euclidean_simplex(5)
    cfg = BaselineConfig(
        kind=BaselineKind.EUCLIDEAN_PAUS, stepsize=1.0 / delta_l2, iters=25,
        geometry=geom, z0=uniform_point(geom), l_f1=l_f1_l2, delta=delta_l2,
    )
    out = euclidean_paus_run(cfg, cluster)
    for b in out.u_avg.blocks:
        assert abs(b.sum() - 1.0) < 1e-12
        assert np.all(b >= -1e-15)
    gap = duality_gap(mean, out.u_avg.blocks[0], out.u_avg.blocks[1])
    assert gap < duality_gap(mean, *uniform_point(geom).blocks)


def test_entropy_similarity_beats_euclidean_on_rounds():
    # same game, same eps: the entropic similarity run needs fewer rounds
    from visim.bench import GameSpec, run_comparison, rounds_to_eps

    spec = GameSpec(d=15, T=200, m=4, seed=3)
    res = run_comparison(spec, solvers=("paus", "euclidean"), eps=1e-2, iters=10)
    r_paus = rounds_to_eps(res.series["paus"], 1e-2)
    r_euc = rounds_to_eps(res.series["euclidean"], 1e-2)
    assert r_paus is not None and r_euc is not None
    assert r_paus < r_euc


def test_shared_counter_fairness():
    # both baselines consume exactly 2 rounds and 2 full gathers per
    # iteration, so bytes per round are identical across solvers
    cluster_a, _, L, delta_l2, l_f1_l2 = _game_cluster(d=4, T=40, m=4, seed=4)
    cluster_b, _, _, _, _ = _game_cluster(d=4, T=40, m=4, seed=4)
    ent = entropy_simplex(4)
    euc = euclidean_simplex(4)
    mirror_prox_run(
        BaselineConfig(
            kind=BaselineKind.MIRROR_PROX, stepsize=1.0 / L, iters=6,
            geometry=ent, z0=uniform_point(ent),
        ),
        cluster_a,
    )
    euclidean_paus_run(
        BaselineConfig(
            kind=BaselineKind.EUCLIDEAN_PAUS, stepsize=1.0 / delta_l2, iters=6,
            geometry=euc, z0=uniform_point(euc), l_f1=l_f1_l2,
        ),
        cluster_b,
    )
    assert cluster_a.round_count == cluster_b.round_count == 12
    assert cluster_a.bytes_sent == cluster_b.bytes_sent


def test_identical_shards_zero_delta_still_converges():
    # m identical shards -> delta = 0; a similarity run with a large but
    # finite stepsize converges essentially in one outer iteration
    rng = np.random.default_rng(5)
    C = rng.uniform(0.0, 1.0, size=(4, 4))
    shards = [saddle_shard(C) for _ in range(3)]
    geom = euclidean_simplex(4)
    l2 = float(np.linalg.norm(C, 2))
    cfg = BaselineConfig(
        kind=BaselineKind.EUCLIDEAN_PAUS, stepsize=1e6 / l2, iters=2,
        geometry=geom, z0=uniform_point(geom), l_f1=l2,
    )
    out = euclidean_paus_run(cfg, ClusterState(shards=shards))
    gap = duality_gap(C, out.u_avg.blocks[0], out.u_avg.blocks[1])
    assert gap < 1e-4


def test_config_validation():
    geom = entropy_simplex(3)
    z0 = uniform_point(geom)
    with pytest.raises(ParameterError):
        BaselineConfig(kind=BaselineKind.MIRROR_PROX, stepsize=0.0,
                       iters=1, geometry=geom, z0=z0)
    with pytest.raises(ParameterError):
        BaselineConfig(kind=BaselineKind.MIRROR_PROX, stepsize=1.0,
                       iters=0, geometry=geom, z0=z0)
    good = BaselineConfig(kind=BaselineKind.MIRROR_PROX, stepsize=1.0,
                          iters=1, geometry=geom, z0=z0)
    with pytest.raises(ParameterError):
        euclidean_paus_run(good, ClusterState(shards=[saddle_shard(np.eye(3))]))
    euc = euclidean_simplex(3)
    no_lf1 = BaselineConfig(kind=BaselineKind.EUCLIDEAN_PAUS, stepsize=1.0,
                            iters=1, geometry=euc, z0=uniform_point(euc))
    with pytest.raises(ParameterError):
        euclidean_paus_run(no_lf1, ClusterState(shards=[saddle_shard(np.eye(3))]))
    with pytest.raises(ParameterError):
        mirror_prox_run(no_lf1, ClusterState(shards=[saddle_shard(np.eye(3))]))
