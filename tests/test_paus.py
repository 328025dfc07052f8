import math

import numpy as np
import pytest

from oracles import per_block_floor
from visim import inner
from visim.baselines import BaselineConfig, BaselineKind
from visim.cluster import ClusterState, gather_average
from visim.errors import ParameterError
from visim.geometry import (
    entropy_simplex,
    euclidean_ball,
    max_divergence_bound,
    prox_map,
    uniform_point,
)
from visim.inner import CompositeProblem, composite_mp
from visim.operators import saddle_shard
from visim.paus import (
    PausConfig,
    _inner_plan,
    duality_gap,
    paus_run,
)
from visim.restart import RestartConfig


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
    zero = saddle_shard(np.zeros((d, d)))
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
        bound = max_divergence_bound(cfg.geometry, cfg.z0.concat()) / (K * cfg.gamma)
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
    for p in out.u_path + out.z_path + [out.u_avg.concat()]:
        for b in np.split(p, 2):
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
    want = np.mean(out.u_path, axis=0)
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


def test_non_finite_or_non_positive_gamma_rejected():
    # a NaN passes a `<= 0` test and an infinite gamma divides the inner
    # plan's accuracy target down to zero
    geom = entropy_simplex(3)
    for gamma in (math.nan, math.inf, -math.inf, 0.0, -1.0):
        with pytest.raises(ParameterError):
            PausConfig(gamma=gamma, iters=1, geometry=geom,
                       z0=uniform_point(geom), l_f1=1.0)


@pytest.mark.parametrize("config, field, value", [
    ("restart", "mu", math.nan),
    ("restart", "delta", math.nan),
    ("restart", "eps", math.nan),
    ("restart", "r0_sq", math.inf),
    ("restart", "l_f1", math.nan),
    ("restart", "l_f1", -1.0),
    ("paus", "l_f1", math.nan),
    ("paus", "delta", math.nan),
    ("paus", "iters", 2.5),
    ("baseline", "stepsize", math.nan),
    ("baseline", "stepsize", math.inf),
])
def test_configs_refuse_numbers_no_run_can_use(config, field, value):
    # a NaN passes every `<= 0` test, and a NaN delta skipped the
    # gamma <= 1/delta guard; each config refuses them when it is made
    ball, simplex = euclidean_ball(3), entropy_simplex(3)
    cls, fields = {
        "restart": (RestartConfig, dict(mu=0.1, delta=1.0, eps=1e-4, geometry=ball,
                                        z0=uniform_point(ball), r0_sq=1.0, l_f1=1.0)),
        "paus": (PausConfig, dict(gamma=1.0, iters=3, geometry=simplex,
                                  z0=uniform_point(simplex), l_f1=1.0, delta=1.0)),
        "baseline": (BaselineConfig, dict(kind=BaselineKind.MIRROR_PROX, stepsize=1.0,
                                          iters=3, geometry=simplex,
                                          z0=uniform_point(simplex))),
    }[config]
    cls(**fields)
    with pytest.raises(ParameterError):
        cls(**{**fields, field: value})
    if config == "paus":
        # no delta, or a delta of round-off: the guard is off, as a sweep asks
        for delta in (None, 0.0):
            cls(**{**fields, "delta": delta})


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


def test_step_cap_zero_is_the_extragradient_route(monkeypatch):
    # with no Newton step allowed every subproblem goes to composite_mp
    # with the previous u as its start, as before exact solves existed; the
    # run must equal that route, written out here, bit for bit
    cluster, _, shard_mats, delta, l_f1 = _game_cluster(d=4, T=60, m=4, seed=6)
    K = 12
    cfg = _config(4, delta, l_f1, iters=K)
    monkeypatch.setattr(inner, "NEWTON_MAX_STEPS", 0)
    out = paus_run(cfg, cluster, keep_iterates=True)
    assert out.inner_fallbacks == K

    ref = ClusterState(shards=[saddle_shard(M) for M in shard_mats])
    cap, movement_tol = _inner_plan(cfg)

    def floor(p):
        return np.concatenate(per_block_floor(np.split(p, 2)))

    z, prev_u, iters = cfg.z0.concat(), None, []
    for k in range(K):
        f_z = gather_average(ref, [z])[0]
        f1_z = ref.server_shard.evaluate(z)
        problem = CompositeProblem(
            gamma=cfg.gamma, anchor=z, f1=ref.server_shard, offset=f_z - f1_z,
            geometry=cfg.geometry, l_f1=l_f1,
        )
        v0 = prev_u if prev_u is not None else z
        u, n = composite_mp(problem, v0, cap, movement_tol)
        u = floor(u)
        g = gather_average(ref, [u])[0] - ref.server_shard.evaluate(u) - f_z + f1_z
        z = floor(prox_map(cfg.geometry, u, g, cfg.gamma))
        assert np.array_equal(out.u_path[k], u)
        assert np.array_equal(out.z_path[k + 1], z)
        prev_u = u
        iters.append(n)
    assert [rec.inner_iters for rec in out.log] == iters
    assert cluster.round_count == ref.round_count == 2 * K

