"""The outer loop on flat arrays: ``paus_run``, ``mirror_prox_run`` and
``paus_r`` against the same loop written out block by block
(``oracles.per_block_run``), and each flat function of a step against the
per-block formulas, bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    per_block_composite_prox,
    per_block_evaluate,
    per_block_floor,
    per_block_grad,
    per_block_prox,
    per_block_run,
)
from visim import baselines, inner, paus, restart
from visim.baselines import BaselineConfig, BaselineKind, mirror_prox_run
from visim.cluster import ClusterState
from visim.errors import DomainError, ShapeError
from visim.geometry import (
    GeometryKind,
    GeometrySetup,
    Point,
    a_norm_ball,
    composite_prox_map,
    dgf_grad,
    euclidean_ball,
    floor_simplex_flat,
    prox_map,
    random_point,
    recenter,
    uniform_point,
)
from visim.inner import NewtonSystem
from visim.operators import OperatorShard, saddle_shard
from visim.paus import PausConfig, duality_gap, paus_run
from visim.restart import RestartConfig, paus_r, synthetic_strongly_monotone


def _game(kind, d1, d2, T=60, m=4, seed=0):
    """A sharded matrix game (one Rademacher sign per matrix) on blocks of
    sizes d1 and d2, in the entropy or Euclidean simplex geometry, with
    gamma = 1/delta and L_F1 in that geometry's pairing, and its gap."""
    rng = np.random.default_rng(seed)
    C = rng.uniform(0.0, 1.0, size=(d1, d2))
    mats = (1.0 + rng.choice([-1.0, 1.0], size=(T, 1, 1))) * C
    mean = mats.mean(axis=0)
    n = T // m
    shard_mats = [mats[i * n:(i + 1) * n].mean(axis=0) for i in range(m)]
    kind_ = (GeometryKind.ENTROPY_SIMPLEX if kind == "entropy"
             else GeometryKind.EUCLIDEAN_SIMPLEX)
    geom = GeometrySetup(kind_, (d1, d2))
    if kind == "entropy":
        delta = float(np.abs(mean - shard_mats[0]).max())
        l_f1 = float(np.abs(shard_mats[0]).max())
    else:
        delta = float(np.linalg.norm(mean - shard_mats[0], 2))
        l_f1 = float(np.linalg.norm(shard_mats[0], 2))

    def gap_fn(u):
        return duality_gap(mean, u.blocks[0], u.blocks[1])

    return shard_mats, geom, 1.0 / delta, l_f1, float(np.abs(mean).max()), gap_fn


GAMES = {
    "entropy": ("entropy", 6, 6),
    "euclidean": ("euclidean", 6, 6),
    "rectangular": ("entropy", 4, 7),
    "rectangular-euclidean": ("euclidean", 7, 3),
}


def _assert_same_run(got, want, cluster, ref_cluster, paths):
    assert np.array_equal(got.u_avg.concat(), want.u_avg.concat())
    assert [(r.round, r.iterate_gap, r.inner_iters) for r in got.log] == want.log
    assert cluster.round_count == ref_cluster.round_count
    assert cluster.bytes_sent == ref_cluster.bytes_sent
    assert got.inner_fallbacks == want.inner_fallbacks
    if paths:
        assert len(got.u_path) == len(want.u_path)
        for a, b in zip(got.u_path + got.z_path, want.u_path + want.z_path):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("game", sorted(GAMES))
@pytest.mark.parametrize("fallback", [False, True])
def test_paus_run_matches_the_per_block_step(game, fallback, monkeypatch):
    if fallback:
        # no Newton step and no continuation: every subproblem goes to the
        # extragradient loop
        monkeypatch.setattr(inner, "NEWTON_MAX_STEPS", 0)
        monkeypatch.setattr(inner, "_GAMMA_CONTINUATION_CAP", 0)
    shard_mats, geom, gamma, l_f1, _, gap_fn = _game(*GAMES[game], seed=3)
    K = 8 if fallback else 25
    cfg = PausConfig(gamma=gamma, iters=K, geometry=geom, z0=uniform_point(geom),
                     l_f1=l_f1)
    cluster = ClusterState(shards=[saddle_shard(M) for M in shard_mats])
    ref_cluster = ClusterState(shards=[saddle_shard(M) for M in shard_mats])
    got = paus_run(cfg, cluster, gap_fn=gap_fn, keep_iterates=True)
    want = per_block_run("paus", cfg, ref_cluster, gap_fn=gap_fn, keep_iterates=True,
                         system=NewtonSystem(ref_cluster.server_shard, gamma, geom))
    assert (got.inner_fallbacks == K) if fallback else (got.inner_fallbacks == 0)
    _assert_same_run(got, want, cluster, ref_cluster, paths=True)


@pytest.mark.parametrize("game", sorted(GAMES))
def test_mirror_prox_run_matches_the_per_block_step(game):
    shard_mats, geom, _, _, L, gap_fn = _game(*GAMES[game], seed=4)
    cfg = BaselineConfig(kind=BaselineKind.MIRROR_PROX, stepsize=1.0 / L, iters=30,
                         geometry=geom, z0=uniform_point(geom))
    cluster = ClusterState(shards=[saddle_shard(M) for M in shard_mats])
    ref_cluster = ClusterState(shards=[saddle_shard(M) for M in shard_mats])
    got = mirror_prox_run(cfg, cluster, gap_fn=gap_fn,
                          log_predicate=lambda k: k % 3 == 0)
    want = per_block_run("mirror-prox", cfg, ref_cluster, gap_fn=gap_fn,
                         log_predicate=lambda k: k % 3 == 0)
    _assert_same_run(got, want, cluster, ref_cluster, paths=False)


def test_restart_matches_the_per_block_step(monkeypatch):
    # every stage after the first runs on a recentred ball
    dim = 8
    shards, z_star, consts = synthetic_strongly_monotone(dim, m=4, mu=0.5, delta=1.0,
                                                         seed=5)
    geom = euclidean_ball(dim)
    config = RestartConfig(mu=0.5, delta=1.0, eps=1e-6, geometry=geom,
                           z0=uniform_point(geom),
                           r0_sq=float(z_star.concat() @ z_star.concat()),
                           l_f1=consts.L_F1)
    cluster = ClusterState(shards=list(shards))
    got = paus_r(config, cluster, z_star=z_star)

    centres = []

    def per_block_paus_run(cfg, cluster, log_predicate=None, system=None):
        centres.append(cfg.geometry.center)
        return per_block_run("paus", cfg, cluster, log_predicate=log_predicate,
                             system=system)

    monkeypatch.setattr(restart, "paus_run", per_block_paus_run)
    ref_cluster = ClusterState(shards=list(shards))
    want = paus_r(config, ref_cluster, z_star=z_star)
    assert len(got.stages) == len(want.stages) >= 3
    assert sum(c is not None for c in centres) == len(centres) - 1
    assert np.array_equal(got.z_hat.concat(), want.z_hat.concat())
    assert got.stages == want.stages
    for a, b in zip(got.stage_points, want.stage_points):
        assert np.array_equal(a.concat(), b.concat())
    assert cluster.round_count == ref_cluster.round_count
    assert cluster.bytes_sent == ref_cluster.bytes_sent


def test_paus_run_sends_the_a_norm_ball_straight_to_composite_mp(monkeypatch):
    # the a-norm ball has no closed-form mirror map: the run makes no Newton
    # attempt, counts every subproblem as handed to the extragradient loop,
    # and keeps the bits of the per-block route, which goes there at once
    dim, K = 6, 5
    shards, _, consts = synthetic_strongly_monotone(dim, m=4, mu=0.5, delta=1.0,
                                                    seed=2)
    geom = a_norm_ball(dim)
    cfg = PausConfig(gamma=1.0, iters=K, geometry=geom, z0=uniform_point(geom),
                     l_f1=consts.L_F1)
    ref_cluster = ClusterState(shards=list(shards))
    want = per_block_run("paus", cfg, ref_cluster, keep_iterates=True)

    def no_newton(*args):
        raise AssertionError("a Newton attempt on the a-norm ball")

    monkeypatch.setattr(paus, "newton_solve_flat", no_newton)
    cluster = ClusterState(shards=list(shards))
    got = paus_run(cfg, cluster, keep_iterates=True)
    assert got.inner_fallbacks == want.inner_fallbacks == K
    _assert_same_run(got, want, cluster, ref_cluster, paths=True)


@pytest.mark.parametrize("solver", ["paus", "mirror-prox", "paus-r"])
def test_a_layout_the_shards_do_not_fit_is_rejected(solver):
    # the (5, 3) layout's points have the size of the (3, 5) game's, so
    # only the block sizes tell them apart: a geometry of that layout, or a
    # start cut that way, is refused before any round
    if solver == "paus-r":
        # a restarted run is on a ball, one block of 8: a start cut (3, 5)
        shards, _, consts = synthetic_strongly_monotone(8, m=4, mu=0.5, delta=1.0,
                                                        seed=5)
        geom, cut = euclidean_ball(8), Point.of(np.zeros(3), np.zeros(5))
        fields = dict(mu=0.5, delta=1.0, eps=1e-6, geometry=geom, r0_sq=1.0,
                      l_f1=consts.L_F1)
        with pytest.raises(ShapeError):
            RestartConfig(z0=cut, **fields)
        config = RestartConfig(z0=uniform_point(geom), **fields)
        config.z0 = cut
        cluster = ClusterState(shards=list(shards))
        with pytest.raises(ShapeError):
            paus_r(config, cluster)
        assert cluster.round_count == cluster.bytes_sent == 0
        return
    shard_mats, geom, gamma, l_f1, L, _ = _game("euclidean", 3, 5)
    wrong = GeometrySetup(geom.kind, (5, 3))
    for setup in (wrong, geom):
        cluster = ClusterState(shards=[saddle_shard(M) for M in shard_mats])
        with pytest.raises(ShapeError):
            if solver == "paus":
                paus_run(PausConfig(gamma=gamma, iters=2, geometry=setup,
                                    z0=uniform_point(wrong), l_f1=l_f1), cluster)
            else:
                mirror_prox_run(BaselineConfig(
                    kind=BaselineKind.MIRROR_PROX, stepsize=1.0 / L, iters=2,
                    geometry=setup, z0=uniform_point(wrong)), cluster)
        assert cluster.round_count == cluster.bytes_sent == 0


def test_the_steps_call_prox_map_by_its_module_names(monkeypatch):
    # perfbench counts prox maps by wrapping paus.prox_map and
    # baselines.prox_map: a paus step takes one prox map, an extragradient
    # step two
    calls = []

    def counting(*args):
        calls.append(1)
        return prox_map(*args)

    monkeypatch.setattr(paus, "prox_map", counting)
    monkeypatch.setattr(baselines, "prox_map", counting)
    shard_mats, geom, gamma, l_f1, L, _ = _game("entropy", 4, 4, seed=1)
    paus_run(PausConfig(gamma=gamma, iters=3, geometry=geom, z0=uniform_point(geom),
                        l_f1=l_f1),
             ClusterState(shards=[saddle_shard(M) for M in shard_mats]))
    assert len(calls) == 3
    mirror_prox_run(BaselineConfig(kind=BaselineKind.MIRROR_PROX, stepsize=1.0 / L,
                                   iters=3, geometry=geom, z0=uniform_point(geom)),
                    ClusterState(shards=[saddle_shard(M) for M in shard_mats]))
    assert len(calls) == 3 + 6


@pytest.mark.parametrize("game", ["entropy", "euclidean", "ball"])
def test_kept_iterates_hold_the_values_of_their_own_step(game, monkeypatch):
    # each step's u^k and z^{k+1} are copied as the step returns them; the
    # kept paths must still hold those values at the end of the run, so no
    # later step may have written into them
    copies = []
    drive = paus._drive

    def copying_drive(geometry, z0, iters, step, *rest):
        def copying_step(z):
            u, z_next, n = step(z)
            copies.append((u.copy(), z_next.copy()))
            return u, z_next, n

        return drive(geometry, z0, iters, copying_step, *rest)

    monkeypatch.setattr(paus, "_drive", copying_drive)
    if game == "ball":
        shards, _, consts = synthetic_strongly_monotone(6, m=4, mu=0.5, delta=1.0,
                                                        seed=2)
        geom = recenter(euclidean_ball(6), np.full(6, 0.1), np.zeros(6))
        cluster = ClusterState(shards=list(shards))
        cfg = PausConfig(gamma=1.0, iters=20, geometry=geom,
                         z0=Point.of(np.full(6, 0.1)), l_f1=consts.L_F1)
    else:
        shard_mats, geom, gamma, l_f1, _, _ = _game(game, 5, 5, seed=6)
        cluster = ClusterState(shards=[saddle_shard(M) for M in shard_mats])
        cfg = PausConfig(gamma=gamma, iters=20, geometry=geom,
                         z0=uniform_point(geom), l_f1=l_f1)
    out = paus_run(cfg, cluster, keep_iterates=True)
    assert len(copies) == len(out.u_path) == len(out.z_path) - 1 == 20
    for k, (u, z_next) in enumerate(copies):
        assert np.array_equal(out.u_path[k], u)
        assert np.array_equal(out.z_path[k + 1], z_next)
    kept = out.u_path + out.z_path[1:]
    for i, a in enumerate(kept):
        for b in kept[i + 1:]:
            assert a is b or not np.shares_memory(a, b)


# ---------------------------------------------------------------------------
# each flat function against the per-block formulas


def _point(kind, geom, rng):
    """A random point of geom; for entropy, with a random proper subset of
    each block's coordinates floored at 1e-300."""
    z = random_point(geom, rng)
    if kind != "entropy":
        return z
    for lo, hi in geom.layout.bounds:
        b = z[lo:hi]
        if b.size > 1:
            b[rng.permutation(b.size)[: rng.integers(1, b.size)]] = 0.0
    return floor_simplex_flat(z, geom.layout.bounds)


def _blocks(geom, flat):
    """The blocks of ``flat`` as a list of fresh arrays."""
    return [flat[lo:hi].copy() for lo, hi in geom.layout.bounds]


def _setup(kind, d1, d2, rng):
    """A geometry of the given kind, a point in it (see :func:`_point`), a
    dual vector and an F1 that fits it."""
    if kind in ("entropy", "simplex"):
        kind_ = (GeometryKind.ENTROPY_SIMPLEX if kind == "entropy"
                 else GeometryKind.EUCLIDEAN_SIMPLEX)
        geom = GeometrySetup(kind_, (d1, d2))
        f1 = saddle_shard(rng.uniform(-1.0, 1.0, size=(d1, d2)))
    else:
        dim = max(d1, 3)
        geom = a_norm_ball(dim) if kind == "a-norm" else euclidean_ball(dim)
        if kind == "ball-recentred":
            geom = recenter(geom, random_point(geom, rng), random_point(geom, rng))
        K = rng.normal(size=(dim, dim))
        f1 = OperatorShard(0.5 * (K - K.T) + 0.1 * np.eye(dim), rng.normal(size=dim))
    z = _point(kind, geom, rng)
    g = np.concatenate([rng.normal(size=n) * 10.0 ** rng.integers(-3, 3)
                        for n in geom.block_dims])
    return geom, f1, z, g


def _same(blocks, flat, layout):
    return all(np.array_equal(b, flat[lo:hi])
               for b, (lo, hi) in zip(blocks, layout.bounds))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["entropy", "simplex", "ball", "ball-recentred", "a-norm"]),
       st.integers(1, 9), st.integers(1, 9), st.integers(0, 2**32 - 1),
       st.floats(0.01, 50.0))
def test_flat_functions_match_the_per_block_formulas(kind, d1, d2, seed, step):
    rng = np.random.default_rng(seed)
    geom, f1, z, g = _setup(kind, d1, d2, rng)
    layout = geom.layout
    zb, gb = _blocks(geom, z), _blocks(geom, g)

    # the a-norm ball's prox and gradient are their own per-block formulas
    if kind != "a-norm":
        assert _same(per_block_prox(geom, zb, gb, step), prox_map(geom, z, g, step),
                     layout)
        assert _same(per_block_grad(geom, zb), dgf_grad(geom, z), layout)

    if kind == "entropy":
        floored = floor_simplex_flat(z, layout.bounds)
        assert _same(per_block_floor(zb), floored, layout)

    assert _same(per_block_evaluate(f1, zb), f1.evaluate(z), layout)

    # the composite prox with anchor a, centre z and weight eta = step
    a = _point(kind, geom, rng)
    comp = composite_prox_map(geom, a, z, g, step)
    assert _same(per_block_composite_prox(geom, _blocks(geom, a), zb, gb, step),
                 comp, layout)


@pytest.mark.parametrize("dims", [(1, 1), (3, 5), (6, 2)])
def test_exact_zeros_still_raise_domain_error(dims):
    geom = GeometrySetup(GeometryKind.ENTROPY_SIMPLEX, dims)
    rng = np.random.default_rng(sum(dims))
    g = rng.normal(size=sum(dims))
    for i in range(sum(dims)):
        zf = np.concatenate([np.full(n, 1.0 / n) for n in dims])
        zf[i] = 0.0
        with pytest.raises(DomainError):
            dgf_grad(geom, zf)
        with pytest.raises(DomainError):
            prox_map(geom, zf, g, 1.0)
    # the floor keeps 1e-300 coordinates interior
    zf = np.concatenate([np.full(n, 1.0 / n) for n in dims])
    zf[0] = 1e-300
    assert math.isfinite(float(dgf_grad(geom, zf)[0]))
    assert np.all(prox_map(geom, zf, g, 1.0) >= 0.0)
