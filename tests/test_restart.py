import math

import numpy as np
import pytest

from visim.cluster import ClusterState
from visim import inner, restart
from visim.errors import ConfigError, ParameterError, RestartStallError
from visim.geometry import (
    a_norm_ball,
    entropy_simplex,
    euclidean_ball,
    euclidean_simplex,
    omega_d,
    uniform_point,
)
from visim.inner import InnerSettings
from visim.paus import PausResult
from visim.restart import (
    RestartConfig,
    num_restarts,
    paus_r,
    stage_length,
    synthetic_strongly_monotone,
)


def _instance(dim, m, mu, delta, seed, eps, radius=1.0, inner_tol=None):
    shards, z_star, consts = synthetic_strongly_monotone(
        dim, m, mu, delta, seed, radius=radius
    )
    geom = euclidean_ball(dim, radius=radius)
    z0 = uniform_point(geom)  # the origin
    r0_sq = float(sum(b @ b for b in z_star.blocks))
    cfg = RestartConfig(
        mu=mu,
        delta=delta,
        eps=eps,
        geometry=geom,
        z0=z0,
        r0_sq=r0_sq,
        l_f1=consts.L_F1,
        inner=InnerSettings(tolerance=inner_tol),
    )
    return cfg, ClusterState(shards=shards), z_star


def test_stage_length_examples():
    assert stage_length(mu=1.0, gamma=4.0, omega=1.0) == 1  # 4w/(mu g) = 1
    assert stage_length(mu=0.1, gamma=10.0, omega=1.0) == 4
    # Euclidean ball omega = 1 and gamma = 1/delta -> ceil(4 delta / mu)
    delta, mu = 1.0, 0.05
    assert stage_length(mu, 1.0 / delta, 1.0) == math.ceil(4.0 * delta / mu)
    with pytest.raises(ParameterError):
        stage_length(0.0, 1.0, 1.0)


def test_num_restarts_examples():
    assert num_restarts(4.0, 1.0) == 1
    assert num_restarts(4.0, 0.9999) == 2  # just past one halving-pair
    assert num_restarts(1.0, 2.0) == 0  # already within eps
    assert num_restarts(1.0, 1e-6) == 10
    with pytest.raises(ParameterError):
        num_restarts(-1.0, 1.0)
    with pytest.raises(ParameterError):
        num_restarts(1.0, 0.0)


def test_zero_stages_returns_start():
    cfg, cluster, _ = _instance(4, 3, mu=0.2, delta=1.0, seed=0, eps=10.0)
    out = paus_r(cfg, cluster)
    assert out.stages == []
    np.testing.assert_array_equal(out.z_hat.concat(), cfg.z0.concat())
    assert cluster.round_count == 0


def test_distance_halves_each_stage():
    # the achieved distances overshoot the theoretical envelope, so the
    # per-stage check needs inner solves well below the final scale
    cfg, cluster, z_star = _instance(
        5, 4, mu=0.1, delta=1.0, seed=1, eps=1e-5, inner_tol=1e-18
    )
    out = paus_r(cfg, cluster, z_star=z_star)
    dists = [rec.dist_sq for rec in out.stages]
    prev = cfg.r0_sq
    for d in dists:
        assert d <= 0.25 * prev * 1.05**2  # paus_r itself enforces this too
        prev = d
    assert dists[-1] <= cfg.eps * 1.05**2


def test_no_stall_once_target_reached():
    # every stage shrinks ||u - z*||^2 about 30x until it reaches round-off
    # near 1e-14, below eps = 1e-5 from stage 2 on; the last stages no
    # longer shrink it, which is no stall
    cfg, cluster, z_star = _instance(10, 5, 0.05, 1.0, seed=4, eps=1e-5,
                                     inner_tol=1e-16)
    out = paus_r(cfg, cluster, z_star=z_star)
    assert len(out.stages) == num_restarts(cfg.r0_sq, cfg.eps) == 8
    assert out.stages[-1].dist_sq <= cfg.eps


@pytest.mark.parametrize("dim", [10, 50])
@pytest.mark.parametrize("seed", [1, 2])
def test_default_inner_settings_shrink_every_stage(dim, seed):
    # with the extragradient loop stopped at its default accuracy these
    # stalled from stage 5 on (about 0.36 per stage near 1e-8); exact solves
    # shrink ||u - z*||^2 by 0.006 to 0.06 in every stage
    cfg, cluster, z_star = _instance(dim, 5, 0.05, 1.0, seed=seed, eps=1e-6)
    out = paus_r(cfg, cluster, z_star=z_star)
    prev = cfg.r0_sq
    for stage in out.stages:
        if prev > 1e-12:
            assert stage.dist_sq <= 0.25 * restart.HALVING_SLACK**2 * prev
        prev = stage.dist_sq
    assert out.stages[-1].dist_sq <= cfg.eps


def test_fallbacks_are_summed_over_stages(monkeypatch):
    # with no Newton step allowed every subproblem of every stage falls back
    cfg, cluster, _ = _instance(4, 3, 0.05, 1.0, seed=0, eps=1e-4)
    assert paus_r(cfg, cluster).inner_fallbacks == 0
    monkeypatch.setattr(inner, "NEWTON_MAX_STEPS", 0)
    cfg, cluster, _ = _instance(4, 3, 0.05, 1.0, seed=0, eps=1e-4)
    out = paus_r(cfg, cluster)
    assert out.inner_fallbacks == sum(stage.iters for stage in out.stages) > 0


def test_stall_above_target_raises(monkeypatch):
    def stuck(config, cluster, log_predicate=None, system=None):
        return PausResult(u_avg=config.z0, log=[], u_path=[], z_path=[])

    monkeypatch.setattr(restart, "paus_run", stuck)
    cfg, cluster, z_star = _instance(4, 3, 0.05, 1.0, seed=0, eps=1e-4)
    with pytest.raises(RestartStallError, match="stage 0"):
        paus_r(cfg, cluster, z_star=z_star)


def test_final_accuracy_and_round_budget():
    mu, delta, eps = 0.05, 1.0, 1e-6
    cfg, cluster, z_star = _instance(4, 4, mu=mu, delta=delta, seed=2, eps=eps)
    out = paus_r(cfg, cluster, z_star=z_star)
    final = float(
        sum((a - b) @ (a - b) for a, b in zip(out.z_hat.blocks, z_star.blocks))
    )
    assert final <= eps * 1.1
    # total outer iterations across stages match K * N exactly
    om = 1.0  # Euclidean ball
    K = stage_length(mu, cfg.gamma, om)
    N = num_restarts(cfg.r0_sq, eps)
    assert sum(rec.iters for rec in out.stages) == K * N
    assert cluster.round_count == 2 * K * N


def test_strong_monotonicity_certificate():
    # one stage of K iterations: mu ||u - z*||^2 <= omega R0^2 / (K gamma)
    mu, delta = 0.1, 1.0
    shards, z_star, consts = synthetic_strongly_monotone(4, 3, mu, delta, seed=3)
    geom = euclidean_ball(4)
    z0 = uniform_point(geom)
    r0_sq = float(sum(b @ b for b in z_star.blocks))
    for K in (10, 40, 160):
        from visim.paus import PausConfig, paus_run

        cfg = PausConfig(
            gamma=1.0 / delta, iters=K, geometry=geom, z0=z0,
            l_f1=consts.L_F1, delta=delta,
        )
        out = paus_run(cfg, ClusterState(shards=shards))
        dist = float(
            sum((a - b) @ (a - b) for a, b in zip(out.u_avg.blocks, z_star.blocks))
        )
        bound = omega_d(geom, z0.concat()) * r0_sq / (K * cfg.gamma * mu)
        assert mu * dist <= mu * bound / mu + 1e-12
        assert dist <= bound * (1.0 + 1e-9)


def test_a_norm_ball_geometry_also_restarts():
    cfg0, cluster, z_star = _instance(6, 3, mu=0.2, delta=1.0, seed=4, eps=1e-4)
    geom = a_norm_ball(6)
    cfg = RestartConfig(
        mu=0.2, delta=1.0, eps=1e-4, geometry=geom, z0=uniform_point(geom),
        r0_sq=cfg0.r0_sq, l_f1=cfg0.l_f1,
    )
    out = paus_r(cfg, cluster, z_star=z_star)
    final = float(
        sum((a - b) @ (a - b) for a, b in zip(out.z_hat.blocks, z_star.blocks))
    )
    assert final <= 1e-4 * 1.1


def test_config_validation():
    geom = euclidean_ball(3)
    z0 = uniform_point(geom)
    kw = dict(delta=1.0, eps=1e-3, geometry=geom, z0=z0, r0_sq=1.0, l_f1=1.0)
    with pytest.raises(ParameterError):
        RestartConfig(mu=0.0, **kw)
    with pytest.raises(ConfigError):
        # mu > delta * omega: a stage would need under one iteration
        RestartConfig(mu=10.0, **kw)
    # neither simplex setup can be recentred, although the Euclidean one's
    # omega is 1
    for simplex in (entropy_simplex(3), euclidean_simplex(4, blocks=1)):
        with pytest.raises(ConfigError):
            RestartConfig(
                mu=0.1, delta=1.0, eps=1e-3, geometry=simplex,
                z0=uniform_point(simplex), r0_sq=1.0, l_f1=1.0,
            )
    cfg = RestartConfig(mu=0.1, **kw)
    assert cfg.gamma == pytest.approx(1.0)  # defaulted to 1/delta


def test_synthetic_family_properties():
    mu, delta = 0.3, 0.7
    shards, z_star, consts = synthetic_strongly_monotone(5, 4, mu, delta, seed=5)
    assert consts.mu == mu and consts.norm_tag == "l2"
    # the average operator vanishes at z_star
    avg = np.mean(
        [s.evaluate(z_star.concat()) for s in shards], axis=0
    )
    np.testing.assert_allclose(avg, 0.0, atol=1e-12)
    # server deviation has spectral norm exactly delta
    M_mean = np.mean([s.payload[0] for s in shards], axis=0)
    dev = np.linalg.norm(shards[0].payload[0] - M_mean, 2)
    assert dev == pytest.approx(delta, rel=1e-10)
    # solution strictly inside the unit ball
    assert np.linalg.norm(z_star.blocks[0]) == pytest.approx(0.5)
    with pytest.raises(ParameterError):
        synthetic_strongly_monotone(4, 2, 0.1, 0.5, seed=0, spread=1.5)


@pytest.mark.parametrize("field, value", [
    ("dim", 1), ("dim", 0), ("dim", 3.0),
    ("m", 1), ("m", 0),
    ("seed", -1), ("seed", 2.5),
    ("mu", math.nan), ("mu", math.inf), ("mu", 0.0), ("mu", -0.5),
    ("delta", math.nan), ("delta", 0.0),
    ("radius", math.nan), ("radius", -1.0),
])
def test_family_refuses_inputs_no_family_can_have(field, value):
    # dim 1 has A = 0 and m 1 no server deviation; before, mu = nan raised
    # LinAlgError, m = 0 IndexError and a bad seed numpy's ValueError
    kw = dict(dim=4, m=3, mu=0.5, delta=1.0, seed=0, radius=1.0)
    kw[field] = value
    with pytest.raises(ConfigError, match=f"^{field} must be"):
        synthetic_strongly_monotone(**kw)
