import math

import numpy as np
import pytest

from visim import restart
from visim.cluster import ClusterState, gather_average
from visim.errors import DomainError, NumericsError, ParameterError
from visim.geometry import (
    GeometryKind,
    GeometrySetup,
    TINY_MASS,
    bregman_divergence,
    composite_prox_map,
    dgf_grad,
    entropy_simplex,
    euclidean_ball,
    euclidean_simplex,
    random_point,
    uniform_point,
)
from visim.inner import CompositeProblem, NewtonSystem, composite_mp, newton_solve_flat
from visim.operators import saddle_shard


def _game_problem(d, T, m, seed, gamma=None, geometry=entropy_simplex):
    """A small sharded matrix game packaged as one composite subproblem
    anchored at the uniform point."""
    rng = np.random.default_rng(seed)
    C = rng.uniform(0.0, 1.0, size=(d, d))
    xi = rng.choice([-1.0, 1.0], size=(T, 1, 1))
    mats = (1.0 + xi) * C
    mean = mats.mean(axis=0)
    shard1_mat = mats[: T // m].mean(axis=0)
    delta = float(np.abs(mean - shard1_mat).max())
    l_f1 = float(np.abs(shard1_mat).max())
    geom = geometry(d)
    anchor = uniform_point(geom).concat()
    f1 = saddle_shard(shard1_mat)
    mean_op = saddle_shard(mean)
    offset = mean_op.evaluate(anchor) - f1.evaluate(anchor)
    prob = CompositeProblem(
        gamma=gamma if gamma is not None else 1.0 / delta,
        anchor=anchor,
        f1=f1,
        offset=offset,
        geometry=geom,
        l_f1=l_f1,
    )
    return prob, delta, l_f1


def _path(prob, v0, iters):
    """The iterates v^1..v^iters of ``composite_mp`` from the flat v0, each
    one iteration from the one before: the loop's state is the iterate
    alone, so this is the path of one run of ``iters`` iterations."""
    path = [v0]
    for _ in range(iters):
        path.append(composite_mp(prob, path[-1], 1)[0])
    return path[1:]


def test_zero_operator_anchor_is_stationary():
    geom = entropy_simplex(3)
    anchor = uniform_point(geom).concat()
    prob = CompositeProblem(
        gamma=1.0,
        anchor=anchor,
        f1=saddle_shard(np.zeros((3, 3))),
        offset=np.zeros(6),
        geometry=geom,
        l_f1=1.0,
    )
    v, iters = composite_mp(prob, anchor, 25, 0.0)
    np.testing.assert_allclose(v, anchor, atol=1e-12)


def test_zero_operator_pulls_toward_anchor():
    geom = entropy_simplex(3)
    anchor = uniform_point(geom).concat()
    rng = np.random.default_rng(0)
    v0 = np.concatenate([rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3))])
    prob = CompositeProblem(
        gamma=1.0,
        anchor=anchor,
        f1=saddle_shard(np.zeros((3, 3))),
        offset=np.zeros(6),
        geometry=geom,
        l_f1=1.0,
    )
    v, _ = composite_mp(prob, v0, 400, 0.0)
    assert bregman_divergence(geom, v, anchor) < 1e-8


def _reference_solution(prob, geom):
    """v* from three different starts of a long run; mutual agreement
    asserted before use as an oracle.  The run length follows the linear
    rate: contraction factor 1/(1+eta) per iteration."""
    # agreement to 1e-10 in coordinates needs V ~ 1e-20: ~50 e-foldings
    T = min(2_000_000, math.ceil(55.0 / math.log1p(prob.eta)))
    rng = np.random.default_rng(99)
    starts = [uniform_point(geom).concat()] + [random_point(geom, rng)
                                               for _ in range(2)]
    sols = [composite_mp(prob, s, T, 0.0)[0] for s in starts]
    for s in sols[1:]:
        assert float(np.abs(s - sols[0]).max()) < 1e-10
    return sols[0]


def test_linear_contraction_certificate():
    # (1+eta) V(v*, v^{t+1}) <= V(v*, v^t), checked per iteration
    prob, delta, l_f1 = _game_problem(d=3, T=40, m=4, seed=1)
    geom = prob.geometry
    eta = prob.eta
    v_star = _reference_solution(prob, geom)
    v0 = uniform_point(geom).concat()
    path = _path(prob, v0, 60)
    assert np.array_equal(path[-1], composite_mp(prob, v0, 60)[0])
    prev = v0
    for v in path:
        lhs = bregman_divergence(geom, v_star, v)
        rhs = bregman_divergence(geom, v_star, prev) / (1.0 + eta)
        assert lhs <= rhs + 1e-9
        prev = v


def test_rate_matches_theory_envelope():
    # V(v*, v^T) <= exp(-T delta / (3 L_F1)) V(v*, v0) at gamma = 1/delta
    prob, delta, l_f1 = _game_problem(d=3, T=40, m=4, seed=2)
    geom = prob.geometry
    v_star = _reference_solution(prob, geom)
    v0 = uniform_point(geom).concat()
    V0 = bregman_divergence(geom, v_star, v0)
    for T in (10, 25, 50):
        vT, _ = composite_mp(prob, v0, T, 0.0)
        bound = math.exp(-T * delta / (3.0 * l_f1)) * V0
        assert bregman_divergence(geom, v_star, vT) <= bound + 1e-9


def test_line4_vi_residual():
    # <gamma (F1(v)+offset) + grad w(v) - grad w(anchor), z - v> >= -1e-6
    prob, _, _ = _game_problem(d=4, T=60, m=4, seed=3)
    geom = prob.geometry
    v, _ = composite_mp(prob, uniform_point(geom).concat(), 2000, 1e-22)
    f1v = prob.f1.evaluate(v)
    lhs = (prob.gamma * (f1v + prob.offset) + dgf_grad(geom, v)
           - dgf_grad(geom, prob.anchor))
    rng = np.random.default_rng(4)
    for _ in range(200):
        z = random_point(geom, rng)
        assert float(lhs @ (z - v)) >= -1e-6


def _ball_problem(dim, seed, push=0.0):
    """One paus subproblem of the synthetic strongly monotone family on the
    unit l2 ball; ``push`` adds a constant to the offset that moves the
    subproblem's solution out of the ball, so the projection is active."""
    shards, _, consts = restart.synthetic_strongly_monotone(
        dim=dim, m=5, mu=0.5, delta=1.0, seed=seed
    )
    rng = np.random.default_rng(seed)
    geom = euclidean_ball(dim)
    anchor = random_point(geom, rng)
    f_anchor = gather_average(ClusterState(shards=shards), [anchor])[0]
    f1_anchor = shards[0].evaluate(anchor)
    offset = f_anchor - f1_anchor + push * rng.standard_normal(dim)
    prob = CompositeProblem(
        gamma=1.0, anchor=anchor, f1=shards[0], offset=offset,
        geometry=geom, l_f1=consts.L_F1,
    )
    return prob, random_point(geom, rng)


def test_composite_mp_on_uneven_blocks_and_an_lp_ball():
    # a non-square saddle shard: blocks of sizes 3 and 5, where the loop
    # reaches the exact solve's answer
    rng = np.random.default_rng(4)
    geom = GeometrySetup(GeometryKind.EUCLIDEAN_SIMPLEX, (3, 5))
    M = rng.uniform(-1.0, 1.0, size=(3, 5))
    prob = CompositeProblem(
        gamma=1.0, anchor=uniform_point(geom).concat(), f1=saddle_shard(M),
        offset=np.concatenate([rng.normal(size=3), rng.normal(size=5)]),
        geometry=geom, l_f1=float(np.linalg.norm(M, 2)),
    )
    v0 = random_point(geom, rng)
    exact, _, _ = newton_solve_flat(
        NewtonSystem(prob.f1, prob.gamma, geom), geom,
        dgf_grad(geom, prob.anchor), prob.offset, v0, prob.f1.evaluate(v0),
    )
    v, iters = composite_mp(prob, v0, 2000, 1e-24)
    assert iters < 2000
    assert v.shape == (8,)
    assert float(np.abs(v - exact).max()) <= 1e-9
    # an l3 ball has no Euclidean projection: the setup itself is refused
    with pytest.raises(ParameterError):
        GeometrySetup(GeometryKind.EUCLIDEAN_BALL, (4,), 1.0, 3.0)


def test_euclidean_loop_rejects_non_finite_offset():
    prob, _, _ = _game_problem(d=4, T=40, m=4, seed=11, geometry=euclidean_simplex)
    ball, v0_ball = _ball_problem(5, seed=11)
    cases = [
        (CompositeProblem(
            gamma=prob.gamma, anchor=prob.anchor, f1=prob.f1,
            offset=np.concatenate([[0.0, np.inf, 0.0, 0.0], np.zeros(4)]),
            geometry=prob.geometry, l_f1=prob.l_f1,
        ), prob.anchor),
        (CompositeProblem(
            gamma=ball.gamma, anchor=ball.anchor, f1=ball.f1,
            offset=np.full(5, np.nan),
            geometry=ball.geometry, l_f1=ball.l_f1,
        ), v0_ball),
    ]
    for bad, v0 in cases:
        with pytest.raises(NumericsError):
            composite_mp(bad, v0, 5)


def test_entropy_floor_keeps_underflowing_coordinates():
    # anchor and start at the 1e-300 floor, with the offset pushing the
    # x-block further out: one unfloored step sinks below TINY_MASS, and
    # the loop holds every iterate at the floor
    d = 4
    geom = entropy_simplex(d)
    edge = np.array([1.0 - 3e-300, 1e-300, 1e-300, 1e-300])
    a = np.concatenate([edge, np.full(d, 1.0 / d)])
    prob = CompositeProblem(
        gamma=1.0,
        anchor=a,
        f1=saddle_shard(np.ones((d, d))),
        offset=np.concatenate([[0.0, 5.0, 5.0, 5.0], np.zeros(d)]),
        geometry=geom,
        l_f1=1.0,
    )
    raw = composite_prox_map(geom, a, a, prob.gradient(a), prob.eta)
    assert raw[:d].min() < TINY_MASS
    for v in _path(prob, a, 3):
        for b in (v[:d], v[d:]):
            assert np.all(b >= TINY_MASS)
            assert b.sum() == pytest.approx(1.0, abs=1e-15)
    # a start with an exact zero is off the entropy domain
    with pytest.raises(DomainError):
        composite_mp(prob, np.concatenate([[1.0, 0.0, 0.0, 0.0], np.full(d, 1.0 / d)]),
                     3)


def test_composite_solution_differs_from_f1_solution():
    # regression: with offset = 0 and an anchor far from the F1-solution the
    # output solves the *composite* problem (anchored), not the plain F1 VI
    rng = np.random.default_rng(7)
    d = 3
    M = rng.uniform(0.5, 1.5, size=(d, d))
    geom = entropy_simplex(d)
    anchor = np.array([0.90, 0.05, 0.05, 0.05, 0.05, 0.90])
    f1 = saddle_shard(M)
    prob = CompositeProblem(
        gamma=0.25,
        anchor=anchor,
        f1=f1,
        offset=np.zeros(2 * d),
        geometry=geom,
        l_f1=float(np.abs(M).max()),
    )
    v, _ = composite_mp(prob, uniform_point(geom).concat(), 3000, 1e-24)
    # the composite stationarity condition holds ...
    f1v = f1.evaluate(v)
    resid = prob.gamma * f1v + dgf_grad(geom, v) - dgf_grad(geom, anchor)
    for _ in range(100):
        z = random_point(geom, rng)
        assert float(resid @ (z - v)) >= -1e-6
    # ... while the plain-F1 residual is decisively violated somewhere
    worst = min(
        float(f1v @ (z - v))
        for z in (random_point(geom, rng) for _ in range(300))
    )
    assert worst < -1e-3


def test_iterates_stay_strictly_positive():
    prob, _, _ = _game_problem(d=4, T=60, m=4, seed=8)
    for v in _path(prob, uniform_point(prob.geometry).concat(), 50):
        assert np.all(v > 0)


def test_input_validation():
    prob, _, _ = _game_problem(d=3, T=40, m=4, seed=9)
    v0 = uniform_point(prob.geometry).concat()
    with pytest.raises(ParameterError):
        composite_mp(prob, v0, 0)
    with pytest.raises(ParameterError):
        composite_mp(prob, v0, 5, movement_tol=-1.0)
    with pytest.raises(ParameterError):
        CompositeProblem(
            gamma=-1.0, anchor=v0, f1=prob.f1, offset=prob.offset,
            geometry=prob.geometry, l_f1=1.0,
        )


@pytest.mark.parametrize("field", ["gamma", "l_f1"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_composite_problem_rejects_a_constant_that_is_not_finite(field, value):
    prob, _, _ = _game_problem(d=3, T=40, m=4, seed=9)
    settings = {"gamma": 1.0, "l_f1": 1.0, field: value}
    with pytest.raises(ParameterError, match="finite and positive"):
        CompositeProblem(anchor=prob.anchor, f1=prob.f1, offset=prob.offset,
                         geometry=prob.geometry, **settings)
