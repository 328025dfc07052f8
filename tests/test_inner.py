import math

import numpy as np
import pytest

from visim import _kernels
from visim.errors import ParameterError
from visim.geometry import (
    DualVector,
    Point,
    TINY_MASS,
    bregman_divergence,
    dgf_grad,
    entropy_simplex,
    pairing,
    random_point,
    uniform_point,
)
from visim.inner import (
    CompositeProblem,
    _log_space_operands,
    composite_mp,
)
from visim.operators import OperatorShard, saddle_shard


def _zero_shard(dims):
    return OperatorShard(
        payload=None,
        evaluate=lambda z: DualVector(tuple(np.zeros(d) for d in dims)),
    )


def _game_problem(d, T, m, seed, gamma=None):
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
    geom = entropy_simplex(d)
    anchor = uniform_point(geom)
    f1 = saddle_shard(shard1_mat)
    mean_op = saddle_shard(mean)
    f_anchor = mean_op.evaluate(anchor)
    f1_anchor = f1.evaluate(anchor)
    offset = DualVector(
        tuple(a - b for a, b in zip(f_anchor.blocks, f1_anchor.blocks))
    )
    prob = CompositeProblem(
        gamma=gamma if gamma is not None else 1.0 / delta,
        anchor=anchor,
        f1=f1,
        offset=offset,
        geometry=geom,
        l_f1=l_f1,
    )
    return prob, delta, l_f1


def test_zero_operator_anchor_is_stationary():
    geom = entropy_simplex(3)
    anchor = uniform_point(geom)
    prob = CompositeProblem(
        gamma=1.0,
        anchor=anchor,
        f1=_zero_shard((3, 3)),
        offset=DualVector.of(np.zeros(3), np.zeros(3)),
        geometry=geom,
        l_f1=1.0,
    )
    v, iters = composite_mp(prob, anchor, 25, 0.0, force_generic=True)
    for a, b in zip(v.blocks, anchor.blocks):
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_zero_operator_pulls_toward_anchor():
    geom = entropy_simplex(3)
    anchor = uniform_point(geom)
    rng = np.random.default_rng(0)
    v0 = Point.of(rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3)))
    prob = CompositeProblem(
        gamma=1.0,
        anchor=anchor,
        f1=_zero_shard((3, 3)),
        offset=DualVector.of(np.zeros(3), np.zeros(3)),
        geometry=geom,
        l_f1=1.0,
    )
    v, _ = composite_mp(prob, v0, 400, 0.0, force_generic=True)
    assert bregman_divergence(geom, v, anchor) < 1e-8


def _reference_solution(prob, geom):
    """v* from three different starts of a long run; mutual agreement
    asserted before use as an oracle.  The run length follows the linear
    rate: contraction factor 1/(1+eta) per iteration."""
    # agreement to 1e-10 in coordinates needs V ~ 1e-20: ~50 e-foldings;
    # the fast path (verified against the generic one elsewhere) keeps the
    # long reference runs cheap
    T = min(2_000_000, math.ceil(55.0 / math.log1p(prob.eta)))
    rng = np.random.default_rng(99)
    starts = [uniform_point(geom)] + [random_point(geom, rng) for _ in range(2)]
    sols = [composite_mp(prob, s, T, 0.0)[0] for s in starts]
    for s in sols[1:]:
        assert float(np.abs(s.concat() - sols[0].concat()).max()) < 1e-10
    return sols[0]


def test_linear_contraction_certificate():
    # (1+eta) V(v*, v^{t+1}) <= V(v*, v^t), checked per iteration
    prob, delta, l_f1 = _game_problem(d=3, T=40, m=4, seed=1)
    geom = prob.geometry
    eta = prob.eta
    v_star = _reference_solution(prob, geom)
    _, _, path = composite_mp(
        prob, uniform_point(geom), 60, 0.0, force_generic=True, record_path=True
    )
    prev = uniform_point(geom)
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
    v0 = uniform_point(geom)
    V0 = bregman_divergence(geom, v_star, v0)
    for T in (10, 25, 50):
        vT, _ = composite_mp(prob, v0, T, 0.0, force_generic=True)
        bound = math.exp(-T * delta / (3.0 * l_f1)) * V0
        assert bregman_divergence(geom, v_star, vT) <= bound + 1e-9


def test_line4_vi_residual():
    # <gamma (F1(v)+offset) + grad w(v) - grad w(anchor), z - v> >= -1e-6
    prob, _, _ = _game_problem(d=4, T=60, m=4, seed=3)
    geom = prob.geometry
    v, _ = composite_mp(prob, uniform_point(geom), 2000, 1e-22, force_generic=True)
    f1v = prob.f1.evaluate(v)
    lhs = DualVector(
        tuple(
            prob.gamma * (fb + ob) + gb - ga
            for fb, ob, gb, ga in zip(
                f1v.blocks,
                prob.offset.blocks,
                dgf_grad(geom, v).blocks,
                dgf_grad(geom, prob.anchor).blocks,
            )
        )
    )
    rng = np.random.default_rng(4)
    for _ in range(200):
        z = random_point(geom, rng)
        diff = Point(tuple(zb - vb for zb, vb in zip(z.blocks, v.blocks)))
        assert pairing(lhs, diff) >= -1e-6


def test_kernel_agrees_with_generic_path(monkeypatch):
    prob, _, _ = _game_problem(d=5, T=80, m=4, seed=5)
    geom = prob.geometry
    v0 = uniform_point(geom)
    calls = []
    loop = _kernels.log_space_loop

    def counted(*args):
        calls.append(1)
        return loop(*args)

    monkeypatch.setattr(_kernels, "log_space_loop", counted)
    for T in (1, 7, 60):
        fast, it_f = composite_mp(prob, v0, T, 0.0)
        slow, it_s = composite_mp(prob, v0, T, 0.0, force_generic=True)
        assert it_f == it_s == T
        np.testing.assert_allclose(fast.concat(), slow.concat(), atol=1e-12)
    # the log-space loop ran for every non-generic call, numba or not
    assert len(calls) == 3


def test_kernel_agrees_under_movement_stop():
    # 1e-14 lies in the range where the stop is resolved: below ~1e-16 the
    # computed KL movement is at round-off and the two loops' counts split
    prob, _, _ = _game_problem(d=4, T=40, m=4, seed=6)
    v0 = uniform_point(prob.geometry)
    fast, it_f = composite_mp(prob, v0, 5000, 1e-14)
    slow, it_s = composite_mp(prob, v0, 5000, 1e-14, force_generic=True)
    assert it_f == it_s
    np.testing.assert_allclose(fast.concat(), slow.concat(), atol=1e-10)


def test_numba_kernel_matches_python_loop():
    pytest.importorskip("numba")
    prob, _, _ = _game_problem(d=4, T=40, m=4, seed=6)
    SB, S, base, wc = _log_space_operands(prob)
    L0 = np.log(uniform_point(prob.geometry).concat())
    args = (SB, S, base, wc, L0, 5000, 1e-14, TINY_MASS)
    L_jit, it_jit = _kernels.log_space_loop(*args)
    L_py, it_py = _kernels.log_space_loop.py_func(*args)
    assert it_jit == it_py
    np.testing.assert_allclose(np.exp(L_jit), np.exp(L_py), atol=1e-10)


def test_log_space_floor_keeps_underflowing_coordinates():
    # anchor and start at the 1e-300 floor, with the offset pushing the
    # x-block further out: unfloored, the update sinks below TINY_MASS (as
    # the generic loop shows); the log-space loop holds it at the floor
    d = 4
    geom = entropy_simplex(d)
    edge = np.array([1.0 - 3e-300, 1e-300, 1e-300, 1e-300])
    anchor = Point.of(edge, np.full(d, 1.0 / d))
    prob = CompositeProblem(
        gamma=1.0,
        anchor=anchor,
        f1=saddle_shard(np.ones((d, d))),
        offset=DualVector.of([0.0, 5.0, 5.0, 5.0], np.zeros(d)),
        geometry=geom,
        l_f1=1.0,
    )
    slow, _ = composite_mp(prob, anchor, 3, 0.0, force_generic=True)
    assert slow.blocks[0].min() < TINY_MASS
    for v0 in (anchor, Point.of([1.0, 0.0, 0.0, 0.0], np.full(d, 1.0 / d))):
        fast, _ = composite_mp(prob, v0, 3, 0.0)
        for b in fast.blocks:
            assert np.all(b >= TINY_MASS)
            assert b.sum() == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(fast.concat(), slow.concat(), atol=1e-12)


def test_composite_solution_differs_from_f1_solution():
    # regression: with offset = 0 and an anchor far from the F1-solution the
    # output solves the *composite* problem (anchored), not the plain F1 VI
    rng = np.random.default_rng(7)
    d = 3
    M = rng.uniform(0.5, 1.5, size=(d, d))
    geom = entropy_simplex(d)
    anchor = Point.of([0.90, 0.05, 0.05], [0.05, 0.05, 0.90])
    f1 = saddle_shard(M)
    prob = CompositeProblem(
        gamma=0.25,
        anchor=anchor,
        f1=f1,
        offset=DualVector.of(np.zeros(d), np.zeros(d)),
        geometry=geom,
        l_f1=float(np.abs(M).max()),
    )
    v, _ = composite_mp(prob, uniform_point(geom), 3000, 1e-24, force_generic=True)
    # the composite stationarity condition holds ...
    f1v = f1.evaluate(v)
    resid = DualVector(
        tuple(
            prob.gamma * fb + gb - ga
            for fb, gb, ga in zip(
                f1v.blocks, dgf_grad(geom, v).blocks, dgf_grad(geom, anchor).blocks
            )
        )
    )
    for _ in range(100):
        z = random_point(geom, rng)
        diff = Point(tuple(zb - vb for zb, vb in zip(z.blocks, v.blocks)))
        assert pairing(resid, diff) >= -1e-6
    # ... while the plain-F1 residual is decisively violated somewhere
    worst = min(
        pairing(
            f1v,
            Point(tuple(zb - vb for zb, vb in zip(z.blocks, v.blocks))),
        )
        for z in (random_point(geom, rng) for _ in range(300))
    )
    assert worst < -1e-3


def test_iterates_stay_strictly_positive():
    prob, _, _ = _game_problem(d=4, T=60, m=4, seed=8)
    _, _, path = composite_mp(
        prob, uniform_point(prob.geometry), 50, 0.0,
        force_generic=True, record_path=True,
    )
    for v in path:
        assert all(np.all(b > 0) for b in v.blocks)


def test_input_validation():
    prob, _, _ = _game_problem(d=3, T=40, m=4, seed=9)
    v0 = uniform_point(prob.geometry)
    with pytest.raises(ParameterError):
        composite_mp(prob, v0, 0)
    with pytest.raises(ParameterError):
        composite_mp(prob, v0, 5, movement_tol=-1.0)
    with pytest.raises(ParameterError):
        CompositeProblem(
            gamma=-1.0, anchor=v0, f1=prob.f1, offset=prob.offset,
            geometry=prob.geometry, l_f1=1.0,
        )
