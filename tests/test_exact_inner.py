"""The exact subproblem solve: the mirror map, its Jacobian and the Newton
solve on the normal map, checked against independent routes (``prox_map``,
``dgf_grad`` and the extragradient loop run to a tight tolerance)."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
from hypothesis import assume, example, given, settings, strategies as st

from visim import inner, paus
from visim.bench import GAMMA_CAP_SCALE
from visim.cluster import ClusterState
from visim.errors import NumericsError, ParameterError
from visim.geometry import (
    BALL_TOL,
    GeometryKind,
    GeometrySetup,
    a_norm_ball,
    dgf_grad,
    entropy_simplex,
    euclidean_ball,
    euclidean_simplex,
    floor_simplex_flat,
    mirror_map_flat,
    project_block_simplex,
    prox_map,
    random_point,
    recenter,
    uniform_point,
)
from visim.inner import CompositeProblem, NewtonSystem, newton_solve_flat
from visim.operators import OperatorShard, saddle_shard
from visim.paus import PausConfig, paus_run
from visim.restart import RestartConfig, paus_r, synthetic_strongly_monotone

from test_baselines import _game_cluster
from test_inner import _ball_problem

GEOMETRIES = ["entropy", "entropy-floored", "simplex", "ball", "ball-sphere",
              "ball-recentred"]
BALL_SIZES = {"ball": (0.1, 0.1, 0.1), "ball-sphere": (1.0, 0.1, 10.0),
              "ball-recentred": (2.0, 0.5, 1.0)}


def _floored(geom, z, rng):
    """The flat z with a random proper subset of each block's coordinates
    at 1e-300."""
    z = z.copy()
    for lo, hi in geom.layout.bounds:
        b = z[lo:hi]
        b[rng.permutation(b.size)[: rng.integers(1, b.size)]] = 0.0
    return floor_simplex_flat(z, geom.layout.bounds)


def _instance(kind, d, seed, gamma):
    """A random subproblem of the given kind with d coordinates per block:
    a saddle F1 on two simplices, or a monotone affine F1 on the unit l2
    ball, with a random anchor, offset and start."""
    rng = np.random.default_rng(seed)
    if kind.startswith("ball"):
        geom = euclidean_ball(d)
        if kind == "ball-recentred":
            geom = recenter(geom, random_point(geom, rng), random_point(geom, rng))
        K = rng.normal(size=(d, d))
        L = rng.normal(size=(d, d))
        A = 0.5 * (K - K.T) + 0.1 * L @ L.T
        b = rng.normal(size=d)
        offset = rng.normal(size=d)
        # gamma times the norms of A, b and offset: with |anchor| <= 0.5 the
        # prox point of "ball" stays within 0.8 of the origin, that of
        # "ball-sphere" lies beyond 8, so its answer is on the sphere
        ga, gb, go = BALL_SIZES[kind]
        A *= ga / (gamma * np.linalg.norm(A, 2))
        b *= gb / (gamma * np.linalg.norm(b))
        offset *= go / (gamma * np.linalg.norm(offset))
        anchor = 0.5 * random_point(geom, rng)
        f1 = OperatorShard(A, b)
    else:
        geom = (euclidean_simplex(d) if kind == "simplex" else entropy_simplex(d))
        f1 = saddle_shard(rng.uniform(-1.0, 1.0, size=(d, d)))
        offset = np.concatenate([0.5 * rng.normal(size=d), 0.5 * rng.normal(size=d)])
        anchor = random_point(geom, rng)
        if kind == "entropy-floored":
            anchor = _floored(geom, anchor, rng)
    l_f1 = float(np.linalg.norm(f1.matrix, 2))
    prob = CompositeProblem(gamma=gamma, anchor=anchor, f1=f1, offset=offset,
                            geometry=geom, l_f1=l_f1)
    v0 = random_point(geom, rng)
    if kind.startswith("ball"):
        v0 = 0.5 * v0
    return prob, geom.layout.split(v0)


_instances = st.tuples(
    st.sampled_from(GEOMETRIES),
    st.integers(2, 8),
    st.integers(0, 2**32 - 1),
    st.floats(0.05, 20.0),
)


def _newton(prob, v0, system=None):
    """``newton_solve_flat`` on the subproblem's concatenated operands, with
    a system built here when none is given; returns the answer as a Point
    and its steps, or None."""
    geom = prob.geometry
    if system is None:
        system = NewtonSystem(prob.f1, prob.gamma, geom)
    v0 = v0.concat()
    out = newton_solve_flat(system, geom, dgf_grad(geom, prob.anchor),
                            prob.offset, v0, prob.f1.evaluate(v0))
    return None if out is None else (geom.layout.split(out[0]), out[1])


def _attempt(name, prob, v0, system):
    """Run ``inner``'s reduced (``"reduced"``) or full (``"full"``) Newton
    attempt, or its continuation in gamma (``"continuation"``), on the
    subproblem's concatenated operands; returns its answer as a Point (None
    if it failed) and its steps."""
    geom = prob.geometry
    grad = dgf_grad(geom, prob.anchor)
    c = grad - prob.gamma * prob.offset
    v0 = v0.concat()
    if name == "reduced":
        u, steps = inner._reduced_newton(system, c, v0[geom.block_dims[0]:])
    elif name == "full":
        answer, steps = inner._damped_newton(system, geom, c, v0,
                                             prob.f1.evaluate(v0))
        u = None if answer is None else answer[0]
    else:
        answer, steps = inner._continue_in_gamma(
            system, geom, grad, prob.offset, v0, prob.f1.evaluate(v0))
        u = None if answer is None else answer[0]
    return (None if u is None else geom.layout.split(u)), steps


def _prox_residual(prob, u):
    """|| u - prox_map(anchor, gamma (F1(u) + offset), 1) ||_inf"""
    g = prob.gamma * (prob.f1.evaluate(u.concat()) + prob.offset)
    fixed = prox_map(prob.geometry, prob.anchor, g, 1.0)
    return float(np.abs(u.concat() - fixed).max())


@settings(max_examples=300)
@given(_instances)
# with a stop at NEWTON_RTOL = 1e-13 these stopped at max|G|/scale of about
# 8.6e-14, a prox residual of 1.4e-11 and 1.3e-11; one more step reaches
# round-off
@example(("entropy-floored", 5, 352, 20.0))
@example(("entropy", 5, 5, 16.0))
# the reduced attempt misses its target here; the continuation answers
@example(("entropy", 6, 956112514, 19.68261186308525))
# the full attempt stalls at a kink after 20, 28 and 14 steps; the
# continuation answers, in 40, 39 and 40 steps in all
@example(("simplex", 8, 1696, 19.0))
@example(("simplex", 8, 33627, 19.850621638192163))
@example(("simplex", 6, 937, 18.583057723742908))
def test_newton_answer_is_a_fixed_point_of_the_prox_map(args):
    kind = args[0]
    prob, v0 = _instance(*args)
    out = _newton(prob, v0)
    assert out is not None
    u, steps = out

    def run(attempt):
        system = NewtonSystem(prob.f1, prob.gamma, prob.geometry)
        return _attempt(attempt, prob, v0, system)

    if kind.startswith("entropy"):
        # the full Newton, which each level of the continuation runs,
        # answers on its own
        full, _ = run("full")
        assert full is not None and _prox_residual(prob, full) <= 1e-11
        first, first_steps = run("reduced")
    else:
        first, first_steps = run("full")
    assert 0 <= first_steps <= inner.NEWTON_MAX_STEPS
    if first is not None:
        assert np.array_equal(u.concat(), first.concat())
        assert steps == first_steps
    else:
        # from a cold start, damped Newton on the piecewise-affine simplex
        # normal map can stall at a kink (about 1 draw in 150 here), and the
        # reduced attempt can miss its target (about 1 draw in 6,000 at gamma
        # 10 to 20); the continuation in gamma answers instead
        assert not kind.startswith("ball")
        answer, more = run("continuation")
        assert np.array_equal(u.concat(), answer.concat())
        assert steps == first_steps + more
    assert _prox_residual(prob, u) <= 1e-11
    norm = float(np.linalg.norm(u.concat()))
    if kind == "ball":
        assert norm <= 0.8 + 1e-12
    elif kind == "ball-sphere":
        assert norm == pytest.approx(1.0, abs=1e-12)
    elif kind == "ball-recentred":
        assert norm <= 1.0 + 1e-12
    else:
        for b in u.blocks:
            assert np.all(b >= 0.0) and abs(b.sum() - 1.0) < 1e-12


@settings(max_examples=30)
@given(st.tuples(
    st.sampled_from(GEOMETRIES),
    st.integers(2, 4),
    st.integers(0, 2**32 - 1),
    st.floats(0.1, 2.0),
))
def test_newton_agrees_with_the_extragradient_loop(args):
    prob, v0 = _instance(*args)
    out = _newton(prob, v0)
    assert out is not None
    u, _ = out
    # V(v*, v^T) <= V0 e^{-60}: coordinates within about 1e-12 sqrt(V0)
    T = math.ceil(60.0 / math.log1p(prob.eta))
    ref, iters = inner.composite_mp(prob, v0.concat(), T, 0.0)
    assert iters == T
    assert float(np.abs(u.concat() - ref).max()) <= 1e-9


@settings(max_examples=200)
@given(st.sampled_from(GEOMETRIES), st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_mirror_map_inverts_dgf_grad(kind, d, seed):
    prob, _ = _instance(kind, d, seed, 1.0)
    geom = prob.geometry
    z = prob.anchor
    if kind == "simplex":
        z = np.concatenate([np.maximum(b, 1e-3) / np.maximum(b, 1e-3).sum()
                            for b in np.split(z, 2)])
    u, _, _ = mirror_map_flat(geom, dgf_grad(geom, z))
    if kind.startswith("entropy"):
        np.testing.assert_allclose(u, z, rtol=1e-12, atol=0.0)
    else:
        np.testing.assert_allclose(u, z, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("kind", ["entropy", "ball", "ball-sphere", "ball-recentred"])
def test_mirror_jacobian_matches_finite_differences(kind):
    prob, v0 = _instance(kind, 5, seed=11, gamma=1.0)
    geom = prob.geometry
    theta = dgf_grad(geom, prob.anchor)
    if kind == "ball-sphere":
        theta = 3.0 * theta / np.linalg.norm(theta)
    _, diag, rank_one = mirror_map_flat(geom, theta)
    D = np.diag(diag)
    lo = 0
    for beta, v in rank_one:
        D[lo:lo + v.size, lo:lo + v.size] -= beta * np.outer(v, v)
        lo += v.size
    h = 1e-6
    for j in range(theta.size):
        e = np.zeros(theta.size)
        e[j] = h
        col = (mirror_map_flat(geom, theta + e)[0]
               - mirror_map_flat(geom, theta - e)[0]) / (2 * h)
        np.testing.assert_allclose(D[:, j], col, atol=1e-8)


def test_mirror_map_rejects_what_it_cannot_map():
    with pytest.raises(ParameterError):
        mirror_map_flat(a_norm_ball(4), np.zeros(4))
    with pytest.raises(NumericsError):
        mirror_map_flat(euclidean_ball(2), np.array([np.nan, 0.0]))


def test_newton_leaves_the_a_norm_ball_to_the_extragradient_loop():
    # the solve refuses the a-norm ball, which has no closed-form mirror
    # map; paus_run never asks it there (test_flat_step.py)
    geom = a_norm_ball(4)
    rng = np.random.default_rng(0)
    prob = CompositeProblem(
        gamma=1.0, anchor=uniform_point(geom).concat(),
        f1=OperatorShard(np.eye(4), np.zeros(4)),
        offset=rng.normal(size=4), geometry=geom, l_f1=1.0,
    )
    with pytest.raises(ParameterError):
        _newton(prob, uniform_point(geom))


def test_step_cap_hands_the_solve_back(monkeypatch):
    prob, v0 = _instance("entropy", 5, seed=3, gamma=5.0)
    u, steps = _newton(prob, v0)
    assert steps >= 2
    monkeypatch.setattr(inner, "NEWTON_MAX_STEPS", steps - 1)
    # a solve that misses its target goes on by continuation in gamma ...
    out = _newton(prob, v0)
    assert out is not None and _prox_residual(prob, out[0]) <= 1e-11
    # ... and without it, is handed back
    monkeypatch.setattr(inner, "_GAMMA_CONTINUATION_CAP", 0)
    assert _newton(prob, v0) is None
    monkeypatch.setattr(inner, "NEWTON_MAX_STEPS", steps)
    again, _ = _newton(prob, v0)
    assert np.array_equal(again.concat(), u.concat())


@settings(max_examples=80)
@given(st.tuples(
    st.sampled_from(["simplex", "entropy", "entropy-floored"]),
    st.integers(2, 8),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, math.log10(GAMMA_CAP_SCALE)),
))
def test_newton_answers_at_every_gamma_a_run_can_choose(args):
    # a similarity solver's gamma is c / delta, and GAMMA_CAP_SCALE / L when
    # delta is at round-off, so gamma max|M| runs from about 1 up to
    # GAMMA_CAP_SCALE.  Over that range the first attempt or the
    # continuation in gamma answers; no subproblem is left to the
    # extragradient loop.  The prox residual grows with the coupling (to
    # about 1e-4 at 1e6), so only feasibility is asserted here.  A simplex
    # answer is the projection of the root w = c - gamma F1(u), whose
    # entries are at most 1 + gamma (max|offset| + max|M|), so its sum is 1
    # up to the round-off of d such entries in the projection's cumulative
    # sum and threshold; a softmax sums to 1 within d eps
    kind, d, seed, exponent = args
    prob, v0 = _instance(kind, d, seed, 1.0)
    max_m = float(np.abs(prob.f1.matrix).max())
    prob = dataclasses.replace(prob, gamma=10.0**exponent / max_m)
    out = _newton(prob, v0)
    assert out is not None
    w_max = 1.0 + prob.gamma * (float(np.abs(prob.offset).max()) + max_m)
    for b in out[0].blocks:
        assert np.all(b >= 0.0)
        assert abs(b.sum() - 1.0) <= 2.0 * d * np.finfo(float).eps * w_max


def test_gamma_continuation_ends_a_cold_start_stall():
    # damped Newton from the fixed-point start stops decreasing ||G|| at a
    # kink of the simplex normal map, near 4.0 (from 36.7).  Continuation in
    # gamma solves it
    prob, v0 = _instance("simplex", 8, 5, 14.125)
    system = NewtonSystem(prob.f1, prob.gamma, prob.geometry)
    assert _attempt("full", prob, v0, system)[0] is None
    out = _newton(prob, v0, system)
    assert out is not None
    assert _prox_residual(prob, out[0]) <= 1e-11


def _fail_once(monkeypatch, owner, name, at, fail):
    """Patch ``owner.name`` so that its call number ``at`` (from 1) goes to
    ``fail`` instead; the others pass through.  Returns the call log."""
    original, calls = getattr(owner, name), []

    def patched(*args):
        calls.append(1)
        return (fail if len(calls) == at else original)(*args)

    monkeypatch.setattr(owner, name, patched)
    return calls


def _record_attempts(monkeypatch):
    """Log, for each reduced and each full Newton solve, whether it
    answered."""
    log = []
    for name in ("_reduced_newton", "_damped_newton"):
        def recorded(*args, _original=getattr(inner, name), _name=name):
            out = _original(*args)
            log.append((_name, out[0] is not None))
            return out

        monkeypatch.setattr(inner, name, recorded)
    return log


def test_non_finite_trial_point_goes_on_by_continuation(monkeypatch):
    # the first Newton step of the reduced attempt and of the full attempt
    # is made non-finite, so its trial point is non-finite and raises
    # NumericsError: stalls, which the continuation in gamma takes over
    prob, v0 = _instance("entropy", 5, seed=3, gamma=5.0)

    def non_finite(system, g, *terms):
        return np.full_like(g, np.nan)

    reduced = _fail_once(monkeypatch, NewtonSystem, "reduced_step", 1, non_finite)
    full = _fail_once(monkeypatch, NewtonSystem, "step", 1, non_finite)
    attempts = _record_attempts(monkeypatch)
    out = _newton(prob, v0)
    assert len(reduced) == 1 and len(full) > 1
    assert attempts[:2] == [("_reduced_newton", False), ("_damped_newton", False)]
    assert len(attempts) > 2 and attempts[-1] == ("_damped_newton", True)
    assert out is not None and _prox_residual(prob, out[0]) <= 1e-11


def test_singular_step_goes_on_by_continuation(monkeypatch):
    # the first Newton step of the reduced attempt and of the full attempt
    # meets a singular matrix (LinAlgError): stalls, which the continuation
    # in gamma takes over
    prob, v0 = _instance("entropy", 5, seed=3, gamma=5.0)

    def singular(system, g, *terms):
        return inner._solve(np.zeros((g.size, g.size)), g)

    reduced = _fail_once(monkeypatch, NewtonSystem, "reduced_step", 1, singular)
    full = _fail_once(monkeypatch, NewtonSystem, "step", 1, singular)
    attempts = _record_attempts(monkeypatch)
    out = _newton(prob, v0)
    assert len(reduced) == 1 and len(full) > 1
    assert attempts[:2] == [("_reduced_newton", False), ("_damped_newton", False)]
    assert len(attempts) > 2 and attempts[-1] == ("_damped_newton", True)
    assert out is not None and _prox_residual(prob, out[0]) <= 1e-11


def test_strong_coupling_hands_a_reduced_stall_to_the_continuation():
    # at gamma max|M| of about 150 the reduced iteration misses its target
    # within NEWTON_MAX_STEPS; the continuation in gamma from v0 then
    # answers, bit for bit as it does alone
    prob, v0 = _instance("entropy", 5, seed=0, gamma=150.0)
    assert prob.gamma * np.abs(prob.f1.matrix).max() >= 100.0
    system = NewtonSystem(prob.f1, prob.gamma, prob.geometry)
    reduced, reduced_steps = _attempt("reduced", prob, v0, system)
    assert reduced is None and reduced_steps == inner.NEWTON_MAX_STEPS
    continued, continued_steps = _attempt(
        "continuation", prob, v0, NewtonSystem(prob.f1, prob.gamma, prob.geometry)
    )
    assert continued is not None
    u, steps = _newton(prob, v0, system)
    assert np.array_equal(u.concat(), continued.concat())
    assert steps == reduced_steps + continued_steps
    assert _prox_residual(prob, u) <= 1e-11


def _jacobian(diag, rank_one):
    """D = diag(diag) - beta_k v_k v_k^T per block, as a dense matrix."""
    D = np.diag(diag)
    lo = 0
    for beta, v in rank_one:
        D[lo:lo + v.size, lo:lo + v.size] -= beta * np.outer(v, v)
        lo += v.size
    return D


@settings(max_examples=300)
@given(st.tuples(
    st.sampled_from(["entropy-floored", "simplex"]),
    st.integers(2, 8),
    st.integers(0, 2**32 - 1),
    st.floats(0.05, 20.0),
))
def test_schur_step_matches_the_dense_newton_solve(args):
    kind, d, seed, gamma = args
    prob, _ = _instance(*args)
    geom = prob.geometry
    rng = np.random.default_rng(seed + 1)
    if kind == "entropy-floored":
        # logits of a point with some coordinates at the 1e-300 floor
        theta = dgf_grad(geom, _floored(geom, random_point(geom, rng), rng))
    else:
        # a simplex point on a random support S (down to |S| = 1), and
        # negative values off it, so that the projection keeps exactly S
        blocks = []
        for _ in geom.block_dims:
            b = -rng.uniform(0.01, 1.0, size=d)
            on = rng.permutation(d)[: rng.integers(1, d + 1)]
            b[on] = rng.dirichlet(np.ones(on.size))
            blocks.append(b)
        theta = np.concatenate(blocks)
    _, diag, rank_one = mirror_map_flat(geom, theta)
    if kind == "simplex":
        assert [v.sum() for _, v in rank_one] == [(b > 0).sum() for b in blocks]
    system = NewtonSystem(prob.f1, gamma, geom)
    g = rng.normal(size=2 * d)
    J = np.eye(2 * d) + system.gB @ _jacobian(diag, rank_one)
    dense = np.linalg.solve(J, -g)
    step = system.step(g, diag, rank_one)
    assert np.linalg.norm(step - dense) <= 1e-12 * np.linalg.norm(dense)


def _count_calls(monkeypatch, name, owner=scipy.linalg):
    """Count the calls of ``owner.name`` (scipy.linalg's by default)."""
    calls = []
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_interior_ball_run_factors_its_matrix_once(monkeypatch):
    dim, K = 20, 12
    shards, _, consts = synthetic_strongly_monotone(
        dim, m=4, mu=0.5, delta=1.0, seed=7
    )
    geom = euclidean_ball(dim)
    config = PausConfig(gamma=1.0 / consts.delta, iters=K, geometry=geom,
                        z0=uniform_point(geom), l_f1=consts.L_F1)
    factors = _count_calls(monkeypatch, "lu_factor")
    solves = _count_calls(monkeypatch, "dgetrs", scipy.linalg.lapack)
    result = paus_run(config, ClusterState(shards=shards))
    assert result.inner_fallbacks == 0
    assert len(factors) == 1
    # the factors then served the interior steps of all K subproblems
    assert len(solves) >= K


def test_restart_stages_share_one_factorisation(monkeypatch):
    # the stages differ only in the centre of the geometry, which
    # I + gamma A does not depend on
    dim = 10
    shards, z_star, consts = synthetic_strongly_monotone(
        dim, m=5, mu=0.5, delta=1.0, seed=3
    )
    geom = euclidean_ball(dim)
    z0 = uniform_point(geom)
    config = RestartConfig(mu=0.5, delta=1.0, eps=1e-6, geometry=geom, z0=z0,
                           r0_sq=float(z_star.concat() @ z_star.concat()),
                           l_f1=consts.L_F1)
    factors = _count_calls(monkeypatch, "lu_factor")
    out = paus_r(config, ClusterState(shards=shards), z_star=z_star)
    assert len(out.stages) >= 3 and out.inner_fallbacks == 0
    assert len(factors) == 1


def test_active_ball_steps_never_use_the_interior_factor(monkeypatch):
    active, v0 = _ball_problem(50, seed=2, push=50.0)
    v0 = active.geometry.layout.split(v0)
    interior, _ = _ball_problem(50, seed=2)
    interior = CompositeProblem(
        gamma=active.gamma, anchor=active.anchor, f1=active.f1,
        offset=interior.offset, geometry=active.geometry, l_f1=active.l_f1,
    )
    system = NewtonSystem(active.f1, active.gamma, active.geometry)
    factors = _count_calls(monkeypatch, "lu_factor")
    solves = _count_calls(monkeypatch, "dgetrs", scipy.linalg.lapack)
    # an interior solve first, so that the system holds the factor
    u, _ = _newton(interior, v0, system)
    assert float(np.linalg.norm(u.concat())) < 1.0
    assert len(factors) == 1 and solves
    solves.clear()
    u, steps = _newton(active, v0, system)
    assert steps >= 1 and solves == [] and len(factors) == 1
    assert float(np.linalg.norm(u.concat())) == pytest.approx(1.0, abs=1e-12)
    assert _prox_residual(active, u) <= 1e-11


def _mirror_calls(monkeypatch):
    """Log the calls of the mirror map the Newton solve makes."""
    calls, original = [], inner.mirror_map_flat

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(inner, "mirror_map_flat", counted)
    return calls


def _warm_solve(kind, d, seed, gamma):
    """A subproblem, its warm start (the answer of the same subproblem with
    a nearby offset), and the Newton solve from that start as a Point, its
    steps and its mirror-map evaluations (the projections it made)."""
    prob, v0 = _instance(kind, d, seed, gamma)
    rng = np.random.default_rng(seed)
    nearby = dataclasses.replace(
        prob, offset=prob.offset + 1e-3 * rng.normal(size=prob.offset.size))
    warm, _ = _newton(nearby, v0)
    with pytest.MonkeyPatch.context() as mp:
        calls = _mirror_calls(mp)
        u, steps = _newton(prob, warm)
    return prob, warm, u, steps, len(calls)


def _on_the_warm_starts_piece(prob, warm, u):
    """Whether the answer ``u`` and the solve's fixed-point start from
    ``warm`` (the map at w = c - gamma F1(warm)) lie on the warm start's
    affine piece: the same support on the simplex; inside the unit ball,
    by a margin of ``BALL_TOL`` off its sphere."""
    geom = prob.geometry
    g = prob.gamma * (prob.f1.evaluate(warm.concat()) + prob.offset)
    start = mirror_map_flat(geom, dgf_grad(geom, prob.anchor) - g)[0]
    points = (u.concat(), start)
    if not geom.kind.ball:
        return all(np.array_equal(p > 0.0, warm.concat() > 0.0) for p in points)
    return all(float(np.linalg.norm(p)) < 1.0 - BALL_TOL
               for p in points + (warm.concat(),))


@pytest.mark.parametrize("kind", ["simplex", "ball", "ball-recentred"])
def test_an_answer_on_the_warm_starts_piece_takes_one_step(kind):
    # the fixed-point start lies on the affine piece of the warm start v0,
    # so the solve's first step is taken from v0's dual point on it.  When
    # the answer lies on that piece too, the step lands on it: one step,
    # and one evaluation on the piece, without a projection, finds G at
    # round-off
    prob, warm, u, steps, calls = _warm_solve(kind, 6, 11, 2.0)
    assert _on_the_warm_starts_piece(prob, warm, u)
    assert steps == 1 and calls == 0
    assert _prox_residual(prob, u) <= 1e-11


@settings(max_examples=100)
@given(st.tuples(
    st.sampled_from(["simplex", "ball", "ball-recentred"]),
    st.integers(2, 8),
    st.integers(0, 2**32 - 1),
    st.floats(0.05, 20.0),
))
# from grad w(v0) = v0, where ||G|| = 26, the step carries enough round-off
# to land at 4.8e-13, above G's round-off scale; from v0's dual point
# nearest the fixed-point start, where ||G|| is small, it does not
@example(("simplex", 6, 6, 15.0))
def test_an_answer_on_the_warm_starts_piece_always_takes_one_step(args):
    prob, warm, u, steps, calls = _warm_solve(*args)
    assume(_on_the_warm_starts_piece(prob, warm, u))
    assert steps == 1 and calls == 0
    assert _prox_residual(prob, u) <= 1e-11


@pytest.mark.parametrize("args", [
    ("simplex", 6, 11, 2.0),
    ("ball", 2, 0, 0.05),
    ("ball-recentred", 3, 1, 1.05),
])
def test_a_start_at_the_answer_takes_one_step(args):
    # from the answer itself G(w0) is at round-off, and so is G after the
    # step, which need not have decreased ||G||: the trial point is taken
    # and the solve ends (on these ball draws a line search that demands a
    # decrease backtracks into a second step)
    prob, v0 = _instance(*args)
    u, _ = _newton(prob, v0)
    again, steps = _newton(prob, u)
    assert steps == 1
    assert _prox_residual(prob, again) <= 1e-11


def test_a_start_off_every_affine_piece_keeps_the_fixed_point_start(monkeypatch):
    # from an answer on the sphere the fixed-point start w is the root,
    # outside the ball, where the map is not affine: the solve evaluates
    # the map there and answers without a step
    prob, v0 = _instance("ball-sphere", 4, 3, 1.0)
    u, _ = _newton(prob, v0)
    assert float(np.linalg.norm(u.concat())) == pytest.approx(1.0, abs=1e-12)
    calls = _mirror_calls(monkeypatch)
    again, steps = _newton(prob, u)
    assert steps == 0 and len(calls) == 1
    assert _prox_residual(prob, again) <= 1e-11


def test_a_stalled_fixed_point_start_goes_on_by_continuation():
    # damped Newton from the fixed-point start stalls at a kink after 19
    # steps: the attempt is that one damped solve, and the continuation in
    # gamma, whose levels each make one more, solves the subproblem
    prob, v0 = _instance("simplex", 6, 11, 14.125)
    system = NewtonSystem(prob.f1, prob.gamma, prob.geometry)
    solves, damped = [], inner._damped

    def logged(evaluate, step, w, start=None):
        out = damped(evaluate, step, w, start)
        solves.append(out)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inner, "_damped", logged)
        first, first_steps = _attempt("full", prob, v0, system)
        assert first is None and len(solves) == 1
        assert first_steps == solves[0][1] <= inner.NEWTON_MAX_STEPS
        u, steps = _newton(prob, v0, system)
    assert solves[1] == (None, first_steps)
    assert len(solves) > 2 and solves[-1][0] is not None
    assert steps == sum(s[1] for s in solves[1:])
    assert _prox_residual(prob, u) <= 1e-11


def test_every_restart_subproblem_takes_one_step(monkeypatch):
    # the restarted run of the restart-ball benchmark (dim 200, m 5,
    # mu 0.5, delta 1, eps 8e-5, inner tolerance 1e-16): every subproblem's
    # answer is inside the ball, where the normal map is affine, so each
    # takes one step from its warm start, and its one evaluation, on the
    # warm start's piece, makes no projection
    dim = 200
    shards, z_star, consts = synthetic_strongly_monotone(
        dim, m=5, mu=0.5, delta=1.0, seed=11
    )
    geom = euclidean_ball(dim)
    z0 = uniform_point(geom)
    config = RestartConfig(mu=0.5, delta=1.0, eps=8e-5, geometry=geom, z0=z0,
                           r0_sq=float(z_star.concat() @ z_star.concat()),
                           l_f1=consts.L_F1,
                           inner=inner.InnerSettings(tolerance=1e-16))
    steps, solve = [], paus.newton_solve_flat

    def logged(*args):
        out = solve(*args)
        steps.append(None if out is None else out[1])
        return out

    monkeypatch.setattr(paus, "newton_solve_flat", logged)
    calls = _mirror_calls(monkeypatch)
    out = paus_r(config, ClusterState(shards=shards), z_star=z_star)
    assert len(out.stages) >= 3 and out.inner_fallbacks == 0
    assert steps == [1] * sum(stage.iters for stage in out.stages)
    assert calls == []


class _CountedMatrix(np.ndarray):
    """A matrix view that logs, in its ``products`` list, each matrix
    product it is an operand of; every result is a plain array."""

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        if ufunc is np.matmul:
            self.products.append(1)

        def plain(a):
            return a.view(np.ndarray) if isinstance(a, _CountedMatrix) else a

        if out is not None:
            kwargs["out"] = tuple(plain(a) for a in out)
        return getattr(ufunc, method)(*(plain(a) for a in inputs), **kwargs)


def test_an_interior_ball_step_takes_two_products_by_the_server_matrix():
    # F1 once per point: F1(z^k) for the offset, and F1(u^k) in the
    # solve's one evaluation, which the step keeps.  The start
    # w = c - gamma F1(v0) reuses the last step's F1(u^{k-1}), and no
    # product by gamma A forms the residual (4 products per step before).
    # The evaluation certifies its stop on the round-off scale's first
    # tier, so no product by |gamma A| forms the full scale (1 per step
    # before)
    dim, K = 20, 12
    shards, _, consts = synthetic_strongly_monotone(
        dim, m=4, mu=0.5, delta=1.0, seed=7
    )
    geom = euclidean_ball(dim)
    config = PausConfig(gamma=1.0 / consts.delta, iters=K, geometry=geom,
                        z0=uniform_point(geom), l_f1=consts.L_F1)
    cluster = ClusterState(shards=list(shards))
    server = cluster.server_shard
    system = NewtonSystem(server, config.gamma, geom)
    products, abs_products = [], []
    for owner, name, log in ((server, "matrix", products), (system, "gB", products),
                             (system, "abs_gB", abs_products)):
        counted = getattr(owner, name).view(_CountedMatrix)
        counted.products = log
        object.__setattr__(owner, name, counted)
    steps, solve = [], paus.newton_solve_flat

    def logged(*args):
        out = solve(*args)
        steps.append(out[1])
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(paus, "newton_solve_flat", logged)
        calls = _mirror_calls(mp)
        result = paus_run(config, cluster, system=system)
    assert result.inner_fallbacks == 0 and steps == [1] * K and calls == []
    assert len(products) == 2 * K and abs_products == []


def test_a_simplex_run_forms_the_full_round_off_scale_at_few_evaluations(
        monkeypatch):
    # a Euclidean simplex run: most of its Newton evaluations are decided
    # by the round-off scale's first tier, and only the others take a
    # product by |gamma B| (one per evaluation before)
    cluster, _, _, delta_l2, l_f1_l2 = _game_cluster(d=5, T=60, m=4, seed=2)
    geom = euclidean_simplex(5)
    config = PausConfig(gamma=1.0 / delta_l2, iters=25, geometry=geom,
                        z0=uniform_point(geom), l_f1=l_f1_l2)
    system = NewtonSystem(cluster.server_shard, config.gamma, geom)
    products = []
    system.abs_gB = system.abs_gB.view(_CountedMatrix)
    system.abs_gB.products = products
    verdicts, at_round_off = [], inner._at_round_off

    def logged(*args):
        verdicts.append(1)
        return at_round_off(*args)

    monkeypatch.setattr(inner, "_at_round_off", logged)
    result = paus_run(config, cluster, system=system)
    assert result.inner_fallbacks == 0
    assert (len(products), len(verdicts)) == (10, 35)


def test_newton_system_must_match_the_subproblem():
    # a run checks a shared system against its shard, gamma and layout;
    # the solve checks the layout on every call
    prob, v0 = _instance("ball", 4, seed=5, gamma=1.0)
    geom = prob.geometry
    config = PausConfig(gamma=prob.gamma, iters=1, geometry=geom,
                        z0=uniform_point(geom), l_f1=prob.l_f1)
    other = NewtonSystem(prob.f1, 2.0 * prob.gamma, geom)
    with pytest.raises(ParameterError):
        paus_run(config, ClusterState(shards=[prob.f1]), system=other)
    other = NewtonSystem(prob.f1, prob.gamma, euclidean_ball(5))
    with pytest.raises(ParameterError):
        _newton(prob, v0, other)


# ---------------------------------------------------------------------------
# the two-tier round-off stop of the full Newton solve


def _round_off_terms(system, geom, c, w, u, diag, rank_one):
    """The full normal map's round-off scale at w, restated: part =
    |w| + |c| + |gb| and the product |gB| spread, spread = |u| + |D| |w|
    for the mirror map's Jacobian D = diag - beta v v^T per block."""
    abs_w = np.abs(w)
    spread = diag * abs_w + np.abs(u)
    for (beta, v), (lo, hi) in zip(rank_one, geom.layout.bounds):
        if beta:
            abs_v = np.abs(v)
            spread[lo:hi] += beta * abs_v * (abs_v @ abs_w[lo:hi])
    return abs_w + (np.abs(c) + np.abs(system.gb)), system.abs_gB @ spread


def _perturbed(root, seed, exponent):
    """``root`` perturbed by a relative 10**exponent; an infinite exponent
    puts +inf in its first coordinate instead."""
    if math.isinf(exponent):
        w = root.copy()
        w[0] = math.inf
        return w
    rng = np.random.default_rng(seed)
    return root * (1.0 + 10.0**exponent * rng.uniform(-1.0, 1.0, root.size))


def _reduced_evaluation(system, c, y0):
    """The evaluation ``evaluate(w_2)`` that ``inner._reduced_newton``
    hands to ``inner._damped`` for a solve from the y-block ``y0``."""
    captured = []

    def capture(evaluate, step, w, start=None):
        captured.append(evaluate)
        return None, 0

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inner, "_damped", capture)
        inner._reduced_newton(system, c, y0)
    return captured[0]


def _two_tier_verdicts(args, exponent):
    """The round-off verdicts of the full normal map of a subproblem at the
    dual point of its answer, w* = c - gamma F1(u*), and at w* perturbed
    (:func:`_perturbed`), and on an entropy saddle those of the reduced
    normal map at w_2* = c_2 + gamma M^T x* and at w_2* perturbed.  Per
    point: the first tier's comparison, whether ||G|| is finite (the first
    tier's guard), the full scale's verdict, ``inner._at_round_off``'s, and
    the solve's own evaluation's (None at a non-finite point, which the
    mirror map rejects; G is then taken with the answer's map)."""
    prob, v0 = _instance(*args)
    out = _newton(prob, v0)
    assert out is not None
    geom, gamma = prob.geometry, prob.gamma
    system = NewtonSystem(prob.f1, gamma, geom)
    c = dgf_grad(geom, prob.anchor) - gamma * prob.offset
    evaluate = inner._normal_map(system, geom, c, v0.concat())
    root = c - gamma * prob.f1.evaluate(out[0].concat())
    w = _perturbed(root, args[2], exponent)
    verdicts = []
    for point in (root, w):
        try:
            with np.errstate(invalid="ignore"):
                (u, f1_u), g, norm, done, (diag, rank_one) = evaluate(point)
        except NumericsError:
            assert not np.isfinite(point).all()
            u, diag, rank_one = mirror_map_flat(geom, root)
            g = point - c + gamma * prob.f1.evaluate(u)
            norm, done = math.sqrt(g @ g), None
        with np.errstate(invalid="ignore"):
            part, product = _round_off_terms(system, geom, c, point, u, diag,
                                             rank_one)
            first = bool((np.abs(g) <= inner.NEWTON_RTOL * part).all())
            full = bool((np.abs(g) <= (product + part) * inner.NEWTON_RTOL).all())
            two_tier = inner._at_round_off(g, norm, part, product.copy)
        verdicts.append((first, math.isfinite(norm), full, two_tier, done))
    if system.saddle and geom.kind.entropy:
        verdicts += _reduced_two_tier_verdicts(system, c, out[0], args[2],
                                               exponent)
    return verdicts


def _reduced_two_tier_verdicts(system, c, answer, seed, exponent):
    """:func:`_two_tier_verdicts` on the reduced normal map G_2 of an
    entropy saddle, at w_2* = c_2 + gamma M^T x* of the ``answer`` (x*, y*)
    and at w_2* perturbed, with the reduced solve's round-off scale,
    restated: part = |w_2| + |c_2| and the product
    |gamma M^T| (|u_1| + |D_1| |w_1|), D_1 the softmax Jacobian at w_1 =
    c_1 - gamma M u_2."""
    d1 = system.gM.shape[0]
    c1, c2 = c[:d1], c[d1:]
    x, y = answer.blocks
    evaluate = _reduced_evaluation(system, c, y)
    root = c2 + system.gMT @ x
    verdicts = []
    for w2 in (root, _perturbed(root, seed, exponent)):
        with np.errstate(invalid="ignore"):
            e2 = np.exp(w2 - w2.max())
            u2 = e2 / e2.sum()
            w1 = c1 - system.gM @ u2
            e1 = np.exp(w1 - w1.max())
            u1 = e1 / e1.sum()
            g2 = w2 - c2 - system.gMT @ u1
            norm = math.sqrt(g2 @ g2)
            abs_w1 = np.abs(w1)
            product = np.abs(system.gMT) @ (u1 * (abs_w1 + (1.0 + u1 @ abs_w1)))
            part = np.abs(w2) + np.abs(c2)
            first = bool((np.abs(g2) <= inner.NEWTON_RTOL * part).all())
            full = bool((np.abs(g2) <= (product + part) * inner.NEWTON_RTOL).all())
            two_tier = inner._at_round_off(g2, norm, part, product.copy)
        parts, original = [], inner._at_round_off

        def recording(g, norm, part, product):
            parts.append(part.copy())
            return original(g, norm, part, product)

        try:
            with np.errstate(invalid="ignore"), pytest.MonkeyPatch.context() as mp:
                mp.setattr(inner, "_at_round_off", recording)
                done = evaluate(w2)[3]
        except NumericsError:
            assert not math.isfinite(norm)
            done = None
        # the solve's first tier is |G_2| <= NEWTON_RTOL (|w_2| + |c_2|), bit
        # for bit: a larger part would pass residuals the full scale fails
        for solves_part in parts:
            assert np.array_equal(solves_part, part)
        verdicts.append((first, math.isfinite(norm), full, two_tier, done))
    return verdicts


# the first tier fails where the full scale passes: at w* of "simplex", and
# at the perturbed w of the others
_FULL_TIER_PASSES = [(("simplex", 5, 606, 14.6), -8.0),
                     (("entropy", 2, 299, 8.48), -15.7),
                     (("ball-recentred", 2, 562, 5.21), -13.6)]
# the reduced normal map's first tier fails where its full scale passes,
# at w_2* and at the perturbed w_2
_REDUCED_FULL_TIER_PASSES = [(("entropy", 6, 3696684404, 4.98), -14.6),
                             (("entropy-floored", 5, 4016105478, 16.33), -16.0)]
# an infinite coordinate of w: the first tier alone would pass, the full
# scale is NaN (|gB| has zero blocks on a saddle)
_NON_FINITE = (("simplex", 3, 615, 7.7), math.inf)


@settings(max_examples=200)
@given(_instances, st.floats(-16.0, -6.0))
@example(*_FULL_TIER_PASSES[0])
@example(*_FULL_TIER_PASSES[1])
@example(*_FULL_TIER_PASSES[2])
@example(*_REDUCED_FULL_TIER_PASSES[0])
@example(*_REDUCED_FULL_TIER_PASSES[1])
@example(*_NON_FINITE)
@example(("entropy", 3, 615, 7.7), math.inf)
def test_the_two_tier_stop_gives_the_full_scales_verdict(args, exponent):
    # the solve's stop asks the O(n) first tier, |G| <= NEWTON_RTOL part,
    # before it forms |gB| spread: at the answer and near it, on every
    # geometry the solve covers and on the reduced map of an entropy
    # saddle, its verdict is the full scale's, and a first-tier pass is a
    # full pass
    for first, finite, full, two_tier, done in _two_tier_verdicts(args, exponent):
        assert two_tier == full
        assert done in (None, full)
        assert full or not (first and finite)


def test_the_two_tier_examples_reach_the_full_tier():
    # the examples above keep their meaning: each has a finite point that
    # fails the first tier and passes the full one; at the non-finite w
    # the first tier's comparison passes, and only its finite-norm guard
    # keeps the verdict at the full scale's "not done"
    for args, exponent in _FULL_TIER_PASSES:
        verdicts = _two_tier_verdicts(args, exponent)
        assert (False, True, True, True, True) in verdicts[:2]
    for args, exponent in _REDUCED_FULL_TIER_PASSES:
        verdicts = _two_tier_verdicts(args, exponent)
        assert verdicts[2:] == [(False, True, True, True, True)] * 2
    _, at_inf = _two_tier_verdicts(*_NON_FINITE)
    assert at_inf == (True, False, False, False, None)


@settings(max_examples=100)
@given(st.tuples(
    st.sampled_from(["entropy", "entropy-floored"]),
    st.integers(2, 8),
    st.integers(0, 2**32 - 1),
    st.floats(0.05, 200.0),
))
def test_the_reduced_solve_without_its_first_tier_takes_the_same_steps(args):
    # with the O(n) first tier off, every stop of the reduced solve forms
    # the full round-off scale: the answer, its bits and the steps are the
    # same, and so are those of the whole solve
    prob, v0 = _instance(*args)
    system = NewtonSystem(prob.f1, prob.gamma, prob.geometry)

    def solves():
        whole = _newton(prob, v0, system)
        return [_attempt("reduced", prob, v0, system),
                (None, None) if whole is None else whole]

    def full_only(g, norm, part, product):
        scale = product()
        scale += part
        scale *= inner.NEWTON_RTOL
        return bool((np.abs(g) <= scale).all())

    two_tier = solves()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inner, "_at_round_off", full_only)
        full = solves()
    for (u, steps), (u_full, steps_full) in zip(two_tier, full):
        assert steps == steps_full
        assert (u is None) == (u_full is None)
        if u is not None:
            assert np.array_equal(u.concat(), u_full.concat())


# ---------------------------------------------------------------------------
# the flat kernels against the per-block formulas, bit for bit


def _layout(kind, d1, d2, seed, gamma):
    """A NewtonSystem's subproblem for a random F1 and a random dual vector
    theta: a saddle F1 on blocks of sizes d1 and d2 (rectangular when they
    differ), or an affine F1 on a ball of dimension d1.  theta has large
    and floored logits for entropy, a random support for the simplex, and
    norm inside or beyond the radius for the ball."""
    rng = np.random.default_rng(seed)
    if kind.startswith("ball"):
        prob, _ = _instance(kind, d1, seed, gamma)
        geom = prob.geometry
        theta = rng.normal(size=d1) * rng.choice([0.1, 1.0, 10.0])
        return prob.f1, geom, theta, rng
    kind_ = (GeometryKind.ENTROPY_SIMPLEX if kind == "entropy"
             else GeometryKind.EUCLIDEAN_SIMPLEX)
    geom = GeometrySetup(kind_, (d1, d2))
    f1 = saddle_shard(rng.uniform(-1.0, 1.0, size=(d1, d2)))
    theta = rng.normal(size=d1 + d2) * rng.choice([0.1, 1.0, 30.0])
    if kind == "entropy":
        theta[rng.random(d1 + d2) < 0.3] = math.log(1e-300)
    return f1, geom, theta, rng


def _per_block_mirror_map(geom, theta):
    """The mirror map block by block, each block its own array."""
    blocks, diag, rank_one = [], [], []
    for t in np.split(theta, np.cumsum(geom.block_dims)[:-1]):
        if geom.kind is GeometryKind.ENTROPY_SIMPLEX:
            e = t - t.max()
            w = np.exp(e)
            u = w / w.sum()
            a, beta, v = u, 1.0, u
        elif not geom.kind.ball:
            u = project_block_simplex(t)
            a = (u > 0.0).astype(float)
            beta, v = 1.0 / a.sum(), a
        else:
            x = t.copy() if geom.center is None else t + geom.center
            n, r = float(np.linalg.norm(x)), geom.radius
            if n <= r:
                u, a, beta, v = x, np.ones_like(x), 0.0, np.zeros_like(x)
            else:
                u, a, beta, v = x * (r / n), np.full_like(x, r / n), r / n, x / n
        blocks.append(u)
        diag.append(a)
        rank_one.append((beta, v))
    return blocks, np.concatenate(diag), rank_one


def _per_block_step(system, g, diag, rank_one):
    """(I + gB D) dw = -g by the Schur complement (saddle) or the dense
    matrix, with outer products and np.linalg.solve."""
    if system.saddle:
        (b1, v1), (b2, v2) = rank_one
        d1 = v1.size
        P = system.gM * diag[d1:] - np.outer(b2 * (system.gM @ v2), v2)
        Q = system.gMT * diag[:d1] - np.outer(b1 * (system.gMT @ v1), v1)
        r1, r2 = -g[:d1], -g[d1:]
        S = Q @ P
        S.flat[:: v2.size + 1] += 1.0
        y = np.linalg.solve(S, r2 + Q @ r1)
        return np.concatenate([r1 - P @ y, y])
    ((beta, v),) = rank_one
    if beta == 0.0 and (diag == 1.0).all():
        lu = scipy.linalg.lu_factor(np.eye(g.size) + system.gB, check_finite=False)
        return scipy.linalg.lu_solve(lu, -g, check_finite=False)
    J = system.gB * diag
    J -= np.outer(beta * (system.gB @ v), v)
    J.flat[:: J.shape[0] + 1] += 1.0
    return np.linalg.solve(J, -g)


_layouts = st.tuples(
    st.sampled_from(["entropy", "simplex", "ball", "ball-sphere", "ball-recentred"]),
    st.integers(1, 9),
    st.integers(1, 9),
    st.integers(0, 2**32 - 1),
    st.floats(0.05, 20.0),
)


@settings(max_examples=300)
@given(_layouts)
def test_flat_mirror_map_and_step_match_the_per_block_formulas(args):
    kind, d1, d2, seed, gamma = args
    if kind.startswith("ball") and d1 < 2:
        d1 = 2
    f1, geom, theta, rng = _layout(kind, d1, d2, seed, gamma)
    bounds = geom.layout.bounds
    u, diag, rank_one = mirror_map_flat(geom, theta)
    blocks, ref_diag, ref_rank_one = _per_block_mirror_map(geom, theta)
    assert np.array_equal(u, np.concatenate(blocks))
    assert np.array_equal(diag, ref_diag)
    assert len(rank_one) == len(ref_rank_one) == len(bounds)
    for (beta, v), (ref_beta, ref_v) in zip(rank_one, ref_rank_one):
        assert beta == ref_beta and np.array_equal(v, ref_v)
    system = NewtonSystem(f1, gamma, geom)
    g = rng.normal(size=theta.size)
    assert np.array_equal(
        system.step(g, diag, rank_one), _per_block_step(system, g, diag, rank_one)
    )
    if kind == "entropy":
        # the entropy prox map runs the same softmax on log(center) - step g
        center = random_point(geom, rng)
        dual = rng.normal(size=center.size)
        got = prox_map(geom, center, dual, gamma)
        for lo, hi in bounds:
            e = np.log(center[lo:hi]) - gamma * dual[lo:hi]
            e -= e.max()
            w = np.exp(e)
            assert np.array_equal(got[lo:hi], w / w.sum())


@settings(max_examples=200)
@given(st.tuples(
    st.sampled_from(["entropy", "simplex"]),
    st.integers(1, 9),
    st.integers(1, 9),
    st.integers(0, 2**32 - 1),
    st.floats(0.05, 20.0),
))
# the reduced attempt misses its target here; the continuation answers
@example(("entropy", 4, 8, 2107774175, 17.81881289206966))
def test_newton_solves_rectangular_saddle_subproblems(args):
    kind, d1, d2, seed, gamma = args
    f1, geom, _, rng = _layout(kind, d1, d2, seed, gamma)
    prob = CompositeProblem(
        gamma=gamma, anchor=random_point(geom, rng), f1=f1,
        offset=np.concatenate([0.5 * rng.normal(size=d1), 0.5 * rng.normal(size=d2)]),
        geometry=geom, l_f1=float(np.linalg.norm(f1.matrix, 2)),
    )
    v0 = random_point(geom, rng)
    system = NewtonSystem(f1, gamma, geom)
    out = newton_solve_flat(system, geom, dgf_grad(geom, prob.anchor),
                            prob.offset, v0, f1.evaluate(v0))
    assert out is not None
    u = geom.layout.split(out[0])
    assert tuple(b.size for b in u.blocks) == (d1, d2)
    assert _prox_residual(prob, u) <= 1e-11
    for b in u.blocks:
        assert np.all(b >= 0.0) and abs(b.sum() - 1.0) < 1e-12
    if kind == "entropy":
        _check_reduced_rows(prob, geom.layout.split(v0), system, u, out[2])


@settings(max_examples=200)
@given(st.tuples(
    st.sampled_from(["entropy", "entropy-floored"]),
    st.integers(2, 8),
    st.integers(0, 2**32 - 1),
    st.floats(0.05, 200.0),
))
def test_reduced_solve_skips_its_scale_only_far_from_round_off(args):
    # the reduced solve computes its round-off scale only once ||G_2|| is
    # within 2 sqrt(d_2) NEWTON_RTOL S, S = _reduced_scale_bound; every
    # iterate it calls done must lie within that, with S above each
    # component of its scale, and never skipping must not change the
    # answer or the steps
    prob, v0 = _instance(*args)
    geom, gamma = prob.geometry, prob.gamma
    d1 = geom.block_dims[0]
    system = NewtonSystem(prob.f1, gamma, geom)
    thetas = []
    with pytest.MonkeyPatch.context() as mp:
        original = inner.softmax

        def recording(theta):
            thetas.append(theta.copy())
            return original(theta)

        mp.setattr(inner, "softmax", recording)
        u, steps = _attempt("reduced", prob, v0, system)
    c = dgf_grad(geom, prob.anchor) - gamma * prob.offset
    c1, c2 = c[:d1], c[d1:]
    bound = inner._reduced_scale_bound(system, c1, np.abs(c2))
    far = 2.0 * math.sqrt(c2.size) * inner.NEWTON_RTOL * bound
    # the first softmax map is the start's x_0; then (w_2, w_1) per iterate
    abs_gMT = np.abs(system.gMT)
    for w2, w1 in zip(thetas[1::2], thetas[2::2]):
        u1 = np.exp(w1 - w1.max())
        u1 /= u1.sum()
        u2 = np.exp(w2 - w2.max())
        u2 /= u2.sum()
        g2 = w2 - c2 - system.gMT @ u1
        aw1 = np.abs(w1)
        scale = abs_gMT @ (u1 * (aw1 + 1.0 + u1 @ aw1)) + np.abs(w2) + np.abs(c2)
        if np.all(np.abs(g2) <= inner.NEWTON_RTOL * scale):
            assert math.sqrt(g2 @ g2) <= far / 2.0
            assert scale.max() <= bound
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inner, "_reduced_scale_bound", lambda *args: math.inf)
        u_full, steps_full = _attempt("reduced", prob, v0, system)
    assert steps == steps_full
    assert (u is None) == (u_full is None)
    if u is not None:
        assert np.array_equal(u.concat(), u_full.concat())


@settings(max_examples=200)
@given(st.tuples(
    st.integers(2, 8),
    st.integers(2, 8),
    st.integers(0, 2**32 - 1),
    st.floats(0.05, 20.0),
    st.integers(0, 3),
))
def test_a_predicted_start_answers_as_the_warm_start_does(args):
    # paus_run extrapolates the log y of its last floored answers, some
    # coordinates at TINY_MASS, to the y-block its next reduced attempt
    # starts from: a probability vector, from which the solve answers
    # where it does from v0, within the fixed-point bound
    d1, d2, seed, gamma, answers = args
    f1, geom, _, rng = _layout("entropy", d1, d2, seed, gamma)
    history = []
    for _ in range(answers):
        y = rng.dirichlet(np.full(d2, 0.3))
        y[rng.permutation(d2)[: rng.integers(0, d2)]] = 0.0
        history.append(floor_simplex_flat(y, [(0, d2)]))
    predicted = paus.predicted_y([np.log(y) for y in history])
    if answers < 2:
        assert predicted is None
        return
    assert predicted.shape == (d2,) and np.isfinite(predicted).all()
    assert (predicted >= 0.0).all() and abs(predicted.sum() - 1.0) <= 1e-12
    prob = CompositeProblem(
        gamma=gamma, anchor=random_point(geom, rng), f1=f1,
        offset=np.concatenate([0.5 * rng.normal(size=d1), 0.5 * rng.normal(size=d2)]),
        geometry=geom, l_f1=float(np.linalg.norm(f1.matrix, 2)),
    )
    v0 = random_point(geom, rng)
    system = NewtonSystem(f1, gamma, geom)
    operands = (system, geom, dgf_grad(geom, prob.anchor), prob.offset, v0,
                f1.evaluate(v0))
    from_v0 = newton_solve_flat(*operands)
    from_prediction = newton_solve_flat(*operands, predicted)
    assert from_v0 is not None and from_prediction is not None
    u = geom.layout.split(from_prediction[0])
    assert _prox_residual(prob, u) <= 1e-11
    assert float(np.abs(from_prediction[0] - from_v0[0]).max()) <= 1e-11


def _check_reduced_rows(prob, v0, system, answer, f1_answer):
    """The reduced attempt's answer, when it gives one, is ``answer``, and
    both rows of the full normal map are at round-off there; a stall leaves
    ``answer`` to the continuation in gamma.  ``newton_solve_flat`` gives
    F1 at the answer, ``f1_answer``, only in the second case: paus_run
    reads that to know that the reduced attempt failed."""
    geom, gamma = prob.geometry, prob.gamma
    d1 = geom.block_dims[0]
    # the last two softmax maps of the solve are those of its answer:
    # u_2 = softmax(w_2), then u_1 = softmax(w_1)
    thetas = []
    with pytest.MonkeyPatch.context() as mp:
        original = inner.softmax

        def recording(theta):
            thetas.append(theta.copy())
            return original(theta)

        mp.setattr(inner, "softmax", recording)
        u, _ = _attempt("reduced", prob, v0, system)
    if u is None:
        continued, _ = _attempt("continuation", prob, v0, system)
        assert continued is not None
        assert np.array_equal(answer.concat(), continued.concat())
        assert f1_answer is not None
        return
    assert np.array_equal(answer.concat(), u.concat())
    assert f1_answer is None
    w2, w1 = thetas[-2:]
    x, y = u.blocks
    # both rows of the full normal map G(w) = w - c + gamma F1(u), and their
    # round-off scale |w| + |c| + |gM| (|u| + |D| |w|) with the softmax
    # Jacobian's magnitudes |D| = diag(u) + u u^T, from dense matrices
    c = dgf_grad(geom, prob.anchor) - gamma * prob.offset
    c1, c2 = c[:d1], c[d1:]
    g1 = w1 - c1 + system.gM @ y
    g2 = w2 - c2 - system.gMT @ x

    def spread(z, w):
        return z + (np.diag(z) + np.outer(z, z)) @ np.abs(w)

    scale1 = np.abs(w1) + np.abs(c1) + np.abs(system.gM) @ spread(y, w2)
    scale2 = np.abs(w2) + np.abs(c2) + np.abs(system.gMT) @ spread(x, w1)
    assert np.all(np.abs(g1) <= inner.NEWTON_RTOL * scale1)
    assert np.all(np.abs(g2) <= inner.NEWTON_RTOL * scale2)


def test_the_private_gesv_gives_numpy_solves_bits():
    # inner._solve calls numpy's private gesv gufunc by this name, without
    # np.linalg.solve's wrapper; a numpy release that moves or changes it
    # fails here
    from numpy.linalg._umath_linalg import solve1

    assert inner._gesv is solve1
    rng = np.random.default_rng(17)
    for n in range(1, 61):
        A = rng.normal(size=(n, n))
        b = rng.normal(size=n)
        want = np.linalg.solve(A, b)
        assert np.array_equal(solve1(A, b), want)
        assert np.array_equal(inner._solve(A, b), want)
    # a singular system (an exact zero pivot): gesv answers NaNs, which
    # _solve turns into LinAlgError as np.linalg.solve does
    singular = np.diag([1.0, 2.0, 0.0, 3.0])
    for solve in (np.linalg.solve, inner._solve):
        with pytest.raises(np.linalg.LinAlgError):
            solve(singular, np.ones(4))


def test_singular_newton_system_raises_linalg_error():
    with pytest.raises(np.linalg.LinAlgError):
        inner._solve(np.zeros((3, 3)), np.ones(3))
