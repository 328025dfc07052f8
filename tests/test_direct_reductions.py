"""The solvers' per-iteration paths call numpy's ufuncs and ndarray methods
directly, never the Python-level wrappers in numpy's ``fromnumeric`` and
``_methods`` modules, and the primitives written that way keep the bits of
their wrapper forms (``oracles.wrapper_*``).

The call-count guard runs each solver for K and 2K outer steps after a
warm-up run: a wrapper call left on a per-iteration path makes the longer
run call more.  The property tests compare bits through
``view(np.uint64)``, which tells -0.0 from 0.0.
"""

import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    wrapper_dgf_value,
    wrapper_duality_gap,
    wrapper_entropy_divergence,
    wrapper_floor_simplex_flat,
    wrapper_lp_norm,
    wrapper_project_block_simplex,
    wrapper_worker_mean,
)
from visim.baselines import BaselineConfig, BaselineKind, mirror_prox_run
from visim.cluster import ClusterState
from visim.errors import DivergenceInfinite, DomainError, NumericsError
from visim.geometry import (
    _lp_norm,
    a_norm_ball,
    bregman_divergence,
    composite_prox_map,
    dgf_value,
    entropy_simplex,
    euclidean_ball,
    euclidean_simplex,
    floor_simplex_flat,
    project_block_simplex,
    recenter,
    uniform_point,
)
from visim.inner import CompositeProblem, composite_mp
from visim.operators import OperatorShard, saddle_shard
from visim.paus import PausConfig, duality_gap, paus_run
from visim.restart import synthetic_strongly_monotone

# numpy 2 keeps the wrappers in numpy/_core, numpy 1 in numpy/core
_WRAPPER_FILE = re.compile(r"numpy[/\\]_?core[/\\](fromnumeric|_methods)\.py$")


def _wrapper_calls(run, iters):
    """``run(iters)`` and the calls into numpy's fromnumeric and _methods
    modules that it makes."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and _WRAPPER_FILE.search(frame.f_code.co_filename):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = run(iters)
    finally:
        sys.setprofile(previous)
    return result, calls


def _game(d=6, m=4, seed=0):
    rng = np.random.default_rng(seed)
    mats = [rng.uniform(-1.0, 1.0, (d, d)) for _ in range(m)]
    mean = wrapper_worker_mean(mats)
    return mats, lambda u: duality_gap(mean, *u.blocks)


def _paus_game(geometry):
    mats, gap = _game()
    cluster = ClusterState([saddle_shard(M) for M in mats])

    def run(iters):
        config = PausConfig(gamma=1.0, iters=iters, geometry=geometry,
                            z0=uniform_point(geometry), l_f1=1.0)
        return paus_run(config, cluster, gap_fn=gap).inner_fallbacks

    return run


def _paus_ball():
    d, rng = 6, np.random.default_rng(1)
    A = rng.uniform(-1.0, 1.0, (d, d))
    A = A - A.T + np.eye(d)
    cluster = ClusterState([OperatorShard(A + 0.1 * i * np.eye(d), np.full(d, i))
                            for i in range(3)])
    geometry = euclidean_ball(d)

    def run(iters):
        config = PausConfig(gamma=0.5, iters=iters, geometry=geometry,
                            z0=uniform_point(geometry), l_f1=2.0)
        return paus_run(config, cluster).inner_fallbacks

    return run


def _paus_a_norm_ball():
    # no Newton solve: every subproblem runs composite_mp, whose movement
    # stop evaluates the a-norm DGF
    shards, _, consts = synthetic_strongly_monotone(6, m=4, mu=0.5, delta=1.0,
                                                    seed=2)
    cluster, geometry = ClusterState(shards=list(shards)), a_norm_ball(6)

    def run(iters):
        config = PausConfig(gamma=1.0, iters=iters, geometry=geometry,
                            z0=uniform_point(geometry), l_f1=consts.L_F1)
        return paus_run(config, cluster).inner_fallbacks

    return run


def _composite_mp_entropy():
    # the extragradient loop itself on the entropy simplex, with a movement
    # stop (the entropy divergence every step) that this run never meets
    mats, _ = _game()
    geometry = entropy_simplex(6)
    start = geometry.layout.join(uniform_point(geometry))
    problem = CompositeProblem(gamma=1.0, anchor=start, f1=saddle_shard(mats[0]),
                               offset=np.zeros(12), geometry=geometry, l_f1=1.0)

    def run(iters):
        return composite_mp(problem, start, iters, movement_tol=1e-300)[1]

    return run


def _mirror_prox():
    mats, gap = _game()
    cluster = ClusterState([saddle_shard(M) for M in mats])
    geometry = entropy_simplex(6)

    def run(iters):
        config = BaselineConfig(BaselineKind.MIRROR_PROX, 0.5, iters, geometry,
                                uniform_point(geometry))
        return mirror_prox_run(config, cluster, gap_fn=gap).inner_fallbacks

    return run


# each run returns how many of its outer steps ran the extragradient loop
# (``composite_mp``'s steps are its own): none where every subproblem went
# to the Newton solve, all of them on the a-norm ball and for composite_mp
@pytest.mark.parametrize("make_run, loop_steps", [
    (lambda: _paus_game(entropy_simplex(6)), False),
    (lambda: _paus_game(euclidean_simplex(6)), False),
    (_paus_ball, False),
    (_mirror_prox, False),
    (_paus_a_norm_ball, True),
    (_composite_mp_entropy, True),
], ids=["paus-entropy-simplex", "paus-euclidean-simplex", "paus-l2-ball",
        "mirror-prox", "paus-a-norm-ball", "composite-mp-entropy"])
def test_no_numpy_wrapper_call_per_outer_step(make_run, loop_steps):
    run, K = make_run(), 10
    # a first run imports, caches and factors what every later run reuses
    run(K)
    (short, calls_k), (long, calls_2k) = (_wrapper_calls(run, K),
                                          _wrapper_calls(run, 2 * K))
    # each run took the path it names: the Newton runs handed the
    # extragradient fallback (not on their path) nothing, and the loop runs
    # ran it in every outer step
    assert (short, long) == ((K, 2 * K) if loop_steps else (0, 0))
    assert calls_k == calls_2k


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(_bits(got), _bits(want)), (got, want)


_SPECIAL = [0.0, -0.0, 1.0, 0.5, -1.0, 1e-300, 5e-324, -5e-324, 1e16, -1e16,
            2.0**53, 1e300, -1e300, np.inf, -np.inf, np.nan]
_ENTRIES = st.one_of(st.floats(-10.0, 10.0), st.sampled_from(_SPECIAL),
                     st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=300)
@given(st.lists(_ENTRIES, min_size=1, max_size=12))
@example([0.25, 0.25, 0.25, 0.25])
@example([1.0, 1.0, -1.0, 1.0, -1.0])
@example([1e16, 0.0, -1.0])
@example([0.5, np.nan])
@example([1e-300, 5e-324, -0.0, 0.0])
def test_project_block_simplex_has_the_wrapper_forms_bits(entries):
    v = np.array(entries)
    with np.errstate(all="ignore"):
        try:
            want = wrapper_project_block_simplex(v)
        except NumericsError:
            with pytest.raises(NumericsError):
                project_block_simplex(v)
            return
        _assert_same_bits(project_block_simplex(v), want)


_MASS = st.one_of(st.floats(0.0, 1e3), st.sampled_from(
    [0.0, -0.0, 1e-300, 5e-324, 1e-320, 1.0, 1e300, -1e-13]))


@settings(max_examples=200)
@given(st.lists(st.lists(_MASS, min_size=1, max_size=6), min_size=1, max_size=3))
def test_floor_simplex_flat_has_the_wrapper_forms_bits(blocks):
    z = np.array([x for b in blocks for x in b])
    ends = np.cumsum([len(b) for b in blocks]).tolist()
    bounds = list(zip([0] + ends[:-1], ends))
    _assert_same_bits(floor_simplex_flat(z, bounds),
                      wrapper_floor_simplex_flat(z, bounds))


@settings(max_examples=40)
@given(st.sampled_from([1, 2, 250]), st.integers(1, 4), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_cluster_average_has_the_bits_of_summing_in_worker_order(m, d, affine, seed):
    rng = np.random.default_rng(seed)
    # scales a few decades apart make the sum's round-off depend on its order
    scales = 10.0 ** rng.integers(-8, 9, size=m)

    def draw(shape, scale):
        x = rng.standard_normal(shape) * scale
        return np.where(rng.random(shape) < 0.2, -0.0, x)

    mats = [draw((d, d), s) for s in scales]
    offsets = [draw(d, s) for s in scales] if affine else None
    shards = ([OperatorShard(M, b) for M, b in zip(mats, offsets)] if affine
              else [saddle_shard(M) for M in mats])
    average = ClusterState(shards).average
    _assert_same_bits(average.matrix, wrapper_worker_mean(mats))
    if affine:
        _assert_same_bits(average.offset, wrapper_worker_mean(offsets))
    else:
        assert average.offset is None


@settings(max_examples=200)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 1e-300, 1.0, 1e300]))
def test_duality_gap_has_the_wrapper_forms_bits(d1, d2, seed, scale):
    rng = np.random.default_rng(seed)
    M = np.where(rng.random((d1, d2)) < 0.2, -0.0,
                 rng.standard_normal((d1, d2)) * scale)
    x, y = rng.dirichlet(np.ones(d1)), rng.dirichlet(np.ones(d2))
    with np.errstate(all="ignore"):
        got, want = duality_gap(M, x, y), wrapper_duality_gap(M, x, y)
    _assert_same_bits(np.float64(got), np.float64(want))


_A_NORM = a_norm_ball(7)


@settings(max_examples=300)
@given(st.lists(_ENTRIES, min_size=1, max_size=12),
       st.one_of(st.sampled_from([1.0, _A_NORM.p, _A_NORM.a,
                                  _A_NORM.a / (_A_NORM.a - 1.0)]),
                 st.floats(1.0, 8.0)))
@example([1e-300, 5e-324, -0.0, 0.0], 1.5)
@example([1e300, -1e300, 1.0], 1.2)
def test_lp_norm_has_the_wrapper_forms_bits(entries, p):
    x = np.array(entries)
    with np.errstate(all="ignore"):
        got, want = _lp_norm(x, p), wrapper_lp_norm(x, p)
    _assert_same_bits(np.float64(got), np.float64(want))


def _on_simplex(blocks):
    # the blocks rescaled to sum 1, so that they pass validate_point;
    # exact zeros stay zero
    return np.concatenate([np.array(b) / np.add.reduce(np.array(b))
                           for b in blocks])


# masses with exact zeros and subnormals, two blocks of n that each sum
# to > 0; a reference point draws fewer zeros, so that most divergences
# are finite
_SIMPLEX_MASS = st.one_of(st.floats(0.0, 1e3), st.sampled_from(
    [0.0, -0.0, 1e-300, 5e-324, 1e-320, 1.0, 1e300]))
_REFERENCE_MASS = st.one_of(st.floats(1e-300, 1e3), _SIMPLEX_MASS)


def _blocks(n, mass=_SIMPLEX_MASS):
    return st.lists(st.lists(mass, min_size=n, max_size=n).filter(
        lambda b: sum(b) > 0.0), min_size=2, max_size=2)


_BLOCKS = st.integers(2, 6).flatmap(_blocks)


@settings(max_examples=200)
@given(_BLOCKS)
@example([[1.0, 0.0], [5e-324, 1.0]])
def test_entropy_dgf_value_has_the_wrapper_forms_bits(blocks):
    setup, z = entropy_simplex(len(blocks[0])), _on_simplex(blocks)
    _assert_same_bits(np.float64(dgf_value(setup, z)),
                      np.float64(wrapper_dgf_value(setup, z)))


@settings(max_examples=200)
@given(st.lists(st.floats(-1.0, 1.0), min_size=7, max_size=7),
       st.floats(0.0, 1.0), st.booleans())
@example([0.0] * 7, 0.0, False)
@example([1e-300, -0.0, 0.0, 5e-324, 0.5, -0.25, 1e-12], 0.999, True)
def test_a_norm_dgf_value_has_the_wrapper_forms_bits(x, fraction, shifted):
    # a point inside the a-norm ball, about a centre of its own or the origin
    setup = _A_NORM
    z = np.array(x)
    n = _lp_norm(z, setup.p)
    if n > 0.0:
        z *= fraction / n
    if shifted:
        setup = recenter(setup, np.full(7, 0.1), np.zeros(7))
    _assert_same_bits(np.float64(dgf_value(setup, z)),
                      np.float64(wrapper_dgf_value(setup, z)))


@settings(max_examples=300)
@given(st.integers(2, 6).flatmap(
    lambda n: st.tuples(_blocks(n), _blocks(n, _REFERENCE_MASS))))
@example(([[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]))
@example(([[1.0, 1.0, 5e-324], [1.0, 1.0, 1.0]], [[1.0, 1e-300, 1.0], [1.0, 1.0, 1.0]]))
def test_entropy_divergence_has_the_wrapper_forms_bits(pair):
    # u puts mass where v has none on some draws: both forms raise there
    u, v = pair
    setup = entropy_simplex(len(u[0]))
    u, v = _on_simplex(u), _on_simplex(v)
    try:
        want = wrapper_entropy_divergence(setup, u, v)
    except DivergenceInfinite:
        with pytest.raises(DivergenceInfinite):
            bregman_divergence(setup, u, v)
        return
    _assert_same_bits(np.float64(bregman_divergence(setup, u, v)),
                      np.float64(want))


_VERDICT_ENTRIES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, 0.5,
                                    -1e-13, np.nan])


@settings(max_examples=200)
@given(st.lists(_VERDICT_ENTRIES, min_size=4, max_size=4))
def test_composite_prox_refuses_the_anchors_the_wrapper_form_refuses(entries):
    # the anchor check reads np.logical_and.reduce(has_mass(anchor)) where
    # it read has_mass(anchor).all()
    setup = entropy_simplex(2)
    anchor, center = np.array(entries), np.full(4, 0.5)
    if (anchor > 0.0).all():
        composite_prox_map(setup, anchor, center, np.zeros(4), 0.5)
    else:
        with pytest.raises(DomainError):
            composite_prox_map(setup, anchor, center, np.zeros(4), 0.5)


@settings(max_examples=200)
@given(st.lists(_VERDICT_ENTRIES, min_size=3, max_size=3),
       st.lists(_VERDICT_ENTRIES, min_size=3, max_size=3))
def test_recenter_keeps_the_wrapper_forms_centre(shift_from, shift_to):
    # an all-zero shift (-0.0 included) leaves no centre, as new.any() did;
    # any other, NaN included, is kept with its bits
    with np.errstate(all="ignore"):
        new = np.zeros(3) + np.array(shift_from) - np.array(shift_to)
        got = recenter(euclidean_ball(3), np.array(shift_from),
                       np.array(shift_to)).center
    if new.any():
        _assert_same_bits(got, new)
    else:
        assert got is None
