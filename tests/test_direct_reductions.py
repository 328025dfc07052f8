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
    wrapper_duality_gap,
    wrapper_floor_simplex_flat,
    wrapper_project_block_simplex,
    wrapper_worker_mean,
)
from visim.baselines import BaselineConfig, BaselineKind, mirror_prox_run
from visim.cluster import ClusterState
from visim.errors import NumericsError
from visim.geometry import (
    entropy_simplex,
    euclidean_ball,
    euclidean_simplex,
    floor_simplex_flat,
    project_block_simplex,
    uniform_point,
)
from visim.operators import OperatorShard, saddle_shard
from visim.paus import PausConfig, duality_gap, paus_run

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
        return paus_run(config, cluster, gap_fn=gap)

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
        return paus_run(config, cluster)

    return run


def _mirror_prox():
    mats, gap = _game()
    cluster = ClusterState([saddle_shard(M) for M in mats])
    geometry = entropy_simplex(6)

    def run(iters):
        config = BaselineConfig(BaselineKind.MIRROR_PROX, 0.5, iters, geometry,
                                uniform_point(geometry))
        return mirror_prox_run(config, cluster, gap_fn=gap)

    return run


@pytest.mark.parametrize("make_run", [
    lambda: _paus_game(entropy_simplex(6)),
    lambda: _paus_game(euclidean_simplex(6)),
    _paus_ball,
    _mirror_prox,
], ids=["paus-entropy-simplex", "paus-euclidean-simplex", "paus-l2-ball",
        "mirror-prox"])
def test_no_numpy_wrapper_call_per_outer_step(make_run):
    run, K = make_run(), 10
    # a first run imports, caches and factors what every later run reuses
    run(K)
    (short, calls_k), (long, calls_2k) = (_wrapper_calls(run, K),
                                          _wrapper_calls(run, 2 * K))
    # every subproblem went to Newton: the extragradient fallback, which is
    # not on this path, is not what this test counts
    assert short.inner_fallbacks == long.inner_fallbacks == 0
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
