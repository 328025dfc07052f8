import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from visim.errors import (
    DivergenceInfinite,
    DomainError,
    NumericsError,
    ParameterError,
    ShapeError,
    UnboundedOmegaError,
    UnsupportedRecenterError,
)
from visim.geometry import (
    BALL_TOL,
    GeometryKind,
    GeometrySetup,
    a_norm_ball,
    a_norm_exponent,
    bregman_divergence,
    composite_prox_map,
    dgf_grad,
    dgf_value,
    dual_norm,
    entropy_simplex,
    euclidean_ball,
    euclidean_simplex,
    floor_simplex_flat,
    max_divergence_bound,
    mirror_map_flat,
    omega_d,
    piece_map,
    primal_norm,
    project_block_simplex,
    prox_map,
    random_point,
    recenter,
    uniform_point,
    validate_point,
)
from visim.geometry import _lp_norm, _project

from oracles import (
    entropy_composite_oracle,
    entropy_prox_oracle,
    euclidean_composite_oracle,
    euclidean_projection_oracle,
)


# ---------------------------------------------------------------------------
# DGF values


def test_dgf_entropy_uniform_d2():
    setup = entropy_simplex(2, blocks=1)
    z = np.array([0.5, 0.5])
    assert dgf_value(setup, z) == pytest.approx(-math.log(2), abs=1e-14)


def test_dgf_entropy_vertex_is_zero():
    setup = entropy_simplex(4, blocks=1)
    z = np.array([1.0, 0.0, 0.0, 0.0])
    assert dgf_value(setup, z) == 0.0


def test_dgf_euclidean_norm_two():
    setup = euclidean_ball(3, radius=2.0)
    z = np.array([2.0, 0.0, 0.0])
    assert dgf_value(setup, z) == pytest.approx(2.0, abs=1e-14)


def test_dgf_rejects_domain_violation():
    setup = entropy_simplex(2, blocks=1)
    with pytest.raises(DomainError):
        dgf_value(setup, np.array([0.7, 0.7]))


def test_a_norm_dgf_value():
    setup = a_norm_ball(5)
    a = setup.a
    z = np.array([0.3, -0.2, 0.1, 0.0, 0.05])
    want = np.sum(np.abs(z) ** a) ** (2 / a) / (2 * (a - 1))
    assert dgf_value(setup, z) == pytest.approx(want, rel=1e-12)


def test_a_norm_exponent_formula():
    # a = 2 ln d / (2 ln d - 1)
    for d in (3, 25, 100):
        ld = math.log(d)
        assert a_norm_exponent(d) == pytest.approx(2 * ld / (2 * ld - 1))
    with pytest.raises(ParameterError):
        a_norm_exponent(2)


# ---------------------------------------------------------------------------
# Bregman divergences


def test_divergence_zero_at_equal_points():
    rng = np.random.default_rng(0)
    for setup in (entropy_simplex(4), euclidean_simplex(4), a_norm_ball(6)):
        for _ in range(20):
            z = random_point(setup, rng)
            assert bregman_divergence(setup, z, z) == pytest.approx(0.0, abs=1e-12)


def test_divergence_entropy_kl_example():
    setup = entropy_simplex(2, blocks=1)
    u = np.array([1.0, 0.0])
    v = np.array([0.5, 0.5])
    assert bregman_divergence(setup, u, v) == pytest.approx(math.log(2), abs=1e-14)


def test_divergence_euclidean_half_norm():
    setup = euclidean_ball(2, radius=5.0)
    u = np.array([1.0, 0.0])
    v = np.array([0.0, 0.0])
    assert bregman_divergence(setup, u, v) == pytest.approx(0.5, abs=1e-15)


def test_divergence_infinite_off_support():
    setup = entropy_simplex(3, blocks=1)
    u = np.array([0.5, 0.5, 0.0])
    v = np.array([1.0, 0.0, 0.0])
    with pytest.raises(DivergenceInfinite):
        bregman_divergence(setup, u, v)


def test_divergence_finite_at_floored_mass():
    # a coordinate floored at 1e-300 is interior: KL stays finite and equals
    # the direct sum even where u holds more mass than v
    setup = entropy_simplex(3, blocks=1)
    u = np.array([0.5 - 1e-12, 0.5, 1e-12])
    v = np.array([0.5, 0.5 - 1e-300, 1e-300])
    got = bregman_divergence(setup, u, v)
    want = float(np.sum(u * (np.log(u) - np.log(v))))
    assert math.isfinite(got)
    assert got == pytest.approx(want, rel=1e-12)


def test_strong_convexity_lower_bound():
    # V(u, v) >= 0.5 ||u - v||^2 in each setup's declared norm
    rng = np.random.default_rng(7)
    setups = [entropy_simplex(5), euclidean_simplex(5), euclidean_ball(4),
              a_norm_ball(8)]
    for setup in setups:
        for _ in range(200):
            u = random_point(setup, rng)
            v = random_point(setup, rng)
            if setup.kind is GeometryKind.ENTROPY_SIMPLEX:
                v = 0.9 * v + 0.1 / 5  # each block of 5 mixed with its uniform
            lhs = bregman_divergence(setup, u, v)
            rhs = 0.5 * primal_norm(setup, u - v) ** 2
            assert lhs >= rhs - 1e-10, f"{setup.kind}: {lhs} < {rhs}"


def test_dual_primal_norm_pairing():
    # |<g, z>| <= ||g||_* ||z|| for every geometry (Cauchy-Schwarz in the
    # declared pairing)
    rng = np.random.default_rng(11)
    for setup in (entropy_simplex(6), euclidean_simplex(6), a_norm_ball(9)):
        for _ in range(100):
            u = random_point(setup, rng)
            v = random_point(setup, rng)
            diff = u - v
            g = rng.normal(size=u.size)
            inner = float(g @ diff)
            assert abs(inner) <= dual_norm(setup, g) * primal_norm(setup, diff) + 1e-12


# ---------------------------------------------------------------------------
# plain prox map


def test_prox_zero_gradient_is_fixed_point():
    setup = entropy_simplex(4)
    z = uniform_point(setup).concat()
    out = prox_map(setup, z, np.zeros(8), 1.0)
    np.testing.assert_allclose(out, z, atol=1e-15)


def test_prox_entropy_derived_example():
    # center (1/2,1/2), g = (log 2, 0), step 1: x_j propto exp(-g_j)/2
    setup = entropy_simplex(2, blocks=1)
    out = prox_map(
        setup, np.array([0.5, 0.5]), np.array([math.log(2), 0.0]), 1.0
    )
    np.testing.assert_allclose(out, [1 / 3, 2 / 3], atol=1e-14)


def test_prox_euclidean_interior_example():
    setup = euclidean_ball(2, radius=1.0)
    out = prox_map(setup, np.array([0.0, 0.0]), np.array([-1.0, 0.0]), 0.5)
    np.testing.assert_allclose(out, [0.5, 0.0], atol=1e-14)


def test_prox_rejects_bad_args():
    setup = entropy_simplex(2, blocks=1)
    z = np.array([0.5, 0.5])
    with pytest.raises(ParameterError):
        prox_map(setup, z, np.array([0.0, 0.0]), 0.0)
    with pytest.raises(NumericsError):
        prox_map(setup, z, np.array([np.inf, 0.0]), 1.0)
    with pytest.raises(DomainError):
        prox_map(setup, np.array([1.0, 0.0]), np.array([0.0, 0.0]), 1.0)
    # a point of another size than the setup's
    with pytest.raises(ShapeError):
        prox_map(setup, np.full(4, 0.25), np.zeros(4), 1.0)


def test_prox_entropy_against_newton_oracle():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(300):
        d = int(rng.integers(2, 6))
        setup = entropy_simplex(d, blocks=1)
        center = rng.dirichlet(np.ones(d))
        center = np.maximum(center, 1e-9)
        center /= center.sum()
        g = rng.normal(size=d) * 2.0
        step = float(rng.uniform(0.05, 3.0))
        got = prox_map(setup, center, g, step)
        ref = entropy_prox_oracle(center, g, step)
        worst = max(worst, float(np.abs(got - ref).max()))
    assert worst < 1e-10, worst


def test_prox_euclidean_simplex_against_projection_oracle():
    rng = np.random.default_rng(4)
    for _ in range(100):
        d = int(rng.integers(2, 6))
        setup = euclidean_simplex(d, blocks=1)
        center = rng.dirichlet(np.ones(d))
        g = rng.normal(size=d)
        step = float(rng.uniform(0.1, 2.0))
        got = prox_map(setup, center, g, step)
        ref = euclidean_projection_oracle(center - step * g)
        np.testing.assert_allclose(got, ref, atol=1e-12)


def test_prox_a_norm_stays_in_ball_and_beats_oracle():
    from oracles import ball_prox_oracle

    rng = np.random.default_rng(5)
    setup = a_norm_ball(6)
    a = setup.a
    for _ in range(15):
        center = random_point(setup, rng)
        g = rng.normal(size=6)
        step = float(rng.uniform(0.2, 1.5))
        got = prox_map(setup, center, g, step)
        validate_point(setup, got)
        ref = ball_prox_oracle(center, g, step, a, a, 1.0)
        np.testing.assert_allclose(got, ref, atol=2e-5)


def _slsqp_returning(monkeypatch, x, message="Iteration limit reached"):
    """Make the ball prox's SLSQP fallback return ``x`` (reported as a
    failed solve), and count its calls."""
    import types

    import scipy.optimize

    calls = []

    def fake_minimize(fun, x0, **kwargs):
        calls.append(x0)
        return types.SimpleNamespace(
            x=np.array(x, dtype=float), success=False, message=message
        )

    monkeypatch.setattr(scipy.optimize, "minimize", fake_minimize)
    return calls


def _fallback_prox(setup):
    # a ball norm p other than the DGF exponent a (here p = 1) takes the
    # SLSQP fallback once a long step from the centre leaves the ball
    g = -10.0 * np.eye(setup.block_dims[0])[0]
    return prox_map(setup, uniform_point(setup).concat(), g, 1.0)


def test_ball_fallback_rescales_round_off_onto_the_sphere(monkeypatch):
    setup = a_norm_ball(6, p=1.0)
    x = np.array([0.25, 0.75, 0.0, 0.0, 0.0, 0.0]) * (1.0 + 2.3e-12)
    calls = _slsqp_returning(monkeypatch, x)
    got = _fallback_prox(setup)
    assert len(calls) == 1
    validate_point(setup, got)
    assert abs(np.abs(got).sum() - 1.0) <= 1e-15
    np.testing.assert_allclose(got, [0.25, 0.75, 0, 0, 0, 0], rtol=1e-11)


def test_ball_fallback_keeps_a_feasible_point_despite_failure_flag(monkeypatch):
    setup = a_norm_ball(6, p=1.0)
    x = np.array([0.3, 0.3, 0.3, 0.0, 0.0, 0.0])
    calls = _slsqp_returning(monkeypatch, x)
    got = _fallback_prox(setup)
    assert len(calls) == 1
    np.testing.assert_array_equal(got, x)


def test_ball_fallback_raises_beyond_round_off(monkeypatch):
    setup = a_norm_ball(6, p=1.0)
    _slsqp_returning(monkeypatch, [1.01, 0, 0, 0, 0, 0], "Positive directional")
    with pytest.raises(NumericsError, match="Positive directional"):
        _fallback_prox(setup)
    _slsqp_returning(monkeypatch, [np.nan, 0, 0, 0, 0, 0], "Inequality constraints")
    with pytest.raises(NumericsError, match="Inequality constraints"):
        _fallback_prox(setup)


# ---------------------------------------------------------------------------
# composite prox map


def test_composite_prox_eta_zero_degenerates():
    setup = euclidean_simplex(3, blocks=1)
    rng = np.random.default_rng(6)
    anchor = rng.dirichlet(np.ones(3))
    center = rng.dirichlet(np.ones(3))
    g = rng.normal(size=3)
    a = composite_prox_map(setup, anchor, center, g, 0.0)
    b = prox_map(setup, center, g, 1.0)
    np.testing.assert_allclose(a, b, atol=1e-14)


def test_composite_prox_entropy_against_newton_oracle():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(300):
        d = int(rng.integers(2, 6))
        setup = entropy_simplex(d, blocks=1)
        anchor = rng.dirichlet(np.ones(d))
        anchor = np.maximum(anchor, 1e-9)
        anchor /= anchor.sum()
        center = rng.dirichlet(np.ones(d))
        center = np.maximum(center, 1e-9)
        center /= center.sum()
        g = rng.normal(size=d)
        eta = float(rng.uniform(0.01, 5.0))
        got = composite_prox_map(setup, anchor, center, g, eta)
        ref = entropy_composite_oracle(anchor, center, g, eta)
        worst = max(worst, float(np.abs(got - ref).max()))
    assert worst < 1e-10, worst


def test_composite_prox_euclidean_against_oracle():
    rng = np.random.default_rng(9)
    for _ in range(100):
        d = int(rng.integers(2, 6))
        setup = euclidean_simplex(d, blocks=1)
        anchor = rng.dirichlet(np.ones(d))
        center = rng.dirichlet(np.ones(d))
        g = rng.normal(size=d)
        eta = float(rng.uniform(0.05, 4.0))
        got = composite_prox_map(setup, anchor, center, g, eta)
        ref = euclidean_composite_oracle(anchor, center, g, eta)
        np.testing.assert_allclose(got, ref, atol=1e-12)


def test_composite_prox_rejects_negative_eta():
    setup = entropy_simplex(2, blocks=1)
    z = np.array([0.5, 0.5])
    with pytest.raises(ParameterError):
        composite_prox_map(setup, z, z, np.array([0.0, 0.0]), -0.1)


@pytest.mark.parametrize("setup", [entropy_simplex(3), euclidean_simplex(3),
                                   euclidean_ball(3)], ids=lambda s: s.kind.value)
@pytest.mark.parametrize("step", [math.nan, math.inf])
def test_prox_rejects_a_step_that_is_not_finite(setup, step):
    # unrefused, such a step gives an all-NaN point on the entropy simplex
    # and the l2 ball, and a misleading NumericsError on the simplex
    z = uniform_point(setup).concat()
    with pytest.raises(ParameterError, match="finite and positive"):
        prox_map(setup, z, np.ones(z.size), step)


@pytest.mark.parametrize("setup", [entropy_simplex(3), euclidean_simplex(3),
                                   euclidean_ball(3)], ids=lambda s: s.kind.value)
@pytest.mark.parametrize("eta", [math.nan, math.inf])
def test_composite_prox_rejects_an_eta_that_is_not_finite(setup, eta):
    z = uniform_point(setup).concat()
    with pytest.raises(ParameterError, match="finite and >= 0"):
        composite_prox_map(setup, z, z, np.ones(z.size), eta)
    # eta = 0 is the plain prox map at step 1
    assert np.array_equal(composite_prox_map(setup, z, z, np.ones(z.size), 0.0),
                          prox_map(setup, z, np.ones(z.size), 1.0))


def test_composite_prox_optimality_first_order():
    # the output minimizes <g,v> + eta V(v,anchor) + V(v,center): verify the
    # objective at the output beats nearby feasible perturbations
    rng = np.random.default_rng(10)
    setup = entropy_simplex(4, blocks=1)
    anchor = rng.dirichlet(np.ones(4))
    center = rng.dirichlet(np.ones(4))
    g = rng.normal(size=4)
    eta = 0.7

    def obj(v):
        return (
            float(g @ v)
            + eta * bregman_divergence(setup, v, anchor)
            + bregman_divergence(setup, v, center)
        )

    v = composite_prox_map(setup, anchor, center, g, eta)
    base = obj(v)
    for _ in range(50):
        other = rng.dirichlet(np.ones(4))
        mix = 0.99 * v + 0.01 * other
        assert obj(mix) >= base - 1e-12


# ---------------------------------------------------------------------------
# simplex projection, flooring, misc


def test_project_block_simplex_matches_enumeration():
    rng = np.random.default_rng(12)
    for _ in range(200):
        d = int(rng.integers(2, 6))
        v = rng.normal(size=d) * 3
        got = project_block_simplex(v)
        ref = euclidean_projection_oracle(v)
        np.testing.assert_allclose(got, ref, atol=1e-12)
        assert got.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(got >= 0)


def test_simplex_projection_without_threshold_raises():
    # at about 2**53, u0 - (u0 - 1) rounds to 0 and no coordinate passes
    with pytest.raises(NumericsError):
        project_block_simplex(np.array([1e16, 0.0, -1.0]))
    with pytest.raises(NumericsError):
        project_block_simplex(np.array([0.5, np.nan]))
    geom = euclidean_simplex(3, blocks=1)
    with pytest.raises(NumericsError):
        prox_map(geom, uniform_point(geom).concat(), np.array([-1e17, 0.0, 0.0]), 1.0)


def test_floor_simplex_flat_restores_positivity():
    z = np.array([1.0, 0.0, 0.0, 0.0, 0.5, 0.5])
    out = floor_simplex_flat(z, [(0, 3), (3, 6)])
    assert np.all(out > 0)
    assert out[:3].sum() == pytest.approx(1.0, abs=1e-15)
    assert out[3:].sum() == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(out, z, atol=1e-12)


def test_validate_point_shapes_and_domains():
    setup = entropy_simplex(3)
    with pytest.raises(ShapeError):
        validate_point(setup, np.array([0.5, 0.5]))
    ball = euclidean_ball(2, radius=1.0)
    with pytest.raises(DomainError):
        validate_point(ball, np.array([1.0, 1.0]))


@settings(max_examples=200)
@given(st.integers(1, 300), st.integers(0, 2**32 - 1), st.floats(1e-3, 1e3))
def test_ball_membership_gives_np_linalg_norms_verdict(dim, seed, radius):
    # validate_point measures an l2 ball's point as math.sqrt(b @ b), the
    # arithmetic of np.linalg.norm: points a few ulps either side of
    # r + BALL_TOL get the verdict that np.linalg.norm gives them
    setup = euclidean_ball(dim, radius)
    x = np.random.default_rng(seed).normal(size=dim)
    edge = radius + BALL_TOL
    scale = edge / np.linalg.norm(x)
    for k in range(-4, 5):
        b = x * (scale + k * math.ulp(scale))
        if float(np.linalg.norm(b)) > edge:
            with pytest.raises(DomainError):
                validate_point(setup, b)
        else:
            validate_point(setup, b)


def test_setups_with_the_same_blocks_share_one_layout():
    # a restarted run recentres its setup every stage; every setup with
    # the same block_dims shares one immutable layout
    rng = np.random.default_rng(4)
    ball = euclidean_ball(5)
    moved = recenter(ball, random_point(ball, rng), random_point(ball, rng))
    again = recenter(moved, random_point(ball, rng), random_point(ball, rng))
    assert moved is not ball and moved.center is not None
    layout = ball.layout
    for setup in (moved, again, euclidean_ball(5, radius=2.0), a_norm_ball(5)):
        assert setup.layout is layout
    assert entropy_simplex(4).layout is euclidean_simplex(4).layout
    assert entropy_simplex(4).layout is not entropy_simplex(5).layout
    assert layout.bounds == ((0, 5),)
    for array in (layout.starts, layout.block_of):
        with pytest.raises(ValueError):
            array[0] = 1


def test_ball_setups_no_solver_can_run_are_rejected():
    # validate_point and max_divergence_bound measure a ball as one block,
    # and the Euclidean prox projects onto l2 balls only; a radius or p
    # that the setup does not use is refused, not ignored, and so are block
    # sizes no layout can hold
    E, B, A, H = (GeometryKind.EUCLIDEAN_SIMPLEX, GeometryKind.EUCLIDEAN_BALL,
                  GeometryKind.A_NORM_BALL, GeometryKind.ENTROPY_SIMPLEX)
    for kind, dims, radius, p in [
        (B, (3, 3), 1.0, None),
        (B, (4,), 1.0, 3.0),
        (B, (4,), 1.0, 1.0),
        (B, (4,), 1.0, 2.0),
        (A, (3, 3), 1.0, 1.5),
        (A, (6,), 1.0, None),
        (E, (3, 3), 1.0, None),
        (E, (3, 3), None, 2.0),
        (H, (3, 3), 1.0, None),
        (H, (3, 3), None, 1.5),
        (B, (4,), None, None),
        (B, (4,), 0.0, None),
        (B, (4,), -1.0, None),
        (B, (4,), math.inf, None),
        (B, (4,), math.nan, None),
        (A, (6,), math.inf, 1.5),
        # block sizes that are not a non-empty tuple of positive ints
        (H, (3, 0), None, None),
        (H, (3, -1), None, None),
        (H, (), None, None),
        (E, [3, 3], None, None),
        (E, (3, 2.5), None, None),
        (B, (0,), 1.0, None),
    ]:
        with pytest.raises(ParameterError):
            GeometrySetup(kind, dims, radius, p)
    # the setups the solvers run, each rebuilt from its kind, blocks and
    # fields with its facts
    for s, facts in [
        (entropy_simplex(4), (False, False, True)),
        (euclidean_simplex(4), (False, True, False)),
        (euclidean_ball(4, radius=2.0), (True, True, False)),
        (a_norm_ball(6, p=1.0), (True, False, False)),
    ]:
        assert GeometrySetup(s.kind, s.block_dims, radius=s.radius, p=s.p) == s
        assert (s.kind.ball, s.kind.euclidean, s.kind.entropy) == facts
    assert (euclidean_ball(4, radius=2.0).radius, a_norm_ball(6, p=1.0).p) == (2.0, 1.0)
    assert entropy_simplex(4).radius is entropy_simplex(4).p is None


def test_dgf_grad_inverse_roundtrip_a_norm():
    from visim.geometry import _a_norm_grad, _a_norm_grad_inv

    rng = np.random.default_rng(13)
    a = a_norm_exponent(10)
    for _ in range(100):
        x = rng.normal(size=10)
        np.testing.assert_allclose(
            _a_norm_grad_inv(_a_norm_grad(x, a), a), x, atol=1e-9
        )


# ---------------------------------------------------------------------------
# omega, recentering, divergence envelope


def test_omega_values():
    assert omega_d(euclidean_ball(4), np.zeros(4)) == 1.0
    want = 2 * math.log(25) - 1
    assert omega_d(a_norm_ball(25), np.zeros(25)) == pytest.approx(want)
    with pytest.raises(UnboundedOmegaError):
        omega_d(entropy_simplex(4), np.full(8, 0.25))


def test_omega_bounds_divergence_ratio_at_center():
    # 2 V(z, z0) <= omega ||z - z0||^2 with z0 at the DGF center
    rng = np.random.default_rng(14)
    for setup in (euclidean_ball(5), a_norm_ball(12)):
        z0 = uniform_point(setup).concat()
        om = omega_d(setup, z0)
        for _ in range(200):
            z = random_point(setup, rng)
            n2 = primal_norm(setup, z - z0) ** 2
            if n2 < 1e-12:
                continue
            assert 2 * bregman_divergence(setup, z, z0) <= om * n2 * (1 + 1e-9)


def test_recenter_translates_dgf():
    setup = euclidean_ball(3)
    shift = np.array([0.2, -0.1, 0.05])
    origin = np.zeros(3)
    moved = recenter(setup, shift, origin)
    # gradient of the recentered DGF vanishes at the new center
    g = dgf_grad(moved, shift)
    np.testing.assert_allclose(g, 0.0, atol=1e-14)
    # undoing the shift restores a center-free setup
    back = recenter(moved, origin, shift)
    assert back.center is None


def test_recenter_drops_only_an_exactly_zero_center():
    setup = euclidean_ball(3)
    zero, neg_zero = np.zeros(3), np.full(3, -0.0)
    # a centre of -0.0 (-0.0 + -0.0 - 0.0) is exactly zero
    signed = replace(setup, center=np.full(3, -0.0))
    assert recenter(signed, neg_zero, zero).center is None
    # a tiny or a NaN centre is kept
    for value in (1e-300, np.nan):
        kept = recenter(setup, np.array([value, 0.0, 0.0]), zero).center
        assert kept is not None and np.array_equal(kept[1:], [0.0, 0.0])


@pytest.mark.parametrize("kind", ["simplex", "ball", "ball-recentred"])
def test_piece_map_is_the_mirror_map_on_the_piece_of_its_point(kind):
    # theta on the affine piece of u(theta) gets the map's answer and
    # Jacobian; a theta off it gets None: on the simplex, the piece of a
    # point of another support; in the ball, a theta + center beyond the
    # radius, where the map is not affine
    rng = np.random.default_rng(3)
    if kind == "simplex":
        setup = euclidean_simplex(7)
        thetas = rng.normal(size=(3, setup.layout.size))
    else:
        setup = euclidean_ball(7)
        if kind == "ball-recentred":
            setup = recenter(setup, random_point(setup, rng), random_point(setup, rng))
        shift = 0.0 if setup.center is None else setup.center
        unit = rng.normal(size=(3, 7))
        unit /= np.linalg.norm(unit, axis=1)[:, None]
        thetas = unit * np.array([[0.5], [0.999], [3.0]]) - shift
    for theta in thetas:
        u, diag, rank_one = mirror_map_flat(setup, theta)
        if kind != "simplex" and rank_one[0][0]:
            assert piece_map(setup, u, theta) is None
            continue
        got, got_diag, got_rank_one = piece_map(setup, u, theta)
        assert np.allclose(got, u, rtol=0.0, atol=1e-15)
        assert np.array_equal(got_diag, diag)
        assert [b for b, _ in got_rank_one] == [b for b, _ in rank_one]
        for (_, v), (_, ref) in zip(got_rank_one, rank_one):
            assert np.array_equal(v, ref)
        if kind == "simplex":
            other = np.concatenate([np.roll(b, 1) for b in np.split(u, 2)])
            assert (other > 0).tolist() != (u > 0).tolist()
            assert piece_map(setup, other, theta) is None


def _reference_ball_map(setup, theta):
    """The l2 ball's mirror map written out: x = theta + center in a fresh
    array, its norm by np.linalg.norm, D = I inside and (r/n)(I - x x^T /
    n^2) outside, every term a fresh array."""
    x = theta.copy() if setup.center is None else theta + setup.center
    n, r = float(np.linalg.norm(x)), setup.radius
    if n <= r:
        return x, np.ones_like(x), 0.0, np.zeros_like(x)
    return x * (r / n), np.full_like(x, r / n), r / n, x / n


@settings(max_examples=200)
@given(st.tuples(
    st.booleans(),
    st.integers(1, 300),
    st.integers(0, 2**32 - 1),
    st.floats(1e-3, 1e3),
    st.one_of(st.floats(0.0, 3.0), st.just(1.0)),
))
def test_piece_map_has_the_mirror_maps_bits_inside_the_ball(args):
    # inside, on and outside the sphere of a plain or recentred ball,
    # mirror_map_flat gives the written-out map's bits, and piece_map gives
    # them inside and None outside; depth 1 puts theta + center within
    # round-off of the sphere, on either side
    recentred, dim, seed, radius, depth = args
    rng = np.random.default_rng(seed)
    setup = euclidean_ball(dim, radius)
    if recentred:
        setup = recenter(setup, random_point(setup, rng), random_point(setup, rng))
    x = rng.normal(size=dim)
    x *= depth * radius / np.linalg.norm(x)
    theta = x if setup.center is None else x - setup.center
    want_u, want_diag, want_beta, want_v = _reference_ball_map(setup, theta)
    u, diag, ((beta, v),) = mirror_map_flat(setup, theta)
    assert np.array_equal(u, want_u) and np.array_equal(diag, want_diag)
    assert beta == want_beta and np.array_equal(v, want_v)
    mapped = piece_map(setup, random_point(setup, rng), theta)
    if want_beta:
        assert mapped is None
        return
    if setup.center is None:
        assert u is theta  # the unshifted interior map is the identity
    got, got_diag, ((got_beta, got_v),) = mapped
    assert np.array_equal(got, want_u) and np.array_equal(got_diag, want_diag)
    assert got_beta == 0.0 and np.array_equal(got_v, want_v)


@settings(max_examples=200)
@given(st.tuples(
    st.sampled_from(["simplex", "ball", "ball-recentred"]),
    st.lists(st.integers(1, 40), min_size=1, max_size=4),
    st.integers(0, 2**32 - 1),
    st.one_of(st.floats(1e-3, 1e3), st.just(1.0)),
))
def test_project_gives_the_per_block_projections_bits(args):
    # the one Euclidean projection, in place on the concatenated vector,
    # against the projection block by block: sort-threshold per simplex
    # block of an uneven product, or the radial map by np.linalg.norm onto
    # a plain or recentred ball (the centre moves the DGF, not the ball);
    # a ball's v lies at `scale` times the radius, within round-off of the
    # sphere at scale 1
    kind, dims, seed, scale = args
    rng = np.random.default_rng(seed)
    if kind == "simplex":
        setup = GeometrySetup(GeometryKind.EUCLIDEAN_SIMPLEX, tuple(dims))
    else:
        setup = euclidean_ball(sum(dims), radius=float(rng.uniform(0.1, 3.0)))
        if kind == "ball-recentred":
            setup = recenter(setup, random_point(setup, rng),
                             random_point(setup, rng))
    v = rng.normal(size=setup.layout.size)
    v *= scale if kind == "simplex" else scale * setup.radius / np.linalg.norm(v)
    want = []
    for lo, hi in setup.layout.bounds:
        b = v[lo:hi].copy()
        if kind == "simplex":
            want.append(project_block_simplex(b))
        else:
            n, r = float(np.linalg.norm(b)), setup.radius
            want.append(b if n <= r else b * (r / n))
    fresh = v.copy()
    got = _project(setup, fresh)
    assert got is fresh and np.array_equal(got, np.concatenate(want))


@settings(max_examples=200)
@given(st.integers(3, 300), st.integers(0, 2**32 - 1), st.floats(1e-3, 1e3))
def test_lp_norm_gives_the_bits_of_the_expressions_it_replaced(dim, seed, scale):
    # p = 2 takes math.sqrt(x @ x), np.linalg.norm's arithmetic; p = 1, a
    # and a/(a-1) the power sum; p = inf the largest |x_i|
    x = np.random.default_rng(seed).normal(size=dim) * scale
    a = a_norm_exponent(dim)
    assert _lp_norm(x, 2.0) == float(np.linalg.norm(x))
    for p in (1.0, a, a / (a - 1.0)):
        assert _lp_norm(x, p) == float(np.sum(np.abs(x) ** p) ** (1.0 / p))
    assert _lp_norm(x, 1.0) == float(np.abs(x).sum())
    assert _lp_norm(x, math.inf) == float(np.abs(x).max())
    assert _lp_norm(np.zeros(0), math.inf) == 0.0


def test_piece_map_shares_a_read_only_identity_jacobian_inside_the_ball():
    # inside the ball D = I: every call of a size returns the same
    # read-only diag and rank-one term, which no caller can write
    setup = euclidean_ball(4)
    z = np.zeros(4)
    _, diag, ((beta, v),) = piece_map(setup, z, np.full(4, 0.1))
    _, again, ((_, v_again),) = piece_map(setup, z, np.full(4, -0.2))
    assert diag is again and v is v_again and beta == 0.0
    assert np.array_equal(diag, np.ones(4)) and np.array_equal(v, np.zeros(4))
    for array in (diag, v):
        with pytest.raises(ValueError):
            array[0] = 2.0


def test_recenter_checks_both_points_against_the_balls_block():
    # a point of another size neither broadcasts into the centre nor
    # reaches numpy's own shape error
    setup = euclidean_ball(3)
    origin = np.zeros(3)
    for wrong in (np.array([0.5]), np.array([0.1, 0.2, 0.3, 0.4])):
        with pytest.raises(ShapeError):
            recenter(setup, wrong, origin)
        with pytest.raises(ShapeError):
            recenter(setup, origin, wrong)


def test_a_centre_is_one_array_of_the_balls_size():
    ball = euclidean_ball(3)
    for centre in ((np.full(3, 0.1),), np.full(4, 0.1), np.full((1, 3), 0.1)):
        with pytest.raises(ShapeError):
            replace(ball, center=centre)
    for simplex in (euclidean_simplex(3), entropy_simplex(3)):
        with pytest.raises(ParameterError):
            replace(simplex, center=np.full(6, 0.1))
    moved = replace(ball, center=np.full(3, 0.1))
    assert dgf_value(moved, np.array([0.1, 0.1, 0.1])) == 0.0


def test_recenter_rejected_on_simplex():
    setup = entropy_simplex(3)
    z = uniform_point(setup).concat()
    with pytest.raises(UnsupportedRecenterError):
        recenter(setup, z, z)


def test_recentered_dgf_keeps_strong_convexity():
    rng = np.random.default_rng(15)
    setup = recenter(euclidean_ball(4), np.array([0.3, 0, 0, 0]), np.zeros(4))
    for _ in range(100):
        u = random_point(setup, rng)
        v = random_point(setup, rng)
        assert bregman_divergence(setup, u, v) >= (
            0.5 * primal_norm(setup, u - v) ** 2 - 1e-12
        )


def test_max_divergence_bound_accepts_floored_start():
    setup = entropy_simplex(3)
    z0 = np.array([1.0 - 2e-300, 1e-300, 1e-300, 0.2, 0.3, 0.5])
    bound = max_divergence_bound(setup, z0)
    assert bound == pytest.approx(-math.log(1e-300) - math.log(0.2))
    vertex = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 0.0])
    assert bregman_divergence(setup, vertex, z0) <= bound


def test_max_divergence_bound_entropy():
    setup = entropy_simplex(25)
    z0 = uniform_point(setup).concat()
    assert max_divergence_bound(setup, z0) == pytest.approx(2 * math.log(25))
    rng = np.random.default_rng(16)
    for _ in range(200):
        z = random_point(setup, rng)
        assert bregman_divergence(setup, z, z0) <= max_divergence_bound(setup, z0)
