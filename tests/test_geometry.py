import math

import numpy as np
import pytest

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
    DualVector,
    GeometryKind,
    Point,
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
    floor_simplex_point,
    max_divergence_bound,
    omega_d,
    primal_norm,
    project_block_simplex,
    prox_map,
    random_point,
    recenter,
    uniform_point,
    validate_point,
)

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
    z = Point.of([0.5, 0.5])
    assert dgf_value(setup, z) == pytest.approx(-math.log(2), abs=1e-14)


def test_dgf_entropy_vertex_is_zero():
    setup = entropy_simplex(4, blocks=1)
    z = Point.of([1.0, 0.0, 0.0, 0.0])
    assert dgf_value(setup, z) == 0.0


def test_dgf_euclidean_norm_two():
    setup = euclidean_ball(3, radius=2.0)
    z = Point.of([2.0, 0.0, 0.0])
    assert dgf_value(setup, z) == pytest.approx(2.0, abs=1e-14)


def test_dgf_rejects_domain_violation():
    setup = entropy_simplex(2, blocks=1)
    with pytest.raises(DomainError):
        dgf_value(setup, Point.of([0.7, 0.7]))


def test_a_norm_dgf_value():
    setup = a_norm_ball(5)
    a = setup.a
    z = np.array([0.3, -0.2, 0.1, 0.0, 0.05])
    want = np.sum(np.abs(z) ** a) ** (2 / a) / (2 * (a - 1))
    assert dgf_value(setup, Point.of(z)) == pytest.approx(want, rel=1e-12)


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
    u = Point.of([1.0, 0.0])
    v = Point.of([0.5, 0.5])
    assert bregman_divergence(setup, u, v) == pytest.approx(math.log(2), abs=1e-14)


def test_divergence_euclidean_half_norm():
    setup = euclidean_ball(2, radius=5.0)
    u = Point.of([1.0, 0.0])
    v = Point.of([0.0, 0.0])
    assert bregman_divergence(setup, u, v) == pytest.approx(0.5, abs=1e-15)


def test_divergence_infinite_off_support():
    setup = entropy_simplex(3, blocks=1)
    u = Point.of([0.5, 0.5, 0.0])
    v = Point.of([1.0, 0.0, 0.0])
    with pytest.raises(DivergenceInfinite):
        bregman_divergence(setup, u, v)


def test_divergence_finite_at_floored_mass():
    # a coordinate floored at 1e-300 is interior: KL stays finite and equals
    # the direct sum even where u holds more mass than v
    setup = entropy_simplex(3, blocks=1)
    u = np.array([0.5 - 1e-12, 0.5, 1e-12])
    v = np.array([0.5, 0.5 - 1e-300, 1e-300])
    got = bregman_divergence(setup, Point.of(u), Point.of(v))
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
                v = Point(tuple(0.9 * b + 0.1 / b.size for b in v.blocks))
            diff = Point(tuple(a - b for a, b in zip(u.blocks, v.blocks)))
            lhs = bregman_divergence(setup, u, v)
            rhs = 0.5 * primal_norm(setup, diff) ** 2
            assert lhs >= rhs - 1e-10, f"{setup.kind}: {lhs} < {rhs}"


def test_dual_primal_norm_pairing():
    # |<g, z>| <= ||g||_* ||z|| for every geometry (Cauchy-Schwarz in the
    # declared pairing)
    rng = np.random.default_rng(11)
    for setup in (entropy_simplex(6), euclidean_simplex(6), a_norm_ball(9)):
        for _ in range(100):
            u = random_point(setup, rng)
            v = random_point(setup, rng)
            diff = Point(tuple(a - b for a, b in zip(u.blocks, v.blocks)))
            g = DualVector(tuple(rng.normal(size=b.size) for b in u.blocks))
            inner = sum(float(gb @ db) for gb, db in zip(g.blocks, diff.blocks))
            assert abs(inner) <= dual_norm(setup, g) * primal_norm(setup, diff) + 1e-12


# ---------------------------------------------------------------------------
# plain prox map


def test_prox_zero_gradient_is_fixed_point():
    setup = entropy_simplex(4)
    z = uniform_point(setup)
    g = DualVector(tuple(np.zeros(4) for _ in range(2)))
    out = prox_map(setup, z, g, 1.0)
    for a, b in zip(out.blocks, z.blocks):
        np.testing.assert_allclose(a, b, atol=1e-15)


def test_prox_entropy_derived_example():
    # center (1/2,1/2), g = (log 2, 0), step 1: x_j propto exp(-g_j)/2
    setup = entropy_simplex(2, blocks=1)
    out = prox_map(
        setup, Point.of([0.5, 0.5]), DualVector.of([math.log(2), 0.0]), 1.0
    )
    np.testing.assert_allclose(out.blocks[0], [1 / 3, 2 / 3], atol=1e-14)


def test_prox_euclidean_interior_example():
    setup = euclidean_ball(2, radius=1.0)
    out = prox_map(setup, Point.of([0.0, 0.0]), DualVector.of([-1.0, 0.0]), 0.5)
    np.testing.assert_allclose(out.blocks[0], [0.5, 0.0], atol=1e-14)


def test_prox_rejects_bad_args():
    setup = entropy_simplex(2, blocks=1)
    z = Point.of([0.5, 0.5])
    with pytest.raises(ParameterError):
        prox_map(setup, z, DualVector.of([0.0, 0.0]), 0.0)
    with pytest.raises(NumericsError):
        prox_map(setup, z, DualVector.of([np.inf, 0.0]), 1.0)
    with pytest.raises(DomainError):
        prox_map(setup, Point.of([1.0, 0.0]), DualVector.of([0.0, 0.0]), 1.0)


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
        got = prox_map(setup, Point.of(center), DualVector.of(g), step)
        ref = entropy_prox_oracle(center, g, step)
        worst = max(worst, float(np.abs(got.blocks[0] - ref).max()))
    assert worst < 1e-10, worst


def test_prox_euclidean_simplex_against_projection_oracle():
    rng = np.random.default_rng(4)
    for _ in range(100):
        d = int(rng.integers(2, 6))
        setup = euclidean_simplex(d, blocks=1)
        center = rng.dirichlet(np.ones(d))
        g = rng.normal(size=d)
        step = float(rng.uniform(0.1, 2.0))
        got = prox_map(setup, Point.of(center), DualVector.of(g), step)
        ref = euclidean_projection_oracle(center - step * g)
        np.testing.assert_allclose(got.blocks[0], ref, atol=1e-12)


def test_prox_a_norm_stays_in_ball_and_beats_oracle():
    from oracles import ball_prox_oracle

    rng = np.random.default_rng(5)
    setup = a_norm_ball(6)
    a = setup.a
    for _ in range(15):
        center = random_point(setup, rng)
        g = DualVector.of(rng.normal(size=6))
        step = float(rng.uniform(0.2, 1.5))
        got = prox_map(setup, center, g, step)
        validate_point(setup, got)
        ref = ball_prox_oracle(center.blocks[0], g.blocks[0], step, a, a, 1.0)
        np.testing.assert_allclose(got.blocks[0], ref, atol=2e-5)


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
    g = DualVector.of(-10.0 * np.eye(setup.block_dims[0])[0])
    return prox_map(setup, uniform_point(setup), g, 1.0)


def test_ball_fallback_rescales_round_off_onto_the_sphere(monkeypatch):
    setup = a_norm_ball(6, p=1.0)
    x = np.array([0.25, 0.75, 0.0, 0.0, 0.0, 0.0]) * (1.0 + 2.3e-12)
    calls = _slsqp_returning(monkeypatch, x)
    got = _fallback_prox(setup)
    assert len(calls) == 1
    validate_point(setup, got)
    assert abs(np.abs(got.blocks[0]).sum() - 1.0) <= 1e-15
    np.testing.assert_allclose(got.blocks[0], [0.25, 0.75, 0, 0, 0, 0], rtol=1e-11)


def test_ball_fallback_keeps_a_feasible_point_despite_failure_flag(monkeypatch):
    setup = a_norm_ball(6, p=1.0)
    x = np.array([0.3, 0.3, 0.3, 0.0, 0.0, 0.0])
    calls = _slsqp_returning(monkeypatch, x)
    got = _fallback_prox(setup)
    assert len(calls) == 1
    np.testing.assert_array_equal(got.blocks[0], x)


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
    anchor = Point.of(rng.dirichlet(np.ones(3)))
    center = Point.of(rng.dirichlet(np.ones(3)))
    g = DualVector.of(rng.normal(size=3))
    a = composite_prox_map(setup, anchor, center, g, 0.0)
    b = prox_map(setup, center, g, 1.0)
    np.testing.assert_allclose(a.blocks[0], b.blocks[0], atol=1e-14)


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
        got = composite_prox_map(
            setup, Point.of(anchor), Point.of(center), DualVector.of(g), eta
        )
        ref = entropy_composite_oracle(anchor, center, g, eta)
        worst = max(worst, float(np.abs(got.blocks[0] - ref).max()))
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
        got = composite_prox_map(
            setup, Point.of(anchor), Point.of(center), DualVector.of(g), eta
        )
        ref = euclidean_composite_oracle(anchor, center, g, eta)
        np.testing.assert_allclose(got.blocks[0], ref, atol=1e-12)


def test_composite_prox_rejects_negative_eta():
    setup = entropy_simplex(2, blocks=1)
    z = Point.of([0.5, 0.5])
    with pytest.raises(ParameterError):
        composite_prox_map(setup, z, z, DualVector.of([0.0, 0.0]), -0.1)


def test_composite_prox_optimality_first_order():
    # the output minimizes <g,v> + eta V(v,anchor) + V(v,center): verify the
    # objective at the output beats nearby feasible perturbations
    rng = np.random.default_rng(10)
    setup = entropy_simplex(4, blocks=1)
    anchor = Point.of(rng.dirichlet(np.ones(4)))
    center = Point.of(rng.dirichlet(np.ones(4)))
    g = DualVector.of(rng.normal(size=4))
    eta = 0.7

    def obj(v):
        return (
            float(g.blocks[0] @ v.blocks[0])
            + eta * bregman_divergence(setup, v, anchor)
            + bregman_divergence(setup, v, center)
        )

    v = composite_prox_map(setup, anchor, center, g, eta)
    base = obj(v)
    for _ in range(50):
        other = Point.of(rng.dirichlet(np.ones(4)))
        mix = Point.of(0.99 * v.blocks[0] + 0.01 * other.blocks[0])
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


def test_floor_simplex_point_restores_positivity():
    z = Point.of([1.0, 0.0, 0.0])
    out = floor_simplex_point(z)
    assert np.all(out.blocks[0] > 0)
    assert out.blocks[0].sum() == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(out.blocks[0], z.blocks[0], atol=1e-12)


def test_validate_point_shapes_and_domains():
    setup = entropy_simplex(3)
    with pytest.raises(ShapeError):
        validate_point(setup, Point.of([0.5, 0.5]))
    ball = euclidean_ball(2, radius=1.0)
    with pytest.raises(DomainError):
        validate_point(ball, Point.of([1.0, 1.0]))


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
    assert omega_d(euclidean_ball(4), uniform_point(euclidean_ball(4))) == 1.0
    setup = a_norm_ball(25)
    want = 2 * math.log(25) - 1
    assert omega_d(setup, uniform_point(setup)) == pytest.approx(want)
    with pytest.raises(UnboundedOmegaError):
        omega_d(entropy_simplex(4), uniform_point(entropy_simplex(4)))


def test_omega_bounds_divergence_ratio_at_center():
    # 2 V(z, z0) <= omega ||z - z0||^2 with z0 at the DGF center
    rng = np.random.default_rng(14)
    for setup in (euclidean_ball(5), a_norm_ball(12)):
        z0 = uniform_point(setup)
        om = omega_d(setup, z0)
        for _ in range(200):
            z = random_point(setup, rng)
            diff = Point.of(z.blocks[0] - z0.blocks[0])
            n2 = primal_norm(setup, diff) ** 2
            if n2 < 1e-12:
                continue
            assert 2 * bregman_divergence(setup, z, z0) <= om * n2 * (1 + 1e-9)


def test_recenter_translates_dgf():
    setup = euclidean_ball(3)
    shift = Point.of([0.2, -0.1, 0.05])
    origin = uniform_point(setup)
    moved = recenter(setup, shift, origin)
    # gradient of the recentered DGF vanishes at the new center
    g = dgf_grad(moved, shift)
    np.testing.assert_allclose(g.blocks[0], 0.0, atol=1e-14)
    # undoing the shift restores a center-free setup
    back = recenter(moved, origin, shift)
    assert back.center is None


def test_recenter_rejected_on_simplex():
    setup = entropy_simplex(3)
    z = uniform_point(setup)
    with pytest.raises(UnsupportedRecenterError):
        recenter(setup, z, z)


def test_recentered_dgf_keeps_strong_convexity():
    rng = np.random.default_rng(15)
    setup = recenter(euclidean_ball(4), Point.of([0.3, 0, 0, 0]),
                     uniform_point(euclidean_ball(4)))
    for _ in range(100):
        u = random_point(setup, rng)
        v = random_point(setup, rng)
        diff = Point.of(u.blocks[0] - v.blocks[0])
        assert bregman_divergence(setup, u, v) >= (
            0.5 * primal_norm(setup, diff) ** 2 - 1e-12
        )


def test_max_divergence_bound_accepts_floored_start():
    setup = entropy_simplex(3)
    z0 = Point.of([1.0 - 2e-300, 1e-300, 1e-300], [0.2, 0.3, 0.5])
    bound = max_divergence_bound(setup, z0)
    assert bound == pytest.approx(-math.log(1e-300) - math.log(0.2))
    vertex = Point.of([0.0, 1.0, 0.0], [1.0, 0.0, 0.0])
    assert bregman_divergence(setup, vertex, z0) <= bound


def test_max_divergence_bound_entropy():
    setup = entropy_simplex(25)
    z0 = uniform_point(setup)
    assert max_divergence_bound(setup, z0) == pytest.approx(2 * math.log(25))
    rng = np.random.default_rng(16)
    for _ in range(200):
        z = random_point(setup, rng)
        assert bregman_divergence(setup, z, z0) <= max_divergence_bound(setup, z0)
