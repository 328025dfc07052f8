"""Distance generating functions, Bregman divergences and proximal maps.

Three setups are supported:

* ``ENTROPY_SIMPLEX`` -- negative entropy on a product of probability
  simplices.  The Bregman divergence is the (blockwise) KL divergence and
  both proximal maps have closed multiplicative forms.
* ``EUCLIDEAN`` -- half squared l2 norm, on either a simplex product
  (projection-based prox) or an l2 ball.
* ``A_NORM_BALL`` -- the scaled squared a-norm ``||z||_a^2 / (2(a-1))``
  with ``a = 2 ln d / (2 ln d - 1)`` (natural log), on an lp ball.

Every DGF here is 1-strongly convex in the setup's declared norm, so
``V(u, v) >= 0.5 * ||u - v||^2`` holds throughout.  The declared norm of
the a-norm setup is the a-norm itself (the exact strong-convexity norm);
block norms combine as the l2 sum of squares.

All operations are pure; setups and points are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import (
    DivergenceInfinite,
    DomainError,
    NumericsError,
    ParameterError,
    ShapeError,
    UnboundedOmegaError,
    UnsupportedRecenterError,
)

SIMPLEX_SUM_TOL = 1e-12
BALL_TOL = 1e-12
# relative overshoot of the ball's sphere that the SLSQP fallback of the
# ball prox may leave as round-off; it is rescaled onto the sphere
SLSQP_OVERSHOOT_TOL = 1e-9


class GeometryKind(Enum):
    EUCLIDEAN = "euclidean"
    ENTROPY_SIMPLEX = "entropy_simplex"
    A_NORM_BALL = "a_norm_ball"


class DomainKind(Enum):
    SIMPLEX_PRODUCT = "simplex_product"
    NORM_BALL = "norm_ball"


@dataclass(frozen=True)
class Domain:
    kind: DomainKind
    p: float = 2.0
    radius: float = 1.0


@dataclass(frozen=True)
class Point:
    """An element of the feasible set: a tuple of coordinate blocks."""

    blocks: tuple[np.ndarray, ...]

    @staticmethod
    def of(*blocks) -> "Point":
        return Point(tuple(np.asarray(b, dtype=float) for b in blocks))

    @property
    def dim(self) -> int:
        return sum(b.size for b in self.blocks)

    def concat(self) -> np.ndarray:
        return np.concatenate(self.blocks)


@dataclass(frozen=True)
class DualVector:
    """A dual-space vector with the same block layout as a Point."""

    blocks: tuple[np.ndarray, ...]

    @staticmethod
    def of(*blocks) -> "DualVector":
        return DualVector(tuple(np.asarray(b, dtype=float) for b in blocks))

    def concat(self) -> np.ndarray:
        return np.concatenate(self.blocks)


def check_same_shape(u: Point | DualVector, v: Point | DualVector) -> None:
    if len(u.blocks) != len(v.blocks) or any(
        a.shape != b.shape for a, b in zip(u.blocks, v.blocks)
    ):
        raise ShapeError("block layouts differ")


def pairing(g: DualVector, z: Point) -> float:
    """Dual pairing <g, z> summed over blocks."""
    check_same_shape(g, z)
    return float(sum(gb @ zb for gb, zb in zip(g.blocks, z.blocks)))


def a_norm_exponent(dim: int) -> float:
    """a = 2 ln d / (2 ln d - 1), natural log; requires d >= 3."""
    if dim < 3:
        raise ParameterError("a-norm setup needs dimension >= 3")
    ld = math.log(dim)
    return 2.0 * ld / (2.0 * ld - 1.0)


@dataclass(frozen=True)
class GeometrySetup:
    """A DGF + norm + domain configuration.

    ``center`` is the translation of the DGF (ball setups only): the
    effective DGF is ``w_base(z - center)``.  ``None`` means no shift.
    """

    kind: GeometryKind
    block_dims: tuple[int, ...]
    domain: Domain
    center: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        if self.kind is GeometryKind.ENTROPY_SIMPLEX:
            if self.domain.kind is not DomainKind.SIMPLEX_PRODUCT:
                raise ParameterError("entropy DGF requires a simplex-product domain")
            if self.center is not None:
                raise ParameterError("entropy DGF cannot be translated")
        if self.kind is GeometryKind.A_NORM_BALL:
            if self.domain.kind is not DomainKind.NORM_BALL:
                raise ParameterError("a-norm DGF requires a ball domain")
            if len(self.block_dims) != 1:
                raise ParameterError("ball setups use a single block")
            if not (1.0 <= self.domain.p <= self.a + 1e-12):
                raise ParameterError(
                    f"ball norm p={self.domain.p} outside [1, a={self.a:.6f}] "
                    "for the a-norm DGF"
                )

    @property
    def a(self) -> float:
        return a_norm_exponent(sum(self.block_dims))

    def shift(self, i: int) -> np.ndarray | None:
        return None if self.center is None else self.center[i]


def entropy_simplex(d: int, blocks: int = 2) -> GeometrySetup:
    return GeometrySetup(
        GeometryKind.ENTROPY_SIMPLEX,
        (d,) * blocks,
        Domain(DomainKind.SIMPLEX_PRODUCT),
    )


def euclidean_simplex(d: int, blocks: int = 2) -> GeometrySetup:
    return GeometrySetup(
        GeometryKind.EUCLIDEAN, (d,) * blocks, Domain(DomainKind.SIMPLEX_PRODUCT)
    )


def euclidean_ball(dim: int, radius: float = 1.0) -> GeometrySetup:
    return GeometrySetup(
        GeometryKind.EUCLIDEAN, (dim,), Domain(DomainKind.NORM_BALL, 2.0, radius)
    )


def a_norm_ball(dim: int, radius: float = 1.0, p: float | None = None) -> GeometrySetup:
    if p is None:
        p = a_norm_exponent(dim)
    return GeometrySetup(
        GeometryKind.A_NORM_BALL, (dim,), Domain(DomainKind.NORM_BALL, p, radius)
    )


# ---------------------------------------------------------------------------
# norms


def _block_norm(setup: GeometrySetup, b: np.ndarray) -> float:
    if setup.kind is GeometryKind.ENTROPY_SIMPLEX:
        return float(np.abs(b).sum())
    if setup.kind is GeometryKind.EUCLIDEAN:
        return float(np.linalg.norm(b))
    return float(np.sum(np.abs(b) ** setup.a) ** (1.0 / setup.a))


def primal_norm(setup: GeometrySetup, diff: Point) -> float:
    """The setup's declared norm of a difference of points."""
    return math.sqrt(sum(_block_norm(setup, b) ** 2 for b in diff.blocks))


def dual_norm(setup: GeometrySetup, g: DualVector) -> float:
    """Dual of :func:`primal_norm` (blockwise dual norms, l2-combined)."""
    vals = []
    for b in g.blocks:
        if setup.kind is GeometryKind.ENTROPY_SIMPLEX:
            vals.append(float(np.abs(b).max()) if b.size else 0.0)
        elif setup.kind is GeometryKind.EUCLIDEAN:
            vals.append(float(np.linalg.norm(b)))
        else:
            a = setup.a
            q = a / (a - 1.0)
            vals.append(float(np.sum(np.abs(b) ** q) ** (1.0 / q)))
    return math.sqrt(sum(v * v for v in vals))


# ---------------------------------------------------------------------------
# domain handling


def validate_point(setup: GeometrySetup, z: Point) -> None:
    if tuple(b.size for b in z.blocks) != setup.block_dims:
        raise ShapeError(
            f"point blocks {tuple(b.size for b in z.blocks)} "
            f"!= setup blocks {setup.block_dims}"
        )
    for b in z.blocks:
        if not np.all(np.isfinite(b)):
            raise NumericsError("non-finite point coordinates")
    if setup.domain.kind is DomainKind.SIMPLEX_PRODUCT:
        for b in z.blocks:
            if np.any(b < -SIMPLEX_SUM_TOL) or abs(b.sum() - 1.0) > SIMPLEX_SUM_TOL:
                raise DomainError("block is not on the probability simplex")
    else:
        p, r = setup.domain.p, setup.domain.radius
        n = float(np.sum(np.abs(z.blocks[0]) ** p) ** (1.0 / p))
        if n > r + BALL_TOL:
            raise DomainError(f"||z||_{p} = {n} exceeds radius {r}")


def uniform_point(setup: GeometrySetup) -> Point:
    """Uniform distributions on simplex domains, the origin on balls."""
    if setup.domain.kind is DomainKind.SIMPLEX_PRODUCT:
        return Point.of(*(np.full(d, 1.0 / d) for d in setup.block_dims))
    return Point.of(np.zeros(setup.block_dims[0]))


def random_point(setup: GeometrySetup, rng: np.random.Generator) -> Point:
    """A random feasible point: Dirichlet(1,..,1) per simplex block, or a
    near-uniform draw from the ball."""
    if setup.domain.kind is DomainKind.SIMPLEX_PRODUCT:
        return Point.of(*(rng.dirichlet(np.ones(d)) for d in setup.block_dims))
    dim = setup.block_dims[0]
    p, r = setup.domain.p, setup.domain.radius
    y = rng.standard_normal(dim)
    scale = r * rng.uniform() ** (1.0 / dim)
    n = np.sum(np.abs(y) ** p) ** (1.0 / p)
    return Point.of(y * (scale / n))


TINY_MASS = 1e-300


def has_mass(b: np.ndarray) -> np.ndarray:
    """The entropy boundary rule: a simplex coordinate carries mass iff it
    is > 0.

    Only exact zeros (and the round-off negatives :func:`validate_point`
    tolerates) lie off the support; every positive float, however tiny,
    is interior.  Iterates floored at ``TINY_MASS`` therefore have finite
    DGF gradients and finite divergences to every point.
    """
    return b > 0.0


def floor_simplex_point(z: Point, floor: float = TINY_MASS) -> Point:
    """Clamp simplex blocks away from exact zero and renormalize.

    Long entropic runs drive losing coordinates toward the boundary
    geometrically, eventually underflowing float64 to exact 0, which the
    log-space updates cannot represent.  Flooring at 1e-300 keeps the
    dynamics intact (the perturbation is ~1e-300 per coordinate) while
    keeping every iterate strictly positive, hence interior under
    :func:`has_mass`.
    """
    out = []
    for b in z.blocks:
        nb = np.maximum(b, floor)
        out.append(nb / nb.sum())
    return Point(tuple(out))


def project_block_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex.

    Sort-and-threshold; ties broken deterministically by index through the
    stable descending sort.
    """
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    cond = u - css / idx > 0
    rho = int(np.nonzero(cond)[0][-1])
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _project_domain_block(setup: GeometrySetup, b: np.ndarray) -> np.ndarray:
    if setup.domain.kind is DomainKind.SIMPLEX_PRODUCT:
        return project_block_simplex(b)
    p, r = setup.domain.p, setup.domain.radius
    if p != 2.0:
        raise ParameterError("Euclidean projection is only available for l2 balls")
    n = float(np.linalg.norm(b))
    return b if n <= r else b * (r / n)


# ---------------------------------------------------------------------------
# DGF values and gradients


def _entropy_block_value(b: np.ndarray) -> float:
    # 0 log 0 = 0 convention on the coordinates without mass
    mask = has_mass(b)
    return float(np.sum(b[mask] * np.log(b[mask])))


def dgf_value(setup: GeometrySetup, z: Point) -> float:
    """w(z) for the setup's distance generating function."""
    validate_point(setup, z)
    if setup.kind is GeometryKind.ENTROPY_SIMPLEX:
        return sum(_entropy_block_value(b) for b in z.blocks)
    total = 0.0
    for i, b in enumerate(z.blocks):
        s = setup.shift(i)
        x = b if s is None else b - s
        if setup.kind is GeometryKind.EUCLIDEAN:
            total += 0.5 * float(x @ x)
        else:
            a = setup.a
            total += float(np.sum(np.abs(x) ** a) ** (2.0 / a)) / (2.0 * (a - 1.0))
    return total


def _a_norm_grad(x: np.ndarray, a: float) -> np.ndarray:
    # grad of ||x||_a^2 / (2(a-1)); zero at the origin
    na = float(np.sum(np.abs(x) ** a) ** (1.0 / a))
    if na == 0.0:
        return np.zeros_like(x)
    return np.sign(x) * np.abs(x) ** (a - 1.0) * na ** (2.0 - a) / (a - 1.0)


def _a_norm_grad_inv(s: np.ndarray, a: float) -> np.ndarray:
    # inverse of _a_norm_grad: (a-1) * sign(s)|s|^{q-1} ||s||_q^{2-q}, q = a/(a-1)
    q = a / (a - 1.0)
    nq = float(np.sum(np.abs(s) ** q) ** (1.0 / q))
    if nq == 0.0:
        return np.zeros_like(s)
    return (a - 1.0) * np.sign(s) * np.abs(s) ** (q - 1.0) * nq ** (2.0 - q)


def dgf_grad(setup: GeometrySetup, z: Point) -> DualVector:
    """The gradient of the DGF (defined on the domain's relative interior
    for entropy)."""
    out = []
    for i, b in enumerate(z.blocks):
        if setup.kind is GeometryKind.ENTROPY_SIMPLEX:
            if not np.all(has_mass(b)):
                raise DomainError("entropy gradient needs strictly positive mass")
            out.append(np.log(b) + 1.0)
        else:
            s = setup.shift(i)
            x = b if s is None else b - s
            if setup.kind is GeometryKind.EUCLIDEAN:
                out.append(x)
            else:
                out.append(_a_norm_grad(x, setup.a))
    return DualVector(tuple(out))


def bregman_divergence(setup: GeometrySetup, u: Point, v: Point) -> float:
    """V(u, v) = w(u) - w(v) - <grad w(v), u - v>.

    Entropy: the blockwise KL divergence, finite whenever v carries mass
    (see :func:`has_mass`) wherever u does; raises
    :class:`DivergenceInfinite` otherwise.
    """
    check_same_shape(u, v)
    if setup.kind is GeometryKind.ENTROPY_SIMPLEX:
        total = 0.0
        for ub, vb in zip(u.blocks, v.blocks):
            mask = has_mass(ub)
            if np.any(mask & ~has_mass(vb)):
                raise DivergenceInfinite(
                    "u puts mass where the reference point v has none"
                )
            total += float(np.sum(ub[mask] * (np.log(ub[mask]) - np.log(vb[mask]))))
        return max(total, 0.0)
    if setup.kind is GeometryKind.EUCLIDEAN:
        return sum(
            0.5 * float((ub - vb) @ (ub - vb)) for ub, vb in zip(u.blocks, v.blocks)
        )
    gv = dgf_grad(setup, v)
    val = dgf_value(setup, u) - dgf_value(setup, v)
    val -= sum(float(g @ (ub - vb)) for g, ub, vb in zip(gv.blocks, u.blocks, v.blocks))
    return max(val, 0.0)


# ---------------------------------------------------------------------------
# proximal maps


def _check_prox_args(setup, center, g, step):
    check_same_shape(center, g)
    if step <= 0.0:
        raise ParameterError(f"prox step must be positive, got {step}")
    for b in g.blocks:
        if not np.all(np.isfinite(b)):
            raise NumericsError("non-finite dual vector in prox map")
    if setup.kind is GeometryKind.ENTROPY_SIMPLEX:
        # exact zeros (underflow) break the log-space update; any strictly
        # positive float, however tiny, is fine
        for b in center.blocks:
            if not np.all(has_mass(b)):
                raise DomainError("entropy prox center must be strictly positive")


def _entropy_step(log_center: np.ndarray, shift: np.ndarray) -> np.ndarray:
    # multiplicative update in log-space with max-subtraction
    e = log_center - shift
    e -= e.max()
    w = np.exp(e)
    return w / w.sum()


def _ball_constrained_solve(
    setup: GeometrySetup, target_dual: np.ndarray
) -> np.ndarray:
    """argmin over the ball of  -<s, z> + w(z)  given s = grad w at the
    unconstrained optimum; equivalently the constrained prox.

    For the a-norm DGF with ball norm p == a and no DGF shift the KKT system
    collapses to a one-dimensional multiplier equation solved by safeguarded
    bisection (equivalently, a radial rescale).  Other combinations fall back
    to an SLSQP solve.
    """
    a = setup.a
    p, r = setup.domain.p, setup.domain.radius
    z_unc = _a_norm_grad_inv(target_dual, a)
    shift = setup.shift(0)
    if shift is not None:
        z_unc = z_unc + shift
    norm_p = float(np.sum(np.abs(z_unc) ** p) ** (1.0 / p))
    if norm_p <= r + BALL_TOL:
        return z_unc
    if abs(p - a) <= 1e-12 and shift is None:
        # z(lam) = grad w*(s) / (1 + lam (a-1)); bisection on the multiplier
        lo, hi = 0.0, 1.0
        for _ in range(200):
            if np.sum(np.abs(z_unc / (1.0 + hi * (a - 1.0))) ** p) ** (1.0 / p) <= r:
                break
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            zn = float(
                np.sum(np.abs(z_unc / (1.0 + mid * (a - 1.0))) ** p) ** (1.0 / p)
            )
            if zn > r:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-12 * (1.0 + hi):
                break
        return z_unc / (1.0 + hi * (a - 1.0))
    from scipy.optimize import minimize

    def obj(z):
        x = z if shift is None else z - shift
        return float(np.sum(np.abs(x) ** a) ** (2.0 / a)) / (
            2.0 * (a - 1.0)
        ) - float(target_dual @ (z if shift is None else z - shift))

    cons = {"type": "ineq", "fun": lambda z: r - np.sum(np.abs(z) ** p) ** (1.0 / p)}
    res = minimize(
        obj, z_unc * (r / norm_p), method="SLSQP", constraints=[cons],
        options={"maxiter": 500, "ftol": 1e-14},
    )
    # res.success alone is not trusted either way: SLSQP reports failure on
    # solves whose point is fine, and success says nothing about round-off
    # past the sphere.  Feasibility decides.
    z = np.asarray(res.x, dtype=float)
    norm_z = float(np.sum(np.abs(z) ** p) ** (1.0 / p))
    if not np.all(np.isfinite(z)) or norm_z > r * (1.0 + SLSQP_OVERSHOOT_TOL):
        raise NumericsError(
            f"ball prox fallback left the ball (||z||_{p} = {norm_z!r}, "
            f"radius {r}): {res.message}"
        )
    if norm_z > r + BALL_TOL:
        z = z * (r / norm_z)  # round-off past the sphere: back onto it
    return z


def prox_map(setup: GeometrySetup, center: Point, g: DualVector, step: float) -> Point:
    """argmin over the domain of  step * <g, z> + V(z, center).

    Entropy: the closed multiplicative form per block.  Euclidean: gradient
    step followed by exact projection.  A-norm ball: dual-variable solve.
    """
    _check_prox_args(setup, center, g, step)
    if setup.kind is GeometryKind.ENTROPY_SIMPLEX:
        return Point(
            tuple(
                _entropy_step(np.log(cb), step * gb)
                for cb, gb in zip(center.blocks, g.blocks)
            )
        )
    if setup.kind is GeometryKind.EUCLIDEAN:
        return Point(
            tuple(
                _project_domain_block(setup, cb - step * gb)
                for cb, gb in zip(center.blocks, g.blocks)
            )
        )
    gc = dgf_grad(setup, center)
    target = gc.blocks[0] - step * g.blocks[0]
    return Point((_ball_constrained_solve(setup, target),))


def composite_prox_map(
    setup: GeometrySetup,
    anchor: Point,
    center: Point,
    g: DualVector,
    eta: float,
) -> Point:
    """argmin over the domain of  <g, v> + eta * V(v, anchor) + V(v, center).

    For entropy this is the geometric-mean form: anchor weight eta/(1+eta),
    center weight 1/(1+eta), gradient scaled by 1/(1+eta).  ``eta = 0``
    degenerates to ``prox_map(center, g, 1)``.
    """
    check_same_shape(anchor, g)
    check_same_shape(center, g)
    if eta < 0.0:
        raise ParameterError(f"composite weight eta must be >= 0, got {eta}")
    if eta == 0.0:
        return prox_map(setup, center, g, 1.0)
    if setup.kind is GeometryKind.ENTROPY_SIMPLEX:
        for b in list(anchor.blocks) + list(center.blocks):
            if not np.all(has_mass(b)):
                raise DomainError("entropy prox centers must be strictly positive")
        wa = eta / (1.0 + eta)
        wc = 1.0 / (1.0 + eta)
        return Point(
            tuple(
                _entropy_step(wa * np.log(ab) + wc * np.log(cb), wc * gb)
                for ab, cb, gb in zip(anchor.blocks, center.blocks, g.blocks)
            )
        )
    for b in g.blocks:
        if not np.all(np.isfinite(b)):
            raise NumericsError("non-finite dual vector in composite prox")
    if setup.kind is GeometryKind.EUCLIDEAN:
        return Point(
            tuple(
                _project_domain_block(
                    setup, (eta * ab + cb - gb) / (1.0 + eta)
                )
                for ab, cb, gb in zip(anchor.blocks, center.blocks, g.blocks)
            )
        )
    ga = dgf_grad(setup, anchor)
    gc = dgf_grad(setup, center)
    target = (eta * ga.blocks[0] + gc.blocks[0] - g.blocks[0]) / (1.0 + eta)
    return Point((_ball_constrained_solve(setup, target),))


def max_divergence_bound(setup: GeometrySetup, z0: Point) -> float:
    """An upper bound on max_z V(z, z0) over the feasible domain.

    Simplex products: the maximum sits at a vertex per block, so the bound
    is sum_blocks max_j -log(z0_j) for entropy (log d from the uniform
    start) and the vertex maximum of half squared distances for Euclidean.
    Balls: w is 1-strongly convex, bounded through the domain diameter.
    """
    validate_point(setup, z0)
    if setup.domain.kind is DomainKind.SIMPLEX_PRODUCT:
        total = 0.0
        for b in z0.blocks:
            if setup.kind is GeometryKind.ENTROPY_SIMPLEX:
                if not np.all(has_mass(b)):
                    raise DivergenceInfinite(
                        "V(., z0) is unbounded for a boundary start"
                    )
                total += float(-np.log(b.min()))
            else:
                # max over vertices e_j of 0.5 ||e_j - b||^2
                sq = float(b @ b)
                total += 0.5 * max(sq - 2.0 * bj + 1.0 for bj in b)
        return total
    r = setup.domain.radius
    om = 1.0 if setup.kind is GeometryKind.EUCLIDEAN else omega_d(setup, z0)
    return 0.5 * om * (2.0 * r) ** 2


# ---------------------------------------------------------------------------
# restart support


def omega_d(setup: GeometrySetup, z0: Point) -> float:
    """A finite upper bound on sup_z 2 V(z, z0) / ||z - z0||^2.

    Euclidean: exactly 1.  A-norm ball: 2 ln d - 1 (tight when z0 is the
    DGF's center, which the restart procedure maintains by recentering).
    The supremum is infinite for the entropy setup.
    """
    validate_point(setup, z0)
    if setup.kind is GeometryKind.ENTROPY_SIMPLEX:
        raise UnboundedOmegaError("KL / l1^2 is unbounded near the boundary")
    if setup.kind is GeometryKind.EUCLIDEAN:
        return 1.0
    return 2.0 * math.log(sum(setup.block_dims)) - 1.0


def recenter(
    setup: GeometrySetup, shift_from: Point, shift_to: Point
) -> GeometrySetup:
    """A setup whose DGF is w(z - shift_from + shift_to)."""
    if setup.domain.kind is not DomainKind.NORM_BALL:
        raise UnsupportedRecenterError("only ball setups support DGF translation")
    check_same_shape(shift_from, shift_to)
    old = setup.center
    new = tuple(
        (np.zeros(d) if old is None else old[i]) + shift_from.blocks[i]
        - shift_to.blocks[i]
        for i, d in enumerate(setup.block_dims)
    )
    if all(np.allclose(c, 0.0, atol=0.0) for c in new):
        return replace(setup, center=None)
    return replace(setup, center=new)
