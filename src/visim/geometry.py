"""Distance generating functions, Bregman divergences and proximal maps.

Four setups are supported, one :class:`GeometryKind` each:

* ``ENTROPY_SIMPLEX`` -- negative entropy on a product of probability
  simplices.  The Bregman divergence is the (blockwise) KL divergence and
  both proximal maps have closed multiplicative forms.
* ``EUCLIDEAN_SIMPLEX`` -- half squared l2 norm on a simplex product
  (projection-based prox).
* ``EUCLIDEAN_BALL`` -- half squared l2 norm on the l2 ball of
  ``GeometrySetup.radius``.
* ``A_NORM_BALL`` -- the scaled squared a-norm ``||z||_a^2 / (2(a-1))``
  with ``a = 2 ln d / (2 ln d - 1)`` (natural log), on the lp ball of
  ``GeometrySetup.radius`` and ``GeometrySetup.p``.

Every DGF here is 1-strongly convex in the setup's declared norm, so
``V(u, v) >= 0.5 * ||u - v||^2`` holds throughout.  The declared norm of
the a-norm setup is the a-norm itself (the exact strong-convexity norm);
block norms combine as the l2 sum of squares.

All operations are pure; setups and points are immutable.  Every
function here takes and returns flat arrays, the blocks concatenated in
the order of the setup's :class:`BlockLayout`, and works block by block
over ``layout.bounds`` where a block's arithmetic is its own.  A
:class:`Point` is a solver's start or answer; :func:`uniform_point` makes
one, and ``BlockLayout.join`` checks its blocks against the setup and
concatenates them.

Each Euclidean fact lives once: ``_project`` projects onto a Euclidean
domain, ``_ball_interior`` maps the l2 ball's interior for both
:func:`piece_map` and :func:`mirror_map_flat`, a recentred ball's
``GeometrySetup.center`` is one flat array, and ``_lp_norm`` takes every
vector norm.

What a solver calls once per step reduces, sorts and scans through the
ufuncs and ndarray methods that numpy's Python-level wrappers end in
(``np.add.reduce`` for ``x.sum()``, ``np.logical_and.reduce`` for
``x.all()``, ``u.sort()`` for ``np.sort``), on 1-d arrays, where they
have the wrappers' bits without their per-call cost.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property, lru_cache
from numbers import Integral

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
    """The supported setups, one per (domain, norm, DGF) triple.  Each
    member carries its facts as plain attributes, set once and read on
    every prox and mirror-map call: ``ball`` (an l2 or lp ball, else a
    simplex product), ``euclidean`` (the half squared l2 DGF) and
    ``entropy`` (neither)."""

    def __new__(cls, value: str, ball: bool, euclidean: bool):
        kind = object.__new__(cls)
        kind._value_, kind.ball, kind.euclidean = value, ball, euclidean
        kind.entropy = not (ball or euclidean)
        return kind

    ENTROPY_SIMPLEX = "entropy_simplex", False, False
    EUCLIDEAN_SIMPLEX = "euclidean_simplex", False, True
    EUCLIDEAN_BALL = "euclidean_ball", True, True
    A_NORM_BALL = "a_norm_ball", True, False


@dataclass(frozen=True)
class Point:
    """An element of the feasible set: a tuple of coordinate blocks."""

    blocks: tuple[np.ndarray, ...]

    @staticmethod
    def of(*blocks) -> "Point":
        return Point(tuple(np.asarray(b, dtype=float) for b in blocks))

    def concat(self) -> np.ndarray:
        return np.concatenate(self.blocks)


@dataclass(frozen=True)
class BlockLayout:
    """Where the blocks sit in the concatenated vector: the (lo, hi) slice
    of each block, the index each block starts at, and the block of each
    coordinate."""

    bounds: tuple[tuple[int, int], ...]
    starts: np.ndarray
    block_of: np.ndarray

    @property
    def size(self) -> int:
        """The length of the concatenated vector."""
        return self.block_of.size

    def split(self, flat: np.ndarray) -> "Point":
        """The point whose blocks are the slices of ``flat``."""
        return Point(tuple([flat[lo:hi] for lo, hi in self.bounds]))

    def join(self, z: Point) -> np.ndarray:
        """The blocks of ``z`` concatenated, after checking them against
        the layout's: a point of the right size can still be cut wrongly."""
        shapes = tuple(b.shape for b in z.blocks)
        if shapes != tuple((hi - lo,) for lo, hi in self.bounds):
            raise ShapeError(
                f"blocks of shapes {shapes} do not match the layout's "
                f"{[hi - lo for lo, hi in self.bounds]}"
            )
        return z.concat()


def _check_flat(setup: GeometrySetup, *zs: np.ndarray) -> None:
    for z in zs:
        if z.shape != (setup.layout.size,):
            raise ShapeError(
                f"a vector of shape {z.shape} does not fit the setup's "
                f"blocks {setup.block_dims}"
            )


def a_norm_exponent(dim: int) -> float:
    """a = 2 ln d / (2 ln d - 1), natural log; requires d >= 3."""
    if dim < 3:
        raise ParameterError("a-norm setup needs dimension >= 3")
    ld = math.log(dim)
    return 2.0 * ld / (2.0 * ld - 1.0)


@dataclass(frozen=True)
class GeometrySetup:
    """A setup: its kind and block sizes, and the ball's size.

    ``radius`` is the ball's radius (ball setups only), ``p`` the norm of
    the a-norm setup's lp ball, in [1, a] (the a-norm ball only; the
    Euclidean ball is the l2 ball).  ``center`` is the translation of the
    DGF (ball setups only), one array of the ball's size: the effective
    DGF is ``w_base(z - center)``.  ``None`` means no shift.
    """

    kind: GeometryKind
    block_dims: tuple[int, ...]
    radius: float | None = None
    p: float | None = None
    center: np.ndarray | None = None

    def __post_init__(self):
        dims = self.block_dims
        if not (isinstance(dims, tuple) and dims
                and all(isinstance(n, Integral) and n > 0 for n in dims)):
            raise ParameterError(
                f"block_dims must be a non-empty tuple of positive ints, got {dims!r}")
        if not self.kind.ball:
            if any(v is not None for v in (self.radius, self.p, self.center)):
                raise ParameterError("a simplex setup takes no radius, p or centre")
            return
        # validate_point and max_divergence_bound measure the ball as one block
        if len(self.block_dims) != 1:
            raise ParameterError("ball setups use a single block")
        if self.radius is None or not 0.0 < self.radius < math.inf:
            raise ParameterError(
                f"a ball's radius must be finite and positive, got {self.radius}")
        if self.kind.euclidean:
            if self.p is not None:
                raise ParameterError(
                    f"the Euclidean ball is the l2 ball, got p={self.p}")
        elif self.p is None or not 1.0 <= self.p <= self.a + 1e-12:
            raise ParameterError(
                f"ball norm p={self.p} outside [1, a={self.a:.6f}] "
                "for the a-norm DGF"
            )
        if self.center is not None and not (
                isinstance(self.center, np.ndarray)
                and self.center.shape == self.block_dims):
            raise ShapeError("a ball's centre is one array of the ball's size")

    @property
    def a(self) -> float:
        return a_norm_exponent(sum(self.block_dims))

    @cached_property
    def layout(self) -> BlockLayout:
        """Where the blocks sit in the concatenated vector; setups with the
        same ``block_dims`` share one."""
        return _block_layout(self.block_dims)


@lru_cache
def _block_layout(block_dims: tuple[int, ...]) -> BlockLayout:
    """The one layout of ``block_dims``, shared by every setup that has
    them (a restarted run recentres its setup every stage), immutable."""
    ends = np.cumsum(block_dims).tolist()
    starts = [0] + ends[:-1]
    layout = BlockLayout(
        tuple(zip(starts, ends)), np.array(starts),
        np.repeat(np.arange(len(block_dims)), block_dims),
    )
    layout.starts.flags.writeable = layout.block_of.flags.writeable = False
    return layout


def entropy_simplex(d: int, blocks: int = 2) -> GeometrySetup:
    return GeometrySetup(GeometryKind.ENTROPY_SIMPLEX, (d,) * blocks)


def euclidean_simplex(d: int, blocks: int = 2) -> GeometrySetup:
    return GeometrySetup(GeometryKind.EUCLIDEAN_SIMPLEX, (d,) * blocks)


def euclidean_ball(dim: int, radius: float = 1.0) -> GeometrySetup:
    return GeometrySetup(GeometryKind.EUCLIDEAN_BALL, (dim,), radius)


def a_norm_ball(dim: int, radius: float = 1.0, p: float | None = None) -> GeometrySetup:
    if p is None:
        p = a_norm_exponent(dim)
    return GeometrySetup(GeometryKind.A_NORM_BALL, (dim,), radius, p)


# ---------------------------------------------------------------------------
# norms


def _lp_norm(x: np.ndarray, p: float) -> float:
    """||x||_p of a vector.  p = 2 takes math.sqrt(x @ x), the arithmetic
    of np.linalg.norm on a 1-d float vector without its wrapper; p = inf
    the largest |x_i| (0 for an empty x)."""
    if p == 2.0:
        return math.sqrt(x @ x)
    if p == math.inf:
        return float(np.abs(x).max()) if x.size else 0.0
    return float(np.add.reduce(np.abs(x) ** p) ** (1.0 / p))


def _block_norm_exponent(setup: GeometrySetup, dual: bool = False) -> float:
    """p of the setup's declared block norm (l1, l2 or the a-norm), or of
    its dual."""
    if setup.kind.entropy:
        return math.inf if dual else 1.0
    if setup.kind.euclidean:
        return 2.0
    a = setup.a
    return a / (a - 1.0) if dual else a


def primal_norm(setup: GeometrySetup, diff: np.ndarray) -> float:
    """The setup's declared norm of a difference of points."""
    _check_flat(setup, diff)
    p = _block_norm_exponent(setup)
    return math.sqrt(sum(_lp_norm(diff[lo:hi], p) ** 2
                         for lo, hi in setup.layout.bounds))


def dual_norm(setup: GeometrySetup, g: np.ndarray) -> float:
    """Dual of :func:`primal_norm` (blockwise dual norms, l2-combined)."""
    _check_flat(setup, g)
    q = _block_norm_exponent(setup, dual=True)
    vals = [_lp_norm(g[lo:hi], q) for lo, hi in setup.layout.bounds]
    return math.sqrt(sum(v * v for v in vals))


# ---------------------------------------------------------------------------
# domain handling


def validate_point(setup: GeometrySetup, z: np.ndarray) -> None:
    _check_flat(setup, z)
    if not np.logical_and.reduce(np.isfinite(z)):
        raise NumericsError("non-finite point coordinates")
    if not setup.kind.ball:
        for lo, hi in setup.layout.bounds:
            b = z[lo:hi]
            if (np.logical_or.reduce(b < -SIMPLEX_SUM_TOL)
                    or abs(np.add.reduce(b) - 1.0) > SIMPLEX_SUM_TOL):
                raise DomainError("block is not on the probability simplex")
    else:
        p, r = 2.0 if setup.kind.euclidean else setup.p, setup.radius
        n = _lp_norm(z, p)
        if n > r + BALL_TOL:
            raise DomainError(f"||z||_{p} = {n} exceeds radius {r}")


def uniform_point(setup: GeometrySetup) -> Point:
    """Uniform distributions on simplex domains, the origin on balls."""
    if not setup.kind.ball:
        return Point.of(*(np.full(d, 1.0 / d) for d in setup.block_dims))
    return Point.of(np.zeros(setup.block_dims[0]))


def random_point(setup: GeometrySetup, rng: np.random.Generator) -> np.ndarray:
    """A random feasible point, flat: Dirichlet(1,..,1) per simplex block,
    or a near-uniform draw from the ball."""
    if not setup.kind.ball:
        return np.concatenate([rng.dirichlet(np.ones(d)) for d in setup.block_dims])
    dim = setup.block_dims[0]
    p, r = 2.0 if setup.kind.euclidean else setup.p, setup.radius
    y = rng.standard_normal(dim)
    scale = r * rng.uniform() ** (1.0 / dim)
    return y * (scale / _lp_norm(y, p))


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


def floor_simplex_flat(
    z: np.ndarray, bounds: Sequence[tuple[int, int]]
) -> np.ndarray:
    """Clamp simplex blocks away from exact zero and renormalize.

    Long entropic runs drive losing coordinates toward the boundary
    geometrically, eventually underflowing float64 to exact 0, which the
    log-space updates cannot represent.  Flooring at 1e-300 keeps the
    dynamics intact (the perturbation is ~1e-300 per coordinate) while
    keeping every iterate strictly positive, hence interior under
    :func:`has_mass`.  ``z`` is the point concatenated with its blocks at
    the (lo, hi) slices ``bounds``: one clamp over all blocks, then each
    block divided by its own sum.  Returns a new array.
    """
    out = np.maximum(z, TINY_MASS)
    for lo, hi in bounds:
        b = out[lo:hi]
        b /= np.add.reduce(b)
    return out


def project_block_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex.

    Sort-and-threshold; tied values give the same threshold in either
    order.  Raises :class:`NumericsError` when no coordinate passes the
    threshold test.
    """
    u = v.copy()
    u.sort()
    u = u[::-1]
    css = u.cumsum()
    css -= 1.0
    cond = u - css / _counts(v.size) > 0
    hits = cond.nonzero()[0]
    if hits.size == 0:
        # no coordinate passes when the input is non-finite or a coordinate
        # reaches about 2**53, where u - (u - 1) rounds to 0
        raise NumericsError(
            "simplex projection found no threshold (input too large or non-finite)"
        )
    rho = int(hits[-1])
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


@lru_cache
def _counts(n: int) -> np.ndarray:
    """1, 2, ..., n as integers, immutable."""
    idx = np.arange(1, n + 1)
    idx.flags.writeable = False
    return idx


def _project(setup: GeometrySetup, v: np.ndarray) -> np.ndarray:
    """The Euclidean projection onto the domain of a fresh vector ``v``
    concatenated as ``setup.layout`` says, in place and returned: onto the
    simplex block by block, or radially onto the l2 ball."""
    if not setup.kind.ball:
        for lo, hi in setup.layout.bounds:
            v[lo:hi] = project_block_simplex(v[lo:hi])
        return v
    r, n = setup.radius, _lp_norm(v, 2.0)
    if not n <= r:
        v *= r / n
    return v


# ---------------------------------------------------------------------------
# DGF values and gradients


def _entropy_block_value(b: np.ndarray) -> float:
    # 0 log 0 = 0 convention on the coordinates without mass
    mask = has_mass(b)
    return float(np.add.reduce(b[mask] * np.log(b[mask])))


def dgf_value(setup: GeometrySetup, z: np.ndarray) -> float:
    """w(z) for the setup's distance generating function."""
    validate_point(setup, z)
    bounds = setup.layout.bounds
    if setup.kind.entropy:
        return sum(_entropy_block_value(z[lo:hi]) for lo, hi in bounds)
    # only a ball, which has one block, has a centre; the a-norm's is a ball
    x = z if setup.center is None else z - setup.center
    if setup.kind.euclidean:
        return sum(0.5 * float(x[lo:hi] @ x[lo:hi]) for lo, hi in bounds)
    a = setup.a
    return float(np.add.reduce(np.abs(x) ** a) ** (2.0 / a)) / (2.0 * (a - 1.0))


def _a_norm_grad(x: np.ndarray, a: float) -> np.ndarray:
    # grad of ||x||_a^2 / (2(a-1)); zero at the origin
    na = _lp_norm(x, a)
    if na == 0.0:
        return np.zeros_like(x)
    return np.sign(x) * np.abs(x) ** (a - 1.0) * na ** (2.0 - a) / (a - 1.0)


def _a_norm_grad_inv(s: np.ndarray, a: float) -> np.ndarray:
    # inverse of _a_norm_grad: (a-1) * sign(s)|s|^{q-1} ||s||_q^{2-q}, q = a/(a-1)
    q = a / (a - 1.0)
    nq = _lp_norm(s, q)
    if nq == 0.0:
        return np.zeros_like(s)
    return (a - 1.0) * np.sign(s) * np.abs(s) ** (q - 1.0) * nq ** (2.0 - q)


def dgf_grad(setup: GeometrySetup, z: np.ndarray) -> np.ndarray:
    """The gradient of the DGF (defined on the domain's relative interior
    for entropy).  The Euclidean gradient of an unshifted setup is ``z``
    itself."""
    _check_flat(setup, z)
    if setup.kind.entropy:
        if not np.logical_and.reduce(has_mass(z)):
            raise DomainError("entropy gradient needs strictly positive mass")
        e = np.log(z)
        e += 1.0
        return e
    x = z if setup.center is None else z - setup.center
    if setup.kind.euclidean:
        return x
    return _a_norm_grad(x, setup.a)


def bregman_divergence(setup: GeometrySetup, u: np.ndarray, v: np.ndarray) -> float:
    """V(u, v) = w(u) - w(v) - <grad w(v), u - v>.

    Entropy: the blockwise KL divergence, finite whenever v carries mass
    (see :func:`has_mass`) wherever u does; raises
    :class:`DivergenceInfinite` otherwise.
    """
    _check_flat(setup, u, v)
    bounds = setup.layout.bounds
    if setup.kind.entropy:
        total = 0.0
        for lo, hi in bounds:
            ub, vb = u[lo:hi], v[lo:hi]
            mask = has_mass(ub)
            if np.logical_or.reduce(mask & ~has_mass(vb)):
                raise DivergenceInfinite(
                    "u puts mass where the reference point v has none"
                )
            total += float(np.add.reduce(
                ub[mask] * (np.log(ub[mask]) - np.log(vb[mask]))))
        return max(total, 0.0)
    if setup.kind.euclidean:
        return sum(
            0.5 * float((u[lo:hi] - v[lo:hi]) @ (u[lo:hi] - v[lo:hi]))
            for lo, hi in bounds
        )
    # the a-norm ball: one block
    val = dgf_value(setup, u) - dgf_value(setup, v)
    val -= float(dgf_grad(setup, v) @ (u - v))
    return max(val, 0.0)


# ---------------------------------------------------------------------------
# proximal maps


def _check_prox_args(setup, center, g, step):
    _check_flat(setup, center, g)
    # NaN fails both comparisons
    if not 0.0 < step < math.inf:
        raise ParameterError(f"prox step must be finite and positive, got {step}")
    if not np.logical_and.reduce(np.isfinite(g)):
        raise NumericsError("non-finite dual vector in prox map")
    # exact zeros (underflow) break the log-space update; any strictly
    # positive float, however tiny, is fine
    if setup.kind.entropy and not np.logical_and.reduce(has_mass(center)):
        raise DomainError("entropy prox center must be strictly positive")


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
    p, r = setup.p, setup.radius
    z_unc = _a_norm_grad_inv(target_dual, a)
    shift = setup.center
    if shift is not None:
        z_unc = z_unc + shift
    norm_p = _lp_norm(z_unc, p)
    if norm_p <= r + BALL_TOL:
        return z_unc
    if abs(p - a) <= 1e-12 and shift is None:
        # z(lam) = grad w*(s) / (1 + lam (a-1)); bisection on the multiplier
        lo, hi = 0.0, 1.0
        for _ in range(200):
            if _lp_norm(z_unc / (1.0 + hi * (a - 1.0)), p) <= r:
                break
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if _lp_norm(z_unc / (1.0 + mid * (a - 1.0)), p) > r:
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

    cons = {"type": "ineq", "fun": lambda z: r - _lp_norm(z, p)}
    res = minimize(
        obj, z_unc * (r / norm_p), method="SLSQP", constraints=[cons],
        options={"maxiter": 500, "ftol": 1e-14},
    )
    # res.success alone is not trusted either way: SLSQP reports failure on
    # solves whose point is fine, and success says nothing about round-off
    # past the sphere.  Feasibility decides.
    z = np.asarray(res.x, dtype=float)
    norm_z = _lp_norm(z, p)
    if not np.all(np.isfinite(z)) or norm_z > r * (1.0 + SLSQP_OVERSHOOT_TOL):
        raise NumericsError(
            f"ball prox fallback left the ball (||z||_{p} = {norm_z!r}, "
            f"radius {r}): {res.message}"
        )
    if norm_z > r + BALL_TOL:
        z = z * (r / norm_z)  # round-off past the sphere: back onto it
    return z


def prox_map(
    setup: GeometrySetup, center: np.ndarray, g: np.ndarray, step: float
) -> np.ndarray:
    """argmin over the domain of  step * <g, z> + V(z, center).

    Entropy: the closed multiplicative form per block.  Euclidean: gradient
    step followed by exact projection.  A-norm ball: dual-variable solve.
    The result has the bits of the block-by-block map.  Returns a new
    array.
    """
    _check_prox_args(setup, center, g, step)
    if setup.kind.entropy:
        # the softmax of log(center) - step g, block by block
        theta = np.log(center)
        theta -= step * g
        return softmax_map(theta, setup.layout)[0]
    if setup.kind.euclidean:
        return _project(setup, center - step * g)
    target = dgf_grad(setup, center)
    target -= step * g
    return _ball_constrained_solve(setup, target)


def composite_prox_map(
    setup: GeometrySetup,
    anchor: np.ndarray,
    center: np.ndarray,
    g: np.ndarray,
    eta: float,
) -> np.ndarray:
    """argmin over the domain of  <g, v> + eta * V(v, anchor) + V(v, center),
    for operands concatenated as ``setup.layout`` says.  Returns a new
    array.

    For entropy this is the geometric-mean form: anchor weight eta/(1+eta),
    center weight 1/(1+eta), gradient scaled by 1/(1+eta).  ``eta = 0``
    degenerates to ``prox_map(center, g, 1)``.
    """
    _check_flat(setup, anchor)
    if not 0.0 <= eta < math.inf:
        raise ParameterError(
            f"composite weight eta must be finite and >= 0, got {eta}")
    if eta == 0.0:
        return prox_map(setup, center, g, 1.0)
    # the center's and g's shapes, g finite, an entropy center positive
    _check_prox_args(setup, center, g, 1.0)
    if setup.kind.entropy:
        if not np.logical_and.reduce(has_mass(anchor)):
            raise DomainError("entropy prox centers must be strictly positive")
        wa = eta / (1.0 + eta)
        wc = 1.0 / (1.0 + eta)
        return softmax_map(wa * np.log(anchor) + wc * np.log(center) - wc * g,
                           setup.layout)[0]
    if setup.kind.euclidean:
        return _project(setup, (eta * anchor + center - g) / (1.0 + eta))
    target = (eta * dgf_grad(setup, anchor) + dgf_grad(setup, center)
              - g) / (1.0 + eta)
    return _ball_constrained_solve(setup, target)


def mirror_map_flat(
    setup: GeometrySetup, theta: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list[tuple[float, np.ndarray]]]:
    """u = grad w*(theta), the maximiser of <theta, z> - w(z) over the
    domain, and its (generalised) Jacobian D, for a dual vector theta
    concatenated as ``setup.layout`` says.

    Returns the concatenated u and D as ``(diag, rank_one)``: D =
    diag(diag) minus, for each block k, beta_k v_k v_k^T on that block,
    with ``rank_one[k] = (beta_k, v_k)``.  Entropy: softmax per block, D =
    diag(s) - s s^T.  Euclidean simplex: projection per block,
    D = diag(1_S) - 1_S 1_S^T / |S| on the support S.  Euclidean l2 ball
    (recentred or not): radial projection of x = theta + center, D = I
    inside the ball (``_ball_interior``: u may be theta itself, D is
    read-only) and (r/n)(I - x x^T / n^2) for x at norm n outside it.  On
    interior points the map inverts :func:`dgf_grad`.  The a-norm
    ball has no closed form here and raises :class:`ParameterError`.
    Elementwise work and the blocks' maxima run over all blocks at once,
    sums block by block, with the bits of the block-by-block map.
    """
    if setup.kind is GeometryKind.A_NORM_BALL:
        raise ParameterError("the a-norm ball has no closed-form mirror map")
    if not np.logical_and.reduce(np.isfinite(theta)):
        raise NumericsError("non-finite dual vector in mirror map")
    layout = setup.layout
    if setup.kind.entropy:
        return softmax_map(theta, layout)
    if not setup.kind.ball:
        u = _project(setup, theta.copy())
        a = (u > 0.0).astype(float)
        return u, a, [(1.0 / np.add.reduce(a[lo:hi]), a[lo:hi])
                      for lo, hi in layout.bounds]
    x, n, inside = _ball_interior(setup, theta)
    if inside is not None:
        return inside
    s = setup.radius / n
    return x * s, np.full_like(x, s), ((s, x / n),)


def softmax(theta: np.ndarray) -> np.ndarray:
    """exp(theta - max) / sum over the whole vector, as a new array: the
    entropy mirror map of one simplex block, without its checks or its
    Jacobian terms.  It has the bits of each block of :func:`softmax_map`."""
    u = theta - np.maximum.reduce(theta)
    np.exp(u, out=u)
    u /= np.add.reduce(u)
    return u


def softmax_map(theta: np.ndarray, layout: BlockLayout):
    """The entropy branch of :func:`mirror_map_flat`, without its checks:
    u = exp(theta - max) / sum per block of ``layout``.  D = diag(u) - u u^T
    per block, so u serves as diag and its blocks as the rank-one vectors.
    A block gets the same bits whatever blocks sit beside it, those of
    :func:`softmax` on the block alone."""
    u = theta - np.maximum.reduceat(theta, layout.starts)[layout.block_of]
    np.exp(u, out=u)
    for lo, hi in layout.bounds:
        b = u[lo:hi]
        b /= np.add.reduce(b)
    return u, u, [(1.0, u[lo:hi]) for lo, hi in layout.bounds]


def piece_map(
    setup: GeometrySetup, z: np.ndarray, theta: np.ndarray
) -> tuple[np.ndarray, np.ndarray, Sequence[tuple[float, np.ndarray]]] | None:
    """:func:`mirror_map_flat` at ``theta``, in its form, if theta lies on
    the map's affine piece through the feasible point ``z``, else None;
    without a sort or a projection.  Euclidean setups only.  On a simplex
    product the piece is the set of theta whose projection keeps z's
    support S in every block: u = max(theta - tau, 0) with the threshold
    tau = (sum_S theta - 1) / |S| that S gives.  In the l2 ball the map is
    affine only inside, the piece of every feasible z: there the map is
    :func:`mirror_map_flat`'s own interior."""
    if not setup.kind.euclidean:
        raise ParameterError("affine pieces need a Euclidean setup")
    if not setup.kind.ball:
        layout = setup.layout
        on = z > 0.0
        a = on.astype(float)
        size = np.add.reduceat(a, layout.starts)
        tau = np.add.reduceat(a * theta, layout.starts)
        tau -= 1.0
        tau /= size
        u = theta - tau[layout.block_of]
        if np.logical_or.reduce((u > 0.0) != on):
            return None
        np.maximum(u, 0.0, out=u)
        # D as on the projection's support S, which is z's
        return u, a, [(1.0 / n, a[lo:hi]) for n, (lo, hi) in zip(size, layout.bounds)]
    return _ball_interior(setup, theta)[2]


def _ball_interior(setup: GeometrySetup, theta: np.ndarray):
    """The l2 ball's mirror map inside the ball: x = theta + center (theta
    itself in an unshifted ball), its norm n, and (u, diag, rank_one) =
    (x, D = I) if x lies within the radius, else None.  D's read-only
    terms are shared by every call of the same size."""
    x = theta if setup.center is None else theta + setup.center
    n = _lp_norm(x, 2.0)
    if not n <= setup.radius:
        return x, n, None
    return x, n, (x, *_identity_jacobian(x.size))


@lru_cache
def _identity_jacobian(n: int) -> tuple[np.ndarray, tuple[tuple[float, np.ndarray]]]:
    """D = I on n coordinates in :func:`mirror_map_flat`'s form, immutable."""
    ones, zeros = np.ones(n), np.zeros(n)
    ones.flags.writeable = zeros.flags.writeable = False
    return ones, ((0.0, zeros),)


def max_divergence_bound(setup: GeometrySetup, z0: np.ndarray) -> float:
    """An upper bound on max_z V(z, z0) over the feasible domain.

    Simplex products: the maximum sits at a vertex per block, so the bound
    is sum_blocks max_j -log(z0_j) for entropy (log d from the uniform
    start) and the vertex maximum of half squared distances for Euclidean.
    Balls: w is 1-strongly convex, bounded through the domain diameter.
    """
    validate_point(setup, z0)
    if not setup.kind.ball:
        total = 0.0
        for lo, hi in setup.layout.bounds:
            b = z0[lo:hi]
            if setup.kind.entropy:
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
    r = setup.radius
    om = 1.0 if setup.kind.euclidean else omega_d(setup, z0)
    return 0.5 * om * (2.0 * r) ** 2


# ---------------------------------------------------------------------------
# restart support


def omega_d(setup: GeometrySetup, z0: np.ndarray) -> float:
    """A finite upper bound on sup_z 2 V(z, z0) / ||z - z0||^2.

    Euclidean: exactly 1.  A-norm ball: 2 ln d - 1 (tight when z0 is the
    DGF's center, which the restart procedure maintains by recentering).
    The supremum is infinite for the entropy setup.
    """
    validate_point(setup, z0)
    if setup.kind.entropy:
        raise UnboundedOmegaError("KL / l1^2 is unbounded near the boundary")
    if setup.kind.euclidean:
        return 1.0
    return 2.0 * math.log(sum(setup.block_dims)) - 1.0


def recenter(
    setup: GeometrySetup, shift_from: np.ndarray, shift_to: np.ndarray
) -> GeometrySetup:
    """A setup whose DGF is w(z - shift_from + shift_to)."""
    if not setup.kind.ball:
        raise UnsupportedRecenterError("only ball setups support DGF translation")
    _check_flat(setup, shift_from, shift_to)
    old = np.zeros(setup.layout.size) if setup.center is None else setup.center
    new = old + shift_from - shift_to
    # exactly zero (-0.0 included); a NaN centre is not
    return replace(setup, center=new if np.logical_or.reduce(new) else None)
