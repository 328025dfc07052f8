"""Restarted solver for strongly monotone operators.

Under mu-strong monotonicity a stage of K = ceil(4 omega / (mu gamma))
outer iterations halves the distance to the solution, so
N = ceil(0.5 log2(R0^2 / eps)) stages reach ||z - z*||^2 <= eps.  Each
stage recenters the distance generating function at its starting point
(w_{t+1}(z) = w(z - u_t + y0) with y0 the original start), which keeps the
curvature bound omega valid stage after stage.  Only ball geometries are
supported: a simplex setup cannot be recentred, and the entropy DGF's omega
is infinite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cluster import ClusterState
from .errors import (
    ConfigError,
    ParameterError,
    RestartStallError,
    check_finite_positive,
    check_int_at_least,
    check_positive,
)
from .geometry import (
    GeometrySetup,
    Point,
    omega_d,
    recenter,
    validate_point,
)
from .inner import InnerSettings, NewtonSystem
from .operators import OperatorShard, SimilarityConstants
from .paus import PausConfig, PausResult, paus_run

HALVING_SLACK = 1.05


@dataclass
class RestartConfig:
    mu: float
    delta: float
    eps: float
    geometry: GeometrySetup
    z0: Point
    r0_sq: float
    l_f1: float
    inner: InnerSettings = field(default_factory=InnerSettings)

    def __post_init__(self):
        for name in ("mu", "delta", "eps", "r0_sq", "l_f1"):
            check_positive(name, getattr(self, name))
        if not self.geometry.kind.ball:
            raise ConfigError("only ball setups can be recentred")
        om = omega_d(self.geometry, self.geometry.layout.join(self.z0))
        if self.mu > self.delta * om * (1.0 + 1e-9):
            raise ConfigError(
                f"mu = {self.mu} exceeds delta * omega = {self.delta * om}; "
                "a restart stage would be shorter than one iteration block"
            )

    @property
    def gamma(self) -> float:
        """The outer stepsize of every stage, 1/delta."""
        return 1.0 / self.delta


@dataclass(frozen=True)
class StageRecord:
    stage: int
    iters: int
    rounds_after: int
    dist_sq: float  # ||u_t - z*||^2 when z* is supplied, else NaN


@dataclass
class RestartResult:
    z_hat: Point
    stages: list[StageRecord]
    stage_points: list[Point]
    # subproblems of all stages handed to the extragradient loop
    inner_fallbacks: int = 0


def stage_length(mu: float, gamma: float, omega: float) -> int:
    """K = ceil(4 omega / (mu gamma))."""
    if mu <= 0.0 or gamma <= 0.0 or omega <= 0.0:
        raise ParameterError("stage_length needs positive arguments")
    return max(1, math.ceil(4.0 * omega / (mu * gamma)))


def num_restarts(r0_sq: float, eps: float) -> int:
    """N = ceil(0.5 log2(R0^2 / eps)); 0 when eps already covers R0^2.

    Base 2 matches the per-stage halving of the distance (squared distance
    shrinks by 4 every two stages).
    """
    if r0_sq <= 0.0 or eps <= 0.0:
        raise ParameterError("r0_sq and eps must be positive")
    if eps >= r0_sq:
        return 0
    return max(1, math.ceil(0.5 * math.log2(r0_sq / eps)))


def _dist_sq(u: Point, z_star: Point) -> float:
    return float(sum((a - b) @ (a - b) for a, b in zip(u.blocks, z_star.blocks)))


def paus_r(
    config: RestartConfig,
    cluster: ClusterState,
    z_star: Point | None = None,
) -> RestartResult:
    """Run N restart stages and return the final stage average.

    When ``z_star`` is supplied (test instances with a known solution) the
    halving of every stage that starts above ``eps`` is asserted with a
    1.05 slack and a stall raises RestartStallError.
    """
    layout = config.geometry.layout
    y0 = layout.join(config.z0)
    validate_point(config.geometry, y0)
    n_stages = num_restarts(config.r0_sq, config.eps)
    stages: list[StageRecord] = []
    points: list[Point] = []
    u_t = config.z0
    prev_dist = _dist_sq(u_t, z_star) if z_star is not None else math.nan
    fallbacks = 0
    # F1, gamma and the block layout are the same in every stage, so the
    # stages share one Newton system (and its interior-ball factors)
    system = NewtonSystem(cluster.server_shard, config.gamma, config.geometry)
    for t in range(n_stages):
        start = layout.join(u_t)
        geom_t = recenter(config.geometry, start, y0)
        om = omega_d(geom_t, start)
        k_t = stage_length(config.mu, config.gamma, om)
        stage_cfg = PausConfig(
            gamma=config.gamma,
            iters=k_t,
            geometry=geom_t,
            z0=u_t,
            l_f1=config.l_f1,
            delta=config.delta,
            inner=config.inner,
        )
        result: PausResult = paus_run(
            stage_cfg, cluster, log_predicate=lambda k: False, system=system
        )
        u_t = result.u_avg
        fallbacks += result.inner_fallbacks
        dist = _dist_sq(u_t, z_star) if z_star is not None else math.nan
        stages.append(
            StageRecord(
                stage=t, iters=k_t, rounds_after=cluster.round_count, dist_sq=dist
            )
        )
        points.append(u_t)
        # once the target is reached the distance sits at round-off and
        # need not shrink further, so only stages that start above eps
        # must halve it
        if z_star is not None and prev_dist > config.eps:
            if dist > HALVING_SLACK**2 * 0.25 * prev_dist:
                raise RestartStallError(
                    f"stage {t} shrank ||u - z*||^2 only from {prev_dist:.3e} "
                    f"to {dist:.3e} (need factor <= {HALVING_SLACK**2 * 0.25:.3f})"
                )
        prev_dist = dist
    return RestartResult(
        z_hat=u_t, stages=stages, stage_points=points, inner_fallbacks=fallbacks
    )


def _spectral_norm(X: np.ndarray) -> float:
    """sigma_max(X), the square root of the top eigenvalue of the smaller
    Gram matrix of X; 0 for a zero X.

    X is first scaled exactly, by ``np.ldexp``, with the power of two that
    brings max|X_ij| into [1/2, 1), so the Gram product can neither
    overflow nor lose its top eigenvalue (at least 1/4) to underflow.
    """
    top = float(np.abs(X).max())
    if top == 0.0:
        return 0.0
    e = math.frexp(top)[1]
    Y = np.ldexp(X, -e)
    gram = Y.T @ Y if Y.shape[0] >= Y.shape[1] else Y @ Y.T
    return math.ldexp(math.sqrt(np.linalg.eigvalsh(gram)[-1]), e)


def synthetic_strongly_monotone(
    dim: int,
    m: int,
    mu: float,
    delta: float,
    seed: int,
    radius: float = 1.0,
    spread: float = 0.5,
):
    """A sharded test family with a known interior solution.

    The average operator is F(z) = A z + mu z + b with A antisymmetric
    (monotone with equality, so F is exactly mu-strongly monotone); shard i
    carries A + E_i with mean-zero perturbations scaled so the server
    deviation has spectral norm exactly ``delta``.  b places the solution
    z* = -(A + mu I)^{-1} b at ||z*|| = spread * radius inside the l2 ball.

    The constants: sigma_max(A) = 1 after A is divided by its spectral
    norm, so L = ||A + mu I||_2 = hypot(1, mu) in closed form (A is normal,
    and A + mu I has singular values sqrt(sigma_k(A)^2 + mu^2)).  The
    spectral norms of A, of E_0 and L_F1 = ||A + E_0 + mu I||_2 are each
    the square root of the top eigenvalue of a Gram matrix
    (:func:`_spectral_norm`), not a full SVD.

    Refused with a ConfigError naming the field: dim < 2 (A would be 0),
    m < 2 (no server deviation), a seed that is not a non-negative
    integer, and mu, delta or radius that is not finite and positive; a
    spread outside (0, 1) is a ParameterError.

    Returns (shards, z_star, constants) with l2-pairing constants.
    """
    check_int_at_least("dim", dim, 2)
    check_int_at_least("m", m, 2)
    check_int_at_least("seed", seed, 0)
    for name, value in (("mu", mu), ("delta", delta), ("radius", radius)):
        check_finite_positive(name, value)
    if not (0.0 < spread < 1.0):
        raise ParameterError("spread must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((dim, dim))
    A = 0.5 * (B - B.T)
    A *= 1.0 / _spectral_norm(A)  # sigma_max(A) = 1
    direction = rng.standard_normal(dim)
    z_star = direction * (spread * radius / np.linalg.norm(direction))
    b = -(A + mu * np.eye(dim)) @ z_star
    E = rng.standard_normal((m, dim, dim))
    E -= E.mean(axis=0)
    E *= delta / _spectral_norm(E[0])

    shards = [OperatorShard(A + E[i] + mu * np.eye(dim), b) for i in range(m)]
    consts = SimilarityConstants(
        L=math.hypot(1.0, mu),
        L_F1=_spectral_norm(shards[0].matrix),  # A + E_0 + mu I
        delta=delta,
        mu=mu,
        norm_tag="l2",
    )
    return shards, Point.of(z_star), consts
