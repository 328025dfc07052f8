"""Restarted solver for strongly monotone operators.

Under mu-strong monotonicity a stage of K = ceil(4 omega / (mu gamma))
outer iterations halves the distance to the solution, so
N = ceil(0.5 log2(R0^2 / eps)) stages reach ||z - z*||^2 <= eps.  Each
stage recenters the distance generating function at its starting point
(w_{t+1}(z) = w(z - u_t + y0) with y0 the original start), which keeps the
curvature bound omega valid stage after stage.  Only ball geometries are
supported; the entropy DGF cannot be translated and its omega is infinite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cluster import ClusterState
from .errors import ConfigError, ParameterError, RestartStallError
from .geometry import (
    GeometryKind,
    GeometrySetup,
    Point,
    omega_d,
    recenter,
    validate_point,
)
from .inner import InnerSettings
from .operators import SimilarityConstants, affine_shard
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
    gamma: float | None = None  # None -> 1/delta
    inner: InnerSettings = field(default_factory=InnerSettings)

    def __post_init__(self):
        if self.mu <= 0.0:
            raise ParameterError("restarts need mu > 0")
        if self.delta <= 0.0 or self.eps <= 0.0 or self.r0_sq <= 0.0:
            raise ParameterError("delta, eps and r0_sq must be positive")
        if self.geometry.kind is GeometryKind.ENTROPY_SIMPLEX:
            raise ConfigError("the entropy setup supports neither omega nor recentering")
        if self.gamma is None:
            self.gamma = 1.0 / self.delta
        om = omega_d(self.geometry, self.z0)
        if self.mu > self.delta * om * (1.0 + 1e-9):
            raise ConfigError(
                f"mu = {self.mu} exceeds delta * omega = {self.delta * om}; "
                "a restart stage would be shorter than one iteration block"
            )


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
    per-stage halving is asserted with a 1.05 slack and a stall raises
    RestartStallError.
    """
    validate_point(config.geometry, config.z0)
    n_stages = num_restarts(config.r0_sq, config.eps)
    stages: list[StageRecord] = []
    points: list[Point] = []
    u_t = config.z0
    y0 = config.z0
    prev_dist = _dist_sq(u_t, z_star) if z_star is not None else math.nan
    for t in range(n_stages):
        geom_t = recenter(config.geometry, u_t, y0)
        om = omega_d(geom_t, u_t)
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
        result: PausResult = paus_run(stage_cfg, cluster, log_predicate=lambda k: False)
        u_t = result.u_avg
        dist = _dist_sq(u_t, z_star) if z_star is not None else math.nan
        stages.append(
            StageRecord(
                stage=t, iters=k_t, rounds_after=cluster.round_count, dist_sq=dist
            )
        )
        points.append(u_t)
        if z_star is not None and prev_dist > 0.0:
            if dist > HALVING_SLACK**2 * 0.25 * prev_dist:
                raise RestartStallError(
                    f"stage {t} shrank ||u - z*||^2 only from {prev_dist:.3e} "
                    f"to {dist:.3e} (need factor <= {HALVING_SLACK**2 * 0.25:.3f})"
                )
        prev_dist = dist
    return RestartResult(z_hat=u_t, stages=stages, stage_points=points)


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

    Returns (shards, z_star, constants) with l2-pairing constants.
    """
    if not (0.0 < spread < 1.0):
        raise ParameterError("spread must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((dim, dim))
    A = 0.5 * (B - B.T)
    A *= 1.0 / max(np.linalg.norm(A, 2), 1e-15)  # sigma_max(A) = 1
    direction = rng.standard_normal(dim)
    z_star = direction * (spread * radius / np.linalg.norm(direction))
    b = -(A + mu * np.eye(dim)) @ z_star
    E = rng.standard_normal((m, dim, dim))
    E -= E.mean(axis=0)
    E *= delta / max(np.linalg.norm(E[0], 2), 1e-15)

    shards = [affine_shard(A + E[i] + mu * np.eye(dim), b) for i in range(m)]
    consts = SimilarityConstants(
        L=float(np.linalg.norm(A + mu * np.eye(dim), 2)),
        L_F1=float(np.linalg.norm(A + E[0] + mu * np.eye(dim), 2)),
        delta=delta,
        mu=mu,
        norm_tag="l2",
    )
    return shards, Point.of(z_star), consts
