"""The outer proximal-accelerated solver under similarity.

Each outer iteration costs exactly two communication rounds:

1. gather F(z^k) from all workers (one round);
2. the server solves the regularized subproblem
   <gamma * (F1(u) + F(z^k) - F1(z^k)) + grad w(u) - grad w(z^k), z - u> >= 0
   locally with the composite extragradient inner solver (no rounds);
3. gather F(u^k) (one round);
4. the server takes the mirror step
   z^{k+1} = prox(u^k, F(u^k) - F1(u^k) - F(z^k) + F1(z^k), gamma).

The returned point is the uniform (ergodic) average of u^0..u^{K-1},
which carries the gap guarantee  Gap(u_avg) <= max_z V(z, z^0) / (K gamma)
when gamma <= 1/delta.

The outer loop itself (ergodic average, ``keep_iterates`` paths and the
RunRecord log) lives in one private driver, ``_drive``, which takes the
solver's step as a function.  ``paus_run`` passes the similarity step
above; the mirror-prox baseline passes its extragradient step.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .cluster import ClusterState, gather_average
from .errors import ParameterError
from .geometry import (
    DualVector,
    GeometryKind,
    GeometrySetup,
    Point,
    floor_simplex_point,
    max_divergence_bound,
    prox_map,
    validate_point,
)
from .inner import CompositeProblem, InnerSettings, composite_mp

DEFAULT_INNER_TOL = 1e-10
MOVEMENT_TOL_FLOOR = 1e-17

# one outer iteration: (z^k, u^{k-1} or None) -> (u^k, z^{k+1}, inner iterations)
Step = Callable[[Point, Point | None], tuple[Point, Point, int]]


@dataclass
class PausConfig:
    """Outer-loop configuration.

    ``gamma`` must not exceed 1/delta (pass ``delta`` to have this
    enforced); ``l_f1`` is the server shard's Lipschitz constant in the
    geometry's pairing, which fixes the inner stepsize.
    """

    gamma: float
    iters: int
    geometry: GeometrySetup
    z0: Point
    l_f1: float
    delta: float | None = None
    inner: InnerSettings = field(default_factory=InnerSettings)

    def __post_init__(self):
        if self.gamma <= 0.0:
            raise ParameterError(f"gamma must be positive, got {self.gamma}")
        if self.iters < 1:
            raise ParameterError(f"need at least one iteration, got {self.iters}")
        if self.l_f1 <= 0.0:
            raise ParameterError("l_f1 must be positive")
        if self.delta is not None and self.delta > 0.0:
            if self.gamma > (1.0 + 1e-9) / self.delta:
                raise ParameterError(
                    f"gamma = {self.gamma} exceeds 1/delta = {1.0 / self.delta}"
                )


@dataclass(frozen=True)
class RunRecord:
    """One log line: communication rounds consumed so far, the gap of the
    running ergodic average, inner iterations of this outer step, and wall
    time since the run started (seconds)."""

    round: int
    iterate_gap: float
    inner_iters: int
    elapsed: float


@dataclass
class PausResult:
    u_avg: Point
    log: list[RunRecord]
    u_path: list[Point]
    z_path: list[Point]


def _dual_combine(*terms: tuple[float, DualVector]) -> DualVector:
    """Signed sum of dual vectors, blockwise."""
    nblocks = len(terms[0][1].blocks)
    out = []
    for i in range(nblocks):
        acc = np.zeros_like(terms[0][1].blocks[i])
        for s, v in terms:
            acc += s * v.blocks[i]
        out.append(acc)
    return DualVector(tuple(out))


def _inner_plan(config: PausConfig) -> tuple[int, float]:
    """Resolve the inner iteration cap and the movement stop threshold.

    The Bregman accuracy target is eps_inner = min(1e-10, eps_target^2/100)
    with eps_target the gap envelope at the configured K; movement between
    successive inner iterates of order eta^2 * eps_inner certifies it.
    """
    v0_bound = max_divergence_bound(config.geometry, config.z0)
    eps_target = v0_bound / (config.iters * config.gamma)
    eps_inner = config.inner.tolerance
    if eps_inner is None:
        eps_inner = min(DEFAULT_INNER_TOL, eps_target**2 / 100.0)
    eta = 1.0 / (2.0 * config.gamma * config.l_f1)
    movement_tol = max(eps_inner * (eta / (1.0 + eta)) ** 2, MOVEMENT_TOL_FLOOR)
    # the contraction 1/(1+eta) per iteration takes V0 down to eps_inner
    ratio = max(v0_bound / eps_inner, 1.0 + 1e-12)
    cap = max(1, math.ceil(math.log(ratio) / math.log1p(eta)))
    return cap, movement_tol


def _drive(
    geometry: GeometrySetup,
    z0: Point,
    iters: int,
    step: Step,
    cluster: ClusterState,
    gap_fn: Callable[[Point], float] | None,
    keep_iterates: bool,
    log_predicate: Callable[[int], bool] | None,
) -> PausResult:
    """The outer loop shared by every solver: ``iters`` calls of ``step``
    from ``z0``, the ergodic average of the returned u^k, and the log.

    ``step(z, prev_u)`` takes one outer iteration from z^k (``prev_u`` is
    u^{k-1}, None at k = 0) and returns (u^k, z^{k+1}, inner iterations).
    """
    validate_point(geometry, z0)
    z = z0
    u_sum = [np.zeros(d) for d in geometry.block_dims]
    u_avg = z0
    prev_u: Point | None = None
    records: list[RunRecord] = []
    u_path: list[Point] = []
    z_path: list[Point] = [z]
    start = time.perf_counter()

    for k in range(iters):
        u, z, inner_iters = step(z, prev_u)
        for acc, ub in zip(u_sum, u.blocks):
            acc += ub
        u_avg = Point(tuple(acc / (k + 1) for acc in u_sum))
        prev_u = u
        if keep_iterates:
            u_path.append(u)
            z_path.append(z)
        if log_predicate is None or log_predicate(k):
            gap = float(gap_fn(u_avg)) if gap_fn is not None else math.nan
            records.append(
                RunRecord(
                    round=cluster.round_count,
                    iterate_gap=gap,
                    inner_iters=inner_iters,
                    elapsed=time.perf_counter() - start,
                )
            )
    return PausResult(u_avg=u_avg, log=records, u_path=u_path, z_path=z_path)


def paus_run(
    config: PausConfig,
    cluster: ClusterState,
    gap_fn: Callable[[Point], float] | None = None,
    keep_iterates: bool = False,
    log_predicate: Callable[[int], bool] | None = None,
) -> PausResult:
    """Run K outer iterations on the cluster and return the ergodic average.

    ``gap_fn`` maps the running average to a scalar gap for logging
    (NaN logged when omitted); ``log_predicate(k)`` selects which outer
    iterations produce a RunRecord (all of them by default).
    ``keep_iterates`` additionally records u^k and z^k for certificates.
    """
    geom = config.geometry
    cap, movement_tol = _inner_plan(config)

    def step(z: Point, prev_u: Point | None) -> tuple[Point, Point, int]:
        f_z = gather_average(cluster, [z])[0]
        f1_z = cluster.server_evaluate(z)
        offset = _dual_combine((1.0, f_z), (-1.0, f1_z))
        problem = CompositeProblem(
            gamma=config.gamma,
            anchor=z,
            f1=cluster.server_shard,
            offset=offset,
            geometry=geom,
            l_f1=config.l_f1,
        )
        # warm start: the previous subproblem solution
        v0 = prev_u if prev_u is not None else z
        u, inner_iters = composite_mp(problem, v0, cap, movement_tol)
        if geom.kind is GeometryKind.ENTROPY_SIMPLEX:
            u = floor_simplex_point(u)  # guard against float underflow to 0
        f1_u = cluster.server_evaluate(u)
        f_u = gather_average(cluster, [u])[0]
        g = _dual_combine((1.0, f_u), (-1.0, f1_u), (-1.0, f_z), (1.0, f1_z))
        z_next = prox_map(geom, u, g, config.gamma)
        if geom.kind is GeometryKind.ENTROPY_SIMPLEX:
            z_next = floor_simplex_point(z_next)
        return u, z_next, inner_iters

    return _drive(
        geom, config.z0, config.iters, step, cluster, gap_fn, keep_iterates,
        log_predicate,
    )


def duality_gap(M: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """max_j (M^T x)_j - min_i (M y)_i: the matrix-game duality gap of the
    strategy pair (x, y).  Zero exactly at Nash equilibria."""
    M = np.asarray(M, dtype=float)
    return float(np.max(M.T @ x) - np.min(M @ y))
