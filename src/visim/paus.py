"""The outer proximal-accelerated solver under similarity.

Each outer iteration costs exactly two communication rounds:

1. gather F(z^k) from all workers (one round);
2. the server solves the regularized subproblem
   <gamma * (F1(u) + F(z^k) - F1(z^k)) + grad w(u) - grad w(z^k), z - u> >= 0
   locally (no rounds): exactly by ``inner.newton_solve_flat`` for the
   entropy and Euclidean setups, otherwise, and whenever Newton misses its
   target, with the composite extragradient loop ``inner.composite_mp``;
3. gather F(u^k) (one round);
4. the server takes the mirror step
   z^{k+1} = prox(u^k, F(u^k) - F1(u^k) - F(z^k) + F1(z^k), gamma).

The server evaluates its F1 once per point.  F1(z^k) gives the offset of
step 2 and the dual vector of step 4.  The Newton solve of step 2 starts
from F1 at its warm start, u^{k-1} (z^0 at k = 0), which the previous step
kept, and hands back F1(u^k) from its last evaluation, which steps 4 and
the next warm start reuse; F1(u^k) is evaluated again only at a floored
entropy point or after ``composite_mp``.  On the interior of an l2 ball
an outer step thus takes two products by the server's matrix.

On an entropy saddle the subproblem solutions u^k move smoothly from one
outer step to the next, so the solve's reduced attempt starts from a
predicted y-block (``predicted_y``): the softmax of the log
y of the last floored answers, extrapolated by a quadratic through three
or a line through two (a predictor step, Allgower & Georg 1990).  The warm
start u^{k-1}, F1 there and everything else the solve does are unchanged.
With fewer than two answers, and right after a subproblem that the
continuation in gamma answered (its reduced attempt failed), the attempt
starts from u^{k-1}'s y-block instead.

The returned point is the uniform (ergodic) average of u^0..u^{K-1},
which carries the gap guarantee  Gap(u_avg) <= max_z V(z, z^0) / (K gamma)
when gamma <= 1/delta.

The outer loop itself (ergodic average, ``keep_iterates`` paths and the
RunRecord log) lives in one private driver, ``_drive``, which takes the
solver's step as a function.  ``paus_run`` passes the similarity step
above; the mirror-prox baseline passes its extragradient step.

The driver and the steps run on flat arrays: z^k, u^k, the ergodic sum
and every dual vector are one float64 vector each, its blocks in the
order of ``geometry.layout``, and so are the ``keep_iterates`` paths.
Points appear only where a run starts or answers: z^0, whose blocks
``layout.join`` checks against the setup before any round, and, as views
of the flat arrays (``layout.split``), the running average given to
``gap_fn`` and the final u_avg.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .cluster import ClusterState, gather_average
from .errors import ParameterError, ShapeError, check_iters, check_positive
from .geometry import (
    GeometrySetup,
    Point,
    dgf_grad,
    floor_simplex_flat,
    max_divergence_bound,
    prox_map,
    softmax,
    validate_point,
)
from .inner import (
    CompositeProblem,
    InnerSettings,
    NewtonSystem,
    composite_mp,
    newton_solve_flat,
)

DEFAULT_INNER_TOL = 1e-10
MOVEMENT_TOL_FLOOR = 1e-17

# one outer iteration on flat arrays: z^k -> (u^k, z^{k+1}, inner iterations)
Step = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, int]]


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
        check_positive("gamma", self.gamma)
        check_iters(self.iters)
        check_positive("l_f1", self.l_f1)
        # None or 0.0: no guard (an over-stepping sweep, a delta of round-off)
        if self.delta is not None and self.delta != 0.0:
            check_positive("delta", self.delta)
            if self.gamma > (1.0 + 1e-9) / self.delta:
                raise ParameterError(
                    f"gamma = {self.gamma} exceeds 1/delta = {1.0 / self.delta}"
                )


@dataclass(frozen=True)
class RunRecord:
    """One log line: communication rounds consumed so far, the gap of the
    running ergodic average, inner iterations (Newton steps, or
    extragradient iterations) of this outer step, and wall time since the
    run started (seconds)."""

    round: int
    iterate_gap: float
    inner_iters: int
    elapsed: float


@dataclass
class PausResult:
    u_avg: Point
    log: list[RunRecord]
    # flat u^0..u^{K-1} and z^0..z^K, kept with ``keep_iterates``
    u_path: list[np.ndarray]
    z_path: list[np.ndarray]
    # subproblems handed to the extragradient loop (composite_mp)
    inner_fallbacks: int = 0


def _inner_plan(config: PausConfig) -> tuple[int, float]:
    """Resolve the extragradient loop's iteration cap and movement stop.

    The Bregman accuracy target is eps_inner = min(1e-10, eps_target^2/100)
    with eps_target the gap envelope at the configured K; movement between
    successive inner iterates of order eta^2 * eps_inner certifies it.
    """
    geom = config.geometry
    v0_bound = max_divergence_bound(geom, geom.layout.join(config.z0))
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

    ``step(z)`` takes one outer iteration from the flat z^k and returns
    new arrays (u^k, z^{k+1}) and the inner iterations.
    """
    layout = geometry.layout
    z = layout.join(z0)
    validate_point(geometry, z)
    # a flat point of the right size can still cut the blocks wrongly
    if cluster.average.block_dims != geometry.block_dims:
        raise ShapeError(
            f"the shards take blocks {cluster.average.block_dims}, the "
            f"geometry has {geometry.block_dims}"
        )
    u_sum = np.zeros(layout.size)
    records: list[RunRecord] = []
    u_path: list[np.ndarray] = []
    z_path: list[np.ndarray] = [z]
    start = time.perf_counter()

    for k in range(iters):
        u, z, inner_iters = step(z)
        u_sum += u
        if keep_iterates:
            u_path.append(u)
            z_path.append(z)
        if log_predicate is None or log_predicate(k):
            gap = (float(gap_fn(layout.split(u_sum / (k + 1))))
                   if gap_fn is not None else math.nan)
            records.append(
                RunRecord(
                    round=cluster.round_count,
                    iterate_gap=gap,
                    inner_iters=inner_iters,
                    elapsed=time.perf_counter() - start,
                )
            )
    u_avg = layout.split(u_sum / iters)
    return PausResult(u_avg=u_avg, log=records, u_path=u_path, z_path=z_path)


def paus_run(
    config: PausConfig,
    cluster: ClusterState,
    gap_fn: Callable[[Point], float] | None = None,
    keep_iterates: bool = False,
    log_predicate: Callable[[int], bool] | None = None,
    system: NewtonSystem | None = None,
) -> PausResult:
    """Run K outer iterations on the cluster and return the ergodic average.

    ``gap_fn`` maps the running average to a scalar gap for logging
    (NaN logged when omitted); ``log_predicate(k)`` selects which outer
    iterations produce a RunRecord (all of them by default).
    ``keep_iterates`` additionally records u^k and z^k for certificates.
    Each record's ``inner_iters`` counts the Newton steps of its
    subproblem, or the extragradient iterations when it was handed to
    ``composite_mp``; ``PausResult.inner_fallbacks`` counts those hand-offs.
    On the a-norm ball, which has no closed-form mirror map, every
    subproblem goes straight to ``composite_mp``.
    ``system`` is the :class:`inner.NewtonSystem` of the server shard, gamma
    and block layout, when the caller shares one between runs; by default
    the run builds its own, and one built for others raises
    :class:`ParameterError`.
    """
    geom, gamma = config.geometry, config.gamma
    layout = geom.layout
    shard = cluster.server_shard
    entropy = geom.kind.entropy
    newton = entropy or geom.kind.euclidean
    cap, movement_tol = _inner_plan(config)
    if system is None:
        system = NewtonSystem(shard, gamma, geom)
    elif not system.serves(shard, gamma, geom):
        raise ParameterError("the Newton system was built for another subproblem")
    fallbacks = 0
    # the last step's u^k and F1(u^k): the next step's warm start
    warm: tuple[np.ndarray, np.ndarray] | None = None
    # log y of the last three answers of an entropy saddle run (kept only
    # there), oldest first, and whether the next reduced attempt starts
    # from their extrapolation (predicted_y): not after an answer of the
    # continuation in gamma, whose reduced attempt failed
    predict = entropy and system.saddle
    d1 = geom.block_dims[0]
    logs: list[np.ndarray] = []
    extrapolate = True

    def step(z):
        nonlocal fallbacks, warm, logs, extrapolate
        f_z = gather_average(cluster, [z])[0]
        f1_z = shard.evaluate(z)
        offset = f_z - f1_z
        # warm start: the previous subproblem solution (z^0 at first), with
        # F1 there, so that the solve's start needs no product
        v0, f1_v0 = (z, f1_z) if warm is None else warm
        solved = None
        if newton:
            solved = newton_solve_flat(system, geom, dgf_grad(geom, z),
                                       offset, v0, f1_v0,
                                       predicted_y(logs) if extrapolate else None)
        if solved is None:
            fallbacks += 1
            problem = CompositeProblem(gamma=gamma, anchor=z, f1=shard,
                                       offset=offset, geometry=geom,
                                       l_f1=config.l_f1)
            solved = (*composite_mp(problem, v0, cap, movement_tol), None)
        u, inner_iters, f1_u = solved
        if entropy:
            # guard against float underflow to 0
            u = floor_simplex_flat(u, layout.bounds)
        if entropy or f1_u is None:
            # F1 at the floored point, or where the solve gave none
            f1_u = shard.evaluate(u)
        warm = (u, f1_u)
        if predict:
            logs = logs[-2:] + [np.log(u[d1:])]
            # the continuation in gamma answers with F1 there, the reduced
            # attempt and the extragradient loop without
            extrapolate = solved[2] is None
        f_u = gather_average(cluster, [u])[0]
        g = f_u - f1_u
        g -= f_z
        g += f1_z
        z_next = prox_map(geom, u, g, gamma)
        if entropy:
            z_next = floor_simplex_flat(z_next, layout.bounds)
        return u, z_next, inner_iters

    result = _drive(
        geom, config.z0, config.iters, step, cluster, gap_fn, keep_iterates,
        log_predicate,
    )
    result.inner_fallbacks = fallbacks
    return result


def predicted_y(logs: list[np.ndarray]) -> np.ndarray | None:
    """The y-block that extrapolates the log y of the last two or three
    answers, ``logs`` oldest first, along the path of subproblem solutions: the
    softmax of 3 (l_1 - l_2) + l_3 (a quadratic through the last three)
    or of 2 l_1 - l_2 (a line through the last two), l_i the i-th last;
    None with fewer than two."""
    if len(logs) < 2:
        return None
    if len(logs) == 2:
        older, last = logs
        return softmax(2.0 * last - older)
    oldest, older, last = logs
    return softmax(3.0 * (last - older) + oldest)


def duality_gap(M: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """max_j (M^T x)_j - min_i (M y)_i: the matrix-game duality gap of the
    strategy pair (x, y).  Zero exactly at Nash equilibria."""
    M = np.asarray(M, dtype=float)
    return float(np.maximum.reduce(M.T @ x) - np.minimum.reduce(M @ y))
