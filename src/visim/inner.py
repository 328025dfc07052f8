"""Server-local composite extragradient solver.

Solves the strongly-monotone regularized subproblem

    find u:  <gamma * (F1(u) + offset) + grad w(u) - grad w(anchor), z - u> >= 0

for all feasible z, where ``offset`` is the constant correction
F(anchor) - F1(anchor) shipped from the last communication round.  Each
iteration takes two composite proximal steps with weight
eta = 1 / (2 * gamma * L_F1) and contracts the divergence to the
subproblem's solution by 1 / (1 + eta), so

    T = ceil((3 L_F1 / delta) * log(V0 / eps))

iterations reach Bregman accuracy eps when gamma = 1 / delta.  Everything
here runs on the server; no communication rounds are consumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import NumericsError, ParameterError
from .geometry import (
    DualVector,
    GeometryKind,
    GeometrySetup,
    Point,
    TINY_MASS,
    bregman_divergence,
    composite_prox_map,
)
from .operators import OperatorShard, SaddleBilinear


@dataclass
class InnerSettings:
    """The inner solver's accuracy.

    ``tolerance`` is the Bregman accuracy eps_inner each subproblem is
    solved to; ``None`` lets the outer solver derive it from its accuracy
    target.  The outer solver turns it into the movement stop on
    V(v^{t+1}, v^t) and the iteration cap, and always starts each
    subproblem from the previous one's solution (warm start).
    """

    tolerance: float | None = None


@dataclass(frozen=True)
class CompositeProblem:
    """One regularized subproblem instance.

    F1 is the server's local operator, ``offset`` the fixed dual vector
    F(anchor) - F1(anchor), ``l_f1`` the local Lipschitz constant in the
    geometry's pairing.
    """

    gamma: float
    anchor: Point
    f1: OperatorShard
    offset: DualVector
    geometry: GeometrySetup
    l_f1: float

    def __post_init__(self):
        if self.gamma <= 0.0:
            raise ParameterError(f"gamma must be positive, got {self.gamma}")
        if self.l_f1 <= 0.0:
            raise ParameterError(f"L_F1 must be positive, got {self.l_f1}")

    @property
    def eta(self) -> float:
        return 1.0 / (2.0 * self.gamma * self.l_f1)

    def gradient(self, v: Point) -> DualVector:
        """gamma * eta * (F1(v) + offset), the step used by both half-steps."""
        s = self.gamma * self.eta
        fv = self.f1.evaluate(v)
        return DualVector(
            tuple(s * (fb + ob) for fb, ob in zip(fv.blocks, self.offset.blocks))
        )


def _log_space_ok(problem: CompositeProblem) -> bool:
    return (
        problem.geometry.kind is GeometryKind.ENTROPY_SIMPLEX
        and len(problem.geometry.block_dims) == 2
        and isinstance(problem.f1.evaluate, SaddleBilinear)
    )


def _log_floored(b: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(b, TINY_MASS))


def _log_space_operands(problem: CompositeProblem):
    """The stacked operands of :func:`_kernels.log_space_loop`.

    With wa = eta/(1+eta), wc = 1/(1+eta) and s = gamma eta wc, a
    composite prox step from v is the blockwise log-normalisation of
    wa log(anchor) + wc log(v) - s (F1(v) + offset).  ``SB`` is s times
    the block operator [[0, M1], [-M1^T, 0]] of F1.  Each block of
    ``base`` = wa log(anchor) - s offset is shifted to maximum 0 (the shift
    cancels in the normalisation).  Since s = wc / (2 l_f1) and l_f1 bounds
    max|M1|, |(SB v)_i| <= 1/2; with log-coordinates in [log TINY_MASS, 0]
    every block of exp(E) then sums to a normal float, so the loop needs
    no per-iteration max.
    """
    M1 = np.asarray(problem.f1.evaluate.matrix, dtype=float)
    d1, d2 = M1.shape
    eta = problem.eta
    wa, wc = eta / (1.0 + eta), 1.0 / (1.0 + eta)
    s = problem.gamma * eta * wc
    SB = np.zeros((d1 + d2, d1 + d2))
    SB[:d1, d1:] = s * M1
    SB[d1:, :d1] = -s * M1.T
    S = np.zeros_like(SB)
    S[:d1, :d1] = 1.0
    S[d1:, d1:] = 1.0
    base = wa * _log_floored(problem.anchor.concat()) - s * problem.offset.concat()
    base[:d1] -= base[:d1].max()
    base[d1:] -= base[d1:].max()
    return SB, S, base, wc


def _composite_mp_log(
    problem: CompositeProblem, v0: Point, max_iters: int, movement_tol: float
) -> tuple[Point, int]:
    SB, S, base, wc = _log_space_operands(problem)
    L, iters = _kernels.log_space_loop(
        SB, S, base, wc, _log_floored(v0.concat()), max_iters, movement_tol,
        TINY_MASS,
    )
    if not np.all(np.isfinite(L)):
        raise NumericsError("inner solver produced non-finite iterates")
    d1 = v0.blocks[0].size
    return Point.of(np.exp(L[:d1]), np.exp(L[d1:])), iters


def composite_mp(
    problem: CompositeProblem,
    v0: Point,
    max_iters: int,
    movement_tol: float = 0.0,
    force_generic: bool = False,
    record_path: bool = False,
) -> tuple[Point, int] | tuple[Point, int, list[Point]]:
    """Run the composite extragradient loop from ``v0``.

    Returns the final iterate and the number of iterations performed (and,
    with ``record_path``, the list of full-step iterates v^1..v^T for
    contraction diagnostics).  Stops early once the movement
    V(v^{t+1}, v^t) falls to ``movement_tol``.

    Entropy geometry with a bilinear F1 runs the log-space loop of
    :mod:`visim._kernels` (compiled when numba is installed), which keeps
    every coordinate at or above ``TINY_MASS``; ``force_generic`` and
    ``record_path`` select the block-wise reference loop instead.
    """
    if max_iters < 1:
        raise ParameterError(f"max_iters must be >= 1, got {max_iters}")
    if movement_tol < 0.0:
        raise ParameterError("movement_tol must be >= 0")
    if not record_path and not force_generic and _log_space_ok(problem):
        return _composite_mp_log(problem, v0, max_iters, movement_tol)

    geom = problem.geometry
    eta = problem.eta
    v = v0
    path: list[Point] = []
    iters = 0
    for t in range(max_iters):
        v_half = composite_prox_map(geom, problem.anchor, v, problem.gradient(v), eta)
        v_next = composite_prox_map(
            geom, problem.anchor, v, problem.gradient(v_half), eta
        )
        for b in v_next.blocks:
            if not np.all(np.isfinite(b)):
                raise NumericsError(f"non-finite inner iterate at step {t}")
        # the computed movement is cancellation-limited near the solution
        # (it rounds to 0 once coordinates move less than ~sqrt(eps)), so a
        # zero tolerance means "never stop early" rather than "stop at 0"
        move = bregman_divergence(geom, v_next, v) if movement_tol > 0.0 else None
        v = v_next
        iters = t + 1
        if record_path:
            path.append(v)
        if move is not None and move <= movement_tol:
            break
    if record_path:
        return v, iters, path
    return v, iters
