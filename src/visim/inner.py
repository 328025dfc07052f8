"""Server-local solvers for the regularized subproblem

    find u:  <gamma * (F1(u) + offset) + grad w(u) - grad w(anchor), z - u> >= 0

for all feasible z, where ``offset`` is the constant correction
F(anchor) - F1(anchor) shipped from the last communication round.
Everything here runs on the server; no communication rounds are consumed.

:func:`newton_solve` solves it exactly for the entropy and Euclidean
(simplex or l2-ball) setups: damped Newton on the normal map of the mirror
map (Robinson 1992; semismooth Newton, Qi & Sun 1993), typically one to
three linear solves of the problem's size, stopped at a round-off
residual.  It returns None for the a-norm ball and for a solve that stalls
or misses its target within ``NEWTON_MAX_STEPS`` steps; the outer solver
then runs :func:`composite_mp`.

:func:`composite_mp` is the paper's composite extragradient loop.  Each
iteration takes two composite proximal steps with weight
eta = 1 / (2 * gamma * L_F1) and contracts the divergence to the
subproblem's solution by 1 / (1 + eta), so

    T = ceil((3 L_F1 / delta) * log(V0 / eps))

iterations reach Bregman accuracy eps when gamma = 1 / delta.  Three loops
implement the iteration.  Entropy problems with a saddle F1 run the
log-space loop of :mod:`visim._kernels`; Euclidean problems with a saddle
F1 on two equal simplex blocks, or an affine F1 on the l2 ball, run a
stacked numpy loop with the same bits as the generic one; everything
else, and any run that asks for ``force_generic`` or ``record_path``, runs
the generic block-wise loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import NumericsError, ParameterError
from .geometry import (
    DomainKind,
    DualVector,
    GeometryKind,
    GeometrySetup,
    Point,
    TINY_MASS,
    _project_domain_block,
    bregman_divergence,
    composite_prox_map,
    dgf_grad,
    mirror_map,
    project_rows_simplex,
)
from .operators import OperatorShard

# Newton steps an exact solve may take; a solve still off its target after
# them is left to the extragradient loop
NEWTON_MAX_STEPS = 30
# a residual component is at round-off once it is this small relative to
# the sum of the magnitudes of the terms it is the difference of
NEWTON_RTOL = 1e-13
# the shortest backtracking step before a Newton solve gives up
NEWTON_MIN_STEP = 2.0**-30


@dataclass
class InnerSettings:
    """The extragradient loop's accuracy.

    Subproblems that :func:`newton_solve` covers are solved to round-off
    whatever this says.  For the others (the a-norm ball, a Newton solve
    that missed its target) ``tolerance`` is the Bregman accuracy
    eps_inner of :func:`composite_mp`; ``None`` lets the outer solver
    derive it from its accuracy target.  The outer solver turns it into
    the movement stop on V(v^{t+1}, v^t) and the iteration cap.  Either
    solver starts from the previous subproblem's solution (warm start).
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
        and problem.f1.offset is None
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
    M1 = problem.f1.matrix
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


def _euclidean_ok(problem: CompositeProblem, v0: Point) -> bool:
    """A Euclidean saddle problem on two equal simplex blocks, or an affine
    one on the l2 ball, with every operand in the geometry's block layout."""
    geom = problem.geometry
    if geom.kind is not GeometryKind.EUCLIDEAN:
        return False
    dims = geom.block_dims
    d = dims[0]
    if geom.domain.kind is DomainKind.SIMPLEX_PRODUCT:
        fits = problem.f1.offset is None and dims == (d, d)
    else:
        fits = problem.f1.offset is not None and geom.domain.p == 2.0 and dims == (d,)
    return (
        fits
        and problem.f1.matrix.shape == (d, d)
        and all(
            len(z.blocks) == len(dims) and all(b.shape == (d,) for b in z.blocks)
            for z in (problem.anchor, problem.offset, v0)
        )
    )


def _composite_mp_euclidean(
    problem: CompositeProblem, v0: Point, max_iters: int, movement_tol: float
) -> tuple[Point, int]:
    """The generic loop's Euclidean iteration on the stacked (blocks, d)
    state: the same operations in the same order, so the same bits.

    Both half-steps project (C - s G) / (1 + eta) with the shared centre
    C = eta anchor + v, s = gamma eta and G = F1 + offset at v, then at the
    half-step.
    """
    eta = problem.eta
    s = problem.gamma * eta
    M = problem.f1.matrix
    O = np.stack(problem.offset.blocks)
    eta_anchor = eta * np.stack(problem.anchor.blocks)
    V = np.stack(v0.blocks)
    G = np.empty_like(V)
    if problem.f1.offset is None:

        def gradient(Z):
            # F1 = (M y, -M^T x); o - x M equals -(x M) + o exactly
            np.add(M @ Z[1], O[0], out=G[0])
            np.subtract(O[1], Z[0] @ M, out=G[1])
            return G

        project = project_rows_simplex
    else:
        b = problem.f1.offset

        def gradient(Z):
            np.add(M @ Z[0] + b, O[0], out=G[0])
            return G

        def project(W):
            return _project_domain_block(problem.geometry, W[0])[None]

    iters = 0
    for t in range(max_iters):
        C = eta_anchor + V
        W = (C - s * gradient(V)) / (1.0 + eta)
        if not np.isfinite(W).all():
            raise NumericsError(f"non-finite inner half-step at step {t}")
        W = (C - s * gradient(project(W))) / (1.0 + eta)
        if not np.isfinite(W).all():
            raise NumericsError(f"non-finite inner iterate at step {t}")
        V_next = project(W)
        stop = False
        if movement_tol > 0.0:
            move = 0.0
            for nb, vb in zip(V_next, V):
                db = nb - vb
                move += 0.5 * float(db @ db)
            stop = move <= movement_tol
        V = V_next
        iters = t + 1
        if stop:
            break
    return Point(tuple(b.copy() for b in V)), iters


def _fits_layout(problem: CompositeProblem, v0: Point) -> bool:
    """F1's matrix and the operands fit the geometry's block layout: one
    saddle matrix across two blocks, or one affine map on a single block."""
    dims = problem.geometry.block_dims
    shape = problem.f1.matrix.shape
    if problem.f1.offset is None:
        fits = len(dims) == 2 and shape == dims
    else:
        fits = len(dims) == 1 and shape == dims * 2
    return fits and all(
        tuple(b.size for b in z.blocks) == dims
        for z in (problem.anchor, problem.offset, v0)
    )


def newton_solve(problem: CompositeProblem, v0: Point) -> tuple[Point, int] | None:
    """Solve the subproblem exactly by damped Newton on the normal map.

    With F1(u) = B u + b and c = grad w(anchor) - gamma * offset, the
    solution is u = grad w*(w) (:func:`geometry.mirror_map`) for the root w
    of  G(w) = w - c + gamma F1(grad w*(w))  (Robinson's normal map).  Each
    step solves (I + gamma B D) dw = -G, with D the mirror map's
    (generalised) Jacobian, and halves the step until ||G|| decreases.  The
    matrix is nonsingular: D is symmetric positive semidefinite and B
    monotone.  The solve starts from w = c - gamma F1(v0), so that
    grad w*(w) is one fixed-point step from ``v0``, and stops once every
    component of G is at round-off, ``NEWTON_RTOL`` times the magnitudes
    it is the difference of.

    Returns the solution and the number of Newton steps, or None for a
    setup it does not cover (one :func:`geometry.mirror_map` rejects, such
    as the a-norm ball, or operands outside the block layout) and for a solve that stalls (no decrease down to step
    ``NEWTON_MIN_STEP``, or a non-finite trial point) or misses its target
    within ``NEWTON_MAX_STEPS`` steps.
    """
    if not _fits_layout(problem, v0):
        return None
    geom, gamma = problem.geometry, problem.gamma
    M, b = problem.f1.matrix, problem.f1.offset
    if b is not None:
        gB, gb = gamma * M, gamma * b
    else:
        d1, d2 = M.shape
        gB = np.zeros((d1 + d2, d1 + d2))
        gB[:d1, d1:] = gamma * M
        gB[d1:, :d1] = -gamma * M.T
        gb = 0.0
    n = gB.shape[0]
    ends = np.cumsum(geom.block_dims).tolist()
    bounds = list(zip([0] + ends[:-1], ends))
    c = dgf_grad(geom, problem.anchor).concat() - gamma * problem.offset.concat()
    # G(w) = w - c + gamma (B u + b) = w - c_b + gB u.  Its round-off scale
    # is |w| + |c| + |gb| + |gB| (|u| + |D| |w|): the magnitudes of the
    # summed terms, with the rounding of w carried through the mirror map
    c_b = c - gb
    abs_gB, abs_c = np.abs(gB), np.abs(c) + np.abs(gb)

    def evaluate(w):
        u, diag, rank_one = mirror_map(
            geom, DualVector(tuple(w[lo:hi] for lo, hi in bounds))
        )
        uc, abs_w = u.concat(), np.abs(w)
        spread = np.abs(uc) + diag * abs_w
        for (beta, v), (lo, hi) in zip(rank_one, bounds):
            spread[lo:hi] += beta * np.abs(v) * (np.abs(v) @ abs_w[lo:hi])
        g = w - c_b + gB @ uc
        scale = abs_w + abs_c + abs_gB @ spread
        done = bool((np.abs(g) <= NEWTON_RTOL * scale).all())
        return u, diag, rank_one, g, math.sqrt(g @ g), done

    w = c_b - gB @ v0.concat()
    try:
        u, diag, rank_one, g, norm, done = evaluate(w)
        steps = 0
        while not done:
            if steps == NEWTON_MAX_STEPS:
                return None
            # I + gamma B D, D = diag(diag) - beta_k v_k v_k^T per block
            J = gB * diag
            for (beta, v), (lo, hi) in zip(rank_one, bounds):
                J[:, lo:hi] -= np.outer(beta * (gB[:, lo:hi] @ v), v)
            J.flat[:: n + 1] += 1.0
            dw = np.linalg.solve(J, -g)
            t = 1.0
            while True:
                trial = evaluate(w + t * dw)
                if trial[4] <= (1.0 - 1e-4 * t) * norm:
                    break
                t *= 0.5
                if t < NEWTON_MIN_STEP:
                    return None
            w = w + t * dw
            u, diag, rank_one, g, norm, done = trial
            steps += 1
    except (ParameterError, NumericsError, np.linalg.LinAlgError):
        return None
    return u, steps


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
    every coordinate at or above ``TINY_MASS``.  Euclidean geometry with a
    bilinear F1 on two equal simplex blocks, or an affine F1 on the l2
    ball, runs :func:`_composite_mp_euclidean`, which returns the generic
    loop's iterate and count bit for bit.  ``force_generic`` and
    ``record_path`` select the block-wise generic loop for every setup.
    The outer solver calls this for the subproblems :func:`newton_solve`
    leaves to it: the a-norm ball, and Newton solves that missed their
    target.
    """
    if max_iters < 1:
        raise ParameterError(f"max_iters must be >= 1, got {max_iters}")
    if movement_tol < 0.0:
        raise ParameterError("movement_tol must be >= 0")
    if not record_path and not force_generic:
        if _log_space_ok(problem):
            return _composite_mp_log(problem, v0, max_iters, movement_tol)
        if _euclidean_ok(problem, v0):
            return _composite_mp_euclidean(problem, v0, max_iters, movement_tol)

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
