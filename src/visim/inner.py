"""Server-local solvers for the regularized subproblem

    find u:  <gamma * (F1(u) + offset) + grad w(u) - grad w(anchor), z - u> >= 0

for all feasible z, where ``offset`` is the constant correction
F(anchor) - F1(anchor) shipped from the last communication round.
Everything here runs on the server; no communication rounds are consumed.

:func:`newton_solve_flat` solves it exactly, on flat arrays, for the
entropy and Euclidean (simplex or l2-ball) setups: damped Newton on the
normal map of the mirror map (Robinson 1992; semismooth Newton, Qi & Sun
1993), typically one to three linear solves, stopped at a round-off
residual.  The stop is tested in two tiers: first against the part of
the round-off scale that takes O(n) work, and only when that fails
against the full scale, whose term |gamma B| (|u| + |D| |w|) takes a
product by an n x n matrix; a first-tier pass is a full pass, so the
stop is the full test's.  Each evaluation of the normal map takes F1
once, as ``OperatorShard.evaluate``; the solve takes F1 at its warm start from the
caller, which already holds it, and returns F1 at its answer, so that
the outer step evaluates F1 once per point.  On the Euclidean setups
that normal map is piecewise affine; when the fixed-point start lies on
the affine piece of the warm start, the first step is taken from a dual
point of the warm start itself, and every evaluation tries that piece
(:func:`geometry.piece_map`) before the mirror map, so a step that lands
on the root inside the piece makes no projection (the primal-dual
active set view of semismooth Newton, Hintermueller, Ito & Kunisch
2002).  A run builds one
:class:`NewtonSystem` for its fixed F1 and gamma, which takes a saddle
problem's steps through a d x d Schur complement and factors the
interior-ball matrix once.  A solve makes one attempt and has one
recovery:

1. the attempt: for an entropy saddle, Newton on the normal map reduced
   to the y-block (nonlinear elimination of the x-block row; Lanzkron,
   Rose & Wilkes 1996), whose Jacobian is that Schur complement, started
   from a y-block the caller may predict (the outer step extrapolates the
   log y of its last answers along the path of subproblem solutions, a
   predictor step; Allgower & Georg 1990) and stopped by the same
   two-tier test; for every other setup, Newton on the full normal map;
2. for an attempt that stalls or misses its target within
   ``NEWTON_MAX_STEPS`` steps, continuation in gamma from
   min(gamma / 2, 1 / max|B|), each level a full Newton solve.

It returns None for a subproblem the continuation does not solve
either; the outer solver then runs :func:`composite_mp`, as it does for
every subproblem on the a-norm ball, which has no closed-form mirror map.

:func:`composite_mp` is the paper's composite extragradient loop.  Each
iteration takes two composite proximal steps with weight
eta = 1 / (2 * gamma * L_F1) and contracts the divergence to the
subproblem's solution by 1 / (1 + eta), so

    T = ceil((3 L_F1 / delta) * log(V0 / eps))

iterations reach Bregman accuracy eps when gamma = 1 / delta.  It is one
loop for every geometry; entropy iterates are floored at ``TINY_MASS`` so
that a coordinate that underflows stays interior.

Both solvers take and return flat arrays, their blocks concatenated as
``geometry.layout`` says, and so does :class:`CompositeProblem`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError
from numpy.linalg._umath_linalg import solve1 as _gesv

from .errors import NumericsError, ParameterError, check_positive
from .geometry import (
    GeometrySetup,
    bregman_divergence,
    composite_prox_map,
    floor_simplex_flat,
    mirror_map_flat,
    piece_map,
    softmax,
)
from .operators import OperatorShard

# Newton steps an exact solve may take; a solve still off its target after
# them is left to the extragradient loop
NEWTON_MAX_STEPS = 30
# a residual component is at round-off once it is this small relative to
# the sum of the magnitudes of the terms it is the difference of
NEWTON_RTOL = 1e-14
# the shortest backtracking step before a Newton solve gives up
NEWTON_MIN_STEP = 2.0**-30
# the failed solves each phase of a gamma continuation may make before the
# subproblem is left to the extragradient loop
_GAMMA_CONTINUATION_CAP = 10


@dataclass
class InnerSettings:
    """The extragradient loop's accuracy.

    Subproblems that :func:`newton_solve_flat` covers are solved to round-off
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
    geometry's pairing.  ``anchor`` and ``offset`` are flat arrays, their
    blocks concatenated as ``geometry.layout`` says.
    """

    gamma: float
    anchor: np.ndarray
    f1: OperatorShard
    offset: np.ndarray
    geometry: GeometrySetup
    l_f1: float

    def __post_init__(self):
        check_positive("gamma", self.gamma)
        check_positive("L_F1", self.l_f1)

    @property
    def eta(self) -> float:
        return 1.0 / (2.0 * self.gamma * self.l_f1)

    def gradient(self, v: np.ndarray) -> np.ndarray:
        """gamma * eta * (F1(v) + offset), the step used by both half-steps."""
        return (self.gamma * self.eta) * (self.f1.evaluate(v) + self.offset)


class NewtonSystem:
    """What every Newton solve of one run shares, built once per run from
    the fixed F1, gamma and block layout of the geometry: the block matrix
    gB = gamma B, the offset gb = gamma b, |gb| and |gB| (the round-off
    scale of the residual's gamma F1 term: |gb| enters the first tier of
    the stop, |gB| only the second, see :func:`_at_round_off`), and the
    linear solve (I + gB D) dw = r of each step, where D = diag(a) - beta_k v_k v_k^T
    per block comes from :func:`geometry.mirror_map_flat`.

    A saddle F1 = (M y, -M^T x) on two blocks takes the d x d Schur
    complement (:meth:`schur`): with P = gamma M D_2 and Q = gamma M^T D_1,
    it solves (I + Q P) y = r_2 + Q r_1 and sets x = r_1 - P y.  I + Q P
    is nonsingular because Q P = (gamma^2 M^T D_1 M) D_2 is a product of
    two positive semidefinite matrices, whose eigenvalues are real and
    nonnegative.  The same I + Q P is the Jacobian of the reduced normal
    map in y alone (:meth:`reduced_step`).  An affine F1 = A z + b on one
    block solves with the LU factors of I + gamma A whenever the mirror
    map reports D = I (the interior of the l2 ball), factored on first use
    and kept for the run; any other D gets a dense solve.  Nothing here
    depends on where the geometry is centred, so the stages of a restarted
    run, which recentre it, share one system.
    """

    def __init__(self, f1: OperatorShard, gamma: float, geometry: GeometrySetup):
        self.f1, self.gamma, self.block_dims = f1, gamma, geometry.block_dims
        M = f1.matrix
        self.saddle = f1.offset is None
        if self.saddle:
            d1, d2 = M.shape
            self.gM, self.gMT = gamma * M, gamma * np.ascontiguousarray(M.T)
            self.gB = np.zeros((d1 + d2, d1 + d2))
            self.gB[:d1, d1:] = self.gM
            self.gB[d1:, :d1] = -self.gMT
            self.gb = 0.0
        else:
            self.gB, self.gb = gamma * M, gamma * f1.offset
        self.abs_gB, self.abs_gb = np.abs(self.gB), np.abs(self.gb)
        self.max_abs_gB = float(self.abs_gB.max(initial=0.0))
        self._interior_lu = None

    def serves(self, f1: OperatorShard, gamma: float, geometry: GeometrySetup) -> bool:
        """Whether this system was built for ``f1``, ``gamma`` and the
        block layout of ``geometry``."""
        return (self.f1 is f1 and self.gamma == gamma
                and self.block_dims == geometry.block_dims)

    def schur(self, a1, t1, v1, a2, t2, v2):
        """P = gamma M D_2, Q = gamma M^T D_1 and S = I + Q P for the
        blocks' D_k = diag(a_k) - beta_k v_k v_k^T, given t_2 = beta_2
        gamma M v_2 and t_1 = beta_1 gamma M^T v_1."""
        P = self.gM * a2
        P -= t2[:, None] * v2
        Q = self.gMT * a1
        Q -= t1[:, None] * v1
        S = Q @ P
        S.ravel()[:: v2.size + 1] += 1.0
        return P, Q, S

    def step(self, g: np.ndarray, diag: np.ndarray, rank_one) -> np.ndarray:
        """The Newton step dw with (I + gB D) dw = -g."""
        if self.saddle:
            (b1, v1), (b2, v2) = rank_one
            d1 = v1.size
            P, Q, S = self.schur(diag[:d1], b1 * (self.gMT @ v1), v1,
                                 diag[d1:], b2 * (self.gM @ v2), v2)
            r = -g
            r1 = r[:d1]
            dw = np.empty_like(g)
            dw[d1:] = y = _solve(S, r[d1:] + Q @ r1)
            np.subtract(r1, P @ y, out=dw[:d1])
            return dw
        ((beta, v),) = rank_one
        if beta == 0.0 and np.logical_and.reduce(diag == 1.0):
            if self._interior_lu is None:
                from scipy.linalg import lapack, lu_factor

                J = np.eye(g.size) + self.gB
                self._interior_lu = lu_factor(J, check_finite=False)
                # the routine scipy's lu_solve calls, without its argument
                # checks
                self._getrs = lapack.dgetrs
            x, info = self._getrs(*self._interior_lu, -g)
            if info != 0:
                raise LinAlgError(f"dgetrs rejected argument {-info}")
            return x
        J = self.gB * diag
        J -= (beta * (self.gB @ v))[:, None] * v
        J.ravel()[:: J.shape[0] + 1] += 1.0
        return _solve(J, -g)

    def reduced_step(self, g2, u1, u2, p, q) -> np.ndarray:
        """The step dy with (I + Q P) dy = -g2 of the reduced normal map at
        the softmax points u_1, u_2, given p = gamma M u_2 and
        q = gamma M^T u_1 (the softmax Jacobians have beta = 1)."""
        _, _, S = self.schur(u1, q, u1, u2, p, u2)
        return _solve(S, -g2)


def _solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with A x = b by numpy's LAPACK gesv, the routine np.linalg.solve
    wraps (same bits), without that wrapper's per-call argument handling.
    It answers a singular A with NaNs, which raise LinAlgError here as in
    np.linalg.solve."""
    with np.errstate(invalid="ignore"):
        x = _gesv(A, b)
    if math.isnan(x[0]):
        raise LinAlgError("Singular matrix")
    return x


def newton_solve_flat(
    system: NewtonSystem,
    geometry: GeometrySetup,
    grad: np.ndarray,
    offset: np.ndarray,
    v0: np.ndarray,
    f1_v0: np.ndarray,
    y_start: np.ndarray | None = None,
) -> tuple[np.ndarray, int, np.ndarray | None] | None:
    """Solve the subproblem exactly by damped Newton on the normal map.

    The operands are concatenated as ``geometry.layout`` says: ``grad`` =
    grad w(anchor), the offset, the start ``v0`` and ``f1_v0`` = F1(v0),
    which the caller already holds (the outer step keeps F1 at the point
    it warm-starts from).  With F1(u) = B u + b and
    c = grad - gamma * offset, the solution is u = grad w*(w)
    (:func:`geometry.mirror_map_flat`) for the root w of
    G(w) = w - c + gamma F1(grad w*(w))  (Robinson's normal map); each
    evaluation of G takes F1(u) as ``system.f1.evaluate(u)``.  Each
    step solves (I + gamma B D) dw = -G, with D the mirror map's
    (generalised) Jacobian, and halves the step until ||G|| decreases.  The
    matrix is nonsingular: D is symmetric positive semidefinite and B
    monotone.  It stops once every component of G is at round-off,
    ``NEWTON_RTOL`` times the magnitudes it is the difference of; a trial
    point at round-off is taken even if ||G|| did not decrease.  Those
    magnitudes are |w| + |c| + |gamma b| and |gamma B| (|u| + |D| |w|);
    each evaluation first tests G against the first part alone, O(n), and
    forms the second, a product by an n x n matrix, only when that test
    fails or ||G|| is not finite (:func:`_at_round_off`).  A pass of the
    first test is a pass of the full one, so each stop, step and bit is
    the full test's.

    The solve starts from w = c - gamma F1(v0), so that grad w*(w) is one
    fixed-point step from ``v0``; it takes no product with B.  On a
    Euclidean setup the normal map is piecewise affine.  If w lies on the
    affine piece of ``v0`` (:func:`geometry.piece_map`: the projection
    keeps v0's support on the simplex; w + center is inside the l2 ball),
    the map there, u(w) and D, comes without a sort or a projection, and
    the solve starts instead at w0 = w + v0 - u(w), which the map takes to
    ``v0``: G(w0) = v0 - u(w).  On that piece G is affine, so the first
    Newton step is the one a start at w would take, and it lands on the
    root when the answer lies on the piece: one step, one evaluation of
    F1 and no projection.  Every evaluation on a Euclidean setup tries
    v0's piece first and calls the mirror map only off it; inside the l2
    ball that gives the radial map's own bits.  That start takes a step
    before any residual test, so under a zero ``NEWTON_MAX_STEPS`` it
    answers nothing.

    An entropy saddle subproblem runs the same Newton iteration on the
    y-block alone instead (:func:`_reduced_newton`): the x-block row of G
    is solved exactly at every iterate (nonlinear elimination, Lanzkron,
    Rose & Wilkes 1996), which takes fewer steps from the same warm start.
    It starts from ``y_start``, a predicted y-block, when one is given,
    else from v0's y-block; nothing else reads ``y_start``.

    That one attempt either answers or fails: it stalls (no decrease down
    to step ``NEWTON_MIN_STEP``, a non-finite trial point or a singular
    step) or misses its target within ``NEWTON_MAX_STEPS`` steps.  A failed
    attempt goes on by continuation in gamma (:func:`_continue_in_gamma`):
    a smaller gamma weakens F1's coupling, so damped Newton no longer
    stalls at a kink of the piecewise-affine simplex normal map or creeps
    under strong coupling; each level is a full Newton solve, which forms c
    at its gamma the same way and starts as above.

    ``system`` is the run's :class:`NewtonSystem` for the subproblem's F1,
    gamma and block layout; one built for another layout raises
    :class:`ParameterError`, as does the a-norm ball, which
    :func:`geometry.mirror_map_flat` does not cover.  Returns the
    concatenated solution, the number of Newton steps taken, a failed
    attempt's included, and F1 at the solution (the full iteration's last
    evaluation; None when the reduced attempt answered), or None for a
    subproblem the continuation does not solve either.
    """
    if system.block_dims != geometry.block_dims:
        raise ParameterError("the Newton system was built for another layout")
    c = grad - system.gamma * offset
    if system.saddle and geometry.kind.entropy:
        y0 = v0[system.gM.shape[0]:] if y_start is None else y_start
        u, steps = _reduced_newton(system, c, y0)
        answer = None if u is None else (u, None)
    else:
        answer, steps = _damped_newton(system, geometry, c, v0, f1_v0)
    if answer is None:
        answer, more = _continue_in_gamma(system, geometry, grad, offset, v0, f1_v0)
        steps += more
    return None if answer is None else (answer[0], steps, answer[1])


def _continue_in_gamma(
    system: NewtonSystem,
    geometry: GeometrySetup,
    grad: np.ndarray,
    offset: np.ndarray,
    v0: np.ndarray,
    f1_v0: np.ndarray,
) -> tuple[tuple[np.ndarray, np.ndarray] | None, int]:
    """Solve from ``v0`` at gamma_0 = min(gamma / 2, 1 / max|B|), where
    gamma |B| is at most 1 and F1's coupling weak, halving gamma until a
    Newton solve converges, then climb back to the system's gamma by
    doubling it, each level warm-started from the last answer and F1
    there; a level that stalls is retried from that answer with the
    square root of the ratio.  gamma_0 stays below the gamma whose solve
    from ``v0`` has just failed.  Each level solves with
    c = grad - gamma_level * offset, and ``system`` serves the last level.
    Each phase gives up after ``_GAMMA_CONTINUATION_CAP`` failed solves.
    Returns the answer and F1 there (None if it gave up) and the steps
    taken."""
    gamma, steps = system.gamma, 0

    def solve(g, start):
        nonlocal steps
        level_system = (system if g == gamma
                        else NewtonSystem(system.f1, g, geometry))
        answer, more = _damped_newton(level_system, geometry, grad - g * offset,
                                      *start)
        steps += more
        return answer

    # max|gamma B| / gamma = max|B|
    lo = gamma / max(2.0, system.max_abs_gB)
    for _ in range(_GAMMA_CONTINUATION_CAP):
        answer = solve(lo, (v0, f1_v0))
        if answer is not None:
            break
        lo /= 2.0
    else:
        return None, steps
    ratio, failures = 2.0, 0
    while lo < gamma:
        g = gamma if lo * ratio >= gamma else lo * ratio
        nxt = solve(g, answer)
        if nxt is not None:
            lo, answer = g, nxt
            continue
        failures += 1
        if failures == _GAMMA_CONTINUATION_CAP:
            return None, steps
        ratio = math.sqrt(ratio)
    return answer, steps


def _damped(evaluate, step, w, start=None):
    """Damped Newton from ``w``.  ``evaluate(w)`` returns the answer at w,
    the residual G, ||G||, whether G is at round-off and the Jacobian terms
    that ``step(G, *terms)`` takes to give the Newton step; ``start``, when
    given, is that tuple at w, formed without ``evaluate``.  Each step is
    halved until ||G|| decreases or is at round-off.  Returns the answer
    (None if the solve stalls, a non-finite point or a singular step
    included, or misses its target within ``NEWTON_MAX_STEPS`` steps) and
    the steps taken."""
    steps = 0
    try:
        u, g, norm, done, terms = evaluate(w) if start is None else start
        while not done:
            if steps == NEWTON_MAX_STEPS:
                return None, steps
            dw = step(g, *terms)
            t = 1.0
            while True:
                w_trial = w + dw if t == 1.0 else w + t * dw
                trial = evaluate(w_trial)
                # a trial at round-off ends the solve even without a
                # decrease, which a start already at round-off may not give
                if trial[2] <= (1.0 - 1e-4 * t) * norm or trial[3]:
                    break
                t *= 0.5
                if t < NEWTON_MIN_STEP:
                    return None, steps
            w = w_trial
            u, g, norm, done, terms = trial
            steps += 1
    except (NumericsError, LinAlgError):
        # a non-finite point or a singular step: a stall
        return None, steps
    return u, steps


def _at_round_off(
    g: np.ndarray, norm: float, part: np.ndarray, product
) -> bool:
    """Whether every component of the residual ``g`` of
    :func:`_damped_newton`, whose norm is ``norm``, is at round-off:
    |G| <= NEWTON_RTOL (|gB| spread + part), with ``part`` =
    |w| + |c| + |gb| and ``product()`` giving |gB| spread, the one term
    that takes a product by an n x n matrix; for :func:`_reduced_newton`,
    part = |w_2| + |c_2| and the product its |gM^T| term.  The first tier asks
    |G| <= NEWTON_RTOL part: |gB| spread is nonnegative and IEEE rounding
    monotone, so a pass there is a pass of the full test.  Only a residual
    that fails it, or whose norm is not finite (a w with an infinite
    coordinate can pass it, where the full scale is NaN, a fail), forms
    the product for the full test.  The verdict is the full test's unless
    |gB| spread overflows, which takes terms near the largest double."""
    abs_g = np.abs(g)
    if math.isfinite(norm) and np.logical_and.reduce(abs_g <= NEWTON_RTOL * part):
        return True
    scale = product()
    scale += part
    scale *= NEWTON_RTOL
    return bool(np.logical_and.reduce(abs_g <= scale))


def _normal_map(
    system: NewtonSystem, geometry: GeometrySetup, c: np.ndarray, v0: np.ndarray
):
    """The evaluation ``evaluate(w)`` that :func:`_damped` takes for the
    full normal map G(w) = w - c + gamma F1(u(w)) of a solve from ``v0``
    (see :func:`newton_solve_flat`): it returns (u, F1(u)), G, ||G||,
    whether G is at round-off (:func:`_at_round_off`) and the mirror
    map's Jacobian terms (diag, rank_one)."""
    f1, gamma, bounds = system.f1, system.gamma, geometry.layout.bounds
    euclidean = geometry.kind.euclidean
    # G(w) = w - c + gamma F1(u).  Its round-off scale is
    # |w| + |c| + |gb| + |gB| (|u| + |D| |w|): the magnitudes of the summed
    # terms, with the rounding of w carried through the mirror map
    abs_gB, abs_c = system.abs_gB, np.abs(c) + system.abs_gb

    def evaluate(w):
        # on v0's affine piece the map needs no sort or projection
        mapped = piece_map(geometry, v0, w) if euclidean else None
        u, diag, rank_one = mirror_map_flat(geometry, w) if mapped is None else mapped
        f1_u = f1.evaluate(u)
        g = w - c
        g += gamma * f1_u
        norm = math.sqrt(g @ g)
        abs_w = np.abs(w)

        def product():
            spread = diag * abs_w
            spread += np.abs(u)
            for (beta, v), (lo, hi) in zip(rank_one, bounds):
                if beta:  # a term with beta = 0 (the ball's interior) adds +0.0
                    abs_v = np.abs(v)
                    spread[lo:hi] += beta * abs_v * (abs_v @ abs_w[lo:hi])
            return abs_gB @ spread

        done = _at_round_off(g, norm, abs_w + abs_c, product)
        return (u, f1_u), g, norm, done, (diag, rank_one)

    return evaluate


def _damped_newton(
    system: NewtonSystem,
    geometry: GeometrySetup,
    c: np.ndarray,
    v0: np.ndarray,
    f1_v0: np.ndarray,
) -> tuple[tuple[np.ndarray, np.ndarray] | None, int]:
    """One damped Newton solve of the full normal map from ``v0``, given
    F1(v0), with c = grad w(anchor) - gamma * offset at the system's gamma
    (see :func:`newton_solve_flat`).  Returns the concatenated answer and
    F1 there (None if it stalls or misses its target) and the steps."""
    evaluate = _normal_map(system, geometry, c, v0)
    # one fixed-point step from v0: grad w*(w) = u(c - gamma F1(v0))
    w = c - system.gamma * f1_v0
    if geometry.kind.euclidean:
        # if w lies on the affine piece of v0, a step from anywhere on that
        # piece gives the same iterate.  Take it from w0 = w + v0 - u(w),
        # which the map takes to v0: G(w0) = w0 - w = v0 - u(w), and u(w)
        # and D on the piece need no projection
        mapped = piece_map(geometry, v0, w)
        if mapped is not None:
            u, diag, rank_one = mapped
            g = v0 - u
            return _damped(evaluate, system.step, w + g,
                           ((v0, f1_v0), g, math.sqrt(g @ g), False,
                            (diag, rank_one)))
    return _damped(evaluate, system.step, w)


def _reduced_scale_bound(
    system: NewtonSystem, c1: np.ndarray, abs_c2: np.ndarray
) -> float:
    """S, a bound on every component of the round-off scale of
    :func:`_reduced_newton` at any iterate whose residual is at round-off:
    S = 2 g + 2.02 g (max|c_1| + g) + 2 max|c_2| with g = max |gamma M|.
    u_1 and u_2 are probability vectors, so |p|, |q| <= g,
    u_1.|w_1| <= max|c_1| + g and |w_2| <= |G_2| + |c_2| + g; the factors
    leave room for rounding."""
    g = system.max_abs_gB
    return (2.0 * g + 2.02 * g * (float(np.maximum.reduce(np.abs(c1))) + g)
            + 2.0 * float(np.maximum.reduce(abs_c2)))


def _reduced_newton(
    system: NewtonSystem, c: np.ndarray, y0: np.ndarray
) -> tuple[np.ndarray | None, int]:
    """Damped Newton on the normal map of an entropy saddle subproblem
    reduced to its y-block (see :func:`newton_solve_flat`), with
    c = grad w(anchor) - gamma * offset concatenated.

    With c = (c_1, c_2) and gM = gamma M, an iterate w_2 gives
    u_2 = softmax(w_2), w_1 = c_1 - p with p = gM u_2, u_1 = softmax(w_1)
    and the residual G_2 = w_2 - c_2 - q with q = gM^T u_1, whose Jacobian
    is the Schur matrix I + Q P of :meth:`NewtonSystem.schur`, built from
    p and q.  The solve starts Gauss-Seidel style from the y-block y_0,
    x_0 = softmax(c_1 - gM y_0) and w_2 = c_2 + gM^T x_0, halves its steps
    until ||G_2|| decreases, and stops when G_2 is at ``NEWTON_RTOL`` of
    the magnitudes it is the difference of, tested in two tiers
    (:func:`_at_round_off`): first against |w_2| + |c_2|, O(n), and only
    when that fails against the full scale, whose |gM^T| term takes a
    product by a d_2 x d_1 matrix.  The concatenated answer is None if it
    stalls or misses its target."""
    gM, gMT = system.gM, system.gMT
    d1 = gM.shape[0]
    abs_gMT = system.abs_gB[d1:, :d1]
    c1, c2 = c[:d1], c[d1:]
    abs_c2 = np.abs(c2)
    # a residual with ||G_2|| > sqrt(d_2) NEWTON_RTOL S has a component
    # above its round-off scale; past twice that (room for rounding) the
    # scale is not computed
    far = 2.0 * math.sqrt(c2.size) * NEWTON_RTOL * _reduced_scale_bound(
        system, c1, abs_c2)

    def evaluate(w2):
        u2 = softmax(w2)
        p = gM @ u2
        w1 = c1 - p
        u1 = softmax(w1)
        q = gMT @ u1
        g2 = w2 - c2
        g2 -= q
        norm = math.sqrt(g2 @ g2)
        if not math.isfinite(norm):
            # a non-finite iterate, as mirror_map_flat would report it
            raise NumericsError("non-finite residual in the reduced Newton solve")
        if norm > far:
            return (u1, u2), g2, norm, False, (u1, u2, p, q)

        # the round-off scale of _damped_newton on the y-block row:
        # |w_2| + |c_2|, O(n), and |gM^T| (|u_1| + |D| |w_1|), which with the
        # softmax Jacobian D = diag(u) - u u^T is |gM^T| u_1 (|w_1| + 1 +
        # u_1.|w_1|).  The x-block row G_1 = (c_1 - p) - c_1 + p is at most
        # about 3 eps (|c_1| + |p|) by construction, within its scale
        # NEWTON_RTOL (|w_1| + |c_1| + |gM| u_2 (...)) >= NEWTON_RTOL
        # (|c_1| + |p|), so it is not evaluated
        def product():
            abs_w1 = np.abs(w1)
            return abs_gMT @ (u1 * (abs_w1 + (1.0 + u1 @ abs_w1)))

        done = _at_round_off(g2, norm, np.abs(w2) + abs_c2, product)
        return (u1, u2), g2, norm, done, (u1, u2, p, q)

    x0 = softmax(c1 - gM @ y0)
    u, steps = _damped(evaluate, system.reduced_step, c2 + gMT @ x0)
    return (None if u is None else np.concatenate(u)), steps


def composite_mp(
    problem: CompositeProblem,
    v0: np.ndarray,
    max_iters: int,
    movement_tol: float = 0.0,
) -> tuple[np.ndarray, int]:
    """Run the composite extragradient loop from the flat ``v0``.

    Returns the final iterate, flat, and the number of iterations
    performed.  Stops early once the movement V(v^{t+1}, v^t) falls to
    ``movement_tol``.  The loop's state is the iterate alone, so
    ``composite_mp(problem, v, 1)`` from each iterate in turn gives the
    path v^1..v^T bit for bit.

    Entropy full-step iterates are floored at ``TINY_MASS`` by
    :func:`geometry.floor_simplex_flat`, so a coordinate that underflows
    to 0 stays a valid prox center; a start with an exact zero raises
    :class:`DomainError`.  The outer solver calls this for the subproblems
    :func:`newton_solve_flat` leaves to it: the a-norm ball, and Newton
    solves that missed their target.
    """
    if max_iters < 1:
        raise ParameterError(f"max_iters must be >= 1, got {max_iters}")
    if movement_tol < 0.0:
        raise ParameterError("movement_tol must be >= 0")
    geom, anchor, eta = problem.geometry, problem.anchor, problem.eta
    bounds = geom.layout.bounds
    entropy = geom.kind.entropy
    v = v0
    iters = 0
    for t in range(max_iters):
        v_half = composite_prox_map(geom, anchor, v, problem.gradient(v), eta)
        v_next = composite_prox_map(geom, anchor, v, problem.gradient(v_half), eta)
        if not np.logical_and.reduce(np.isfinite(v_next)):
            raise NumericsError(f"non-finite inner iterate at step {t}")
        if entropy:
            v_next = floor_simplex_flat(v_next, bounds)
        # the computed movement is cancellation-limited near the solution
        # (it rounds to 0 once coordinates move less than ~sqrt(eps)), so a
        # zero tolerance means "never stop early" rather than "stop at 0"
        move = (bregman_divergence(geom, v_next, v)
                if movement_tol > 0.0 else None)
        v = v_next
        iters = t + 1
        if move is not None and move <= movement_tol:
            break
    return v, iters
