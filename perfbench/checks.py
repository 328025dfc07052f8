"""Checks of the solvers' outputs, computed apart from the program.

Each check returns a list of problems (empty when the output passes), so
one corrupted field names itself and the tests can show that every check
rejects what it should.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

SIMPLEX_TOL = 1e-12
ENVELOPE_SLACK = 1.05
SHRINK_FACTOR = 0.55


def game_gap(mean: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """max(A^T x) - min(A y) of the mean game A at the pair (x, y)."""
    return float(np.max(mean.T @ x) - np.min(mean @ y))


def game_value(mean: np.ndarray) -> float:
    """The value min_x max_y x^T A y of the mean game, as the LP
    min t  s.t.  A^T x <= t, sum x = 1, x >= 0, solved by HiGHS."""
    d1, d2 = mean.shape
    c = np.zeros(d1 + 1)
    c[-1] = 1.0
    a_ub = np.hstack([mean.T, -np.ones((d2, 1))])
    a_eq = np.hstack([np.ones((1, d1)), np.zeros((1, 1))])
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(d2), A_eq=a_eq, b_eq=[1.0],
                  bounds=[(0.0, None)] * d1 + [(None, None)], method="highs")
    if res.status != 0:
        raise RuntimeError(f"linprog could not solve the mean game: {res.message}")
    return float(res.fun)


def check_simplex(name: str, p: np.ndarray) -> list[str]:
    if p.min() < -SIMPLEX_TOL or abs(p.sum() - 1.0) > SIMPLEX_TOL:
        return [f"{name} is off the simplex: min {p.min():.3e}, sum - 1 = "
                f"{p.sum() - 1.0:.3e}"]
    return []


def check_game(*, mean, x, y, logged_gap, bound, eps, iters, rounds,
               bytes_sent, m, d) -> list[str]:
    """The returned average of a matrix-game solver.

    ``bound`` is the gap envelope Theta / (K gamma); ``logged_gap`` the gap
    the program logged for its last iterate average.
    """
    problems = check_simplex("x", x) + check_simplex("y", y)
    gap = game_gap(mean, x, y)
    if abs(gap - logged_gap) > 1e-12 * max(1.0, abs(gap)):
        problems.append(f"logged gap {logged_gap!r} differs from the recomputed {gap!r}")
    value = game_value(mean)
    lo, hi = float(np.min(mean @ y)), float(np.max(mean.T @ x))
    slack = 1e-9 * max(1.0, abs(value))
    if not lo - slack <= value <= hi + slack:
        problems.append(f"game value {value!r} outside the bracket [{lo!r}, {hi!r}]")
    if gap > ENVELOPE_SLACK * bound:
        problems.append(f"gap {gap:.6e} above {ENVELOPE_SLACK} x envelope {bound:.6e}")
    if gap > eps:
        problems.append(f"gap {gap:.6e} above eps {eps:g}")
    if rounds != 2 * iters:
        problems.append(f"{rounds} rounds for {iters} iterations (want {2 * iters})")
    want_bytes = rounds * 2 * m * 2 * d * 8
    if bytes_sent != want_bytes:
        problems.append(f"{bytes_sent} bytes sent, want {want_bytes}")
    return problems


def check_restart(*, payloads, z_star, z0, stage_points, stage_iters,
                  stage_rounds, z_hat, eps, radius, rounds, bytes_sent,
                  m) -> tuple[np.ndarray, list[str]]:
    """The stages of a restarted run on a Euclidean ball.

    z* is re-solved from the shards' affine payloads (M_i, b_i): the mean
    operator is F(z) = mean(M) z + mean(b), and z* is its zero.  Returns
    the re-solved z* and the problems found.
    """
    problems = []
    mat = np.mean([p[0] for p in payloads], axis=0)
    vec = np.mean([p[1] for p in payloads], axis=0)
    z_ref = np.linalg.solve(mat, -vec)
    if np.linalg.norm(z_ref - z_star) > 1e-9 * max(1.0, np.linalg.norm(z_ref)):
        problems.append(f"z* differs from the re-solved one by "
                        f"{np.linalg.norm(z_ref - z_star):.3e}")
    if np.linalg.norm(z_ref) > radius:
        problems.append(f"z* lies outside the ball: norm {np.linalg.norm(z_ref):.6f}")
    final = float((z_hat - z_ref) @ (z_hat - z_ref))
    if final > eps:
        problems.append(f"||z_hat - z*||^2 = {final:.3e} above eps {eps:g}")
    prev = float(np.linalg.norm(z0 - z_ref))
    for t, p in enumerate(stage_points):
        dist = float(np.linalg.norm(p - z_ref))
        if dist > SHRINK_FACTOR * prev:
            problems.append(f"stage {t} shrank the distance only by "
                            f"{dist / prev:.3f} (want <= {SHRINK_FACTOR})")
        prev = dist
    want_rounds = 2 * sum(stage_iters)
    if rounds != want_rounds or (stage_rounds and stage_rounds[-1] != rounds):
        problems.append(f"{rounds} rounds for {sum(stage_iters)} stage iterations "
                        f"(want {want_rounds})")
    want_bytes = rounds * 2 * m * z_ref.size * 8
    if bytes_sent != want_bytes:
        problems.append(f"{bytes_sent} bytes sent, want {want_bytes}")
    return z_ref, problems
