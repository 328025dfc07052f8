"""Independent numerical oracles used by the test suite.

Nothing here reuses the closed forms under test: simplex minimizations go
through a damped Newton method on the reduced (d-1)-variable problem,
Euclidean projections through exact support enumeration, ball proxes
through scipy's constrained solvers, and the similarity constant through
random sampling.  The outer step is written out block by block, each
block its own array, as the solvers ran it before they ran on flat
arrays (:func:`per_block_run`).  The ``wrapper_*`` functions write the
primitives that the solvers run through numpy's ufuncs and ndarray
methods with numpy's Python-level wrappers instead (``np.sort``,
``x.sum()``, ``x.max()``, Python's ``sum``), as the solvers ran them
before.
"""

import itertools
import math
from types import SimpleNamespace

import numpy as np

from visim.errors import DivergenceInfinite, NumericsError
from visim.geometry import (
    TINY_MASS,
    GeometryKind,
    Point,
    _ball_constrained_solve,
    dgf_grad,
    has_mass,
    project_block_simplex,
    prox_map,
    validate_point,
)
from visim.inner import CompositeProblem, NewtonSystem, composite_mp, newton_solve_flat
from visim.paus import _inner_plan


def newton_simplex(grad_full, hess_diag_full, d, iters=5000, tol=1e-14):
    """Minimize a convex function with diagonal Hessian over the simplex.

    Each iteration eliminates the currently largest coordinate (computing a
    tiny coordinate as 1 - sum of the rest would floor it at float
    cancellation noise) and runs damped Newton on the remaining d-1; the
    KL/entropy barrier keeps the minimizer interior, so feasibility
    backtracking suffices.
    """
    x = np.full(d, 1.0 / d)
    for _ in range(iters):
        p = int(np.argmax(x))
        others = [i for i in range(d) if i != p]
        gf = grad_full(x)
        hd = hess_diag_full(x)
        gr = gf[others] - gf[p]
        H = np.diag(hd[others]) + hd[p]
        dx = np.linalg.solve(H, -gr)
        dp = -dx.sum()
        # fraction-to-the-boundary rule: the longest step keeping a 0.5%
        # margin to every simplex face (much faster than plain halving when
        # the minimizer hugs the boundary)
        t = 1.0
        for xi, di in zip(x[others], dx):
            if di < 0.0:
                t = min(t, -0.995 * xi / di)
        if dp < 0.0:
            t = min(t, -0.995 * x[p] / dp)
        new = x.copy()
        while t > 1e-18:
            new[others] = x[others] + t * dx
            new[p] = 1.0 - new[others].sum()
            if np.all(new > 0.0):
                break
            t *= 0.5
        x = new
        # stop on a tiny reduced gradient, or once every coordinate's
        # relative movement is at the float noise floor (the gradient holds
        # log terms whose rounding noise can exceed tol near the boundary)
        rel = max(
            abs(t * di) / xi for xi, di in zip(x[others], dx)
        ) if d > 1 else 0.0
        if np.abs(gr).max() * t < tol or rel < 1e-14:
            break
    return x


def entropy_prox_oracle(center, g, step):
    """argmin over the simplex of step*<g,x> + KL(x, center)."""
    center = np.asarray(center, dtype=float)
    g = np.asarray(g, dtype=float)
    logc = np.log(center)
    return newton_simplex(
        lambda x: step * g + np.log(x) - logc + 1.0,
        lambda x: 1.0 / x,
        center.size,
    )


def entropy_composite_oracle(anchor, center, g, eta):
    """argmin over the simplex of <g,x> + eta*KL(x,anchor) + KL(x,center)."""
    anchor = np.asarray(anchor, dtype=float)
    center = np.asarray(center, dtype=float)
    g = np.asarray(g, dtype=float)
    la, lc = np.log(anchor), np.log(center)
    return newton_simplex(
        lambda x: g + eta * (np.log(x) - la) + (np.log(x) - lc),
        lambda x: (1.0 + eta) / x,
        center.size,
    )


def euclidean_projection_oracle(v):
    """Exact simplex projection by enumerating all support sets (use only
    for small d)."""
    v = np.asarray(v, dtype=float)
    d = v.size
    best, best_val = None, np.inf
    for r in range(1, d + 1):
        for support in itertools.combinations(range(d), r):
            s = list(support)
            theta = (v[s].sum() - 1.0) / len(s)
            x = np.zeros(d)
            x[s] = v[s] - theta
            if np.any(x[s] < -1e-15):
                continue
            x = np.maximum(x, 0.0)
            val = float((x - v) @ (x - v))
            if val < best_val:
                best, best_val = x, val
    return best


def euclidean_composite_oracle(anchor, center, g, eta):
    """argmin over the simplex of <g,x> + eta/2 ||x-anchor||^2
    + 1/2 ||x-center||^2, via the exact projection oracle."""
    target = (eta * np.asarray(anchor) + np.asarray(center) - np.asarray(g)) / (
        1.0 + eta
    )
    return euclidean_projection_oracle(target)


def ball_prox_oracle(center, g, step, a, p, radius, shift=None):
    """Constrained solve of step*<g,z> + V_a(z, center) on an lp ball with
    scipy; accuracy ~1e-8, good enough for the looser ball tolerances."""
    from scipy.optimize import minimize

    center = np.asarray(center, dtype=float)
    g = np.asarray(g, dtype=float)
    sh = np.zeros_like(center) if shift is None else np.asarray(shift, dtype=float)

    def w(z):
        x = z - sh
        return float(np.sum(np.abs(x) ** a) ** (2.0 / a)) / (2.0 * (a - 1.0))

    def gw(z):
        x = z - sh
        na = float(np.sum(np.abs(x) ** a) ** (1.0 / a))
        if na == 0.0:
            return np.zeros_like(x)
        return np.sign(x) * np.abs(x) ** (a - 1.0) * na ** (2.0 - a) / (a - 1.0)

    gc = gw(center)

    def obj(z):
        return step * float(g @ z) + w(z) - w(center) - float(gc @ (z - center))

    cons = {"type": "ineq", "fun": lambda z: radius - np.sum(np.abs(z) ** p) ** (1 / p)}
    best, best_val = None, np.inf
    for x0 in (center, np.zeros_like(center), center * 0.5):
        res = minimize(
            obj, x0, method="SLSQP", constraints=[cons],
            options={"maxiter": 800, "ftol": 1e-16},
        )
        if res.fun < best_val:
            best, best_val = np.asarray(res.x, dtype=float), float(res.fun)
    return best


def sampled_similarity_ratio(f1, f_avg, trials, seed, block_dims):
    """Largest ratio ||(F1 - F)(u) - (F1 - F)(v)||_inf / ||u - v||_1 over
    ``trials`` random pairs (u, v) of points on the product of simplices
    with ``block_dims``; a lower bound for the similarity constant delta
    in the l1/linf pairing."""
    rng = np.random.default_rng(seed)

    def dev(z):
        return f1(z.concat()) - f_avg(z.concat())

    worst = 0.0
    for _ in range(trials):
        u = Point.of(*(rng.dirichlet(np.ones(d)) for d in block_dims))
        v = Point.of(*(rng.dirichlet(np.ones(d)) for d in block_dims))
        num = float(np.abs(dev(u) - dev(v)).max())
        den = float(np.abs(u.concat() - v.concat()).sum())
        if den > 0.0:
            worst = max(worst, num / den)
    return worst


# ---------------------------------------------------------------------------
# the outer step block by block


def per_block_evaluate(shard, blocks):
    """A shard's F at a point given as a list of blocks: [M y, -(x M)], or
    [A z + b]."""
    M = shard.matrix
    if shard.offset is not None:
        return [M @ blocks[0] + shard.offset]
    x, y = blocks
    return [M @ y, -(x @ M)]


def per_block_floor(blocks):
    """Each block clamped at ``TINY_MASS`` and divided by its own sum."""
    out = []
    for b in blocks:
        nb = np.maximum(b, TINY_MASS)
        nb /= nb.sum()
        out.append(nb)
    return out


def per_block_grad(geometry, blocks):
    """grad w block by block: log(b) + 1 for entropy, b - centre for the
    Euclidean setups."""
    if geometry.kind is GeometryKind.ENTROPY_SIMPLEX:
        return [np.log(b) + 1.0 for b in blocks]
    return [b if geometry.center is None else b - geometry.center
            for b in blocks]


def per_block_prox(geometry, center, g, step):
    """The prox map block by block: the softmax of log(c) - step g for
    entropy, the projection of c - step g for the Euclidean setups, and
    ``prox_map`` itself for the a-norm ball, which has one block."""
    out = []
    for cb, gb in zip(center, g):
        if geometry.kind is GeometryKind.A_NORM_BALL:
            out.append(prox_map(geometry, cb, gb, step))
        elif geometry.kind is GeometryKind.ENTROPY_SIMPLEX:
            e = np.log(cb) - step * gb
            e -= e.max()
            np.exp(e, out=e)
            e /= e.sum()
            out.append(e)
        elif not geometry.kind.ball:
            out.append(project_block_simplex(cb - step * gb))
        else:
            v = cb - step * gb
            n, r = float(np.linalg.norm(v)), geometry.radius
            out.append(v if n <= r else v * (r / n))
    return out


def per_block_composite_prox(geometry, anchor, center, g, eta):
    """The composite prox map block by block, for eta > 0: the softmax of
    eta/(1+eta) log(a) + (log(c) - g)/(1+eta) for entropy, the projection
    of (eta a + c - g)/(1+eta) for the Euclidean setups (a recentred DGF
    shifts both divergences alike), and for the a-norm ball, which has one
    block, the ball solve at (eta grad w(a) + grad w(c) - g)/(1+eta)."""
    out = []
    for ab, cb, gb in zip(anchor, center, g):
        if geometry.kind is GeometryKind.A_NORM_BALL:
            ga, gc = dgf_grad(geometry, ab), dgf_grad(geometry, cb)
            out.append(_ball_constrained_solve(
                geometry, (eta * ga + gc - gb) / (1.0 + eta)))
        elif geometry.kind is GeometryKind.ENTROPY_SIMPLEX:
            wa, wc = eta / (1.0 + eta), 1.0 / (1.0 + eta)
            e = wa * np.log(ab) + wc * np.log(cb) - wc * gb
            e -= e.max()
            np.exp(e, out=e)
            e /= e.sum()
            out.append(e)
        else:
            v = (eta * ab + cb - gb) / (1.0 + eta)
            if not geometry.kind.ball:
                out.append(project_block_simplex(v))
            else:
                n, r = float(np.linalg.norm(v)), geometry.radius
                out.append(v if n <= r else v * (r / n))
    return out


def per_block_run(solver, config, cluster, gap_fn=None, keep_iterates=False,
                  log_predicate=None, system=None):
    """``paus_run`` (``solver`` "paus") or ``mirror_prox_run``
    ("mirror-prox") written out block by block, each block its own array.

    Every gather is one product by the cluster's average operator at one
    point; this function counts its rounds and bytes on ``cluster`` itself.
    A paus subproblem goes to ``newton_solve_flat`` (with ``system``, or
    one built here) and, when that gives up, to ``composite_mp``; on the
    a-norm ball it goes to ``composite_mp`` at once.  F1 is evaluated once
    per point: the solve gets F1 at its warm start (z^0's at first, then
    the last u's) and gives back F1 at its answer, which the step keeps
    unless it floored u or the solve gave none.  On an entropy saddle the
    reduced attempt starts from the softmax of the log y of the last
    answers extrapolated, 3 (l_1 - l_2) + l_3 after three answers and
    2 l_1 - l_2 after two, except after an answer of the continuation in
    gamma (the solve gave F1 there); with fewer than two answers it starts
    from the warm start's y.  Returns the ergodic average, the log as
    (round, gap, inner iterations) tuples, the kept paths (flat, as
    ``paus_run`` keeps them) and the fallbacks.
    """
    geom = config.geometry
    entropy = geom.kind is GeometryKind.ENTROPY_SIMPLEX
    avg, server = cluster.average, cluster.server_shard
    gamma = config.gamma if solver == "paus" else config.stepsize
    if system is None:
        system = NewtonSystem(server, gamma, geom)
    fallbacks = 0
    warm = None
    saddle_entropy = entropy and server.offset is None
    # log y of the last three answers, newest first, and whether the last
    # answer was the continuation's
    log_y, after_continuation = [], False

    def predicted_y():
        if len(log_y) < 2:
            return None
        if len(log_y) == 2:
            e = 2.0 * log_y[0] - log_y[1]
        else:
            e = 3.0 * (log_y[0] - log_y[1]) + log_y[2]
        e -= e.max()
        np.exp(e, out=e)
        e /= e.sum()
        return e

    def gather(blocks):
        cluster.round_count += 1
        cluster.bytes_sent += 2 * cluster.m * sum(b.size for b in blocks) * 8
        return per_block_evaluate(avg, blocks)

    def split(flat):
        return [flat[lo:hi] for lo, hi in geom.layout.bounds]

    def paus_step(z, prev_u):
        nonlocal fallbacks, warm, log_y, after_continuation
        f_z = gather(z)
        f1_z = per_block_evaluate(server, z)
        offset = [a - b for a, b in zip(f_z, f1_z)]
        # the warm start and F1 there: z^0 at first, then the last step's u
        v0, f1_v0 = (z, f1_z) if prev_u is None else warm
        solved = None
        if geom.kind is not GeometryKind.A_NORM_BALL:
            solved = newton_solve_flat(
                system, geom, np.concatenate(per_block_grad(geom, z)),
                np.concatenate(offset), np.concatenate(v0), np.concatenate(f1_v0),
                predicted_y() if saddle_entropy and not after_continuation else None,
            )
        if solved is None:
            fallbacks += 1
            problem = CompositeProblem(
                gamma=gamma, anchor=np.concatenate(z), f1=server,
                offset=np.concatenate(offset), geometry=geom, l_f1=config.l_f1,
            )
            solved = (*composite_mp(problem, np.concatenate(v0), *_inner_plan(config)),
                      None)
        flat_u, inner_iters, flat_f1_u = solved
        u = split(flat_u)
        if entropy:
            u = per_block_floor(u)
        if saddle_entropy:
            log_y = [np.log(u[1])] + log_y[:2]
            # the continuation answers with F1 there
            after_continuation = flat_f1_u is not None
        # F1 at the Newton answer, from the solve's last evaluation, unless
        # u was floored or the solve gave none
        f1_u = (per_block_evaluate(server, u) if entropy or flat_f1_u is None
                else split(flat_f1_u))
        warm = (u, f1_u)
        f_u = gather(u)
        g = [a - b - c + d for a, b, c, d in zip(f_u, f1_u, f_z, f1_z)]
        z_next = per_block_prox(geom, u, g, gamma)
        if entropy:
            z_next = per_block_floor(z_next)
        return u, z_next, inner_iters

    def extragradient(z, prev_w):
        w = per_block_prox(geom, z, gather(z), gamma)
        z_next = per_block_prox(geom, z, gather(w), gamma)
        if entropy:
            w, z_next = per_block_floor(w), per_block_floor(z_next)
        return w, z_next, 0

    step = paus_step if solver == "paus" else extragradient
    validate_point(geom, config.z0.concat())
    z, prev_u = [np.asarray(b, dtype=float) for b in config.z0.blocks], None
    u_sum = [np.zeros(n) for n in geom.block_dims]
    log, u_path, z_path = [], [], [np.concatenate(z)]
    for k in range(config.iters):
        u, z, inner_iters = step(z, prev_u)
        for acc, ub in zip(u_sum, u):
            acc += ub
        prev_u = u
        if keep_iterates:
            u_path.append(np.concatenate(u))
            z_path.append(np.concatenate(z))
        if log_predicate is None or log_predicate(k):
            u_avg = Point(tuple(acc / (k + 1) for acc in u_sum))
            gap = float(gap_fn(u_avg)) if gap_fn is not None else math.nan
            log.append((cluster.round_count, gap, inner_iters))
    return SimpleNamespace(
        u_avg=Point(tuple(acc / config.iters for acc in u_sum)), log=log,
        u_path=u_path, z_path=z_path, inner_fallbacks=fallbacks,
    )


# ---------------------------------------------------------------------------
# primitives written with numpy's Python-level wrappers, as they were before
# the solvers called the ufuncs and ndarray methods those wrappers end in


def wrapper_project_block_simplex(v):
    """project_block_simplex through np.sort, np.cumsum and np.nonzero."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    cond = u - css / idx > 0
    hits = np.nonzero(cond)[0]
    if hits.size == 0:
        raise NumericsError("simplex projection found no threshold")
    rho = int(hits[-1])
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def wrapper_floor_simplex_flat(z, bounds):
    """floor_simplex_flat with each block divided by its ``.sum()``."""
    out = np.maximum(z, TINY_MASS)
    for lo, hi in bounds:
        b = out[lo:hi]
        b /= b.sum()
    return out


def wrapper_worker_mean(arrays):
    """The workers' mean as Python's sum in worker order, divided by m."""
    return sum(arrays[1:], arrays[0]) / len(arrays)


def wrapper_duality_gap(M, x, y):
    """duality_gap through ``.max()`` and ``.min()``."""
    return float((M.T @ x).max() - (M @ y).min())


def wrapper_lp_norm(x, p):
    """_lp_norm for p other than 2 and inf, through np.sum."""
    return float(np.sum(np.abs(x) ** p) ** (1.0 / p))


def wrapper_dgf_value(setup, z):
    """dgf_value through np.sum, for the entropy simplex and the a-norm
    ball."""
    if setup.kind.entropy:
        blocks = [z[lo:hi][has_mass(z[lo:hi])] for lo, hi in setup.layout.bounds]
        return sum(float(np.sum(b * np.log(b))) for b in blocks)
    x = z if setup.center is None else z - setup.center
    a = setup.a
    return float(np.sum(np.abs(x) ** a) ** (2.0 / a)) / (2.0 * (a - 1.0))


def wrapper_entropy_divergence(setup, u, v):
    """bregman_divergence on the entropy simplex through np.any and
    np.sum."""
    total = 0.0
    for lo, hi in setup.layout.bounds:
        ub, vb = u[lo:hi], v[lo:hi]
        mask = has_mass(ub)
        if np.any(mask & ~has_mass(vb)):
            raise DivergenceInfinite("u puts mass where v has none")
        total += float(np.sum(ub[mask] * (np.log(ub[mask]) - np.log(vb[mask]))))
    return max(total, 0.0)
