"""Self-contained invariant suites behind the CLI `check` subcommand.

Each check returns a CheckOutcome; the CLI prints one line per check and
exits nonzero if any fails.  These are quick smoke-level versions of the
full test suite, runnable from an installed package without pytest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bench import GameSpec, estimate_constants, generate_game
from .cluster import ClusterState, shard_data
from .errors import RestartStallError
from .geometry import (
    DualVector,
    Point,
    bregman_divergence,
    entropy_simplex,
    euclidean_ball,
    pairing,
    prox_map,
    uniform_point,
)
from .inner import CompositeProblem, InnerSettings, composite_mp
from .operators import average_operator
from .paus import PausConfig, paus_run
from .restart import (
    RestartConfig,
    num_restarts,
    paus_r,
    synthetic_strongly_monotone,
)


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    detail: str


def _simplex_prox_oracle(center, g, step):
    """Constrained-minimization reference for the entropic prox, via
    scipy on the simplex."""
    from scipy.optimize import minimize

    d = center.size

    def obj(x):
        x = np.maximum(x, 1e-300)
        return step * float(g @ x) + float(
            np.sum(x * (np.log(x) - np.log(center)))
        )

    res = minimize(
        obj,
        np.full(d, 1.0 / d),
        method="SLSQP",
        bounds=[(1e-12, 1.0)] * d,
        constraints=[{"type": "eq", "fun": lambda x: x.sum() - 1.0}],
        options={"maxiter": 500, "ftol": 1e-14},
    )
    return np.asarray(res.x)


def check_geometry_oracles(seed: int = 0, trials: int = 25) -> CheckOutcome:
    """Entropic prox maps against a scipy constrained solve."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        d = int(rng.integers(2, 6))
        setup = entropy_simplex(d, blocks=1)
        center = rng.dirichlet(np.ones(d)) * 0.98 + 0.01 / d
        center /= center.sum()
        g = rng.normal(size=d)
        step = float(rng.uniform(0.1, 2.0))
        got = prox_map(setup, Point.of(center), DualVector.of(g), step)
        ref = _simplex_prox_oracle(center, g, step)
        worst = max(worst, float(np.abs(got.blocks[0] - ref).max()))
    ok = worst < 1e-6
    return CheckOutcome("geometry-prox-oracle", ok, f"max deviation {worst:.2e}")


def check_lemma_certificate(seed: int = 1) -> CheckOutcome:
    """Averaged VI residual of stored iterates stays under the divergence
    envelope for random comparison points."""
    spec = GameSpec(d=5, T=200, m=5, seed=seed)
    mats = generate_game(spec)
    consts = estimate_constants(mats, spec.m)
    cluster = ClusterState(shards=shard_data(mats, spec.m))
    geom = entropy_simplex(spec.d)
    z0 = uniform_point(geom)
    gamma = 1.0 / consts.delta
    K = 30
    cfg = PausConfig(
        gamma=gamma, iters=K, geometry=geom, z0=z0,
        l_f1=consts.L_F1, delta=consts.delta,
    )
    result = paus_run(cfg, cluster, keep_iterates=True)
    f_avg = [average_operator(cluster.shards, u) for u in result.u_path]
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(20):
        z = Point.of(rng.dirichlet(np.ones(spec.d)), rng.dirichlet(np.ones(spec.d)))
        lhs = sum(
            pairing(f, Point(tuple(ub - zb for ub, zb in zip(u.blocks, z.blocks))))
            for f, u in zip(f_avg, result.u_path)
        ) / K
        rhs = bregman_divergence(geom, z, z0) / (K * gamma)
        worst = max(worst, lhs - rhs)
    ok = worst <= 1e-6
    return CheckOutcome("lemma-certificate", ok, f"max residual excess {worst:.2e}")


def check_inner_contraction(seed: int = 3) -> CheckOutcome:
    """Per-iteration contraction of the composite solver against a long
    reference run."""
    spec = GameSpec(d=3, T=50, m=5, seed=seed)
    mats = generate_game(spec)
    consts = estimate_constants(mats, spec.m)
    shards = shard_data(mats, spec.m)
    geom = entropy_simplex(spec.d)
    anchor = uniform_point(geom)
    gamma = 1.0 / consts.delta
    f_anchor = average_operator(shards, anchor)
    f1_anchor = shards[0].evaluate(anchor)
    offset = DualVector(
        tuple(a - b for a, b in zip(f_anchor.blocks, f1_anchor.blocks))
    )
    prob = CompositeProblem(
        gamma=gamma, anchor=anchor, f1=shards[0], offset=offset,
        geometry=geom, l_f1=consts.L_F1,
    )
    eta = prob.eta
    v_star, _ = composite_mp(prob, anchor, 400, 0.0, force_generic=True)
    _, _, path = composite_mp(
        prob, anchor, 40, 0.0, force_generic=True, record_path=True
    )
    worst = -np.inf
    prev = anchor
    for v in path:
        lhs = bregman_divergence(geom, v_star, v)
        rhs = bregman_divergence(geom, v_star, prev) / (1.0 + eta)
        worst = max(worst, lhs - rhs)
        prev = v
    ok = worst <= 1e-9
    return CheckOutcome("inner-contraction", ok, f"max excess {worst:.2e}")


def check_restart_halving(seed: int = 7) -> CheckOutcome:
    """Each restart stage halves the distance to the known solution."""
    mu, delta = 0.05, 1.0
    shards, z_star, consts = synthetic_strongly_monotone(
        dim=4, m=5, mu=mu, delta=delta, seed=seed
    )
    geom = euclidean_ball(4, radius=1.0)
    z0 = uniform_point(geom)
    r0 = float(sum((a - b) @ (a - b) for a, b in zip(z0.blocks, z_star.blocks)))
    cfg = RestartConfig(
        mu=mu, delta=delta, eps=1e-4, geometry=geom, z0=z0,
        r0_sq=r0, l_f1=consts.L_F1,
        inner=InnerSettings(tolerance=1e-12),
    )
    cluster = ClusterState(shards=shards)
    try:
        result = paus_r(cfg, cluster, z_star=z_star)
    except RestartStallError as exc:
        return CheckOutcome("restart-halving", False, str(exc))
    final = result.stages[-1].dist_sq
    want = r0 * 4.0 ** (-num_restarts(r0, cfg.eps))
    ok = final <= want * 1.3
    return CheckOutcome(
        "restart-halving", ok, f"final dist^2 {final:.2e} vs budget {want:.2e}"
    )


def run_all_checks() -> list[CheckOutcome]:
    return [
        check_geometry_oracles(),
        check_lemma_certificate(),
        check_inner_contraction(),
        check_restart_halving(),
    ]
