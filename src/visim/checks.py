"""Self-contained invariant suites behind the CLI `check` subcommand.

Each check returns a CheckOutcome; the CLI prints one line per check and
exits nonzero if any fails.  These are quick smoke-level versions of the
full test suite, runnable from an installed package without pytest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bench import GameSpec, estimate_constants, generate_game
from .cluster import ClusterState, gather_average, shard_data
from .errors import RestartStallError
from .geometry import (
    SIMPLEX_SUM_TOL,
    bregman_divergence,
    entropy_simplex,
    euclidean_ball,
    prox_map,
    uniform_point,
)
from .inner import CompositeProblem, InnerSettings, composite_mp
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


def check_geometry_oracles(seed: int = 0, trials: int = 25) -> CheckOutcome:
    """Entropic prox maps x = prox(c, g, step) against their optimality
    conditions: x > 0 sums to 1, and step g + log x - log c is constant
    up to 1e-12 of its terms' largest magnitude."""
    rng = np.random.default_rng(seed)
    spread, off_sum, positive = 0.0, 0.0, True
    for _ in range(trials):
        d = int(rng.integers(2, 6))
        setup = entropy_simplex(d, blocks=1)
        center = rng.dirichlet(np.ones(d)) * 0.98 + 0.01 / d
        center /= center.sum()
        g = rng.normal(size=d)
        step = float(rng.uniform(0.1, 2.0))
        x = prox_map(setup, center, g, step)
        positive = positive and bool((x > 0.0).all())
        off_sum = max(off_sum, abs(float(x.sum()) - 1.0))
        terms = (step * g, np.log(x), -np.log(center))
        r = sum(terms)
        scale = float(sum(np.abs(t) for t in terms).max())
        spread = max(spread, float(r.max() - r.min()) / scale)
    ok = positive and off_sum <= SIMPLEX_SUM_TOL and spread <= 1e-12
    return CheckOutcome(
        "geometry-prox-oracle", ok,
        f"max relative KKT spread {spread:.2e}, max |sum - 1| {off_sum:.2e}",
    )


def check_lemma_certificate(seed: int = 1) -> CheckOutcome:
    """Averaged VI residual of stored iterates stays under the divergence
    envelope for random comparison points."""
    spec = GameSpec(d=5, T=200, m=5, seed=seed)
    mats = generate_game(spec)
    consts = estimate_constants(mats, spec.m)
    cluster = ClusterState(shards=shard_data(mats, spec.m))
    geom = entropy_simplex(spec.d)
    z0 = uniform_point(geom)
    z0f = z0.concat()
    gamma = 1.0 / consts.delta
    K = 30
    cfg = PausConfig(
        gamma=gamma, iters=K, geometry=geom, z0=z0,
        l_f1=consts.L_F1, delta=consts.delta,
    )
    result = paus_run(cfg, cluster, keep_iterates=True)
    u_path = result.u_path
    f_avg = gather_average(cluster, u_path)
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(20):
        z = np.concatenate([rng.dirichlet(np.ones(spec.d)),
                            rng.dirichlet(np.ones(spec.d))])
        lhs = sum(float(f @ (u - z)) for f, u in zip(f_avg, u_path)) / K
        rhs = bregman_divergence(geom, z, z0f) / (K * gamma)
        worst = max(worst, lhs - rhs)
    ok = worst <= 1e-6
    return CheckOutcome("lemma-certificate", ok, f"max residual excess {worst:.2e}")


def check_inner_contraction(seed: int = 3) -> CheckOutcome:
    """Per-iteration contraction of the composite solver against a long
    reference run."""
    spec = GameSpec(d=3, T=50, m=5, seed=seed)
    mats = generate_game(spec)
    consts = estimate_constants(mats, spec.m)
    cluster = ClusterState(shards=shard_data(mats, spec.m))
    geom = entropy_simplex(spec.d)
    anchor = uniform_point(geom).concat()
    gamma = 1.0 / consts.delta
    offset = (gather_average(cluster, [anchor])[0]
              - cluster.server_shard.evaluate(anchor))
    prob = CompositeProblem(
        gamma=gamma, anchor=anchor, f1=cluster.server_shard, offset=offset,
        geometry=geom, l_f1=consts.L_F1,
    )
    eta = prob.eta
    v_star = composite_mp(prob, anchor, 400, 0.0)[0]
    worst = -np.inf
    prev = anchor
    for _ in range(40):
        v = composite_mp(prob, prev, 1)[0]
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
