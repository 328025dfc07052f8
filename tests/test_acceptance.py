"""End-to-end acceptance suite for the solver library.

Each test prints a single pass/fail verdict line directly to the terminal
(bypassing pytest's capture) so a plain ``pytest -v`` log carries the
verdicts alongside the test outcomes.
"""

import math
import os
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

import conftest
from oracles import entropy_composite_oracle, entropy_prox_oracle
from test_inner import _game_problem, _path

from visim.bench import (
    GameSpec,
    estimate_constants,
    generate_game,
    rounds_to_eps,
    run_comparison,
)
from visim.cli import main as cli_main
from visim.cluster import ClusterState, shard_data
from visim.geometry import (
    bregman_divergence,
    composite_prox_map,
    entropy_simplex,
    euclidean_ball,
    prox_map,
    uniform_point,
)
from visim.inner import InnerSettings, composite_mp
from visim.operators import saddle_shard
from visim.paus import PausConfig, paus_run
from visim.restart import (
    RestartConfig,
    num_restarts,
    paus_r,
    stage_length,
    synthetic_strongly_monotone,
)


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance {num} ({name}): {detail}"
    conftest.ACCEPTANCE_VERDICTS.append(line)
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def long_run():
    """The shared d=25, T=10^4, m=5, seed-1 run at K=5000 (10^4 rounds),
    feeding both the envelope check and the slope check."""
    spec = GameSpec()
    t0 = time.perf_counter()
    res = run_comparison(spec, solvers=("paus", "mirror-prox"), iters=5000)
    assert res.errors == {}, res.errors
    return res, time.perf_counter() - t0


def test_criterion_1_gap_envelope(long_run):
    res, _ = long_run
    gamma = res.gammas["paus"]
    env_scale = 2.0 * math.log(25.0) / gamma
    worst = 0.0
    for rec in res.series["paus"]:
        if rec.round == 0:
            continue
        k = rec.round // 2
        worst = max(worst, rec.iterate_gap / (env_scale / k))
    paus_time = res.series["paus"][-1].elapsed
    ok = worst <= 1.05 and paus_time < 60.0
    _verdict(
        1, "gap envelope",
        ok, f"max gap/envelope ratio {worst:.3f} (<= 1.05), "
            f"solver time {paus_time:.1f}s (< 60s)",
    )


def test_criterion_2_average_regret_certificate():
    spec = GameSpec()
    mats = generate_game(spec)
    consts = estimate_constants(mats, spec.m)
    geom = entropy_simplex(spec.d)
    z0 = uniform_point(geom)
    K = 100
    cfg = PausConfig(
        gamma=1.0 / consts.delta, iters=K, geometry=geom, z0=z0,
        l_f1=consts.L_F1, delta=consts.delta,
    )
    t0 = time.perf_counter()
    out = paus_run(cfg, ClusterState(shards=shard_data(mats, spec.m)),
                   keep_iterates=True)
    mean_op = saddle_shard(mats.mean(axis=0))
    f_uk = [mean_op.evaluate(u) for u in out.u_path]
    rng = np.random.default_rng(0)
    worst_margin = -np.inf
    for _ in range(100):
        z = np.concatenate([rng.dirichlet(np.ones(spec.d)) for _ in range(2)])
        lhs = np.mean([float(f @ (u - z)) for f, u in zip(f_uk, out.u_path)])
        rhs = bregman_divergence(geom, z, z0.concat()) / (K * cfg.gamma)
        worst_margin = max(worst_margin, lhs - rhs)
    elapsed = time.perf_counter() - t0
    ok = worst_margin <= 1e-6 and elapsed < 30.0
    _verdict(
        2, "averaged-regret certificate",
        ok, f"worst (1/K)sum<F(u^k),u^k-z> minus V(z,z0)/(K gamma) = "
            f"{worst_margin:.2e} (<= 1e-6), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_3_inner_linear_rate():
    t0 = time.perf_counter()
    worst = -np.inf
    for seed in (1, 2, 3):
        prob, delta, l_f1 = _game_problem(d=3, T=40, m=4, seed=seed)
        geom = prob.geometry
        eta = prob.eta  # = delta / (2 L_F1) at gamma = 1/delta
        v0 = uniform_point(geom).concat()
        t_run = 60
        v_star = composite_mp(prob, v0, 10 * t_run, 0.0)[0]
        path = _path(prob, v0, t_run)
        v_prev = bregman_divergence(geom, v_star, v0)
        for t, v in enumerate(path, start=1):
            bound = v_prev / (1.0 + eta) ** t
            worst = max(worst, bregman_divergence(geom, v_star, v) - bound)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    _verdict(
        3, "inner solver linear rate",
        ok, f"max V(v*,v^t) - V0/(1+eta)^t = {worst:.2e} (<= 1e-9), "
            f"{elapsed:.1f}s (< 5s)",
    )


def test_criterion_4_restart_halving_and_rounds():
    mu, delta, eps = 0.05, 1.0, 1e-6  # delta / mu = 20
    t0 = time.perf_counter()
    shards, z_star, consts = synthetic_strongly_monotone(
        dim=10, m=5, mu=mu, delta=delta, seed=1
    )
    geom = euclidean_ball(10)
    z0 = uniform_point(geom)
    r0_sq = float(sum(b @ b for b in z_star.blocks))
    cfg = RestartConfig(
        mu=mu, delta=delta, eps=eps, geometry=geom, z0=z0, r0_sq=r0_sq,
        l_f1=consts.L_F1, inner=InnerSettings(tolerance=1e-16),
    )
    cluster = ClusterState(shards=shards)
    out = paus_r(cfg, cluster, z_star=z_star)
    # per-stage distance contraction (not squared distance)
    worst_factor = 0.0
    prev = math.sqrt(r0_sq)
    for rec in out.stages:
        dist = math.sqrt(rec.dist_sq)
        worst_factor = max(worst_factor, dist / prev)
        prev = dist
    total_iters = sum(rec.iters for rec in out.stages)
    budget = 1.5 * (2.0 * delta * 1.0 / mu) * math.log2(r0_sq / eps)
    elapsed = time.perf_counter() - t0
    ok = worst_factor <= 0.55 and total_iters <= budget and elapsed < 30.0
    _verdict(
        4, "restart halving",
        ok, f"worst stage factor {worst_factor:.3f} (<= 0.55), "
            f"iterations {total_iters} (<= {budget:.0f}), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_5_loglog_slopes(long_run):
    res, elapsed = long_run
    slopes = {}
    for solver in ("paus", "mirror-prox"):
        pts = [
            (rec.round, rec.iterate_gap)
            for rec in res.series[solver]
            if 100 <= rec.round <= 10_000 and rec.iterate_gap > 0.0
        ]
        lr = np.log([p[0] for p in pts])
        lg = np.log([p[1] for p in pts])
        slopes[solver] = float(np.polyfit(lr, lg, 1)[0])
    ok = all(-1.3 <= s <= -0.7 for s in slopes.values()) and elapsed < 120.0
    _verdict(
        5, "log-log slope",
        ok, f"paus {slopes['paus']:.2f}, mirror-prox {slopes['mirror-prox']:.2f} "
            f"(both in [-1.3, -0.7]), shared run {elapsed:.1f}s (< 120s)",
    )


def test_criterion_6_similarity_advantage():
    t0 = time.perf_counter()
    ratios = []
    for seed in range(1, 6):
        spec = GameSpec(seed=seed)  # n = T/m = 2000 per worker
        res = run_comparison(spec, solvers=("paus", "mirror-prox"), eps=1e-2)
        assert res.errors == {}, res.errors
        assert res.constants.delta <= res.constants.L / 10.0
        r_paus = rounds_to_eps(res.series["paus"], 1e-2)
        r_mp = rounds_to_eps(res.series["mirror-prox"], 1e-2)
        assert r_paus is not None and r_mp is not None and r_mp > 0
        ratios.append(r_paus / r_mp)
    med = statistics.median(ratios)
    elapsed = time.perf_counter() - t0
    ok = med <= 0.5 and elapsed < 300.0
    _verdict(
        6, "similarity advantage",
        ok, f"median rounds ratio paus/mirror-prox {med:.4f} (<= 0.5) over 5 "
            f"seeds, {elapsed:.1f}s (< 300s)",
    )


def test_criterion_7_prox_oracle_equivalence():
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(1000):
        d = int(rng.integers(2, 6))
        geom = entropy_simplex(d, blocks=1)
        center = rng.dirichlet(np.ones(d))
        g = rng.normal(size=d) * 2.0
        if i % 2 == 0:
            step = float(10.0 ** rng.uniform(-2, 1))
            got = prox_map(geom, center, g, step)
            want = entropy_prox_oracle(center, g, step)
        else:
            anchor = rng.dirichlet(np.ones(d))
            eta = float(10.0 ** rng.uniform(-1.3, 0.7))
            got = composite_prox_map(geom, anchor, center, g, eta)
            want = entropy_composite_oracle(anchor, center, g, eta)
        worst = max(worst, float(np.abs(got - want).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    _verdict(
        7, "prox oracle equivalence",
        ok, f"worst l-inf deviation {worst:.2e} (<= 1e-8) over 1000 instances, "
            f"{elapsed:.1f}s (< 10s)",
    )


def test_criterion_8_delta_scaling():
    t0 = time.perf_counter()
    ns = (100, 1_000, 10_000)
    log_n, log_delta = [], []
    for seed in range(20):
        for n in ns:
            spec = GameSpec(T=5 * n, seed=seed)
            delta = estimate_constants(generate_game(spec), 5).delta
            log_n.append(math.log(n))
            log_delta.append(math.log(delta))
    slope = float(np.polyfit(log_n, log_delta, 1)[0])
    elapsed = time.perf_counter() - t0
    ok = -0.7 <= slope <= -0.3 and elapsed < 60.0
    _verdict(
        8, "delta scaling",
        ok, f"fitted exponent of delta vs n = {slope:.3f} (in [-0.7, -0.3]), "
            f"{elapsed:.1f}s (< 60s)",
    )


def test_criterion_9_byte_determinism(tmp_path):
    blobs = []
    for tag in ("a", "b"):
        out = str(tmp_path / tag)
        rc = cli_main(["compare", "--out", out])
        assert rc == 0
        blob = b"".join(
            Path(out, name).read_bytes()
            for name in sorted(os.listdir(out))
        )
        blobs.append(blob)
    ok = blobs[0] == blobs[1]
    _verdict(
        9, "byte determinism",
        ok, f"two default `compare` runs wrote identical bytes "
            f"({len(blobs[0])} bytes, 4 files each)",
    )
