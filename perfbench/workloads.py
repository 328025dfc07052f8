"""The benchmark's workloads: how each builds its solver instances from a
seed, runs the solver, and checks the outputs.

One operation is one solver instance.  A workload's *panel* is the list
of instance seeds one ``--seed`` stands for; a run repeats the whole panel
while its time lasts, so every run attempts whole panels of the same
operations.  The program is driven only through its public functions,
always looked up as module attributes (``bench.generate_game``,
``paus.paus_run``, ...) so that the tracer in :mod:`spans` can wrap them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import checks

from visim import baselines, bench, cluster, geometry, inner, paus, restart


@dataclass
class Outcome:
    """What one solver instance produced, as the metrics and checks need it.

    ``reference_s`` holds the times of the reference loop of
    :func:`run.reference_s` just before set-up, between set-up and solve,
    and just after the solve.
    """

    setup_wall_s: float
    solve_wall_s: float
    reference_s: tuple[float, float, float]
    rounds_to_eps: int
    final_error: float
    counts: dict[str, int]  # must repeat exactly from one panel to the next
    problems: list[str] = field(default_factory=list)  # failed checks


@dataclass(frozen=True)
class GameWorkload:
    """A solver on the stochastic matrix game of :mod:`visim.bench`.

    The step size and the iteration budget follow ``run_comparison(eps=...)``:
    gamma = 1/delta (paus, l1/linf pairing), 1/delta_l2 (euclidean) or 1/L
    (mirror-prox), and K = ceil(Theta / (gamma eps)) with Theta the largest
    divergence from the uniform start.
    """

    name: str
    solver: str  # "paus", "euclidean" or "mirror-prox"
    d: int
    T: int
    m: int
    per_entry: bool
    eps: float
    panel: int

    @property
    def theta(self) -> float:
        """max_z V(z, uniform) over the product of two simplices."""
        if self.solver == "euclidean":
            return 1.0 - 1.0 / self.d
        return 2.0 * math.log(self.d)

    def inputs(self) -> str:
        game = "per-entry signs" if self.per_entry else "one sign per matrix"
        return (f"{self.solver}, d={self.d}, T={self.T}, m={self.m}, {game}, "
                f"eps={self.eps:g}, panel of {self.panel}")

    def setup(self, seed: int):
        spec = bench.GameSpec(d=self.d, T=self.T, m=self.m, seed=seed,
                              per_entry=self.per_entry)
        mats = bench.generate_game(spec)
        shards = cluster.shard_data(mats, self.m)
        pairing = "l2" if self.solver == "euclidean" else "l1/linf"
        consts = bench.estimate_constants(mats, self.m, pairing)
        mean = mats.mean(axis=0)
        return shards, consts, mean

    def solve(self, data):
        shards, consts, mean = data
        gamma = 1.0 / (consts.L if self.solver == "mirror-prox" else consts.delta)
        iters = math.ceil(self.theta / (gamma * self.eps))
        geom = (geometry.euclidean_simplex(self.d) if self.solver == "euclidean"
                else geometry.entropy_simplex(self.d))
        z0 = geometry.uniform_point(geom)
        state = cluster.ClusterState(shards=list(shards))
        logged = bench.log_indices(iters).__contains__

        def gap_fn(u):
            return paus.duality_gap(mean, u.blocks[0], u.blocks[1])

        if self.solver == "paus":
            cfg = paus.PausConfig(gamma=gamma, iters=iters, geometry=geom, z0=z0,
                                  l_f1=consts.L_F1, delta=consts.delta,
                                  inner=inner.InnerSettings())
            res = paus.paus_run(cfg, state, gap_fn=gap_fn, log_predicate=logged)
        elif self.solver == "euclidean":
            cfg = baselines.BaselineConfig(
                kind=baselines.BaselineKind.EUCLIDEAN_PAUS, stepsize=gamma,
                iters=iters, geometry=geom, z0=z0, l_f1=consts.L_F1,
                delta=consts.delta, inner=inner.InnerSettings())
            res = baselines.euclidean_paus_run(cfg, state, gap_fn=gap_fn,
                                               log_predicate=logged)
        else:
            cfg = baselines.BaselineConfig(
                kind=baselines.BaselineKind.MIRROR_PROX, stepsize=gamma,
                iters=iters, geometry=geom, z0=z0)
            res = baselines.mirror_prox_run(cfg, state, gap_fn=gap_fn,
                                            log_predicate=logged)
        return res, state, gamma, iters

    def evaluate(self, data, solved) -> tuple[int, float, dict[str, int], list[str]]:
        _, _, mean = data
        res, state, gamma, iters = solved
        x, y = res.u_avg.blocks
        gap = checks.game_gap(mean, x, y)
        problems = checks.check_game(
            mean=mean, x=x, y=y, logged_gap=res.log[-1].iterate_gap,
            bound=self.theta / (iters * gamma), eps=self.eps, iters=iters,
            rounds=state.round_count, bytes_sent=state.bytes_sent,
            m=self.m, d=self.d)
        r2e = bench.rounds_to_eps(res.log, self.eps)
        counts = {"rounds": state.round_count, "bytes": state.bytes_sent,
                  "iters": iters,
                  "inner_iters": sum(rec.inner_iters for rec in res.log)}
        return (r2e if r2e is not None else 0), gap, counts, problems


@dataclass(frozen=True)
class RestartWorkload:
    """``paus_r`` on ``synthetic_strongly_monotone`` on a Euclidean ball,
    with the inner tolerance acceptance criterion 4 uses."""

    name: str
    dim: int
    m: int
    mu: float
    delta: float
    eps: float
    panel: int
    tolerance: float = 1e-16

    def inputs(self) -> str:
        return (f"paus_r, Euclidean ball dim={self.dim}, m={self.m}, "
                f"mu={self.mu:g}, delta={self.delta:g}, eps={self.eps:g}, "
                f"inner tolerance {self.tolerance:g}, panel of {self.panel}")

    def setup(self, seed: int):
        return restart.synthetic_strongly_monotone(
            dim=self.dim, m=self.m, mu=self.mu, delta=self.delta, seed=seed)

    def solve(self, data):
        shards, z_star, consts = data
        geom = geometry.euclidean_ball(self.dim)
        z0 = geometry.uniform_point(geom)
        r0_sq = float(sum((a - b) @ (a - b) for a, b in zip(z_star.blocks, z0.blocks)))
        cfg = restart.RestartConfig(
            mu=self.mu, delta=self.delta, eps=self.eps, geometry=geom, z0=z0,
            r0_sq=r0_sq, l_f1=consts.L_F1,
            inner=inner.InnerSettings(tolerance=self.tolerance))
        state = cluster.ClusterState(shards=list(shards))
        out = restart.paus_r(cfg, state, z_star=z_star)
        return out, state, z0

    def evaluate(self, data, solved) -> tuple[int, float, dict[str, int], list[str]]:
        shards, z_star, _ = data
        out, state, z0 = solved
        payloads = [s.payload for s in shards]
        z_ref, problems = checks.check_restart(
            payloads=payloads, z_star=z_star.blocks[0], z0=z0.blocks[0],
            stage_points=[p.blocks[0] for p in out.stage_points],
            stage_iters=[s.iters for s in out.stages],
            stage_rounds=[s.rounds_after for s in out.stages],
            z_hat=out.z_hat.blocks[0], eps=self.eps, radius=1.0,
            rounds=state.round_count, bytes_sent=state.bytes_sent, m=self.m)
        dists = [float((p.blocks[0] - z_ref) @ (p.blocks[0] - z_ref))
                 for p in out.stage_points]
        r2e = next((s.rounds_after for s, dist in zip(out.stages, dists)
                    if dist <= self.eps), 0)
        final = float((out.z_hat.blocks[0] - z_ref) @ (out.z_hat.blocks[0] - z_ref))
        counts = {"rounds": state.round_count, "bytes": state.bytes_sent,
                  "stages": len(out.stages),
                  "iters": sum(s.iters for s in out.stages)}
        return r2e, final, counts, problems


WORKLOADS = {
    w.name: w
    for w in (
        GameWorkload("entropy-game", "paus", d=25, T=2_000, m=5,
                     per_entry=True, eps=4e-2, panel=32),
        GameWorkload("euclidean-game", "euclidean", d=25, T=10_000, m=250,
                     per_entry=True, eps=6e-2, panel=12),
        GameWorkload("mirror-prox-wide", "mirror-prox", d=25, T=50_000, m=50,
                     per_entry=False, eps=1e-2, panel=1),
        RestartWorkload("restart-ball", dim=200, m=5, mu=0.5, delta=1.0,
                        eps=8e-5, panel=24),
    )
}


def panel_seeds(workload, seed: int) -> list[int]:
    """The instance seeds ``seed`` stands for: the same seed gives the same
    panel, and different seeds give different games."""
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(1, 2**31 - 1, size=workload.panel)]

