"""Remake the reference figures of README.md in this directory.

    python3 perfbench/reference.py

Measures, single-threaded: the peak memory of generating the T=5*10^4
game, the default ``visim compare`` per solver, the K=5000 run of
acceptance criteria 1 and 5, one inner iteration on each inner path, one
gather at m=5 and m=50, one prox map and one gap evaluation.  These are
wall times as measured; the median time of the benchmark's reference loop
over the same minutes is printed with them, since the machine's speed
varies.  Prints a table and writes ``.perfbench/reference.json``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VI_SIM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

from run import OUT, SRC, environment, reference_s  # noqa: E402

sys.path.insert(0, str(SRC))

from visim import bench, cluster, geometry, inner, paus  # noqa: E402


def per_call_us(fn, calls: int, batches: int = 7) -> float:
    """Median over ``batches`` of the mean time of ``calls`` calls, in us."""
    times = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t0) / calls)
    return 1e6 * statistics.median(times)


def game_problem(geom):
    """The first composite subproblem of the solver on the default game."""
    spec = bench.GameSpec()
    mats = bench.generate_game(spec)
    pairing = "l1/linf" if geom.kind is geometry.GeometryKind.ENTROPY_SIMPLEX else "l2"
    consts = bench.estimate_constants(mats, spec.m, pairing)
    shards = cluster.shard_data(mats, spec.m)
    state = cluster.ClusterState(shards=shards)
    z0 = geometry.uniform_point(geom)
    f_z = cluster.gather_average(state, [z0])[0]
    f1_z = state.server_evaluate(z0)
    offset = geometry.DualVector(tuple(a - b for a, b in zip(f_z.blocks, f1_z.blocks)))
    return inner.CompositeProblem(gamma=1.0 / consts.delta, anchor=z0,
                                  f1=state.server_shard, offset=offset,
                                  geometry=geom, l_f1=consts.L_F1), z0


def inner_us(geom, iters: int, force_generic: bool) -> float:
    problem, z0 = game_problem(geom)
    return per_call_us(lambda: inner.composite_mp(problem, z0, iters, 0.0,
                                                  force_generic=force_generic),
                       calls=1, batches=5) / iters


def main() -> int:
    fig: dict[str, float] = {}
    loops = [reference_s() for _ in range(20)]

    # first, so that the process's peak RSS is the generation's
    tracemalloc.start()
    mats = bench.generate_game(bench.GameSpec(T=50_000, m=50))
    fig["generate_T5e4_traced_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    del mats
    fig["generate_T5e4_peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    t0 = time.perf_counter()
    res = bench.run_comparison(bench.GameSpec(), iters=100)
    fig["compare_wall_s"] = time.perf_counter() - t0
    for solver, series in res.series.items():
        fig[f"compare_{solver}_s"] = series[-1].elapsed
    loops += [reference_s() for _ in range(20)]
    t0 = time.perf_counter()
    res = bench.run_comparison(bench.GameSpec(), solvers=("paus", "mirror-prox"),
                               iters=5000)
    fig["k5000_wall_s"] = time.perf_counter() - t0
    for solver, series in res.series.items():
        fig[f"k5000_{solver}_s"] = series[-1].elapsed
    loops += [reference_s() for _ in range(20)]

    ent, euc = geometry.entropy_simplex(25), geometry.euclidean_simplex(25)
    fig["inner_iter_log_space_us"] = inner_us(ent, 2000, force_generic=False)
    fig["inner_iter_generic_entropy_us"] = inner_us(ent, 200, force_generic=True)
    fig["inner_iter_generic_euclidean_us"] = inner_us(euc, 200, force_generic=True)

    for m, T in ((5, 10_000), (50, 50_000)):
        state = cluster.ClusterState(
            shards=cluster.shard_data(bench.generate_game(bench.GameSpec(T=T, m=m)), m))
        z = geometry.uniform_point(ent)
        fig[f"gather_m{m}_us"] = per_call_us(lambda: cluster.gather_average(state, [z]),
                                             calls=2000)
    problem, z0 = game_problem(ent)
    g = problem.offset
    fig["prox_map_us"] = per_call_us(lambda: geometry.prox_map(ent, z0, g, 1.0),
                                     calls=5000)
    mean = bench.generate_game(bench.GameSpec()).mean(axis=0)
    x, y = z0.blocks
    fig["gap_eval_us"] = per_call_us(lambda: paus.duality_gap(mean, x, y), calls=5000)

    loops += [reference_s() for _ in range(20)]
    fig["reference_loop_ms"] = 1e3 * statistics.median(loops)
    env = environment()
    print(f"environment: {json.dumps(env)}")
    for key, value in fig.items():
        print(f"  {key:34s} {value:10.3f}")
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "reference.json", "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "figures": fig}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
