"""Benchmark of the visim solvers, end to end and layer by layer.

    python3 perfbench/run.py --workload entropy-game --seed 1 --seconds 20 --trace 0

runs one workload in this (single-threaded) process for about
``--seconds`` seconds and prints every metric by name and unit; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` gives the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run
(its first half runs untraced, to give the tracing overhead).
``--workload all`` (the default) runs every workload in its own process,
one after another.  Raw results go to ``.perfbench/`` at the repository
root.  See README.md in this directory.
"""

from __future__ import annotations

import os

# single-threaded BLAS: set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VI_SIM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("entropy-game", "euclidean-game", "mirror-prox-wide", "restart-ball")
CHILD_TIMEOUT_S = 175

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "rounds_to_eps": "rounds",
    "final_error": "1",
    "peak_rss_mb": "MB",
}


def environment() -> dict:
    """What the figures depend on besides the code."""
    import numpy
    import scipy
    from visim import _kernels

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 prints its config only
        blas_build = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "numba": _kernels.NUMBA_AVAILABLE,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_build,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


# the reference loop: a fixed mix of small numpy operations and Python
# arithmetic, like the solvers' inner loops
REFERENCE_ITERS = 1350
REFERENCE_MATRIX = np.sin(np.arange(2500.0)).reshape(50, 50) / 50.0
# normalised times are seconds at the speed at which the loop takes this
# long (3.6 ms to 11 ms on the machine of README.md's reference figures)
REFERENCE_NOMINAL_S = 0.005


def reference_s() -> float:
    """Wall time of the reference loop, which measures how fast the
    machine runs this process right now."""
    v = np.full(50, 0.02)
    acc = 0.0
    t0 = time.perf_counter()
    for k in range(REFERENCE_ITERS):
        v = np.exp(-REFERENCE_MATRIX.dot(v))
        v /= v.sum()
        acc += float(v[k % 50]) * 0.5
    return time.perf_counter() - t0


def normalised(wall_s: float, ref_before: float, ref_after: float) -> float:
    """``wall_s`` at the machine speed where the reference loop takes
    REFERENCE_NOMINAL_S, the speed measured just before and after."""
    return wall_s * REFERENCE_NOMINAL_S / (0.5 * (ref_before + ref_after))


def run_instance(workload, seed: int, tracer=None):
    """Set up and solve one instance, timing the two phases apart and the
    reference loop around each, then check the outputs untimed.  With a
    tracer, each phase is a root span and set-up also records its traced
    allocation peak."""
    from spans import SETUP_ROOT, SOLVE_ROOT
    from workloads import Outcome

    def phase(name):
        return tracer.span(name) if tracer is not None else contextlib.nullcontext()

    ref_a = reference_s()
    if tracer is not None:
        tracemalloc.start()
    t0 = time.perf_counter()
    with phase(SETUP_ROOT):
        data = workload.setup(seed)
    t1 = time.perf_counter()
    peak = 0
    if tracer is not None:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    ref_b = reference_s()
    t2 = time.perf_counter()
    with phase(SOLVE_ROOT):
        solved = workload.solve(data)
    t3 = time.perf_counter()
    ref_c = reference_s()
    r2e, final, counts, problems = workload.evaluate(data, solved)
    return Outcome(setup_wall_s=t1 - t0, solve_wall_s=t3 - t2,
                   reference_s=(ref_a, ref_b, ref_c), rounds_to_eps=r2e,
                   final_error=final, counts=counts, problems=problems), peak


class Panels:
    """The outcomes of repeated panels, one list per instance seed."""

    def __init__(self, seeds: list[int]):
        self.seeds = seeds
        self.outcomes: list[list] = [[] for _ in seeds]
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.panels = 0
        self.setup_peak = 0

    def run(self, workload, seconds: float, tracer=None) -> None:
        """Run whole panels until starting another would pass ``seconds``
        (at least one)."""
        from visim.errors import VisimError

        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            for j, seed in enumerate(self.seeds):
                self.attempted += 1
                try:
                    outcome, peak = run_instance(workload, seed, tracer)
                except VisimError as exc:
                    self.failed += 1
                    self.errors.append(f"seed {seed}: {type(exc).__name__}: {exc}")
                    continue
                self.outcomes[j].append(outcome)
                self.setup_peak = max(self.setup_peak, peak)
            self.panels += 1
            now = time.perf_counter()
            if now - start + (now - t0) > seconds:
                return

    def problems(self) -> list[str]:
        """Failed checks, and any output that did not repeat exactly."""
        out = []
        for seed, runs in zip(self.seeds, self.outcomes):
            for o in runs[:1]:
                out += [f"seed {seed}: {p}" for p in o.problems]
            for o in runs[1:]:
                if (o.counts, o.rounds_to_eps, o.final_error) != (
                        runs[0].counts, runs[0].rounds_to_eps, runs[0].final_error):
                    out.append(f"seed {seed}: outputs differ between panels")
                    break
        return out

    def setups(self) -> list[float]:
        """Every set-up time of the run, normalised."""
        return [normalised(o.setup_wall_s, *o.reference_s[:2])
                for runs in self.outcomes for o in runs]

    def solve_s(self) -> float:
        """Solve time of one panel: the sum over instances of each one's
        median normalised solve time over the panels run."""
        return sum(statistics.median(normalised(o.solve_wall_s, *o.reference_s[1:])
                                     for o in runs)
                   for runs in self.outcomes if runs)

    def wall(self) -> tuple[float, float, float]:
        """As measured: median set-up, the summed median solves of a panel,
        and the median reference loop time."""
        return (statistics.median(o.setup_wall_s for runs in self.outcomes for o in runs),
                sum(statistics.median(o.solve_wall_s for o in runs)
                    for runs in self.outcomes if runs),
                statistics.median(r for runs in self.outcomes for o in runs
                                  for r in o.reference_s))

    def first(self) -> list:
        return [runs[0] for runs in self.outcomes if runs]

    def count(self, key: str) -> int:
        return sum(o.counts[key] for o in self.first())


def end_to_end(p: Panels) -> dict[str, float]:
    firsts = p.first()
    return {
        "setup_s": statistics.median(p.setups()),
        "solve_s": p.solve_s(),
        "rounds_to_eps": sum(o.rounds_to_eps for o in firsts),
        "final_error": statistics.median(o.final_error for o in firsts),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import spans
    import workloads

    workload = workloads.WORKLOADS[name]
    seeds = workloads.panel_seeds(workload, seed)
    env = environment()
    print(f"environment: {json.dumps(env)}")
    print(f"workload {name}: {workload.inputs()}; seed {seed}; "
          f"{'traced' if trace else 'untraced'}, {seconds:g} s")
    plain = Panels(seeds)
    units = dict(END_TO_END)
    if not trace:
        plain.run(workload, seconds)
        metrics = end_to_end(plain) if plain.first() else {}
        runs = [plain]
    else:
        plain.run(workload, seconds / 2.0)
        traced = Panels(seeds)
        tracer = spans.Tracer()
        with spans.traced(tracer):
            traced.run(workload, seconds / 2.0, tracer)
        metrics, units = {}, {}
        if traced.first():
            metrics = spans.layer_metrics(tracer, traced.panels,
                                          len(traced.setups()),
                                          traced.setup_peak / 2**20)
            metrics["cluster.rounds"] = traced.count("rounds")
            metrics["cluster.bytes_sent"] = traced.count("bytes")
            metrics["trace.solve_s"] = traced.solve_s()
            metrics["trace.untraced_solve_s"] = plain.solve_s()
            metrics["trace.overhead_s"] = traced.solve_s() - plain.solve_s()
            units = {k: spans.UNITS[k] for k in metrics}
        runs = [plain, traced]
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        tracer.save(str(OUT / "traces" / f"{name}-seed{seed}.npz"))

    problems = [p for r in runs for p in r.problems()]
    if len(runs) == 2 and plain.first() and traced.first():
        if [o.counts for o in plain.first()] != [o.counts for o in traced.first()]:
            problems.append("traced and untraced runs differ in their counts")
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    for r in runs:
        for err in r.errors:
            print(f"FAILED {err}")
    for prob in problems:
        print(f"CHECK FAILED {prob}")
    print(f"{attempted} instances attempted in {sum(r.panels for r in runs)} "
          f"panels of {len(seeds)}, {failed} failed")
    wall = {}
    for label, r in zip(("untraced", "traced"), runs):
        if r.first():
            wall[label] = dict(zip(("setup_s", "solve_s", "reference_s"), r.wall()))
            print(f"as measured, {label}: set-up median {wall[label]['setup_s']:.6f} s, "
                  f"panel solve {wall[label]['solve_s']:.6f} s, reference loop "
                  f"median {1e3 * wall[label]['reference_s']:.4f} ms (the metrics "
                  f"are normalised to {1e3 * REFERENCE_NOMINAL_S:g} ms)")
    for key, value in metrics.items():
        print(f"  {key:32s} {value!r} {units[key]}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (OUT / "runs").mkdir(parents=True, exist_ok=True)
    raw = dict(result, workload=name, seed=seed, trace=trace, environment=env,
               inputs=workload.inputs(), instance_seeds=seeds, problems=problems,
               wall=wall,
               errors=[e for r in runs for e in r.errors],
               outcomes=[[vars(o) for o in runs_j] for r in runs for runs_j in r.outcomes])
    with open(OUT / "runs" / f"{name}-seed{seed}-trace{int(trace)}.json", "w",
              encoding="utf-8") as fh:
        json.dump(raw, fh, indent=1)
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, val in result["metrics"].items():
            combined["metrics"][f"{name}:{key}"] = val
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "visim" / "__init__.py").is_file():
        print(f"no visim sources under {SRC}: run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    sys.path.insert(0, str(SRC))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
