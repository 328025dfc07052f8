"""Compare two checkouts of visim with alternating pairs of benchmark runs.

    python3 tools/bench_pairs.py --parent ../parent --change . --topic my_topic \\
        --pairs 10 --first-seed 301

runs ``perfbench/run.py --workload W --seed n --trace 0`` in each
checkout, for every workload, one workload at a time, each run as long as
``perfbench`` makes it.  Pair i uses seed ``first_seed + i`` on both
sides; the parent runs first on odd seeds and the change first on even
seeds, so that a drift of the machine's speed does not favour one side.  The result goes to ``BENCH_<topic>.json`` in
the current directory (``--out`` to change it): per workload and
end-to-end metric the median, quartiles, IQR and every run of each side,
the change's median relative to the parent's, in how many pairs the
change was better or worse, and a verdict (``verdict``, also printed);
the operations attempted and failed; every run as ``perfbench/run.py``
reported it; and the environment block of the runs.  The file is
rewritten after every pair, so a run cut short keeps what it measured.  ``--trace-seed n`` adds one traced run per side
(``--trace 1``) for the per-layer metrics.

A checkout is any directory with ``src/visim`` and ``perfbench/`` (``git
archive`` of a commit will do).  Every metric of ``perfbench`` is lower
is better.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("entropy-game", "euclidean-game", "mirror-prox-wide", "restart-ball")
SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, trace: bool = False) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``: its result line, the
    environment line it printed, and its exit code."""
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(ln.split(":", 1)[1]) for ln in lines
                if ln.startswith("environment: ")), None)
    result = None
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return {"workload": workload, "seed": seed, "trace": trace,
            "returncode": proc.returncode, "environment": env, "result": result,
            "stderr": proc.stderr[-2000:] if proc.returncode else ""}


def spread(values: list[float]) -> dict:
    """Median, quartiles (inclusive method) and IQR of ``values``, with
    the values themselves."""
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else (values[0],) * 3)
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}


def verdict(entry: dict) -> str:
    """``better`` or ``worse`` when at least nine tenths of the pairs go
    that way and the medians differ by more than the parent's IQR,
    ``equal`` when every pair ties, ``unresolved`` otherwise."""
    pairs = len(entry["parent"]["runs"])
    gain = entry["parent"]["median"] - entry["change"]["median"]
    if 10 * entry["pairs_change_better"] >= 9 * pairs and gain > entry["parent"]["iqr"]:
        return "better"
    if 10 * entry["pairs_change_worse"] >= 9 * pairs and -gain > entry["parent"]["iqr"]:
        return "worse"
    if entry["pairs_change_better"] == entry["pairs_change_worse"] == 0:
        return "equal"
    return "unresolved"


def summarise(runs: list[dict]) -> dict:
    """Per workload: every end-to-end metric of both sides over the pairs
    both sides completed, and the operations."""
    out = {}
    for workload in WORKLOADS:
        pairs = {}
        for r in runs:
            if r["workload"] == workload and not r["trace"] and r["result"]:
                pairs.setdefault(r["seed"], {})[r["side"]] = r["result"]
        pairs = {s: p for s, p in sorted(pairs.items()) if len(p) == 2}
        if not pairs:
            continue
        metrics = {}
        for name, spec in next(iter(pairs.values()))["parent"]["metrics"].items():
            sides = {side: [p[side]["metrics"][name]["value"] for p in pairs.values()]
                     for side in SIDES}
            entry = {"unit": spec["unit"]}
            entry.update({side: spread(v) for side, v in sides.items()})
            base = entry["parent"]["median"]
            entry["change_over_parent"] = (
                entry["change"]["median"] / base - 1.0 if base else None)
            entry["pairs_change_better"] = sum(
                c < p for p, c in zip(sides["parent"], sides["change"]))
            entry["pairs_change_worse"] = sum(
                c > p for p, c in zip(sides["parent"], sides["change"]))
            entry["verdict"] = verdict(entry)
            metrics[name] = entry
        ops = {side: {"attempted": sum(p[side]["attempted"] for p in pairs.values()),
                      "failed": sum(p[side]["failed"] for p in pairs.values()),
                      "all_correct": all(p[side]["correct"] for p in pairs.values())}
               for side in SIDES}
        traced = {r["side"]: r["result"] for r in runs
                  if r["workload"] == workload and r["trace"]}
        out[workload] = {"seeds": list(pairs), "end_to_end": metrics,
                         "operations": ops, "traced": traced}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--topic", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace-seed", type=int,
                        help="also one traced run per side and workload")
    parser.add_argument("--describe", default="", help="what the change does")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"--{side} {path} has no perfbench/run.py")
    out = args.out or Path(f"BENCH_{args.topic}.json")
    seeds = range(args.first_seed, args.first_seed + args.pairs)
    doc = {
        "topic": args.topic,
        "change": args.describe,
        "method": (
            f"{args.pairs} pairs of runs per workload, seeds {seeds[0]}-{seeds[-1]}; "
            "the parent ran first on odd seeds and the change first on even "
            "seeds.  Each run is `python3 perfbench/run.py --workload W --seed n "
            "--trace 0` in its checkout, one workload at a time, with perfbench's "
            "own run length.  setup_s and solve_s are perfbench's normalised seconds; "
            "peak_rss_mb is the process's peak resident set.  Quartiles: "
            "statistics.quantiles(n=4, method='inclusive'); iqr = q3 - q1.  "
            "pairs_change_better counts pairs where the change's value is lower; "
            "ties count for neither side.  verdict: better or worse when at least "
            "9 in 10 pairs go that way and the medians differ by more than the "
            "parent's iqr, equal when every pair ties, unresolved otherwise.  "
            "Written by tools/bench_pairs.py."),
        "environment": None,
        "workloads": {},
        "runs": [],
    }

    def save():
        doc["workloads"] = summarise(doc["runs"])
        out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")

    for workload in WORKLOADS:
        for seed in seeds:
            order = SIDES if seed % 2 else SIDES[::-1]
            for side in order:
                run = run_once(checkouts[side], workload, seed)
                run["side"] = side
                doc["runs"].append(run)
                doc["environment"] = doc["environment"] or run["environment"]
                status = (f"{run['result']['metrics']['solve_s']['value']:.4f} s"
                          if run["result"] else f"exit {run['returncode']}")
                print(f"{workload} seed {seed} {side}: solve_s {status}", flush=True)
            save()
        if args.trace_seed is not None:
            for side in SIDES:
                run = run_once(checkouts[side], workload, args.trace_seed, trace=True)
                run["side"] = side
                doc["runs"].append(run)
            save()
    save()
    envs = {json.dumps(r["environment"], sort_keys=True) for r in doc["runs"]
            if r["environment"]}
    if len(envs) > 1:
        print("warning: the runs report different environments", file=sys.stderr)
    for workload, summary in doc["workloads"].items():
        print(f"{workload}: " + ", ".join(
            f"{name} {m['verdict']}" for name, m in summary["end_to_end"].items()))
    failed = [r for r in doc["runs"] if r["returncode"]]
    print(f"wrote {out}: {len(doc['runs'])} runs, {len(failed)} exited non-zero")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
