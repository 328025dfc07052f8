"""The rounds ledger: communication rounds per seed, the paper's primary
metric, pinned in ``rounds_ledger.json`` so that a change which moves one
seed's round count fails Tier-1.

For the matrix game at T=2000 (d=25, m=5), seeds 1-10, both sign modes and
every solver of ``run_comparison``, the table holds the rounds to the gap
target (eps = 1e-2 for one-sign games, 4e-2 for per-entry games), the
subproblems handed to the extragradient loop and the solver error, if any.
For a few restart-ball families (``paus_r`` on the Euclidean ball, the
perfbench ``restart-ball`` inputs) it holds the stage count, the rounds
after the last stage, the rounds to the distance target and the
fallbacks.

Each game entry also stores its gap margin: how close, relative to eps,
the gap came to eps at the crossing round or at the logged round before
it.  The margin is not compared, since round-off moves it; the test
prints the entries whose margin is below 1e-9, where a round-off change
could flip the crossing.

Updating the table is a declared change: regenerate it with

    PYTHONPATH=src python tests/test_ledger.py --write

and say in CHANGES.md which entries moved and why.
"""

import json
import math
import sys
from pathlib import Path

from visim.bench import GameSpec, rounds_to_eps, run_comparison
from visim.cluster import ClusterState
from visim.geometry import euclidean_ball, uniform_point
from visim.inner import InnerSettings
from visim.restart import RestartConfig, paus_r, synthetic_strongly_monotone

LEDGER = Path(__file__).with_name("rounds_ledger.json")
SEEDS = range(1, 11)
GAME = {"d": 25, "T": 2000, "m": 5}
EPS = {"one-sign": 1e-2, "per-entry": 4e-2}
RESTART = {"dim": 200, "m": 5, "mu": 0.5, "delta": 1.0, "eps": 8e-5,
           "tolerance": 1e-16}
RESTART_SEEDS = range(1, 5)
NEAR_TIE = 1e-9


def _margin(series, eps: float, r2e) -> float | None:
    """min over the crossing record and the logged one before it of
    |gap - eps| / eps; None when the gap never reaches eps."""
    if r2e is None:
        return None
    k = next(i for i, rec in enumerate(series) if rec.round == r2e)
    gaps = [rec.iterate_gap for rec in series[max(k - 1, 0):k + 1]]
    return min(abs(g - eps) for g in gaps) / eps


def game_entries() -> dict[str, dict]:
    out = {}
    for mode, eps in EPS.items():
        for seed in SEEDS:
            spec = GameSpec(seed=seed, per_entry=mode == "per-entry", **GAME)
            res = run_comparison(spec, eps=eps)
            for solver, gamma in sorted(res.gammas.items()):
                series = res.series.get(solver)
                r2e = None if series is None else rounds_to_eps(series, eps)
                out[f"{mode}/seed{seed}/{solver}"] = {
                    "rounds_to_eps": r2e,
                    "fallbacks": res.inner_fallbacks.get(solver, 0),
                    "error": res.errors.get(solver),
                    "margin": None if series is None else _margin(series, eps, r2e),
                }
    return out


def restart_entries() -> dict[str, dict]:
    out = {}
    p = RESTART
    for seed in RESTART_SEEDS:
        shards, z_star, consts = synthetic_strongly_monotone(
            dim=p["dim"], m=p["m"], mu=p["mu"], delta=p["delta"], seed=seed)
        geom = euclidean_ball(p["dim"])
        z0 = uniform_point(geom)
        r0_sq = float((z_star.blocks[0] - z0.blocks[0]) @ (z_star.blocks[0] - z0.blocks[0]))
        cfg = RestartConfig(mu=p["mu"], delta=p["delta"], eps=p["eps"], geometry=geom,
                            z0=z0, r0_sq=r0_sq, l_f1=consts.L_F1,
                            inner=InnerSettings(tolerance=p["tolerance"]))
        cluster = ClusterState(shards=list(shards))
        res = paus_r(cfg, cluster, z_star=z_star)
        r2e = next((s.rounds_after for s in res.stages if s.dist_sq <= p["eps"]), None)
        out[f"restart-ball/seed{seed}"] = {
            "stages": len(res.stages),
            "rounds": cluster.round_count,
            "rounds_to_eps": r2e,
            "fallbacks": res.inner_fallbacks,
        }
    return out


def compute_ledger() -> dict:
    return {"game": {**GAME, "eps": EPS}, "restart": RESTART,
            "games": game_entries(), "restarts": restart_entries()}


def _pinned(entries: dict[str, dict]) -> dict[str, dict]:
    """The compared fields: everything but the margin."""
    return {k: {f: v for f, v in e.items() if f != "margin"} for k, e in entries.items()}


def test_rounds_per_seed_match_the_ledger():
    want = json.loads(LEDGER.read_text(encoding="utf-8"))
    got = compute_ledger()
    for key, entry in got["games"].items():
        margin = entry["margin"]
        if margin is not None and margin < NEAR_TIE:
            print(f"near tie: {key} crosses at round {entry['rounds_to_eps']} "
                  f"with gap margin {margin:.3g} relative to eps")
    assert got["game"] == want["game"] and got["restart"] == want["restart"]
    assert got["games"].keys() == want["games"].keys()
    pinned_got, pinned_want = _pinned(got["games"]), _pinned(want["games"])
    moved = {k: (pinned_want[k], e) for k, e in pinned_got.items() if e != pinned_want[k]}
    assert not moved, f"ledger (want, got) for the entries that moved: {moved}"
    assert got["restarts"] == want["restarts"]


def _rounded(x):
    return x if x is None or x == 0.0 else float(f"{x:.3g}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_ledger.py --write")
    ledger = compute_ledger()
    for entry in ledger["games"].values():
        entry["margin"] = _rounded(entry["margin"])
    LEDGER.write_text(json.dumps(ledger, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {LEDGER}: {len(ledger['games'])} game and "
          f"{len(ledger['restarts'])} restart entries")
