"""Tests of the benchmark itself: a tiny run of every workload through all
of its checks, and for each check an output it must reject.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import run
import spans
import workloads
from visim import bench

TINY = {
    "entropy-game": dict(d=6, T=200, m=5, eps=5e-2, panel=2),
    "euclidean-game": dict(d=6, T=200, m=5, eps=5e-2, panel=2),
    "mirror-prox-wide": dict(d=6, T=500, m=50, eps=5e-2, panel=1),
    "restart-ball": dict(dim=10, panel=2),
}


def tiny(name):
    return dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])


@pytest.fixture
def tiny_workloads(monkeypatch, tmp_path):
    for name in TINY:
        monkeypatch.setitem(workloads.WORKLOADS, name, tiny(name))
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_passes_every_check(name, trace, tiny_workloads, capsys):
    assert run.run_workload(name, seed=3, seconds=0.0, trace=trace) == 0
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, out
    want = set(spans.UNITS) if trace else set(run.END_TO_END)
    assert set(result["metrics"]) == want
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        metrics = {k: m["value"] for k, m in result["metrics"].items()}
        assert metrics["cluster.rounds"] > 0 and metrics["trace.solve_s"] > 0
        assert 0.5 < metrics["trace.layer_share"] <= 1.0
        assert (tiny_workloads / "traces" / f"{name}-seed3.npz").is_file()
    raw = json.loads((tiny_workloads / "runs" / f"{name}-seed3-trace{int(trace)}.json")
                     .read_text())
    assert set(raw["environment"]) == {"numba", "numpy", "scipy", "blas",
                                       "blas_threads", "python", "nproc", "cpu"}


@pytest.mark.parametrize("name", ["entropy-game", "euclidean-game", "mirror-prox-wide"])
def test_game_budget_matches_run_comparison(name):
    w = tiny(name)
    seed = workloads.panel_seeds(w, 1)[0]
    _, state, _, iters = w.solve(w.setup(seed))
    spec = bench.GameSpec(d=w.d, T=w.T, m=w.m, seed=seed, per_entry=w.per_entry)
    res = bench.run_comparison(spec, solvers=(w.solver,), eps=w.eps)
    assert res.series[w.solver][-1].round == state.round_count == 2 * iters


def test_panel_seeds_follow_the_seed():
    w = workloads.WORKLOADS["entropy-game"]
    assert workloads.panel_seeds(w, 5) == workloads.panel_seeds(w, 5)
    assert not set(workloads.panel_seeds(w, 5)) & set(workloads.panel_seeds(w, 6))


@pytest.fixture(scope="module")
def game_output():
    w = tiny("entropy-game")
    data = w.setup(workloads.panel_seeds(w, 2)[0])
    res, state, gamma, iters = w.solve(data)
    x, y = res.u_avg.blocks
    fields = dict(mean=data[2], x=x, y=y, logged_gap=res.log[-1].iterate_gap,
                  bound=w.theta / (iters * gamma), eps=w.eps, iters=iters,
                  rounds=state.round_count, bytes_sent=state.bytes_sent,
                  m=w.m, d=w.d)
    assert checks.check_game(**fields) == []
    return fields


@pytest.mark.parametrize("corrupt, message", [
    (lambda f: dict(f, x=f["x"] + np.eye(f["d"])[0] * 1e-9), "off the simplex"),
    (lambda f: dict(f, y=np.abs(f["y"] - 1.0 / f["d"])), "off the simplex"),
    (lambda f: dict(f, x=0.5 * f["x"]), "outside the bracket"),
    (lambda f: dict(f, logged_gap=f["logged_gap"] + 1e-6), "logged gap"),
    (lambda f: dict(f, bound=0.5 * checks.game_gap(f["mean"], f["x"], f["y"])),
     "envelope"),
    (lambda f: dict(f, eps=0.5 * checks.game_gap(f["mean"], f["x"], f["y"])),
     "above eps"),
    (lambda f: dict(f, rounds=f["rounds"] + 2), "rounds for"),
    (lambda f: dict(f, rounds=f["rounds"] - 1), "rounds for"),
    (lambda f: dict(f, bytes_sent=f["bytes_sent"] + 8), "bytes sent"),
])
def test_game_check_rejects(game_output, corrupt, message):
    problems = checks.check_game(**corrupt(game_output))
    assert any(message in p for p in problems), problems


@pytest.fixture(scope="module")
def restart_output():
    w = tiny("restart-ball")
    data = w.setup(workloads.panel_seeds(w, 2)[0])
    out, state, z0 = w.solve(data)
    fields = dict(payloads=[s.payload for s in data[0]], z_star=data[1].blocks[0],
                  z0=z0.blocks[0], stage_points=[p.blocks[0] for p in out.stage_points],
                  stage_iters=[s.iters for s in out.stages],
                  stage_rounds=[s.rounds_after for s in out.stages],
                  z_hat=out.z_hat.blocks[0], eps=w.eps, radius=1.0,
                  rounds=state.round_count, bytes_sent=state.bytes_sent, m=w.m)
    z_ref, problems = checks.check_restart(**fields)
    assert problems == []
    return fields


def _far_payloads(f):
    """Payloads whose zero lies outside the unit ball."""
    return [(M, 3.0 * b) for M, b in f["payloads"]]


@pytest.mark.parametrize("corrupt, message", [
    (lambda f: dict(f, z_star=f["z_star"] + 1e-6), "z* differs"),
    (lambda f: dict(f, payloads=_far_payloads(f), z_star=3.0 * f["z_star"]),
     "outside the ball"),
    (lambda f: dict(f, z_hat=f["z_hat"] + math.sqrt(f["eps"])), "above eps"),
    (lambda f: dict(f, stage_points=[f["stage_points"][0]] + f["stage_points"][:-1]),
     "shrank the distance"),
    (lambda f: dict(f, stage_iters=[f["stage_iters"][0] + 1] + f["stage_iters"][1:]),
     "rounds for"),
    (lambda f: dict(f, bytes_sent=f["bytes_sent"] - 8), "bytes sent"),
])
def test_restart_check_rejects(restart_output, corrupt, message):
    _, problems = checks.check_restart(**corrupt(restart_output))
    assert any(message in p for p in problems), problems


def test_outputs_that_change_between_panels_are_reported():
    first = workloads.Outcome(1.0, 1.0, (0.005, 0.005, 0.005), 10, 0.5, {"rounds": 20})
    again = dataclasses.replace(first, setup_wall_s=2.0, solve_wall_s=3.0)
    moved = dataclasses.replace(first, counts={"rounds": 22})
    panels = run.Panels([7, 8])
    panels.outcomes = [[first, again], [first, moved]]
    assert panels.problems() == ["seed 8: outputs differ between panels"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name)
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / run.HERE.name / "run.py"), "--workload",
         "entropy-game", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_every_workload_can_be_named_on_the_command_line():
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
