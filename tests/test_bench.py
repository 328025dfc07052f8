import math
import os

import numpy as np
import pytest

from visim.baselines import BaselineConfig, BaselineKind, euclidean_paus_run
from visim.bench import (
    GameSpec,
    base_matrix,
    emit_csv,
    estimate_constants,
    generate_game,
    load_matrix,
    log_indices,
    rounds_to_eps,
    run_comparison,
    run_sweep,
)
from visim.cluster import ClusterState, shard_data
from visim.errors import ConfigError, IoError, ParameterError
from visim.geometry import euclidean_simplex, uniform_point
from visim.paus import RunRecord, duality_gap


def test_matrices_are_zero_or_twice_base():
    spec = GameSpec(d=6, T=40, m=4, seed=0)
    C = base_matrix(spec)
    mats = generate_game(spec)
    assert mats.shape == (40, 6, 6)
    for A in mats:
        zero = np.allclose(A, 0.0)
        doubled = np.allclose(A, 2.0 * C)
        assert zero or doubled


def test_per_entry_switch():
    spec = GameSpec(d=4, T=30, m=3, seed=1, per_entry=True)
    C = base_matrix(spec)
    mats = generate_game(spec)
    # every entry is 0 or 2 C_ij, but whole matrices are neither all-zero
    # nor all-doubled
    ok = np.isclose(mats, 0.0) | np.isclose(mats, 2.0 * C[None])
    assert ok.all()
    assert not any(np.allclose(A, 0.0) or np.allclose(A, 2.0 * C) for A in mats)


def test_generation_is_deterministic():
    spec = GameSpec(d=5, T=20, m=4, seed=7)
    np.testing.assert_array_equal(generate_game(spec), generate_game(spec))
    other = GameSpec(d=5, T=20, m=4, seed=8)
    assert not np.array_equal(generate_game(spec), generate_game(other))


def test_empirical_mean_concentrates():
    # Hoeffding: ||A_bar - C||_max <= 3 ||C||_max / sqrt(T) with overwhelming
    # probability; demand at least 93 of 100 seeds
    hits = 0
    spec0 = GameSpec(d=5, T=400, m=4)
    C = base_matrix(spec0)
    thresh = 3.0 * np.abs(C).max() / math.sqrt(400)
    for seed in range(100):
        mats = generate_game(GameSpec(d=5, T=400, m=4, seed=seed))
        if np.abs(mats.mean(axis=0) - C).max() <= thresh:
            hits += 1
    assert hits >= 93


def test_delta_shrinks_with_shard_size():
    # delta = ||mean - shard1 mean||_max is O(1/sqrt(n)) in the local size n
    deltas = []
    for T in (100, 10_000):
        spec = GameSpec(d=5, T=T, m=5, seed=3)
        deltas.append(estimate_constants(generate_game(spec), 5).delta)
    assert deltas[1] < deltas[0] / 3.0


def test_constants_edge_cases():
    spec = GameSpec(d=4, T=24, m=4, seed=4)
    mats = generate_game(spec)
    # m = 1: the shard is the mean, delta = 0
    assert estimate_constants(mats, 1).delta == 0.0
    # m = T: single-matrix shard, delta of order ||C||_max
    C = base_matrix(spec)
    d_full = estimate_constants(mats, 24).delta
    assert d_full > 0.1 * np.abs(C).max()
    l2 = estimate_constants(mats, 4, pairing="l2")
    assert l2.norm_tag == "l2" and l2.delta > 0.0
    with pytest.raises(ConfigError):
        estimate_constants(mats, 5)
    with pytest.raises(ConfigError):
        estimate_constants(mats, 4, pairing="l7")


def test_log_indices_shape():
    small = log_indices(40)
    assert small == set(range(40))
    big = log_indices(5000)
    assert 0 in big and 4999 in big
    dense = [k for k in big if k < 500]
    assert dense == list(range(500))
    sparse = sorted(k for k in big if k >= 500)
    ratios = [b / a for a, b in zip(sparse, sparse[1:])]
    assert max(ratios) <= 1.11
    assert len(big) < 700


def test_run_comparison_series_start_at_round_zero():
    spec = GameSpec(d=6, T=60, m=4, seed=5)
    res = run_comparison(spec, iters=8)
    assert set(res.series) == {"paus", "mirror-prox", "euclidean"}
    for name, series in res.series.items():
        assert series[0].round == 0
        rounds = [rec.round for rec in series]
        assert rounds == sorted(rounds) and len(set(rounds)) == len(rounds)
        assert all(rec.iterate_gap >= 0.0 for rec in series)
    assert res.errors == {}
    # paus improves on the starting gap
    assert res.series["paus"][-1].iterate_gap < res.series["paus"][0].iterate_gap


def test_run_comparison_eps_mode_sets_iters_from_envelope():
    spec = GameSpec(d=6, T=60, m=4, seed=6)
    res = run_comparison(spec, solvers=("paus",), eps=0.05, iters=3)
    gamma = res.gammas["paus"]
    want_k = math.ceil(2.0 * math.log(6.0) / (gamma * 0.05))
    assert res.series["paus"][-1].round == 2 * want_k
    with pytest.raises(ParameterError):
        run_comparison(spec, solvers=("paus",), eps=-1.0)
    with pytest.raises(ConfigError):
        run_comparison(spec, solvers=("nope",))


def test_rounds_to_eps():
    recs = [
        RunRecord(round=0, iterate_gap=1.0, inner_iters=0, elapsed=0.0),
        RunRecord(round=2, iterate_gap=0.5, inner_iters=1, elapsed=0.0),
        RunRecord(round=4, iterate_gap=0.05, inner_iters=1, elapsed=0.0),
    ]
    assert rounds_to_eps(recs, 0.5) == 2
    assert rounds_to_eps(recs, 0.01) is None
    assert rounds_to_eps(recs, 2.0) == 0


def test_emit_csv_roundtrip(tmp_path):
    spec = GameSpec(d=5, T=40, m=4, seed=7)
    res = run_comparison(spec, solvers=("paus",), iters=5)
    paths = emit_csv(res, str(tmp_path / "out"))
    assert sorted(os.path.basename(p) for p in paths) == [
        "constants.csv", "paus.csv",
    ]
    with open(paths[0], "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "round,gap,inner_iters,elapsed_ms"
    assert len(lines) == 1 + len(res.series["paus"])
    # repr round-trip: parsing the gap column recovers the float exactly
    for line, rec in zip(lines[1:], res.series["paus"]):
        cols = line.split(",")
        assert int(cols[0]) == rec.round
        assert float(cols[1]) == rec.iterate_gap
        assert float(cols[3]) == 0.0  # timing off -> zero elapsed
    with open(paths[1], "r", encoding="utf-8") as fh:
        assert fh.readline().rstrip("\n") == "solver,L,L_F1,delta,gamma"


def test_emit_csv_byte_identical_across_runs(tmp_path):
    spec = GameSpec(d=5, T=40, m=4, seed=8)
    blobs = []
    for tag in ("a", "b"):
        res = run_comparison(spec, solvers=("paus", "mirror-prox"), iters=6)
        paths = emit_csv(res, str(tmp_path / tag))
        blob = b"".join(open(p, "rb").read() for p in sorted(paths))
        blobs.append(blob)
    assert blobs[0] == blobs[1]


def test_emit_csv_bad_directory():
    spec = GameSpec(d=4, T=20, m=4, seed=9)
    res = run_comparison(spec, solvers=("paus",), iters=2)
    with pytest.raises(IoError):
        emit_csv(res, "/dev/null/impossible")


def test_load_matrix(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("2\n1.0 2.0\n3.0 4.0\n")
    np.testing.assert_allclose(load_matrix(str(p)), [[1.0, 2.0], [3.0, 4.0]])
    bad = tmp_path / "bad.txt"
    bad.write_text("3\n1.0 2.0\n")
    with pytest.raises(ConfigError):
        load_matrix(str(bad))
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    with pytest.raises(ConfigError):
        load_matrix(str(empty))
    with pytest.raises(IoError):
        load_matrix(str(tmp_path / "missing.txt"))
    # wired through GameSpec
    spec = GameSpec(d=2, T=10, m=2, seed=0, matrix_path=str(p))
    np.testing.assert_allclose(base_matrix(spec), [[1.0, 2.0], [3.0, 4.0]])
    off = GameSpec(d=3, T=9, m=3, seed=0, matrix_path=str(p))
    with pytest.raises(ConfigError):
        base_matrix(off)


def test_spec_validation():
    with pytest.raises(ConfigError):
        GameSpec(d=1)
    with pytest.raises(ConfigError):
        GameSpec(T=10, m=3)


def test_run_sweep_keys_and_gammas():
    spec = GameSpec(d=5, T=40, m=4, seed=10)
    runs = run_sweep(spec, (0.5, 2.0), solver="paus", iters=4)
    assert set(runs) == {0.5, 2.0}
    g = {c: r.gammas["paus"] for c, r in runs.items()}
    assert g[2.0] == pytest.approx(4.0 * g[0.5])
    with pytest.raises(ConfigError):
        run_sweep(spec, ())


def test_euclidean_series_equals_euclidean_paus_run():
    # run_comparison reaches paus_run directly, the baseline entry point
    # through BaselineConfig: both routes give the same series
    spec = GameSpec(d=5, T=60, m=3, seed=4)
    iters = 15
    res = run_comparison(spec, solvers=("euclidean",), iters=iters)
    mats = generate_game(spec)
    mean = mats.mean(axis=0)
    consts = estimate_constants(mats, spec.m, "l2")
    geom = euclidean_simplex(spec.d)
    cfg = BaselineConfig(
        kind=BaselineKind.EUCLIDEAN_PAUS, stepsize=1.0 / consts.delta,
        iters=iters, geometry=geom, z0=uniform_point(geom),
        l_f1=consts.L_F1, delta=consts.delta,
    )
    run = euclidean_paus_run(
        cfg, ClusterState(shards=shard_data(mats, spec.m)),
        gap_fn=lambda u: duality_gap(mean, u.blocks[0], u.blocks[1]),
        log_predicate=log_indices(iters).__contains__,
    )
    assert res.gammas["euclidean"] == cfg.stepsize

    def rows(log):
        return [(r.round, r.iterate_gap, r.inner_iters) for r in log]

    assert rows(res.series["euclidean"][1:]) == rows(run.log)
    assert sum(r.inner_iters for r in run.log) > 0
