import dataclasses
import math
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from visim import bench, inner, paus
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
    run_experiment,
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


@settings(max_examples=80)
@given(
    d=st.integers(2, 7),
    seed=st.integers(0, 2**32 - 1),
    per_entry=st.booleans(),
    rows=st.integers(2, 6),
    spare=st.integers(0, 3),
    where=st.sampled_from(["below", "one", "ragged"]),
)
def test_chunked_generation_is_one_draw(d, seed, per_entry, rows, spare, where):
    # chunks of `rows` matrices (the spare signs do not make a whole one),
    # which per-entry generation rounds down to an even number of matrices;
    # T below one chunk, exactly one, or several with a ragged last one.
    # Odd d and odd T end the signs on half a generator word.
    T = {"below": rows - 1, "one": rows, "ragged": 3 * rows + 1}[where]
    spec = GameSpec(d=d, T=T, m=1, seed=seed, per_entry=per_entry)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bench, "_SIGN_CHUNK", rows * d * d + spare)
        mats = generate_game(spec)
    rng = np.random.default_rng(seed)
    shape = (T, d, d) if per_entry else (T, 1, 1)
    expected = (1.0 + rng.choice([-1.0, 1.0], shape)) * base_matrix(spec)[None]
    assert mats.shape == (T, d, d)
    assert np.array_equal(mats, expected)


def test_default_chunks_are_one_draw():
    # T d^2 = 625,625 signs is odd and spans three default chunks, so the
    # last chunk ends on half a generator word
    d, T, seed = 25, 1001, 5
    assert T * d * d % 2 == 1 and T * d * d > 2 * bench._SIGN_CHUNK
    spec = GameSpec(d=d, T=T, m=1, seed=seed, per_entry=True)
    xi = np.random.default_rng(seed).choice([-1.0, 1.0], (T, d, d))
    expected = (1.0 + xi) * base_matrix(spec)[None]
    assert generate_game(spec).tobytes() == expected.tobytes()


@pytest.mark.parametrize("per_entry", [False, True])
def test_generation_keeps_the_bits_of_the_signed_product(tmp_path, per_entry):
    # a --matrix-file base with negative entries, a -0.0 and a NaN: 0 * C
    # keeps its signed zeros and NaNs, bit for bit
    d, T, seed = 4, 30, 9
    C = np.random.default_rng(0).uniform(-1.0, 1.0, size=(d, d))
    C[0, 1], C[2, 3] = -0.0, np.nan
    path = tmp_path / "base.txt"
    path.write_text(f"{d}\n" + "\n".join(" ".join(repr(float(x)) for x in row)
                                         for row in C))
    spec = GameSpec(d=d, T=T, m=1, seed=seed, per_entry=per_entry,
                    matrix_path=str(path))
    shape = (T, d, d) if per_entry else (T, 1, 1)
    xi = np.random.default_rng(seed).choice([-1.0, 1.0], shape)
    expected = (1.0 + xi) * base_matrix(spec)[None]
    assert np.signbit(expected).any() and np.isnan(expected).any()
    assert generate_game(spec).tobytes() == expected.tobytes()


def test_per_entry_generation_peaks_near_one_tensor():
    spec = GameSpec(d=25, T=4000, m=5, per_entry=True)
    tracemalloc.start()
    try:
        mats = generate_game(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the output plus one chunk's draws; one draw of every sign took 3x
    assert peak < 1.25 * mats.nbytes


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


def test_round_off_delta_gets_the_capped_gamma():
    # shard 1 of this one-sign game holds the global share of +1 signs, so
    # its delta is round-off in both pairings (8.9e-16 and 1.6e-15); each
    # similarity solver gets the cap GAMMA_CAP_SCALE / L of its own pairing
    mats = generate_game(GameSpec(d=6, T=60, m=4, seed=5))
    consts = estimate_constants(mats, 4)
    consts_l2 = estimate_constants(mats, 4, pairing="l2")
    ulp = np.finfo(float).eps
    for pair in (consts, consts_l2):
        assert 0.0 < pair.delta <= bench.ROUNDOFF_ULPS * ulp * pair.L
    cap = bench.GAMMA_CAP_SCALE
    assert bench._stepsize("paus", 1.0, consts, consts_l2) == cap / consts.L
    assert bench._stepsize("euclidean", 1.0, consts, consts_l2) == cap / consts_l2.L
    assert bench._stepsize("mirror-prox", 0.5, consts, consts_l2) == 0.5 / consts.L
    # a delta just past round-off gets c / delta
    above = dataclasses.replace(
        consts_l2, delta=2.0 * bench.ROUNDOFF_ULPS * ulp * consts_l2.L)
    assert bench._stepsize("euclidean", 2.0, consts, above) == 2.0 / above.delta


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
    # this game's delta is at round-off (test_round_off_delta_gets_the_capped_gamma),
    # so both similarity solvers run at the capped gamma; the Newton solve
    # answers every subproblem of both
    assert res.inner_fallbacks == {"paus": 0, "euclidean": 0}
    # every paus subproblem's reduced attempt fails at this gamma, and each
    # goes on by continuation in gamma: the first, started at 1 / max|M|
    # where the coupling is weak, takes 125 Newton steps, the others 20 to
    # 33.  The euclidean run's first full attempt stalls at a kink, and the
    # continuation answers in 47 steps.  The runs take 407 and 69 steps.
    # paus_run predicts no reduced start after a continuation's answer, so
    # every reduced attempt here starts from the warm start's y-block;
    # started from the predicted y-block they fail too, and the run takes
    # 426 steps
    steps = {name: sum(rec.inner_iters for rec in res.series[name])
             for name in ("paus", "euclidean")}
    assert steps == {"paus": 407, "euclidean": 69}
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


def test_run_comparison_checks_eps_before_generating(monkeypatch):
    def no_game(spec):
        raise AssertionError("generated a game for a rejected eps")

    monkeypatch.setattr(bench, "generate_game", no_game)
    for eps in (0.0, -1.0):
        with pytest.raises(ParameterError, match="eps"):
            run_comparison(GameSpec(d=6, T=60, m=4), eps=eps)


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
        blob = b"".join(Path(p).read_bytes() for p in sorted(paths))
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


@pytest.mark.parametrize("text", ["x\n1\n", "2.0\n1 2\n3 4\n", "-1\n5\n",
                                  "2\n1 x\n3 4\n", "2\n1 2\n3 4,5\n"])
def test_a_malformed_matrix_file_is_a_config_error(tmp_path, text):
    # a d that is not a positive integer, or an entry that is not a number
    path = tmp_path / "malformed.txt"
    path.write_text(text)
    with pytest.raises(ConfigError, match="malformed.txt"):
        load_matrix(str(path))


def test_spec_validation():
    with pytest.raises(ConfigError):
        GameSpec(d=1)
    with pytest.raises(ConfigError):
        GameSpec(T=10, m=3)
    # T = 0 and T = -m are multiples of m, but leave a worker no matrices
    for T in (0, -4, 3):
        with pytest.raises(ConfigError, match="T"):
            GameSpec(T=T, m=4)
    assert GameSpec(T=4, m=4).T == 4
    # numpy's generator refuses these seeds, and a non-finite theta gives C
    # NaN entries, with errors that do not name the setting
    for seed in (-3, 2.5, "1"):
        with pytest.raises(ConfigError, match="seed"):
            GameSpec(seed=seed)
    for theta in (math.nan, math.inf, 0.0, -0.5):
        with pytest.raises(ConfigError, match="theta"):
            GameSpec(theta=theta)
    assert GameSpec(seed=0, theta=2).seed == 0


def test_run_sweep_keys_and_gammas():
    # a sweep's run list on one game: each run under its tag, the same
    # series as a comparison run at its c
    spec = GameSpec(d=5, T=40, m=4, seed=10)
    runs = [("paus_c0.5", "paus", 0.5), ("paus_c2", "paus", 2.0)]
    res = run_experiment(spec, runs, iters=4)
    assert set(res.series) == set(res.gammas) == {"paus_c0.5", "paus_c2"}
    g = res.gammas
    assert g["paus_c2"] == pytest.approx(4.0 * g["paus_c0.5"])
    alone = run_comparison(spec, solvers=("paus",), iters=4, c=2.0)
    def rows(series):
        return [(r.round, r.iterate_gap, r.inner_iters) for r in series]

    assert rows(res.series["paus_c2"]) == rows(alone.series["paus"])
    with pytest.raises(ConfigError):
        run_experiment(spec, [])
    with pytest.raises(ConfigError, match="distinct"):
        run_experiment(spec, runs + runs[:1])


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


def test_default_compare_needs_no_extragradient_fallback(monkeypatch):
    # every paus and euclidean subproblem of the default comparison, with
    # one sign per matrix or per entry (the game of the paus benchmark
    # workloads), is solved exactly by its first Newton attempt; none
    # reaches the continuation in gamma or composite_mp
    def continuation(*args, **kwargs):
        raise AssertionError("a first Newton attempt failed")

    def fallback(*args, **kwargs):
        raise AssertionError("a subproblem fell back to composite_mp")

    monkeypatch.setattr(inner, "_continue_in_gamma", continuation)
    monkeypatch.setattr(paus, "composite_mp", fallback)
    for per_entry in (False, True):
        res = run_comparison(GameSpec(per_entry=per_entry))
        assert res.errors == {}, per_entry
        assert set(res.series) == {"paus", "mirror-prox", "euclidean"}
        assert res.inner_fallbacks == {"paus": 0, "euclidean": 0}, per_entry
