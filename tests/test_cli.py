import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from visim import bench
from visim.cli import EXIT_CHECK, EXIT_OK, EXIT_SOLVER, EXIT_USAGE, SUBCOMMANDS, main
from visim.errors import NumericsError


def _args(sub, out, **kw):
    argv = [sub, "--d", "5", "--T", "40", "--m", "4", "--K", "4", "--out", out]
    for key, val in kw.items():
        argv += [f"--{key.replace('_', '-')}", str(val)]
    return argv


def test_compare_writes_four_files(tmp_path, capsys):
    out = str(tmp_path / "res")
    assert main(_args("compare", out)) == EXIT_OK
    names = sorted(os.listdir(out))
    assert names == ["constants.csv", "euclidean.csv", "mirror-prox.csv", "paus.csv"]
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 4 and all(p.startswith(out) for p in printed)


def test_fallbacks_are_reported(tmp_path, capsys, monkeypatch):
    from visim import inner

    out = str(tmp_path / "res")
    assert main(_args("compare", out)) == EXIT_OK
    assert "fell back" not in capsys.readouterr().err
    # with no Newton step allowed all K=4 subproblems of both paus solvers
    # fall back, and the CSVs' inner_iters then count extragradient steps
    monkeypatch.setattr(inner, "NEWTON_MAX_STEPS", 0)
    assert main(_args("compare", out)) == EXIT_OK
    err = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0] for line in err] == ["euclidean", "paus"]
    assert all("4 subproblem(s) fell back" in line for line in err)


def test_run_single_solver(tmp_path):
    for solver in ("mirror-prox", "euclidean"):
        out = str(tmp_path / solver)
        assert main(_args("run", out, solver=solver)) == EXIT_OK
        assert sorted(os.listdir(out)) == ["constants.csv", f"{solver}.csv"]


def test_sweep_one_file_per_c(tmp_path):
    out = str(tmp_path / "res")
    assert main(_args("sweep", out, c="0.5,1,2")) == EXIT_OK
    names = sorted(os.listdir(out))
    assert names == [
        "constants.csv", "paus_c0.5.csv", "paus_c1.csv", "paus_c2.csv",
    ]


def test_one_invocation_builds_one_game(tmp_path, monkeypatch):
    games = []

    def counted(spec):
        games.append(spec)
        return generate(spec)

    generate = bench.generate_game
    monkeypatch.setattr(bench, "generate_game", counted)
    assert main(_args("sweep", str(tmp_path / "res"), c="0.5,1,2")) == EXIT_OK
    assert len(games) == 1


def _fail_calls(monkeypatch, name, calls=None):
    """Make bench.<name> raise NumericsError on the given 1-based calls,
    or on every call."""
    real, seen = getattr(bench, name), []

    def failing(*args, **kwargs):
        seen.append(None)
        if calls is None or len(seen) in calls:
            raise NumericsError("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(bench, name, failing)


@pytest.mark.parametrize("argv, fail, calls, files, runs, failed", [
    (["compare"], "mirror_prox_run", None,
     ["constants.csv", "euclidean.csv", "paus.csv"],
     ["euclidean", "mirror-prox", "paus"], "1 of 3 runs failed: mirror-prox"),
    (["sweep", "--c", "0.5,2"], "paus_run", (2,),
     ["constants.csv", "paus_c0.5.csv"],
     ["paus_c0.5", "paus_c2"], "1 of 2 runs failed: paus_c2"),
], ids=["compare", "sweep"])
def test_a_failed_run_writes_no_series(argv, fail, calls, files, runs, failed,
                                       tmp_path, capsys, monkeypatch):
    # the other runs' series are written, constants.csv keeps the gamma of
    # every run, failed ones included, and the exit is 2 with one line
    _fail_calls(monkeypatch, fail, calls)
    out = tmp_path / "res"
    assert main(_args(argv[0], str(out)) + argv[1:]) == EXIT_SOLVER
    assert sorted(os.listdir(out)) == files
    rows = (out / "constants.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == runs
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [str(out / name) for name in files[1:] + files[:1]]
    assert captured.err.splitlines() == [f"visim: {failed} (NumericsError: injected)"]


@pytest.mark.parametrize("argv, failed", [
    (["run", "--solver", "mirror-prox"], ["mirror-prox"]),
    (["compare"], ["paus", "mirror-prox", "euclidean"]),
    (["sweep", "--solver", "mirror-prox", "--c", "0.5,2"],
     ["mirror-prox_c0.5", "mirror-prox_c2"]),
], ids=["run", "compare", "sweep"])
def test_every_run_failed_writes_nothing(argv, failed, tmp_path, capsys, monkeypatch):
    _fail_calls(monkeypatch, "mirror_prox_run")
    _fail_calls(monkeypatch, "paus_run")
    out = tmp_path / "res"
    assert main(_args(argv[0], str(out)) + argv[1:]) == EXIT_SOLVER
    assert not out.exists()
    captured = capsys.readouterr()
    named = "; ".join(f"{tag} (NumericsError: injected)" for tag in failed)
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"visim: {len(failed)} of {len(failed)} runs failed: {named}"]


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# small instance\n"
        "d = 5\n"
        "T = 40\n"
        "m = 4\n"
        "K = 3\n"
        "solver = mirror-prox\n"
    )
    out = str(tmp_path / "res")
    # the --solver flag beats the config file; d/T/m/K come from the file
    rc = main(["run", "--config", str(cfg), "--solver", "paus", "--out", out])
    assert rc == EXIT_OK
    assert "paus.csv" in os.listdir(out) and "mirror-prox.csv" not in os.listdir(out)


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("unknown_key = 3\n")
    assert main(["run", "--config", str(bad)]) == EXIT_SOLVER
    malformed = tmp_path / "malformed.cfg"
    malformed.write_text("just words\n")
    assert main(["run", "--config", str(malformed)]) == EXIT_SOLVER
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == EXIT_SOLVER


def test_usage_errors_exit_one(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--no-such-flag"])
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["run", "--solver", "nope"])
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == EXIT_USAGE
    # a flag is spelt in full: no prefix of it stands for it
    out = tmp_path / "res"
    for argv in (["run", "--se", "2"], ["compare", "--s", "3"]):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def test_invalid_instance_exits_two(tmp_path, capsys):
    # T not divisible by m is a solver-side configuration failure
    rc = main(["run", "--d", "5", "--T", "41", "--m", "4",
               "--out", str(tmp_path / "res")])
    assert rc == EXIT_SOLVER
    # so are T = 0 and T = -m, multiples of m that give a worker no data,
    # and a negative seed, which the spec refuses by name before numpy's
    # generator does: one stderr line, not numpy's warnings and a traceback
    capsys.readouterr()
    for tag, args, field in (("T0", ["compare", "--T", "0", "--K", "3"], "T"),
                             ("T-5", ["compare", "--T", "-5", "--K", "3"], "T"),
                             ("seed", ["run", "--seed", "-1", "--K", "2"], "seed")):
        out = str(tmp_path / f"res{tag}")
        assert main([*args, "--out", out]) == EXIT_SOLVER
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and captured.out == ""
        assert err[0].startswith("visim: ConfigError")
        assert field in err[0]
        assert not os.path.exists(out)


@pytest.mark.parametrize("sub, flags", [
    ("compare", ["--c", ","]),
    ("sweep", ["--c", " , "]),
    ("run", ["--c", "inf", "--K", "2"]),
    ("run", ["--c", "nan"]),
    ("run", ["--c", "0"]),
    ("sweep", ["--c", "0.5,nan"]),
    ("compare", ["--eps", "nan"]),
    ("run", ["--eps", "inf"]),
    ("run", ["--eps", "-1"]),
])
def test_bad_step_size_input_exits_two_with_one_line(sub, flags, tmp_path, capsys):
    # an empty --c list, or a c or eps that is non-finite or not positive,
    # is a configuration error, not a traceback
    out = str(tmp_path / "res")
    argv = [sub, "--d", "5", "--T", "40", "--m", "4", "--out", out] + flags
    assert main(argv) == EXIT_SOLVER
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and captured.out == ""
    assert err[0].startswith(("visim: ConfigError", "visim: ParameterError"))
    assert not os.path.exists(out)


@pytest.mark.parametrize("text", ["x\n" + "1 " * 25, "5\n" + "1 " * 24 + "x\n"])
def test_a_malformed_matrix_file_exits_two_with_one_line(text, tmp_path, capsys):
    # a d that is not an integer, or an entry that is not a number, is a
    # configuration error naming the file, not a bare ValueError
    matrix = tmp_path / "base.txt"
    matrix.write_text(text)
    out = tmp_path / "res"
    assert main(_args("compare", str(out), matrix_file=matrix)) == EXIT_SOLVER
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("visim: ConfigError")
    assert str(matrix) in err[0]
    assert captured.out == "" and not out.exists()


def test_check_subcommand(capsys):
    assert main(["check"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) >= 4
    assert all(line.startswith("[PASS]") for line in lines)
    assert EXIT_CHECK == 3  # reserved code for check failures


def test_compare_byte_identical(tmp_path):
    blobs = []
    for tag in ("a", "b"):
        out = str(tmp_path / tag)
        assert main(_args("compare", out)) == EXIT_OK
        blob = b"".join(
            Path(out, n).read_bytes()
            for n in sorted(os.listdir(out))
        )
        blobs.append(blob)
    assert blobs[0] == blobs[1]


def test_python_dash_m_visim_runs(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    out = tmp_path / "res"
    proc = subprocess.run(
        [sys.executable, "-m", "visim", *_args("run", str(out))],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert sorted(os.listdir(out)) == ["constants.csv", "paus.csv"]


# a value other than the default for every setting, on the tiny game of _args,
# and for geometry, which no subcommand takes (run --solver euclidean is
# the Euclidean setup)
_VALUES = {
    "d": "4", "T": "48", "m": "2", "seed": "2", "K": "3", "out": "elsewhere",
    "per_entry": True, "timing": True, "matrix_file": "base.txt",
    "solver": "mirror-prox", "geometry": "euclidean", "c": "0.5", "eps": "0.5",
}
_UNUSED = [(sub, key) for sub in SUBCOMMANDS for key in _VALUES
           if key not in SUBCOMMANDS[sub]]


def _tiny_argv(sub, without, flags):
    argv = [sub]
    for key, val in {"d": "5", "T": "40", "m": "4", "K": "4", "out": "res"}.items():
        if key != without:
            argv += [f"--{key}", val]
    return argv + flags


def _without_elapsed(written):
    out, blobs = written
    return out, {name: b"\n".join(row.rsplit(b",", 1)[0] for row in blob.splitlines())
                 for name, blob in blobs.items()}


@pytest.mark.parametrize("sub, key", [
    (sub, key) for sub, keys in SUBCOMMANDS.items() for key in keys
])
def test_a_setting_writes_the_same_from_flag_and_config(sub, key, tmp_path, monkeypatch):
    val = "0.5,2" if (sub, key) == ("sweep", "c") else _VALUES[key]
    flag = f"--{key.replace('_', '-')}"
    sources = {"default": [], "flag": [flag] if val is True else [flag, val],
               "config": ["--config", "exp.cfg"]}
    written = {}
    for source, flags in sources.items():
        (tmp_path / source).mkdir()
        monkeypatch.chdir(tmp_path / source)
        np.savetxt("base.txt", np.random.default_rng(0).uniform(size=(5, 5)),
                   header="5", comments="")
        Path("exp.cfg").write_text(f"{key} = {'true' if val is True else val}\n")
        assert main(_tiny_argv(sub, key, flags)) == EXIT_OK
        [out] = [p for p in Path().iterdir() if p.is_dir()]
        written[source] = out.name, {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    same = _without_elapsed if key == "timing" else (lambda w: w)
    assert same(written["flag"]) == same(written["config"])
    assert written["flag"] != written["default"]


@pytest.mark.parametrize("sub, key", _UNUSED)
def test_a_setting_the_subcommand_does_not_use_is_refused(sub, key, tmp_path, capsys):
    out, val = tmp_path / "res", _VALUES[key]
    with pytest.raises(SystemExit) as exc:
        main(_args(sub, str(out), **{key: val}))
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"{key} = {val}\n")
    assert main(_args(sub, str(out)) + ["--config", str(cfg)]) == EXIT_SOLVER
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"visim: ConfigError: {cfg}:1: {sub} has no setting {key!r}"]
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("sub, flags, config", [
    ("run", ["--c", "0.5,2"], ""),
    ("run", ["--d", "1"], ""),
    ("run", ["--solver", "mirror-prox"], "geometry = euclidean"),
    ("run", [], "solver = euclidean\ngeometry = entropy"),
    ("compare", ["--c", "0.5,2"], ""),
    ("run", [], "c = 0.5,2"),
    ("run", [], "geometry = Euclidean"),
    ("run", [], "solver = PAUS"),
    ("compare", [], "per_entry = on"),
    ("sweep", [], "timing = 2"),
    ("sweep", [], "d = five"),
    ("sweep", ["--c", "1,1.0"], ""),
])
def test_refused_settings_exit_two_with_one_line(sub, flags, config, tmp_path, capsys):
    # a broken rule of --c, two sweep values of one tag, a game too small,
    # a config key the subcommand does not take (geometry), or a config
    # value outside its setting's type, choices or booleans, is a
    # configuration error
    out = tmp_path / "res"
    argv = _args(sub, str(out)) + flags
    if config:
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(config + "\n")
        argv += ["--config", str(cfg)]
    assert main(argv) == EXIT_SOLVER
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("visim: ConfigError")
    assert captured.out == "" and not out.exists()
