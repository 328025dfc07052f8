"""Command-line front door.

Subcommands:

* ``run``     — one solver on the matrix game, one CSV.
* ``compare`` — the three-solver round-complexity experiment.
* ``sweep``   — stepsize-multiplier study (gamma = c * gamma_theoretical).
* ``check``   — built-in invariant suites; nonzero exit on failure.

Exit codes: 0 success, 1 usage error, 2 numeric/solver failure,
3 check failure.  Precedence: flags > config file (key=value lines) >
defaults; defaults reproduce the standard d=25, T=10^4, m=5, seed=1 game.
"""

from __future__ import annotations

import argparse
import sys

from .bench import (
    ExperimentResult,
    GameSpec,
    SOLVERS,
    emit_csv,
    run_comparison,
    run_sweep,
)
from .errors import ConfigError, VisimError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER = 2
EXIT_CHECK = 3

DEFAULTS = {
    "d": 25,
    "T": 10_000,
    "m": 5,
    "seed": 1,
    "K": 100,
    "c": 1.0,
    "eps": None,
    "solver": "paus",
    "geometry": "entropy",
    "out": "results",
    "per_entry": False,
    "timing": False,
    "matrix_file": None,
}

_INT_KEYS = {"d", "T", "m", "seed", "K"}
_FLOAT_KEYS = {"c", "eps"}
_BOOL_KEYS = {"per_entry", "timing"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors -> exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d", type=int, help="game dimension (default 25)")
    p.add_argument("--T", type=int, help="number of sampled matrices (default 10000)")
    p.add_argument("--m", type=int, help="number of workers (default 5)")
    p.add_argument("--seed", type=int, help="RNG seed (default 1)")
    p.add_argument("--eps", type=float, help="target duality gap (sets K from theory)")
    p.add_argument("--K", type=int, help="outer iterations (default 100)")
    p.add_argument("--c", help="stepsize multiplier (comma list for sweep)")
    p.add_argument("--solver", choices=SOLVERS, help="solver (default paus)")
    p.add_argument(
        "--geometry", choices=("entropy", "euclidean"),
        help="Bregman geometry for `run` (default entropy)",
    )
    p.add_argument("--out", help="output directory (default results/)")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--per-entry", dest="per_entry", action="store_const", const=True,
                   help="independent Rademacher sign per matrix entry")
    p.add_argument("--timing", action="store_const", const=True,
                   help="write measured elapsed_ms (breaks byte determinism)")
    p.add_argument("--matrix-file", dest="matrix_file",
                   help="base matrix from file instead of the seeded synthetic")


def build_parser() -> _Parser:
    parser = _Parser(prog="visim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in ("run", "compare", "sweep"):
        _add_common(sub.add_parser(name))
    sub.add_parser("check", help="run the invariant suites")
    return parser


def _parse_config_file(path: str) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise VisimError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in DEFAULTS:
                raise VisimError(f"{path}:{lineno}: unknown key {key!r}")
            if key in _INT_KEYS:
                out[key] = int(val)
            elif key in _FLOAT_KEYS:
                out[key] = float(val)
            elif key in _BOOL_KEYS:
                out[key] = val.lower() in ("1", "true", "yes")
            else:
                out[key] = val
    return out


def _merge_settings(args: argparse.Namespace) -> dict:
    merged = dict(DEFAULTS)
    if getattr(args, "config", None):
        merged.update(_parse_config_file(args.config))
    for key in DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    return merged


def _c_list(value) -> tuple[float, ...]:
    if isinstance(value, (int, float)):
        return (float(value),)
    cs = tuple(float(tok) for tok in str(value).split(",") if tok.strip())
    if not cs:
        raise ConfigError(f"--c needs at least one value, got {value!r}")
    return cs


def _spec_from(settings: dict) -> GameSpec:
    return GameSpec(
        d=settings["d"],
        T=settings["T"],
        m=settings["m"],
        seed=settings["seed"],
        per_entry=settings["per_entry"],
        matrix_path=settings["matrix_file"],
    )


def _report_fallbacks(fallbacks: dict[str, int]) -> None:
    # a series with fallbacks mixes Newton steps and extragradient
    # iterations in its inner_iters column
    for tag, n in sorted(fallbacks.items()):
        if n:
            print(
                f"{tag}: {n} subproblem(s) fell back to the extragradient "
                "loop; their inner_iters count its iterations",
                file=sys.stderr,
            )


def _do_run(settings: dict) -> int:
    solver = settings["solver"]
    if solver == "paus" and settings["geometry"] == "euclidean":
        solver = "euclidean"
    cs = _c_list(settings["c"])
    result = run_comparison(
        _spec_from(settings),
        solvers=(solver,),
        iters=settings["K"],
        c=cs[0],
        eps=settings["eps"],
        timing=settings["timing"],
    )
    if result.errors:
        print(f"solver failed: {result.errors}", file=sys.stderr)
        return EXIT_SOLVER
    for path in emit_csv(result, settings["out"]):
        print(path)
    _report_fallbacks(result.inner_fallbacks)
    return EXIT_OK


def _do_compare(settings: dict) -> int:
    cs = _c_list(settings["c"])
    result = run_comparison(
        _spec_from(settings),
        solvers=SOLVERS,
        iters=settings["K"],
        c=cs[0],
        eps=settings["eps"],
        timing=settings["timing"],
    )
    for path in emit_csv(result, settings["out"]):
        print(path)
    _report_fallbacks(result.inner_fallbacks)
    if result.errors:
        print(f"some solvers failed: {result.errors}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def _do_sweep(settings: dict) -> int:
    cs = _c_list(settings["c"])
    spec = _spec_from(settings)
    runs = run_sweep(
        spec, cs, solver=settings["solver"], iters=settings["K"],
        timing=settings["timing"],
    )
    solver = settings["solver"]
    merged = ExperimentResult(
        spec=spec,
        constants=next(iter(runs.values())).constants,
        timing=settings["timing"],
    )
    failed = {}
    for c, res in runs.items():
        tag = f"{solver}_c{c:g}"
        if solver in res.errors:
            failed[tag] = res.errors[solver]
            continue
        merged.series[tag] = res.series[solver]
        merged.gammas[tag] = res.gammas[solver]
        merged.inner_fallbacks[tag] = res.inner_fallbacks.get(solver, 0)
    for path in emit_csv(merged, settings["out"]):
        print(path)
    _report_fallbacks(merged.inner_fallbacks)
    if failed:
        print(f"some sweep points failed: {failed}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def _do_check() -> int:
    from .checks import run_all_checks

    failures = 0
    for outcome in run_all_checks():
        status = "PASS" if outcome.passed else "FAIL"
        print(f"[{status}] {outcome.name}: {outcome.detail}")
        failures += 0 if outcome.passed else 1
    return EXIT_OK if failures == 0 else EXIT_CHECK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "check":
        return _do_check()
    try:
        settings = _merge_settings(args)
        if args.subcommand == "run":
            return _do_run(settings)
        if args.subcommand == "compare":
            return _do_compare(settings)
        return _do_sweep(settings)
    except (VisimError, ValueError, OSError) as exc:
        print(f"visim: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
