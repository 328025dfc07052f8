"""Command-line front door.

Subcommands:

* ``run``     — one solver on the matrix game, one CSV.
* ``compare`` — the three-solver round-complexity experiment.
* ``sweep``   — stepsize-multiplier study (gamma = c * gamma_theoretical).
* ``check``   — built-in invariant suites; nonzero exit on failure.

Each of ``run``, ``compare`` and ``sweep`` takes only the settings it
uses (``SUBCOMMANDS``), as flags or as ``key=value`` lines of a
``--config`` file.  Precedence: flags > config file > defaults; defaults
reproduce the standard d=25, T=10^4, m=5, seed=1 game.  All three are one
loop over (tag, solver, c) runs on one game (``bench.run_experiment``).

Exit codes: 0 success, 1 usage error (an unknown or abbreviated flag, or
a flag value outside its type or choices),
2 configuration, numeric or solver failure (a bad config file included),
3 check failure.
"""

from __future__ import annotations

import argparse
import sys

from .bench import GameSpec, SOLVERS, emit_csv, run_experiment
from .errors import ConfigError, VisimError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER = 2
EXIT_CHECK = 3

# Every setting of run, compare and sweep: its default, and the argparse
# keywords of its flag --<name> (with "-" for "_").  A config file key is
# the name, and its value is typed from the same entry, choices included.
SETTINGS = {
    "d": (25, {"type": int, "help": "game dimension"}),
    "T": (10_000, {"type": int, "help": "number of sampled matrices"}),
    "m": (5, {"type": int, "help": "number of workers"}),
    "seed": (1, {"type": int, "help": "RNG seed"}),
    "K": (100, {"type": int, "help": "outer iterations"}),
    "out": ("results", {"help": "output directory"}),
    "per_entry": (False, {"action": "store_const", "const": True,
                          "help": "independent Rademacher sign per matrix entry"}),
    "timing": (False, {"action": "store_const", "const": True,
                       "help": "write measured elapsed_ms (breaks byte determinism)"}),
    "matrix_file": (None, {"help": "base matrix from file instead of the seeded synthetic"}),
    "solver": ("paus", {"choices": SOLVERS, "help": "solver"}),
    "c": ("1", {"help": "stepsize multiplier; sweep takes a comma list"}),
    "eps": (None, {"type": float, "help": "target duality gap (sets K from theory)"}),
}

_COMMON = ("d", "T", "m", "seed", "K", "out", "per_entry", "timing", "matrix_file")
SUBCOMMANDS = {
    "run": _COMMON + ("solver", "c", "eps"),
    "compare": _COMMON + ("c", "eps"),
    "sweep": _COMMON + ("solver", "c"),
}

_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors -> exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="visim", description=__doc__.splitlines()[0],
                     allow_abbrev=False)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, keys in SUBCOMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        for key in keys:
            default, kw = SETTINGS[key]
            if default not in (None, False):
                kw = dict(kw, help=f"{kw['help']} (default {default})")
            p.add_argument("--" + key.replace("_", "-"), dest=key, **kw)
        p.add_argument("--config", help="key=value file of this subcommand's settings")
    sub.add_parser("check", allow_abbrev=False, help="run the invariant suites")
    return parser


def _typed(key: str, val: str, where: str):
    kw = SETTINGS[key][1]
    if kw.get("action") == "store_const":
        if val.lower() not in _BOOLEANS:
            raise ConfigError(
                f"{where}: {key} takes one of {'/'.join(_BOOLEANS)}, got {val!r}")
        return _BOOLEANS[val.lower()]
    try:
        value = kw.get("type", str)(val)
    except ValueError:
        raise ConfigError(
            f"{where}: cannot read {key} = {val!r} as {kw['type'].__name__}") from None
    if value not in kw.get("choices", (value,)):
        raise ConfigError(f"{where}: {key} takes one of {kw['choices']}, got {val!r}")
    return value


def _parse_config_file(path: str, subcommand: str) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in SUBCOMMANDS[subcommand]:
                raise ConfigError(f"{path}:{lineno}: {subcommand} has no setting {key!r}")
            out[key] = _typed(key, val, f"{path}:{lineno}")
    return out


def _merge_settings(args: argparse.Namespace) -> dict:
    """The subcommand's settings, flags over the config file over the
    defaults, with ``c`` as a tuple of floats."""
    keys = SUBCOMMANDS[args.subcommand]
    merged = {key: SETTINGS[key][0] for key in keys}
    if args.config:
        merged.update(_parse_config_file(args.config, args.subcommand))
    merged.update((key, getattr(args, key)) for key in keys
                  if getattr(args, key) is not None)
    cs = tuple(float(tok) for tok in merged["c"].split(",") if tok.strip())
    if not cs:
        raise ConfigError(f"--c needs at least one value, got {merged['c']!r}")
    if len(cs) > 1 and args.subcommand != "sweep":
        raise ConfigError(f"--c takes one value outside sweep, got {merged['c']!r}")
    merged["c"] = cs
    return merged


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


def _do_experiment(subcommand: str, settings: dict) -> int:
    """One run per solver and c: the three solvers for ``compare``, one
    solver otherwise, and each c of a ``sweep`` tagged ``<solver>_c<c>``.
    Successful runs' series are written; if any run failed, the command
    exits 2 with one stderr line naming the failed runs."""
    solvers = SOLVERS if subcommand == "compare" else (settings["solver"],)
    runs = [(f"{s}_c{c:g}" if subcommand == "sweep" else s, s, c)
            for s in solvers for c in settings["c"]]
    result = run_experiment(
        _spec_from(settings),
        runs,
        iters=settings["K"],
        eps=settings.get("eps"),
        timing=settings["timing"],
    )
    if result.series:
        for path in emit_csv(result, settings["out"]):
            print(path)
        _report_fallbacks(result.inner_fallbacks)
    if result.errors:
        failed = "; ".join(f"{tag} ({err})" for tag, err in result.errors.items())
        print(f"visim: {len(result.errors)} of {len(runs)} runs failed: {failed}",
              file=sys.stderr)
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
        return _do_experiment(args.subcommand, _merge_settings(args))
    except (VisimError, ValueError, OSError) as exc:
        print(f"visim: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
