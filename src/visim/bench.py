"""Experiment harness: stochastic matrix-game generation, constant
estimation, solver comparison and CSV emission.

The game is min_x max_y x^T A_bar y on a product of simplices, where
A_bar is the empirical mean of T random matrices A_t = (1 + xi_t) C with
Rademacher xi_t.  Matrices are sharded contiguously over m workers; the
server's shard mean differs from the global mean by O(1/sqrt(n)), which
is the similarity the main solver exploits.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .baselines import BaselineConfig, BaselineKind, mirror_prox_run
from .cluster import ClusterState, shard_data
from .errors import ConfigError, IoError, ParameterError, VisimError
from .geometry import (
    entropy_simplex,
    euclidean_simplex,
    max_divergence_bound,
    uniform_point,
)
from .operators import (
    SimilarityConstants,
    lipschitz_matrix_game,
    similarity_matrix_game,
)
from .paus import PausConfig, RunRecord, duality_gap, paus_run

SOLVERS = ("paus", "mirror-prox", "euclidean")
DENSE_LOG_ROUNDS = 1000
LOG_RATIO = 1.1
GAMMA_CAP_SCALE = 1e6  # gamma cap = scale / L when delta underflows
EPS_ITERS_CAP = 100_000  # largest iteration count run_comparison derives from eps


@dataclass(frozen=True)
class GameSpec:
    """The experiment's data model.  ``matrix_path`` switches the base
    matrix from the seeded synthetic C to a file (first line d, then d
    whitespace-separated rows)."""

    d: int = 25
    T: int = 10_000
    m: int = 5
    seed: int = 1
    theta: float = 0.5
    per_entry: bool = False
    matrix_path: str | None = None

    def __post_init__(self):
        if self.d < 2:
            raise ConfigError(f"need d >= 2, got {self.d}")
        if self.m < 1 or self.T % self.m != 0:
            raise ConfigError(f"T = {self.T} not divisible by m = {self.m}")


def load_matrix(path: str) -> np.ndarray:
    """Read the plain-text matrix format: first line d, then d rows of d
    decimals."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            tokens = fh.read().split()
    except OSError as exc:
        raise IoError(f"cannot read matrix file {path}: {exc}") from exc
    if not tokens:
        raise ConfigError(f"empty matrix file {path}")
    d = int(tokens[0])
    vals = tokens[1:]
    if len(vals) != d * d:
        raise ConfigError(
            f"matrix file {path} declares d={d} but holds {len(vals)} entries"
        )
    return np.array(vals, dtype=float).reshape(d, d)


def base_matrix(spec: GameSpec) -> np.ndarray:
    """The deterministic base matrix C.

    The synthetic default C_ij = w_i (1 - exp(-theta |i - j|)) with
    w_i = 1 + i/(d-1) has heterogeneous rows and no pure-strategy
    equilibrium, so the ergodic gap decays at the 1/K rate rather than
    collapsing instantly.
    """
    if spec.matrix_path is not None:
        C = load_matrix(spec.matrix_path)
        if C.shape != (spec.d, spec.d):
            raise ConfigError(
                f"matrix file is {C.shape}, spec wants ({spec.d}, {spec.d})"
            )
        return C
    i = np.arange(spec.d, dtype=float)
    w = 1.0 + i / (spec.d - 1)
    dist = np.abs(i[:, None] - i[None, :])
    return w[:, None] * (1.0 - np.exp(-spec.theta * dist))


def generate_game(spec: GameSpec) -> np.ndarray:
    """T payoff matrices A_t = (1 + xi_t) C, xi_t Rademacher.

    One xi per matrix by default (so each A_t is 0 or 2C); ``per_entry``
    draws an independent sign per entry instead.
    """
    C = base_matrix(spec)
    rng = np.random.default_rng(spec.seed)
    if spec.per_entry:
        xi = rng.choice([-1.0, 1.0], size=(spec.T, spec.d, spec.d))
    else:
        xi = rng.choice([-1.0, 1.0], size=(spec.T, 1, 1))
    return (1.0 + xi) * C[None, :, :]


def estimate_constants(
    matrices: np.ndarray, m: int, pairing: str = "l1/linf"
) -> SimilarityConstants:
    """L, L_F1 and delta of the sharded game.

    ``pairing`` selects the norm the constants live in: max-abs entries
    for the l1/linf (entropy) pairing, spectral norms for l2.
    """
    mats = np.asarray(matrices, dtype=float)
    if m < 1 or mats.shape[0] % m != 0:
        raise ConfigError(f"T = {mats.shape[0]} not divisible by m = {m}")
    mean = mats.mean(axis=0)
    shard1 = mats[: mats.shape[0] // m].mean(axis=0)
    if pairing == "l1/linf":
        return SimilarityConstants(
            L=lipschitz_matrix_game(mean),
            L_F1=lipschitz_matrix_game(shard1),
            delta=similarity_matrix_game(mean, shard1),
            mu=0.0,
            norm_tag="l1/linf",
        )
    if pairing == "l2":
        return SimilarityConstants(
            L=float(np.linalg.norm(mean, 2)),
            L_F1=float(np.linalg.norm(shard1, 2)),
            delta=float(np.linalg.norm(mean - shard1, 2)),
            mu=0.0,
            norm_tag="l2",
        )
    raise ConfigError(f"unknown pairing {pairing!r}")


def log_indices(iters: int) -> set[int]:
    """Which outer iterations to log: every iteration while the round
    count stays under 1000, geometrically spaced (ratio 1.1) afterwards,
    always including the last."""
    out: set[int] = set()
    k = 0
    while k < iters:
        out.add(k)
        if 2 * (k + 1) <= DENSE_LOG_ROUNDS:
            k += 1
        else:
            k = max(k + 1, math.ceil(k * LOG_RATIO))
    out.add(iters - 1)
    return out


@dataclass
class ExperimentResult:
    spec: GameSpec
    constants: SimilarityConstants
    series: dict[str, list[RunRecord]] = field(default_factory=dict)
    gammas: dict[str, float] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)
    timing: bool = False


def _stepsize(solver: str, c: float, consts: SimilarityConstants,
              consts_l2: SimilarityConstants) -> float:
    if solver == "mirror-prox":
        base = consts.L
    elif solver == "euclidean":
        base = consts_l2.delta
    else:
        base = consts.delta
    if base <= 1e-15:
        return GAMMA_CAP_SCALE / max(consts.L, 1e-15)
    return c / base


def run_comparison(
    spec: GameSpec,
    solvers: tuple[str, ...] = SOLVERS,
    iters: int = 100,
    c: float = 1.0,
    eps: float | None = None,
    timing: bool = False,
) -> ExperimentResult:
    """Run the selected solvers on identical shards and record their
    gap-vs-rounds series.  Each solver gets a fresh cluster over the same
    shard list, so round counters never mix.  Every series starts with a
    round-0 record holding the gap at the uniform start.

    With ``eps`` set, each solver's iteration count is taken from its gap
    envelope K = ceil(maxV / (gamma eps)) (capped at ``EPS_ITERS_CAP``),
    overriding ``iters``.
    """
    for s in solvers:
        if s not in SOLVERS:
            raise ConfigError(f"unknown solver {s!r}; pick from {SOLVERS}")
    if iters < 1 or c <= 0.0:
        raise ParameterError("need iters >= 1 and c > 0")
    mats = generate_game(spec)
    shards = shard_data(mats, spec.m)
    mean = mats.mean(axis=0)
    consts = estimate_constants(mats, spec.m, "l1/linf")
    consts_l2 = estimate_constants(mats, spec.m, "l2")
    result = ExperimentResult(spec=spec, constants=consts, timing=timing)

    def gap_fn(u):
        return duality_gap(mean, u.blocks[0], u.blocks[1])

    for solver in solvers:
        cluster = ClusterState(shards=list(shards))
        gamma = _stepsize(solver, c, consts, consts_l2)
        result.gammas[solver] = gamma
        geom = (
            euclidean_simplex(spec.d) if solver == "euclidean"
            else entropy_simplex(spec.d)
        )
        z0 = uniform_point(geom)
        solver_iters = iters
        if eps is not None:
            if eps <= 0.0:
                raise ParameterError("eps must be positive")
            max_v = max_divergence_bound(geom, z0)
            solver_iters = min(
                EPS_ITERS_CAP, max(1, math.ceil(max_v / (gamma * eps)))
            )
        logged = log_indices(solver_iters)
        try:
            if solver == "mirror-prox":
                cfg = BaselineConfig(
                    kind=BaselineKind.MIRROR_PROX,
                    stepsize=gamma,
                    iters=solver_iters,
                    geometry=geom,
                    z0=z0,
                )
                run = mirror_prox_run(
                    cfg, cluster, gap_fn=gap_fn, log_predicate=logged.__contains__
                )
            else:
                # paus and euclidean differ only in the geometry and in the
                # pairing their constants are measured in
                pair = consts_l2 if solver == "euclidean" else consts
                cfg = PausConfig(
                    gamma=gamma,
                    iters=solver_iters,
                    geometry=geom,
                    z0=z0,
                    l_f1=pair.L_F1,
                    # the gamma <= 1/delta guard only applies to
                    # theory-respecting runs; a sweep with c > 1
                    # deliberately over-steps to probe divergence
                    delta=pair.delta if c <= 1.0 else None,
                )
                run = paus_run(
                    cfg, cluster, gap_fn=gap_fn, log_predicate=logged.__contains__
                )
        except VisimError as exc:
            result.errors[solver] = f"{type(exc).__name__}: {exc}"
            continue
        head = RunRecord(round=0, iterate_gap=gap_fn(z0), inner_iters=0, elapsed=0.0)
        result.series[solver] = [head] + run.log
    return result


def rounds_to_eps(series: list[RunRecord], eps: float) -> int | None:
    """First logged round where the gap dips to eps, or None."""
    for rec in series:
        if rec.iterate_gap <= eps:
            return rec.round
    return None


def _fmt(x: float) -> str:
    return repr(float(x))


def emit_csv(result: ExperimentResult, out_dir: str) -> list[str]:
    """Write one `<solver>.csv` per series plus `constants.csv`.

    `elapsed_ms` is written as 0 unless the experiment was run with
    ``timing`` — wall-clock noise would break byte-level reproducibility.
    Returns the list of paths written.
    """
    try:
        os.makedirs(out_dir, exist_ok=True)
        paths = []
        for solver in sorted(result.series):
            path = os.path.join(out_dir, f"{solver}.csv")
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write("round,gap,inner_iters,elapsed_ms\n")
                for rec in result.series[solver]:
                    ms = rec.elapsed * 1000.0 if result.timing else 0.0
                    fh.write(
                        f"{rec.round},{_fmt(rec.iterate_gap)},"
                        f"{rec.inner_iters},{_fmt(ms)}\n"
                    )
            paths.append(path)
        cpath = os.path.join(out_dir, "constants.csv")
        with open(cpath, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("solver,L,L_F1,delta,gamma\n")
            con = result.constants
            for solver in sorted(result.gammas):
                fh.write(
                    f"{solver},{_fmt(con.L)},{_fmt(con.L_F1)},"
                    f"{_fmt(con.delta)},{_fmt(result.gammas[solver])}\n"
                )
        paths.append(cpath)
        return paths
    except OSError as exc:
        raise IoError(f"cannot write results under {out_dir}: {exc}") from exc


def run_sweep(
    spec: GameSpec,
    c_values: tuple[float, ...],
    solver: str = "paus",
    iters: int = 100,
    timing: bool = False,
) -> dict[float, ExperimentResult]:
    """The stepsize-multiplier study: one comparison run per c with
    gamma = c * gamma_theoretical."""
    if not c_values:
        raise ConfigError("sweep needs at least one c value")
    out = {}
    for c in c_values:
        out[c] = run_comparison(
            spec, solvers=(solver,), iters=iters, c=c, timing=timing
        )
    return out
