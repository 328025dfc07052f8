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
from .errors import (
    ConfigError,
    IoError,
    VisimError,
    check_finite_positive,
    check_int_at_least,
    check_iters,
    check_positive,
)
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
GAMMA_CAP_SCALE = 1e6  # gamma cap = scale / L when delta is round-off
# a delta at most this many ulps of L (in the same pairing) is round-off
ROUNDOFF_ULPS = 64
EPS_ITERS_CAP = 100_000  # largest iteration count run_experiment derives from eps
# signs drawn at a time by per-entry generation: half as many 64-bit
# generator words, 1 MB, whose 32-bit halves become the 0/1 indices in place
_SIGN_CHUNK = 2**18


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
        # numpy's generator takes a non-negative integer seed, and a
        # non-finite theta gives C NaN entries
        check_int_at_least("seed", self.seed, 0)
        check_finite_positive("theta", self.theta)
        # T = 0 and T = -m are multiples of m too, but give a worker no data
        if self.m < 1 or self.T < self.m or self.T % self.m != 0:
            raise ConfigError(
                f"T = {self.T} is not a positive multiple of m = {self.m}")


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
    try:
        d = int(tokens[0])
    except ValueError:
        d = 0
    if d < 1:
        raise ConfigError(
            f"matrix file {path} declares d={tokens[0]!r}, not a positive integer"
        )
    try:
        vals = np.array(tokens[1:], dtype=float)
    except ValueError as exc:
        raise ConfigError(f"matrix file {path} holds an entry that is not a "
                          f"number: {exc}") from None
    if vals.size != d * d:
        raise ConfigError(
            f"matrix file {path} declares d={d} but holds {vals.size} entries"
        )
    return vals.reshape(d, d)


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

    One xi per matrix by default (so each A_t is 0 or 2C, copied from
    those two products with the bits of ``(1 + xi) * C``); ``per_entry``
    draws an independent sign per entry instead.  Per-entry games are
    written into the one T x d x d output in chunks of an even number of
    whole matrices, about ``_SIGN_CHUNK`` signs, so generation peaks at
    the output plus one chunk's generator words (1 MB) rather than about
    three tensors.

    A chunk reads its signs from raw 64-bit words of the generator,
    ``rng.bit_generator.random_raw``, and gets the indices
    ``rng.integers(0, 2, ...)`` would draw (which are those of
    ``rng.choice([-1., 1.], ...)``) for two reasons.  With a range of 2,
    ``integers`` takes one 32-bit output per sign through Lemire's
    bounded method, whose rejection threshold (2^32 - 2) mod 2 is 0, so
    it never rejects and the index is the output's top bit.  And PCG64,
    the bit generator of ``default_rng``, serves 32-bit outputs as the
    low half and then the high half of each 64-bit word.  So the indices
    are bits 31 and 63 of each word, in order.  A chunk of an even number
    of signs uses up its words, so only the last chunk can leave half a
    word unread.  1 + xi is twice the index, so the chunk needs no array
    of signs, and the matrices are the same bits as
    ``(1 + rng.choice([-1., 1.], (T, d, d))) * C``.
    """
    C = base_matrix(spec)
    rng = np.random.default_rng(spec.seed)
    if not spec.per_entry:
        # each matrix is one of the two products (1 - 1) C and (1 + 1) C,
        # copied by the index rng.choice([-1., 1.], ...) would draw
        products = np.stack(((1.0 - 1.0) * C, (1.0 + 1.0) * C))
        return np.take(products, rng.integers(0, 2, size=spec.T), axis=0)
    out = np.empty((spec.T, spec.d, spec.d))
    twice_C = 2.0 * C
    size = spec.d * spec.d
    rows = max(2, _SIGN_CHUNK // size // 2 * 2)
    for lo in range(0, spec.T, rows):
        n = min(rows, spec.T - lo)
        words = rng.bit_generator.random_raw((n * size + 1) // 2)
        # the 32-bit halves, low first on any byte order, each shifted down
        # to its top bit in place
        halves = words.astype("<u8", copy=False).view("<u4")
        np.right_shift(halves, 31, out=halves)
        np.multiply(halves[: n * size].reshape(n, spec.d, spec.d), twice_C,
                    out=out[lo : lo + n])
        del words, halves  # so that the next draw does not overlap this one
    return out


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
    # per run of a paus solver: subproblems handed to the extragradient loop,
    # whose logged inner_iters count extragradient iterations, not Newton steps
    inner_fallbacks: dict[str, int] = field(default_factory=dict)


def _stepsize(solver: str, c: float, consts: SimilarityConstants,
              consts_l2: SimilarityConstants) -> float:
    """c / L for mirror-prox, c / delta for the similarity solvers, with
    the constants in the solver's pairing (l2 for euclidean).  A delta of
    at most ``ROUNDOFF_ULPS`` ulps of L is round-off (a shard that holds
    the global mean), and gets the cap ``GAMMA_CAP_SCALE / L``."""
    pair = consts_l2 if solver == "euclidean" else consts
    base = pair.L if solver == "mirror-prox" else pair.delta
    if base <= ROUNDOFF_ULPS * np.finfo(float).eps * pair.L:
        return GAMMA_CAP_SCALE / max(pair.L, 1e-15)
    return c / base


def run_comparison(
    spec: GameSpec,
    solvers: tuple[str, ...] = SOLVERS,
    iters: int = 100,
    c: float = 1.0,
    eps: float | None = None,
    timing: bool = False,
) -> ExperimentResult:
    """Run the selected solvers on one game, each tagged by its name, with
    stepsize multiplier ``c`` (see ``run_experiment``)."""
    return run_experiment(spec, [(s, s, c) for s in solvers], iters, eps, timing)


def run_experiment(
    spec: GameSpec,
    runs: list[tuple[str, str, float]],
    iters: int = 100,
    eps: float | None = None,
    timing: bool = False,
) -> ExperimentResult:
    """Run each ``(tag, solver, c)`` of ``runs`` on one game, and record its
    gap-vs-rounds series, stepsize c / L or c / delta, fallbacks and error
    under its tag.  The game is generated, sharded and measured once; each
    run gets a fresh cluster over the same shard list, so round counters
    never mix.  Every series starts with a round-0 record holding the gap
    at the uniform start.  A run whose solver raises a ``VisimError`` keeps
    its gamma and gets an error in place of a series.

    With ``eps`` set, each run's iteration count is taken from its gap
    envelope K = ceil(maxV / (gamma eps)) (capped at ``EPS_ITERS_CAP``),
    overriding ``iters``.
    """
    if not runs:
        raise ConfigError("an experiment needs at least one run")
    tags = [tag for tag, _, _ in runs]
    if len(set(tags)) != len(tags):
        raise ConfigError(f"run tags must be distinct, got {tags}")
    for _, solver, c in runs:
        if solver not in SOLVERS:
            raise ConfigError(f"unknown solver {solver!r}; pick from {SOLVERS}")
        check_positive("c", c)
    check_iters(iters)
    if eps is not None:
        check_positive("eps", eps)
    mats = generate_game(spec)
    shards = shard_data(mats, spec.m)
    mean = mats.mean(axis=0)
    consts = estimate_constants(mats, spec.m, "l1/linf")
    consts_l2 = estimate_constants(mats, spec.m, "l2")
    result = ExperimentResult(spec=spec, constants=consts, timing=timing)

    def gap_fn(u):
        return duality_gap(mean, u.blocks[0], u.blocks[1])

    for tag, solver, c in runs:
        cluster = ClusterState(shards=list(shards))
        gamma = _stepsize(solver, c, consts, consts_l2)
        result.gammas[tag] = gamma
        geom = (
            euclidean_simplex(spec.d) if solver == "euclidean"
            else entropy_simplex(spec.d)
        )
        z0 = uniform_point(geom)
        run_iters = iters
        if eps is not None:
            max_v = max_divergence_bound(geom, z0.concat())
            run_iters = min(
                EPS_ITERS_CAP, max(1, math.ceil(max_v / (gamma * eps)))
            )
        logged = log_indices(run_iters)
        try:
            if solver == "mirror-prox":
                cfg = BaselineConfig(
                    kind=BaselineKind.MIRROR_PROX,
                    stepsize=gamma,
                    iters=run_iters,
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
                    iters=run_iters,
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
                result.inner_fallbacks[tag] = run.inner_fallbacks
        except VisimError as exc:
            result.errors[tag] = f"{type(exc).__name__}: {exc}"
            continue
        head = RunRecord(round=0, iterate_gap=gap_fn(z0), inner_iters=0, elapsed=0.0)
        result.series[tag] = [head] + run.log
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
