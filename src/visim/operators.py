"""Monotone operators: bilinear saddle operators, shard averaging and the
matrix-game constant estimators (Lipschitz and similarity in the l1/linf
pairing)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, ShapeError
from .geometry import DualVector, Point, check_same_shape


@dataclass(frozen=True)
class SaddleBilinear:
    """The saddle operator F(x, y) = (M y, -M^T x) of min_x max_y x^T M y.

    Bilinear saddle operators are monotone with equality:
    <F(u) - F(v), u - v> = 0 for all u, v.
    """

    matrix: np.ndarray

    def __call__(self, z: Point) -> DualVector:
        return evaluate_saddle(self, z)


def evaluate_saddle(op: SaddleBilinear, z: Point) -> DualVector:
    M = op.matrix
    if len(z.blocks) != 2:
        raise ShapeError("saddle operator expects a two-block point (x, y)")
    x, y = z.blocks
    if x.size != M.shape[0] or y.size != M.shape[1]:
        raise ShapeError(
            f"point blocks ({x.size}, {y.size}) do not match matrix {M.shape}"
        )
    return DualVector((M @ y, -(M.T @ x)))


@dataclass(frozen=True)
class OperatorShard:
    """One worker's local operator.

    ``payload`` carries whatever identifies the shard (for the matrix game,
    the local averaged payoff matrix); ``evaluate`` must be deterministic.
    """

    payload: object
    evaluate: Callable[[Point], DualVector]


def saddle_shard(M: np.ndarray) -> OperatorShard:
    M = np.asarray(M, dtype=float)
    return OperatorShard(payload=M, evaluate=SaddleBilinear(M))


def affine_shard(A: np.ndarray, b: np.ndarray) -> OperatorShard:
    """Single-block affine operator F(z) = A z + b (used for ball-domain
    VIs; monotone when A + A^T >= 0)."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)

    def ev(z: Point) -> DualVector:
        return DualVector((A @ z.blocks[0] + b,))

    return OperatorShard(payload=(A, b), evaluate=ev)


@dataclass(frozen=True)
class SimilarityConstants:
    """Constants of a sharded operator family.

    ``norm_tag`` records the pairing the constants were measured in
    ("l1/linf" for entropy setups, "l2" for Euclidean); mixing constants
    across pairings is a configuration error.
    """

    L: float
    L_F1: float
    delta: float
    mu: float = 0.0
    norm_tag: str = "l1/linf"

    def __post_init__(self):
        if self.delta < 0.0 or self.mu < 0.0:
            raise ConfigError("similarity constants must be non-negative")

    def require_tag(self, tag: str) -> "SimilarityConstants":
        if self.norm_tag != tag:
            raise ConfigError(
                f"constants were measured in {self.norm_tag}, expected {tag}"
            )
        return self


def average_operator(shards: list[OperatorShard], z: Point) -> DualVector:
    """F(z) = (1/m) sum_i F_i(z), reduced in shard order.

    Errors name the failing shard as its worker, counted from 1.
    """
    if not shards:
        raise ConfigError("cannot average an empty shard list")
    acc = None
    for i, shard in enumerate(shards):
        try:
            out = shard.evaluate(z)
        except Exception as exc:
            raise type(exc)(f"worker {i + 1}: {exc}") from exc
        if acc is None:
            acc = [b.copy() for b in out.blocks]
        else:
            if len(out.blocks) != len(acc):
                raise ShapeError(f"worker {i + 1} returned a different block layout")
            for a, b in zip(acc, out.blocks):
                a += b
    return DualVector(tuple(b / len(shards) for b in acc))


def lipschitz_matrix_game(M: np.ndarray) -> float:
    """L = max |M_ij|: the Lipschitz constant of the bilinear saddle
    operator in the l1/linf pairing."""
    M = np.asarray(M, dtype=float)
    return float(np.abs(M).max()) if M.size else 0.0


def similarity_matrix_game(M_global: np.ndarray, M_local: np.ndarray) -> float:
    """delta = max |(M_global - M_local)_ij| in the l1/linf pairing."""
    M_global = np.asarray(M_global, dtype=float)
    M_local = np.asarray(M_local, dtype=float)
    if M_global.shape != M_local.shape:
        raise ShapeError(
            f"matrix shapes differ: {M_global.shape} vs {M_local.shape}"
        )
    return lipschitz_matrix_game(M_global - M_local)


@dataclass(frozen=True)
class SimilarityReport:
    max_ratio: float
    passed: bool
    trials: int
    delta: float


def empirical_similarity_check(
    f1: OperatorShard,
    f_avg: Callable[[Point], DualVector],
    delta: float,
    trials: int,
    seed: int,
    block_dims: tuple[int, ...] = (2, 2),
) -> SimilarityReport:
    """Sample random simplex pairs (u, v) and report the largest observed
    ratio ||(F1 - F)(u) - (F1 - F)(v)||_inf / ||u - v||_1 against delta."""
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    rng = np.random.default_rng(seed)

    def dev(z: Point) -> np.ndarray:
        a = f1.evaluate(z)
        b = f_avg(z)
        check_same_shape(a, b)
        return a.concat() - b.concat()

    worst = 0.0
    for _ in range(trials):
        u = Point.of(*(rng.dirichlet(np.ones(d)) for d in block_dims))
        v = Point.of(*(rng.dirichlet(np.ones(d)) for d in block_dims))
        num = float(np.abs(dev(u) - dev(v)).max())
        den = float(np.abs(u.concat() - v.concat()).sum())
        if den > 0.0:
            worst = max(worst, num / den)
    return SimilarityReport(
        max_ratio=worst,
        passed=worst <= delta * (1.0 + 1e-9) + 1e-15,
        trials=trials,
        delta=delta,
    )
