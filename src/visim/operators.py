"""Monotone operators: worker shards stored as data, and the matrix-game
constant estimators (Lipschitz and similarity in the l1/linf pairing)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError


@dataclass(frozen=True)
class OperatorShard:
    """One worker's local operator, stored as data.

    With ``offset`` None the shard is the saddle operator
    F(x, y) = (M y, -M^T x) of min_x max_y x^T M y on two blocks; saddle
    operators are monotone with equality: <F(u) - F(v), u - v> = 0 for all
    u, v.  With an offset b it is the affine operator F(z) = A z + b on one
    block (monotone when A + A^T >= 0).
    """

    matrix: np.ndarray
    offset: np.ndarray | None = None

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=float)
        if M.ndim != 2:
            raise ShapeError(f"a shard matrix must be 2-d, got shape {M.shape}")
        object.__setattr__(self, "matrix", M)
        if self.offset is not None:
            b = np.asarray(self.offset, dtype=float)
            if M.shape[0] != M.shape[1] or b.shape != (M.shape[0],):
                raise ShapeError(
                    "an affine shard needs a square matrix and a matching "
                    f"offset, got {M.shape} and {b.shape}"
                )
            object.__setattr__(self, "offset", b)

    @property
    def payload(self) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """M for a saddle shard, (A, b) for an affine one."""
        return self.matrix if self.offset is None else (self.matrix, self.offset)

    @property
    def block_dims(self) -> tuple[int, ...]:
        """The block sizes of the points F takes: (d1, d2) for a saddle
        shard's (x, y), (n,) for an affine one."""
        return self.matrix.shape if self.offset is None else self.matrix.shape[1:]

    def evaluate(self, z: np.ndarray) -> np.ndarray:
        """F(z): (M y, -M^T x) at the concatenated point z = (x, y), or
        A z + b, with the bits of the block-by-block products."""
        M = self.matrix
        if self.offset is not None:
            if z.shape != (M.shape[1],):
                raise ShapeError(
                    f"affine operator expects a point of size {M.shape[1]}"
                )
            return M @ z + self.offset
        d1 = M.shape[0]
        if z.shape != (d1 + M.shape[1],):
            raise ShapeError(
                f"a point of shape {z.shape} does not match matrix {M.shape}"
            )
        out = np.empty(z.size)
        minus_MTx = out[d1:]
        np.matmul(M, z[d1:], out[:d1])
        np.matmul(z[:d1], M, minus_MTx)
        np.negative(minus_MTx, minus_MTx)
        return out


def saddle_shard(M: np.ndarray) -> OperatorShard:
    return OperatorShard(M)


@dataclass(frozen=True)
class SimilarityConstants:
    """Constants of a sharded operator family.

    ``norm_tag`` records the pairing the constants were measured in
    ("l1/linf" for entropy setups, "l2" for Euclidean).  Nothing checks it:
    the caller pairs the constants with the geometry they belong to.
    """

    L: float
    L_F1: float
    delta: float
    mu: float = 0.0
    norm_tag: str = "l1/linf"

    def __post_init__(self):
        if self.delta < 0.0 or self.mu < 0.0:
            raise ConfigError("similarity constants must be non-negative")


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
