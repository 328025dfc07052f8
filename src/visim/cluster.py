"""Simulated centralized (parameter-server) cluster.

One communication round = one synchronized broadcast-and-gather exchange:
the server ships out a batch of points and collects every worker's
evaluations at all of them.  Extragradient-type solvers therefore cost two
rounds per iteration (one exchange at z^k, one at u^k).  Byte accounting
counts both directions, 8 bytes per real coordinate.

Every shard is linear data, so the workers' average F = (1/m) sum_i F_i is
itself a shard: the cluster forms it once, at construction, by summing the
shard matrices (and offsets) in worker order and dividing by m, and a
gather answers each point with that one product.  In exact arithmetic this
is the mean of the m worker outputs; in floating point the two differ at
round-off, of order (m + d) eps mean_i |A_i| |z|.  The counters still
charge every worker's share of each exchange.

Points and dual vectors cross this module as flat arrays, their blocks
concatenated in the order of ``geometry.layout``; the solvers build
``Point``s only at the API edge.  The server reads F_1 locally, at no
cost in rounds, as ``cluster.server_shard.evaluate``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .operators import OperatorShard


def _kind(shard: OperatorShard) -> str:
    return "saddle" if shard.offset is None else "affine"


def _worker_mean(arrays: list[np.ndarray]) -> np.ndarray:
    """The mean of the workers' arrays, summed in worker order in place
    into one new array (the bits of ``sum(arrays[1:], arrays[0]) / m``)."""
    total = arrays[0].copy()
    for a in arrays[1:]:
        total += a
    total /= len(arrays)
    return total


@dataclass
class ClusterState:
    """m workers, worker 1 doubling as the server.

    ``average`` is the workers' average operator, formed at construction;
    every shard must have worker 1's kind and shape.
    """

    shards: list[OperatorShard]
    round_count: int = 0
    bytes_sent: int = 0
    average: OperatorShard = field(init=False, repr=False)

    def __post_init__(self):
        if not self.shards:
            raise ConfigError("a cluster needs at least one worker")
        first = self.shards[0]
        kind = _kind(first)
        for i, shard in enumerate(self.shards[1:], start=2):
            if _kind(shard) != kind:
                raise ShapeError(
                    f"worker {i}: {_kind(shard)} shard, but worker 1 holds "
                    f"a {kind} shard"
                )
            if shard.matrix.shape != first.matrix.shape:
                raise ShapeError(
                    f"worker {i}: matrix shape {shard.matrix.shape} differs "
                    f"from worker 1's {first.matrix.shape}"
                )
        self.average = OperatorShard(
            _worker_mean([s.matrix for s in self.shards]),
            None if first.offset is None
            else _worker_mean([s.offset for s in self.shards]),
        )

    @property
    def m(self) -> int:
        return len(self.shards)

    @property
    def server_shard(self) -> OperatorShard:
        # worker 1 doubles as the server and keeps local access to its shard
        return self.shards[0]


def gather_average(
    cluster: ClusterState, points: list[np.ndarray]
) -> list[np.ndarray]:
    """One communication round: every worker evaluates its shard at all
    ``points``, each a flat array with its blocks in the order of
    ``geometry.layout``; the server returns the coordinate-wise averages,
    flat, each computed as one product by the cluster's average operator.

    The round counter increments by exactly 1 no matter how many points
    ride in the exchange.  A point that does not fit the operator raises
    :class:`ShapeError` before any counter moves.
    """
    if not points:
        raise ConfigError("gather_average needs at least one point")
    averages = [cluster.average.evaluate(z) for z in points]
    coords = points[0].size * len(points)
    cluster.round_count += 1
    cluster.bytes_sent += 2 * cluster.m * coords * 8  # broadcast + gather
    return averages


def shard_data(matrices: np.ndarray | list[np.ndarray], m: int) -> list[OperatorShard]:
    """Split T payoff matrices into m contiguous equal blocks; each shard's
    matrix is its block mean, so the mean of the shard matrices equals the
    global mean."""
    mats = np.asarray(matrices, dtype=float)
    T = mats.shape[0]
    if m < 1 or T % m != 0:
        raise ConfigError(f"cannot split {T} matrices into {m} equal shards")
    means = mats.reshape(m, T // m, *mats.shape[1:]).mean(axis=1)
    return [OperatorShard(M) for M in means]
