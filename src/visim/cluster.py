"""Simulated centralized (parameter-server) cluster.

One communication round = one synchronized broadcast-and-gather exchange:
the server ships out a batch of points and collects every worker's
evaluations at all of them.  Extragradient-type solvers therefore cost two
rounds per iteration (one exchange at z^k, one at u^k).  Byte accounting
counts both directions, 8 bytes per real coordinate.

Workers are evaluated one after another and the reduction is ordered by
worker index (:func:`visim.operators.average_operator`), so gathered
averages are reproducible bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .geometry import DualVector, Point
from .operators import OperatorShard, average_operator, saddle_shard


@dataclass
class ClusterState:
    shards: list[OperatorShard]
    round_count: int = 0
    bytes_sent: int = 0

    @property
    def m(self) -> int:
        return len(self.shards)

    @property
    def server_shard(self) -> OperatorShard:
        # worker 1 doubles as the server and keeps local access to its shard
        return self.shards[0]

    def server_evaluate(self, z: Point) -> DualVector:
        """Server-local F_1 evaluation; costs no communication."""
        return self.server_shard.evaluate(z)


def gather_average(cluster: ClusterState, points: list[Point]) -> list[DualVector]:
    """One communication round: every worker evaluates its shard at all
    ``points``; the server returns the coordinate-wise averages.

    The round counter increments by exactly 1 no matter how many points
    ride in the exchange.
    """
    if not points:
        raise ConfigError("gather_average needs at least one point")
    # raises ConfigError for a cluster without workers
    averages = [average_operator(cluster.shards, z) for z in points]
    coords = sum(b.size for b in points[0].blocks) * len(points)
    cluster.round_count += 1
    cluster.bytes_sent += 2 * cluster.m * coords * 8  # broadcast + gather
    return averages


def reset_counters(cluster: ClusterState) -> None:
    cluster.round_count = 0
    cluster.bytes_sent = 0


def shard_data(matrices: np.ndarray | list[np.ndarray], m: int) -> list[OperatorShard]:
    """Split T payoff matrices into m contiguous equal blocks; each shard's
    payload is its block mean, so the shard-payload mean equals the global
    mean."""
    mats = np.asarray(matrices, dtype=float)
    T = mats.shape[0]
    if m < 1 or T % m != 0:
        raise ConfigError(f"cannot split {T} matrices into {m} equal shards")
    n = T // m
    return [saddle_shard(mats[i * n : (i + 1) * n].mean(axis=0)) for i in range(m)]
