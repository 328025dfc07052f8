"""Comparison solvers: distributed extragradient (mirror-prox) without the
similarity trick, and the similarity solver run in Euclidean geometry.

Both consume exactly two communication rounds per iteration through the
same cluster counters as the main solver, so round comparisons are fair.
Both run through the outer driver of :mod:`visim.paus`: mirror-prox with
its extragradient step, the Euclidean run as ``paus_run`` itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from .cluster import ClusterState, gather_average
from .errors import ParameterError
from .geometry import (
    GeometryKind,
    GeometrySetup,
    Point,
    floor_simplex_point,
    prox_map,
)
from .inner import InnerSettings
from .paus import PausConfig, PausResult, _drive, paus_run


class BaselineKind(Enum):
    MIRROR_PROX = "mirror-prox"
    EUCLIDEAN_PAUS = "euclidean"


@dataclass
class BaselineConfig:
    """``stepsize`` defaults are the theoretical ones: 1/L for mirror-prox,
    1/delta (Euclidean pairing) for the Euclidean similarity run."""

    kind: BaselineKind
    stepsize: float
    iters: int
    geometry: GeometrySetup
    z0: Point
    l_f1: float | None = None  # Euclidean run only
    delta: float | None = None  # Euclidean run only
    inner: InnerSettings = field(default_factory=InnerSettings)

    def __post_init__(self):
        if self.stepsize <= 0.0:
            raise ParameterError(f"stepsize must be positive, got {self.stepsize}")
        if self.iters < 1:
            raise ParameterError("need at least one iteration")


def mirror_prox_run(
    config: BaselineConfig,
    cluster: ClusterState,
    gap_fn: Callable[[Point], float] | None = None,
    log_predicate: Callable[[int], bool] | None = None,
) -> PausResult:
    """Classical extragradient in the configured Bregman geometry:
    w^k = prox(z^k, F(z^k), step), z^{k+1} = prox(z^k, F(w^k), step);
    returns the ergodic average of the w^k."""
    if config.kind is not BaselineKind.MIRROR_PROX:
        raise ParameterError("config.kind must be MIRROR_PROX")
    geom = config.geometry
    step = config.stepsize

    def extragradient(z: Point, prev_w: Point | None) -> tuple[Point, Point, int]:
        f_z = gather_average(cluster, [z])[0]
        w = prox_map(geom, z, f_z, step)
        f_w = gather_average(cluster, [w])[0]
        z_next = prox_map(geom, z, f_w, step)
        if geom.kind is GeometryKind.ENTROPY_SIMPLEX:
            w = floor_simplex_point(w)  # guard against float underflow to 0
            z_next = floor_simplex_point(z_next)
        return w, z_next, 0

    return _drive(
        geom, config.z0, config.iters, extragradient, cluster, gap_fn, False,
        log_predicate,
    )


def euclidean_paus_run(
    config: BaselineConfig,
    cluster: ClusterState,
    gap_fn: Callable[[Point], float] | None = None,
    log_predicate: Callable[[int], bool] | None = None,
) -> PausResult:
    """The similarity solver with all proximal steps replaced by Euclidean
    projections; the stepsize is 1/delta with delta measured in the l2
    pairing.  Identical control flow and round accounting to the entropic
    run — the geometry is the only variable."""
    if config.kind is not BaselineKind.EUCLIDEAN_PAUS:
        raise ParameterError("config.kind must be EUCLIDEAN_PAUS")
    if config.geometry.kind is not GeometryKind.EUCLIDEAN:
        raise ParameterError("the Euclidean baseline needs a Euclidean geometry")
    if config.l_f1 is None:
        raise ParameterError("the Euclidean baseline needs l_f1 (l2 pairing)")
    inner_cfg = PausConfig(
        gamma=config.stepsize,
        iters=config.iters,
        geometry=config.geometry,
        z0=config.z0,
        l_f1=config.l_f1,
        delta=config.delta,
        inner=config.inner,
    )
    return paus_run(
        inner_cfg, cluster, gap_fn=gap_fn, log_predicate=log_predicate
    )
