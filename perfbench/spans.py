"""Spans around the calls into each layer of the program.

:func:`traced` wraps the program's public functions under the module
attributes their callers look them up by (``visim.paus.composite_mp`` is
the inner solver as ``paus_run`` sees it) and restores them on exit.
Spans are kept in memory; a span's self time is its duration minus the
time its child spans cover.  Calls run on one thread, so children never
overlap and that cover is the sum of their durations.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import defaultdict

import numpy as np

from visim import _kernels, baselines, bench, cluster, inner, paus, restart

SETUP_ROOT = "perfbench.setup"
SOLVE_ROOT = "perfbench.solve"

# every per-layer metric of a traced run, with its unit
UNITS = {
    "bench.generate_game_s": "s", "bench.estimate_constants_s": "s",
    "cluster.shard_data_s": "s", "restart.family_s": "s", "bench.setup_peak_mb": "MB",
    "cluster.rounds": "count", "cluster.bytes_sent": "bytes",
    "cluster.gather_s": "s", "cluster.gather_us": "us",
    "inner.solves": "count", "inner.iters": "count", "inner.cap_stops": "count",
    "inner.solve_s": "s", "inner.us_per_iter": "us",
    "kernels.loop_s": "s", "kernels.us_per_iter": "us",
    "geometry.prox_calls": "count", "geometry.prox_s": "s",
    "geometry.composite_prox_calls": "count", "geometry.composite_prox_s": "s",
    "geometry.divergence_calls": "count", "geometry.divergence_s": "s",
    "paus.outer_iters": "count", "paus.self_s": "s",
    "paus.gap_calls": "count", "paus.gap_s": "s",
    "baselines.self_s": "s", "restart.stages": "count", "restart.self_s": "s",
    "trace.solve_s": "s", "trace.untraced_solve_s": "s", "trace.overhead_s": "s",
    "trace.layer_share": "1",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.child_s: list[float] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    def enter(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.child_s.append(0.0)
        self.ends.append(0.0)
        self._open.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def exit(self, idx: int) -> None:
        t = time.perf_counter()
        self._open.pop()
        self.ends[idx] = t
        parent = self.parents[idx]
        if parent >= 0:
            self.child_s[parent] += t - self.starts[idx]

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.enter(name)
        try:
            yield
        finally:
            self.exit(idx)

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total duration, total self time)."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for name, t0, t1, child in zip(self.names, self.starts, self.ends, self.child_s):
            row = out[name]
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - child
        return {k: tuple(v) for k, v in out.items()}

    def durations(self, name: str) -> list[float]:
        return [t1 - t0 for n, t0, t1 in zip(self.names, self.starts, self.ends)
                if n == name]

    def save(self, path: str) -> None:
        """Write every span: its name, parent span index, start and end."""
        names = sorted(set(self.names))
        code = {n: i for i, n in enumerate(names)}
        np.savez(path, names=np.array(names),
                 name=np.array([code[n] for n in self.names], dtype=np.int32),
                 parent=np.array(self.parents, dtype=np.int64),
                 start=np.array(self.starts), end=np.array(self.ends))


def _inner_result(tr: Tracer, args, kwargs, out) -> None:
    cap = args[2] if len(args) > 2 else kwargs["max_iters"]
    tr.counts["inner.iters"] += out[1]
    tr.counts["inner.cap_stops"] += int(out[1] >= cap)


def _kernel_result(tr: Tracer, args, kwargs, out) -> None:
    tr.counts["kernels.iters"] += out[1]


def _paus_result(tr: Tracer, args, kwargs, out) -> None:
    tr.counts["paus.outer_iters"] += args[0].iters


def _restart_result(tr: Tracer, args, kwargs, out) -> None:
    tr.counts["restart.stages"] += len(out.stages)


# (module, attribute, span name, result hook): every name a caller looks up
TARGETS = [
    (bench, "generate_game", "bench.generate_game", None),
    (bench, "estimate_constants", "bench.estimate_constants", None),
    (cluster, "shard_data", "cluster.shard_data", None),
    (restart, "synthetic_strongly_monotone", "restart.synthetic_strongly_monotone", None),
    (paus, "paus_run", "paus.paus_run", _paus_result),
    (baselines, "paus_run", "paus.paus_run", _paus_result),
    (restart, "paus_run", "paus.paus_run", _paus_result),
    (restart, "paus_r", "restart.paus_r", _restart_result),
    (baselines, "mirror_prox_run", "baselines.mirror_prox_run", None),
    (baselines, "euclidean_paus_run", "baselines.euclidean_paus_run", None),
    (paus, "gather_average", "cluster.gather_average", None),
    (baselines, "gather_average", "cluster.gather_average", None),
    (paus, "composite_mp", "inner.composite_mp", _inner_result),
    (_kernels, "log_space_loop", "kernels.log_space_loop", _kernel_result),
    (paus, "prox_map", "geometry.prox_map", None),
    (baselines, "prox_map", "geometry.prox_map", None),
    (inner, "composite_prox_map", "geometry.composite_prox_map", None),
    (inner, "bregman_divergence", "geometry.bregman_divergence", None),
    (paus, "duality_gap", "paus.duality_gap", None),
]


def _wrap(tr: Tracer, fn, name: str, hook):
    def wrapper(*args, **kwargs):
        idx = tr.enter(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tr.exit(idx)
        if hook is not None:
            hook(tr, args, kwargs, out)
        return out

    return wrapper


@contextlib.contextmanager
def traced(tr: Tracer):
    """Route every call in :data:`TARGETS` through ``tr`` while active."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in TARGETS]
    try:
        for (mod, attr, name, hook), (_, _, fn) in zip(TARGETS, saved):
            setattr(mod, attr, _wrap(tr, fn, name, hook))
        yield tr
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def layer_metrics(tr: Tracer, panels: int, setups: int,
                  setup_peak_mb: float) -> dict[str, float]:
    """The per-layer figures of a traced run.

    Counts and solve-side times are per panel (the traced total divided by
    the ``panels`` run), so they compare with ``solve_s``; set-up times are
    per instance, like ``setup_s``.
    """
    tot = tr.totals()

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0))[0]

    def dur(name):
        return tot.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return tot.get(name, (0, 0.0, 0.0))[2]

    def per_iter_us(seconds, iters):
        return 1e6 * seconds / iters if iters else 0.0

    gathers = tr.durations("cluster.gather_average")
    inner_iters = tr.counts["inner.iters"]
    kernel_iters = tr.counts["kernels.iters"]
    m = {
        "bench.generate_game_s": dur("bench.generate_game") / setups,
        "bench.estimate_constants_s": dur("bench.estimate_constants") / setups,
        "cluster.shard_data_s": dur("cluster.shard_data") / setups,
        "restart.family_s": dur("restart.synthetic_strongly_monotone") / setups,
        "bench.setup_peak_mb": setup_peak_mb,
        "cluster.gather_s": dur("cluster.gather_average") / panels,
        "cluster.gather_us": 1e6 * statistics.median(gathers) if gathers else 0.0,
        "inner.solves": calls("inner.composite_mp") // panels,
        "inner.iters": inner_iters // panels,
        "inner.cap_stops": tr.counts["inner.cap_stops"] // panels,
        "inner.solve_s": dur("inner.composite_mp") / panels,
        "inner.us_per_iter": per_iter_us(dur("inner.composite_mp"), inner_iters),
        "kernels.loop_s": dur("kernels.log_space_loop") / panels,
        "kernels.us_per_iter": per_iter_us(dur("kernels.log_space_loop"), kernel_iters),
        "geometry.prox_calls": calls("geometry.prox_map") // panels,
        "geometry.prox_s": dur("geometry.prox_map") / panels,
        "geometry.composite_prox_calls": calls("geometry.composite_prox_map") // panels,
        "geometry.composite_prox_s": dur("geometry.composite_prox_map") / panels,
        "geometry.divergence_calls": calls("geometry.bregman_divergence") // panels,
        "geometry.divergence_s": dur("geometry.bregman_divergence") / panels,
        "paus.outer_iters": tr.counts["paus.outer_iters"] // panels,
        "paus.self_s": own("paus.paus_run") / panels,
        "paus.gap_calls": calls("paus.duality_gap") // panels,
        "paus.gap_s": dur("paus.duality_gap") / panels,
        "baselines.self_s": (own("baselines.mirror_prox_run")
                             + own("baselines.euclidean_paus_run")) / panels,
        "restart.stages": tr.counts["restart.stages"] // panels,
        "restart.self_s": own("restart.paus_r") / panels,
    }
    solve_total = dur(SOLVE_ROOT)
    m["trace.layer_share"] = (solve_total - own(SOLVE_ROOT)) / solve_total
    return m
