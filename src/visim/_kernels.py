"""The former entropy/bilinear extragradient loop in log-coordinates.

No solver calls :func:`log_space_loop` any more: the one extragradient
loop is :func:`visim.inner.composite_mp`.  The module stays only because
the benchmark in ``perfbench/`` imports it (it reports
``NUMBA_AVAILABLE`` in each run's environment and wraps
``log_space_loop`` in a traced span); it goes once the benchmark drops
that import.
"""

from __future__ import annotations

import numpy as np

try:
    from numba import njit

    NUMBA_AVAILABLE = True
except ImportError:
    NUMBA_AVAILABLE = False


def log_space_loop(SB, S, base, wc, L, max_iters, movement_tol, floor):
    """Composite extragradient on the stacked log-state ``L``.

    A step from log-state L with operator argument v is the blockwise
    normalisation of exp(base + wc L - SB v); ``SB`` is the (scaled) block
    operator of F1 and ``S`` the block-sum matrix (ones within each block),
    so ``S.dot(W)`` holds every coordinate's block normaliser.  ``base``
    must be shifted so that these exponentials neither overflow nor
    underflow.  Full-step iterates are floored at ``floor`` before their
    logs are taken.  Stops once the KL movement sum v+ (log v+ - log v)
    drops to ``movement_tol``; a zero tolerance never stops early, since
    the computed movement cancels to 0 once coordinates move less than
    ~sqrt(eps).  Returns the final log-state and the iteration count.
    """
    V = np.exp(L)
    iters = 0
    for t in range(max_iters):
        A = wc * L + base
        W = np.exp(A - SB.dot(V))
        W = np.exp(A - SB.dot(W / S.dot(W)))
        V = np.maximum(W / S.dot(W), floor)
        L_next = np.log(V)
        stop = movement_tol > 0.0 and V.dot(L_next - L) <= movement_tol
        L = L_next
        iters = t + 1
        if stop:
            break
    return L, iters


if NUMBA_AVAILABLE:
    log_space_loop = njit(cache=True)(log_space_loop)
