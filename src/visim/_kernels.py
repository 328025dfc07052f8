"""The entropy/bilinear inner loop in log-coordinates.

The composite extragradient inner solver dominates runtime at large round
budgets.  For the entropy geometry with a bilinear operator its update is a
few dense vector operations on the stacked log-state (log x, log y), which
:func:`log_space_loop` performs with numpy.  When numba is installed the
very same function is compiled; nothing else changes.  The loop measures
movement in log space and floors at ``TINY_MASS``, so it agrees with the
generic block-wise loop of :mod:`visim.inner` to round-off, not bit for
bit; tests assert the agreement.
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
    underflow (see :func:`visim.inner._log_space_operands`).  Full-step
    iterates are floored at ``floor`` before their logs are taken.  Stops
    once the KL movement sum v+ (log v+ - log v) drops to ``movement_tol``;
    a zero tolerance never stops early, since the computed movement cancels
    to 0 once coordinates move less than ~sqrt(eps).  Returns the final
    log-state and the iteration count.
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
