"""The two names ``perfbench/`` still reads: the numba probe
``NUMBA_AVAILABLE``, and ``log_space_loop``, a former loop that no code
runs (the one extragradient loop is :func:`visim.inner.composite_mp`)."""

try:
    import numba  # noqa: F401

    NUMBA_AVAILABLE = True
except ImportError:
    NUMBA_AVAILABLE = False


def log_space_loop(*args, **kwargs):
    """Removed; perfbench only wraps the name."""
    raise NotImplementedError(
        "log_space_loop was removed; the extragradient loop is "
        "visim.inner.composite_mp"
    )
