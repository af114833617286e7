"""Ordered serial map for the p sweep and the verification battery.

The mapped work is pure Python and small numpy arrays, so threads would only
contend for the GIL; a plain list comprehension is faster and gives the same
results in the same order.  The module stays only as the one seam the
benchmark's tracer wraps (``parallel.map`` spans); it goes together with the
tracer's map wrapping and the ``parallel.map.*`` metrics.
"""


def thread_count() -> int:
    """Workers ``parallel_map`` uses: always 1 (the tracer records it)."""
    return 1


def parallel_map(fn, items):
    """Apply ``fn`` over ``items`` in order."""
    return [fn(item) for item in items]
