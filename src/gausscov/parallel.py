"""In-order map over the independent tasks of ``fgr1st`` and ``run_sim``.

Every task runs on the calling thread, in item order; the package starts no
threads.  ``ordered_map`` is kept only as a seam: ``perfbench/tracer.py``
wraps it at ``gausscov.graph.ordered_map`` and ``gausscov.sim.ordered_map``
to time each node and replicate.
"""

__all__ = ["ordered_map"]


def ordered_map(fn, items):
    """``[fn(it) for it in items]``, on the calling thread."""
    return [fn(it) for it in items]
