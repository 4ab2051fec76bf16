"""In-order map over the independent tasks of ``fgr1st`` and ``run_sim``.

Every task runs on the calling thread, in item order; the package starts no
threads.  ``ordered_map`` is kept only as a seam: ``perfbench/tracer.py``
wraps it at ``gausscov.graph.ordered_map`` and ``gausscov.sim.ordered_map``
to time each node and replicate.  For ``fgr1st`` and for ``run_sim``'s
``f1st`` method a task is only the stepwise pass; the subset refinement of
all tasks runs after the map returns, outside it.
"""

__all__ = ["ordered_map"]


def ordered_map(fn, items):
    """``[fn(it) for it in items]``, on the calling thread."""
    return [fn(it) for it in items]
