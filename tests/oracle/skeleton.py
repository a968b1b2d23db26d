"""The simple undirected skeleton by ``np.unique`` (the reference form).

Production (``repro.apps.triangle_count.undirected_simple_edges``) sorts
the ``u * n + v`` keys and keeps the first of each run; this module keeps
the ``np.unique(..., return_index=True)`` construction it replaced, so a
differential test can compare the two byte for byte.
"""

from __future__ import annotations

import numpy as np

__all__ = ["reference_simple_edges"]


def reference_simple_edges(graph):
    """``(u, v)`` with ``u < v``, self loops and parallel edges dropped."""
    src, dst = graph.edges()
    u = np.minimum(src, dst)
    v = np.maximum(src, dst)
    keep = u != v
    u, v = u[keep], v[keep]
    if u.size:
        keys = u * np.int64(graph.num_vertices) + v
        _, idx = np.unique(keys, return_index=True)
        u, v = u[idx], v[idx]
    return u, v
