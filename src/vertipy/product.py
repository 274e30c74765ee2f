"""Product-space embedding for many-set problems.

A point of the product space X^m is stored as an (m, n) array: row i is the
component associated with set C_i.  The two product sets of interest are
C = C_1 x ... x C_m (project row-wise) and the diagonal D = {(x, ..., x)}
(project by averaging rows).  x lies in the intersection of all C_i exactly
when (x, ..., x) lies in C and D, which is what lets two-set splitting
methods run on any number of sets.
"""

from __future__ import annotations

import numpy as np

from .geometry import InvalidSpecError

__all__ = ["make_product_point", "diagonal_part", "dr_step"]


def make_product_point(x, m: int) -> np.ndarray:
    """Stack m copies of x into an (m, n) product point."""
    if m < 1:
        raise InvalidSpecError("need m >= 1 copies")
    x = np.asarray(x, dtype=float)
    return np.tile(x, (m, 1))


def diagonal_part(parts: np.ndarray) -> np.ndarray:
    """The row average of a product point (the monitored iterate)."""
    parts = np.asarray(parts, dtype=float)
    return parts.mean(axis=0)


def dr_step(parts, sets):
    """Douglas-Rachford in the product space.

    Row i updates to x_i - xbar + P_i(2 xbar - x_i); the monitored iterate
    is the row average xbar.
    """
    parts = np.asarray(parts, dtype=float)
    xbar = diagonal_part(parts)
    out = np.empty_like(parts)
    for i, c in enumerate(sets):
        out[i] = parts[i] - xbar + c.project(2.0 * xbar - parts[i])
    return out
