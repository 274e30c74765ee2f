"""Product-space embedding for many-set problems.

A point of the product space X^m is stored as an (m, n) array: row i is the
component associated with set C_i.  The two product sets of interest are
C = C_1 x ... x C_m (:class:`ProductSet`, project row-wise) and the diagonal
D = {(x, ..., x)} (:class:`Diagonal`, project by averaging rows).  x lies in
the intersection of all C_i exactly when (x, ..., x) lies in C and D, so
the m-set D-R, anchored D-R and their Haugazeau variant are the two-set
recursions run on A = C and B = D.
"""

from __future__ import annotations

import numpy as np

from .geometry import InvalidSpecError

__all__ = ["make_product_point", "diagonal_part", "ProductSet", "Diagonal"]


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


class ProductSet:
    """C = C_1 x ... x C_m: row i of a product point projects onto C_i."""

    def __init__(self, sets):
        self.sets = list(sets)

    def project(self, parts):
        out = np.empty(np.shape(parts))
        for i, c in enumerate(self.sets):
            out[i] = c.project(parts[i])
        return out


class Diagonal:
    """D = {(x, ..., x)}: the projection is the row average, one row that broadcasts."""

    def project(self, parts):
        return diagonal_part(parts)
