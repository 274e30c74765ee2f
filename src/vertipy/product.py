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

from .geometry import InvalidSpecError, kernel_of

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
    # parts.mean(axis=0) without its Python wrapper: the same reduction and division
    mean = np.add.reduce(parts, axis=0)
    mean /= len(parts)
    return mean


class ProductSet:
    """C = C_1 x ... x C_m: row i of a product point projects onto C_i.

    A profile kernel's six sets, in canonical order, take its fused
    `project_rows`, whose rows equal the sets' own projections bitwise; any
    other list stacks `c_i.project(row i)`.  The list is resolved once
    (`geometry.kernel_of`).
    """

    def __init__(self, sets):
        self.sets = list(sets)
        self.project = kernel_of(self.sets).project_rows


class Diagonal:
    """D = {(x, ..., x)}: the projection is the row average, one row that broadcasts.

    The last input array and its average are kept, so projecting the same
    array object again (a product-space method's monitor after a step, then
    its next step) averages once.  Callers change neither an input array in
    place nor a returned row.
    """

    def __init__(self):
        self._parts = self._mean = None

    def project(self, parts):
        if parts is not self._parts:
            self._mean = diagonal_part(parts)
            self._parts = parts
        return self._mean
