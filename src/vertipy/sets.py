"""Generic convex sets with closed-form projectors.

These cover the small analytic instances used by the verification fixtures
and tests (halfspaces, slabs, balls, linear/affine subspaces).  They expose
the same project/intrepid/residual interface as the profile constraints, so
every algorithm runs unchanged on either kind of set.
"""

from __future__ import annotations

import numpy as np

from .geometry import Constraint, InvalidSpecError, _gap, _IntervalConstraint

__all__ = ["HalfspaceSet", "SlabSet", "BallSet", "SpanSet"]


class SlabSet(_IntervalConstraint):
    """{x : lo <= <a, x> <= hi}, with the reflect-or-midline intrepid rule."""

    tag = "Slab"

    def __init__(self, a, lo: float, hi: float):
        a = np.asarray(a, dtype=float)
        nn = float(np.dot(a, a))
        if not np.any(a):
            raise InvalidSpecError(f"{self.tag.lower()} normal must be nonzero")
        if nn < np.finfo(float).tiny:
            # a subnormal <a, a> has lost the digits that the projection divides by
            raise InvalidSpecError(
                f"{self.tag.lower()} normal is too small: <a, a> = {nn!r} is below the "
                f"smallest normal float, so its projection would be inexact; scale a and "
                f"the bounds up"
            )
        if not lo <= hi:
            raise InvalidSpecError("need lo <= hi")
        super().__init__(a.size)
        self.a = a
        self.lo = float(lo)
        self.hi = float(hi)
        self._interval = (self.lo, self.hi)
        self._nn = nn

    def _move(self, x, up, interval_map, *args):
        x = self._check(x)
        s = np.dot(self.a, x)
        sstar = float(interval_map(s, *args))
        if sstar == s:
            return x.copy()
        return x + ((sstar - s) / self._nn) * self.a

    def residual(self, x):
        return abs(_gap(np.dot(self.a, self._check(x)), *self._interval)) / np.sqrt(self._nn)


class HalfspaceSet(SlabSet):
    """{x : <a, x> <= b}, the slab with lo = -inf and hi = b.

    Its intrepid operator is its projection (the `Constraint` default), not
    the slab's reflect rule.
    """

    tag = "Halfspace"
    intrepid = Constraint.intrepid

    def __init__(self, a, b: float):
        super().__init__(a, -np.inf, b)
        self.b = self.hi


class BallSet(Constraint):
    """Closed Euclidean ball {x : ||x - center|| <= radius}."""

    tag = "Ball"

    def __init__(self, center, radius: float):
        center = np.asarray(center, dtype=float)
        if radius <= 0:
            raise InvalidSpecError("radius must be positive")
        super().__init__(center.size)
        self.center = center
        self.radius = float(radius)

    def project(self, x):
        x = self._check(x)
        diff = x - self.center
        dist = np.linalg.norm(diff)
        if dist <= self.radius:
            return x.copy()
        return self.center + (self.radius / dist) * diff

    def residual(self, x):
        x = self._check(x)
        return max(np.linalg.norm(x - self.center) - self.radius, 0.0)


class SpanSet(Constraint):
    """Affine subspace offset + span{vectors}; orthonormalized on build."""

    tag = "Span"
    is_affine = True

    def __init__(self, vectors, offset=None):
        v = np.atleast_2d(np.asarray(vectors, dtype=float))  # rows span the set
        q, r = np.linalg.qr(v.T)
        keep = np.abs(np.diag(r)) > 1e-12 * max(1.0, np.abs(r).max())
        if not keep.any():
            raise InvalidSpecError("spanning vectors are all (numerically) zero")
        super().__init__(v.shape[1])
        self.basis = q[:, keep]  # columns orthonormal
        self.offset = (
            np.zeros(self.n) if offset is None else np.asarray(offset, dtype=float)
        )

    def project(self, x):
        x = self._check(x)
        rel = x - self.offset
        return self.offset + self.basis @ (self.basis.T @ rel)
