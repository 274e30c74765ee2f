"""Best-approximation algorithms: find the feasible point nearest an anchor.

Feasibility seeking returns *some* point of the intersection; the methods
here converge to P_C(v), the intersection point closest to the anchor v.
Included are Halpern-style anchored iterations (H-W), Dykstra's algorithm in
cyclic and parallel form, Haugazeau-modified projection methods built on the
three-point operator Q, and an anchored variant of Douglas-Rachford splitting.

Two-set recursions used by the analytic fixtures (Dykstra with two sets and
the anchored D-R recursion in the original space) are provided as plain
step functions.
"""

from __future__ import annotations

import numpy as np

from . import product
from .geometry import InvalidSpecError

__all__ = [
    "InfeasibleIntersectionError",
    "q_operator",
    "dykstra_two_set_step",
    "badr_two_set_step",
    "HalpernWittmann",
    "CyclicDykstra",
    "ParallelDykstra",
    "HaugazeauCyclic",
    "HaugazeauParallel",
    "HaugazeauDouglasRachford",
    "AnchoredDouglasRachford",
]


class InfeasibleIntersectionError(RuntimeError):
    """Q detected two separating halfspaces with empty intersection."""


def q_operator(x, y, z, *, rho_rel_tol: float = 1e-14, chi_tol: float = 1e-12):
    """Project x onto the intersection of the halfspaces carried by (y, z).

    Q(x, y, z) is the projection of x onto H(x, y) ∩ H(y, z) where
    H(a, b) = {u : <u - b, a - b> <= 0}.  With chi = <x - y, y - z>,
    mu = ||x - y||^2, nu = ||y - z||^2 and rho = mu*nu - chi^2:

    * rho = 0 and chi >= 0:  Q = z
    * rho > 0 and chi*nu >= rho:  Q = x + (1 + chi/nu)(z - y)
    * rho > 0 and chi*nu < rho:  Q = y + (nu/rho)(chi (x - y) + mu (z - y))
    * rho = 0 and chi < 0: the halfspaces do not intersect; raises
      :class:`InfeasibleIntersectionError`.

    rho is clamped to zero when |rho| <= rho_rel_tol * mu * nu, and the
    infeasibility branch fires only for chi < -chi_tol, so roundoff on
    nearly collinear triples cannot produce a spurious signal.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    xy = x - y
    yz = y - z
    chi = float(np.dot(xy, yz))
    mu = float(np.dot(xy, xy))
    nu = float(np.dot(yz, yz))
    rho = mu * nu - chi * chi
    if abs(rho) <= rho_rel_tol * mu * nu:
        rho = 0.0
    if rho == 0.0:
        if chi < -chi_tol:
            raise InfeasibleIntersectionError(
                f"halfspaces cannot intersect (chi = {chi:.3e} < 0 with rho = 0)"
            )
        return z.copy()
    if chi * nu >= rho:
        return x + (1.0 + chi / nu) * (z - y)
    return y + (nu / rho) * (chi * xy + mu * (z - y))


# ---------------------------------------------------------------------------
# two-set recursions (used by the analytic fixtures)


def dykstra_two_set_step(b, p, q, set_a, set_b):
    """One round of two-set Dykstra.  Returns (a_next, b_next, p_next, q_next).

    Start from b_0 = v, p_0 = q_0 = 0.  The b-iterates converge to the point
    of A ∩ B nearest v (for convex A, B).
    """
    a_next = set_a.project(b + p)
    p_next = b + p - a_next
    b_next = set_b.project(a_next + q)
    q_next = a_next + q - b_next
    return a_next, b_next, p_next, q_next


def badr_two_set_step(x, v, set_a, set_b):
    """One step of the anchored D-R recursion in the original space.

    Returns (x_next, y) with the shadow y = P_B(x):

        x_next = x - P_B x + P_A( P_B x + (v - x)/2 ).

    Start at x_0 = v and monitor the y-sequence.  When A and B are linear
    subspaces and v lies in B, the shadows collapse to the plain alternating
    projections y_k = (P_B P_A)^k v.
    """
    y = set_b.project(x)
    x_next = x - y + set_a.project(y + 0.5 * (v - x))
    return x_next, y


# ---------------------------------------------------------------------------
# anchored algorithms over m sets
#
# Each class exposes the same minimal driver interface: kind, step(),
# monitor().  State is initialized from (sets, v) with the anchor v also the
# starting point.


class _Anchored:
    kind = "ba"

    def __init__(self, sets, v):
        if not sets:
            raise InvalidSpecError("need at least one set")
        self.sets = list(sets)
        self.v = np.asarray(v, dtype=float)
        self.m = len(self.sets)


class HalpernWittmann(_Anchored):
    """Anchored cyclic projections: x_{k+1} = v/(k+1) + k/(k+1) P_m...P_1 x_k."""

    def __init__(self, sets, v):
        super().__init__(sets, v)
        self.x = self.v.copy()
        self.k = 0

    def step(self):
        y = self.x
        for c in self.sets:
            y = c.project(y)
        w = self.k / (self.k + 1.0)
        self.x = (1.0 - w) * self.v + w * y
        self.k += 1

    def monitor(self):
        return self.x


class CyclicDykstra(_Anchored):
    """Dykstra's algorithm, one projection per iteration.

    Each set keeps the correction produced at its previous visit; iteration
    k projects x + q_set onto set k mod m and stores the new correction.
    """

    def __init__(self, sets, v):
        super().__init__(sets, v)
        self.x = self.v.copy()
        self.q = np.zeros((self.m, self.x.size))
        self.k = 0

    def step(self):
        j = self.k % self.m
        shifted = self.x + self.q[j]
        x_next = self.sets[j].project(shifted)
        self.q[j] = shifted - x_next
        self.x = x_next
        self.k += 1

    def monitor(self):
        return self.x


class ParallelDykstra(_Anchored):
    """Dykstra in the product space: project corrections in parallel, average."""

    def __init__(self, sets, v):
        super().__init__(sets, v)
        self.y = product.make_product_point(self.v, self.m)
        self.z = np.zeros_like(self.y)

    def step(self):
        xbar = product.diagonal_part(self.y)
        for i, c in enumerate(self.sets):
            shifted = self.z[i] + xbar
            self.y[i] = c.project(shifted)
            self.z[i] = shifted - self.y[i]

    def monitor(self):
        return product.diagonal_part(self.y)


class HaugazeauCyclic(_Anchored):
    """Cyclic projections made strongly convergent: x <- Q(v, x, P_[k] x)."""

    def __init__(self, sets, v):
        super().__init__(sets, v)
        self.x = self.v.copy()
        self.k = 0

    def step(self):
        c = self.sets[self.k % self.m]
        self.x = q_operator(self.v, self.x, c.project(self.x))
        self.k += 1

    def monitor(self):
        return self.x


class HaugazeauParallel(_Anchored):
    """Averaged projections wrapped in Q: x <- Q(v, x, mean_i P_i x)."""

    def __init__(self, sets, v):
        super().__init__(sets, v)
        self.x = self.v.copy()

    def step(self):
        target = np.mean([c.project(self.x) for c in self.sets], axis=0)
        self.x = q_operator(self.v, self.x, target)

    def monitor(self):
        return self.x


class HaugazeauDouglasRachford(_Anchored):
    """D-R in the product space wrapped in Q, monitored on the diagonal."""

    def __init__(self, sets, v, parts0=None):
        super().__init__(sets, v)
        if parts0 is None:
            self.parts = product.make_product_point(self.v, self.m)
        else:
            parts0 = np.asarray(parts0, dtype=float)
            if parts0.shape != (self.m, self.v.size):
                raise InvalidSpecError(
                    f"parts0 must have shape ({self.m}, {self.v.size})"
                )
            self.parts = parts0.copy()
        self._anchor = self.parts.copy()

    def step(self):
        target = product.dr_step(self.parts, self.sets)
        flat = q_operator(self._anchor.ravel(), self.parts.ravel(), target.ravel())
        self.parts = flat.reshape(self.parts.shape)

    def monitor(self):
        return product.diagonal_part(self.parts)


class AnchoredDouglasRachford(_Anchored):
    """Best-approximation D-R in the product space.

    x_{k+1,i} = x_{k,i} - xbar_k + P_i( (v + 2 xbar_k - x_{k,i}) / 2 ),
    monitored on the diagonal part xbar_k.
    """

    def __init__(self, sets, v):
        super().__init__(sets, v)
        self.parts = product.make_product_point(self.v, self.m)

    def step(self):
        xbar = product.diagonal_part(self.parts)
        out = np.empty_like(self.parts)
        for i, c in enumerate(self.sets):
            out[i] = self.parts[i] - xbar + c.project(
                0.5 * (self.v + 2.0 * xbar - self.parts[i])
            )
        self.parts = out

    def monitor(self):
        return product.diagonal_part(self.parts)
