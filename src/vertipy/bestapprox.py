"""Best-approximation building blocks: the three-point operator Q and the two-set recursions.

Feasibility seeking returns *some* point of the intersection; best
approximation converges to P_C(v), the intersection point closest to the
anchor v.  The m-set best-approximation algorithms (H-W, Dykstra, the
Haugazeau methods and anchored D-R) live in :mod:`vertipy.feasibility`, next
to the feasibility steps they are built from.  This module holds what they
and the fixtures share: Haugazeau's three-point operator Q, its
infeasibility signal, and the two-set recursions used by the analytic
fixtures (Dykstra with two sets and the anchored D-R recursion in the
original space) as plain step functions.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "InfeasibleIntersectionError",
    "q_operator",
    "dykstra_two_set_step",
    "badr_two_set_step",
]


# q_operator's roundoff guards (see its docstring)
RHO_REL_TOL = 1e-14
CHI_TOL = 1e-12


class InfeasibleIntersectionError(RuntimeError):
    """Q detected two separating halfspaces with empty intersection."""


def q_operator(x, y, z):
    """Project x onto the intersection of the halfspaces carried by (y, z).

    Q(x, y, z) is the projection of x onto H(x, y) ∩ H(y, z) where
    H(a, b) = {u : <u - b, a - b> <= 0}.  With chi = <x - y, y - z>,
    mu = ||x - y||^2, nu = ||y - z||^2 and rho = mu*nu - chi^2:

    * rho = 0 and chi >= 0:  Q = z
    * rho > 0 and chi*nu >= rho:  Q = x + (1 + chi/nu)(z - y)
    * rho > 0 and chi*nu < rho:  Q = y + (nu/rho)(chi (x - y) + mu (z - y))
    * rho = 0 and chi < 0: the halfspaces do not intersect; raises
      :class:`InfeasibleIntersectionError`.

    rho is clamped to zero when |rho| <= RHO_REL_TOL * mu * nu, and the
    infeasibility branch fires only for chi < -CHI_TOL, so roundoff on
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
    if abs(rho) <= RHO_REL_TOL * mu * nu:
        rho = 0.0
    if rho == 0.0:
        if chi < -CHI_TOL:
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
