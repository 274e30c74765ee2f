"""Best-approximation building blocks: the three-point operator Q and anchored D-R.

Feasibility seeking returns *some* point of the intersection; best
approximation converges to P_C(v), the intersection point closest to the
anchor v.  The m-set best-approximation algorithms (H-W, Dykstra, the
Haugazeau methods and anchored D-R) live in :mod:`vertipy.feasibility`, next
to the feasibility steps they are built from.  This module holds what they
share: Haugazeau's three-point operator Q, its infeasibility signal, and
the two-set anchored D-R recursion, which baD-R runs on the product set and
the diagonal (:mod:`vertipy.product`) and the analytic fixtures run on two
sets of the plane.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "InfeasibleIntersectionError",
    "q_operator",
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
# anchored D-R


def badr_two_set_step(x, v, set_a, set_b):
    """One step of the anchored D-R recursion.  Returns (x_next, y).

    With the shadow y = P_B(x):

        x_next = x - y + P_A( (v + 2y - x) / 2 ).

    Start at x_0 = v and monitor the y-sequence.  When A and B are linear
    subspaces and v lies in B, the shadows collapse to the plain alternating
    projections y_k = (P_B P_A)^k v.
    """
    y = set_b.project(x)
    x_next = x - y + set_a.project(0.5 * (v + 2.0 * y - x))
    return x_next, y
