"""Shared test fixtures: dense-grid nearest-point oracles.

The oracles deliberately know nothing about the closed-form projectors.
`grid_nearest` does a multiresolution search over a cube: evaluate a
membership predicate on a mesh, keep the feasible mesh point closest to
the query, zoom the window around it, repeat.  Predicates receive the
current mesh spacing as a slack argument so that measure-zero sets (the
midlines used by the intrepid operators) can be inflated to a thin slab
that the lattice is guaranteed to hit, and that tightens as the zoom
refines.  Final accuracy is driven by the last mesh spacing (~1e-6 for
the default settings), far below the 1e-3 comparison tolerance.

The intrepid operators are not projections, so `intrepid_oracle` rebuilds
them from grid projections only: identity on the set; the reflection
2 p - x through the nearest boundary point p while that reflection stays
in the near half of the set; otherwise the grid projection onto the
midline set.  "Near half" is decided by comparing the violation depth
||x - p|| against the boundary-to-midline distance ||p - P_mid(p)||,
both measured on the grid.

A caveat on what the grid search can and cannot localize.  The pair sets
(slope stripes and bands) have boundaries at 45 degrees to the axes, so
mesh layers run parallel to the boundary and the feasible point nearest
the query is resolved in both coordinates (~1e-8 observed).  The
curvature slabs have a generic non-axis-aligned flat boundary: the
distance function is flat along the boundary, so the *distance* converges
sharply while the tangential position of the nearest point does not (it
stalls near 1e-2 regardless of mesh refinement).  Tests therefore compare
curvature operators through distance identities (set distance, midline
distance, jump lengths), which the oracle pins to ~2e-4, rather than
through the nearest point itself.
"""

import numpy as np
import pytest

from vertipy.geometry import (
    Breakpoints,
    CurvatureBounds,
    CurvatureConstraint,
    SlopeBounds,
    SlopeConstraint,
)


def grid_nearest(predicate, x, half_width=8.0, points=33, rounds=10):
    """Nearest point to x satisfying `predicate`, by zooming grid search.

    predicate maps an (N, dim) array and a scalar slack to an (N,) bool
    array; exact sets ignore the slack.
    """
    x = np.asarray(x, dtype=float)
    dim = x.size
    center = x.copy()
    w = float(half_width)
    n = 321 if dim <= 2 else 97
    last = None
    hits = 0
    for _ in range(rounds):
        spacing = 2.0 * w / (n - 1)
        axes = [np.linspace(center[k] - w, center[k] + w, n) for k in range(dim)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
        ok = predicate(mesh, spacing)
        if np.any(ok):
            cand = mesh[ok]
            j = np.argmin(np.sum((cand - x) ** 2, axis=1))
            last = cand[j]
            hits += 1
            center = last
            w = 3.0 * spacing
            n = points
        else:
            # nothing feasible at this resolution; refine in place
            n = min(2 * n - 1, 1281 if dim <= 2 else 193)
    if last is None or hits < 3:
        raise AssertionError("oracle grid search failed to localize the set")
    return last


def intrepid_oracle(predicate, mid_predicate, x, half_width=8.0):
    """Intrepid counterpart built from grid projections only."""
    x = np.asarray(x, dtype=float)
    if predicate(x[None, :], 0.0)[0]:
        return x.copy()
    p = grid_nearest(predicate, x, half_width)
    mid_of_p = grid_nearest(mid_predicate, p, half_width)
    depth = np.linalg.norm(x - p)
    half = np.linalg.norm(p - mid_of_p)
    if depth <= half + 1e-5:
        return 2.0 * p - x
    return grid_nearest(mid_predicate, x, half_width)


# ---- one-pair and one-triple constraint sets ----

def pair_set(alpha, beta=None):
    """The slope set beta <= |x_2 - x_1| <= alpha of one pair (x_1, x_2); beta None: no floor."""
    return SlopeConstraint(SlopeBounds([alpha], None if beta is None else [beta]), "odd", 2)


def on_triple(op, x, i, bounds, bp):
    """x with x[i : i + 3] mapped by `op` ("project" or "intrepid") of curvature triple i alone.

    The triple's own breakpoints t[i : i + 3] give its tau as bp.tau[i : i + 2] bitwise.
    """
    triple = CurvatureConstraint(
        CurvatureBounds(bounds.gamma[i : i + 1], bounds.delta[i : i + 1]),
        Breakpoints(bp.t[i : i + 3]),
        1,
    )
    out = np.array(x, dtype=float)
    out[i : i + 3] = getattr(triple, op)(out[i : i + 3])
    return out


# ---- membership predicates for the road constraint building blocks ----

def stripe_pred(alpha):
    """|x2 - x1| <= alpha on pairs."""
    return lambda pts, slack=0.0: np.abs(pts[:, 1] - pts[:, 0]) <= alpha + slack


def stripe_mid_pred():
    return lambda pts, slack=0.0: np.abs(pts[:, 1] - pts[:, 0]) <= max(slack, 1e-12)


def band_pred(alpha, beta):
    """beta <= |x2 - x1| <= alpha on pairs."""
    def pred(pts, slack=0.0):
        d = np.abs(pts[:, 1] - pts[:, 0])
        return (d >= beta - slack) & (d <= alpha + slack)
    return pred


def band_mid_pred(alpha, beta):
    mid = 0.5 * (alpha + beta)
    def pred(pts, slack=0.0):
        d = np.abs(pts[:, 1] - pts[:, 0])
        return np.abs(d - mid) <= max(slack, 1e-12)
    return pred


def slab_pred(u, lo, hi):
    """lo <= <u, x> <= hi on len(u)-tuples."""
    u = np.asarray(u, dtype=float)
    scale = np.max(np.abs(u))
    def pred(pts, slack=0.0):
        s = pts @ u
        return (s >= lo - slack * scale) & (s <= hi + slack * scale)
    return pred


def slab_mid_pred(u, lo, hi):
    u = np.asarray(u, dtype=float)
    mid = 0.5 * (lo + hi)
    scale = np.max(np.abs(u))
    def pred(pts, slack=0.0):
        return np.abs(pts @ u - mid) <= max(slack * scale, 1e-12)
    return pred


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)
