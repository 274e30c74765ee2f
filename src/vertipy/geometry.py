"""Constraint geometry for piecewise-linear vertical profiles.

A profile is a vector x of elevations over fixed, strictly increasing
stations t_1 < ... < t_n.  Three families of constraint sets are supported:

* interpolation: x_i = y_i on a fixed index set (an affine subspace),
* slope: |x_{i+1} - x_i| <= alpha_i per interval, optionally with a
  minimum-slope floor beta_i <= |x_{i+1} - x_i| (which makes the set
  nonconvex: a union of two stripes),
* curvature: the change of slope between adjacent intervals stays within
  [delta_i, gamma_i].

Slope pairs of one parity -- (1,2),(3,4),... or (2,3),(4,5),... -- have
disjoint coordinate supports, so projecting pair-by-pair projects onto the
intersection exactly.  Curvature triples taken every third index likewise
split into three independent "blocks".  All projectors here are closed form
and O(n).

Each exact projector has an "intrepid" companion used by the overshooting
variants of the cyclic methods: a point moderately outside the set is
reflected into it, and a point far outside jumps straight to the midline.
Intrepid operators are the identity exactly on the set but are not
projections.

Indices are 0-based throughout: slope pair i couples (x_i, x_{i+1}) over
interval length tau_i = t_{i+1} - t_i, curvature index i couples
(x_i, x_{i+1}, x_{i+2}).

A slope or curvature set needs no index arrays: the k pairs of one slope
parity tile x[off : off + 2k] (off = 0 for "odd", 1 for "even") and the k
triples of curvature block b tile x[b-1 : b-1 + 3k], so the set reads and
updates its pairs or triples as the rows of a (k, 2) or (k, 3) view.  Each
set computes the bounds and weights of its rows from its own spec on first
use.  The six sets of one problem share a :class:`ProfileKernel` that
holds their fused monitor: `proximity2` takes all n-1 differences and n-2
triples in one pass and returns exactly (bitwise) the sum of the six sets'
squared residuals in canonical order: each residual is rounded to a float
as the set's own `residual` rounds it, the slope violations are permuted
so each parity's dot product runs on a contiguous slice (np.dot on a
strided view rounds differently), and each curvature block sums its
every-third-triple slice, which np.add.reduce adds as it adds a contiguous
copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

__all__ = [
    "InvalidSpecError",
    "Breakpoints",
    "InterpolationSpec",
    "SlopeBounds",
    "CurvatureBounds",
    "Constraint",
    "InterpolationConstraint",
    "SlopeConstraint",
    "CurvatureConstraint",
    "project_interpolation",
    "project_slope_pair",
    "intrepid_slope_pair",
    "project_slope_pair_nonconvex",
    "intrepid_slope_pair_nonconvex",
    "project_slope_parity",
    "project_curvature_single",
    "intrepid_curvature_single",
    "project_curvature_block",
    "ProfileKernel",
]


class InvalidSpecError(ValueError):
    """Raised for malformed constraint data (shapes, ordering, sign rules)."""


def _as_float_vector(a, name):
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 1:
        raise InvalidSpecError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class Breakpoints:
    """Strictly increasing station coordinates t_1 < ... < t_n (n >= 2)."""

    t: np.ndarray
    tau: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        t = _as_float_vector(self.t, "t")
        if t.size < 2:
            raise InvalidSpecError("need at least two breakpoints")
        tau = np.diff(t)
        if not np.all(tau > 0):
            raise InvalidSpecError("breakpoints must be strictly increasing")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "tau", tau)

    @property
    def n(self) -> int:
        return self.t.size


@dataclass(frozen=True)
class InterpolationSpec:
    """Fixed elevations: x[indices[j]] = values[j].  Indices 0-based, sorted."""

    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=int)
        vals = _as_float_vector(self.values, "values")
        if idx.ndim != 1 or idx.size == 0:
            raise InvalidSpecError("indices must be a nonempty 1-D integer array")
        if idx.size != vals.size:
            raise InvalidSpecError("indices and values must have equal length")
        if np.any(np.diff(idx) <= 0):
            raise InvalidSpecError("indices must be strictly increasing")
        if idx[0] < 0:
            raise InvalidSpecError("indices must be nonnegative")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class SlopeBounds:
    """Per-interval slope-change caps in elevation units.

    alpha_i > 0 bounds |x_{i+1} - x_i| from above (alpha_i = inf disables the
    cap).  If beta is given, 0 <= beta_i < alpha_i additionally bounds
    |x_{i+1} - x_i| from below, and the per-pair set becomes a union of two
    stripes (nonconvex).
    """

    alpha: np.ndarray
    beta: np.ndarray | None = None

    def __post_init__(self):
        alpha = _as_float_vector(self.alpha, "alpha")
        if not np.all(alpha > 0):
            raise InvalidSpecError("alpha must be positive (inf allowed)")
        object.__setattr__(self, "alpha", alpha)
        if self.beta is not None:
            beta = _as_float_vector(self.beta, "beta")
            if beta.size != alpha.size:
                raise InvalidSpecError("beta must match alpha in length")
            if not np.all((beta >= 0) & (beta < alpha)):
                raise InvalidSpecError("need 0 <= beta < alpha elementwise")
            object.__setattr__(self, "beta", beta)

    @property
    def convex(self) -> bool:
        return self.beta is None


@dataclass(frozen=True)
class CurvatureBounds:
    """Bounds delta_i <= s_{i+1} - s_i <= gamma_i on adjacent slope changes."""

    gamma: np.ndarray
    delta: np.ndarray

    def __post_init__(self):
        gamma = _as_float_vector(self.gamma, "gamma")
        delta = _as_float_vector(self.delta, "delta")
        if gamma.size != delta.size:
            raise InvalidSpecError("gamma and delta must have equal length")
        if not np.all((delta <= 0) & (gamma >= 0)):
            raise InvalidSpecError("need delta <= 0 <= gamma elementwise")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "delta", delta)


# ---------------------------------------------------------------------------
# target maps in difference space
#
# A slope operator moves the pair (x_i, x_{i+1}) only along (-1, 1)/sqrt(2),
# preserving x_i + x_{i+1}.  It is therefore determined by how it maps
# d = x_{i+1} - x_i to a target d*; the pair update is
# (x_i - h, x_{i+1} + h) with h = (d* - d)/2.  The same applies to curvature
# via the inner product s = tau_{i+1} x_i - (tau_i + tau_{i+1}) x_{i+1}
# + tau_i x_{i+2}.
#
# The intrepid maps are piecewise: the first matching case wins.  Their
# breakpoints depend on the bounds only, so a "table" of them is built once
# per set and `_first_match` picks the case with nested np.where.


def _clip(v, lo, hi):
    # np.clip without its Python wrapper; same values
    return np.minimum(np.maximum(v, lo), hi)


def _first_match(cases, default):
    out = default
    for cond, choice in reversed(cases):
        out = np.where(cond, choice, out)
    return out


def _stripe_dstar_intrepid(d, alpha):
    # copysign, not sign(d) * alpha: at d = 0 with alpha = inf that is 0 * inf
    ad = np.abs(d)
    reflect = np.copysign(2.0 * alpha, d) - d
    return np.where(ad <= alpha, d, np.where(ad < 2.0 * alpha, reflect, 0.0))


def _band_dstar(d, alpha, beta):
    # exact projection onto {beta <= |d| <= alpha}; the tie d = 0 goes to the
    # upward branch +beta
    ad = np.abs(d)
    up = np.where(d >= 0.0, 1.0, -1.0)
    return np.where(ad < beta, up * beta, np.where(ad <= alpha, d, np.copysign(alpha, d)))


def _band_intrepid_table(alpha, beta):
    mid = 0.5 * (alpha + beta)
    return (
        0.5 * (beta - 3.0 * alpha), -alpha, -beta, np.minimum(0.0, 0.5 * (alpha - 3.0 * beta)),
        0.5 * (3.0 * beta - alpha), beta, alpha, 0.5 * (3.0 * alpha - beta),
        mid, -mid, -2.0 * alpha, -2.0 * beta, 2.0 * beta, 2.0 * alpha,
    )


def _band_dstar_from(d, table):
    # at every boundary overlap the adjacent formulas agree, and the two
    # midline-jump cases around d = 0 are reachable only when 3*beta > alpha
    (far_lo, neg_alpha, neg_beta, near_lo, near_hi, beta, alpha, far_hi,
     mid, neg_mid, neg_2alpha, neg_2beta, two_beta, two_alpha) = table
    with np.errstate(invalid="ignore"):
        return _first_match(
            [
                (d < far_lo, neg_mid),
                (d < neg_alpha, neg_2alpha - d),
                (d <= neg_beta, d),
                (d <= near_lo, neg_2beta - d),
                (d <= 0.0, neg_mid),
                (d <= near_hi, mid),
                (d < beta, two_beta - d),
                (d <= alpha, d),
                (d <= far_hi, two_alpha - d),
            ],
            mid,
        )


def _interval_intrepid_table(lo, hi):
    half = 0.5 * (hi - lo)
    return lo - half, lo, hi, hi + half, 0.5 * (lo + hi), 2.0 * lo, 2.0 * hi


def _interval_sstar_from(s, table):
    far_lo, lo, hi, far_hi, mid, two_lo, two_hi = table
    return _first_match(
        [(s < far_lo, mid), (s < lo, two_lo - s), (s <= hi, s), (s <= far_hi, two_hi - s)], mid
    )


def _interval_sstar_intrepid(s, lo, hi):
    return _interval_sstar_from(s, _interval_intrepid_table(lo, hi))


def _band_distance(d, alpha, beta):
    # distance from d to {beta <= |d| <= alpha} along the d axis
    ad = np.abs(d)
    with np.errstate(invalid="ignore"):
        over = np.where(ad > alpha, ad - alpha, 0.0)
    return np.where(ad < beta, beta - ad, over)


def _pair_violation(d, alpha, beta):
    # how far each difference lies outside its stripe (or band, given beta)
    if beta is not None:
        return _band_distance(d, alpha, beta)
    with np.errstate(invalid="ignore"):
        return np.maximum(np.abs(d) - alpha, 0.0)


def _slope_residual(viol):
    # each violated pair moves by viol/2 in two coordinates; `viol` must be
    # contiguous, since np.dot on a strided view rounds differently
    return math.sqrt(0.5 * np.dot(viol, viol))


def _curvature_terms(s, lo, hi, unorm2):
    gap = s - _clip(s, lo, hi)
    return gap * gap / unorm2


def _curvature_residual(terms):
    # np.sum without its Python wrapper; a strided slice sums as its copy does
    return math.sqrt(np.add.reduce(terms))


def _interp_residual(x, spec):
    diff = x[spec.indices] - spec.values
    return math.sqrt(np.dot(diff, diff))  # np.linalg.norm(diff), without its wrapper


# ---------------------------------------------------------------------------
# projector operations


def project_interpolation(x, spec: InterpolationSpec) -> np.ndarray:
    """Project onto {x : x[i] = y_i for i in spec.indices} (replace coords)."""
    x = np.asarray(x, dtype=float)
    if spec.indices[-1] >= x.size:
        raise InvalidSpecError("interpolation index out of range")
    out = x.copy()
    out[spec.indices] = spec.values
    return out


def _on_pair(op, xi, xj, alpha, beta=None):
    # a one-pair slope constraint on (xi, xj); SlopeBounds checks alpha and beta
    bounds = SlopeBounds([alpha], None if beta is None else [beta])
    xi, xj = op(SlopeConstraint(bounds, "odd", 2), np.array([xi, xj], dtype=float))
    return float(xi), float(xj)


def project_slope_pair(xi: float, xj: float, alpha: float):
    """Project (xi, xj) onto {|xj - xi| <= alpha}.

    The pair moves symmetrically: both coordinates shift by (|d| - alpha)/2
    toward each other when the stripe is violated, preserving xi + xj.
    """
    return _on_pair(SlopeConstraint.project, xi, xj, alpha)


def intrepid_slope_pair(xi: float, xj: float, alpha: float):
    """Overshooting counterpart of :func:`project_slope_pair`.

    Inside the stripe: identity.  Up to one stripe half-width outside:
    reflection into the near half.  Farther out: jump to the midline
    xi = xj.
    """
    return _on_pair(SlopeConstraint.intrepid, xi, xj, alpha)


def project_slope_pair_nonconvex(xi: float, xj: float, alpha: float, beta: float):
    """Project (xi, xj) onto {beta <= |xj - xi| <= alpha}.

    The set is a union of two stripes.  Points in the forbidden middle band
    go to the nearer stripe; the tie xi = xj resolves to the upward branch
    xj - xi = +beta.
    """
    return _on_pair(SlopeConstraint.project, xi, xj, alpha, beta)


def intrepid_slope_pair_nonconvex(xi: float, xj: float, alpha: float, beta: float):
    """Overshooting counterpart of :func:`project_slope_pair_nonconvex`.

    Within half a stripe width of a violated bound the point reflects across
    that bound; farther away it jumps to the midline of the nearer branch,
    |xj - xi| = (alpha + beta)/2.  Case boundaries follow the first-match
    order of the defining formula; the tie xi = xj lands on the downward
    branch.
    """
    return _on_pair(SlopeConstraint.intrepid, xi, xj, alpha, beta)


def project_slope_parity(x, bounds: SlopeBounds, parity: str) -> np.ndarray:
    """Project onto the intersection of all slope stripes of one parity.

    parity "odd" couples pairs (0,1), (2,3), ...; "even" couples (1,2),
    (3,4), ...  The pairs are coordinate-disjoint, so the pairwise formula
    projects onto the intersection exactly.  Convex bounds only; use the
    constraint class for bounds with a minimum-slope floor.
    """
    if not bounds.convex:
        raise InvalidSpecError(
            "project_slope_parity handles convex bounds only "
            "(got beta; use SlopeConstraint.project)"
        )
    x = np.asarray(x, dtype=float)
    return SlopeConstraint(bounds, parity, x.size).project(x)


def _check_curvature_args(x, i, bounds, bp):
    x = np.asarray(x, dtype=float)
    n = x.size
    if bp.n != n:
        raise InvalidSpecError("breakpoints and profile lengths differ")
    if bounds.gamma.size != n - 2:
        raise InvalidSpecError("curvature bounds must have length n - 2")
    if not 0 <= i <= n - 3:
        raise InvalidSpecError(f"curvature index {i} out of range for n = {n}")
    return x


def _triple_weights(bounds, bp):
    t0, t1 = bp.tau[:-1], bp.tau[1:]
    t01 = t0 + t1
    return t0, t1, t01, bounds.delta * t0 * t1, bounds.gamma * t0 * t1, t0 * t0 + t1 * t1 + t01**2


def _on_triple(op, x, i, bounds, bp):
    # a one-triple constraint on x[i : i + 3]; its tau is bp.tau[i : i + 2] bitwise
    x = _check_curvature_args(x, i, bounds, bp)
    triple = CurvatureConstraint(
        CurvatureBounds(bounds.gamma[i : i + 1], bounds.delta[i : i + 1]),
        Breakpoints(bp.t[i : i + 3]),
        1,
    )
    out = x.copy()
    out[i : i + 3] = op(triple, x[i : i + 3])
    return out


def project_curvature_single(x, i: int, bounds: CurvatureBounds, bp: Breakpoints) -> np.ndarray:
    """Project onto one curvature constraint (indices i, i+1, i+2).

    The set is the slab delta_i tau_i tau_{i+1} <= <u, x> <= gamma_i tau_i
    tau_{i+1} for u = tau_{i+1} e_i - (tau_i + tau_{i+1}) e_{i+1}
    + tau_i e_{i+2}; the projection moves x along u.
    """
    return _on_triple(CurvatureConstraint.project, x, i, bounds, bp)


def intrepid_curvature_single(x, i: int, bounds: CurvatureBounds, bp: Breakpoints) -> np.ndarray:
    """Overshooting counterpart of :func:`project_curvature_single`.

    Reflects across the violated slab face while the reflection stays in the
    near half of the slab; beyond that it jumps to the midline (the slab of
    zero width at (delta + gamma)/2 tau_i tau_{i+1}).
    """
    return _on_triple(CurvatureConstraint.intrepid, x, i, bounds, bp)


def project_curvature_block(x, block: int, bounds: CurvatureBounds, bp: Breakpoints) -> np.ndarray:
    """Project onto the intersection of curvature constraints i = block-1,
    block+2, block+5, ... (block in {1, 2, 3}).

    Every third triple is coordinate-disjoint, so the per-triple projections
    combine into the exact projection onto the block intersection.
    """
    return CurvatureConstraint(bounds, bp, block).project(x)


# ---------------------------------------------------------------------------
# profile kernel: the fused monitor of one problem's six sets


_CANONICAL_TAGS = ("Interp", "SlopeEven", "SlopeOdd", "Curv1", "Curv2", "Curv3")


class ProfileKernel:
    """The fused proximity monitor of one problem's six profile sets.

    `probgen.build_constraint_sets` builds one from all four specs and makes
    the six constraints on it with `constraint_sets`, the only place that
    sets a constraint's `kernel`.  `perm` lists the even-parity differences,
    then the odd; `weights` holds the curvature weights over all triples.

    The arrays are computed on first use and then kept.  Generating and
    saving a problem uses none of them, and a problem sent to a pool worker
    pickles as its specs.  The kernel does not refer back to its
    constraints: a reference cycle would leave every loaded problem to the
    cyclic garbage collector, and memory would grow from run to run.
    """

    def __init__(self, n, interp, slope, curvature, bp):
        self.n = n
        self.interp = interp
        self.slope = slope
        self.curvature = curvature
        self.bp = bp

    @cached_property
    def perm(self):
        return np.concatenate([np.arange(1, self.n - 1, 2), np.arange(0, self.n - 1, 2)])

    @cached_property
    def weights(self):
        """t0 = tau_i, t1 = tau_{i+1}, t0 + t1, lo, hi and ||u||^2 over all n-2 triples."""
        return _triple_weights(self.curvature, self.bp)

    def constraint_sets(self) -> list:
        """The six sets on this kernel, in canonical order."""
        n = self.n
        sets = [
            InterpolationConstraint(self.interp, n),
            SlopeConstraint(self.slope, "even", n),
            SlopeConstraint(self.slope, "odd", n),
            *(CurvatureConstraint(self.curvature, self.bp, b) for b in (1, 2, 3)),
        ]
        for c in sets:
            c.kernel = self
        return sets

    def owns(self, sets) -> bool:
        """True if `sets` is this kernel's six constraints in canonical order."""
        return len(sets) == len(_CANONICAL_TAGS) and all(
            getattr(c, "kernel", None) is self and c.tag == tag
            for c, tag in zip(sets, _CANONICAL_TAGS)
        )

    def proximity2(self, x) -> float:
        """Sum of squared distances from x to the six sets, in one pass.

        Bitwise equal to summing `c.residual(x) ** 2` over the six sets in
        canonical order: each distance is rounded to a float as the
        constraint's `residual` rounds it, slope dots run on contiguous
        slices, and a curvature block sums its every-third-triple slice.
        """
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):  # as the first set, Interp, would report it
            raise InvalidSpecError(f"Interp: expected shape ({self.n},), got {x.shape}")
        viol = _pair_violation(x[1:] - x[:-1], self.slope.alpha, self.slope.beta)[self.perm]
        t0, t1, t01, lo, hi, unorm2 = self.weights
        terms = _curvature_terms(t1 * x[:-2] - t01 * x[1:-1] + t0 * x[2:], lo, hi, unorm2)
        k = (self.n - 1) // 2  # even-parity differences
        r = (
            _interp_residual(x, self.interp),
            _slope_residual(viol[:k]),
            _slope_residual(viol[k:]),
            _curvature_residual(terms[0::3]),
            _curvature_residual(terms[1::3]),
            _curvature_residual(terms[2::3]),
        )
        return float(sum(ri ** 2 for ri in r))


# ---------------------------------------------------------------------------
# constraint-set objects
#
# A Constraint bundles a projector with its intrepid companion and a cheap
# closed-form residual; a set without an intrepid operator of its own uses
# its projector.  The plain algorithms call `project`, the overshooting ones
# `intrepid`.  The profile constraints check the shape at these public
# methods.  A slope or curvature set computes the bounds and weights of its
# pairs or triples from its own spec on first use and keeps them; `_move`
# applies a target map (layout in the module docstring).


class Constraint:
    tag = "?"
    is_affine = False
    kernel = None  # the shared ProfileKernel, set by ProfileKernel.constraint_sets

    def __init__(self, n: int):
        self.n = int(n)

    def _check(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise InvalidSpecError(f"{self.tag}: expected shape ({self.n},), got {x.shape}")
        return x

    def project(self, x) -> np.ndarray:
        raise NotImplementedError

    def intrepid(self, x) -> np.ndarray:
        return self.project(x)

    def residual(self, x) -> float:
        return float(np.linalg.norm(self._check(x) - self.project(x)))

    def contains(self, x, tol: float = 1e-9) -> bool:
        return self.residual(x) <= tol


class InterpolationConstraint(Constraint):
    """Affine set {x : x[i] = y_i on spec.indices}; endpoints must be pinned."""

    tag = "Interp"
    is_affine = True

    def __init__(self, spec: InterpolationSpec, n: int):
        super().__init__(n)
        if spec.indices[-1] >= n:
            raise InvalidSpecError("interpolation index out of range")
        if spec.indices[0] != 0 or spec.indices[-1] != n - 1:
            raise InvalidSpecError("interpolation must pin both endpoints (indices 0 and n-1)")
        self.spec = spec

    def project(self, x):
        return project_interpolation(self._check(x), self.spec)

    def residual(self, x):
        return _interp_residual(self._check(x), self.spec)


class SlopeConstraint(Constraint):
    """Intersection of the slope pair sets of one parity ("odd" or "even")."""

    def __init__(self, bounds: SlopeBounds, parity: str, n: int):
        super().__init__(n)
        if bounds.alpha.size != n - 1:
            raise InvalidSpecError("alpha must have length n - 1")
        if parity not in ("odd", "even"):
            raise InvalidSpecError(f"parity must be 'odd' or 'even', got {parity!r}")
        self.bounds = bounds
        self.parity = parity
        self.tag = "SlopeOdd" if parity == "odd" else "SlopeEven"
        self._off = 0 if parity == "odd" else 1

    @property
    def convex(self) -> bool:
        return self.bounds.convex

    @cached_property
    def _pair_bounds(self):
        """alpha and beta (None if convex) of this parity's pairs, contiguous."""
        alpha, beta = self.bounds.alpha, self.bounds.beta
        return alpha[self._off :: 2].copy(), None if beta is None else beta[self._off :: 2].copy()

    @cached_property
    def _dstar(self):
        """The exact and the intrepid target map d -> d* of this parity's pairs."""
        # partials, not lambdas: problems are pickled to pool workers
        alpha, beta = self._pair_bounds
        if beta is None:
            return partial(_clip, lo=-alpha, hi=alpha), partial(_stripe_dstar_intrepid, alpha=alpha)
        return (
            partial(_band_dstar, alpha=alpha, beta=beta),
            partial(_band_dstar_from, table=_band_intrepid_table(alpha, beta)),
        )

    def _pairs(self, x):
        k = self._pair_bounds[0].size
        return x[self._off : self._off + 2 * k].reshape(k, 2)

    def _move(self, x, dstar):
        out = self._check(x).copy()
        pairs = self._pairs(out)
        d = pairs[:, 1] - pairs[:, 0]
        h = 0.5 * (dstar(d) - d)
        pairs[:, 0] -= h
        pairs[:, 1] += h
        return out

    def project(self, x):
        return self._move(x, self._dstar[0])

    def intrepid(self, x):
        return self._move(x, self._dstar[1])

    def residual(self, x):
        pairs = self._pairs(self._check(x))
        return _slope_residual(_pair_violation(pairs[:, 1] - pairs[:, 0], *self._pair_bounds))


class CurvatureConstraint(Constraint):
    """Intersection of curvature triples i = block-1, block+2, ... (block 1..3)."""

    def __init__(self, bounds: CurvatureBounds, bp: Breakpoints, block: int):
        super().__init__(bp.n)
        if block not in (1, 2, 3):
            raise InvalidSpecError(f"block must be 1, 2, or 3, got {block}")
        if bounds.gamma.size != bp.n - 2:
            raise InvalidSpecError("curvature bounds must have length n - 2")
        self.bounds = bounds
        self.bp = bp
        self.block = block
        self.tag = f"Curv{block}"

    @cached_property
    def _weights(self):
        """t0, t1, t0 + t1, lo, hi and ||u||^2 of this block's triples, contiguous."""
        return tuple(w[self.block - 1 :: 3].copy() for w in _triple_weights(self.bounds, self.bp))

    @cached_property
    def _sstar(self):
        """The exact and the intrepid target map s -> s* of this block's triples."""
        lo, hi = self._weights[3:5]
        return (
            partial(_clip, lo=lo, hi=hi),
            partial(_interval_sstar_from, table=_interval_intrepid_table(lo, hi)),
        )

    def _triples_and_s(self, x):
        t0, t1, t01 = self._weights[:3]
        k = t0.size
        triples = x[self.block - 1 : self.block - 1 + 3 * k].reshape(k, 3)
        return triples, t1 * triples[:, 0] - t01 * triples[:, 1] + t0 * triples[:, 2]

    def _move(self, x, sstar):
        out = self._check(x).copy()
        triples, s = self._triples_and_s(out)
        t0, t1, t01, _, _, unorm2 = self._weights
        coef = (sstar(s) - s) / unorm2
        triples[:, 0] += coef * t1
        triples[:, 1] -= coef * t01
        triples[:, 2] += coef * t0
        return out

    def project(self, x):
        return self._move(x, self._sstar[0])

    def intrepid(self, x):
        return self._move(x, self._sstar[1])

    def residual(self, x):
        _, s = self._triples_and_s(self._check(x))
        lo, hi, unorm2 = self._weights[3:]
        return _curvature_residual(_curvature_terms(s, lo, hi, unorm2))
