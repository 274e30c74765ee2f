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
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    "residual",
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


def _stripe_dstar(d, alpha):
    return np.clip(d, -alpha, alpha)


def _stripe_dstar_intrepid(d, alpha):
    ad = np.abs(d)
    reflect = np.sign(d) * 2.0 * alpha - d
    return np.where(ad <= alpha, d, np.where(ad < 2.0 * alpha, reflect, 0.0))


def _band_dstar(d, alpha, beta):
    # exact projection onto {beta <= |d| <= alpha}; the tie d = 0 goes to the
    # upward branch +beta
    ad = np.abs(d)
    up = np.where(d >= 0.0, 1.0, -1.0)
    return np.where(ad < beta, up * beta, np.where(ad <= alpha, d, np.sign(d) * alpha))


def _band_dstar_intrepid(d, alpha, beta):
    # first matching case wins; at every boundary overlap the adjacent
    # formulas agree, and the two midline-jump cases around d = 0 are
    # reachable only when 3*beta > alpha
    mid = 0.5 * (alpha + beta)
    conds = [
        d < 0.5 * (beta - 3.0 * alpha),
        d < -alpha,
        d <= -beta,
        d <= np.minimum(0.0, 0.5 * (alpha - 3.0 * beta)),
        d <= 0.0,
        d <= 0.5 * (3.0 * beta - alpha),
        d < beta,
        d <= alpha,
        d <= 0.5 * (3.0 * alpha - beta),
    ]
    choices = [
        -mid,
        -2.0 * alpha - d,
        d,
        -2.0 * beta - d,
        -mid,
        mid,
        2.0 * beta - d,
        d,
        2.0 * alpha - d,
    ]
    with np.errstate(invalid="ignore"):
        return np.select(conds, choices, default=mid)


def _interval_sstar_intrepid(s, lo, hi):
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    return np.select(
        [s < lo - half, s < lo, s <= hi, s <= hi + half],
        [mid, 2.0 * lo - s, s, 2.0 * hi - s],
        default=mid,
    )


def _band_distance(d, alpha, beta):
    # distance from d to {beta <= |d| <= alpha} along the d axis
    ad = np.abs(d)
    with np.errstate(invalid="ignore"):
        over = np.where(ad > alpha, ad - alpha, 0.0)
    return np.where(ad < beta, beta - ad, over)


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


def project_slope_pair(xi: float, xj: float, alpha: float):
    """Project (xi, xj) onto {|xj - xi| <= alpha}.

    The pair moves symmetrically: both coordinates shift by (|d| - alpha)/2
    toward each other when the stripe is violated, preserving xi + xj.
    """
    if not alpha > 0:
        raise InvalidSpecError("alpha must be positive")
    d = xj - xi
    h = 0.5 * (float(_stripe_dstar(d, alpha)) - d)
    return xi - h, xj + h


def intrepid_slope_pair(xi: float, xj: float, alpha: float):
    """Overshooting counterpart of :func:`project_slope_pair`.

    Inside the stripe: identity.  Up to one stripe half-width outside:
    reflection into the near half.  Farther out: jump to the midline
    xi = xj.
    """
    if not alpha > 0:
        raise InvalidSpecError("alpha must be positive")
    d = xj - xi
    h = 0.5 * (float(_stripe_dstar_intrepid(d, alpha)) - d)
    return xi - h, xj + h


def project_slope_pair_nonconvex(xi: float, xj: float, alpha: float, beta: float):
    """Project (xi, xj) onto {beta <= |xj - xi| <= alpha}.

    The set is a union of two stripes.  Points in the forbidden middle band
    go to the nearer stripe; the tie xi = xj resolves to the upward branch
    xj - xi = +beta.
    """
    if not (alpha > 0 and 0 <= beta < alpha):
        raise InvalidSpecError("need alpha > 0 and 0 <= beta < alpha")
    d = xj - xi
    h = 0.5 * (float(_band_dstar(d, alpha, beta)) - d)
    return xi - h, xj + h


def intrepid_slope_pair_nonconvex(xi: float, xj: float, alpha: float, beta: float):
    """Overshooting counterpart of :func:`project_slope_pair_nonconvex`.

    Within half a stripe width of a violated bound the point reflects across
    that bound; farther away it jumps to the midline of the nearer branch,
    |xj - xi| = (alpha + beta)/2.  Case boundaries follow the first-match
    order of the defining formula; the tie xi = xj lands on the downward
    branch.
    """
    if not (alpha > 0 and 0 <= beta < alpha):
        raise InvalidSpecError("need alpha > 0 and 0 <= beta < alpha")
    d = xj - xi
    h = 0.5 * (float(_band_dstar_intrepid(d, alpha, beta)) - d)
    return xi - h, xj + h


def _parity_indices(n: int, parity: str) -> np.ndarray:
    if parity not in ("odd", "even"):
        raise InvalidSpecError(f"parity must be 'odd' or 'even', got {parity!r}")
    offset = 0 if parity == "odd" else 1
    return np.arange(offset, n - 1, 2)


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
    return SlopeConstraint(bounds, parity, x.size, "exact").project(x)


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


def _curvature_update(x, idx, bounds, bp, sstar_fn):
    t0 = bp.tau[idx]
    t1 = bp.tau[idx + 1]
    s = t1 * x[idx] - (t0 + t1) * x[idx + 1] + t0 * x[idx + 2]
    tt = t0 * t1
    sstar = sstar_fn(s, bounds.delta[idx] * tt, bounds.gamma[idx] * tt)
    coef = (sstar - s) / (t0 * t0 + t1 * t1 + (t0 + t1) ** 2)
    out = x.copy()
    out[idx] += coef * t1
    out[idx + 1] -= coef * (t0 + t1)
    out[idx + 2] += coef * t0
    return out


def project_curvature_single(x, i: int, bounds: CurvatureBounds, bp: Breakpoints) -> np.ndarray:
    """Project onto one curvature constraint (indices i, i+1, i+2).

    The set is the slab delta_i tau_i tau_{i+1} <= <u, x> <= gamma_i tau_i
    tau_{i+1} for u = tau_{i+1} e_i - (tau_i + tau_{i+1}) e_{i+1}
    + tau_i e_{i+2}; the projection moves x along u.
    """
    x = _check_curvature_args(x, i, bounds, bp)
    return _curvature_update(x, np.array([i]), bounds, bp, np.clip)


def intrepid_curvature_single(x, i: int, bounds: CurvatureBounds, bp: Breakpoints) -> np.ndarray:
    """Overshooting counterpart of :func:`project_curvature_single`.

    Reflects across the violated slab face while the reflection stays in the
    near half of the slab; beyond that it jumps to the midline (the slab of
    zero width at (delta + gamma)/2 tau_i tau_{i+1}).
    """
    x = _check_curvature_args(x, i, bounds, bp)
    return _curvature_update(x, np.array([i]), bounds, bp, _interval_sstar_intrepid)


def project_curvature_block(x, block: int, bounds: CurvatureBounds, bp: Breakpoints) -> np.ndarray:
    """Project onto the intersection of curvature constraints i = block-1,
    block+2, block+5, ... (block in {1, 2, 3}).

    Every third triple is coordinate-disjoint, so the per-triple projections
    combine into the exact projection onto the block intersection.
    """
    if block not in (1, 2, 3):
        raise InvalidSpecError(f"block must be 1, 2, or 3, got {block}")
    x = np.asarray(x, dtype=float)
    if bp.n != x.size:
        raise InvalidSpecError("breakpoints and profile lengths differ")
    if bounds.gamma.size != x.size - 2:
        raise InvalidSpecError("curvature bounds must have length n - 2")
    idx = np.arange(block - 1, x.size - 2, 3)
    if idx.size == 0:
        return x.copy()
    return _curvature_update(x, idx, bounds, bp, np.clip)


def residual(x, constraint) -> float:
    """Distance from x to the constraint set (via its exact projector)."""
    return constraint.residual(x)


# ---------------------------------------------------------------------------
# constraint-set objects
#
# A Constraint bundles a projector with its intrepid companion and a cheap
# closed-form residual.  `mode` selects which operator `apply` uses; the
# overshooting algorithm variants call `apply`, plain ones call `project`.


class Constraint:
    tag = "?"
    is_affine = False

    def __init__(self, n: int, mode: str = "intrepid"):
        if mode not in ("exact", "intrepid"):
            raise InvalidSpecError(f"mode must be 'exact' or 'intrepid', got {mode!r}")
        self.n = int(n)
        self.mode = mode

    def _check(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise InvalidSpecError(f"{self.tag}: expected shape ({self.n},), got {x.shape}")
        return x

    def project(self, x) -> np.ndarray:
        raise NotImplementedError

    def intrepid(self, x) -> np.ndarray:
        return self.project(x)

    def apply(self, x) -> np.ndarray:
        if self.mode == "intrepid":
            return self.intrepid(x)
        return self.project(x)

    def residual(self, x) -> float:
        return float(np.linalg.norm(self._check(x) - self.project(x)))

    def contains(self, x, tol: float = 1e-9) -> bool:
        return self.residual(x) <= tol


class InterpolationConstraint(Constraint):
    """Affine set {x : x[i] = y_i on spec.indices}; endpoints must be pinned."""

    tag = "Interp"
    is_affine = True

    def __init__(self, spec: InterpolationSpec, n: int, mode: str = "intrepid"):
        super().__init__(n, mode)
        if spec.indices[-1] >= n:
            raise InvalidSpecError("interpolation index out of range")
        if spec.indices[0] != 0 or spec.indices[-1] != n - 1:
            raise InvalidSpecError("interpolation must pin both endpoints (indices 0 and n-1)")
        self.spec = spec

    def project(self, x):
        return project_interpolation(self._check(x), self.spec)

    def residual(self, x):
        x = self._check(x)
        return float(np.linalg.norm(x[self.spec.indices] - self.spec.values))


class SlopeConstraint(Constraint):
    """Intersection of the slope pair sets of one parity ("odd" or "even")."""

    def __init__(self, bounds: SlopeBounds, parity: str, n: int, mode: str = "intrepid"):
        super().__init__(n, mode)
        if bounds.alpha.size != n - 1:
            raise InvalidSpecError("alpha must have length n - 1")
        self.bounds = bounds
        self.parity = parity
        self.tag = "SlopeOdd" if parity == "odd" else "SlopeEven"
        self.idx = _parity_indices(n, parity)
        self._alpha = bounds.alpha[self.idx]
        self._beta = None if bounds.beta is None else bounds.beta[self.idx]

    @property
    def convex(self) -> bool:
        return self._beta is None

    def _move(self, x, dstar_fn):
        x = self._check(x)
        idx = self.idx
        d = x[idx + 1] - x[idx]
        if self._beta is None:
            h = 0.5 * (dstar_fn(d, self._alpha) - d)
        else:
            h = 0.5 * (dstar_fn(d, self._alpha, self._beta) - d)
        out = x.copy()
        out[idx] -= h
        out[idx + 1] += h
        return out

    def project(self, x):
        return self._move(x, _stripe_dstar if self._beta is None else _band_dstar)

    def intrepid(self, x):
        return self._move(
            x, _stripe_dstar_intrepid if self._beta is None else _band_dstar_intrepid
        )

    def residual(self, x):
        x = self._check(x)
        d = x[self.idx + 1] - x[self.idx]
        if self._beta is None:
            with np.errstate(invalid="ignore"):
                viol = np.maximum(np.abs(d) - self._alpha, 0.0)
        else:
            viol = _band_distance(d, self._alpha, self._beta)
        # each violated pair moves by viol/2 in two coordinates
        return float(np.sqrt(0.5 * np.dot(viol, viol)))


class CurvatureConstraint(Constraint):
    """Intersection of curvature triples i = block-1, block+2, ... (block 1..3)."""

    def __init__(
        self,
        bounds: CurvatureBounds,
        bp: Breakpoints,
        block: int,
        mode: str = "intrepid",
    ):
        super().__init__(bp.n, mode)
        if block not in (1, 2, 3):
            raise InvalidSpecError(f"block must be 1, 2, or 3, got {block}")
        if bounds.gamma.size != bp.n - 2:
            raise InvalidSpecError("curvature bounds must have length n - 2")
        self.bounds = bounds
        self.bp = bp
        self.block = block
        self.tag = f"Curv{block}"
        idx = np.arange(block - 1, bp.n - 2, 3)
        self.idx = idx
        t0 = bp.tau[idx]
        t1 = bp.tau[idx + 1]
        self._t0 = t0
        self._t1 = t1
        self._lo = bounds.delta[idx] * t0 * t1
        self._hi = bounds.gamma[idx] * t0 * t1
        self._unorm2 = t0 * t0 + t1 * t1 + (t0 + t1) ** 2

    def _move(self, x, sstar_fn):
        x = self._check(x)
        idx = self.idx
        if idx.size == 0:
            return x.copy()
        s = self._t1 * x[idx] - (self._t0 + self._t1) * x[idx + 1] + self._t0 * x[idx + 2]
        coef = (sstar_fn(s, self._lo, self._hi) - s) / self._unorm2
        out = x.copy()
        out[idx] += coef * self._t1
        out[idx + 1] -= coef * (self._t0 + self._t1)
        out[idx + 2] += coef * self._t0
        return out

    def project(self, x):
        return self._move(x, np.clip)

    def intrepid(self, x):
        return self._move(x, _interval_sstar_intrepid)

    def residual(self, x):
        x = self._check(x)
        idx = self.idx
        if idx.size == 0:
            return 0.0
        s = self._t1 * x[idx] - (self._t0 + self._t1) * x[idx + 1] + self._t0 * x[idx + 2]
        gap = s - np.clip(s, self._lo, self._hi)
        return float(np.sqrt(np.sum(gap * gap / self._unorm2)))
