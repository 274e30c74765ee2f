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

Every slope, curvature and slab map is an interval map: it clips (project)
or reflects (intrepid) one scalar onto an interval [lo, hi].  A slope stripe
is the interval [-alpha, alpha] of the difference d, a curvature triple (or
a slab) the interval [lo, hi] of an inner product s = <u, x>, and the
nonconvex band beta <= |d| <= alpha is its mirror: the interval [beta,
alpha] of |d|, put back on d's side.  Every residual is the signed gap
s - clip(s, lo, hi).

Indices are 0-based throughout: slope pair i couples (x_i, x_{i+1}) over
interval length tau_i = t_{i+1} - t_i, curvature index i couples
(x_i, x_{i+1}, x_{i+2}).

A slope or curvature set needs no index arrays: the k pairs of one slope
parity tile x[off : off + 2k] (off = 0 for "odd", 1 for "even") and the k
triples of curvature block b tile x[b-1 : b-1 + 3k], so the set reads and
updates its pairs or triples as the rows of a (k, 2) or (k, 3) view.  Each
set computes the bounds and weights of its rows from its own spec on first
use.  The six sets of one problem share a :class:`ProfileKernel` that
holds their fused monitor and their fused projections, both from one pass
over all n-1 differences and n-2 triples.  `score` is that pass: the
differences d (and |d| for the band), the inner products s and their clips
are computed once, the gaps come from value minus clip and the moves from
clip minus value.  It returns the monitor at once, exactly (bitwise) the
sum of the six sets' squared residuals in canonical order: each residual
is rounded to a float as the set's own `residual` rounds it, the slope
gaps are permuted so each parity's dot product runs on a contiguous slice
(np.dot on a strided view rounds differently), and each curvature block
sums its every-third-triple slice, which np.add.reduce adds as it adds a
contiguous copy; a block none of whose triples binds has residual 0.0 and
is left out (see `score`).  It returns the moves on request, for a point
that may or may not be stepped from: the six projections as the rows of a
(6, n) array (`project_each`), every pair's shift h and every triple's move
coef * u computed once, with the helpers the sets' own operators use, and
scattered into its set's row; or one set's row alone (`rows.row(i)`), from
that set's pairs or triples of the same pass.  All of that arithmetic is
elementwise, so each row is bitwise the set's `project`.  `project_rows`
projects a (6, n) product point row i onto set i with the same pass, run on
the differences and triples gathered from the rows through the same
scatter positions the moves go back through.

Problems of one slope kind can share one long profile, laid end to end
(`lay_end_to_end`): the fused passes run on it unchanged, since every move
is elementwise, and the monitor takes each problem's sums on its own
slices, so a batch gives each problem the numbers it gets alone.
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
    "ProfileKernel",
    "kernel_of",
    "lay_end_to_end",
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
# interval maps in difference space
#
# A slope operator moves the pair (x_i, x_{i+1}) only along (-1, 1)/sqrt(2),
# preserving x_i + x_{i+1}.  It is therefore determined by how it maps
# d = x_{i+1} - x_i to a target d*; the pair update is
# (x_i - h, x_{i+1} + h) with h = (d* - d)/2.  The same applies to curvature
# via the inner product s = tau_{i+1} x_i - (tau_i + tau_{i+1}) x_{i+1}
# + tau_i x_{i+2}.
#
# Every operator applies one interval map, `_clip` to project and
# `_intrepid_map` for intrepid, on one interval [lo, hi] (module docstring):
# a convex slope pair on d in [-alpha, alpha], a nonconvex one on |d| in
# [beta, alpha] (`_slope_shift` puts the image back on d's side), a
# curvature triple on s.  The intrepid map is piecewise and the first
# matching case wins; its breakpoints depend on the bounds only, so a
# "table" of them is built once per set.


def _clip(v, lo, hi):
    # np.clip without its Python wrapper; same values
    return np.minimum(np.maximum(v, lo), hi)


def _gap(s, lo, hi):
    # signed distance from s to [lo, hi]
    return s - _clip(s, lo, hi)


def _intrepid_table(lo, hi):
    half = 0.5 * (hi - lo)
    with np.errstate(invalid="ignore"):  # lo = -inf, hi = inf: a NaN midpoint no finite s selects
        mid = 0.5 * (lo + hi)
    return lo - half, lo, hi, hi + half, mid, 2.0 * lo, 2.0 * hi


def _intrepid_map(s, table):
    far_lo, lo, hi, far_hi, mid, two_lo, two_hi = table
    inner = np.where(s <= hi, s, np.where(s <= far_hi, two_hi - s, mid))
    return np.where(s < far_lo, mid, np.where(s < lo, two_lo - s, inner))


def _slope_interval(bounds):
    # lo and hi of every difference's interval: on d if convex, on |d| if not
    alpha = bounds.alpha
    return (-alpha if bounds.convex else bounds.beta), alpha


def _slope_shift(d, image, convex, up):
    # h of pairs whose differences d map to `image`: (x_i, x_{i+1}) moves to
    # (x_i - h, x_{i+1} + h).  The band maps |d|, so its image goes back on
    # d's side; the tie d = 0 (either sign) takes the upward side if `up`
    if not convex:
        image = np.where(d >= 0.0 if up else d > 0.0, image, -image)
    return 0.5 * (image - d)


def _inner(w, a, b, c):
    # s = <u, (a, b, c)> of each triple, u = (tau_{i+1}, -(tau_i + tau_{i+1}), tau_i)
    t0, t1, t01 = w[:3]
    return t1 * a - t01 * b + t0 * c


def _triple_moves(shift, w):
    # the (k, 3) moves coef * u of triples whose inner products move by shift = s* - s,
    # coef = shift/||u||^2; a + coef * (-(t0 + t1)) is a - coef * (t0 + t1) bitwise,
    # signed zeros included
    return (shift / w[5])[:, None] * w[6]


def _slope_residual(gap):
    # each violated pair moves by gap/2 in two coordinates; `gap` must be
    # contiguous, since np.dot on a strided view rounds differently
    return math.sqrt(0.5 * np.dot(gap, gap))


def _curvature_terms(gap, unorm2):
    return gap * gap / unorm2


def _curvature_residual(terms):
    # np.sum without its Python wrapper; a strided slice sums as its copy does
    return math.sqrt(np.add.reduce(terms))


def _norm(a) -> float:
    # np.linalg.norm of a 1-D array, without its wrapper: numpy computes it as
    # sqrt(a.dot(a)), so the value is the same bitwise
    return math.sqrt(np.dot(a, a))


def _interp_residual(x, spec):
    return _norm(x[spec.indices] - spec.values)


def _product_point(parts, m):
    # parts as an (m, n) float array: a point of the product of m sets
    parts = np.asarray(parts, dtype=float)
    if parts.ndim != 2 or len(parts) != m:
        raise InvalidSpecError(f"expected a product point of {m} rows, got shape {parts.shape}")
    return parts


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


def _triple_weights(bounds, bp):
    # t0, t1, t0 + t1, lo, hi, ||u||^2 and the rows u over all n-2 triples
    t0, t1 = bp.tau[:-1], bp.tau[1:]
    t01 = t0 + t1
    lo, hi = bounds.delta * t0 * t1, bounds.gamma * t0 * t1
    return t0, t1, t01, lo, hi, t0 * t0 + t1 * t1 + t01**2, np.stack([t1, -t01, t0], axis=1)


# ---------------------------------------------------------------------------
# profile kernel: the fused monitor and projections of one problem's six sets


_CANONICAL_TAGS = ("Interp", "SlopeEven", "SlopeOdd", "Curv1", "Curv2", "Curv3")


class _Segmented:
    """A per-problem scalar of a profile is taken on its segment's own columns (`segments`).

    One segment takes no view and no copy: they cost a problem run alone 1-13%.
    """

    def each(self, fn, *arrays) -> list:
        """[fn(*slices)] per segment, slicing each array's last axis; one segment: the arrays."""
        if len(self.segments) == 1:
            return [fn(*arrays)]
        return [fn(*[a[..., sl] for a in arrays]) for sl in self.segments]

    def joined(self, parts, base):
        """A copy of base with each segment's columns set to its part; one segment: its part."""
        if len(self.segments) == 1:
            return parts[0]
        out = base.copy()
        for sl, part in zip(self.segments, parts):
            out[..., sl] = part
        return out


class ProfileKernel(_Segmented):
    """The fused monitor and projections of one problem's six profile sets.

    `probgen.build_constraint_sets` builds one from all four specs and makes
    the six constraints on it with `constraint_sets`, the only place that
    sets a constraint's `kernel`.  `perm` lists the even-parity differences,
    then the odd; `slope_interval` holds the interval of every difference,
    and `weights` the curvature weights and intervals of all triples.
    `score` computes the differences, the inner products and their clips
    once, and returns the fused monitor of one point at once and its six
    projections `project_each` on request; it is the kernel's only
    monitor entry.  The sweeps score each iterate they keep, so the
    monitor and the next step share one pass (`metrics._Scored`).
    `project_rows` runs the projection half on a product point, row i onto
    set i, for `product.ProductSet`.  `kernel_of` resolves a set list to
    its kernel, or to a per-set stand-in with the same methods.  The size
    n is the stations' (`bp.n`).

    A kernel from `lay_end_to_end` holds several problems, each a segment
    of columns (`spans`, `segments`): the monitor gives one sum per
    segment, taken on that segment's own slices, as `each` takes a step's
    scalars.  A problem's own kernel has one segment.

    The arrays are computed on first use and then kept.  Generating and
    saving a problem uses none of them, and the kernel pickles as its specs
    alone, so a problem sent to a pool worker does not carry the arrays the
    parent computed.  The kernel does not refer back to its constraints: a
    reference cycle would leave every loaded problem to the cyclic garbage
    collector, and memory would grow from run to run.
    """

    def __init__(self, interp, slope, curvature, bp, spans=None):
        self.n = bp.n
        self.interp = interp
        self.slope = slope
        self.curvature = curvature
        self.bp = bp
        self.spans = ((0, self.n),) if spans is None else tuple(spans)

    def __reduce__(self):
        return ProfileKernel, (self.interp, self.slope, self.curvature, self.bp, self.spans)

    @cached_property
    def segments(self):
        """The columns of each problem in this profile, as slices (one for one problem)."""
        return [slice(o, o + m) for o, m in self.spans]

    @cached_property
    def perm(self):
        """Each segment's even-parity differences, then its odd ones."""
        return np.concatenate(
            [np.arange(o + first, o + m - 1, 2) for o, m in self.spans for first in (1, 0)]
        )

    @cached_property
    def _plan(self):
        # the monitor's slices, built once per layout.  Per segment: its pinned
        # entries, its even and odd gaps in perm order, and its three curvature
        # blocks, each as (its bincount bucket, its every-third-triple slice).
        # `key` buckets each triple by segment * 3 + block (pad triples in the
        # last bucket, which no segment reads), and `always` lists the triples
        # whose ||u||^2 underflowed to 0: their 0 * 0 / 0 is NaN, so they bind
        plan, key, e0 = [], np.full(self.n - 2, 3 * len(self.spans)), 0
        for j, (o, m) in enumerate(self.spans):
            i0, i1 = np.searchsorted(self.interp.indices, (o, o + m)).tolist()
            e1, e2 = e0 + (m - 1) // 2, e0 + m - 1
            c1 = o + m - 2
            key[o:c1] = 3 * j + np.arange(m - 2) % 3
            blocks = tuple((3 * j + b, slice(o + b, c1, 3)) for b in range(3))
            plan.append((slice(i0, i1), slice(e0, e1), slice(e1, e2), blocks))
            e0 = e2
        always = np.flatnonzero(~(self.weights[5] > 0))
        return plan, key, always if always.size else None

    @cached_property
    def slope_interval(self):
        """lo and hi of all n-1 differences (of d if convex, of |d| if not)."""
        return _slope_interval(self.slope)

    @cached_property
    def weights(self):
        """t0 = tau_i, t1 = tau_{i+1}, t0 + t1, lo, hi, ||u||^2 and u over all n-2 triples."""
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

    def _check(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):  # as the first set, Interp, would report it
            raise InvalidSpecError(f"Interp: expected shape ({self.n},), got {x.shape}")
        return x

    def _pass(self, x):
        """The arithmetic both halves of `score` share, done once.

        x, its n-1 differences d, dd = d (|d| for the band), the clip a of dd
        onto its interval, the n-2 inner products s and their clip c.
        """
        x = self._check(x)
        return (x, *self._targets(x[1:] - x[:-1], x[:-2], x[1:-1], x[2:]))

    def _targets(self, d, first, middle, last):
        # `_pass` after x: from the differences d and the triples (first, middle, last)
        dd = d if self.slope.convex else np.abs(d)
        w = self.weights
        s = _inner(w, first, middle, last)
        return d, dd, _clip(dd, *self.slope_interval), s, _clip(s, *w[3:5])

    def _proximity2_from(self, x, dd, a, s, c) -> list:
        # one sum per segment, from its own slices: each distance is rounded to
        # a float as the set's `residual` rounds it, each dot and sum runs on
        # what it runs on for that problem alone, and `sum` adds the squares
        # in canonical order.  A curvature block with no binding triple is left
        # out (see `score`): `hits` counts each block's gaps g != 0 (NaN too)
        plan, key, always = self._plan
        gap = (dd - a)[self.perm]
        pinned = x[self.interp.indices] - self.interp.values
        g = s - c
        if len(plan) == 1:
            hits = (always is not None or np.count_nonzero(g),) * 3
        else:
            binds = g != 0
            if always is not None:
                binds[always] = True
            hits = np.bincount(key[binds], minlength=3 * len(plan)).tolist()
        terms = _curvature_terms(g, self.weights[5]) if any(hits) else None
        d2 = []
        for pin, even, odd, blocks in plan:
            squares = [_norm(pinned[pin]) ** 2, _slope_residual(gap[even]) ** 2,
                       _slope_residual(gap[odd]) ** 2]
            for b, sl in blocks:
                if hits[b]:
                    squares.append(_curvature_residual(terms[sl]) ** 2)
            d2.append(sum(squares))  # as the residuals' own sum adds them
        return d2

    def _project_each_from(self, x, d, a, s, c) -> np.ndarray:
        out = np.empty((len(_CANONICAL_TAGS), self.n))
        out[:] = x
        return self._moved(out, d, a, s, c)

    def _moved(self, out, d, a, s, c) -> np.ndarray:
        # move row i of the (6, n) array `out`, which holds the point projected
        # onto set i, to that projection, in place; d, a, s and c are `_targets`
        # of the pairs and triples at the `scatter` positions of `out`
        out[0, self.interp.indices] = self.interp.values
        flat = out.reshape(-1)
        left, right, triples = self.scatter
        h = _slope_shift(d, a, self.slope.convex, up=True)
        flat[left] -= h
        flat[right] += h
        flat[triples] += _triple_moves(c - s, self.weights).ravel()
        return out

    def _row(self, i, x, d, a, s, c) -> np.ndarray:
        # row i of `_project_each_from` alone: x with set i's moves only, each
        # applied to its pairs or triples as the set's own `_move` applies it
        out = x.copy()
        if i == 0:
            out[self.interp.indices] = self.interp.values
        elif i < 3:
            off = 2 - i  # SlopeEven's pairs start at column 1, SlopeOdd's at 0
            h = _slope_shift(d[off::2], a[off::2], self.slope.convex, up=True)
            end = off + 2 * h.size
            out[off:end:2] -= h
            out[off + 1 : end : 2] += h
        else:
            b = i - 3
            shift = c[b::3] - s[b::3]
            triples = out[b : b + 3 * shift.size].reshape(-1, 3)
            triples += _triple_moves(shift, self._block_weights[b])
        return out

    @cached_property
    def _block_weights(self):
        # `weights` of each curvature block's every-third triples, contiguous
        return [tuple(w[b::3].copy() for w in self.weights) for b in range(3)]

    def score(self, x):
        """(d2, rows) from one pass over x; rows() is project_each(x), rows.row(i) its row i.

        d2 lists the sum of squared distances from each segment of x to the
        six sets.  For one problem it is bitwise the sum of
        `c.residual(x) ** 2` over the six sets in canonical order: each
        distance is rounded to a float as the constraint's `residual`
        rounds it, slope dots run on contiguous slices, and a curvature
        block sums its every-third-triple slice.  Each segment of a batch
        takes those same steps on its own slices.

        A curvature block runs its terms and its sum only if one of its
        triples binds: its gap g = s - c is not 0 (NaN counts, as for an
        infinite s on a side whose bound is infinite, where s == c but
        inf - inf is NaN).  Every other block's terms g * g / ||u||^2 are
        +0.0, so its residual is 0.0, and adding 0.0 to the segment's sum
        of squares, which is +0.0 or more, changes no bit.  A triple whose
        ||u||^2 underflowed to 0 always binds (0 * 0 / 0 is NaN).  A batch
        counts the binding triples of each (segment, block) with one
        bincount; a lone segment asks only whether any triple binds.

        The differences, the inner products and their clips are computed
        once; the gaps dd - a and s - c give the distances, and the targets
        (a, put back on d's side for the band) and c - s give the moves.
        The moves wait until rows is called, so a caller that scores a point
        and may step from it later keeps rows instead of passing x again;
        rows.row(i) computes set i's moves alone, as hCycP needs one
        projection.  x must not change while rows is kept.
        """
        x, d, dd, a, s, c = self._pass(x)
        rows = _Rows(self._project_each_from, x, d, a, s, c)
        return self._proximity2_from(x, dd, a, s, c), rows

    @cached_property
    def scatter(self):
        """Flat positions in project_each's (6, n) output that the moves update.

        Difference i moves x_i (first array) and x_{i+1} (second) in the
        SlopeOdd row if i is even, in the SlopeEven row if odd.  Triple i
        moves (x_i, x_{i+1}, x_{i+2}) in the row of block i % 3 + 1; the third
        array lists these in the row-major order of the (n-2, 3) moves.  No
        position occurs twice in one array.
        """
        n = self.n
        i = np.arange(n - 1)
        left = (2 - i % 2) * n + i
        i = np.arange(n - 2)
        triples = ((3 + i % 3) * n + i)[:, None] + np.arange(3)
        return left, left + 1, triples.ravel()

    def project_each(self, x) -> np.ndarray:
        """The projections of x onto the six sets, as the rows of a (6, n) array.

        The second half of `score`.  Every pair move and every triple move
        is computed once, over all n-1 differences and all n-2 triples, and
        scattered into its set's row through `scatter`.  The moves are the
        sets' own (the same helpers on the same numbers), so each row equals
        that set's `project(x)` bitwise.
        """
        x, d, _, a, s, c = self._pass(x)
        return self._project_each_from(x, d, a, s, c)

    def project_rows(self, parts) -> np.ndarray:
        """Each row i of the (6, n) array `parts` projected onto set i (onto C_1 x ... x C_6).

        `project_each`'s pass on the differences and triples read through
        `scatter`, each from the row of the set that moves it; the moves go
        back through the same positions.  Row i is `project(parts[i])` bitwise.
        """
        out = _product_point(parts, len(_CANONICAL_TAGS)).copy()
        self._check(out[0])  # the row length, reported as Interp reports it
        flat = out.reshape(-1)
        left, right, triples = self.scatter
        d, _, a, s, c = self._targets(flat[right] - flat[left], *flat[triples].reshape(-1, 3).T)
        return self._moved(out, d, a, s, c)


class _Rows(partial):
    """The deferred projections of a scored point: a partial of its source's `project_each`.

    rows() is every row; rows.row(i) is row i alone, from the same pass.
    """

    def row(self, i) -> np.ndarray:
        return self.func.__self__._row(i, *self.args)


class _PerSet(_Segmented):
    """`ProfileKernel`'s methods on any set list, computed set by set, as one segment."""

    segments = [slice(None)]

    def __init__(self, sets):
        self.sets = sets

    def project_each(self, x) -> np.ndarray:
        return np.array([c.project(x) for c in self.sets])

    def score(self, x):
        return [float(sum(c.residual(x) ** 2 for c in self.sets))], _Rows(self.project_each, x)

    def _row(self, i, x) -> np.ndarray:
        return self.sets[i].project(x)

    def project_rows(self, parts) -> np.ndarray:
        parts = _product_point(parts, len(self.sets))
        return np.array([c.project(row) for c, row in zip(self.sets, parts)])


class _SetList(tuple):
    """A fixed set list and its `kernel`, resolved once; `_SetList` of one returns it.

    `kernel` is the `ProfileKernel` that owns the list (see
    `ProfileKernel.owns`), else a per-set stand-in (one segment).  Either
    has `segments`, `each`, `joined`, `project_each`, `score` and
    `project_rows`, and both give the same numbers bitwise: the kernel's
    fused passes are the per-set sums and stacks.  An algorithm holds its
    sets as one, so its steps and monitors never ask `owns` again.
    """

    def __new__(cls, sets):
        if isinstance(sets, _SetList):
            return sets
        self = super().__new__(cls, sets)
        kernel = getattr(self[0], "kernel", None) if self else None
        self.kernel = kernel if kernel is not None and kernel.owns(self) else _PerSet(tuple(self))
        return self


def kernel_of(sets):
    """The kernel of `sets` (see `_SetList`): resolved now, or kept from a `_SetList`."""
    return _SetList(sets).kernel


@dataclass(frozen=True)
class _Intervals:
    """Interval lengths tau of a batch profile, given rather than derived from stations."""

    tau: np.ndarray

    @property
    def n(self) -> int:
        return self.tau.size + 1


def lay_end_to_end(kernels) -> ProfileKernel:
    """One profile kernel holding the problems of `kernels` end to end, in order.

    Each problem's columns start at a multiple of 6, so its slope pairs keep
    their parity and its triples their curvature block.  Every pair and
    triple that is not wholly inside one problem gets infinite bounds and so
    never binds: its moves are zeros, and a pad column between two problems
    keeps its value.  Each problem's tau is copied as given (differencing
    shifted stations would round it), and 1.0 is taken between problems.
    The last column is the last problem's last, so it is pinned.  There
    must be at least one problem, and all of one slope kind: convex and
    band maps are not interchangeable.
    """
    kernels = list(kernels)
    if not kernels:
        raise InvalidSpecError("a batch profile needs at least one problem")
    if len({k.slope.convex for k in kernels}) != 1:
        raise InvalidSpecError("a batch profile needs problems of one slope kind")
    spans, o = [], 0
    for k in kernels:
        spans.append((o, k.n))
        o = -(-(o + k.n) // 6) * 6
    n = sum(spans[-1])
    tau = np.ones(n - 1)
    alpha = np.full(n - 1, np.inf)
    beta = None if kernels[0].slope.convex else np.zeros(n - 1)
    gamma, delta = np.full(n - 2, np.inf), np.full(n - 2, -np.inf)
    for (o, m), k in zip(spans, kernels):
        tau[o : o + m - 1] = k.bp.tau
        alpha[o : o + m - 1] = k.slope.alpha
        if beta is not None:
            beta[o : o + m - 1] = k.slope.beta
        gamma[o : o + m - 2] = k.curvature.gamma
        delta[o : o + m - 2] = k.curvature.delta
    interp = InterpolationSpec(
        np.concatenate([o + k.interp.indices for (o, _), k in zip(spans, kernels)]),
        np.concatenate([k.interp.values for k in kernels]),
    )
    bounds = (SlopeBounds(alpha, beta), CurvatureBounds(gamma, delta))
    return ProfileKernel(interp, *bounds, _Intervals(tau), spans)


# ---------------------------------------------------------------------------
# constraint-set objects
#
# A Constraint bundles a projector with its intrepid companion and a cheap
# closed-form residual; a set without an intrepid operator of its own uses
# its projector.  The plain algorithms call `project`, the overshooting ones
# `intrepid`.  The profile constraints check the shape at these public
# methods.  A slope or curvature set computes the bounds and weights of its
# pairs or triples from its own spec on first use and keeps them.  Every
# slope, curvature and slab set is an `_IntervalConstraint`: its one `_move`
# applies the interval map it is handed (module docstring).


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


class _IntervalConstraint(Constraint):
    """A set whose operators are one interval map on the scalars of x it reads.

    A subclass gives `_interval`, the lo and hi of each scalar, and one
    `_move(x, up, interval_map, *args)`, which moves x so that each scalar
    goes to `interval_map(scalar, *args)`; `up` is the band's tie rule,
    which only the slope sets read.
    """

    def project(self, x):
        return self._move(x, True, _clip, *self._interval)

    def intrepid(self, x):
        return self._move(x, False, _intrepid_map, self._table)

    @cached_property
    def _table(self):
        """The intrepid breakpoints of `_interval`."""
        return _intrepid_table(*self._interval)


class SlopeConstraint(_IntervalConstraint):
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
        self.convex = bounds.convex

    @cached_property
    def _interval(self):
        """lo and hi of this parity's pairs (on d if convex, on |d| if not), contiguous."""
        return tuple(b[self._off :: 2].copy() for b in _slope_interval(self.bounds))

    def _pairs(self, x):
        k = self._interval[1].size
        return x[self._off : self._off + 2 * k].reshape(k, 2)

    def _move(self, x, up, interval_map, *args):
        # the band's tie d = 0 goes up to +beta in `project`, down in `intrepid`
        out = self._check(x).copy()
        pairs = self._pairs(out)
        d = pairs[:, 1] - pairs[:, 0]
        convex = self.convex
        h = _slope_shift(d, interval_map(d if convex else np.abs(d), *args), convex, up)
        pairs[:, 0] -= h
        pairs[:, 1] += h
        return out

    def residual(self, x):
        pairs = self._pairs(self._check(x))
        d = pairs[:, 1] - pairs[:, 0]
        return _slope_residual(_gap(d if self.convex else np.abs(d), *self._interval))


class CurvatureConstraint(_IntervalConstraint):
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
        """t0, t1, t0 + t1, lo, hi, ||u||^2 and u of this block's triples, contiguous."""
        return tuple(w[self.block - 1 :: 3].copy() for w in _triple_weights(self.bounds, self.bp))

    @cached_property
    def _interval(self):
        """lo and hi of this block's inner products."""
        return self._weights[3:5]

    def _triples(self, x):
        k = self._weights[0].size
        return x[self.block - 1 : self.block - 1 + 3 * k].reshape(k, 3)

    def _move(self, x, up, interval_map, *args):
        out = self._check(x).copy()
        triples = self._triples(out)
        s = _inner(self._weights, *triples.T)
        triples += _triple_moves(interval_map(s, *args) - s, self._weights)
        return out

    def residual(self, x):
        s = _inner(self._weights, *self._triples(self._check(x)).T)
        return _curvature_residual(_curvature_terms(_gap(s, *self._interval), self._weights[5]))
