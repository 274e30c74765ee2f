"""Constraint geometry: projectors, intrepid operators, constraint classes.

Frozen numbers were computed two ways: small rational cases by hand from
the difference-space formulas, and a few arbitrary instances through the
dense-grid nearest-point oracle in conftest.py (values pasted here so the
module tests stay fast; the full 200-instance oracle sweep lives in the
acceptance suite).
"""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import on_triple, pair_set
from vertipy import geometry as G
from vertipy.geometry import (
    Breakpoints,
    CurvatureBounds,
    CurvatureConstraint,
    InterpolationConstraint,
    InterpolationSpec,
    InvalidSpecError,
    SlopeBounds,
    SlopeConstraint,
)


# ---------------------------------------------------------------- pairs

def test_stripe_projection_frozen():
    assert_allclose(pair_set(0.4).project([1.0, 2.0]), [1.3, 1.7], atol=1e-12)
    assert_allclose(pair_set(0.4).project([2.0, 1.0]), [1.7, 1.3], atol=1e-12)
    # feasible pair is untouched
    assert_allclose(pair_set(0.4).project([1.0, 1.3]), [1.0, 1.3], atol=0)


def test_stripe_projection_oracle_frozen():
    # grid_nearest(stripe_pred(0.7), (2.13, -0.44))
    assert_allclose(pair_set(0.7).project([2.13, -0.44]), [1.195, 0.495], atol=1e-6)
    # grid_nearest(stripe_pred(1.15), (-1.9, 0.85))
    assert_allclose(pair_set(1.15).project([-1.9, 0.85]), [-1.1, 0.05], atol=1e-6)


def test_stripe_intrepid_frozen():
    # one half-width out: reflection into the near half
    assert_allclose(pair_set(0.6).intrepid([0.5, 1.5]), [0.9, 1.1], atol=1e-12)
    # far out: jump to the midline x_i = x_j
    assert_allclose(pair_set(0.6).intrepid([0.0, 2.0]), [1.0, 1.0], atol=1e-12)
    # inside: identity
    assert_allclose(pair_set(0.6).intrepid([0.2, 0.5]), [0.2, 0.5], atol=0)
    # intrepid_oracle(stripe_pred(0.7), ..., (2.13, -0.44)) -> midline
    assert_allclose(pair_set(0.7).intrepid([2.13, -0.44]), [0.845, 0.845], atol=1e-6)
    # intrepid_oracle(stripe_pred(1.15), ..., (-1.9, 0.85)) -> midline
    assert_allclose(pair_set(1.15).intrepid([-1.9, 0.85]), [-0.525, -0.525], atol=1e-6)


def test_band_projection_frozen():
    band = pair_set(3.0, 1.0)
    # inside the band (either branch): identity
    assert_allclose(band.project([-0.25, 0.75]), [-0.25, 0.75], atol=0)
    assert_allclose(band.project([1.0, 4.0]), [1.0, 4.0], atol=0)
    # forbidden middle: out to the nearer branch
    assert_allclose(band.project([0.5, 0.9]), [0.2, 1.2], atol=1e-12)
    # outside: clip to the outer bound
    assert_allclose(band.project([0.0, 5.0]), [1.0, 4.0], atol=1e-12)
    # the projection tie x_i = x_j resolves upward (d* = +beta)
    assert_allclose(band.project([0.7, 0.7]), [0.2, 1.2], atol=1e-12)


def test_band_projection_oracle_frozen():
    # grid_nearest(band_pred(2.4, 0.9), ...)
    assert_allclose(pair_set(2.4, 0.9).project([0.31, 0.62]), [0.015, 0.915], atol=1e-6)
    assert_allclose(pair_set(2.4, 0.9).project([1.2, -2.9]), [0.35, -2.05], atol=1e-6)


def test_band_intrepid_frozen():
    # reflection across the inner bound +beta (near half of the band)
    assert_allclose(pair_set(3.0, 1.0).intrepid([0.0, 0.5]), [-0.5, 1.0], atol=1e-12)
    # same start, wider beta: beyond the near half, jump to the branch midline
    assert_allclose(pair_set(3.0, 1.5).intrepid([0.0, 0.5]), [-0.875, 1.375], atol=1e-12)
    # the intrepid tie x_i = x_j resolves downward (d* = -(alpha+beta)/2),
    # unlike the projection tie
    assert_allclose(pair_set(3.0, 1.0).intrepid([0.0, 0.0]), [1.0, -1.0], atol=1e-12)
    # intrepid_oracle(band_pred(2.4, 0.9), ...)
    assert_allclose(pair_set(2.4, 0.9).intrepid([0.31, 0.62]), [-0.28, 1.21], atol=1e-6)
    assert_allclose(pair_set(2.4, 0.9).intrepid([1.2, -2.9]), [-0.025, -1.675], atol=1e-6)


def test_pair_argument_validation():
    with pytest.raises(InvalidSpecError):
        pair_set(0.0)
    with pytest.raises(InvalidSpecError):
        pair_set(-0.5)
    with pytest.raises(InvalidSpecError):
        pair_set(1.0, 1.0)  # beta == alpha
    with pytest.raises(InvalidSpecError):
        pair_set(1.0, -0.1)


@pytest.mark.parametrize("beta", [None, 0.5])
@pytest.mark.parametrize("x, d_zero", [([1.0, 1.0, 1.0], True), ([0.0, 2.0, -1.0], False)])
def test_infinite_alpha_warns_nothing(beta, x, d_zero):
    # SlopeBounds allows alpha = inf (no cap); at d = 0, sign(0) * inf used to warn
    bounds = SlopeBounds([np.inf, np.inf], None if beta is None else [beta, beta])
    x = np.array(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for parity in ("odd", "even"):
            c = SlopeConstraint(bounds, parity, 3)
            p, q = c.project(x), c.intrepid(x)
            r = c.residual(x)
            assert np.all(np.isfinite(p)) and np.all(np.isfinite(q))
            assert c.residual(p) == 0.0 and c.residual(q) == 0.0
            if beta is None or not d_zero:
                assert np.array_equal(p, x) and np.array_equal(q, x) and r == 0.0
            else:
                assert r == pytest.approx(beta / np.sqrt(2.0), abs=1e-15)
        if d_zero:  # one pair at the same tie
            pair = pair_set(np.inf, beta)
            up, down = ([1.0, 1.0], [1.0, 1.0]) if beta is None else ([0.75, 1.25], [1.5, 0.5])
            assert pair.project([1.0, 1.0]).tolist() == up
            assert pair.intrepid([1.0, 1.0]).tolist() == down


# ------------------------------------------------------------- parities

def test_parity_projection_frozen():
    bounds = SlopeBounds(np.ones(3))
    assert_allclose(
        SlopeConstraint(bounds, "even", 4).project([0.0, 3.0, 0.0, 3.0]),
        [0.0, 2.0, 1.0, 3.0],
        atol=1e-12,
    )
    assert_allclose(
        SlopeConstraint(bounds, "odd", 4).project([0.0, 3.0, 0.0, 3.0]),
        [1.0, 2.0, 1.0, 2.0],
        atol=1e-12,
    )


def test_parity_matches_pairwise(rng):
    # disjoint pairs: the aggregate must equal the pairwise formula per pair
    for _ in range(50):
        n = int(rng.integers(3, 12))
        x = rng.uniform(-5, 5, n)
        alpha = rng.uniform(0.2, 2.0, n - 1)
        bounds = SlopeBounds(alpha)
        for parity, offset in (("odd", 0), ("even", 1)):
            out = SlopeConstraint(bounds, parity, n).project(x)
            expect = x.copy()
            for i in range(offset, n - 1, 2):
                expect[i : i + 2] = pair_set(alpha[i]).project(x[i : i + 2])
            assert_allclose(out, expect, atol=1e-12)


def test_parity_validation():
    bounds = SlopeBounds(np.ones(3))
    with pytest.raises(InvalidSpecError):
        SlopeConstraint(bounds, "both", 4)
    with pytest.raises(InvalidSpecError):
        SlopeConstraint(bounds, "odd", 3)  # length mismatch


# ------------------------------------------------------------ curvature

def test_curvature_projection_frozen():
    bp = Breakpoints([0.0, 1.0, 2.0])
    cb = CurvatureBounds(gamma=[0.5], delta=[-0.5])
    out = on_triple("project", [0.0, 1.0, 3.0], 0, cb, bp)
    assert_allclose(out, [-1 / 12, 7 / 6, 35 / 12], atol=1e-12)
    # feasible triple untouched
    out = on_triple("project", [0.0, 1.0, 2.2], 0, cb, bp)
    assert_allclose(out, [0.0, 1.0, 2.2], atol=0)


def test_curvature_intrepid_frozen():
    bp = Breakpoints([0.0, 1.0, 2.0])
    cb = CurvatureBounds(gamma=[0.5], delta=[-0.5])
    # within half a slab width: reflection across the violated face
    out = on_triple("intrepid", [0.0, 1.0, 3.0], 0, cb, bp)
    assert_allclose(out, [-1 / 6, 4 / 3, 17 / 6], atol=1e-12)
    # beyond: jump to the slab midline
    out = on_triple("intrepid", [0.0, 1.0, 4.0], 0, cb, bp)
    assert_allclose(out, [-1 / 3, 5 / 3, 11 / 3], atol=1e-12)


def test_curvature_block_matches_singles(rng):
    # triples in one block are coordinate-disjoint; block = composition
    for _ in range(30):
        n = int(rng.integers(5, 14))
        t = np.cumsum(rng.uniform(0.5, 2.0, n))
        bp = Breakpoints(t)
        gam = rng.uniform(0.1, 1.0, n - 2)
        cb = CurvatureBounds(gamma=gam, delta=-rng.uniform(0.1, 1.0, n - 2))
        x = rng.uniform(-5, 5, n)
        for block in (1, 2, 3):
            out = CurvatureConstraint(cb, bp, block).project(x)
            expect = x.copy()
            for i in range(block - 1, n - 2, 3):
                expect = on_triple("project", expect, i, cb, bp)
            assert_allclose(out, expect, atol=1e-12)


def test_curvature_validation():
    bp = Breakpoints([0.0, 1.0, 2.0, 3.0])
    cb = CurvatureBounds(gamma=[0.5, 0.5], delta=[-0.5, -0.5])
    with pytest.raises(InvalidSpecError):
        CurvatureConstraint(cb, bp, 1).project([0.0, 1.0, 2.0])  # length mismatch
    with pytest.raises(InvalidSpecError):
        CurvatureConstraint(CurvatureBounds(gamma=[0.5], delta=[-0.5]), bp, 1)  # n - 2 bounds
    with pytest.raises(InvalidSpecError):
        CurvatureConstraint(cb, bp, 4)
    with pytest.raises(InvalidSpecError):
        CurvatureBounds(gamma=[0.5], delta=[0.5])  # delta must be <= 0
    with pytest.raises(InvalidSpecError):
        Breakpoints([0.0, 1.0, 1.0])


@pytest.mark.parametrize("gamma, delta", [(np.inf, -np.inf), (np.inf, -0.5), (0.5, -np.inf)])
def test_infinite_curvature_bounds_warn_nothing(gamma, delta):
    # CurvatureBounds allows infinite bounds; the intrepid midpoint of
    # [-inf, inf] is NaN, which must neither warn nor be selected
    bp = Breakpoints([0.0, 1.0, 2.0, 3.0, 4.0])
    x = np.array([0.0, 1.0, 3.0, 2.0, -1.0])  # s = 1, -3, -2 on triples 0, 1, 2
    twin = CurvatureBounds(gamma=[min(gamma, 1e300)] * 3, delta=[max(delta, -1e300)] * 3)
    cb = CurvatureBounds(gamma=[gamma] * 3, delta=[delta] * 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for block in (1, 2, 3):
            c, finite = CurvatureConstraint(cb, bp, block), CurvatureConstraint(twin, bp, block)
            for op in ("project", "intrepid"):
                got = getattr(c, op)(x)
                assert got.tobytes() == getattr(finite, op)(x).tobytes(), (block, op)
                assert c.residual(got) <= 1e-12
            assert c.residual(x) == finite.residual(x)
        for i in range(3):
            for op in ("project", "intrepid"):
                got = on_triple(op, x, i, cb, bp)
                assert got.tobytes() == on_triple(op, x, i, twin, bp).tobytes(), (i, op)
        interp = InterpolationSpec([0, 4], [0.0, -1.0])
        kernel = G.ProfileKernel(interp, SlopeBounds(np.full(4, 2.5)), cb, bp)
        sets = kernel.constraint_sets()
        assert kernel.score(x)[0] == [float(sum(c.residual(x) ** 2 for c in sets))]
    if np.isinf(delta) and np.isinf(gamma):
        assert np.array_equal(on_triple("intrepid", x, 1, cb, bp), x)


# ------------------------------------------------------ data validation

def test_interpolation_spec_validation():
    with pytest.raises(InvalidSpecError):
        InterpolationSpec(indices=[0, 0], values=[1.0, 2.0])
    with pytest.raises(InvalidSpecError):
        InterpolationSpec(indices=[2, 1], values=[1.0, 2.0])
    with pytest.raises(InvalidSpecError):
        InterpolationSpec(indices=[0, 1], values=[1.0])
    spec = InterpolationSpec(indices=[0, 3], values=[1.0, 2.0])
    out = G.project_interpolation([9.0, 9.0, 9.0, 9.0], spec)
    assert_allclose(out, [1.0, 9.0, 9.0, 2.0], atol=0)
    with pytest.raises(InvalidSpecError):
        G.project_interpolation([9.0, 9.0], spec)


def test_slope_bounds_validation():
    with pytest.raises(InvalidSpecError):
        SlopeBounds(np.array([1.0, -1.0]))
    with pytest.raises(InvalidSpecError):
        SlopeBounds(np.ones(3), beta=np.ones(2))
    with pytest.raises(InvalidSpecError):
        SlopeBounds(np.ones(3), beta=np.array([0.5, 1.0, 0.5]))  # beta == alpha
    assert SlopeBounds(np.ones(3)).convex
    assert not SlopeBounds(np.ones(3), beta=0.1 * np.ones(3)).convex


# ----------------------------------------------------- constraint classes

def _random_road(rng, n, nonconvex=False):
    t = np.cumsum(rng.uniform(0.5, 2.0, n))
    bp = Breakpoints(t)
    alpha = rng.uniform(0.5, 2.0, n - 1)
    beta = rng.uniform(0.1, 0.4, n - 1) * alpha if nonconvex else None
    sb = SlopeBounds(alpha, beta=beta)
    cb = CurvatureBounds(
        gamma=rng.uniform(0.1, 1.0, n - 2), delta=-rng.uniform(0.1, 1.0, n - 2)
    )
    ispec = InterpolationSpec(indices=[0, n - 1], values=rng.uniform(-2, 2, 2))
    sets = [
        InterpolationConstraint(ispec, n),
        SlopeConstraint(sb, "even", n),
        SlopeConstraint(sb, "odd", n),
        CurvatureConstraint(cb, bp, 1),
        CurvatureConstraint(cb, bp, 2),
        CurvatureConstraint(cb, bp, 3),
    ]
    return sets


def test_constraint_tags_and_modes():
    # the two operator modes: every profile set but Interp has an intrepid
    # operator of its own; Interp's is its projection
    sets = _random_road(np.random.default_rng(0), 8)
    assert [c.tag for c in sets] == ["Interp", "SlopeEven", "SlopeOdd", "Curv1", "Curv2", "Curv3"]
    x = np.random.default_rng(1).uniform(-4, 4, 8)
    assert_allclose(sets[0].intrepid(x), sets[0].project(x), atol=0)
    for c in sets[1:]:
        assert not np.array_equal(c.intrepid(x), c.project(x)), c.tag
    with pytest.raises(InvalidSpecError):
        SlopeConstraint(SlopeBounds(np.ones(7)), "middle", 8)


def test_interpolation_constraint_requires_pinned_endpoints():
    spec = InterpolationSpec(indices=[0, 2], values=[0.0, 1.0])
    with pytest.raises(InvalidSpecError):
        InterpolationConstraint(spec, 5)
    InterpolationConstraint(spec, 3)  # endpoints pinned: fine


def test_residual_matches_projection_distance(rng):
    # the closed-form residuals must equal ||x - P(x)||
    for trial in range(40):
        n = int(rng.integers(4, 12))
        sets = _random_road(rng, n, nonconvex=bool(trial % 2))
        x = rng.uniform(-5, 5, n)
        for c in sets:
            d = np.linalg.norm(x - c.project(x))
            assert abs(c.residual(x) - d) < 1e-10, c.tag
            assert c.contains(c.project(x), tol=1e-9), c.tag


def test_projection_idempotence(rng):
    for trial in range(40):
        n = int(rng.integers(4, 12))
        sets = _random_road(rng, n, nonconvex=bool(trial % 2))
        x = rng.uniform(-5, 5, n)
        for c in sets:
            p = c.project(x)
            assert np.linalg.norm(c.project(p) - p) < 1e-10, c.tag
            z = c.intrepid(x)
            # intrepid lands inside the set (or on its midline), so a second
            # application is the identity
            assert np.linalg.norm(c.intrepid(z) - z) < 1e-10, c.tag
            assert c.contains(z, tol=1e-9), c.tag


def test_intrepid_is_identity_inside(rng):
    for trial in range(40):
        n = int(rng.integers(4, 12))
        sets = _random_road(rng, n, nonconvex=bool(trial % 2))
        x = rng.uniform(-5, 5, n)
        for c in sets:
            p = c.project(x)
            assert_allclose(c.intrepid(p), p, atol=1e-12)


def test_variational_inequality_convex(rng):
    # <x - Px, c - Px> <= 0 for every feasible c characterizes the projection
    for _ in range(25):
        n = int(rng.integers(4, 12))
        sets = _random_road(rng, n, nonconvex=False)
        x = rng.uniform(-5, 5, n)
        for c in sets:
            p = c.project(x)
            for _ in range(8):
                feas = c.project(rng.uniform(-5, 5, n))
                assert np.dot(x - p, feas - p) <= 1e-10, c.tag


def test_slope_ops_preserve_pair_sums(rng):
    for _ in range(25):
        n = int(rng.integers(4, 12))
        x = rng.uniform(-5, 5, n)
        alpha = rng.uniform(0.3, 1.5, n - 1)
        sb = SlopeBounds(alpha)
        nc = SlopeBounds(alpha, beta=0.2 * alpha)
        for bounds in (sb, nc):
            for parity, offset in (("odd", 0), ("even", 1)):
                con = SlopeConstraint(bounds, parity, n)
                for op in (con.project, con.intrepid):
                    out = op(x)
                    for i in range(offset, n - 1, 2):
                        assert abs((out[i] + out[i + 1]) - (x[i] + x[i + 1])) < 1e-12
                    # untouched coordinates are bit-identical
                    touched = set()
                    for i in range(offset, n - 1, 2):
                        touched |= {i, i + 1}
                    for i in set(range(n)) - touched:
                        assert out[i] == x[i]
