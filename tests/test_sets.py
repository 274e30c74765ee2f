"""Generic convex sets used by the verification fixtures."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vertipy.geometry import InvalidSpecError
from vertipy.sets import BallSet, HalfspaceSet, SlabSet, SpanSet


def test_halfspace_projection():
    h = HalfspaceSet([1.0, 0.0], 0.0)
    assert_allclose(h.project([2.0, 3.0]), [0.0, 3.0], atol=0)
    assert_allclose(h.project([-1.0, 3.0]), [-1.0, 3.0], atol=0)
    assert h.residual([2.0, 3.0]) == 2.0
    # non-unit normal: <(3,4), x> <= 5, distance scales by 1/||a||
    h2 = HalfspaceSet([3.0, 4.0], 5.0)
    assert_allclose(h2.residual([3.0, 4.0]), 4.0, atol=1e-14)
    assert_allclose(h2.project([3.0, 4.0]), [3.0 - 12.0 / 5, 4.0 - 16.0 / 5], atol=1e-14)
    with pytest.raises(InvalidSpecError):
        HalfspaceSet([0.0, 0.0], 1.0)


def test_slab_projection_and_intrepid():
    s = SlabSet([1.0, 0.0], -1.0, 1.0)
    assert_allclose(s.project([1.4, 2.0]), [1.0, 2.0], atol=1e-14)
    assert_allclose(s.project([0.2, 2.0]), [0.2, 2.0], atol=0)
    # within half a slab width: reflect; farther: midline
    assert_allclose(s.intrepid([1.6, 0.0]), [0.4, 0.0], atol=1e-14)
    assert_allclose(s.intrepid([3.5, 0.0]), [0.0, 0.0], atol=1e-14)
    assert_allclose(s.residual([1.4, 2.0]), 0.4, atol=1e-14)
    with pytest.raises(InvalidSpecError):
        SlabSet([1.0, 0.0], 2.0, 1.0)


@pytest.mark.parametrize(
    "lo, hi, x, want_p, want_q",
    [
        (-np.inf, np.inf, [3.5, 2.0], [3.5, 2.0], [3.5, 2.0]),
        (-1.0, np.inf, [-3.5, 2.0], [-1.0, 2.0], [1.5, 2.0]),  # reflects however far out
        (-np.inf, 1.0, [3.5, 2.0], [1.0, 2.0], [-1.5, 2.0]),
    ],
)
def test_slab_with_infinite_bounds_warns_nothing(lo, hi, x, want_p, want_q):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = SlabSet([1.0, 0.0], lo, hi)
        assert_allclose(s.project(x), want_p, atol=0)
        assert_allclose(s.intrepid(x), want_q, atol=0)
        assert s.residual(x) == abs(x[0] - want_p[0])


def test_ball_projection():
    b = BallSet([1.0, 1.0], 2.0)
    assert_allclose(b.project([1.0, 5.0]), [1.0, 3.0], atol=1e-14)
    assert_allclose(b.project([1.5, 1.0]), [1.5, 1.0], atol=0)
    assert_allclose(b.residual([1.0, 5.0]), 2.0, atol=1e-14)
    with pytest.raises(InvalidSpecError):
        BallSet([0.0, 0.0], 0.0)


def test_span_projection():
    # x-axis in the plane
    line = SpanSet([[1.0, 0.0]])
    assert_allclose(line.project([3.0, -2.0]), [3.0, 0.0], atol=1e-14)
    # affine: vertical line x = 2
    aff = SpanSet([[0.0, 1.0]], offset=[2.0, 0.0])
    assert_allclose(aff.project([5.0, 7.0]), [2.0, 7.0], atol=1e-14)
    # dependent spanning vectors are deduplicated by the QR step
    dup = SpanSet([[1.0, 0.0], [2.0, 0.0]])
    assert dup.basis.shape == (2, 1)
    with pytest.raises(InvalidSpecError):
        SpanSet([[0.0, 0.0]])


def test_span_is_orthogonal_projection(rng):
    vecs = rng.uniform(-1, 1, (2, 5))
    off = rng.uniform(-1, 1, 5)
    sp = SpanSet(vecs, offset=off)
    x = rng.uniform(-3, 3, 5)
    p = sp.project(x)
    # residual is orthogonal to the subspace directions
    assert np.max(np.abs(vecs @ (x - p))) < 1e-12
    assert_allclose(sp.project(p), p, atol=1e-12)


def test_all_sets_idempotent_and_consistent(rng):
    sets = [
        HalfspaceSet(rng.uniform(-1, 1, 3), 0.5),
        SlabSet(rng.uniform(-1, 1, 3), -0.3, 0.8),
        BallSet(rng.uniform(-1, 1, 3), 1.2),
        SpanSet(rng.uniform(-1, 1, (1, 3))),
    ]
    for c in sets:
        for _ in range(20):
            x = rng.uniform(-4, 4, 3)
            p = c.project(x)
            assert np.linalg.norm(c.project(p) - p) < 1e-10, c.tag
            assert abs(c.residual(x) - np.linalg.norm(x - p)) < 1e-10, c.tag
            assert c.contains(p, tol=1e-9), c.tag
