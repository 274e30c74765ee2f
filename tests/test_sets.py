"""Generic convex sets used by the verification fixtures."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
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
    with pytest.raises(InvalidSpecError, match="halfspace normal"):
        HalfspaceSet([0.0, 0.0], 1.0)
    with pytest.raises(InvalidSpecError):  # a NaN offset, as the slab's lo <= hi check finds it
        HalfspaceSet([1.0, 0.0], float("nan"))


SIGNED_ZEROS = st.sampled_from([0.0, -0.0])
TINY = np.finfo(float).tiny


@pytest.mark.parametrize("cls, args", [(HalfspaceSet, (0.0,)), (SlabSet, (-1.0, 0.0))])
@pytest.mark.parametrize("a", [[1e-160], [1e-170], [3e-155, -4e-155]])
def test_subnormal_normal_is_rejected(cls, args, a):
    # <a, a> = 1e-320 is subnormal: the projection of 1 onto <1e-160, x> <= 0
    # once came out as -1.113e-05; one that underflows to 0.0 is nonzero all the same
    message = "normal is too small: <a, a> = .* below the smallest normal float"
    with pytest.raises(InvalidSpecError, match=message):
        cls(a, *args)


def test_smallest_normal_squared_norm_projects_exactly():
    # <a, a> at the smallest normal float or just above is accepted, and exact here
    a = np.sqrt(TINY)
    assert HalfspaceSet([a], 0.0).project([1.0]).tolist() == [0.0]
    assert HalfspaceSet([2.0 * a], 0.0).residual([-1.0]) == 0.0


@st.composite
def _halfspace_and_point(draw):
    """A normal, an offset and a point at one scale; b may be +-0.0 and x all signed zeros.

    a and b share a factor `shrink` down to 1e-170, so <a, a> may be subnormal
    or underflow to 0.0, while (<a, x> - b) / <a, a> stays finite.
    """
    n = draw(st.integers(1, 5))
    scale = 10.0 ** draw(st.integers(-3, 3))
    small = st.sampled_from([2.0**-500, 1e-150, 1e-154, 1e-156, 1e-160, 1e-170])
    shrink = draw(st.one_of(st.just(1.0), small))

    def vectors(entries, factor=1.0):
        return st.lists(entries, min_size=n, max_size=n).map(lambda v: factor * np.array(v))

    unit = st.floats(-1.0, 1.0)
    # entries of a are 0 or at least 1e-3 in size: below that, only shrink makes a small
    entries = unit.filter(lambda t: t == 0.0 or abs(t) >= 1e-3)
    a = draw(vectors(entries, shrink * scale).filter(np.any))
    b = draw(st.one_of(SIGNED_ZEROS, unit.map(lambda t: shrink * scale * t)))
    x = draw(st.one_of(vectors(unit, scale), vectors(SIGNED_ZEROS)))
    if draw(st.booleans()) and np.dot(a, a) >= TINY:  # a point on the boundary, up to rounding
        x = _closed_form_projection(a, b, x)
    return a, b, x


def _closed_form_projection(a, b, x):
    s = np.dot(a, x)
    return x.copy() if s <= b else x - ((s - b) / np.dot(a, a)) * a


@settings(max_examples=300, deadline=None)
@given(_halfspace_and_point())
@example((np.array([1.0, 0.0]), -0.0, np.array([0.0, -0.0])))
@example((np.array([-2.0]), 0.0, np.array([-0.0])))
def test_halfspace_is_the_closed_form(case):
    a, b, x = case
    if np.dot(a, a) < TINY:  # the closed form would divide by a subnormal or by 0.0
        with pytest.raises(InvalidSpecError, match="normal is too small"):
            HalfspaceSet(a, b)
        return
    h = HalfspaceSet(a, b)
    want = _closed_form_projection(a, b, x)
    assert h.project(x).tobytes() == want.tobytes()
    assert h.intrepid(x).tobytes() == want.tobytes()
    assert h.residual(x) == max(np.dot(a, x) - b, 0.0) / np.sqrt(np.dot(a, a))


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
