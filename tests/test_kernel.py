"""The profile kernel against naive per-set formulas, bitwise.

The references below are the fancy-index formulas the constraint classes
used before they ran on `geometry.ProfileKernel`: gather the pairs or
triples of one set with an index array, map them with np.clip / np.select,
and scatter the update back.  The kernel must reproduce them exactly (==),
and its fused monitor must reproduce the per-set residual sum exactly.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vertipy.geometry import (
    Breakpoints,
    CurvatureBounds,
    CurvatureConstraint,
    InterpolationSpec,
    InvalidSpecError,
    ProfileKernel,
    SlopeBounds,
    SlopeConstraint,
)
from vertipy.metrics import proximity_squared_sum
from vertipy.probgen import build_constraint_sets


# ------------------------------------------------------------ references


def _ref_band_intrepid(d, alpha, beta):
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
    choices = [-mid, -2.0 * alpha - d, d, -2.0 * beta - d, -mid, mid, 2.0 * beta - d, d,
               2.0 * alpha - d]
    with np.errstate(invalid="ignore"):
        return np.select(conds, choices, default=mid)


def _ref_dstar(d, alpha, beta, op):
    ad = np.abs(d)
    if beta is None:
        if op == "project":
            return np.clip(d, -alpha, alpha)
        reflect = np.sign(d) * 2.0 * alpha - d
        return np.where(ad <= alpha, d, np.where(ad < 2.0 * alpha, reflect, 0.0))
    if op == "project":
        up = np.where(d >= 0.0, 1.0, -1.0)
        return np.where(ad < beta, up * beta, np.where(ad <= alpha, d, np.sign(d) * alpha))
    return _ref_band_intrepid(d, alpha, beta)


def _ref_slope(x, bounds, parity, op):
    idx = np.arange(0 if parity == "odd" else 1, x.size - 1, 2)
    alpha = bounds.alpha[idx]
    beta = None if bounds.beta is None else bounds.beta[idx]
    d = x[idx + 1] - x[idx]
    if op == "residual":
        if beta is None:
            viol = np.maximum(np.abs(d) - alpha, 0.0)
        else:
            ad = np.abs(d)
            viol = np.where(ad < beta, beta - ad, np.where(ad > alpha, ad - alpha, 0.0))
        return float(np.sqrt(0.5 * np.dot(viol, viol)))
    h = 0.5 * (_ref_dstar(d, alpha, beta, op) - d)
    out = x.copy()
    out[idx] -= h
    out[idx + 1] += h
    return out


def _ref_interval_intrepid(s, lo, hi):
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    return np.select(
        [s < lo - half, s < lo, s <= hi, s <= hi + half],
        [mid, 2.0 * lo - s, s, 2.0 * hi - s],
        default=mid,
    )


def _ref_curvature(x, bounds, bp, block, op):
    idx = np.arange(block - 1, x.size - 2, 3)
    if idx.size == 0:
        return 0.0 if op == "residual" else x.copy()
    t0 = bp.tau[idx]
    t1 = bp.tau[idx + 1]
    lo = bounds.delta[idx] * t0 * t1
    hi = bounds.gamma[idx] * t0 * t1
    unorm2 = t0 * t0 + t1 * t1 + (t0 + t1) ** 2
    s = t1 * x[idx] - (t0 + t1) * x[idx + 1] + t0 * x[idx + 2]
    if op == "residual":
        gap = s - np.clip(s, lo, hi)
        return float(np.sqrt(np.sum(gap * gap / unorm2)))
    sstar = np.clip(s, lo, hi) if op == "project" else _ref_interval_intrepid(s, lo, hi)
    coef = (sstar - s) / unorm2
    out = x.copy()
    out[idx] += coef * t1
    out[idx + 1] -= coef * (t0 + t1)
    out[idx + 2] += coef * t0
    return out


def _ref_interp(x, spec, op):
    if op == "residual":
        return float(np.linalg.norm(x[spec.indices] - spec.values))
    out = x.copy()
    out[spec.indices] = spec.values
    return out


def _reference(c, x, op):
    if c.tag == "Interp":
        return _ref_interp(x, c.spec, op)
    if c.tag.startswith("Slope"):
        return _ref_slope(x, c.bounds, c.parity, op)
    return _ref_curvature(x, c.bounds, c.bp, c.block, op)


# ------------------------------------------------------------ inputs


def _problem(n, seed, nonconvex):
    """Random stations and bounds, and a start whose pairs and triples land in every case."""
    rng = np.random.default_rng(seed)
    tau = rng.uniform(10.0, 60.0, n - 1)
    bp = Breakpoints(np.concatenate([[0.0], np.cumsum(tau)]))
    alpha = 0.04 * tau
    # 3 beta > alpha makes the band's midline jumps around d = 0 reachable
    beta = alpha * rng.uniform(0.05, 0.95, n - 1) if nonconvex else None
    gamma = np.minimum(tau[:-1], tau[1:]) * 10.0 ** rng.uniform(-4.0, -1.0, n - 2)
    # differences inside, in the reflect zones, far out, on the bounds and at 0
    d = alpha * rng.uniform(-3.0, 3.0, n - 1)
    pick = rng.integers(0, 6, n - 1)
    edges = np.stack([alpha, -alpha, beta if nonconvex else alpha, -beta if nonconvex else alpha,
                      np.zeros(n - 1)])
    d = np.where(pick < 4, d, edges[rng.integers(0, 5, n - 1), np.arange(n - 1)])
    # straight runs leave some triples strictly inside their slab
    straight = rng.random(n - 1) < 0.3
    d[1:] = np.where(straight[1:], d[:-1], d[1:])
    x = 100.0 + np.concatenate([[0.0], np.cumsum(d)])
    ends = [0, n - 1]
    interp = InterpolationSpec(ends, x[ends] + rng.uniform(-5.0, 5.0, 2))
    sets = build_constraint_sets(
        bp, interp, SlopeBounds(alpha, beta), CurvatureBounds(gamma, -gamma)
    )
    return sets, x


PROBLEMS = dict(
    n=st.integers(2, 700), seed=st.integers(0, 2**32 - 1), nonconvex=st.booleans()
)


def _examples(test):
    # n = 2, 3, 4: every, two, and one curvature block empty
    for n in (2, 3, 4, 5):
        for nonconvex in (False, True):
            test = example(n=n, seed=n, nonconvex=nonconvex)(test)
    return test


# ------------------------------------------------------------ tests


@settings(max_examples=60, deadline=None)
@_examples
@given(**PROBLEMS)
def test_fused_monitor_equals_per_set_sum(n, seed, nonconvex):
    sets, x = _problem(n, seed, nonconvex)
    for point in (x, sets[0].project(x), np.full(n, 7.0)):
        fused = proximity_squared_sum(point, sets)
        assert fused == float(sum(c.residual(point) ** 2 for c in sets))
        assert fused == float(sum(_reference(c, point, "residual") ** 2 for c in sets))


@settings(max_examples=60, deadline=None)
@_examples
@given(**PROBLEMS)
def test_operators_equal_fancy_index_reference(n, seed, nonconvex):
    sets, x = _problem(n, seed, nonconvex)
    for c in sets:
        for op in ("project", "intrepid", "residual"):
            got = getattr(c, op)(x)
            want = _reference(c, x, "project" if c.tag == "Interp" and op == "intrepid" else op)
            if op == "residual":
                assert got == want, (c.tag, op)
            else:
                assert got.tobytes() == want.tobytes(), (c.tag, op)


@settings(max_examples=40, deadline=None)
@_examples
@given(**PROBLEMS)
def test_projection_idempotent_and_intrepid_identity_on_set(n, seed, nonconvex):
    sets, x = _problem(n, seed, nonconvex)
    for c in sets:
        p = c.project(x)
        np.testing.assert_allclose(c.project(p), p, rtol=0.0, atol=1e-12, err_msg=c.tag)
        np.testing.assert_allclose(c.intrepid(p), p, rtol=0.0, atol=1e-12, err_msg=c.tag)
        assert c.residual(p) <= 1e-12, c.tag


def test_other_set_lists_take_the_generic_sum():
    sets, x = _problem(40, 3, False)
    kernel = sets[0].kernel
    assert all(c.kernel is kernel for c in sets) and kernel.owns(sets)
    for others in (sets[::-1], sets[:5], sets[1:], [*sets[:3], *sets[3:]]):
        assert proximity_squared_sum(x, others) == float(sum(c.residual(x) ** 2 for c in others))
    # a second problem's sets are not this kernel's; the same sets in another mode are
    twin, _ = _problem(40, 3, False)
    assert not kernel.owns(twin) and not kernel.owns([*sets[:5], twin[5]])
    assert kernel.owns(kernel.constraint_sets("exact"))


def test_fused_monitor_checks_shape():
    sets, x = _problem(12, 0, False)
    with pytest.raises(InvalidSpecError, match="Interp: expected shape"):
        proximity_squared_sum(x[:-1], sets)


def test_standalone_constraints_build_their_own_kernel():
    bounds = SlopeBounds(np.ones(5))
    c = SlopeConstraint(bounds, "even", 6)
    assert c.kernel.slope is bounds and not c.kernel.owns([c] * 6)
    other = ProfileKernel(6, slope=SlopeBounds(np.ones(5)))
    with pytest.raises(InvalidSpecError, match="kernel"):
        SlopeConstraint(bounds, "even", 6, kernel=other)
    bp = Breakpoints(np.arange(6.0))
    curv = CurvatureBounds(np.ones(4), -np.ones(4))
    with pytest.raises(InvalidSpecError, match="kernel"):
        CurvatureConstraint(curv, bp, 1, kernel=other)
