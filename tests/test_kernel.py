"""The profile kernel against naive per-set formulas, bitwise.

The references below are the fancy-index formulas the constraint classes
used before they ran on row views: gather the pairs or triples of one set
with an index array, map them with np.clip / np.select, and scatter the
update back.  The sets must reproduce them exactly (==), the fused
monitor of `geometry.ProfileKernel` must reproduce the per-set residual sum
exactly, and its fused projections each set's `project`, as must the ParP,
ExParP and ExAltP steps built on them.  Its `score` must return both from
one pass, and every algorithm's `segment_proximity2` of its monitored point
must be the per-set sum `run` would otherwise compute.
"""

import math
import pickle

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from conftest import on_triple
from vertipy import feasibility as F
from vertipy import product
from vertipy.bestapprox import InfeasibleIntersectionError
from vertipy.geometry import (
    Breakpoints,
    CurvatureBounds,
    CurvatureConstraint,
    InterpolationConstraint,
    InterpolationSpec,
    InvalidSpecError,
    ProfileKernel,
    SlopeBounds,
    SlopeConstraint,
    kernel_of,
    lay_end_to_end,
)
from vertipy.metrics import proximity_squared_sum
from vertipy.probgen import ProblemSpec, generate, make_batch
from vertipy.sets import SlabSet


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


def _ref_curvature(x, bounds, bp, idx, op):
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
    return _ref_curvature(x, c.bounds, c.bp, np.arange(c.block - 1, x.size - 2, 3), op)


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
    sets = ProfileKernel(
        interp, SlopeBounds(alpha, beta), CurvatureBounds(gamma, -gamma), bp
    ).constraint_sets()
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


def _assert_equal_reference(sets, x):
    for c in sets:
        for op in ("project", "intrepid", "residual"):
            got = getattr(c, op)(x)
            want = _reference(c, x, "project" if c.tag == "Interp" and op == "intrepid" else op)
            if op == "residual":
                assert got == want, (c.tag, op)
            else:
                assert got.tobytes() == want.tobytes(), (c.tag, op)


@settings(max_examples=60, deadline=None)
@_examples
@given(**PROBLEMS)
def test_operators_equal_fancy_index_reference(n, seed, nonconvex):
    sets, x = _problem(n, seed, nonconvex)
    _assert_equal_reference(sets, x)


@pytest.mark.parametrize("nonconvex", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_operators_equal_reference_at_exact_edges(seed, nonconvex):
    # the case boundaries and tie rules sit at differences of exactly +-0.0,
    # +-beta, +-alpha and +-2 alpha, which the random starts never hit
    n = 41
    sets, _ = _problem(n, seed, nonconvex)
    alpha, beta = sets[1].bounds.alpha, sets[1].bounds.beta
    edges = [np.zeros(n - 1), np.full(n - 1, -0.0), alpha, -alpha, 2.0 * alpha, -2.0 * alpha]
    if nonconvex:
        edges += [beta, -beta]
    edges = np.stack(edges)
    for off in (0, 1):  # the odd, then the even parity's pairs (x_i, x_{i+1})
        i = np.arange(off, n - 1, 2)
        want = edges[(np.arange(i.size) + seed) % len(edges), i]
        x = np.zeros(n)
        x[i + 1] = want
        assert (x[i + 1] - x[i]).tobytes() == want.tobytes()  # -0.0 - 0.0 is -0.0
        _assert_equal_reference(sets, x)
        assert proximity_squared_sum(x, sets) == float(
            sum(_reference(c, x, "residual") ** 2 for c in sets)
        )


@settings(max_examples=40, deadline=None)
@_examples
@given(**PROBLEMS)
def test_projection_idempotent_and_intrepid_identity_on_set(n, seed, nonconvex):
    sets, x = _problem(n, seed, nonconvex)
    tol = 1e-12 * max(1.0, np.abs(x).max())
    for c in sets:
        p = c.project(x)
        np.testing.assert_allclose(c.project(p), p, rtol=0.0, atol=1e-12, err_msg=c.tag)
        np.testing.assert_allclose(c.intrepid(p), p, rtol=0.0, atol=1e-12, err_msg=c.tag)
        assert c.residual(p) <= 1e-12, c.tag
        # intrepid maps every point into the set, not only the points already on it
        assert c.residual(c.intrepid(x)) <= tol, c.tag
    # a finite slab of the same seed, with <a, x> inside it, in a reflect zone or far out
    rng = np.random.default_rng(seed)
    a = rng.normal(size=n)
    width = rng.uniform(0.1, 10.0) * np.linalg.norm(a)
    lo = np.dot(a, x) + width * rng.uniform(-2.0, 1.0)
    slab = SlabSet(a, lo, lo + width)
    for image in (slab.project(x), slab.intrepid(x)):
        assert slab.residual(image) <= tol
        np.testing.assert_allclose(slab.project(image), image, rtol=0.0, atol=tol)
        np.testing.assert_allclose(slab.intrepid(image), image, rtol=0.0, atol=tol)


def test_other_set_lists_take_the_generic_sum():
    sets, x = _problem(40, 3, False)
    kernel = sets[0].kernel
    assert all(c.kernel is kernel for c in sets) and kernel.owns(sets)
    assert kernel_of(sets) is kernel and kernel_of([*sets]) is kernel
    for others in (sets[::-1], sets[:5], sets[1:]):
        assert not isinstance(kernel_of(others), ProfileKernel)
    for others in (sets[::-1], sets[:5], sets[1:], [*sets[:3], *sets[3:]]):
        assert proximity_squared_sum(x, others) == float(sum(c.residual(x) ** 2 for c in others))
        stacked = np.array([c.project(x) for c in others])
        assert F.project_each(x, others).tobytes() == stacked.tobytes()
        (d2,), rows = kernel_of(others).score(x)
        assert d2 == proximity_squared_sum(x, others) and rows().tobytes() == stacked.tobytes()
        # the product set takes the row-wise stack, row i onto others[i]
        parts = x + np.arange(len(others))[:, None]
        stacked = np.array([c.project(row) for c, row in zip(others, parts)])
        assert product.ProductSet(others).project(parts).tobytes() == stacked.tobytes()
    # a second problem's sets are not this kernel's; a fresh list from it is
    twin, _ = _problem(40, 3, False)
    assert not kernel.owns(twin) and not kernel.owns([*sets[:5], twin[5]])
    assert kernel.owns(kernel.constraint_sets())


def test_fused_monitor_checks_shape():
    sets, x = _problem(12, 0, False)
    with pytest.raises(InvalidSpecError, match="Interp: expected shape"):
        proximity_squared_sum(x[:-1], sets)
    with pytest.raises(InvalidSpecError, match="Interp: expected shape"):
        F.project_each(x[:-1], sets)
    with pytest.raises(InvalidSpecError, match="Interp: expected shape"):
        kernel_of(sets).score(x[:-1])


def test_product_projection_checks_shape():
    # a product point of the six sets has exactly six rows of length n, on
    # the fused path (the kernel's sets) and on the row-wise one (standalone)
    sets, x = _problem(12, 0, False)
    for c in (sets, _standalone(sets[0].kernel)):
        product_set = product.ProductSet(c)
        for bad in (np.tile(x, (7, 1)), np.tile(x, (5, 1)), x, np.tile(x, (1, 6, 1))):
            with pytest.raises(InvalidSpecError, match="expected a product point of 6 rows"):
                product_set.project(bad)
        with pytest.raises(InvalidSpecError, match=r"Interp: expected shape \(12,\), got \(11,\)"):
            product_set.project(np.tile(x[:-1], (6, 1)))


def _standalone(kernel):
    """The kernel's six sets built again without it: they take the per-set paths."""
    n = kernel.n
    return [
        InterpolationConstraint(kernel.interp, n),
        SlopeConstraint(kernel.slope, "even", n),
        SlopeConstraint(kernel.slope, "odd", n),
        *(CurvatureConstraint(kernel.curvature, kernel.bp, b) for b in (1, 2, 3)),
    ]


def test_a_problem_pickles_as_its_specs_after_its_kernel_has_run():
    # the arrays a kernel keeps after its first pass do not travel with the
    # problem to a pool worker
    problem = make_batch(0, count=1, nonconvex=True)[0]
    kernel = problem.sets[0].kernel
    fresh = pickle.dumps(problem)
    kernel.score(problem.v)[1]()
    kernel.project_rows(np.tile(problem.v, (6, 1)))
    assert len(pickle.dumps(problem)) == len(fresh)
    back = pickle.loads(fresh)
    assert back.sets[0].kernel.owns(back.sets)
    assert kernel_of(back.sets).score(problem.v)[0] == kernel.score(problem.v)[0]


def test_standalone_constraints_have_no_kernel():
    sets, x = _problem(12, 0, False)
    kernel = sets[0].kernel
    alone = _standalone(kernel)
    assert all(c.kernel is None for c in alone) and not kernel.owns(alone)
    # they take the generic sum, which the kernel's own sets match bitwise
    generic = float(sum(c.residual(x) ** 2 for c in alone))
    assert proximity_squared_sum(x, alone) == generic == proximity_squared_sum(x, sets)


@settings(max_examples=40, deadline=None)
@_examples
@given(**PROBLEMS)
def test_convex_projections_firmly_nonexpansive(n, seed, nonconvex):
    # ||Px - Py||^2 <= <Px - Py, x - y>; a nonconvex problem's slope sets are skipped
    sets, x = _problem(n, seed, nonconvex)
    rng = np.random.default_rng(seed)
    near = x + rng.normal(0.0, 1.0, n) * 10.0 ** rng.uniform(-3.0, 1.0)
    for y in (near, sets[0].project(x), x[::-1].copy()):
        dx = x - y
        for c in sets:
            if not getattr(c, "convex", True):
                continue
            dp = c.project(x) - c.project(y)
            assert dp @ dp <= dp @ dx + 1e-9 * (dx @ dx), c.tag


@settings(max_examples=40, deadline=None)
@_examples
@given(**PROBLEMS)
def test_single_curvature_operators_equal_reference(n, seed, nonconvex):
    sets, x = _problem(n, seed, nonconvex)
    bounds, bp = sets[3].bounds, sets[3].bp
    for i in range(0, n - 2, 1 + n // 16):
        for op in ("project", "intrepid"):
            want = _ref_curvature(x, bounds, bp, np.array([i]), op)
            assert on_triple(op, x, i, bounds, bp).tobytes() == want.tobytes(), (i, op)


# ------------------------------------------------------------ fused projections


def _with_edges(sets, x, seed, inf_alpha, inf_curvature):
    """The problem with some bounds made infinite, and x with some entries set to +-0.0."""
    kernel = sets[0].kernel
    rng = np.random.default_rng(seed)
    n = kernel.n
    alpha, beta = kernel.slope.alpha.copy(), kernel.slope.beta
    gamma, delta = kernel.curvature.gamma.copy(), kernel.curvature.delta.copy()
    if inf_alpha:
        alpha[rng.random(n - 1) < 0.3] = np.inf
    if inf_curvature:
        gamma[rng.random(n - 2) < 0.3] = np.inf
        delta[rng.random(n - 2) < 0.3] = -np.inf
    sets = ProfileKernel(
        kernel.interp, SlopeBounds(alpha, beta), CurvatureBounds(gamma, delta), kernel.bp
    ).constraint_sets()
    # neighbouring signed zeros give differences of +0.0 and -0.0: the band's tie
    zeros = np.where(rng.random(n) < 0.5, 0.0, -0.0)
    return sets, np.where(rng.random(n) < 0.4, zeros, x)


EDGES = dict(inf_alpha=st.booleans(), inf_curvature=st.booleans())


def _edge_examples(test):
    # n = 2 to 5 as in `_examples`, with infinite bounds
    for n in (2, 3, 4, 5):
        for nonconvex in (False, True):
            test = example(n=n, seed=n, nonconvex=nonconvex, inf_alpha=True, inf_curvature=True)(test)
    return test


@settings(max_examples=60, deadline=None)
@_edge_examples
@given(**PROBLEMS, **EDGES)
def test_project_each_rows_equal_the_sets_projections(n, seed, nonconvex, inf_alpha, inf_curvature):
    sets, x = _with_edges(*_problem(n, seed, nonconvex), seed, inf_alpha, inf_curvature)
    kernel = sets[0].kernel
    standalone = _standalone(kernel)
    # a batch profile: this problem between two others, whose pads keep their value
    other, y = _with_edges(*_problem(7, seed + 1, nonconvex), seed + 1, inf_alpha, inf_curvature)
    batch = lay_end_to_end([kernel_of(other), kernel, kernel_of(other)])
    batch_sets = batch.constraint_sets()
    for point in (x, sets[0].project(x), np.zeros(n)):
        rows = kernel.project_each(point)
        assert rows.shape == (6, n)
        for row, c in zip(rows, sets):
            assert row.tobytes() == c.project(point).tobytes(), c.tag
        assert F.project_each(point, sets).tobytes() == rows.tobytes()
        # the score's two halves: the per-set residual sum and the same rows
        (d2,), scored = kernel.score(point)
        assert d2.hex() == float(sum(c.residual(point) ** 2 for c in sets)).hex()
        assert d2.hex() == proximity_squared_sum(point, sets).hex()
        assert scored().tobytes() == rows.tobytes()
        (fused_d2,), fused_rows = kernel_of(sets).score(point)
        assert fused_d2.hex() == d2.hex() and fused_rows().tobytes() == rows.tobytes()
        # each row alone, from the same pass: on the kernel, per set, and on the batch
        per_set = kernel_of(standalone).score(point)[1]
        for i, c in enumerate(sets):
            assert scored.row(i).tobytes() == rows[i].tobytes(), c.tag
            assert per_set.row(i).tobytes() == rows[i].tobytes(), c.tag
        xb = batch.joined([y, point, y], np.full(batch.n, -0.0))
        batch_rows = batch.project_each(xb)
        batch_scored = batch.score(xb)[1]
        for i, c in enumerate(batch_sets):
            assert batch_rows[i].tobytes() == c.project(xb).tobytes(), c.tag
            assert batch_scored.row(i).tobytes() == batch_rows[i].tobytes(), c.tag


def _stacked_rows(parts, sets):
    return np.array([c.project(row) for c, row in zip(sets, parts)])


def _product_points(x, seed):
    """Product points of x: six copies, and six different rows with some +-0.0 entries."""
    rng = np.random.default_rng(seed)
    spread = np.where(np.isfinite(x), x, 0.0).std() + 1.0
    rows = x + rng.normal(0.0, spread, (6, x.size))
    zeros = np.where(rng.random(rows.shape) < 0.5, 0.0, -0.0)
    return np.tile(x, (6, 1)), np.where(rng.random(rows.shape) < 0.3, zeros, rows)


@settings(max_examples=60, deadline=None)
@_edge_examples
@given(**PROBLEMS, **EDGES)
def test_product_projection_equals_the_row_wise_stack(
    n, seed, nonconvex, inf_alpha, inf_curvature
):
    sets, x = _with_edges(*_problem(n, seed, nonconvex), seed, inf_alpha, inf_curvature)
    kernel = sets[0].kernel
    product_set = product.ProductSet(sets)
    assert product_set.project == kernel.project_rows  # the kernel's fused pass
    alone = product.ProductSet(_standalone(kernel))
    # the last point's rows lie on their sets
    for parts in (*_product_points(x, seed), kernel.project_each(x)):
        want = _stacked_rows(parts, sets).tobytes()
        assert kernel.project_rows(parts).tobytes() == want
        assert product_set.project(parts).tobytes() == want
        assert alone.project(parts).tobytes() == want
    # on six copies of x it is project_each(x)
    assert product_set.project(np.tile(x, (6, 1))).tobytes() == kernel.project_each(x).tobytes()


@settings(max_examples=25, deadline=None)
@given(
    length=st.sampled_from([500.0, 5000.0, 20000.0]),
    speed=st.sampled_from([30.0, 80.0]),
    seed=st.integers(0, 2**32 - 1),
    nonconvex=st.booleans(),
)
def test_product_projection_on_pardyk_and_badr_iterates(length, speed, seed, nonconvex):
    # the points ParDyk and baD-R project are z + xbar and (v + 2 xbar - x)/2:
    # the fused projection of each must be the row-wise stack, so the fused
    # and the standalone runs stay bitwise equal
    problem = generate(
        ProblemSpec(length=length, speed=speed, xi_max=100.0, seed=seed, nonconvex=nonconvex)
    )
    sets, alone = problem.sets, _standalone(problem.sets[0].kernel)
    kernel = sets[0].kernel
    for name in ("ParDyk", "baD-R"):
        fused = F.make_algorithm(name, sets, problem.v)
        generic = F.make_algorithm(name, alone, problem.v)
        for _ in range(20):
            fused.step()
            generic.step()
            assert fused.parts.tobytes() == generic.parts.tobytes(), name
            want = _stacked_rows(fused.parts, sets).tobytes()
            assert kernel.project_rows(fused.parts).tobytes() == want, name
        if name == "ParDyk":
            assert fused.z.tobytes() == generic.z.tobytes()


def _ref_parp(x, sets):
    return np.mean([c.project(x) for c in sets], axis=0)


def _ref_exparp(x, sets):
    # the per-set loop the fused step replaced
    disp, num = np.zeros_like(x), 0.0
    for c in sets:
        p = c.project(x)
        disp += p - x
        num += float(np.dot(p - x, p - x))
    den = float(np.dot(disp, disp))
    return x.copy() if num == 0.0 or den < 1e-30 else x + (num / den) * disp


def _ref_exaltp(x, sets):
    z = sets[0].project(x)
    acc, num = np.zeros_like(z), 0.0
    for c in sets[1:]:
        p = c.project(z)
        acc += p
        num += float(np.dot(p - z, p - z))
    p = sets[0].project(acc / (len(sets) - 1))
    den = (len(sets) - 1) * float(np.dot(p - z, p - z))
    return z + (1.0 if (num == 0.0 or den < 1e-30) else num / den) * (p - z)


@settings(max_examples=40, deadline=None)
@_edge_examples
@given(**PROBLEMS, **EDGES)
def test_fused_steps_equal_the_per_set_steps(n, seed, nonconvex, inf_alpha, inf_curvature):
    sets, x = _with_edges(*_problem(n, seed, nonconvex), seed, inf_alpha, inf_curvature)
    alone = _standalone(sets[0].kernel)
    assert kernel_of(sets) is sets[0].kernel and not isinstance(kernel_of(alone), ProfileKernel)
    steps = {F.parp_step: _ref_parp, F.exparp_step: _ref_exparp, F.exaltp_step: _ref_exaltp}
    for step, ref in steps.items():
        for point in (x, ref(x, sets)):
            want = ref(point, sets).tobytes()
            for on in (sets, alone):  # with and without the rows of project_each(point)
                assert step(point, on).tobytes() == want, step.__name__
                rows = kernel_of(on).project_each(point)
                assert step(point, on, rows).tobytes() == want, step.__name__


@settings(max_examples=25, deadline=None)
@given(
    length=st.sampled_from([500.0, 5000.0, 20000.0]),
    speed=st.sampled_from([30.0, 80.0]),
    seed=st.integers(0, 2**32 - 1),
    nonconvex=st.booleans(),
)
def test_fused_steps_equal_the_per_set_steps_on_generated_problems(length, speed, seed, nonconvex):
    problem = generate(
        ProblemSpec(length=length, speed=speed, xi_max=100.0, seed=seed, nonconvex=nonconvex)
    )
    sets, alone = problem.sets, _standalone(problem.sets[0].kernel)
    for name in ("ParP", "ExParP", "ExAltP"):
        fused = F.make_algorithm(name, sets, problem.v)
        generic = F.make_algorithm(name, alone, problem.v)
        for _ in range(20):
            fused.step()
            generic.step()
            assert fused.x.tobytes() == generic.x.tobytes(), name


# ------------------------------------------------------------ the monitor of a batch


def _same(a, b):
    # bitwise, the sign of a zero included; any NaN is any other
    return (math.isnan(a) and math.isnan(b)) or a.hex() == b.hex()


def _infinite_side(sets, at):
    """The problem with infinite curvature bounds around x[at], and x = 7 with x[at] = +inf.

    x[at] has weight tau > 0 in the triples at - 2 and at, whose gamma is
    made inf, and -(tau_i + tau_{i+1}) in the triple at - 1, whose delta is
    made -inf: each has s == c = +-inf, and its gap inf - inf is NaN.  No
    other triple of the point binds, so a test of s != c would skip all three.
    """
    kernel = sets[0].kernel
    gamma, delta = kernel.curvature.gamma.copy(), kernel.curvature.delta.copy()
    gamma[[at - 2, at]] = np.inf
    delta[at - 1] = -np.inf
    sets = ProfileKernel(
        kernel.interp, kernel.slope, CurvatureBounds(gamma, delta), kernel.bp
    ).constraint_sets()
    x = np.full(kernel.n, 7.0)
    x[at] = np.inf
    return sets, x


def _segment(n, seed, kind, nonconvex, edges):
    """One problem of a batch and its point: drawn, constant (every triple slack), with
    +-inf, NaN and -0.0 entries, or binding only through NaN gaps (`_infinite_side`)."""
    if kind == "infinite side":
        n = max(n, 5)
    sets, x = _with_edges(*_problem(n, seed, nonconvex), seed, *edges)
    if kind == "constant":
        x = np.full(n, 7.0)
    elif kind == "special":
        rng = np.random.default_rng(seed)
        special = np.array([np.inf, -np.inf, np.nan, -0.0])[rng.integers(0, 4, n)]
        x = np.where(rng.random(n) < 0.2, special, x)
    elif kind == "infinite side":
        sets, x = _infinite_side(sets, 2 + seed % (n - 4))
    return sets, x


SEGMENTS = st.lists(
    st.tuples(
        st.integers(2, 40),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["drawn", "constant", "special", "infinite side"]),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=80, deadline=None)
@example(segments=[(9, 1, "constant"), (12, 2, "drawn")], nonconvex=False, inf_alpha=False,
         inf_curvature=False)
@example(segments=[(7, 3, "drawn"), (8, 4, "infinite side")], nonconvex=True, inf_alpha=True,
         inf_curvature=True)
@example(segments=[(6, 5, "infinite side")], nonconvex=False, inf_alpha=False, inf_curvature=False)
@example(segments=[(2, 6, "special"), (3, 7, "constant"), (2, 8, "drawn")], nonconvex=True,
         inf_alpha=False, inf_curvature=True)
@given(segments=SEGMENTS, nonconvex=st.booleans(), **EDGES)
def test_a_batch_monitor_gives_each_segment_its_own_score_and_residual_sum(
    segments, nonconvex, inf_alpha, inf_curvature
):
    # a curvature block none of whose triples binds is left out of the monitor;
    # each segment's sum must still be bitwise its own kernel's and the per-set
    # residual sum, with slack and binding blocks side by side, pads of NaN,
    # and gaps that are NaN where s == c
    problems = [
        _segment(n, seed, kind, nonconvex, (inf_alpha, inf_curvature)) for n, seed, kind in segments
    ]
    batch = lay_end_to_end([kernel_of(sets) for sets, _ in problems])
    x = batch.joined([x for _, x in problems], np.full(batch.n, np.nan))
    with np.errstate(all="ignore"):
        got = batch.score(x)[0]
        assert len(got) == len(problems)
        slack = []
        for d2, (sets, xj) in zip(got, problems):
            assert _same(d2, kernel_of(sets).score(xj)[0][0])
            assert _same(d2, float(sum(c.residual(xj) ** 2 for c in sets)))
            slack += [c.residual(xj) == 0.0 for c in sets[3:] if xj.size > c.block + 1]
    if any(slack) and not all(slack):
        event("slack and binding curvature blocks in one batch")


def test_a_triple_whose_weight_underflows_to_0_always_binds():
    # at tau = 1e-170, ||u||^2 = t0^2 + t1^2 + (t0 + t1)^2 underflows to 0: a
    # triple with s == c has terms 0 * 0 / 0 = NaN, so its block cannot be skipped
    n = 8
    bp = Breakpoints(np.arange(n) * 1e-170)
    interp = InterpolationSpec([0, n - 1], [0.0, 0.0])
    slope = SlopeBounds(np.full(n - 1, 1.0))
    curvature = CurvatureBounds(np.ones(n - 2), -np.ones(n - 2))
    sets = ProfileKernel(interp, slope, curvature, bp).constraint_sets()
    x = np.zeros(n)  # every s is 0 exactly, and so is every gap
    with np.errstate(all="ignore"):
        assert all(math.isnan(c.residual(x)) for c in sets[3:])
        (d2,), _ = kernel_of(sets).score(x)
        assert math.isnan(d2)
        other, v = _problem(10, 0, False)
        batch = lay_end_to_end([kernel_of(other), kernel_of(sets)])
        got = batch.score(batch.joined([v, x], np.zeros(batch.n)))[0]
    assert _same(got[0], proximity_squared_sum(v, other)) and math.isnan(got[1])


# ------------------------------------------------------------ the driver's contract


@pytest.mark.parametrize("nonconvex", [False, True])
@pytest.mark.parametrize("seed", [0, 1])
def test_every_algorithm_scores_its_monitor_as_the_per_set_sum(seed, nonconvex):
    # `run` takes d from algo.segment_proximity2(algo.monitor()); that must be the
    # sum run would compute itself, bitwise, after every step: on the
    # kernel's sets (fused score) and on standalone sets (generic sums)
    problem = generate(
        ProblemSpec(length=2000.0, speed=80.0, xi_max=30.0, seed=seed, nonconvex=nonconvex)
    )
    for sets in (problem.sets, _standalone(problem.sets[0].kernel)):
        for name in F.ALGORITHMS:
            algo = F.make_algorithm(name, sets, problem.v)
            for k in range(25):
                x = algo.monitor()
                want = proximity_squared_sum(x, sets)
                assert [d.hex() for d in algo.segment_proximity2(x)] == [want.hex()], (name, k)
                try:
                    algo.step()
                except InfeasibleIntersectionError:
                    break


def _pinned_negative_zero(problem):
    """The problem with its first pinned elevation (Interp value 0) set to -0.0."""
    kernel = problem.sets[0].kernel
    values = kernel.interp.values.copy()
    values[0] = -0.0
    interp = InterpolationSpec(kernel.interp.indices, values)
    sets = ProfileKernel(interp, kernel.slope, kernel.curvature, kernel.bp).constraint_sets()
    return F.FeasibilityProblem(problem.v, sets, problem_id=problem.problem_id)


def test_exaltp_run_equals_its_steps_with_a_pinned_negative_zero():
    # ExAltP takes z = P_1 x from the rows of x's score, and reuses those
    # rows for z only if z is x bitwise.  With a pinned -0.0, x_{k+1}[0] is
    # z + mu (p - z) = -0.0 + 0.0 = +0.0, so z is never x: every step must
    # project z afresh, as `exaltp_step` does
    problem = _pinned_negative_zero(make_batch(0, count=2)[1])
    sets = F._affine_first(problem.sets)
    x = F.exaltp_step(problem.v, sets)
    assert np.signbit(sets[0].project(x)[0]) and not np.signbit(x[0])

    rec = F.run("ExAltP", problem)
    denom = proximity_squared_sum(problem.v, sets)
    x, trace = problem.v, [1.0]
    for _ in range(rec.iterations):
        x = F.exaltp_step(x, sets)
        trace.append(math.sqrt(proximity_squared_sum(x, sets) / denom))
    assert rec.converged and 0 < rec.iterations < 5000
    assert [d.hex() for d in rec.d_trace] == [d.hex() for d in trace]
    assert rec.final.tobytes() == x.tobytes()
