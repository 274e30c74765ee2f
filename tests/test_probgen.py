"""Problem generator: determinism, postconditions, and the parameter grid."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from vertipy import probgen
from vertipy.feasibility import FeasibilityProblem
from vertipy.geometry import InvalidSpecError
from vertipy.probgen import ProblemSpec


def test_point_count_range_frozen():
    # unit = min(0.625 * 30, 30) = 18.75: lo = ceil(500/56.25) = 9,
    # hi = floor(1 + 500/28.125) = 18
    assert probgen.point_count_range(500.0, 30.0) == (9, 18)
    # the per-interval unit saturates at 30 m for fast roads
    assert probgen.point_count_range(1000.0, 100.0) == (12, 23)
    with pytest.raises(InvalidSpecError):
        probgen.point_count_range(10.0, 100.0)


def test_curvature_table_covers_default_speeds():
    table = probgen.default_curvature_table()
    for speed in probgen.DEFAULT_SPEEDS:
        assert float(speed) in table
        assert table[float(speed)] > 0


def test_generate_is_deterministic():
    spec = ProblemSpec(length=1000.0, speed=50.0, xi_max=60.0, seed=1234)
    p1 = probgen.generate(spec)
    p2 = probgen.generate(spec)
    assert_allclose(p1.v, p2.v, atol=0)
    assert_allclose(p1.breakpoints.t, p2.breakpoints.t, atol=0)
    q = probgen.generate(ProblemSpec(length=1000.0, speed=50.0, xi_max=60.0, seed=1235))
    assert p1.v.shape != q.v.shape or not np.allclose(p1.v, q.v)


@settings(max_examples=100, deadline=None)
@given(
    length=st.floats(100.0, 20000.0),
    xi_max=st.floats(1.0, 200.0),
    speed=st.sampled_from(sorted(probgen.default_curvature_table())),
    seed=st.integers(0, 2**32 - 1),
    nonconvex=st.booleans(),
)
def test_generate_postconditions(length, xi_max, speed, seed, nonconvex):
    spec = ProblemSpec(length=length, speed=speed, xi_max=xi_max, seed=seed, nonconvex=nonconvex)
    prob = probgen.generate(spec)
    v, bp = prob.v, prob.breakpoints
    lo, hi = probgen.point_count_range(length, speed)
    assert lo <= v.size <= hi
    # stations start at 0, strictly increasing, and span the length; a gap
    # stretched to the design spacing makes the span longer
    assert bp.t[0] == 0.0
    assert np.all(bp.tau > 0)
    assert bp.t[-1] >= length * (1.0 - 1e-12)
    if not np.any(np.isclose(bp.tau, 0.625 * speed, rtol=1e-9, atol=0.0)):
        assert bp.t[-1] == pytest.approx(length)
    # consecutive stations keep the 2-D design spacing
    assert np.all(np.hypot(bp.tau, np.diff(v)) >= 0.625 * speed - 1e-9)
    # elevations live in [0, xi_max]
    assert np.all((v >= 0.0) & (v <= xi_max))
    # the pinned chord stays within the grade window, and on convex specs the
    # straight chord is feasible for all six sets
    assert abs(v[-1] - v[0]) <= 0.9 * spec.sigma_max * bp.t[-1] + 1e-9
    if not nonconvex:
        chord = np.interp(bp.t, bp.t[[0, -1]], v[[0, -1]])
        for c in prob.sets:
            assert c.residual(chord) <= 1e-9, c.tag


def test_generate_constraint_sets_structure():
    spec = ProblemSpec(length=1000.0, speed=50.0, xi_max=60.0, seed=7)
    prob = probgen.generate(spec)
    tags = [c.tag for c in prob.sets]
    assert tags == ["Interp", "SlopeEven", "SlopeOdd", "Curv1", "Curv2", "Curv3"]
    assert prob.sets[0].kernel.owns(prob.sets)
    # interpolation pins the generated endpoints
    interp = prob.sets[0]
    assert_allclose(interp.spec.values, [prob.v[0], prob.v[-1]], atol=0)
    # slope caps are per-interval grade times interval length
    slope = prob.sets[1]
    assert_allclose(slope.bounds.alpha, spec.sigma_max * prob.breakpoints.tau, atol=0)
    assert slope.bounds.beta is None


def test_generate_nonconvex_adds_minimum_grade():
    spec = ProblemSpec(length=1000.0, speed=50.0, xi_max=60.0, seed=7, nonconvex=True)
    prob = probgen.generate(spec)
    slope = prob.sets[1]
    assert slope.bounds.beta is not None
    assert_allclose(slope.bounds.beta, 0.005 * prob.breakpoints.tau, atol=0)
    assert prob.meta["nonconvex"] is True


def test_generate_unknown_speed_rejected():
    with pytest.raises(InvalidSpecError):
        probgen.generate(ProblemSpec(length=1000.0, speed=55.0, xi_max=60.0, seed=0))
    # a custom table can add the speed
    prob = probgen.generate(
        ProblemSpec(length=1000.0, speed=55.0, xi_max=60.0, seed=0),
        k_table={55.0: 15.0},
    )
    assert prob.meta["curvature_k"] == 15.0


def test_child_seed_injective_prefix():
    seeds = {probgen.child_seed(20260815, i) for i in range(1000)}
    assert len(seeds) == 1000
    # and stable across calls
    assert probgen.child_seed(20260815, 42) == probgen.child_seed(20260815, 42)
    assert probgen.child_seed(20260815, 42) != probgen.child_seed(20260816, 42)


def test_make_batch_cycles_grid():
    problems = probgen.make_batch(20260815, count=25)
    assert len(problems) == 25
    assert [p.problem_id for p in problems] == [f"p{i:04d}" for i in range(25)]
    grid = [
        (p.meta["length"], p.meta["speed"], p.meta["xi_max"]) for p in problems
    ]
    # the grid walks the cross product in order without repeats until wrap
    assert len(set(grid)) == 25
    assert grid[0] == (500.0, 30.0, 30.0)
    assert grid[1] == (500.0, 30.0, 60.0)
    # batch generation is reproducible
    again = probgen.make_batch(20260815, count=25)
    for p, q in zip(problems, again):
        assert_allclose(p.v, q.v, atol=0)
    with pytest.raises(InvalidSpecError):
        probgen.make_batch(20260815, count=0)


@pytest.mark.parametrize("axis", ["lengths", "speeds", "xi_max"])
def test_make_batch_rejects_empty_grid(axis):
    with pytest.raises(InvalidSpecError, match="grid is empty"):
        probgen.make_batch(0, count=1, **{axis: []})


def test_make_batch_full_grid_is_unique():
    problems = probgen.make_batch(1, count=100)
    grid = {(p.meta["length"], p.meta["speed"], p.meta["xi_max"]) for p in problems}
    assert len(grid) == 100  # 5 lengths x 4 speeds x 5 ceilings


def test_generated_problem_plugs_into_run():
    from vertipy import feasibility as F
    from vertipy.metrics import StopRule

    prob = probgen.generate(ProblemSpec(length=500.0, speed=30.0, xi_max=30.0, seed=3))
    assert isinstance(prob, FeasibilityProblem)
    rec = F.run("CycP", prob, StopRule(eps=5e-3, k_max=2000))
    assert rec.converged
    assert rec.d_trace[-1] < 5e-3
