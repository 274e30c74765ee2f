"""Problem generator: determinism, postconditions, and the parameter grid."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from vertipy import probgen, storage
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


def test_bad_spec_fails_before_any_draw():
    # a length that would need more than MAX_STATIONS stations, or one that
    # is not finite, is rejected before the per-station loop could start
    for length in (1e9, 1e300, float("inf"), float("nan")):
        with pytest.raises(InvalidSpecError):
            probgen.point_count_range(length, 30.0)
    for bad in ({"length": float("inf")}, {"length": float("nan")}, {"speed": float("nan")},
                {"xi_max": float("nan")}, {"xi_max": float("inf")}, {"length": -1.0}):
        with pytest.raises(InvalidSpecError):
            ProblemSpec(**{"length": 500.0, "speed": 30.0, "xi_max": 30.0, "seed": 0, **bad})
    # the largest station count on the default grid stays well inside the cap
    assert max(
        probgen.point_count_range(length, speed)[1]
        for length in probgen.DEFAULT_LENGTHS
        for speed in probgen.DEFAULT_SPEEDS
    ) == 712


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
    assert abs(v[-1] - v[0]) <= 0.9 * prob.meta["sigma_max"] * bp.t[-1] + 1e-9
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
    assert_allclose(slope.bounds.alpha, prob.meta["sigma_max"] * prob.breakpoints.tau, atol=0)
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


@pytest.mark.parametrize(
    "k_table",
    [
        [1, 2],  # not a mapping
        {"30": "abc"},
        {"30": "15"},  # a K value is a number, not a string of one
        {"30": None},
        {"30": True},
        {"30": 0},  # gamma = inf: unbounded curvature
        {"30": -5.0},
        {"30": float("inf")},
        {"30": float("nan")},
        {"fast": 15.0},
    ],
)
def test_malformed_k_table_rejected(k_table):
    spec = ProblemSpec(length=1000.0, speed=30.0, xi_max=60.0, seed=0)
    with pytest.raises(InvalidSpecError, match="k_table"):
        probgen.generate(spec, k_table)


def test_k_value_too_small_for_a_finite_curvature_bound_rejected():
    spec = ProblemSpec(length=1000.0, speed=30.0, xi_max=60.0, seed=0)
    with pytest.raises(InvalidSpecError, match="curvature bound is infinite"):
        probgen.generate(spec, {"30": 1e-320})
    # a JSON key is a string of the speed; a tiny K whose bounds stay finite is taken
    prob = probgen.generate(spec, {"30": 1e-300})
    assert np.all(np.isfinite(prob.sets[0].kernel.curvature.gamma))


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


GRID = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "grid.json").read_text())


def _digest(problems) -> str:
    """sha256 over the float64 bytes of every problem's t, v, bounds and interpolation spec."""
    h = hashlib.sha256()
    for prob in problems:
        kernel = prob.sets[0].kernel
        slope, curv, interp = kernel.slope, kernel.curvature, kernel.interp
        beta = () if slope.beta is None else slope.beta
        for values in (prob.breakpoints.t, prob.v, slope.alpha, beta, curv.gamma, curv.delta,
                       interp.indices, interp.values):
            h.update(np.asarray(values, dtype=float).tobytes())
    return h.hexdigest()


def _widened(problems) -> int:
    """How many gaps the widen-the-gap fallback stretched to the design spacing 0.625 V."""
    return sum(
        int(np.sum(np.isclose(p.breakpoints.tau, 0.625 * p.meta["speed"], rtol=1e-9, atol=0.0)))
        for p in problems
    )


# each batch as the generator drew it with one rng.uniform call per candidate elevation
PINNED = pytest.mark.parametrize(
    "seed, count, nonconvex, grid, digest, widened",
    [
        (0, 100, False, {},
         "f6f10f8b0bf48b8b749fd8d663e89f6f10b4f37156b1e991968fb0feb4d97779", 784),
        (0, 100, True, {},
         "86546c211864b66b05c042c49a539862823fc6dac9c75deed19a6239b9907a73", 784),
        (1, 100, False, {},
         "a866e0442d814cc301487b43a30cea1ae778e1c8604941e5c8d50aa0f4bf4584", 424),
        (1, 100, True, {},
         "69911397896cda02d1e01425469bcee78044c7d9f94d62273142fb4c09aa0699", 424),
        (0, 20, False, GRID,
         "871c8e13f7285a686a2f45fdd58ad63cf4c8e34b5b34214a7eeea3d0232bceea", 0),
        (0, 20, True, GRID,
         "3833c167448761f754233ce8dc6cafe3b7c5bf0ca9dc07a0a7a4e7d6e58412ba", 0),
    ],
    ids=["seed0", "seed0-nonconvex", "seed1", "seed1-nonconvex", "grid", "grid-nonconvex"],
)


@PINNED
def test_batches_are_pinned_bitwise(seed, count, nonconvex, grid, digest, widened):
    problems = probgen.make_batch(seed, count=count, nonconvex=nonconvex, **grid)
    assert _digest(problems) == digest
    # the default grid's narrow elevation ranges take the fallback and its 101st draw
    assert _widened(problems) == widened


@PINNED
def test_saved_batches_load_back_pinned_bitwise(tmp_path, seed, count, nonconvex, grid, digest,
                                                widened):
    # the files leave the bounds out; the loader rebuilds them from t and the meta
    for problem in probgen.make_batch(seed, count=count, nonconvex=nonconvex, **grid):
        storage.save_problem(problem, tmp_path / f"{problem.problem_id}.json")
    loaded = storage.load_problem_dir(tmp_path)
    assert _digest(loaded) == digest
    assert not any("slope" in json.loads(path.read_text())["constraints"]
                   for path in tmp_path.iterdir())


def test_design_bounds_are_the_road_model():
    spec = ProblemSpec(length=1000.0, speed=50.0, xi_max=60.0, seed=4, nonconvex=True)
    problem = probgen.generate(spec)
    tau = problem.breakpoints.tau
    slope, curv = probgen.design_bounds(problem.breakpoints, problem.meta)
    k = probgen.default_curvature_table()[50.0]
    assert slope.alpha.tobytes() == (0.04 * tau).tobytes()
    assert slope.beta.tobytes() == (0.005 * tau).tobytes()
    assert curv.gamma.tobytes() == (np.minimum(tau[:-1], tau[1:]) / (100.0 * k)).tobytes()
    assert curv.delta.tobytes() == (-curv.gamma).tobytes()
    convex = {**problem.meta, "nonconvex": False}
    assert probgen.design_bounds(problem.breakpoints, convex)[0].beta is None
    for key, value, match in [
        ("nonconvex", 1, "nonconvex is not a boolean"),
        ("sigma_max", "0.04", "sigma_max is not a number"),
        ("curvature_k", 0.0, "curvature_k must be positive and finite"),
        ("curvature_k", float("nan"), "curvature_k must be positive and finite"),
        ("curvature_k", 1e-320, "curvature bound is infinite"),
    ]:
        with pytest.raises(InvalidSpecError, match=match):
            probgen.design_bounds(problem.breakpoints, {**problem.meta, key: value})
    meta = dict(problem.meta)
    del meta["curvature_k"]
    with pytest.raises(KeyError):
        probgen.design_bounds(problem.breakpoints, meta)


def test_make_batch_reads_the_k_table_once(monkeypatch):
    reads, read = [], probgen.default_curvature_table
    monkeypatch.setattr(probgen, "default_curvature_table", lambda: reads.append(1) or read())
    assert len(probgen.make_batch(0, count=25)) == 25
    assert len(reads) == 1


def test_make_batch_checks_a_malformed_k_table_before_any_draw(monkeypatch):
    monkeypatch.setattr(probgen, "generate", lambda *args: pytest.fail("a problem was drawn"))
    with pytest.raises(InvalidSpecError, match="k_table"):
        probgen.make_batch(0, count=3, k_table={"30": 0})
