"""Batch profiles: every record of `run_batch` is the record `run` gives that problem alone."""

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from vertipy import bestapprox
from vertipy import feasibility as F
from vertipy.geometry import (
    Breakpoints,
    CurvatureBounds,
    InterpolationSpec,
    InvalidSpecError,
    SlopeBounds,
    kernel_of,
    lay_end_to_end,
)
from vertipy.metrics import StopRule
from vertipy.probgen import ProblemSpec, build_constraint_sets, generate, make_batch

LENGTHS = [50.0, 100.0, 200.0, 500.0]  # at 30 km/h: n = 2, 2-4, 4-8, 9-18


def _feasible_start(problem):
    """The problem with its pins moved so that its start, the chord at a 2% grade, is feasible."""
    kernel = kernel_of(problem.sets)
    t = problem.breakpoints.t
    v = problem.v[0] + 0.02 * t
    interp = InterpolationSpec([0, t.size - 1], [v[0], v[-1]])
    sets = build_constraint_sets(problem.breakpoints, interp, kernel.slope, kernel.curvature)
    feasible = F.FeasibilityProblem(v, sets, problem.breakpoints, problem.problem_id)
    assert F.start_proximity2(feasible) == 0.0
    return feasible


def _problems(specs, nonconvex, feasible_at):
    problems = [
        generate(ProblemSpec(length, 30.0, xi_max, seed, nonconvex, f"p{i}"))
        for i, (length, xi_max, seed) in enumerate(specs)
    ]
    problems[feasible_at] = _feasible_start(problems[feasible_at])
    return problems


def _key(record):
    return (
        record.problem_id,
        record.iterations,
        record.converged,
        np.asarray(record.d_trace, dtype=float).tobytes(),
        record.final.tobytes(),
        record.flags,
    )


def _batch_and_alone(name, problems, stop, **options):
    """The records of one batch, in the order they stop, and of each problem run alone."""
    batch = list(F.run_batch(name, problems, stop, **options))
    return batch, {p.problem_id: F.run(name, p, stop, **options) for p in problems}


@settings(max_examples=30, deadline=None)
@given(
    specs=st.lists(
        st.tuples(
            st.sampled_from(LENGTHS), st.sampled_from([30.0, 150.0]), st.integers(0, 2**32 - 1)
        ),
        min_size=1,
        max_size=4,
    ),
    nonconvex=st.booleans(),
    feasible_at=st.integers(0, 3),
    k_max=st.integers(1, 300),
    direction=st.sampled_from(["away", "toward"]),
)
def test_every_batch_record_is_the_record_of_its_problem_alone(
    specs, nonconvex, feasible_at, k_max, direction
):
    problems = _problems(specs, nonconvex, feasible_at % len(specs))
    stop = StopRule(k_max=k_max)
    for name in F.ALGORITHMS:
        batch, alone = _batch_and_alone(name, problems, stop, direction=direction)
        assert sorted(r.problem_id for r in batch) == sorted(alone), name
        for record in batch:
            assert _key(record) == _key(alone[record.problem_id]), (name, record.problem_id)
            assert record.algorithm == name and record.wall_time > 0.0
        if len({r.iterations for r in batch}) > 1:
            event("segments stop at different iterations")
        if any("stalled_at" in r.flags for r in batch):
            event("a segment stalls")


def _stopped_at(record):
    # the iteration at which a segment left its batch
    if "stalled_at" in record.flags:
        return record.flags["stalled_at"]
    return record.iterations + ("infeasible_signal" in record.flags)


def test_a_batch_stops_its_segments_one_by_one():
    # a fixed case of the kind the property test draws: n = 2, a feasible
    # start, segments that converge, stall and reach the cap at different iterations
    problems = _problems([(50.0, 30.0, 1), (500.0, 150.0, 2), (200.0, 30.0, 3)], True, 2)
    assert [p.v.size for p in problems] == [2, 17, 8]
    stop = StopRule(k_max=200)
    stalled = 0
    for name in F.ALGORITHMS:
        batch, alone = _batch_and_alone(name, problems, stop)
        assert [_key(r) for r in batch] == [_key(alone[r.problem_id]) for r in batch], name
        assert alone["p2"].d_trace == [0.0] and _stopped_at(alone["p2"]) == 0, name
        stalled += any("stalled_at" in r.flags for r in batch)
        stops = [_stopped_at(r) for r in batch]
        assert stops == sorted(stops), name  # yielded as each segment stops
    assert stalled > 0


@pytest.mark.parametrize("name", ["hCycP", "hParP", "hD-R"])
def test_a_segment_whose_q_signals_stops_alone(monkeypatch, name):
    # Q's branch signals on the middle problem's fifth call; that segment stops
    # with the flag and its last iterate, and the others run on as they do alone.
    # The branch sees one segment's x - y, so its length names the problem:
    # n is 17, 13 and 11, and 6n for hD-R's product points
    problems = make_batch(0, count=3)
    assert [p.v.size for p in problems] == [17, 13, 11]
    middle = {13, 6 * 13}
    calls = []
    q_branch = bestapprox.q_branch

    def signals_on_the_fifth_call(xy, yz):
        if xy.size in middle:
            calls.append(1)
            if len(calls) == 5:
                raise bestapprox.InfeasibleIntersectionError("injected")
        return q_branch(xy, yz)

    monkeypatch.setattr(bestapprox, "q_branch", signals_on_the_fifth_call)
    stop = StopRule(k_max=40)
    batch = list(F.run_batch(name, problems, stop))
    alone = {}
    for p in problems:
        calls.clear()
        alone[p.problem_id] = F.run(name, p, stop)
    assert batch[0].problem_id == "p0001" and batch[0].flags == {"infeasible_signal": "injected"}
    assert batch[0].iterations == 4 and not batch[0].converged
    assert sorted(_key(r) for r in batch) == sorted(_key(r) for r in alone.values()), name


# Q's branches: (a, b) with y - z = a (x - y) + b f, f orthogonal to x - y and as
# long.  b = 0 is collinear: Q = z for a > 0 and a signal for a < 0; for b > 0,
# Q cuts when a (a^2 + b^2) >= b^2 and projects into the interior otherwise
Q_BRANCHES = {
    "z is y": None,
    "collinear": ((0.5, 2.0), (0.0, 0.0)),
    "signal": ((-0.9, -0.1), (0.0, 0.0)),
    "cut": ((1.0, 2.0), (0.5, 1.0)),
    "interior": ((-1.0, 0.2), (1.0, 2.0)),
}


def _signed_zeros(rng, shape, where):
    return np.where(where, np.where(rng.random(shape) < 0.5, 0.0, -0.0), 1.0)


def _q_segment(rng, shape, branch):
    """x, y, z of one segment whose Q takes `branch`, with +-0.0 in some columns of all three."""
    zero = rng.random(shape) < 0.25
    zero.flat[:2] = False  # two nonzero columns span x - y and f
    y, e, g = (rng.normal(size=shape) * _signed_zeros(rng, shape, zero) for _ in range(3))
    x = y + e
    if Q_BRANCHES[branch] is None:
        return x, y, y * _signed_zeros(rng, shape, zero)  # z == y, with its zeros' signs redrawn
    f = g - (np.vdot(g, e) / np.vdot(e, e)) * e
    f *= np.sqrt(np.vdot(e, e) / np.vdot(f, f))
    (a, b) = (rng.uniform(*bounds) for bounds in Q_BRANCHES[branch])
    return x, y, y - (a * e + b * f)


def _q_kernel(m):
    # a profile kernel of m stations: only its layout matters to Q
    bp = Breakpoints(np.arange(float(m)))
    interp = InterpolationSpec([0, m - 1], [0.0, 0.0])
    slope, curvature = SlopeBounds(np.ones(m - 1)), CurvatureBounds(np.ones(m - 2), -np.ones(m - 2))
    return kernel_of(build_constraint_sets(bp, interp, slope, curvature))


@settings(max_examples=80, deadline=None)
@example(segments=[(3, "z is y"), (5, "collinear"), (2, "signal"), (4, "cut")], rows=0, seed=1)
@example(segments=[(4, "interior"), (3, "signal"), (6, "z is y")], rows=6, seed=2)
@example(segments=[(5, "signal")], rows=6, seed=3)
@example(segments=[(7, "interior")], rows=0, seed=4)
@given(
    segments=st.lists(
        st.tuples(st.integers(2, 9), st.sampled_from(sorted(Q_BRANCHES))), min_size=1, max_size=4
    ),
    rows=st.sampled_from([0, 6]),
    seed=st.integers(0, 2**32 - 1),
)
def test_batch_q_is_each_segments_own_q(segments, rows, seed):
    # `_q_each` takes x - y and y - z once over the profile and each segment's
    # branch from its slices; each segment's columns must be its own
    # `q_operator`, bitwise, on 1-D points and on (6, n) product points; a
    # segment that signals, and every pad column, keeps y
    rng = np.random.default_rng(seed)
    kernels = [_q_kernel(m) for m, _ in segments]
    kernel = kernels[0] if len(kernels) == 1 else lay_end_to_end(kernels)
    shape = (rows, kernel.n) if rows else (kernel.n,)
    x, y, z = (rng.normal(size=shape) for _ in range(3))  # the pads' columns
    for sl, (m, branch) in zip(kernel.segments, segments):
        x[..., sl], y[..., sl], z[..., sl] = _q_segment(rng, (rows, m) if rows else (m,), branch)
    out, signals = F._q_each(kernel, x, y, z)
    assert out.shape == shape
    signalled = {}
    for j, sl in enumerate(kernel.segments):
        xj, yj, zj = (a[..., sl] for a in (x, y, z))
        try:
            want = bestapprox.q_operator(xj.ravel(), yj.ravel(), zj.ravel()).reshape(yj.shape)
        except bestapprox.InfeasibleIntersectionError as exc:
            signalled[j], want = str(exc), yj
            event("a segment signals")
        else:
            chi, _, nu, rho = bestapprox.q_branch((xj - yj).ravel(), (yj - zj).ravel())
            event("Q = z" if rho == 0.0 else "cut" if chi * nu >= rho else "interior")
            assert rho != 0.0 or want.tobytes() == zj.tobytes()  # z, signed zeros included
        assert out[..., sl].tobytes() == want.tobytes(), (j, segments[j])
    assert signals == signalled
    pads = np.ones(kernel.n, dtype=bool)
    for sl in kernel.segments:
        pads[sl] = False
    assert out[..., pads].tobytes() == y[..., pads].tobytes()


@pytest.mark.parametrize("nonconvex", [False, True])
@pytest.mark.parametrize("name", sorted(F.ALGORITHMS))
def test_carried_state_steps_on_as_the_algorithm_it_came_from(name, nonconvex):
    # `_carried` moves only the state a class names and builds the rest again;
    # carried onto the same three segments after k steps, the algorithm must
    # step on exactly as the one it came from
    problems = make_batch(0, count=3, nonconvex=nonconvex)
    sets, v = F._lay_out(problems)
    options = {"direction": "away"}
    for k in (0, 1, 7, 60):
        algo = F.make_algorithm(name, sets, v, **options)
        for _ in range(k):
            algo.step()
        carried = F._carried(algo, [0, 1, 2], name, problems, options)
        for i in range(30):
            algo.step()
            carried.step()
            x, y = algo.monitor(), carried.monitor()
            assert y.tobytes() == x.tobytes(), (k, i)
            want = [d.hex() for d in algo.segment_proximity2(x)]
            assert [d.hex() for d in carried.segment_proximity2(y)] == want, (k, i)
            if hasattr(algo, "memoryless"):
                want = [algo.memoryless(j) for j in range(3)]
                assert [carried.memoryless(j) for j in range(3)] == want, (k, i)


def test_wall_time_is_the_share_of_the_batch():
    problems = make_batch(0, count=3)
    batch = list(F.run_batch("CycP", problems, StopRule(k_max=100)))
    assert all(r.wall_time > 0.0 for r in batch)
    # each iteration's time is split evenly among the segments it stepped, so a
    # segment that runs longer is charged at least what one that stopped earlier is
    by_stop = sorted(batch, key=_stopped_at)
    assert [r.wall_time for r in by_stop] == sorted(r.wall_time for r in by_stop)


def test_a_batch_profile_keeps_each_problem_on_its_parity_and_block():
    problems = make_batch(0, count=3, nonconvex=True)
    kernel = lay_end_to_end([kernel_of(p.sets) for p in problems])
    assert [sl.start % 6 for sl in kernel.segments] == [0, 0, 0]
    assert kernel.interp.indices[-1] == kernel.n - 1
    for sl, p in zip(kernel.segments, problems):
        own = kernel_of(p.sets)
        assert kernel.bp.tau[sl.start : sl.stop - 1].tobytes() == own.bp.tau.tobytes()
        x = np.zeros(kernel.n)
        x[sl] = p.v
        assert kernel.score(x)[0][kernel.segments.index(sl)] == own.score(p.v)[0][0]
        assert kernel.project_each(x)[:, sl].tobytes() == own.project_each(p.v).tobytes()


def test_each_and_joined_take_each_segment_on_its_own_columns():
    # a problem alone (its own kernel, or the per-set stand-in of any other
    # set list) hands fn its very arrays and takes its part back as it is
    problem = make_batch(0, count=1)[0]
    x, rows = problem.v, np.ones((6, problem.v.size))
    for kernel in (kernel_of(problem.sets), kernel_of(problem.sets[::-1])):
        (got,) = kernel.each(lambda *arrays: arrays, x, rows)
        assert got[0] is x and got[1] is rows
        part = np.zeros(x.size)
        assert kernel.joined([part], x) is part

    # a batch hands fn each segment's slices and writes the parts over a copy of base
    kernel = lay_end_to_end([kernel_of(p.sets) for p in make_batch(0, count=3)])
    n, segments = kernel.n, kernel.segments
    pads = np.ones(n, dtype=bool)
    for sl in segments:
        pads[sl] = False
    assert pads.any()
    x, rows = np.arange(n, dtype=float), np.arange(6.0 * n).reshape(6, n)
    got = kernel.each(lambda *arrays: arrays, x, rows)
    assert len(got) == len(segments) == 3
    for (xs, rs), sl in zip(got, segments):
        assert xs.tobytes() == x[sl].tobytes() and rs.tobytes() == rows[:, sl].tobytes()
    for base in (x, rows):
        before = base.copy()
        parts = [np.full(base[..., sl].shape, -1.0 - j) for j, sl in enumerate(segments)]
        out = kernel.joined(parts, base)
        assert out is not base and base.tobytes() == before.tobytes()
        for j, sl in enumerate(segments):
            assert (out[..., sl] == -1.0 - j).all()
        assert out[..., pads].tobytes() == base[..., pads].tobytes()


def test_a_batch_takes_problems_of_one_slope_kind():
    problems = [make_batch(0, count=1)[0], make_batch(0, count=1, nonconvex=True)[0]]
    with pytest.raises(InvalidSpecError, match="one slope kind"):
        list(F.run_batch("CycP", problems))


def test_a_batch_needs_at_least_one_problem():
    with pytest.raises(InvalidSpecError, match="at least one problem"):
        lay_end_to_end([])
    with pytest.raises(InvalidSpecError, match="at least one problem"):
        list(F.run_batch("CycP", []))


@pytest.mark.parametrize("name", ["hParP", "hCycP", "ParP", "CycP"])
def test_a_segment_with_slack_curvature_beside_one_where_it_binds(name):
    # the monitor leaves out a segment's curvature blocks where no triple binds:
    # while both run, p0001's iterates often leave all its curvature slack
    # where p0010's binds, and each record must still be its problem's own
    seeded = make_batch(0, count=11)
    problems = [seeded[1], seeded[10]]
    batch, alone = _batch_and_alone(name, problems, StopRule(k_max=300))
    assert [_key(r) for r in batch] == [_key(alone[r.problem_id]) for r in batch]
    assert {r.problem_id for r in batch} == {"p0001", "p0010"}
    algos = [F.make_algorithm(name, p.sets, p.v) for p in problems]
    mixed = 0
    for _ in range(min(r.iterations for r in batch)):
        slack = []
        for algo, p in zip(algos, problems):
            algo.step()
            slack.append(all(c.residual(algo.monitor()) == 0.0 for c in p.sets[3:]))
        mixed += slack == [True, False]
    assert mixed >= 10, mixed
