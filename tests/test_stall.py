"""Early exit at a bitwise fixed point: records match running to the cap."""

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from vertipy import feasibility as F
from vertipy.metrics import StopRule, proximity_squared_sum
from vertipy.probgen import ProblemSpec, generate, make_batch

STALLING = ["CycP", "CycP+", "ParP", "SaP", "ExParP", "ExAltP", *sorted(F.SUPERIORIZED_ALGORITHMS)]


def _convex_p0000():
    return make_batch(0, count=1)[0]


def _nonconvex_p0010():
    # the seed-0 nonconvex batch on the 30/80 km/h, xi_max 100 grid
    return make_batch(0, count=11, nonconvex=True, speeds=[30.0, 80.0], xi_max=[100.0])[10]


def _hand_run(name, problem, stop):
    """The loop and d formula of `feasibility.run`, stepped to the cap with no early exit."""
    algo = F.make_algorithm(name, problem.sets, problem.v)
    denom = proximity_squared_sum(problem.v, problem.sets)
    trace = [1.0]
    for k in range(1, stop.k_max + 1):
        algo.step()
        d = float(np.sqrt(proximity_squared_sum(algo.monitor(), problem.sets) / denom))
        trace.append(d)
        if d < stop.eps:
            return k, True, trace, algo.monitor()
    return stop.k_max, False, trace, algo.monitor()


@pytest.mark.parametrize(
    "name, problem, k_max",
    [
        ("sExParP", _convex_p0000, 300),
        ("sExAltP", _convex_p0000, 300),
        ("CycP", _nonconvex_p0010, 600),
    ],
)
def test_stalled_record_matches_run_to_cap(name, problem, k_max):
    problem = problem()
    stop = StopRule(k_max=k_max)
    rec = F.run(name, problem, stop)
    iterations, converged, trace, final = _hand_run(name, problem, stop)
    assert 0 < rec.flags["stalled_at"] < k_max
    assert rec.iterations == iterations == k_max
    assert rec.converged is converged is False
    assert rec.d_trace == trace
    assert np.array_equal(rec.final, final)


def test_converged_runs_are_not_marked_stalled():
    problem = _convex_p0000()
    for name in ["CycP", "CycP+", "SaP", "ExAltP", "sCycP", "sCycP+"]:
        rec = F.run(name, problem)
        assert rec.converged, name
        assert "stalled_at" not in rec.flags, name


def test_two_cycle_runs_to_the_cap():
    # ExParP on this problem settles into a bitwise 2-cycle, not a fixed point
    rec = F.run("ExParP", _nonconvex_p0010())
    assert rec.iterations == 5000 and not rec.converged
    assert "stalled_at" not in rec.flags


def test_product_space_and_best_approximation_never_stall():
    # their tails need not be stationary, so they have no stalled() to ask
    problem = _convex_p0000()
    for name in ["D-R", *F.BEST_APPROXIMATION_ALGORITHMS]:
        assert not hasattr(F.make_algorithm(name, problem.sets, problem.v), "stalled"), name


def _state(algo):
    return algo.x.tobytes(), getattr(algo, "_d2", None)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(STALLING),
    seed=st.integers(0, 2**32 - 1),
    nonconvex=st.booleans(),
    xi_max=st.sampled_from([30.0, 150.0]),
    direction=st.sampled_from(["away", "toward"]),
)
def test_stalled_means_next_step_changes_nothing(name, seed, nonconvex, xi_max, direction):
    problem = generate(
        ProblemSpec(length=500.0, speed=30.0, xi_max=xi_max, seed=seed, nonconvex=nonconvex)
    )
    algo = F.make_algorithm(name, problem.sets, problem.v, direction=direction)
    assert not algo.stalled()
    for _ in range(200):
        algo.step()
        if algo.stalled():
            event(f"{name} stalled")
            before = _state(algo)
            algo.step()
            assert _state(algo) == before
            assert algo.stalled()
            return
