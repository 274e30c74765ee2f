"""Early exit at a bitwise fixed point: records match running to the cap."""

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from vertipy import feasibility as F
from vertipy.metrics import StopRule
from vertipy.probgen import ProblemSpec, generate, make_batch

STALLING = ["CycP", "CycP+", "ParP", "SaP", "ExParP", "ExAltP", *sorted(F.SUPERIORIZED_ALGORITHMS)]


def _convex_p0000():
    return make_batch(0, count=1)[0]


def _nonconvex_p0010():
    # the seed-0 nonconvex batch on the 30/80 km/h, xi_max 100 grid
    return make_batch(0, count=11, nonconvex=True, speeds=[30.0, 80.0], xi_max=[100.0])[10]


def _generic_monitor(x, sets):
    """The per-set residual sum, never the profile kernel's fused monitor."""
    return float(sum(c.residual(x) ** 2 for c in sets))


def _hand_run(name, problem, stop):
    """The loop and d formula of `feasibility.run`, stepped to the cap with no early exit."""
    algo = F.make_algorithm(name, problem.sets, problem.v)
    denom = _generic_monitor(problem.v, problem.sets)
    trace = [1.0]
    prev = problem.v
    for k in range(1, stop.k_max + 1):
        algo.step()
        x = algo.monitor()
        d = float(np.sqrt(_generic_monitor(x, problem.sets) / denom))
        trace.append(d)
        if d < stop.eps and (algo.kind != "ba" or float(np.linalg.norm(x - prev)) < stop.eps):
            return k, True, trace, x
        prev = x
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


@pytest.mark.parametrize("name", ["CycP", "ParP", "D-R", "sCycP", "hParP"])
def test_record_matches_generic_monitor_loop(name):
    # feasibility.run monitors through the fused kernel; the hand loop sums residuals
    problem = _convex_p0000()
    stop = StopRule(k_max=300)
    rec = F.run(name, problem, stop)
    iterations, converged, trace, final = _hand_run(name, problem, stop)
    assert "stalled_at" not in rec.flags
    assert (rec.iterations, rec.converged) == (iterations, converged)
    assert rec.d_trace == trace
    assert rec.final.tobytes() == final.tobytes()


def test_converged_runs_are_not_marked_stalled():
    problem = _convex_p0000()
    for name in ["CycP", "CycP+", "SaP", "ExAltP", "sCycP", "sCycP+"]:
        rec = F.run(name, problem)
        assert rec.converged, name
        assert "stalled_at" not in rec.flags, name


@pytest.mark.parametrize("k_max", [1200, 1201, 5000])
def test_two_cycle_record_matches_run_to_cap(k_max):
    # ExParP on this problem alternates between two states bitwise from pass
    # 937, so the state at pass 939 is the one at 937; the cap's parity picks
    # which of the two is final
    problem = _nonconvex_p0010()
    stop = StopRule(k_max=k_max)
    rec = F.run("ExParP", problem, stop)
    iterations, converged, trace, final = _hand_run("ExParP", problem, stop)
    assert rec.flags == {"stalled_at": 939, "period": 2}
    assert rec.iterations == iterations == k_max
    assert rec.converged is converged is False
    assert rec.d_trace == trace and trace[-1] != trace[-2]
    assert rec.final.tobytes() == final.tobytes()


def test_product_space_and_best_approximation_never_stall():
    # their tails need not be stationary, so they have no memoryless() for run to ask
    problem = _convex_p0000()
    for name in F.ALGORITHMS:
        algo = F.make_algorithm(name, problem.sets, problem.v)
        assert hasattr(algo, "memoryless") is (name in STALLING), name


def _state(algo):
    return algo.monitor().tobytes(), getattr(algo, "_d2", None)


def _exit_period(name, problem, k_max, direction="away"):
    """The period of `run`'s early exit, checked against a fresh algorithm; None without one.

    Stepped to the pass `stalled_at` and then `period` passes further, the
    fresh algorithm is back at the exit state bitwise, and a 2-cycle passes
    through a different state on the way.  The stop rule converges only at
    d = 0, so the run stops early only by the exit rule.
    """
    stop = StopRule(eps=np.nextafter(0.0, 1.0), k_max=k_max)
    rec = F.run(name, problem, stop, direction=direction)
    if "stalled_at" not in rec.flags:
        return None
    k, period = rec.flags["stalled_at"], rec.flags.get("period", 1)
    algo = F.make_algorithm(name, problem.sets, problem.v, direction=direction)
    for _ in range(k):
        algo.step()
    exit_state = _state(algo)
    passes = []
    for _ in range(period):
        algo.step()
        passes.append(_state(algo))
    assert passes[-1] == exit_state, (name, k, period)
    assert period == 1 or passes[0] != exit_state, (name, k)
    return period


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(F.FEASIBILITY_ALGORITHMS.keys() - {"D-R"})),
    seed=st.integers(0, 2**32 - 1),
    xi_max=st.sampled_from([30.0, 150.0]),
)
@example(name="ExParP", seed=-1, xi_max=100.0)  # seed -1: the seed-0 nonconvex p0010
def test_cycled_means_the_sweeps_alternate(name, seed, xi_max):
    if seed < 0:
        problem = _nonconvex_p0010()
    else:
        problem = generate(
            ProblemSpec(length=500.0, speed=30.0, xi_max=xi_max, seed=seed, nonconvex=True)
        )
    if _exit_period(name, problem, 1000) == 2:
        event(f"{name} cycled")


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
    if _exit_period(name, problem, 200, direction) == 1:
        event(f"{name} stalled")
