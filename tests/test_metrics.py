"""Proximity measure, performance profiles, proximity curves, distance stats."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from vertipy import metrics
from vertipy.geometry import InvalidSpecError
from vertipy.metrics import (
    MAX_ITERATIONS,
    RunRecord,
    StopRule,
    UndefinedNormalizerError,
    distance_stats,
    performance_profile,
    proximity,
    proximity_squared_sum,
    relative_proximity_curve,
)
from vertipy.sets import HalfspaceSet


def _rec(pid, alg, iterations, converged, trace=(1.0,), final=(0.0, 0.0)):
    return RunRecord(
        problem_id=pid,
        algorithm=alg,
        iterations=iterations,
        converged=converged,
        d_trace=list(trace),
        final=np.asarray(final, dtype=float),
    )


# ------------------------------------------------------------- proximity

def test_proximity_halfway():
    sets = [HalfspaceSet([1.0, 0.0], 0.0), HalfspaceSet([0.0, 1.0], 0.0)]
    x0 = np.array([1.0, 1.0])
    assert proximity_squared_sum(x0, sets) == pytest.approx(2.0)
    # halving both residuals halves d
    assert proximity([0.5, 0.5], sets, x0) == pytest.approx(0.5)
    assert proximity(x0, sets, x0) == pytest.approx(1.0)
    assert proximity([-1.0, -2.0], sets, x0) == 0.0


def test_proximity_feasible_start_is_undefined():
    sets = [HalfspaceSet([1.0, 0.0], 0.0), HalfspaceSet([0.0, 1.0], 0.0)]
    with pytest.raises(UndefinedNormalizerError):
        proximity([1.0, 1.0], sets, [-1.0, -1.0])


def test_stop_rule_validation():
    assert StopRule().eps == 5e-3
    assert StopRule().k_max == 5000
    with pytest.raises(InvalidSpecError):
        StopRule(eps=0.0)
    with pytest.raises(InvalidSpecError, match="k_max must be at least 1"):
        StopRule(k_max=0)
    # every record holds k_max + 1 trace entries: a stalled run at k_max = 10**13
    # asked for its whole tail at once
    assert StopRule(k_max=MAX_ITERATIONS).k_max == MAX_ITERATIONS
    for k_max in (MAX_ITERATIONS + 1, 10**13):
        with pytest.raises(InvalidSpecError, match=f"k_max must be at most {MAX_ITERATIONS}"):
            StopRule(k_max=k_max)


# ---------------------------------------------------- performance profile

def test_profile_step_at_one_doubling():
    # A solves in 10, B in 20: B's curve steps from 0 to 1 exactly at kappa=1
    records = [_rec("p0", "A", 10, True), _rec("p0", "B", 20, True)]
    kappa, rho = performance_profile(records)
    assert_allclose(rho["A"], np.ones_like(kappa), atol=0)
    assert_allclose(rho["B"], (kappa >= 1.0).astype(float), atol=0)
    # grid reaches log2(k_max) so every full-batch curve ends at 1
    assert kappa[-1] >= np.log2(20)


def test_profile_nonconvergent_runs_enter_at_cap():
    records = [_rec("p0", "A", 10, True), _rec("p0", "B", 60, False)]
    kappa, rho = performance_profile(records, k_max=100)
    # B is charged 100 iterations: ratio 10, log2 = 3.3219
    step = np.log2(10.0)
    assert_allclose(rho["B"], (kappa >= step).astype(float), atol=0)


def test_profile_zero_iteration_minimum():
    # a feasible batch start gives k_min = 0: every ratio collapses to 1
    records = [_rec("p0", "A", 0, True), _rec("p0", "B", 7, True)]
    kappa, rho = performance_profile(records, kappa_grid=[0.0, 1.0])
    assert_allclose(rho["A"], [1.0, 1.0], atol=0)
    assert_allclose(rho["B"], [1.0, 1.0], atol=0)


def test_profile_multiple_problems_fractions():
    records = [
        _rec("p0", "A", 10, True), _rec("p0", "B", 10, True),
        _rec("p1", "A", 10, True), _rec("p1", "B", 80, True),
    ]
    kappa, rho = performance_profile(records, kappa_grid=[0.0, 2.9, 3.0])
    assert_allclose(rho["A"], [1.0, 1.0, 1.0], atol=0)
    # B ties on p0 (ratio 1) and is 8x slower on p1 (log2 = 3)
    assert_allclose(rho["B"], [0.5, 0.5, 1.0], atol=0)


def _rho_per_kappa(records, k_max, kappa_grid):
    # the profile as one count per (algorithm, kappa), the definition read literally
    by_problem = {}
    for r in records:
        by_problem.setdefault(r.problem_id, {})[r.algorithm] = r.iterations if r.converged else k_max
    log_ratios = {}
    for ks in by_problem.values():
        kmin = min(ks.values())
        for a, k in ks.items():
            log_ratios.setdefault(a, []).append(math.log2(1.0 if kmin == 0 else k / kmin))
    n = len(by_problem)
    return {
        a: np.array([(np.asarray(lr) <= kappa).sum() / n for kappa in kappa_grid])
        for a, lr in log_ratios.items()
    }


def test_profile_counts_every_kappa_at_once_as_the_per_kappa_loop():
    rng = np.random.default_rng(5)
    k_max = 512
    records = []
    for p in range(30):
        for a in ("A", "B", "C", "D"):
            if a == "D" and p % 3 == 0:
                continue  # D skipped some problems
            # powers of two put log-ratios exactly on the grid's integers
            k = int(2 ** rng.integers(0, 9)) if p % 2 else int(rng.integers(0, 600))
            records.append(_rec(f"p{p:02d}", a, min(k, k_max), bool(rng.random() < 0.8)))
    default_grid, _ = performance_profile(records, k_max=k_max)
    grids = [default_grid, [0.0, 1.0, 2.0, 3.0, 8.0, 9.5]]
    # a grid of the log-ratios themselves: every one sits exactly on a grid point
    grids.append(sorted({math.log2(k / d) for k in range(1, 600) for d in (1, 2, 7)}))
    for grid in grids:
        kappa, rho = performance_profile(records, k_max=k_max, kappa_grid=grid)
        want = _rho_per_kappa(records, k_max, kappa)
        assert rho.keys() == want.keys()
        for a in rho:
            assert rho[a].dtype == want[a].dtype
            assert rho[a].tobytes() == want[a].tobytes(), a


def test_profile_requires_records():
    with pytest.raises(InvalidSpecError):
        performance_profile([])


# ------------------------------------------------------- proximity curve

def test_curve_decibel_values():
    # two runs of one algorithm: mean d^2 at k=1 is (1 + 0)/2 -> -3.0103 dB
    records = [
        _rec("p0", "A", 1, True, trace=[1.0, 1.0]),
        _rec("p1", "A", 1, True, trace=[1.0, 0.0]),
    ]
    ks, beta = relative_proximity_curve(records)
    assert_allclose(ks, [0, 1])
    assert beta["A"][0] == pytest.approx(0.0, abs=1e-12)
    assert beta["A"][1] == pytest.approx(10.0 * np.log10(0.5), abs=1e-10)  # -3.0103
    # a single run ending at d = 0.1 sits at exactly -20 dB
    ks, beta = relative_proximity_curve([_rec("p0", "B", 1, True, trace=[1.0, 0.1])])
    assert beta["B"][1] == pytest.approx(-20.0, abs=1e-10)


def test_curve_pads_short_traces_with_final_value():
    records = [
        _rec("p0", "A", 0, True, trace=[1.0]),
        _rec("p1", "A", 2, True, trace=[1.0, 0.5, 0.5]),
    ]
    ks, beta = relative_proximity_curve(records)
    assert len(ks) == 3
    # k=2: mean of 1.0^2 (padded) and 0.5^2
    assert beta["A"][2] == pytest.approx(10.0 * np.log10(0.625), abs=1e-10)


def test_curve_exact_zero_is_minus_infinity():
    ks, beta = relative_proximity_curve([_rec("p0", "A", 1, True, trace=[1.0, 0.0])])
    assert beta["A"][1] == -np.inf


def _padded_curve(records):
    """The curve as first written: every padded trace stacked, then one mean per algorithm."""
    length = max(len(r.d_trace) for r in records)
    by_alg: dict = {}
    for rec in records:
        trace = np.asarray(rec.d_trace, dtype=float)
        padded = np.concatenate([trace, np.full(length - trace.size, trace[-1])])
        by_alg.setdefault(rec.algorithm, []).append(padded)
    beta = {}
    for a, traces in by_alg.items():
        with np.errstate(divide="ignore"):
            beta[a] = 10.0 * np.log10(np.mean(np.square(traces), axis=0))
    return np.arange(length), beta


_TRACE_VALUES = st.floats(0.0, 1.0) | st.sampled_from([0.0, 1e-300, 5e-3, 1.0])


@settings(max_examples=200, deadline=None)
@given(
    runs=st.lists(
        st.tuples(
            st.sampled_from(["CycP", "ParP", "D-R", "sSaP"]),
            st.lists(_TRACE_VALUES, min_size=1, max_size=12),
            st.booleans(),
        ),
        min_size=1,
        max_size=25,
    ),
    order=st.randoms(use_true_random=False),
)
@example(runs=[("A", [0.3], False), ("A", [0.7], True), ("B", [0.1], False)], order=None)
def test_curve_equals_the_padded_formula_bitwise(runs, order):
    # unequal lengths, length-1 traces, several algorithms, shuffled record order;
    # traces come as lists (from run) and float64 arrays (from a record file)
    records = [
        _rec(f"p{i}", alg, len(trace) - 1, True, trace=trace)
        for i, (alg, trace, _) in enumerate(runs)
    ]
    for rec, (_, _, as_array) in zip(records, runs):
        if as_array:
            rec.d_trace = np.asarray(rec.d_trace, dtype=float)
    if order is not None:
        order.shuffle(records)
    ks, beta = relative_proximity_curve(records)
    want_ks, want = _padded_curve(records)
    assert ks.tolist() == want_ks.tolist()
    assert list(beta) == list(want)
    for a in want:
        assert beta[a].tobytes() == want[a].tobytes(), a


# -------------------------------------------------------- distance stats

def test_distance_stats_five_point_summary():
    # one algorithm, five problems, ||v|| = 1, distances 1, 2, 3, 4, 10
    records = []
    v_by = {}
    for i, dist in enumerate([1.0, 2.0, 3.0, 4.0, 10.0]):
        pid = f"p{i}"
        v_by[pid] = np.array([1.0, 0.0])
        records.append(_rec(pid, "A", 5, True, final=(1.0 + dist, 0.0)))
    stats, per_problem = distance_stats(records, v_by)
    s = stats["A"]
    assert s["min"] == pytest.approx(1.0)
    assert s["q1"] == pytest.approx(2.0)
    assert s["median"] == pytest.approx(3.0)
    assert s["q3"] == pytest.approx(4.0)
    assert s["max"] == pytest.approx(10.0)
    assert s["mean"] == pytest.approx(4.0)
    assert s["std"] == pytest.approx(np.sqrt(10.0))  # population convention
    assert per_problem["A"]["p4"] == pytest.approx(10.0)
    assert set(metrics.STAT_FIELDS) == set(s)


def test_distance_stats_batch_max_penalty():
    # the non-convergent run is charged the worst final distance on its
    # problem, not its own (possibly flattering) early stop
    v_by = {"p0": np.array([2.0, 0.0])}
    records = [
        _rec("p0", "A", 5, True, final=(1.0, 0.0)),     # Delta = 0.5
        _rec("p0", "B", 5000, False, final=(1.8, 0.0)),  # own 0.1 -> charged 0.5
    ]
    stats, per_problem = distance_stats(records, v_by)
    assert per_problem["A"]["p0"] == pytest.approx(0.5)
    assert per_problem["B"]["p0"] == pytest.approx(0.5)
    # a non-convergent run that is itself the worst keeps its own value
    records[1] = _rec("p0", "B", 5000, False, final=(0.0, 0.0))  # Delta = 1.0
    stats, per_problem = distance_stats(records, v_by)
    assert per_problem["B"]["p0"] == pytest.approx(1.0)
    assert per_problem["A"]["p0"] == pytest.approx(0.5)  # converged: unaffected


def test_distance_stats_zero_anchor_excluded():
    v_by = {"p0": np.zeros(2), "p1": np.array([1.0, 0.0])}
    records = [
        _rec("p0", "A", 5, True, final=(0.0, 0.0)),
        _rec("p1", "A", 5, True, final=(0.5, 0.0)),
    ]
    with pytest.warns(UserWarning, match="excluded 1 problem"):
        stats, per_problem = distance_stats(records, v_by)
    assert list(per_problem["A"]) == ["p1"]
    with pytest.raises(InvalidSpecError):
        with pytest.warns(UserWarning):
            distance_stats(records[:1], {"p0": np.zeros(2)})


def test_distance_stats_requires_records():
    with pytest.raises(InvalidSpecError):
        distance_stats([], {})


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(
        st.floats(allow_nan=False).map(lambda x: x or 0.0)
        | st.sampled_from([0.0, 0.5, 1.0, 3.0, math.nan]),
        min_size=1,
        max_size=40,
    )
)
def test_quartiles_equal_np_percentile_bitwise(values):
    # -0.0 becomes 0.0, as numpy's partial sort may order a tie of -0.0 and 0.0 either
    # way; the one NaN is the one JSON decodes, as a NaN's payload may move the same way
    values = np.asarray(values, dtype=float)
    with np.errstate(invalid="ignore"):
        want = np.percentile(values, [25, 50, 75], method="linear")
    assert np.asarray(metrics._quartiles(values)).tobytes() == want.tobytes()
