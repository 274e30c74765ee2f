"""Feasibility-seeking steps, the algorithm registry, and the run driver."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vertipy import feasibility as F
from vertipy import product, verify
from vertipy.feasibility import AlgorithmConfigError, FeasibilityProblem
from vertipy.geometry import InvalidSpecError, ProfileKernel, kernel_of
from vertipy.metrics import StopRule
from vertipy.probgen import make_batch
from vertipy.product import Diagonal, ProductSet
from vertipy.sets import HalfspaceSet, SlabSet, SpanSet


def _half_and_axis():
    """C_1 = {x_1 <= 0}, C_2 = the x-axis; intersection is the ray x_1 <= 0."""
    return [HalfspaceSet([1.0, 0.0], 0.0), SpanSet([[1.0, 0.0]])]


# ----------------------------------------------------- step operators

def test_step_operators_worked_example():
    sets = _half_and_axis()
    x = np.array([1.0, 1.0])
    # cyclic: (1,1) -> (0,1) -> (0,0)
    assert_allclose(F.cycp_step(x, sets), [0.0, 0.0], atol=1e-14)
    # parallel: mean of (0,1) and (1,0)
    assert_allclose(F.parp_step(x, sets), [0.5, 0.5], atol=1e-14)
    # string averaging: mean of the partial products (0,1) and (0,0)
    assert_allclose(F.sap_step(x, sets), [0.0, 0.5], atol=1e-14)
    # extrapolated parallel: both residuals have norm 1, the summed
    # displacement is (-1,-1), so the step doubles straight to the corner
    assert_allclose(F.exparp_step(x, sets), [0.0, 0.0], atol=1e-14)
    # extrapolated alternating (affine set first): z = (1,0), mu = 1
    assert_allclose(F.exaltp_step(x, [sets[1], sets[0]]), [0.0, 0.0], atol=1e-14)
    # on sets without an intrepid operator the intrepid sweep is plain cyclic
    assert_allclose(F.cycp_plus_step(x, sets), F.cycp_step(x, sets), atol=0)
    # a slab's intrepid rule reflects across the violated face, (1.5,1) -> (0.5,1),
    # where its projection stops on the face, (1.5,1) -> (1,1)
    slab_and_axis = [SlabSet([1.0, 0.0], -1.0, 1.0), sets[1]]
    assert_allclose(F.cycp_plus_step([1.5, 1.0], slab_and_axis), [0.5, 0.0], atol=1e-14)
    assert_allclose(F.cycp_step([1.5, 1.0], slab_and_axis), [1.0, 0.0], atol=1e-14)


def test_step_operators_identity_on_intersection():
    sets = _half_and_axis()
    x = np.array([-2.0, 0.0])
    for step in (F.cycp_step, F.cycp_plus_step, F.parp_step, F.sap_step, F.exparp_step):
        assert_allclose(step(x, sets), x, atol=1e-14)
    assert_allclose(F.exaltp_step(x, [sets[1], sets[0]]), x, atol=1e-14)


class _FixedRow:
    """A stand-in set whose projection is a fixed row (a fresh copy each call)."""

    def __init__(self, row):
        self.row = row

    def project(self, x):
        return self.row.copy()


def test_parp_step_is_np_mean_bitwise(rng):
    # rows over many decades, with columns of -0.0, which np.mean turns into +0.0
    for m in range(1, 8):
        for n in (1, 7, 90, 650):
            rows = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-8, 9, size=(m, 1))
            rows[:, rng.random(n) < 0.2] = -0.0
            out = F.parp_step(np.zeros(n), [_FixedRow(r) for r in rows])
            assert out.tobytes() == np.mean(list(rows), axis=0).tobytes(), (m, n)


def test_exaltp_requires_affine_first():
    sets = _half_and_axis()
    with pytest.raises(AlgorithmConfigError):
        F.exaltp_step([1.0, 1.0], sets)  # halfspace first: rejected


def test_dr_step_one_round():
    sets = _half_and_axis()
    parts = np.array([[1.0, 1.0], [1.0, 1.0]])
    out = F.dr_two_set_step(parts, ProductSet(sets), Diagonal())
    # xbar = (1,1); row i becomes x_i - xbar + P_i(2 xbar - x_i) = P_i(1,1)
    assert_allclose(out, [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)


def test_two_set_dr_and_admm_agree_one_instance():
    # with b_0 in B and u_0 = 0, the sequences match via x_k = a_k + u_{k-1}
    # and P_B x_k = b_k
    a, b_set = _half_and_axis()
    b = b_set.project(np.array([1.0, 1.0]))
    u = np.zeros(2)
    xk = b.copy()
    for _ in range(12):
        u_prev = u
        ak, b, u = F.admm_two_set_step(b, u, a, b_set)
        xk = F.dr_two_set_step(xk, a, b_set)
        assert_allclose(xk, ak + u_prev, atol=1e-12)
        assert_allclose(b_set.project(xk), b, atol=1e-12)


# ----------------------------------------------------------- registry

def test_registry_contents():
    assert set(F.FEASIBILITY_ALGORITHMS) == {
        "CycP", "CycP+", "ParP", "SaP", "ExParP", "ExAltP", "D-R",
    }
    assert set(F.SUPERIORIZED_ALGORITHMS) == {
        "sCycP", "sCycP+", "sParP", "sSaP", "sExParP", "sExAltP",
    }
    assert set(F.BEST_APPROXIMATION_ALGORITHMS) == {
        "H-W", "CycDyk", "ParDyk", "hCycP", "hParP", "hD-R", "baD-R",
    }
    assert set(F.ALGORITHMS) == (
        set(F.FEASIBILITY_ALGORITHMS)
        | set(F.SUPERIORIZED_ALGORITHMS)
        | set(F.BEST_APPROXIMATION_ALGORITHMS)
    )


def test_make_algorithm_errors_and_options():
    sets = _half_and_axis()
    v = np.array([1.0, 1.0])
    with pytest.raises(AlgorithmConfigError):
        F.make_algorithm("NoSuch", sets, v)
    toward = F.make_algorithm("sCycP", sets, v, direction="toward")
    assert toward.sign == -1.0
    away = F.make_algorithm("sCycP", sets, v)
    assert away.sign == 1.0
    # every algorithm takes direction; it steers only the superiorized family
    for name in F.ALGORITHMS:
        algo = F.make_algorithm(name, sets, v, direction="toward")
        assert getattr(algo, "sign", -1.0) == -1.0, name


@pytest.mark.parametrize("option", ["parts0", "start_d2", "directon"])
def test_make_algorithm_and_run_reject_an_unknown_option(option):
    # a removed or misspelled option raises instead of being ignored
    sets = _half_and_axis()
    v = np.array([1.0, 1.0])
    for name in ("D-R", "hD-R", "sCycP", "CycP"):
        with pytest.raises(AlgorithmConfigError, match=option):
            F.make_algorithm(name, sets, v, **{option: 1.0})
    for start in (v, [-1.0, 0.0]):  # the feasible start does not hide it either
        prob = FeasibilityProblem(v=start, sets=sets)
        with pytest.raises(AlgorithmConfigError, match=option):
            F.run("CycP", prob, **{option: 1.0})


def test_make_algorithm_checks_direction_for_every_algorithm():
    sets = _half_and_axis()
    v = np.array([1.0, 1.0])
    for name in F.ALGORITHMS:
        with pytest.raises(InvalidSpecError, match="sideways"):
            F.make_algorithm(name, sets, v, direction="sideways")
        for direction in ("away", "toward"):
            F.make_algorithm(name, sets, v, direction=direction)
    with pytest.raises(InvalidSpecError, match="sideways"):
        F.run("CycP", FeasibilityProblem(v=v, sets=sets), direction="sideways")


def test_every_algorithm_rejects_an_empty_set_list():
    for name in F.ALGORITHMS:
        with pytest.raises(InvalidSpecError):
            F.make_algorithm(name, [], np.array([1.0, 1.0]))


def test_a_run_resolves_its_set_list_once(monkeypatch):
    # the steps and monitors take the kernel the algorithm resolved, so the
    # number of ProfileKernel.owns calls does not grow with the passes
    problem = make_batch(0, count=1)[0]
    calls = []
    owns = ProfileKernel.owns
    counted = lambda self, sets: calls.append(1) or owns(self, sets)  # noqa: E731
    monkeypatch.setattr(ProfileKernel, "owns", counted)
    for name in F.ALGORITHMS:
        counts = []
        for k_max in (30, 300):
            calls.clear()
            F.run(name, problem, StopRule(k_max=k_max))
            counts.append(len(calls))
        assert counts == [1, 1], name


def test_exaltp_algorithm_reorders_affine_first():
    sets = _half_and_axis()  # affine set is second
    algo = F.make_algorithm("ExAltP", sets, np.array([1.0, 1.0]))
    assert algo.sets[0] is sets[1]
    with pytest.raises(AlgorithmConfigError):
        F.make_algorithm("ExAltP", [sets[0], sets[0]], np.array([1.0, 1.0]))


# --------------------------------------------------------------- run()

def test_problem_validation():
    sets = _half_and_axis()
    with pytest.raises(InvalidSpecError):
        FeasibilityProblem(v=[1.0, 1.0], sets=sets[:1])
    with pytest.raises(InvalidSpecError):
        FeasibilityProblem(v=[1.0, 1.0, 1.0], sets=sets)
    prob = FeasibilityProblem(v=[1.0, 1.0], sets=sets)
    assert prob.m == 2


def test_run_converges_on_easy_instance():
    prob = FeasibilityProblem(v=[1.0, 1.0], sets=_half_and_axis())
    for name in ("CycP", "CycP+", "ParP", "SaP", "ExParP", "ExAltP", "D-R"):
        rec = F.run(name, prob, StopRule(eps=1e-6, k_max=200))
        assert rec.converged, name
        assert rec.d_trace[0] == 1.0
        assert len(rec.d_trace) == rec.iterations + 1
        assert rec.d_trace[-1] < 1e-6
        assert rec.final[0] <= 1e-6 and abs(rec.final[1]) < 1e-6, name
        assert rec.algorithm == name and rec.problem_id == "p0"


def test_run_feasible_start_short_circuits():
    # three sets, so that the mean of m copies of v (a product-space method's
    # monitored point) differs from v in the last bit: final must be v itself
    v = np.array([-0.1, 0.0])
    assert np.mean([v, v, v], axis=0).tobytes() != v.tobytes()
    prob = FeasibilityProblem(v=v, sets=[*_half_and_axis(), HalfspaceSet([1.0, 1.0], 0.0)])
    for name in F.ALGORITHMS:
        rec = F.run(name, prob)
        assert rec.iterations == 0, name
        assert rec.converged, name
        assert rec.d_trace == [0.0], name
        assert rec.final.tobytes() == v.tobytes(), name
        assert rec.flags == {}, name


def test_run_unknown_algorithm():
    prob = FeasibilityProblem(v=[1.0, 1.0], sets=_half_and_axis())
    with pytest.raises(AlgorithmConfigError):
        F.run("Newton", prob)
    # a feasible start does not hide the unknown name behind a converged record
    feasible = FeasibilityProblem(v=[-1.0, 0.0], sets=_half_and_axis())
    with pytest.raises(AlgorithmConfigError):
        F.run("Newton", feasible)


def test_run_scores_a_repeated_monitored_point_once(monkeypatch):
    # hCycP and CycDyk often monitor the same point twice in a row; run then
    # repeats its d instead of asking segment_proximity2, and the trace does not change
    problem = make_batch(0, count=1)[0]
    monitored, scored = [], []
    make = F.make_algorithm

    def instrumented(*args, **options):
        algo = make(*args, **options)
        monitor, proximity2 = algo.monitor, algo.segment_proximity2
        algo.monitor = lambda: monitored.append(monitor()) or monitored[-1]
        algo.segment_proximity2 = lambda x: scored.append(x) or proximity2(x)
        return algo

    monkeypatch.setattr(F, "make_algorithm", instrumented)
    for name in ("hCycP", "CycDyk"):
        monitored.clear()
        scored.clear()
        rec = F.run(name, problem, StopRule(k_max=300))
        points = [problem.v] + monitored[: rec.iterations]  # the last call gives the final
        fresh = sum(a.tobytes() != b.tobytes() for a, b in zip(points, points[1:]))
        assert len(scored) == 1 + fresh < 1 + rec.iterations, name  # 1: the normalizer
        kernel = kernel_of(problem.sets)
        (denom,) = kernel.score(problem.v)[0]
        want = [math.sqrt(kernel.score(x)[0][0] / denom) for x in points]
        assert [d.hex() for d in rec.d_trace] == [d.hex() for d in want], name


def test_product_methods_average_the_rows_once_per_iteration(monkeypatch):
    # the monitor's average after step k is the one step k + 1 starts from
    problem = make_batch(0, count=1)[0]
    calls = []
    average = product.diagonal_part
    monkeypatch.setattr(product, "diagonal_part", lambda parts: calls.append(1) or average(parts))
    for name in ("D-R", "ParDyk", "baD-R", "hD-R"):
        calls.clear()
        rec = F.run(name, problem, StopRule(k_max=200))
        assert rec.iterations > 1
        assert len(calls) <= rec.iterations + 1, name


# ------------------------------------------- the period-2 splitting orbit

def _run_from_cycling_start(monkeypatch, name, stop):
    """`run` on the cycling sets with the product-space algorithm moved to the
    orbit's product start; hD-R is also anchored there."""
    make = F.make_algorithm

    def from_cycling_start(*args, **options):
        algo = make(*args, **options)
        algo.parts = verify.cycling_start()
        if hasattr(algo, "_anchor"):
            algo._anchor = verify.cycling_start()
        return algo

    monkeypatch.setattr(F, "make_algorithm", from_cycling_start)
    prob = FeasibilityProblem(v=[-1.0, 0.0], sets=verify.cycling_sets(), problem_id="cyc")
    return F.run(name, prob, stop)


def test_dr_cycles_from_product_start(monkeypatch):
    """From the special product start, the splitting iterates have period 2
    and the monitor alternates between two points; the run never converges."""
    rec = _run_from_cycling_start(monkeypatch, "D-R", StopRule(eps=1e-6, k_max=100))
    assert not rec.converged
    assert rec.iterations == 100
    # both monitor points sit at the same normalized proximity as v
    assert_allclose(rec.d_trace, np.ones(101), atol=1e-12)
    assert_allclose(rec.final, [-1.0, 0.0], atol=1e-12)


def test_dr_orbit_is_exactly_period_two():
    product_set, diagonal = ProductSet(verify.cycling_sets()), Diagonal()
    even = verify.cycling_start()
    odd = np.array([[-1.0, 0.0], [1.0, -2.0]])
    parts = even.copy()
    for k in range(1, 9):
        parts = F.dr_two_set_step(parts, product_set, diagonal)
        assert_allclose(parts, odd if k % 2 else even, atol=1e-12)


def test_dr_tiled_start_converges_on_cycling_sets():
    # the orbit needs the engineered product start: the default tiled start
    # (v, v) collapses to a scalar recursion and converges immediately
    sets = verify.cycling_sets()
    prob = FeasibilityProblem(v=[-1.0, 0.0], sets=sets, problem_id="cyc")
    rec = F.run("D-R", prob, StopRule(eps=1e-9, k_max=100))
    assert rec.converged and rec.iterations == 2
    assert_allclose(rec.final, [-3.0, 2.0], atol=1e-9)


def test_hdr_infeasibility_signal_from_product_start(monkeypatch):
    """The anchored-and-cut variant halts with a certificate when the
    anchored cut becomes empty (the splitting target returns to the anchor),
    and the run records the flag instead of raising."""
    rec = _run_from_cycling_start(monkeypatch, "hD-R", StopRule(eps=1e-9, k_max=100))
    assert not rec.converged
    assert rec.iterations == 1
    assert "infeasible_signal" in rec.flags
    assert "chi" in rec.flags["infeasible_signal"]


def test_hdr_tiled_start_converges_on_cycling_sets():
    sets = verify.cycling_sets()
    prob = FeasibilityProblem(v=[-1.0, 0.0], sets=sets, problem_id="cyc")
    rec = F.run("hD-R", prob, StopRule(eps=1e-9, k_max=100))
    assert rec.converged and rec.iterations == 3
    assert rec.flags == {}
    assert_allclose(rec.final, [-3.0, 2.0], atol=1e-9)


def test_anchored_dr_geometric_tail_on_cycling_sets():
    # the anchored splitting halves its distance each round once it locks on
    prob = FeasibilityProblem(v=[-1.0, 0.0], sets=verify.cycling_sets(), problem_id="cyc")
    rec = F.run("baD-R", prob, StopRule(eps=5e-3, k_max=200))
    assert rec.converged and rec.iterations == 10
    assert rec.d_trace[-1] == pytest.approx(2.0 ** -10, rel=1e-9)
    assert_allclose(rec.final, [-3.0 + 2.0 ** -9, 2.0 - 2.0 ** -9], atol=1e-12)


def test_halpern_anchor_is_slow_not_wrong():
    # the anchor-averaged method approaches the same limit at a 1/k rate:
    # still above eps after 200 rounds, monotone along the tail
    prob = FeasibilityProblem(v=[-1.0, 0.0], sets=verify.cycling_sets(), problem_id="cyc")
    rec = F.run("H-W", prob, StopRule(eps=5e-3, k_max=200))
    assert not rec.converged
    assert rec.iterations == 200
    tail = np.array(rec.d_trace[5:])
    assert np.all(np.diff(tail) <= 1e-15)
    assert rec.d_trace[-1] == pytest.approx(5e-3, abs=2e-4)
