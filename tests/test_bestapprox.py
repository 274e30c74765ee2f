"""Best-approximation methods: three-point operator Q, Dykstra, anchored D-R."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vertipy import bestapprox as BA
from vertipy import feasibility as F
from vertipy.bestapprox import InfeasibleIntersectionError, q_operator
from vertipy.feasibility import FeasibilityProblem
from vertipy.geometry import InvalidSpecError
from vertipy.metrics import StopRule
from vertipy.sets import BallSet, HalfspaceSet, SpanSet


# ---------------------------------------------------------------- Q

def test_q_operator_cut_and_project_case():
    # x=(0,0), y=(1,1), z=(2,1): chi=1, mu=2, nu=1, rho=1, chi*nu >= rho.
    # H(x,y) = {u1+u2 >= 2}, H(y,z) = {u1 >= 2}: nearest point is (2,0).
    assert_allclose(q_operator([0.0, 0.0], [1.0, 1.0], [2.0, 1.0]), [2.0, 0.0], atol=1e-14)


def test_q_operator_interior_case():
    # x=(0,0), y=(1,0), z=(0.5,1): chi=-0.5, rho=1 > chi*nu.
    # H(x,y) = {u1 >= 1}, H(y,z) = {0.5 u1 - u2 + 0.75 <= 0}: both active at
    # the projection (1, 1.25) (KKT multipliers 3.25, 2.5 >= 0).
    assert_allclose(q_operator([0.0, 0.0], [1.0, 0.0], [0.5, 1.0]), [1.0, 1.25], atol=1e-14)


def test_q_operator_collinear_forward():
    # z beyond y on the ray from x: H(x,y) contains z, Q = z
    assert_allclose(q_operator([0.0, 0.0], [1.0, 0.0], [2.0, 0.0]), [2.0, 0.0], atol=0)


def test_q_operator_degenerate_points():
    assert_allclose(q_operator([0.0, 0.0], [1.0, 0.0], [1.0, 0.0]), [1.0, 0.0], atol=0)
    assert_allclose(q_operator([1.0, 0.0], [1.0, 0.0], [3.0, 2.0]), [3.0, 2.0], atol=0)


def test_q_operator_infeasibility_signal():
    # z strictly between x and y: H(x,y) = {u1 >= 1}, H(y,z) = {u1 <= 0.5}
    with pytest.raises(InfeasibleIntersectionError):
        q_operator([0.0, 0.0], [1.0, 0.0], [0.5, 0.0])


def test_q_operator_near_collinear_is_not_a_false_signal():
    # a thin but nonempty wedge must not raise; the projection is far away
    out = q_operator([0.0, 0.0], [1.0, 0.0], [0.5, 1e-6])
    assert out[0] == pytest.approx(1.0, abs=1e-9)
    assert out[1] > 1e4
    # at roundoff scale the triple is collinear and the signal fires
    with pytest.raises(InfeasibleIntersectionError):
        q_operator([0.0, 0.0], [1.0, 0.0], [0.5, 1e-16])


def test_q_operator_is_projection_onto_halfspace_pair(rng):
    # brute-force check of the closed form against a generic QP solve by
    # projected alternating projections on the two halfspaces
    for _ in range(30):
        x = rng.uniform(-2, 2, 3)
        y = rng.uniform(-2, 2, 3)
        z = rng.uniform(-2, 2, 3)
        try:
            out = q_operator(x, y, z)
        except InfeasibleIntersectionError:
            continue
        h1 = HalfspaceSet(x - y, float(np.dot(x - y, y)))
        h2 = HalfspaceSet(y - z, float(np.dot(y - z, z)))
        # feasibility
        assert h1.residual(out) < 1e-8 and h2.residual(out) < 1e-8
        # optimality among random feasible points
        for _ in range(20):
            w = rng.uniform(-4, 4, 3)
            for _ in range(400):
                w = h2.project(h1.project(w))
            if h1.residual(w) < 1e-10 and h2.residual(w) < 1e-10:
                assert np.linalg.norm(x - out) <= np.linalg.norm(x - w) + 1e-6


# -------------------------------------------------- two-set recursions

def _dykstra_round(algo):
    """Two CyclicDykstra steps on two sets: one projection onto each."""
    algo.step()
    algo.step()
    return algo.monitor()


def test_dykstra_two_set_halving():
    # diagonal and axis lines: the Dykstra b-iterates are (2^-k, 0) exactly
    diag = SpanSet([[1.0, 1.0]])
    axis = SpanSet([[1.0, 0.0]])
    algo = F.CyclicDykstra([diag, axis], [1.0, 0.0])
    for k in range(1, 31):
        assert_allclose(_dykstra_round(algo), [0.5 ** k, 0.0], atol=1e-10)


def test_disk_line_second_iterates_differ():
    # Dykstra and the anchored splitting agree at step 1 and split at step 2;
    # both second iterates have closed forms
    disk = BallSet([0.0, 1.0], 1.0)
    line = SpanSet([[1.0, 0.0]])
    v = np.array([1.0, 0.0])

    algo = F.CyclicDykstra([disk, line], v)
    bs = [_dykstra_round(algo).copy() for _ in range(2)]

    x = v.copy()
    ys = []
    for _ in range(2):
        x = BA.badr_two_set_step(x, v, disk, line)
        ys.append(line.project(x))

    first = math.sqrt(2.0) / 2.0
    b2 = 2.0 / math.sqrt(22.0 - 8.0 * math.sqrt(2.0))
    y2 = 0.5 * (math.sqrt(2.0) + 2.0) / math.sqrt(11.0 - 2.0 * math.sqrt(2.0))
    assert_allclose(bs[0], [first, 0.0], atol=1e-12)
    assert_allclose(ys[0], [first, 0.0], atol=1e-12)
    assert_allclose(bs[1], [b2, 0.0], atol=1e-12)
    assert_allclose(ys[1], [y2, 0.0], atol=1e-12)
    assert np.linalg.norm(bs[1] - ys[1]) > 0.01


def test_cyclic_dykstra_class_matches_two_set_recursion():
    # the per-projection class bookkeeping must reproduce the two-set rounds
    # a = P_A(b + p), p' = b + p - a, b' = P_B(a + q), q' = a + q - b'
    disk = BallSet([0.0, 1.0], 1.0)
    line = SpanSet([[1.0, 0.0]])
    v = np.array([1.0, 0.0])
    algo = F.CyclicDykstra([disk, line], v)
    b, p, q = v.copy(), np.zeros(2), np.zeros(2)
    for _ in range(8):
        a = disk.project(b + p)
        p = b + p - a
        b = line.project(a + q)
        q = a + q - b
        algo.step()  # projection onto the disk
        algo.step()  # projection onto the line
        assert_allclose(algo.monitor(), b, atol=1e-12)


# ------------------------------------------------------- full methods

def _half_disk():
    """Lower half-disk; the anchor (0.3, 2) has nearest point (0.3, 0),
    while a plain feasibility sweep lands at (0.3/||v||, 0) instead."""
    sets = [BallSet([0.0, 0.0], 1.0), HalfspaceSet([0.0, 1.0], 0.0)]
    return FeasibilityProblem(v=[0.3, 2.0], sets=sets, problem_id="halfdisk")


def test_feasibility_alone_misses_the_nearest_point():
    rec = F.run("CycP", _half_disk(), StopRule(eps=1e-8, k_max=50))
    assert rec.converged
    assert_allclose(rec.final, [0.3 / np.linalg.norm([0.3, 2.0]), 0.0], atol=1e-8)


def test_anchored_methods_find_the_nearest_point():
    target = np.array([0.3, 0.0])
    tight = {"CycDyk": 1e-6, "hCycP": 1e-9, "hD-R": 1e-6}
    for name in ("CycDyk", "ParDyk", "hCycP", "hParP", "hD-R", "baD-R"):
        rec = F.run(name, _half_disk(), StopRule(eps=1e-5, k_max=2000))
        assert rec.converged, name
        assert np.linalg.norm(rec.final - target) < tight.get(name, 5e-5), name


def test_haugazeau_cyclic_is_finite_here():
    rec = F.run("hCycP", _half_disk(), StopRule(eps=1e-9, k_max=100))
    assert rec.converged and rec.iterations <= 5
    assert_allclose(rec.final, [0.3, 0.0], atol=1e-9)


def test_halpern_converges_slowly():
    # anchored cyclic projections go at a 1/k rate: not done by 2000 rounds,
    # but already within 1e-3 of the nearest point
    rec = F.run("H-W", _half_disk(), StopRule(eps=1e-5, k_max=2000))
    assert not rec.converged
    assert np.linalg.norm(rec.final - [0.3, 0.0]) < 1.5e-3


def test_infeasible_pair_raises_through_the_q_methods():
    bad = [HalfspaceSet([1.0, 0.0], 0.0), HalfspaceSet([-1.0, 0.0], -1.0)]
    prob = FeasibilityProblem(v=[2.0, 0.0], sets=bad, problem_id="empty")
    rec = F.run("hCycP", prob, StopRule(eps=1e-9, k_max=500))
    assert not rec.converged
    assert "infeasible_signal" in rec.flags


def test_hdr_starts_and_anchors_at_the_tiled_start():
    # hD-R takes no product start: it starts from, and is anchored at, (v, v)
    sets = [HalfspaceSet([1.0, 0.0], 0.0), SpanSet([[1.0, 0.0]])]
    algo = F.HaugazeauDouglasRachford(sets, [1.0, 1.0])
    assert_allclose(algo.parts, np.ones((2, 2)), atol=0)
    assert_allclose(algo._anchor, np.ones((2, 2)), atol=0)
    with pytest.raises(InvalidSpecError):
        F.HalpernWittmann([], [1.0])


def test_dykstra_variants_agree_on_random_instances(rng):
    # cyclic and parallel Dykstra share the limit P_C(v) on convex pairs
    for _ in range(5):
        a = HalfspaceSet(rng.standard_normal(3), 0.2)
        b = BallSet(rng.standard_normal(3) * 0.2, 1.5)
        v = rng.uniform(-2, 2, 3)
        prob = FeasibilityProblem(v=v, sets=[a, b], problem_id="rand")
        recs = {
            name: F.run(name, prob, StopRule(eps=1e-7, k_max=5000))
            for name in ("CycDyk", "ParDyk", "hCycP")
        }
        assert recs["CycDyk"].converged and recs["ParDyk"].converged
        assert np.linalg.norm(recs["CycDyk"].final - recs["ParDyk"].final) < 1e-4
        # the Q-wrapped variant can crawl under the step-size gate; its
        # iterate still sits at the same nearest point
        assert np.linalg.norm(recs["CycDyk"].final - recs["hCycP"].final) < 1e-4
