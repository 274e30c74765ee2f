"""Superiorized variants: perturb along the anchor ray, keep improving steps."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vertipy import feasibility as F
from vertipy.feasibility import FeasibilityProblem
from vertipy.geometry import InvalidSpecError
from vertipy.metrics import StopRule
from vertipy.sets import HalfspaceSet, SpanSet
from vertipy.superior import Superiorized


def _half_and_axis():
    return [HalfspaceSet([1.0, 0.0], 0.0), SpanSet([[1.0, 0.0]])]


def _half_line(v):
    # C = {x <= 0} plus the whole line, which a feasibility problem needs as
    # its second set; projecting onto the line is the identity
    return FeasibilityProblem(v=v, sets=[HalfspaceSet([1.0], 0.0), SpanSet([[1.0]])])


def test_one_dimensional_trace():
    # v = 1, C = {x <= 0}: the first pass perturbs at the anchor itself
    # (zero offset), accepts T(v) = 0, and stops feasible
    rec = F.run("sCycP", _half_line([1.0]), StopRule(eps=1e-9, k_max=10))
    assert rec.converged and rec.iterations == 1
    assert rec.d_trace == [1.0, 0.0]
    assert_allclose(rec.final, [0.0], atol=0)


def test_feasible_anchor_short_circuits():
    rec = F.run("sCycP", _half_line([-2.0]))
    assert rec.converged and rec.iterations == 0 and rec.d_trace == [0.0]
    assert_allclose(rec.final, [-2.0], atol=0)


def test_theta_halves_every_pass_accepted_or_not():
    s = Superiorized(lambda z: z, _half_and_axis(), np.array([1.0, 1.0]))
    assert s.theta == 1.0
    for _ in range(5):
        s.step()
    assert s.theta == 2.0 ** -5


def test_away_direction_freezes_after_first_accepted_step():
    # the norm-acceptance test ||x~ - v|| <= ||x - v|| only passes at the
    # anchor itself, so the method takes a single accepted T step and then
    # leaves the iterate unchanged while theta decays
    prob = FeasibilityProblem(v=[1.0, 1.0], sets=_half_and_axis())
    rec = F.run("sParP", prob, StopRule(eps=1e-6, k_max=30))
    assert not rec.converged
    assert rec.iterations == 30
    assert_allclose(rec.final, [0.5, 0.5], atol=1e-14)  # one ParP step from v
    assert rec.d_trace[1] == pytest.approx(rec.d_trace[-1])


def test_away_direction_converges_when_one_step_suffices():
    prob = FeasibilityProblem(v=[1.0, 1.0], sets=_half_and_axis())
    rec = F.run("sCycP", prob, StopRule(eps=1e-6, k_max=30))
    assert rec.converged and rec.iterations == 1
    assert_allclose(rec.final, [0.0, 0.0], atol=1e-12)


def test_toward_direction_keeps_making_progress():
    # flipping the perturbation sign makes acceptance depend only on T
    # improving proximity, so the same base step now converges
    prob = FeasibilityProblem(v=[1.0, 1.0], sets=_half_and_axis())
    rec = F.run("sParP", prob, StopRule(eps=1e-6, k_max=60), direction="toward")
    assert rec.converged
    assert rec.d_trace[-1] < 1e-6
    # proximity never increases: rejected passes leave the iterate unchanged
    assert np.all(np.diff(rec.d_trace) <= 1e-15)


def test_direction_validation():
    with pytest.raises(InvalidSpecError):
        Superiorized(lambda z: z, _half_and_axis(), np.array([1.0, 1.0]), direction="up")


def test_superiorized_registry_runs_all():
    prob = FeasibilityProblem(v=[1.0, 1.0], sets=_half_and_axis())
    for name in F.SUPERIORIZED_ALGORITHMS:
        rec = F.run(name, prob, StopRule(eps=1e-6, k_max=50))
        assert rec.d_trace[0] == 1.0, name
        # every variant at least accepts the first step from the anchor
        assert rec.d_trace[1] < 1.0, name
