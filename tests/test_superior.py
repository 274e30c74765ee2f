"""Superiorized variants: perturb along the anchor ray, keep improving steps."""

from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vertipy import feasibility as F
from vertipy.feasibility import FeasibilityProblem
from vertipy.geometry import InvalidSpecError, ProfileKernel
from vertipy.metrics import StopRule
from vertipy.probgen import make_batch
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
    # in exact arithmetic the norm-acceptance test ||x~ - v|| <= ||x - v||
    # only passes at the anchor itself, so the method takes a single accepted
    # T step and then leaves the iterate unchanged while theta decays, until
    # ||x~ - v|| rounds to ||x - v|| (the next test): within 30 passes, it has not
    prob = FeasibilityProblem(v=[1.0, 1.0], sets=_half_and_axis())
    rec = F.run("sParP", prob, StopRule(eps=1e-6, k_max=30))
    assert not rec.converged
    assert rec.iterations == 30
    assert_allclose(rec.final, [0.5, 0.5], atol=1e-14)  # one ParP step from v
    assert rec.d_trace[1] == pytest.approx(rec.d_trace[-1])


def test_away_direction_steps_again_once_the_norm_test_rounds():
    # theta = 2**-53 at pass 54: ||x~ - v|| rounds to ||x - v||, the norm test
    # passes, and every pass from then on is a ParP step gated on proximity
    prob = FeasibilityProblem(v=[1.0, 1.0], sets=_half_and_axis())
    rec = F.run("sParP", prob, StopRule(eps=1e-6, k_max=300))
    assert rec.d_trace[1:54] == [0.5] * 53
    assert all(b < a for a, b in zip(rec.d_trace[53:], rec.d_trace[54:]))
    assert rec.converged and rec.iterations == 72 and not rec.flags


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


# The registry builds sParP, sExParP and sExAltP from their steps' row
# combines, so that a candidate kept whole hands its scoring pass's
# projections to the next pass that perturbs it to itself.  The reference
# is `Superiorized` on the whole step, which projects every candidate afresh.
PARALLEL_STEPS = {"sParP": F.parp_step, "sExParP": F.exparp_step, "sExAltP": F.exaltp_step}


def _on_whole_step(name, sets, v, direction="away"):
    ordered = F.SUPERIORIZED_ALGORITHMS[name](sets, v).sets  # ExAltP's affine set first
    step = PARALLEL_STEPS[name]
    return Superiorized(lambda x: step(x, ordered), ordered, v, direction=direction)


def _cases():
    # three seeded profile problems alone and laid end to end, of each slope kind; the plane
    for nonconvex in (False, True):
        problems = make_batch(0, count=3, nonconvex=nonconvex)
        yield from ((p.sets, p.v) for p in problems)
        yield F._lay_out(problems)
    yield _half_and_axis(), np.array([1.0, 1.0])


@pytest.mark.parametrize("direction", ["away", "toward"])
@pytest.mark.parametrize("name", sorted(PARALLEL_STEPS))
def test_a_kept_candidate_steps_from_its_scoring_pass(monkeypatch, name, direction):
    # x and the per-segment proximity equal the reference's bitwise at every
    # pass; a pass whose x~ has the bytes of a kept candidate makes one kernel
    # pass, the one that scores its own candidate
    passes, unmoved = [], []
    kernel_pass, perturbed = ProfileKernel._pass, Superiorized._perturbed

    def counted_pass(self, x):
        passes.append(1)
        return kernel_pass(self, x)

    def recorded(self, x, v):
        xt, passed, same = perturbed(self, x, v)
        unmoved.append(same)
        return xt, passed, same

    monkeypatch.setattr(ProfileKernel, "_pass", counted_pass)
    monkeypatch.setattr(Superiorized, "_perturbed", recorded)
    single = 0
    for sets, v in _cases():
        algo = F.make_algorithm(name, sets, v, direction=direction)
        reference = _on_whole_step(name, sets, v, direction)
        for k in range(200):
            kept = algo._rows is not None
            passes.clear()
            unmoved.clear()
            algo.step()
            if kept and all(unmoved):
                assert len(passes) == 1, k
                single += 1
            reference.step()
            assert algo.x.tobytes() == reference.x.tobytes(), k
            d2 = np.array(algo.segment_proximity2(algo.x))
            assert d2.tobytes() == np.array(reference.segment_proximity2(reference.x)).tobytes()
    assert single >= 6 * 140  # each problem alone, from about pass 55 on


@pytest.mark.parametrize("direction", ["away", "toward"])
def test_batch_records_equal_those_of_the_whole_step(monkeypatch, direction):
    # segments stop at different passes, so the batch is laid out afresh and
    # each new algorithm starts without a kept pass
    problems = make_batch(0, count=3)
    stop = StopRule()  # sParP's segments converge at passes 691, 741 and 1363, away
    for name in PARALLEL_STEPS:
        records = {}
        for how in ("rows", "whole"):
            if how == "whole":
                monkeypatch.setitem(F.ALGORITHMS, name, partial(_on_whole_step, name))
            records[how] = [
                (r.problem_id, r.flags.get("stalled_at", r.iterations), r.converged,
                 np.array(r.d_trace).tobytes(), r.final.tobytes(), r.flags)
                for r in F.run_batch(name, problems, stop, direction=direction)
            ]
        assert records["rows"] == records["whole"], name
        assert len({r[1] for r in records["rows"]}) > 1, name  # laid out afresh
