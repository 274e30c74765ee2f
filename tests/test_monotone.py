"""Monotone proximity: on convex problems the plain sweeps never raise d beyond rounding.

ParP is a gradient step of length 1/L on the summed squared distances to
the sets, so its proximity cannot rise; CycP and SaP did not rise on any
seed-0 convex problem either.  Nonconvex problems are left out: there CycP
can rise for real.  The stop tolerance is tiny so that the runs go on well
past the usual eps.
"""

import pytest
from hypothesis import given, settings, strategies as st

from vertipy import feasibility as F
from vertipy.metrics import StopRule
from vertipy.probgen import DEFAULT_SPEEDS, DEFAULT_XI_MAX, ProblemSpec, generate, make_batch

SLACK = 1e-12  # relative
STOP = StopRule(eps=1e-13, k_max=300)


def _assert_never_rises(trace):
    for k, (before, after) in enumerate(zip(trace, trace[1:])):
        assert after <= before * (1.0 + SLACK), f"d rose at pass {k + 1}: {before!r} -> {after!r}"


@settings(max_examples=25, deadline=None)
@given(
    length=st.sampled_from([500.0, 1000.0, 5000.0]),
    speed=st.sampled_from(DEFAULT_SPEEDS),
    xi_max=st.sampled_from(DEFAULT_XI_MAX),
    seed=st.integers(0, 2**32 - 1),
)
def test_parp_proximity_never_rises(length, speed, xi_max, seed):
    problem = generate(ProblemSpec(length=length, speed=speed, xi_max=xi_max, seed=seed))
    _assert_never_rises(F.run("ParP", problem, STOP).d_trace)


@pytest.mark.parametrize("name", ["CycP", "SaP"])
def test_sweep_proximity_never_rises_on_seed0_convex_batch(name):
    for problem in make_batch(0, count=20):
        _assert_never_rises(F.run(name, problem, STOP).d_trace)
