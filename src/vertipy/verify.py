"""Built-in consistency checks with analytically known outcomes.

Each check runs a small instance whose exact behavior is derivable by hand
and reports the largest deviation it observed.  The checks step the code
that `vertipy run` executes: the two-set D-R step
(`feasibility.dr_two_set_step`, which D-R and hD-R run on the product set
and the diagonal), the anchored recursion (`bestapprox.badr_two_set_step`,
which baD-R runs there) and the `CyclicDykstra` class.  Only ADMM is a
fixture of its own.  The CLI `verify` subcommand runs them all and fails with a nonzero
status if any deviation exceeds its tolerance.  Sizes, seeds and
tolerances are fixed in each check.

Checks
------
dr-cycling
    Splitting two nonconvex stripe complements can cycle: from a specific
    product start, `dr_two_set_step` on the product set and the diagonal
    forms an exact period-2 orbit instead of converging.  Verifies the
    orbit (and the alternating monitor) stays exact for 100 steps.
disk-line-gap
    `CyclicDykstra` on two sets and the anchored recursion agree for one
    round but differ afterwards on a disk/line instance; both second
    iterates have closed forms, and their gap exceeds 0.01.
dykstra-halving
    On a line pair, `CyclicDykstra`'s iterate halves exactly every round
    of two projections, while ADMM lands exactly on the intersection at
    round 2.
dr-admm-equivalence
    On random convex two-set instances started inside B with a zero dual,
    `dr_two_set_step` and ADMM generate identical sequences via
    x_k = a_k + u_{k-1} and P_B x_k = b_k.
alternating-collapse
    For a pair of linear subspaces with the anchor inside B, the shadow
    sequence of `badr_two_set_step` collapses to plain alternating
    projections, y_k = (P_B P_A)^k v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bestapprox import badr_two_set_step
from .feasibility import CyclicDykstra, admm_two_set_step, dr_two_set_step
from .geometry import InvalidSpecError, SlopeBounds, SlopeConstraint
from .product import Diagonal, ProductSet
from .sets import BallSet, HalfspaceSet, SlabSet, SpanSet

__all__ = ["CheckResult", "ALL_CHECKS", "run_checks", "cycling_sets", "cycling_start"]

SEED = 20260815  # of the random instances


@dataclass
class CheckResult:
    name: str
    passed: bool
    error: float
    tolerance: float
    detail: str


def cycling_sets():
    """The two stripe-complement sets of the period-2 splitting orbit.

    C_1 = {|x_2 - x_1| <= 5} and C_2 = {|x_2 - x_1| >= 5} in the plane,
    both with exact projectors.
    """
    stripe = SlopeConstraint(SlopeBounds([5.0]), "odd", 2)
    complement = SlopeConstraint(SlopeBounds([math.inf], [5.0]), "odd", 2)
    return [stripe, complement]


def cycling_start() -> np.ndarray:
    """The product start (0, -1, -2, 1) of the orbit, as (2, 2)."""
    return np.array([[0.0, -1.0], [-2.0, 1.0]])


def check_dr_cycling() -> CheckResult:
    steps, tolerance = 100, 1e-12
    product_set, diagonal = ProductSet(cycling_sets()), Diagonal()
    even = cycling_start()
    odd = np.array([[-1.0, 0.0], [1.0, -2.0]])
    monitors = (np.array([-1.0, 0.0]), np.array([0.0, -1.0]))

    parts = even.copy()
    worst = 0.0
    for k in range(1, steps + 1):
        parts = dr_two_set_step(parts, product_set, diagonal)
        expected = odd if k % 2 else even
        worst = max(
            worst,
            float(np.max(np.abs(parts - expected))),
            float(np.max(np.abs(diagonal.project(parts) - monitors[k % 2]))),
        )
    return CheckResult(
        name="dr-cycling",
        passed=worst <= tolerance,
        error=worst,
        tolerance=tolerance,
        detail=f"{steps} product steps stay on the period-2 orbit (max dev {worst:.2e})",
    )


def _dykstra_rounds(set_a, set_b, v, rounds: int):
    """Iterates of `CyclicDykstra` on two sets after each round of two projections."""
    algo = CyclicDykstra([set_a, set_b], v)
    iterates = []
    for _ in range(rounds):
        algo.step()
        algo.step()
        iterates.append(algo.monitor())
    return iterates


def check_disk_line_gap() -> CheckResult:
    tolerance = 1e-6
    disk = BallSet([0.0, 1.0], 1.0)
    line = SpanSet([[1.0, 0.0]])
    v = np.array([1.0, 0.0])

    b_iterates = _dykstra_rounds(disk, line, v, 2)

    x = v.copy()
    y_iterates = []
    for _ in range(2):
        x = badr_two_set_step(x, v, disk, line)
        y_iterates.append(line.project(x))

    first = math.sqrt(2.0) / 2.0
    b2 = 2.0 / math.sqrt(22.0 - 8.0 * math.sqrt(2.0))
    y2 = 0.5 * (math.sqrt(2.0) + 2.0) / math.sqrt(11.0 - 2.0 * math.sqrt(2.0))
    worst = max(
        float(np.max(np.abs(b_iterates[0] - [first, 0.0]))),
        float(np.max(np.abs(y_iterates[0] - [first, 0.0]))),
        float(np.max(np.abs(b_iterates[1] - [b2, 0.0]))),
        float(np.max(np.abs(y_iterates[1] - [y2, 0.0]))),
    )
    gap = float(np.linalg.norm(b_iterates[1] - y_iterates[1]))
    return CheckResult(
        name="disk-line-gap",
        passed=worst <= tolerance and gap > 0.01,
        error=worst,
        tolerance=tolerance,
        detail=(
            f"second iterates {b_iterates[1][0]:.5f} vs {y_iterates[1][0]:.5f} "
            f"split by {gap:.4f} (closed forms matched to {worst:.2e})"
        ),
    )


def check_dykstra_halving() -> CheckResult:
    rounds, tolerance, admm_tolerance = 30, 1e-10, 1e-12
    diag = SpanSet([[1.0, 1.0]])
    axis = SpanSet([[1.0, 0.0]])
    v = np.array([1.0, 0.0])

    worst = 0.0
    for k, b in enumerate(_dykstra_rounds(diag, axis, v, rounds), start=1):
        worst = max(worst, float(np.max(np.abs(b - [0.5**k, 0.0]))))

    bb, u = v.copy(), np.zeros(2)
    for _ in range(2):
        a, bb, u = admm_two_set_step(bb, u, diag, axis)
    admm_err = max(float(np.max(np.abs(a))), float(np.max(np.abs(bb))))

    passed = worst <= tolerance and admm_err <= admm_tolerance
    return CheckResult(
        name="dykstra-halving",
        passed=passed,
        error=max(worst, admm_err),
        tolerance=tolerance,
        detail=(
            f"b_k = 2^-k for {rounds} rounds (max dev {worst:.2e}); "
            f"ADMM exact at round 2 (dev {admm_err:.2e})"
        ),
    )


def _random_convex_set(rng, n: int):
    kind = rng.integers(4)
    if kind == 0:
        a = rng.standard_normal(n)
        return HalfspaceSet(a, float(rng.standard_normal()))
    if kind == 1:
        return BallSet(rng.standard_normal(n), float(rng.uniform(0.5, 2.0)))
    if kind == 2:
        a = rng.standard_normal(n)
        lo = float(rng.standard_normal())
        return SlabSet(a, lo, lo + float(rng.uniform(0.1, 2.0)))
    dim = int(rng.integers(1, n))
    return SpanSet(rng.standard_normal((dim, n)))


def check_dr_admm_equivalence() -> CheckResult:
    instances, steps, tolerance = 20, 50, 1e-9
    rng = np.random.default_rng(SEED)
    n = 4
    worst = 0.0
    for _ in range(instances):
        set_a = _random_convex_set(rng, n)
        set_b = _random_convex_set(rng, n)
        b = set_b.project(rng.standard_normal(n))

        x = b.copy()
        u = np.zeros(n)
        for _ in range(steps):
            u_prev = u
            a, b, u = admm_two_set_step(b, u, set_a, set_b)
            x = dr_two_set_step(x, set_a, set_b)
            worst = max(
                worst,
                float(np.max(np.abs(x - (a + u_prev)))),
                float(np.max(np.abs(set_b.project(x) - b))),
            )
    return CheckResult(
        name="dr-admm-equivalence",
        passed=worst <= tolerance,
        error=worst,
        tolerance=tolerance,
        detail=(
            f"x_k = a_k + u_(k-1) and P_B x_k = b_k on {instances} random "
            f"instances, {steps} steps (max dev {worst:.2e})"
        ),
    )


def check_alternating_collapse() -> CheckResult:
    instances, steps, tolerance = 20, 30, 1e-9
    rng = np.random.default_rng(SEED)
    n = 5
    worst = 0.0
    for _ in range(instances):
        set_a = SpanSet(rng.standard_normal((int(rng.integers(1, n)), n)))
        set_b = SpanSet(rng.standard_normal((int(rng.integers(1, n)), n)))
        v = set_b.project(rng.standard_normal(n))

        x = v.copy()
        z = v.copy()
        for _ in range(steps):
            x = badr_two_set_step(x, v, set_a, set_b)
            z = set_b.project(set_a.project(z))
            worst = max(worst, float(np.max(np.abs(set_b.project(x) - z))))
    return CheckResult(
        name="alternating-collapse",
        passed=worst <= tolerance,
        error=worst,
        tolerance=tolerance,
        detail=(
            f"shadows equal plain alternating projections on {instances} "
            f"subspace pairs, {steps} steps (max dev {worst:.2e})"
        ),
    )


ALL_CHECKS = {
    "dr-cycling": check_dr_cycling,
    "disk-line-gap": check_disk_line_gap,
    "dykstra-halving": check_dykstra_halving,
    "dr-admm-equivalence": check_dr_admm_equivalence,
    "alternating-collapse": check_alternating_collapse,
}


def run_checks(names=None) -> list:
    """Run the named checks (all by default) and return their results."""
    if names is None:
        names = list(ALL_CHECKS)
    unknown = [n for n in names if n not in ALL_CHECKS]
    if unknown:
        raise InvalidSpecError(f"unknown check(s): {', '.join(unknown)}")
    return [ALL_CHECKS[n]() for n in names]
