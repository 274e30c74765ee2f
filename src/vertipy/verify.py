"""Built-in consistency checks with analytically known outcomes.

Each check runs a small instance whose exact behavior is derivable by hand
and reports the largest deviation it observed.  They guard the parts of the
code most likely to rot silently: the product-space splitting step, the
two-set Dykstra/anchored recursions, and the ADMM bookkeeping.  The CLI
`verify` subcommand runs them all and fails with a nonzero status if any
deviation exceeds its tolerance.

Checks
------
dr-cycling
    Splitting two nonconvex stripe complements can cycle: from a specific
    product start the iterates form an exact period-2 orbit instead of
    converging.  Verifies the orbit (and the alternating monitor) stays
    exact for 100 steps.
disk-line-gap
    Two-set Dykstra and the anchored splitting recursion agree for one
    step but differ afterwards on a disk/line instance; both second
    iterates have closed forms, and their gap exceeds 0.01.
dykstra-halving
    On a line pair, Dykstra's monitored iterate halves exactly every
    round, while ADMM lands exactly on the intersection at round 2.
dr-admm-equivalence
    On random convex two-set instances started inside B with a zero dual,
    plain two-set splitting and ADMM generate identical sequences via
    x_k = a_k + u_{k-1} and P_B x_k = b_k.
alternating-collapse
    For a pair of linear subspaces with the anchor inside B, the anchored
    recursion's shadow sequence collapses to plain alternating
    projections, y_k = (P_B P_A)^k v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bestapprox import badr_two_set_step, dykstra_two_set_step
from .feasibility import admm_two_set_step, dr_step, dr_two_set_step
from .geometry import InvalidSpecError, SlopeBounds, SlopeConstraint
from .product import diagonal_part
from .sets import BallSet, HalfspaceSet, SlabSet, SpanSet

__all__ = ["CheckResult", "ALL_CHECKS", "run_checks", "cycling_sets", "cycling_start"]

DEFAULT_SEED = 20260815


@dataclass
class CheckResult:
    name: str
    passed: bool
    error: float
    tolerance: float
    detail: str


def cycling_sets(alpha: float = 5.0, beta: float = 5.0):
    """The two stripe-complement sets of the period-2 splitting orbit.

    C_1 = {|x_2 - x_1| <= alpha} and C_2 = {|x_2 - x_1| >= beta} in the
    plane, both with exact projectors.
    """
    if not 0 < beta <= alpha:
        raise InvalidSpecError("need 0 < beta <= alpha")
    stripe = SlopeConstraint(SlopeBounds([alpha]), "odd", 2)
    complement = SlopeConstraint(SlopeBounds([math.inf], [beta]), "odd", 2)
    return [stripe, complement]


def cycling_start(xi: float = 0.0, eps: float = 1.0) -> np.ndarray:
    """The product start (xi, xi-eps, xi-2eps, xi+eps) of the orbit, as (2, 2)."""
    return np.array([[xi, xi - eps], [xi - 2.0 * eps, xi + eps]])


def check_dr_cycling(steps: int = 100, tolerance: float = 1e-12) -> CheckResult:
    sets = cycling_sets()
    even = cycling_start()
    odd = np.array([[-1.0, 0.0], [1.0, -2.0]])
    monitors = (np.array([-1.0, 0.0]), np.array([0.0, -1.0]))

    parts = even.copy()
    worst = 0.0
    for k in range(1, steps + 1):
        parts = dr_step(parts, sets)
        expected = odd if k % 2 else even
        worst = max(
            worst,
            float(np.max(np.abs(parts - expected))),
            float(np.max(np.abs(diagonal_part(parts) - monitors[k % 2]))),
        )
    return CheckResult(
        name="dr-cycling",
        passed=worst <= tolerance,
        error=worst,
        tolerance=tolerance,
        detail=f"{steps} product steps stay on the period-2 orbit (max dev {worst:.2e})",
    )


def check_disk_line_gap(tolerance: float = 1e-6) -> CheckResult:
    disk = BallSet([0.0, 1.0], 1.0)
    line = SpanSet([[1.0, 0.0]])
    v = np.array([1.0, 0.0])

    b = v.copy()
    p = np.zeros(2)
    q = np.zeros(2)
    b_iterates = []
    for _ in range(2):
        _, b, p, q = dykstra_two_set_step(b, p, q, disk, line)
        b_iterates.append(b)

    x = v.copy()
    y_iterates = []
    for _ in range(2):
        x, _ = badr_two_set_step(x, v, disk, line)
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


def check_dykstra_halving(
    rounds: int = 30, tolerance: float = 1e-10, admm_tolerance: float = 1e-12
) -> CheckResult:
    diag = SpanSet([[1.0, 1.0]])
    axis = SpanSet([[1.0, 0.0]])
    v = np.array([1.0, 0.0])

    b = v.copy()
    p = np.zeros(2)
    q = np.zeros(2)
    worst = 0.0
    for k in range(1, rounds + 1):
        _, b, p, q = dykstra_two_set_step(b, p, q, diag, axis)
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


def check_dr_admm_equivalence(
    instances: int = 20,
    steps: int = 50,
    tolerance: float = 1e-9,
    seed: int = DEFAULT_SEED,
) -> CheckResult:
    rng = np.random.default_rng(seed)
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
            x, _ = dr_two_set_step(x, set_a, set_b)
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


def check_alternating_collapse(
    instances: int = 20,
    steps: int = 30,
    tolerance: float = 1e-9,
    seed: int = DEFAULT_SEED,
) -> CheckResult:
    rng = np.random.default_rng(seed)
    n = 5
    worst = 0.0
    for _ in range(instances):
        set_a = SpanSet(rng.standard_normal((int(rng.integers(1, n)), n)))
        set_b = SpanSet(rng.standard_normal((int(rng.integers(1, n)), n)))
        v = set_b.project(rng.standard_normal(n))

        x = v.copy()
        z = v.copy()
        for _ in range(steps):
            x, _ = badr_two_set_step(x, v, set_a, set_b)
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
