"""Seeded generation of benchmark road-profile problems.

A problem is a set of stations spanning roughly a requested length L, a
random starting elevation profile v, and the six constraint sets built from
a design speed V (km/h) and an elevation range [0, xi_max]:

* stations: successive gaps drawn uniformly from [0.625 V, 1.25 V] meters
  and rescaled so the total is L,
* elevations: uniform on [0, xi_max], redrawn (up to 100 tries) until the
  2-D spacing ||(t_i, v_i) - (t_{i+1}, v_{i+1})|| >= 0.625 V holds; if no
  elevation can satisfy it, the offending gap is stretched to 0.625 V so
  spacing holds for any elevation (the total span may then exceed L),
* the number of stations n is drawn uniformly from
  [L / (3 u), 1 + L / (1.5 u)] with u = min(0.625 V, 30); an upper end
  above MAX_STATIONS is rejected before any draw,
* slope caps alpha_i = sigma_max * tau_i (sigma_max = 4% maximum grade),
  plus a minimum-grade floor beta_i = min_grade * tau_i (min_grade = 0.5%)
  in nonconvex mode,
* curvature caps gamma_i = min(tau_i, tau_{i+1}) / (100 K_V) from a
  design-speed K table (meters per percent of grade change) shipped as
  data/curvature_k.json and overridable per call, delta_i = -gamma_i.

The last elevation is drawn within 0.9 * sigma_max * span of the first, so
the straight chord between the pinned endpoints satisfies every convex
constraint: convex problems are feasible by construction.  Nonconvex
problems carry no such witness (a flat chord violates the minimum grade)
and may be infeasible; they are generated and recorded all the same.

Child seeds come from SeedSequence([master_seed, index]) folded to 64 bits,
so batches are reproducible and problems are independent of batch size.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .feasibility import FeasibilityProblem
from .geometry import (
    Breakpoints,
    CurvatureBounds,
    InterpolationSpec,
    InvalidSpecError,
    ProfileKernel,
    SlopeBounds,
)

__all__ = [
    "ProblemSpec",
    "default_curvature_table",
    "point_count_range",
    "child_seed",
    "build_constraint_sets",
    "generate",
    "make_batch",
    "DEFAULT_LENGTHS",
    "DEFAULT_SPEEDS",
    "DEFAULT_XI_MAX",
]

DEFAULT_LENGTHS = (500.0, 1000.0, 5000.0, 10000.0, 20000.0)
DEFAULT_SPEEDS = (30.0, 50.0, 80.0, 100.0)
DEFAULT_XI_MAX = (30.0, 60.0, 100.0, 120.0, 150.0)

_REJECTION_TRIES = 100
_CHORD_MARGIN = 0.9
_SIGMA_MAX = 0.04  # maximum absolute grade
_MIN_GRADE = 0.005  # minimum absolute grade (nonconvex mode)
MAX_STATIONS = 100_000  # the default grid needs at most 712


@dataclass(frozen=True)
class ProblemSpec:
    """Parameters for one generated problem."""

    length: float  # target horizontal span [m]
    speed: float  # design speed [km/h]
    xi_max: float  # elevation range [m]
    seed: int
    nonconvex: bool = False
    problem_id: str = "p0"

    def __post_init__(self):
        for name in ("length", "speed", "xi_max"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise InvalidSpecError(f"{name} must be positive and finite, got {value}")


def default_curvature_table() -> dict:
    """The K table shipped with the package (speed -> m per % grade change)."""
    text = resources.files("vertipy").joinpath("data/curvature_k.json").read_text()
    return {float(k): float(v) for k, v in json.loads(text).items()}


def point_count_range(length: float, speed: float) -> tuple[int, int]:
    """Inclusive range for the number of stations at a given length/speed."""
    unit = min(0.625 * speed, 30.0)
    top = 1.0 + length / (1.5 * unit)
    if not top <= MAX_STATIONS:
        raise InvalidSpecError(f"length {length} at speed {speed} exceeds {MAX_STATIONS} stations")
    lo = max(2, math.ceil(length / (3.0 * unit)))
    hi = math.floor(top)
    if lo > hi:
        raise InvalidSpecError(
            f"empty station-count range for length {length}, speed {speed}"
        )
    return lo, hi


def child_seed(master_seed: int, index: int) -> int:
    """Stable 64-bit per-problem seed derived from the batch master seed."""
    if int(master_seed) < 0:  # SeedSequence would raise a bare ValueError
        raise InvalidSpecError(f"seed must be a non-negative integer, got {master_seed}")
    state = np.random.SeedSequence([int(master_seed), int(index)]).generate_state(2)
    return (int(state[0]) << 32) | int(state[1])


def build_constraint_sets(bp, interp, slope, curvature):
    """The canonical six-set list: Interp, SlopeEven, SlopeOdd, Curv1..3.

    The six share one `geometry.ProfileKernel`, built here once per problem.
    """
    return ProfileKernel(bp.n, interp, slope, curvature, bp).constraint_sets()


def generate(spec: ProblemSpec, k_table: dict | None = None) -> FeasibilityProblem:
    """Generate one problem deterministically from its spec."""
    table = default_curvature_table() if k_table is None else {
        float(k): float(v) for k, v in k_table.items()
    }
    if float(spec.speed) not in table:
        raise InvalidSpecError(
            f"no curvature K value for design speed {spec.speed}; "
            f"table covers {sorted(table)}"
        )
    k_value = table[float(spec.speed)]

    rng = np.random.default_rng(spec.seed)
    bound = 0.625 * spec.speed
    lo, hi = point_count_range(spec.length, spec.speed)
    n = int(rng.integers(lo, hi + 1))

    gaps = rng.uniform(bound, 2.0 * bound, size=n - 1)
    gaps *= spec.length / gaps.sum()

    v = np.empty(n)
    v[0] = rng.uniform(0.0, spec.xi_max)
    for i in range(1, n):
        if i == n - 1:
            # keep the chord between the pinned endpoints within the grade cap
            margin = _CHORD_MARGIN * _SIGMA_MAX * gaps.sum()
            win_lo = max(0.0, v[0] - margin)
            win_hi = min(spec.xi_max, v[0] + margin)
        else:
            win_lo, win_hi = 0.0, spec.xi_max
        gap = gaps[i - 1]
        need = math.sqrt(max(bound * bound - gap * gap, 0.0))
        for _ in range(_REJECTION_TRIES):
            cand = rng.uniform(win_lo, win_hi)
            if abs(cand - v[i - 1]) >= need:
                break
        else:
            # no reachable elevation keeps the 2-D spacing; widen the gap instead
            gaps[i - 1] = bound
            cand = rng.uniform(win_lo, win_hi)
        v[i] = cand

    t = np.concatenate([[0.0], np.cumsum(gaps)])
    bp = Breakpoints(t)
    spacing = np.hypot(bp.tau, np.diff(v))
    if not (np.all(spacing >= bound - 1e-9) and np.all((v >= 0) & (v <= spec.xi_max))):
        raise AssertionError("generator postcondition violated")  # pragma: no cover

    alpha = _SIGMA_MAX * bp.tau
    beta = _MIN_GRADE * bp.tau if spec.nonconvex else None
    gamma = np.minimum(bp.tau[:-1], bp.tau[1:]) / (100.0 * k_value)
    sets = build_constraint_sets(
        bp,
        InterpolationSpec([0, n - 1], [v[0], v[-1]]),
        SlopeBounds(alpha, beta),
        CurvatureBounds(gamma, -gamma),
    )
    meta = {
        "length": spec.length,
        "speed": spec.speed,
        "xi_max": spec.xi_max,
        "seed": spec.seed,
        "nonconvex": spec.nonconvex,
        "sigma_max": _SIGMA_MAX,
        "min_grade": _MIN_GRADE,
        "curvature_k": k_value,
    }
    return FeasibilityProblem(
        v=v, sets=sets, breakpoints=bp, problem_id=spec.problem_id, meta=meta
    )


def make_batch(
    master_seed: int,
    count: int = 100,
    nonconvex: bool = False,
    lengths=DEFAULT_LENGTHS,
    speeds=DEFAULT_SPEEDS,
    xi_max=DEFAULT_XI_MAX,
    k_table: dict | None = None,
):
    """Generate `count` problems cycling through the parameter grid.

    The default grid is the full 5 x 4 x 5 cross product, so the default
    count of 100 visits every (length, speed, xi_max) combination once.
    """
    if count < 1:
        raise InvalidSpecError("count must be at least 1")
    grid = list(itertools.product(lengths, speeds, xi_max))
    if not grid:
        raise InvalidSpecError("the (length, speed, xi_max) grid is empty")
    problems = []
    for i in range(count):
        length, speed, xi = grid[i % len(grid)]
        spec = ProblemSpec(
            length=length,
            speed=speed,
            xi_max=xi,
            seed=child_seed(master_seed, i),
            nonconvex=nonconvex,
            problem_id=f"p{i:04d}",
        )
        problems.append(generate(spec, k_table))
    return problems
