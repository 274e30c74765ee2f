"""Run bookkeeping and benchmark metrics.

The harness monitors one iterate per iteration and measures progress with
the normalized proximity

    d(x) = sqrt( sum_i dist^2(x, C_i) / sum_i dist^2(x_0, C_i) ),

so every run starts at d = 1 and "solved" means d < eps before the
iteration cap.  Runs are compared with Dolan-More performance profiles over
iteration counts, decibel-scaled mean proximity curves, and summary
statistics of the normalized distance ||v - x_final|| / ||v||.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .geometry import InvalidSpecError, _SetList, kernel_of

__all__ = [
    "UndefinedNormalizerError",
    "StopRule",
    "RunRecord",
    "proximity_squared_sum",
    "proximity",
    "performance_profile",
    "relative_proximity_curve",
    "distance_stats",
    "STAT_FIELDS",
]

STAT_FIELDS = ("min", "q1", "median", "q3", "max", "mean", "std")


class UndefinedNormalizerError(ValueError):
    """The starting point is feasible, so the proximity normalizer is zero."""


@dataclass(frozen=True)
class StopRule:
    """Stopping parameters: tolerance eps and iteration cap k_max.

    Feasibility runs stop at d(x_k) < eps.  Best-approximation runs
    additionally require ||x_k - x_{k-1}|| < eps, since their iterates keep
    moving inside the feasible set toward the nearest point.
    """

    eps: float = 5e-3
    k_max: int = 5000

    def __post_init__(self):
        if not self.eps > 0:
            raise InvalidSpecError("eps must be positive")
        if not self.k_max >= 1:
            raise InvalidSpecError("k_max must be at least 1")


@dataclass
class RunRecord:
    """Outcome of one (algorithm, problem) run."""

    problem_id: str
    algorithm: str
    iterations: int
    converged: bool
    d_trace: list
    final: np.ndarray
    wall_time: float = 0.0
    flags: dict = field(default_factory=dict)


class _Algorithm:
    """What `feasibility.run` drives: the sets, the anchor v and the iterate x.

    The sets are resolved to their kernel once (`geometry._SetList`) and
    must not be empty; x starts as a copy of v.  Every algorithm has kind,
    step(), monitor() and proximity2(x), which `run` calls with
    x = monitor() and which equals proximity_squared_sum(x, sets) bitwise.
    An algorithm whose next step depends on its monitored point alone once
    that point repeats also has `memoryless()` (see `feasibility.run`).
    """

    kind = "feas"

    def __init__(self, sets, v):
        self.sets = _SetList(sets)
        if not self.sets:
            raise InvalidSpecError("need at least one set")
        self.v = np.asarray(v, dtype=float)
        self.x = self.v.copy()

    def proximity2(self, x) -> float:
        """The squared proximity of the monitored point x."""
        return self.sets.kernel.proximity2(x)

    def monitor(self):
        return self.x


def proximity_squared_sum(x, sets) -> float:
    """Unnormalized sum of squared distances to the given sets.

    The six sets of one profile kernel, in canonical order, take its fused
    `proximity2`, which returns this same sum bitwise; any other list sums
    the residuals of its sets in order (`geometry.kernel_of`).
    """
    return kernel_of(sets).proximity2(x)


def proximity(x, sets, x0) -> float:
    """Normalized proximity d(x) relative to the start x0."""
    denom = proximity_squared_sum(x0, sets)
    if denom == 0.0:
        raise UndefinedNormalizerError("x0 is already feasible for every set")
    return math.sqrt(proximity_squared_sum(x, sets) / denom)


def _effective_iterations(rec: RunRecord, k_max: int) -> int:
    # non-convergent runs enter the profiles at the iteration cap
    return rec.iterations if rec.converged else k_max


def performance_profile(records, k_max: int | None = None, kappa_grid=None):
    """Dolan-More profile of iteration counts over a shared problem batch.

    For each problem the ratio r = k_alg / min_alg k is taken (1 for every
    algorithm when the batch start is already feasible, i.e. min = 0), and

        rho_alg(kappa) = fraction of problems with log2(r) <= kappa.

    Returns (kappa_grid, {algorithm: rho array}).  The default grid steps by
    0.05 up to the first multiple at or above log2(k_max), where rho = 1 for
    every algorithm that ran the whole batch.
    """
    records = list(records)
    if not records:
        raise InvalidSpecError("no records to profile")
    if k_max is None:
        k_max = max(max(r.iterations for r in records), 1)

    by_problem: dict = {}
    for rec in records:
        by_problem.setdefault(rec.problem_id, {})[rec.algorithm] = _effective_iterations(
            rec, k_max
        )

    algorithms = sorted({rec.algorithm for rec in records})
    log_ratios = {a: [] for a in algorithms}
    for ks in by_problem.values():
        kmin = min(ks.values())
        for a, k in ks.items():
            ratio = 1.0 if kmin == 0 else k / kmin
            log_ratios[a].append(math.log2(ratio))

    if kappa_grid is None:
        top = math.log2(max(k_max, 2))
        kappa_grid = np.arange(math.ceil(top / 0.05) + 1) * 0.05
    else:
        kappa_grid = np.asarray(kappa_grid, dtype=float)

    # every kappa at once: count the log-ratios at or below each grid point
    n_problems = len(by_problem)
    rho = {
        a: (np.asarray(log_ratios[a], dtype=float)[:, None] <= kappa_grid).sum(axis=0)
        / n_problems
        for a in algorithms
    }
    return kappa_grid, rho


def relative_proximity_curve(records):
    """Mean squared proximity per iteration, in decibels.

    Traces are padded with their final value so every algorithm is averaged
    over the same k axis:

        beta_alg(k) = 10 * log10( mean_p d^2(x_k) ).

    Returns (k values, {algorithm: beta array}); beta is -inf where the mean
    vanishes (every run finished exactly on the intersection).
    """
    records = list(records)
    if not records:
        raise InvalidSpecError("no records to profile")
    length = max(len(r.d_trace) for r in records)
    by_alg: dict = {}
    for rec in records:
        trace = np.asarray(rec.d_trace, dtype=float)
        padded = np.concatenate([trace, np.full(length - trace.size, trace[-1])])
        by_alg.setdefault(rec.algorithm, []).append(padded)

    ks = np.arange(length)
    beta = {}
    for a, traces in by_alg.items():
        mean_sq = np.mean(np.square(traces), axis=0)
        with np.errstate(divide="ignore"):
            beta[a] = 10.0 * np.log10(mean_sq)
    return ks, beta


def _summary(values) -> dict:
    values = np.asarray(values, dtype=float)
    q1, med, q3 = np.percentile(values, [25, 50, 75], method="linear")
    return {
        "min": float(values.min()),
        "q1": float(q1),
        "median": float(med),
        "q3": float(q3),
        "max": float(values.max()),
        "mean": float(values.mean()),
        "std": float(values.std()),  # population convention, exact 0 for constants
    }


def distance_stats(records, v_by_problem):
    """Summary statistics of the normalized anchor distance Delta.

    For a run that converged, Delta = ||v - x_final|| / ||v||.  A run that
    hit the iteration cap instead contributes the worst final distance any
    algorithm reached on that problem, so failures are penalized at the
    batch scale rather than rewarded for stopping early.  Problems with
    ||v|| = 0 are excluded (with a warning).

    Returns ({algorithm: {min, q1, median, q3, max, mean, std}},
    {algorithm: {problem_id: Delta}}).
    """
    records = list(records)
    if not records:
        raise InvalidSpecError("no records to summarize")

    rel: dict = {}  # problem -> algorithm -> normalized final distance
    conv: dict = {}
    skipped = set()
    for rec in records:
        v = np.asarray(v_by_problem[rec.problem_id], dtype=float)
        vnorm = float(np.linalg.norm(v))
        if vnorm == 0.0:
            skipped.add(rec.problem_id)
            continue
        dist = float(np.linalg.norm(v - np.asarray(rec.final, dtype=float)))
        rel.setdefault(rec.problem_id, {})[rec.algorithm] = dist / vnorm
        conv.setdefault(rec.problem_id, {})[rec.algorithm] = rec.converged
    if skipped:
        warnings.warn(
            f"excluded {len(skipped)} problem(s) with ||v|| = 0 from distance stats",
            stacklevel=2,
        )
    if not rel:
        raise InvalidSpecError("no problems with a nonzero anchor")

    delta: dict = {}
    for pid, per_alg in rel.items():
        worst = max(per_alg.values())
        for a, value in per_alg.items():
            delta.setdefault(a, {})[pid] = value if conv[pid][a] else worst

    stats = {a: _summary(list(vals.values())) for a, vals in sorted(delta.items())}
    return stats, delta
