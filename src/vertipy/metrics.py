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
    "MAX_ITERATIONS",
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

# the largest k_max: every record holds k_max + 1 trace entries, and a run
# that stalls writes the whole tail of its trace at once
MAX_ITERATIONS = 1_000_000


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
        if not 0 < self.eps <= 1:  # d starts at 1: a larger eps ends every run before a step
            raise InvalidSpecError(f"eps must be in (0, 1], got {self.eps!r}")
        if not self.k_max >= 1:
            raise InvalidSpecError("k_max must be at least 1")
        if self.k_max > MAX_ITERATIONS:
            raise InvalidSpecError(f"k_max must be at most {MAX_ITERATIONS}, got {self.k_max}")


@dataclass
class RunRecord:
    """Outcome of one (algorithm, problem) run.

    d_trace holds d(x_k) for k = 0..iterations and final the last iterate.
    A record from `run` keeps its trace as a list; one read from a record
    file (`storage.read_records`) holds both as 1-D float64 arrays.
    """

    problem_id: str
    algorithm: str
    iterations: int
    converged: bool
    d_trace: list | np.ndarray
    final: np.ndarray
    wall_time: float = 0.0
    flags: dict = field(default_factory=dict)


class _Algorithm:
    """What `feasibility.run_batch` drives: the sets, the anchor v and the iterate x.

    The sets are resolved to their kernel once (`geometry._SetList`) and
    must not be empty; x starts as a copy of v.  Every algorithm has kind,
    step(), monitor() and segment_proximity2(x), which the driver calls with
    x = monitor() and which equals the monitor of the kernel's `score(x)`
    bitwise (for one problem, [proximity_squared_sum(x, sets)]).  An
    algorithm whose next step depends on its monitored point alone once
    that point repeats also has `memoryless(segment)` (see
    `feasibility.run`).  `signals` maps a segment whose last step found an
    empty intersection to the message; its columns were left as they were.

    On a batch profile (`geometry.lay_end_to_end`) every step is elementwise
    over all segments, or takes each segment's scalars from its own slices.
    A class names the state that `feasibility._carried` moves to a profile
    of the segments that are still running: `carried_columns`, arrays whose
    last axis runs over the profile's columns, and `carried_numbers`,
    numbers that every segment shares.  The constructor rebuilds the rest.
    """

    kind = "feas"
    signals: dict = {}  # never changed in place: a step that signals sets its own
    carried_columns = ("x",)
    carried_numbers = ()

    def __init__(self, sets, v):
        self.sets = _SetList(sets)
        if not self.sets:
            raise InvalidSpecError("need at least one set")
        self.v = np.asarray(v, dtype=float)
        self.x = self.v.copy()

    def segment_proximity2(self, x) -> list:
        """The squared proximity of each segment of the monitored point x."""
        return self.sets.kernel.score(x)[0]

    def monitor(self):
        return self.x


class _Scored(_Algorithm):
    """An algorithm that scores the iterate x it keeps and steps from that pass's projections.

    The six sweeps (`feasibility._SWEEPS`), hCycP, hParP and the
    superiorized family.  `_score` gives `_d2`, the squared proximity of
    each segment of x, from the kernel's `score` the first time it is asked
    for; that pass leaves `_rows`, the deferred project_each(x), for the
    next step, which takes all of it or one row (`rows.row(i)`); it is None
    while x is unscored, and the step then projects x itself.
    `segment_proximity2` returns `_d2`, so `run` scores each iterate, the
    start too, in that one pass.  Every change of x goes through `_keep`,
    with the score and rows a step already has of it, or a stale `_d2` is
    scored.
    """

    _d2 = None  # segment_proximity2(x), once a pass has scored x
    _rows = None  # project_each(x), deferred, from that pass

    def _score(self) -> list:
        if self._d2 is None:
            self._d2, self._rows = self.sets.kernel.score(self.x)
        return self._d2

    def _keep(self, x, d2=None, rows=None):
        self.x, self._d2, self._rows = x, d2, rows

    def segment_proximity2(self, x) -> list:
        """The squared proximity of each segment of x = monitor(), from the pass that scored it."""
        return self._score()


def proximity_squared_sum(x, sets) -> float:
    """Unnormalized sum of squared distances to the given sets.

    The six sets of one profile kernel, in canonical order, take its fused
    monitor (`score`), which returns this same sum bitwise; any other list
    sums the residuals of its sets in order (`geometry.kernel_of`).
    """
    return float(sum(kernel_of(sets).score(x)[0]))


def proximity(x, sets, x0) -> float:
    """Normalized d(x) relative to x0; unused in src, kept for the benchmark's check of final d."""
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
        by_alg.setdefault(rec.algorithm, []).append(rec.d_trace)

    # only one algorithm's padded (P, length) block exists at a time; it is squared in place
    ks = np.arange(length)
    beta = {}
    for a, traces in by_alg.items():
        block = np.empty((len(traces), length))
        for row, trace in zip(block, traces):
            row[: len(trace)] = trace
            row[len(trace) :] = trace[-1]
        mean_sq = np.mean(np.square(block, out=block), axis=0)
        with np.errstate(divide="ignore"):
            beta[a] = 10.0 * np.log10(mean_sq)
    return ks, beta


def _quartiles(values) -> tuple:
    """The 25th, 50th and 75th percentiles of a nonempty 1-D array.

    What np.percentile(values, [25, 50, 75], method="linear") gives, bit for
    bit, without its first call's import of numpy.ma: sort, take the
    neighbours of the virtual index (n - 1) q, and interpolate as numpy does.
    A NaN sorts last and makes every quartile NaN.  (Where -0.0 ties with
    0.0, numpy's partial sort may pick the other zero; distances never hold -0.0.)
    """
    ordered = np.sort(values)
    if math.isnan(ordered[-1]):
        return (float(ordered[-1]),) * 3
    last = ordered.size - 1
    quartiles = []
    for q in (0.25, 0.5, 0.75):
        at = last * q
        lo = math.floor(at) if at < last else -1  # past the end numpy takes the last value twice
        hi = lo + 1 if lo >= 0 else -1
        a, b, g = float(ordered[lo]), float(ordered[hi]), at - lo
        quartiles.append(a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g))
    return tuple(quartiles)


def _summary(values) -> dict:
    values = np.asarray(values, dtype=float)
    q1, med, q3 = _quartiles(values)
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
