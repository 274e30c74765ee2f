"""Feasibility-seeking and best-approximation algorithms and the run driver.

All methods consume a list of sets exposing project()/intrepid()/residual().
The feasibility methods drive an iterate toward the intersection; the
best-approximation methods seek the intersection point nearest the anchor
v, and are built from the same steps: H-W sweeps with `cycp_step`, hParP
wraps `parp_step` in Haugazeau's Q (:func:`vertipy.bestapprox.q_operator`),
and D-R, hD-R (Q around D-R) and baD-R run the two-set recursions on the
product set and the diagonal of :mod:`vertipy.product`.  One iteration is
one sweep (or one product-space update); CycDyk and hCycP take one
projection per iteration.

`run` executes any registered algorithm on a `FeasibilityProblem` under a
`StopRule`, recording the normalized proximity trace of the monitored
iterate.  Feasibility runs stop at d < eps; best-approximation runs also
require the monitored step length to drop below eps.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import bestapprox, product
from .geometry import Breakpoints, InvalidSpecError, _norm, _SetList, kernel_of
from .metrics import RunRecord, StopRule, _Algorithm, proximity_squared_sum
from .superior import Superiorized, check_direction

__all__ = [
    "AlgorithmConfigError",
    "FeasibilityProblem",
    "cycp_step",
    "cycp_plus_step",
    "project_each",
    "parp_step",
    "sap_step",
    "exparp_step",
    "exaltp_step",
    "dr_two_set_step",
    "admm_two_set_step",
    "ALGORITHMS",
    "FEASIBILITY_ALGORITHMS",
    "SUPERIORIZED_ALGORITHMS",
    "BEST_APPROXIMATION_ALGORITHMS",
    "make_algorithm",
    "start_proximity2",
    "run",
    "HalpernWittmann",
    "CyclicDykstra",
    "ParallelDykstra",
    "HaugazeauCyclic",
    "HaugazeauParallel",
    "HaugazeauDouglasRachford",
    "AnchoredDouglasRachford",
]


class AlgorithmConfigError(InvalidSpecError):
    """An algorithm was asked to run on a problem it cannot accept."""


@dataclass
class FeasibilityProblem:
    """A start v plus the sets whose intersection is sought (m >= 2)."""

    v: np.ndarray
    sets: list
    breakpoints: Breakpoints | None = None
    problem_id: str = "p0"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=float)
        if len(self.sets) < 2:
            raise InvalidSpecError("a feasibility problem needs at least two sets")
        for c in self.sets:
            if getattr(c, "n", self.v.size) != self.v.size:
                raise InvalidSpecError(
                    f"set {getattr(c, 'tag', c)} has dimension {c.n}, profile has {self.v.size}"
                )

    @property
    def m(self) -> int:
        return len(self.sets)


# ---------------------------------------------------------------------------
# step operators


def cycp_step(x, sets):
    """One sweep of cyclic projections: x <- P_m ... P_1 x."""
    for c in sets:
        x = c.project(x)
    return x


def cycp_plus_step(x, sets):
    """Cyclic sweep using each set's intrepid operator (its projection if it has none)."""
    for c in sets:
        x = c.intrepid(x)
    return x


def project_each(x, sets):
    """The projections of x onto each set, as the rows of an (m, n) array.

    The six sets of one profile kernel, in canonical order, take its fused
    `project_each`, whose rows equal the sets' own projections bitwise; any
    other list stacks `c.project(x)` (`geometry.kernel_of`).
    """
    return kernel_of(sets).project_each(x)


# Each parallel step below is a combine of the rows of project_each, so that
# a sweep that already holds those rows (see `_Surveyed`) can step from them.


def _parp_from(x, rows, sets):
    return product.diagonal_part(rows)


def parp_step(x, sets):
    """Average of the projections onto every set: P_D P_C (x, ..., x).

    The diagonal part of the stacked projections, i.e. their np.mean(axis=0)
    (whose reduction starts at +0.0).
    """
    return _parp_from(x, project_each(x, sets), sets)


def sap_step(x, sets):
    """String averaging: mean of the partial products P_i ... P_1 x."""
    acc = np.zeros_like(np.asarray(x, dtype=float))
    y = x
    for c in sets:
        y = c.project(y)
        acc += y
    return acc / len(sets)


def _exparp_from(x, rows, sets):
    x = np.asarray(x, dtype=float)
    disp = np.zeros_like(x)
    num = 0.0
    for r in rows - x:
        disp += r
        num += float(np.dot(r, r))
    if num == 0.0:
        return x.copy()
    den = float(np.dot(disp, disp))
    if den < 1e-30:  # residual displacements cancelled; nothing sensible to extrapolate
        return x.copy()
    return x + (num / den) * disp


def exparp_step(x, sets):
    """Extrapolated parallel projections.

    Steps past the averaged projection by the ratio of the summed squared
    residuals to the squared norm of the summed displacement; identity on
    the intersection.
    """
    return _exparp_from(x, project_each(x, sets), sets)


def _exaltp_at(z, rows, sets):
    # the ExAltP step from z = P_1 x and the rows of project_each(z, sets)
    if len(sets) == 1:
        return z
    num = 0.0
    acc = np.zeros_like(z)
    for p in rows[1:]:
        acc += p
        num += float(np.dot(p - z, p - z))
    others = len(sets) - 1
    p = sets[0].project(acc / others)
    den = others * float(np.dot(p - z, p - z))
    mu = 1.0 if (num == 0.0 or den < 1e-30) else num / den
    return z + mu * (p - z)


def _exaltp_from(x, rows, sets):
    # rows[0] is z = P_1 x.  The rows of x serve as z's only if z is x
    # bitwise: not at the start, which Interp moves, nor where x holds a
    # pinned -0.0 as +0.0 (z + mu (p - z) turns -0.0 into +0.0)
    z = rows[0]
    if z.tobytes() != x.tobytes():
        rows = project_each(z, sets)
    return _exaltp_at(z, rows, sets)


def exaltp_step(x, sets):
    """Extrapolated alternating projections; sets[0] must be affine.

    z = P_1 x; the remaining sets are averaged at z, pulled back through
    P_1, and the move z -> p is extrapolated by
    mu = sum_i ||z - P_i z||^2 / ((m-1) ||p - z||^2) (mu = 1 if z is already
    feasible for the others).
    """
    if not getattr(sets[0], "is_affine", False):
        raise AlgorithmConfigError("exaltp_step needs an affine set first")
    z = sets[0].project(x)
    return _exaltp_at(z, project_each(z, sets), sets)


def dr_two_set_step(x, set_a, set_b):
    """Two-set D-R: returns x - y + P_A(2y - x), with the shadow y = P_B x."""
    y = set_b.project(x)
    return x - y + set_a.project(2.0 * y - x)


def admm_two_set_step(b, u, set_a, set_b):
    """One ADMM round for the two-set feasibility problem.

    a_next = P_A(b - u); b_next = P_B(a_next + u); u_next = u + a_next - b_next.
    With b_0 in B and u_0 = 0, the iterates match two-set D-R started at
    x_0 = b_0 via x_k = a_k + u_{k-1} and P_B x_k = b_k.
    """
    a_next = set_a.project(b - u)
    b_next = set_b.project(a_next + u)
    u_next = u + a_next - b_next
    return a_next, b_next, u_next


# ---------------------------------------------------------------------------
# driver-facing algorithm wrappers
#
# Every algorithm is a `metrics._Algorithm`: it holds its sets resolved to
# their kernel once, and has kind, step(), monitor() and proximity2(x).


class _Surveyed(_Algorithm):
    """An iterate x whose squared proximity and projections come from one survey.

    A step starts from the rows `_rows` of x and passes its new x through
    `_surveyed`, which keeps its squared proximity `_d2` for `proximity2`
    and its rows for the next step.  The start is not surveyed: the first
    step projects it, and its squared proximity is computed when `run` asks
    for it as its normalizer.
    """

    @cached_property
    def _rows(self):
        return self.sets.kernel.project_each(self.x)

    @cached_property
    def _d2(self):
        return self.sets.kernel.proximity2(self.x)

    def _surveyed(self, x):
        self._d2, self._rows = self.sets.kernel.survey(x)
        return x

    def proximity2(self, x) -> float:
        return self._d2


class _SweepAlgo(_Algorithm):
    """x <- T(x) for a step function T of x and the sets."""

    def __init__(self, step_fn, sets, v):
        super().__init__(sets, v)
        self._step_fn = step_fn

    def step(self):
        self.x = self._step_fn(self.x, self.sets)

    def memoryless(self) -> bool:
        """Always true: a sweep's next x is a function of x alone."""
        return True


class _SurveyedSweep(_Surveyed, _SweepAlgo):
    """ParP, ExParP or ExAltP: the step combines the rows of x and surveys the result."""

    def step(self):
        self.x = self._surveyed(self._step_fn(self.x, self._rows, self.sets))


def _affine_first(sets):
    """The sets with the first affine one moved to the front, as ExAltP needs."""
    sets = list(sets)
    affine = [i for i, c in enumerate(sets) if getattr(c, "is_affine", False)]
    if not affine:
        raise AlgorithmConfigError("ExAltP needs an affine set (none in problem)")
    first = affine[0]
    return [sets[first]] + sets[:first] + sets[first + 1 :]


class _ProductDR(_Algorithm):
    """D-R on the product set and the diagonal, from rows v; monitors their mean."""

    def __init__(self, sets, v):
        super().__init__(sets, v)
        self.parts = product.make_product_point(self.v, len(self.sets))
        self.product_set = product.ProductSet(self.sets)
        self.diagonal = product.Diagonal()

    def step(self):
        self.parts = dr_two_set_step(self.parts, self.product_set, self.diagonal)

    def monitor(self):
        return self.diagonal.project(self.parts)


# ---------------------------------------------------------------------------
# best approximation: anchored algorithms over m sets
#
# Each starts at the anchor v; kind "ba" makes `run` also require a small
# monitored step.


class _Anchored(_Algorithm):
    """The single-iterate methods: x starts at the anchor v, and k counts the passes."""

    kind = "ba"
    k = 0


class HalpernWittmann(_Anchored):
    """Anchored cyclic projections: x_{k+1} = v/(k+1) + k/(k+1) P_m...P_1 x_k."""

    def step(self):
        w = self.k / (self.k + 1.0)
        self.x = (1.0 - w) * self.v + w * cycp_step(self.x, self.sets)
        self.k += 1


class CyclicDykstra(_Anchored):
    """Dykstra's algorithm, one projection per iteration.

    Each set keeps the correction produced at its previous visit; iteration
    k projects x + q_set onto set k mod m and stores the new correction.
    """

    def __init__(self, sets, v):
        super().__init__(sets, v)
        self.q = np.zeros((len(self.sets), self.x.size))

    def step(self):
        j = self.k % len(self.sets)
        shifted = self.x + self.q[j]
        x_next = self.sets[j].project(shifted)
        self.q[j] = shifted - x_next
        self.x = x_next
        self.k += 1


class HaugazeauCyclic(_Anchored):
    """Cyclic projections made strongly convergent: x <- Q(v, x, P_[k] x)."""

    def step(self):
        c = self.sets[self.k % len(self.sets)]
        self.x = bestapprox.q_operator(self.v, self.x, c.project(self.x))
        self.k += 1


class HaugazeauParallel(_Surveyed, _Anchored):
    """Averaged projections wrapped in Q: x <- Q(v, x, ParP(x))."""

    def step(self):
        parp = _parp_from(self.x, self._rows, self.sets)
        self.x = self._surveyed(bestapprox.q_operator(self.v, self.x, parp))


class ParallelDykstra(_ProductDR):
    """Dykstra in the product space: project corrections in parallel, average."""

    kind = "ba"

    def __init__(self, sets, v):
        super().__init__(sets, v)
        self.z = np.zeros_like(self.parts)

    def step(self):
        shifted = self.z + self.diagonal.project(self.parts)
        self.parts = self.product_set.project(shifted)
        self.z = shifted - self.parts


class HaugazeauDouglasRachford(_ProductDR):
    """D-R in the product space wrapped in Q, anchored at the start point."""

    kind = "ba"

    def __init__(self, sets, v):
        super().__init__(sets, v)
        self._anchor = self.parts.copy()

    def step(self):
        target = dr_two_set_step(self.parts, self.product_set, self.diagonal)
        flat = bestapprox.q_operator(self._anchor.ravel(), self.parts.ravel(), target.ravel())
        self.parts = flat.reshape(self.parts.shape)


class AnchoredDouglasRachford(_ProductDR):
    """Best-approximation D-R: the anchored recursion on C and D.

    x_{k+1,i} = x_{k,i} - xbar_k + P_i( (v + 2 xbar_k - x_{k,i}) / 2 ),
    monitored on the diagonal part xbar_k.
    """

    kind = "ba"

    def step(self):
        self.parts = bestapprox.badr_two_set_step(
            self.parts, self.v, self.product_set, self.diagonal
        )


def _sweep(step_fn, order=list, cls=_SweepAlgo):
    return lambda sets, v: cls(step_fn, order(sets), v)


def _superiorized(step_fn, order=list):
    def factory(sets, v, direction="away"):
        ordered = _SetList(order(sets))
        return Superiorized(lambda x: step_fn(x, ordered), ordered, v, direction=direction)

    return factory


FEASIBILITY_ALGORITHMS = {
    "CycP": _sweep(cycp_step),
    "CycP+": _sweep(cycp_plus_step),
    "ParP": _sweep(_parp_from, cls=_SurveyedSweep),
    "SaP": _sweep(sap_step),
    "ExParP": _sweep(_exparp_from, cls=_SurveyedSweep),
    "ExAltP": _sweep(_exaltp_from, _affine_first, _SurveyedSweep),
    "D-R": _ProductDR,
}

SUPERIORIZED_ALGORITHMS = {
    "sCycP": _superiorized(cycp_step),
    "sCycP+": _superiorized(cycp_plus_step),
    "sParP": _superiorized(parp_step),
    "sSaP": _superiorized(sap_step),
    "sExParP": _superiorized(exparp_step),
    "sExAltP": _superiorized(exaltp_step, _affine_first),
}

BEST_APPROXIMATION_ALGORITHMS = {
    "H-W": HalpernWittmann,
    "CycDyk": CyclicDykstra,
    "ParDyk": ParallelDykstra,
    "hCycP": HaugazeauCyclic,
    "hParP": HaugazeauParallel,
    "hD-R": HaugazeauDouglasRachford,
    "baD-R": AnchoredDouglasRachford,
}

ALGORITHMS = {
    **FEASIBILITY_ALGORITHMS,
    **SUPERIORIZED_ALGORITHMS,
    **BEST_APPROXIMATION_ALGORITHMS,
}


def make_algorithm(name: str, sets, v, **options):
    """Build a registered algorithm on `sets` from v.

    The one option is ``direction``, which steers the superiorized family;
    the other algorithms accept it and ignore it.  Every algorithm raises
    InvalidSpecError for a direction other than "away" or "toward", and
    AlgorithmConfigError for any other option.
    """
    if name not in ALGORITHMS:
        raise AlgorithmConfigError(
            f"unknown algorithm {name!r}; known: {', '.join(sorted(ALGORITHMS))}"
        )
    unknown = sorted(set(options) - {"direction"})
    if unknown:
        raise AlgorithmConfigError(
            f"unknown option(s) {', '.join(unknown)}; the only option is direction"
        )
    check_direction(options.get("direction", "away"))
    factory = ALGORITHMS[name]
    if name in SUPERIORIZED_ALGORITHMS:
        return factory(sets, v, **options)
    return factory(sets, v)


def _normalizer(problem, proximity2) -> float:
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported just below
        denom = proximity2(problem.v)
    if not math.isfinite(denom):
        raise InvalidSpecError(
            f"{problem.problem_id}: the start's squared proximity is {denom}, not a finite number"
        )
    return denom


def start_proximity2(problem: FeasibilityProblem) -> float:
    """The squared proximity of the start, which normalizes every d of a run.

    Raises InvalidSpecError if it is not a finite number: every d would then
    be NaN, which records.jsonl cannot hold.
    """
    return _normalizer(problem, lambda x: proximity_squared_sum(x, problem.sets))


def run(
    algorithm: str,
    problem: FeasibilityProblem,
    stop: StopRule | None = None,
    **options,
) -> RunRecord:
    """Run one algorithm on one problem and record the proximity trace.

    The trace starts at d(x_0) = 1 and gains one entry per iteration.  Every
    d is normalized by the start's squared proximity, which the algorithm
    computes once it is built (so a bad name or option raises first), as
    ``algo.proximity2(v)``; it raises InvalidSpecError if that is not a
    finite number (see `start_proximity2`).  A start that is already
    feasible (zero normalizer) takes no step: its record is converged, with
    trace [0.0] and final v.  An infeasibility signal from the Q-based
    methods ends the run with converged=False and a flag.

    A run ends early when its monitored point has the bytes of the monitored
    point one or two iterations back and the algorithm's optional
    ``memoryless()`` says its next step depends on that point alone: every
    later iteration then repeats the last one or two.  That always holds for
    the six sweeps and, for a superiorized method, after a pass that
    perturbed x to itself and rejected T(x); the product-space and
    best-approximation methods have no ``memoryless`` and never end early.
    The record is exactly the one that running to the cap would give, plus
    ``flags["stalled_at"]`` (and ``flags["period"] = 2`` for a 2-cycle).

    Each iteration steps the algorithm, takes the monitored point
    x = ``algo.monitor()`` and its squared proximity ``algo.proximity2(x)``,
    a function of x's bytes alone: an x with the bytes of the previous
    monitored point (hCycP and CycDyk often repeat one) repeats its d
    without asking.  An algorithm that has already computed that sum in its step returns it
    from there: the superiorized family keeps it from its acceptance test,
    and ParP, ExParP, ExAltP and hParP from the survey that also gives
    their next step's projections.
    """
    stop = stop or StopRule()
    v = problem.v
    start = time.perf_counter()
    algo = make_algorithm(algorithm, problem.sets, v, **options)
    denom = _normalizer(problem, algo.proximity2)
    needs_small_step = algo.kind == "ba"
    memoryless = getattr(algo, "memoryless", None)
    trace = [1.0 if denom else 0.0]  # a feasible start (denom 0) is converged as it stands
    converged = trace[-1] < stop.eps
    iterations = 0
    prev = v  # the monitored point one iteration back; back1, back2: the bytes one and two back
    back1, back2 = v.tobytes(), None
    final = None if denom else v.copy()
    flags = {}
    if not converged:
        for k in range(1, stop.k_max + 1):
            try:
                algo.step()
            except bestapprox.InfeasibleIntersectionError as exc:
                iterations = k - 1
                flags["infeasible_signal"] = str(exc)
                break
            x = algo.monitor()
            x_bytes = x.tobytes()
            period = 1 if x_bytes == back1 else 2 if x_bytes == back2 else 0
            d = trace[-1] if period == 1 else math.sqrt(algo.proximity2(x) / denom)
            trace.append(d)
            iterations = k
            if d < stop.eps and (not needs_small_step or _norm(x - prev) < stop.eps):
                converged = True
                break
            if not (period and memoryless is not None and memoryless()):
                prev, back1, back2 = x, x_bytes, back1
                continue
            # every later iteration repeats the last `period` ones: record what the cap would give
            remaining = stop.k_max - k
            tail = trace[-period:]
            trace.extend(tail[j % period] for j in range(remaining))
            if remaining % period:
                final = prev
            iterations = stop.k_max
            flags["stalled_at"] = k
            if period > 1:
                flags["period"] = period
            break

    if final is None:
        # with no step taken this is v, or for a product-space method the mean
        # of m copies of v, which can differ from v in the last bit
        final = algo.monitor()
    return RunRecord(
        problem_id=problem.problem_id,
        algorithm=algorithm,
        iterations=iterations,
        converged=converged,
        d_trace=trace,
        final=np.asarray(final, dtype=float),
        wall_time=time.perf_counter() - start,
        flags=flags,
    )
