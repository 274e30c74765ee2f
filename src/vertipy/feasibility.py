"""Feasibility-seeking and best-approximation algorithms and the run driver.

All methods consume a list of sets exposing project()/intrepid()/residual().
The feasibility methods drive an iterate toward the intersection: the six
sweeps, each defined once in `_SWEEPS` and run plain or superiorized, and
D-R.  The best-approximation methods seek the intersection point nearest
the anchor v, and are built from the same steps: H-W sweeps with
`cycp_step`, hCycP and hParP wrap one projection and `parp_step` in
Haugazeau's Q (:func:`vertipy.bestapprox.q_operator`, which `_q_each`
takes per segment from its two halves), and D-R, hD-R (Q around D-R) and
baD-R run the two-set recursions on the product set and the diagonal of
:mod:`vertipy.product`.  One iteration is one sweep (or one product-space
update); CycDyk and hCycP take one projection per iteration.  The six
sweeps, hCycP, hParP and the superiorized family score each iterate they
keep in the kernel pass whose projections their next step takes
(`metrics._Scored`).

`run` executes any registered algorithm on a `FeasibilityProblem` under a
`StopRule`, recording the normalized proximity trace of the monitored
iterate.  Feasibility runs stop at d < eps; best-approximation runs also
require the monitored step length to drop below eps.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import bestapprox, product
from .geometry import (
    Breakpoints,
    InvalidSpecError,
    ProfileKernel,
    _norm,
    kernel_of,
    lay_end_to_end,
)
from .metrics import RunRecord, StopRule, _Algorithm, _Scored, proximity_squared_sum
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
    "run_batch",
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


# The parallel steps take `rows`, the rows of project_each(x, sets), if the
# caller has them (those of the pass that scored x, `metrics._Scored`).


def parp_step(x, sets, rows=None):
    """Average of the projections onto every set: P_D P_C (x, ..., x).

    The diagonal part of the stacked projections, i.e. their np.mean(axis=0)
    (whose reduction starts at +0.0).
    """
    return product.diagonal_part(project_each(x, sets) if rows is None else rows)


def sap_step(x, sets):
    """String averaging: mean of the partial products P_i ... P_1 x."""
    acc = np.zeros_like(np.asarray(x, dtype=float))
    y = x
    for c in sets:
        y = c.project(y)
        acc += y
    return acc / len(sets)


def exparp_step(x, sets, rows=None):
    """Extrapolated parallel projections.

    Steps past the averaged projection by the ratio of the summed squared
    residuals to the squared norm of the summed displacement; identity on
    the intersection.  The ratio is each segment's own (`_exparp_segment`).
    """
    x = np.asarray(x, dtype=float)
    kernel = kernel_of(sets)
    moves = (kernel.project_each(x) if rows is None else rows) - x
    disp = np.zeros_like(x)
    for r in moves:
        disp += r
    return kernel.joined(kernel.each(_exparp_segment, x, moves, disp), x)


def _exparp_segment(x, moves, disp):
    # ExParP on one segment's columns: x + (sum_i ||r_i||^2 / ||disp||^2) disp
    num = 0.0
    for r in moves:
        num += float(np.dot(r, r))
    den = float(np.dot(disp, disp)) if num != 0.0 else 0.0
    # num = 0: x is on every set; den < 1e-30: the residual displacements
    # cancelled, and there is nothing sensible to extrapolate
    if num == 0.0 or den < 1e-30:
        return x.copy()
    return x + (num / den) * disp


def exaltp_step(x, sets, rows=None):
    """Extrapolated alternating projections; sets[0] must be affine.

    z = P_1 x; the remaining sets are averaged at z, pulled back through
    P_1, and the move z -> p is extrapolated by
    mu = sum_i ||z - P_i z||^2 / ((m-1) ||p - z||^2) (mu = 1 if z is already
    feasible for the others), with mu from each segment's own slices.
    """
    if not getattr(sets[0], "is_affine", False):
        raise AlgorithmConfigError("exaltp_step needs an affine set first")
    z = sets[0].project(x) if rows is None else rows[0]
    if len(sets) == 1:
        return z
    kernel = kernel_of(sets)
    # the rows of x serve as z's only if z is x bitwise: not at the start,
    # which Interp moves, nor where x holds a pinned -0.0 as +0.0
    # (z + mu (p - z) turns -0.0 into +0.0)
    if rows is None or z.tobytes() != x.tobytes():
        rows = kernel.project_each(z)
    acc = np.zeros_like(z)
    for p in rows[1:]:
        acc += p
    p = sets[0].project(acc / (len(sets) - 1))
    return kernel.joined(kernel.each(_exaltp_segment, z, rows, p), z)


def _exaltp_segment(z, rows, p):
    # ExAltP on one segment's columns: z + mu (p - z), mu from rows[1:], the others' P_i z
    num = 0.0
    for q in rows[1:] - z:
        num += float(np.dot(q, q))
    move = p - z
    den = (len(rows) - 1) * float(np.dot(move, move))
    return z + (1.0 if (num == 0.0 or den < 1e-30) else num / den) * move


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
# their kernel once, and has kind, step(), monitor() and segment_proximity2(x).


class _SweepAlgo(_Scored):
    """x <- T(x, sets, rows) for a sweep T of `_SWEEPS`."""

    def __init__(self, step_fn, sets, v):
        super().__init__(sets, v)
        self._step_fn = step_fn

    def step(self):
        self._keep(self._step_fn(self.x, self.sets, self._rows))

    def memoryless(self, segment) -> bool:
        """Always true: a sweep's next x is a function of x alone."""
        return True


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

    carried_columns = ("parts",)  # x stays v

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
    carried_numbers = ("k",)
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

    carried_columns = ("x", "q")

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


def _q_each(kernel, x, y, z):
    """Haugazeau's Q(x, y, z) on each segment of `kernel`, and the segments that signal.

    x - y and y - z are taken once over the profile.  Each segment takes
    Q's branch (`bestapprox.q_branch`) from its own slices of them
    (raveled, for the rows of a product point), so its dots are the ones
    that problem alone takes, and its columns get that branch's result.
    Pad columns keep y, as does a segment whose Q finds the halfspaces
    disjoint; the second value maps it to the message.  One segment works
    on the whole arrays.
    """
    xy, yz = x - y, y - z
    if len(kernel.segments) == 1:
        try:
            branch = bestapprox.q_branch(xy.ravel(), yz.ravel())
        except bestapprox.InfeasibleIntersectionError as exc:
            return y, {0: str(exc)}
        return bestapprox.q_result(x, y, z, xy, branch), {}
    out, signals = y.copy(), {}
    for j, sl in enumerate(kernel.segments):
        xyj = xy[..., sl]
        try:
            branch = bestapprox.q_branch(xyj.ravel(), yz[..., sl].ravel())
        except bestapprox.InfeasibleIntersectionError as exc:
            signals[j] = str(exc)
            continue
        out[..., sl] = bestapprox.q_result(x[..., sl], y[..., sl], z[..., sl], xyj, branch)
    return out, signals


class HaugazeauCyclic(_Scored, _Anchored):
    """Cyclic projections made strongly convergent: x <- Q(v, x, P_[k] x).

    P_[k] x is row k of the pass that scored x, if one did, else the set's
    projection: the driver scores no x that repeats its last monitored
    point's bytes.
    """

    def step(self):
        i = self.k % len(self.sets)
        z = self.sets[i].project(self.x) if self._rows is None else self._rows.row(i)
        x, self.signals = _q_each(self.sets.kernel, self.v, self.x, z)
        self._keep(x)
        self.k += 1


class HaugazeauParallel(_Scored, _Anchored):
    """Averaged projections wrapped in Q: x <- Q(v, x, ParP(x))."""

    def step(self):
        parp = _of_rows(parp_step)(self.x, self.sets, self._rows)
        x, self.signals = _q_each(self.sets.kernel, self.v, self.x, parp)
        self._keep(x)


class ParallelDykstra(_ProductDR):
    """Dykstra in the product space: project corrections in parallel, average."""

    kind = "ba"
    carried_columns = ("parts", "z")

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
        self.parts, self.signals = _q_each(self.sets.kernel, self._anchor, self.parts, target)


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


def _of_x(step):
    # T of a step of x alone: the rows of x's scoring pass go unused
    return lambda x, sets, rows: step(x, sets)


def _of_rows(step):
    # T of a parallel step: from the rows of x's scoring pass, if there is one
    return lambda x, sets, rows: step(x, sets, None if rows is None else rows())


# The six sweeps, each once: name -> (T, set order).  T(x, sets, rows) is one
# sweep from x, where rows is the deferred project_each(x) of the pass that
# scored x (`metrics._Scored`), or None.
_SWEEPS = {
    "CycP": (_of_x(cycp_step), list),
    "CycP+": (_of_x(cycp_plus_step), list),
    "ParP": (_of_rows(parp_step), list),
    "SaP": (_of_x(sap_step), list),
    "ExParP": (_of_rows(exparp_step), list),
    "ExAltP": (_of_rows(exaltp_step), _affine_first),
}


def _on_sweep(cls, step_fn, order):
    # cls on a sweep and the sets in its order; Superiorized also takes direction
    return lambda sets, v, **options: cls(step_fn, order(sets), v, **options)


FEASIBILITY_ALGORITHMS = {name: _on_sweep(_SweepAlgo, *sw) for name, sw in _SWEEPS.items()}
FEASIBILITY_ALGORITHMS["D-R"] = _ProductDR

SUPERIORIZED_ALGORITHMS = {"s" + name: _on_sweep(Superiorized, *sw) for name, sw in _SWEEPS.items()}

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


def _normalizer(problem, denom) -> float:
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
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported by _normalizer
        return _normalizer(problem, proximity_squared_sum(problem.v, problem.sets))


def _lay_out(problems):
    """The sets and start of one profile holding `problems` end to end; one problem's own."""
    if len(problems) == 1:
        return problems[0].sets, problems[0].v
    kernels = [kernel_of(p.sets) for p in problems]
    if not all(isinstance(k, ProfileKernel) and len(k.spans) == 1 for k in kernels):
        raise AlgorithmConfigError("only profile problems, each with its six sets, share a batch")
    kernel = lay_end_to_end(kernels)
    return kernel.constraint_sets(), kernel.joined([p.v for p in problems], np.zeros(kernel.n))


def _carried(algo, kept, algorithm, problems, options):
    """`algorithm` on a profile of `problems`, the segments `kept` of algo's, in algo's state.

    The state is what the class names: its `carried_columns` move column
    by column (0.0 between segments), and its `carried_numbers` carry
    over.  Everything else is the new algorithm's own: its sets, the steps
    built on them and their caches, and a scored iterate's proximity and
    projections, which the new kernel computes from x again, bitwise per
    segment.
    """
    sets, v = _lay_out(problems)
    new = make_algorithm(algorithm, sets, v, **options)
    moves = list(zip([algo.sets.kernel.segments[j] for j in kept], new.sets.kernel.segments))
    for name in new.carried_columns:
        value = getattr(algo, name)
        moved = np.zeros(value.shape[:-1] + v.shape)
        for old, now in moves:
            moved[..., now] = value[..., old]
        setattr(new, name, moved)
    for name in new.carried_numbers:
        setattr(new, name, getattr(algo, name))
    return new


class _Segment:
    """One problem's run inside a batch: its trace so far and how it ended."""

    __slots__ = (
        "problem", "denom", "trace", "converged", "prev", "back1", "back2", "final", "flags",
        "wall_time",
    )

    def __init__(self, problem, denom, eps):
        self.problem = problem
        self.denom = denom
        # a feasible start (denom 0) is converged as it stands
        self.trace = [1.0 if denom else 0.0]
        self.converged = self.trace[-1] < eps
        # the monitored point one iteration back; back1, back2: the bytes one and two back
        self.prev = problem.v
        self.back1, self.back2 = problem.v.tobytes(), None
        self.final = None if denom else problem.v.copy()
        self.flags = {}
        self.wall_time = 0.0

    def record(self, algorithm) -> RunRecord:
        return RunRecord(
            problem_id=self.problem.problem_id,
            algorithm=algorithm,
            iterations=len(self.trace) - 1,  # one entry per iteration after the start
            converged=self.converged,
            d_trace=self.trace,
            final=np.array(self.final, dtype=float),
            wall_time=self.wall_time,
            flags=self.flags,
        )


def run_batch(algorithm: str, problems, stop: StopRule | None = None, **options):
    """Run one algorithm on problems laid end to end; yield each record as its problem stops.

    More than one problem must all be profile problems of one slope kind:
    they are laid in one profile (`geometry.lay_end_to_end`), each as a
    segment of its columns, and one algorithm steps them all.  Each
    segment stops by `run`'s rules on its own: its normalizer, trace, exact
    exit, step-length test, infeasibility signal and final are its own,
    and every scalar a step takes over a whole vector (a dot, a norm, a
    sum) is taken on the segment's own slices, so its record is bitwise
    the one `run` gives on that problem alone (up to the sign of a zero in
    a segment's first or last two columns, which a pair or triple across
    its edge adds +0.0 to).  Once segments stop, the survivors are laid out
    afresh and the state the algorithm names is carried over (`_carried`).  Each
    record's wall_time is its share of the batch: the time of every
    iteration is split evenly among the segments it stepped.  A start whose
    squared proximity is not finite raises InvalidSpecError before any step.
    """
    stop = stop or StopRule()
    eps, k_max = stop.eps, stop.k_max
    problems = list(problems)
    since = time.perf_counter()  # the start of the iterations that the live segments share
    sets, v = _lay_out(problems)
    algo = make_algorithm(algorithm, sets, v, **options)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported just below
        denoms = list(algo.segment_proximity2(v))
    live = [_Segment(p, _normalizer(p, d), eps) for p, d in zip(problems, denoms)]
    segments = algo.sets.kernel.segments
    small_step = algo.kind == "ba"
    ended = [j for j, seg in enumerate(live) if seg.converged]
    for j in ended:
        if live[j].final is None:
            # with no step taken this is v, or for a product-space method the mean
            # of m copies of v, which can differ from v in the last bit
            live[j].final = algo.monitor()[segments[j]]
    k = 0
    while True:
        if ended:
            share = (time.perf_counter() - since) / len(live)
            for seg in live:
                seg.wall_time += share
            for j in ended:
                yield live[j].record(algorithm)
            since = time.perf_counter()
            kept = [j for j in range(len(live)) if j not in ended]
            if not kept:
                return
            live = [live[j] for j in kept]
            algo = _carried(algo, kept, algorithm, [seg.problem for seg in live], options)
            segments = algo.sets.kernel.segments
        k += 1
        algo.step()
        # each segment's monitored point, scored from its bytes alone: one with
        # the bytes of its previous point (hCycP and CycDyk often repeat one)
        # repeats its d, and if every segment does, no proximity is computed
        x = algo.monitor()
        signals = algo.signals
        d2 = None
        ended = []
        for j, seg in enumerate(live):
            xj = x[segments[j]]
            if j in signals:  # the segment's columns were left as they were
                seg.flags["infeasible_signal"] = signals[j]
                seg.final = xj
                ended.append(j)
                continue
            x_bytes = xj.tobytes()
            period = 1 if x_bytes == seg.back1 else 2 if x_bytes == seg.back2 else 0
            if period == 1:
                d = seg.trace[-1]
            else:
                d2 = algo.segment_proximity2(x) if d2 is None else d2
                d = math.sqrt(d2[j] / seg.denom)
            seg.trace.append(d)
            if d < eps and (not small_step or _norm(xj - seg.prev) < eps):
                seg.converged = True
                seg.final = xj
            elif period and hasattr(algo, "memoryless") and algo.memoryless(j):
                # every later iteration repeats the last `period` ones: record what the cap gives
                remaining = k_max - k
                seg.trace.extend((seg.trace[-period:] * (remaining // period + 1))[:remaining])
                seg.final = seg.prev if remaining % period else xj
                seg.flags["stalled_at"] = k
                if period > 1:
                    seg.flags["period"] = period
            elif k == k_max:
                seg.final = xj
            else:
                seg.prev, seg.back1, seg.back2 = xj, x_bytes, seg.back1
                continue
            ended.append(j)


def run(
    algorithm: str,
    problem: FeasibilityProblem,
    stop: StopRule | None = None,
    **options,
) -> RunRecord:
    """Run one algorithm on one problem and record the proximity trace: `run_batch` of one.

    The trace starts at d(x_0) = 1 and gains one entry per iteration.  Every
    d is normalized by the start's squared proximity, which the algorithm
    computes once it is built (so a bad name or option raises first); it
    raises InvalidSpecError if that is not a finite number (see
    `start_proximity2`).  A start that is already feasible (zero
    normalizer) takes no step: its record is converged, with trace [0.0]
    and final v.  An infeasibility signal from the Q-based methods ends the
    run with converged=False and a flag.

    A run ends early when its monitored point has the bytes of the monitored
    point one or two iterations back and the algorithm's optional
    ``memoryless(segment)`` says its next step depends on that point alone:
    every later iteration then repeats the last one or two.  That always
    holds for the six sweeps and, for a superiorized method, after a pass
    that perturbed x to itself and rejected T(x); the product-space and
    best-approximation methods have no ``memoryless`` and never end early.
    The record is exactly the one that running to the cap would give, plus
    ``flags["stalled_at"]`` (and ``flags["period"] = 2`` for a 2-cycle).

    Each iteration steps the algorithm and scores its monitored point, x =
    ``algo.monitor()``, from ``algo.segment_proximity2(x)``, a function of
    x's bytes alone: an x with the bytes of the previous monitored point
    (hCycP and CycDyk often repeat one) repeats its d without asking.  The
    six sweeps, hCycP, hParP and the superiorized family score each
    iterate they keep, the start included, in the one kernel pass whose
    projections their next step may take (`metrics._Scored`).
    """
    (record,) = run_batch(algorithm, [problem], stop, **options)
    return record
