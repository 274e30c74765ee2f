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

import time
from dataclasses import dataclass, field

import numpy as np

from . import bestapprox, product
from .geometry import Breakpoints, InvalidSpecError
from .metrics import RunRecord, StopRule, proximity_squared_sum
from .superior import Superiorized

__all__ = [
    "AlgorithmConfigError",
    "FeasibilityProblem",
    "cycp_step",
    "cycp_plus_step",
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


def parp_step(x, sets):
    """Average of the projections onto every set.

    The projections are added in set order onto zeros and divided once:
    bit for bit what np.mean(axis=0) gives, whose reduction also starts at
    +0.0, without stacking them into an array first.
    """
    acc = np.zeros(np.shape(x))
    for c in sets:
        acc += c.project(x)
    acc /= len(sets)
    return acc


def sap_step(x, sets):
    """String averaging: mean of the partial products P_i ... P_1 x."""
    acc = np.zeros_like(np.asarray(x, dtype=float))
    y = x
    for c in sets:
        y = c.project(y)
        acc += y
    return acc / len(sets)


def exparp_step(x, sets):
    """Extrapolated parallel projections.

    Steps past the averaged projection by the ratio of the summed squared
    residuals to the squared norm of the summed displacement; identity on
    the intersection.
    """
    x = np.asarray(x, dtype=float)
    disp = np.zeros_like(x)
    num = 0.0
    for c in sets:
        p = c.project(x)
        disp += p - x
        num += float(np.dot(p - x, p - x))
    if num == 0.0:
        return x.copy()
    den = float(np.dot(disp, disp))
    if den < 1e-30:  # residual displacements cancelled; nothing sensible to extrapolate
        return x.copy()
    return x + (num / den) * disp


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
    others = sets[1:]
    if not others:
        return z
    num = 0.0
    acc = np.zeros_like(z)
    for c in others:
        p = c.project(z)
        acc += p
        num += float(np.dot(p - z, p - z))
    p = sets[0].project(acc / len(others))
    den = len(others) * float(np.dot(p - z, p - z))
    mu = 1.0 if (num == 0.0 or den < 1e-30) else num / den
    return z + mu * (p - z)


def dr_two_set_step(x, set_a, set_b):
    """Two-set D-R: returns (x - y + P_A(2y - x), y) with the shadow y = P_B x."""
    y = set_b.project(x)
    return x - y + set_a.project(2.0 * y - x), y


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


class _SweepAlgo:
    kind = "feas"

    def __init__(self, step_fn, sets, v):
        self._step_fn = step_fn
        self.sets = list(sets)
        self.x = np.asarray(v, dtype=float).copy()
        self._prev = None

    def step(self):
        self._prev = self.x
        self.x = self._step_fn(self.x, self.sets)

    def stalled(self) -> bool:
        """True if the last sweep returned its input: x is a fixed point."""
        return self._prev is not None and self._prev.tobytes() == self.x.tobytes()

    def monitor(self):
        return self.x


def _affine_first(sets):
    """The sets with the first affine one moved to the front, as ExAltP needs."""
    sets = list(sets)
    affine = [i for i, c in enumerate(sets) if getattr(c, "is_affine", False)]
    if not affine:
        raise AlgorithmConfigError("ExAltP needs an affine set (none in problem)")
    first = affine[0]
    return [sets[first]] + sets[:first] + sets[first + 1 :]


def _set_list(sets):
    sets = list(sets)
    if not sets:
        raise InvalidSpecError("need at least one set")
    return sets


class _ProductDR:
    """D-R on the product set and the diagonal, from rows v (or parts0); monitors their mean."""

    kind = "feas"

    def __init__(self, sets, v, parts0=None):
        self.sets = _set_list(sets)
        self.v = np.asarray(v, dtype=float)
        shape = (len(self.sets), self.v.size)
        if parts0 is None:
            self.parts = product.make_product_point(self.v, len(self.sets))
        else:
            parts0 = np.asarray(parts0, dtype=float)
            if parts0.shape != shape:
                raise AlgorithmConfigError(f"parts0 must have shape {shape}")
            self.parts = parts0.copy()
        self.product_set = product.ProductSet(self.sets)
        self.diagonal = product.Diagonal()

    def step(self):
        self.parts = dr_two_set_step(self.parts, self.product_set, self.diagonal)[0]

    def monitor(self):
        return product.diagonal_part(self.parts)


# ---------------------------------------------------------------------------
# best approximation: anchored algorithms over m sets
#
# Each starts at the anchor v and keeps the driver interface kind, step(),
# monitor(); kind "ba" makes `run` also require a small monitored step.


class _Anchored:
    """Anchor v, iterate x (starting at v) and pass counter k of the single-iterate methods."""

    kind = "ba"

    def __init__(self, sets, v):
        self.sets = _set_list(sets)
        self.v = np.asarray(v, dtype=float)
        self.x = self.v.copy()
        self.k = 0

    def monitor(self):
        return self.x


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


class HaugazeauParallel(_Anchored):
    """Averaged projections wrapped in Q: x <- Q(v, x, ParP(x))."""

    def step(self):
        self.x = bestapprox.q_operator(self.v, self.x, parp_step(self.x, self.sets))


class ParallelDykstra(_ProductDR):
    """Dykstra in the product space: project corrections in parallel, average."""

    kind = "ba"

    def __init__(self, sets, v):
        super().__init__(sets, v)
        self.z = np.zeros_like(self.parts)

    def step(self):
        shifted = self.z + product.diagonal_part(self.parts)
        self.parts = self.product_set.project(shifted)
        self.z = shifted - self.parts


class HaugazeauDouglasRachford(_ProductDR):
    """D-R in the product space wrapped in Q, anchored at the start point."""

    kind = "ba"

    def __init__(self, sets, v, parts0=None):
        super().__init__(sets, v, parts0)
        self._anchor = self.parts.copy()

    def step(self):
        target = dr_two_set_step(self.parts, self.product_set, self.diagonal)[0]
        flat = bestapprox.q_operator(self._anchor.ravel(), self.parts.ravel(), target.ravel())
        self.parts = flat.reshape(self.parts.shape)


class AnchoredDouglasRachford(_ProductDR):
    """Best-approximation D-R: the anchored recursion on C and D.

    x_{k+1,i} = x_{k,i} - xbar_k + P_i( (v + 2 xbar_k - x_{k,i}) / 2 ),
    monitored on the diagonal part xbar_k.
    """

    kind = "ba"

    def __init__(self, sets, v):  # no parts0: the anchored recursion starts at v
        super().__init__(sets, v)

    def step(self):
        self.parts = bestapprox.badr_two_set_step(
            self.parts, self.v, self.product_set, self.diagonal
        )[0]


def _sweep(step_fn, order=list):
    return lambda sets, v: _SweepAlgo(step_fn, order(sets), v)


def _superiorized(step_fn, order=list):
    def factory(sets, v, direction="away"):
        ordered = order(sets)
        return Superiorized(lambda x: step_fn(x, ordered), sets, v, direction=direction)

    return factory


FEASIBILITY_ALGORITHMS = {
    "CycP": _sweep(cycp_step),
    "CycP+": _sweep(cycp_plus_step),
    "ParP": _sweep(parp_step),
    "SaP": _sweep(sap_step),
    "ExParP": _sweep(exparp_step),
    "ExAltP": _sweep(exaltp_step, _affine_first),
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
    if name not in ALGORITHMS:
        raise AlgorithmConfigError(
            f"unknown algorithm {name!r}; known: {', '.join(sorted(ALGORITHMS))}"
        )
    factory = ALGORITHMS[name]
    if name in SUPERIORIZED_ALGORITHMS:
        return factory(sets, v, direction=options.get("direction", "away"))
    if name in ("D-R", "hD-R") and options.get("parts0") is not None:
        return factory(sets, v, parts0=options["parts0"])
    return factory(sets, v)


def run(
    algorithm: str,
    problem: FeasibilityProblem,
    stop: StopRule | None = None,
    **options,
) -> RunRecord:
    """Run one algorithm on one problem and record the proximity trace.

    The trace starts at d(x_0) = 1 and gains one entry per iteration.  A
    start that is already feasible (zero normalizer) short-circuits to a
    converged record with trace [0.0], once the algorithm is built (so a bad
    name still raises).  An infeasibility signal from the Q-based methods
    ends the run with converged=False and a flag.  A run whose ``stalled()``
    says its next step changes nothing ends early, recorded exactly as if it
    had run to the cap plus ``flags["stalled_at"]``.
    """
    stop = stop or StopRule()
    sets = problem.sets
    v = problem.v
    start = time.perf_counter()
    algo = make_algorithm(algorithm, sets, v, **options)
    denom = proximity_squared_sum(v, sets)
    if denom == 0.0:
        return RunRecord(
            problem_id=problem.problem_id,
            algorithm=algorithm,
            iterations=0,
            converged=True,
            d_trace=[0.0],
            final=v.copy(),
            wall_time=time.perf_counter() - start,
        )

    needs_small_step = algo.kind == "ba"
    stalled = getattr(algo, "stalled", None)
    trace = [1.0]
    converged = trace[-1] < stop.eps
    iterations = 0
    prev = v
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
            d = float(np.sqrt(proximity_squared_sum(x, sets) / denom))
            trace.append(d)
            iterations = k
            if d < stop.eps and (
                not needs_small_step or float(np.linalg.norm(x - prev)) < stop.eps
            ):
                converged = True
                break
            if stalled is not None and d == trace[-2] and stalled():
                trace.extend([d] * (stop.k_max - k))
                iterations = stop.k_max
                flags["stalled_at"] = k
                break
            prev = x

    final = algo.monitor()  # every algorithm starts its monitor at v
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
