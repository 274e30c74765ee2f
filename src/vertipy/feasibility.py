"""Feasibility-seeking algorithms and the run driver.

All methods consume a list of sets exposing project()/intrepid()/residual()
and drive an iterate toward the intersection.  One iteration means one
sweep (or one product-space update); the cyclic Dykstra variant over in
:mod:`vertipy.bestapprox` is the only per-projection counter.

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
from .product import dr_step
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
    "dr_step",
    "dr_two_set_step",
    "admm_two_set_step",
    "ALGORITHMS",
    "FEASIBILITY_ALGORITHMS",
    "SUPERIORIZED_ALGORITHMS",
    "BEST_APPROXIMATION_ALGORITHMS",
    "make_algorithm",
    "run",
]


class AlgorithmConfigError(ValueError):
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
    """Average of the projections onto every set."""
    return np.mean([c.project(x) for c in sets], axis=0)


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
    """Plain two-set Douglas-Rachford.  Returns (x_next, shadow P_B x)."""
    y = set_b.project(x)
    return set_a.project(2.0 * y - x) + x - y, y


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


class _ProductDR:
    kind = "feas"

    def __init__(self, sets, v, parts0=None):
        self.sets = list(sets)
        if parts0 is None:
            self.parts = product.make_product_point(np.asarray(v, dtype=float), len(self.sets))
        else:
            parts0 = np.asarray(parts0, dtype=float)
            if parts0.shape != (len(self.sets), np.asarray(v).size):
                raise AlgorithmConfigError(
                    f"parts0 must have shape ({len(self.sets)}, {np.asarray(v).size})"
                )
            self.parts = parts0.copy()

    def step(self):
        self.parts = dr_step(self.parts, self.sets)

    def monitor(self):
        return product.diagonal_part(self.parts)


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
    "H-W": bestapprox.HalpernWittmann,
    "CycDyk": bestapprox.CyclicDykstra,
    "ParDyk": bestapprox.ParallelDykstra,
    "hCycP": bestapprox.HaugazeauCyclic,
    "hParP": bestapprox.HaugazeauParallel,
    "hD-R": bestapprox.HaugazeauDouglasRachford,
    "baD-R": bestapprox.AnchoredDouglasRachford,
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
    converged record with trace [0.0].  An infeasibility signal from the
    Q-based methods ends the run with converged=False and a flag.  A run
    whose ``stalled()`` says its next step changes nothing ends early,
    recorded exactly as if it had run to the cap plus ``flags["stalled_at"]``.
    """
    stop = stop or StopRule()
    sets = problem.sets
    v = problem.v
    start = time.perf_counter()
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

    algo = make_algorithm(algorithm, sets, v, **options)
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
