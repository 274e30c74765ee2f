"""Superiorization: steer a feasibility-seeking operator by small perturbations.

Given an operator T whose fixed points are the feasible set, each pass
perturbs the current iterate by a step of size theta (halved every pass,
accepted or not) along the ray through the anchor v, and keeps T of the
perturbed point only if the perturbation did not move away from v and T
improved the proximity measure; otherwise the iterate is left unchanged.

Two perturbation directions are available.  ``"away"`` uses
x~ = x + theta (x - v)/||x - v||, the scheme's defining recursion: in exact
arithmetic its norm-acceptance test ||x~ - v|| <= ||x - v|| passes only at
x = v itself, so the method takes one T step from the anchor and then
leaves the iterate unchanged while theta decays -- but only until theta is
so small that ||x~ - v|| rounds to ||x - v|| (and later x~ to x itself).
From then on the test passes and every pass is a plain T step gated on
proximity: on the two-set plane problem of the tests, sParP's trace is
flat from pass 1 to pass 53 and falls again from pass 54.  ``"toward"``
flips the sign, so perturbations reduce ||x - v|| and acceptance depends
only on T improving proximity -- the behavior to use when the goal is
actually steering toward the anchor.  The default is ``"away"``.

Once x~ rounds back to x bitwise and T(x) is rejected, every later pass
repeats that (theta only shrinks, rounding is monotone): `memoryless` says
so, and `feasibility.run` records the run as reaching the cap, with
``flags["stalled_at"]``.
"""

from __future__ import annotations

from .geometry import InvalidSpecError, _norm
# the benchmark's tracer wraps superior.proximity_squared_sum, so the name stays
from .metrics import _Scored, proximity_squared_sum  # noqa: F401

__all__ = ["Superiorized", "check_direction"]


def check_direction(direction) -> None:
    """Raise InvalidSpecError unless direction is "away" or "toward"."""
    if direction not in ("away", "toward"):
        raise InvalidSpecError(f"direction must be 'away' or 'toward', got {direction!r}")


class Superiorized(_Scored):
    """Driver-compatible superiorized wrapper around a step operator.

    Each segment of the profile (one, for one problem) is perturbed, tested
    and kept or not on its own, with its own norms, as that problem alone
    would be; theta is shared, since every segment has taken as many passes.
    The acceptance test compares a candidate's squared proximity with that
    of the kept iterate x (`_score`, see `metrics._Scored`): that of v when
    the run starts, and a kept candidate's own from then on.

    `base_step(x)` is T(x).  A parallel step also passes `from_rows(x,
    rows)`, T(x) from rows = project_each(x).  Each candidate is scored by
    the kernel's `score`, and when every segment keeps it, the pass's
    deferred projections stay with it as `_rows`: a later x~ with the bytes
    of x steps from them, with no second pass on the same point.  Any other
    x~ takes `base_step`.  A partial acceptance keeps no rows.
    """

    kind = "super"
    carried_numbers = ("theta",)

    def __init__(self, base_step, sets, v, direction: str = "away", from_rows=None):
        check_direction(direction)
        super().__init__(sets, v)
        self.base_step = base_step
        self.from_rows = from_rows
        self.sign = 1.0 if direction == "away" else -1.0
        self.theta = 1.0
        # per segment: the last pass perturbed x to itself and rejected T(x)
        self._fixed = [False] * len(self.sets.kernel.segments)

    def _perturbed(self, x, v):
        # one segment's perturbed point xt, whether it passes the norm test, and
        # whether it has the bytes of x: then ||xt - v|| is ||x - v||, and the
        # test is that norm against itself (false only for a NaN norm, as in full)
        offset = x - v
        norm = _norm(offset)
        xt = x + (self.sign * self.theta / norm) * offset if norm > 0.0 else x
        same = xt.tobytes() == x.tobytes()
        return xt, (norm <= norm if same else _norm(xt - v) <= norm), same

    def step(self):
        x, v, kernel = self.x, self.v, self.sets.kernel
        segments = kernel.segments
        if len(segments) == 1:  # a problem alone: its whole arrays, not a copy
            xt, passed, same = self._perturbed(x, v)
            tried, unmoved = [0] if passed else [], [same]
        else:
            xt, tried, unmoved = x.copy(), [], []
            for j, sl in enumerate(segments):
                xt[sl], passed, same = self._perturbed(x[sl], v[sl])
                unmoved.append(same)
                if passed:
                    tried.append(j)
        self.theta *= 0.5
        self._fixed = [False] * len(segments)
        if not tried:
            return
        # T(xt) replaces x on each tried segment whose proximity it lowers
        if self.from_rows is not None and self._rows is not None and all(unmoved):
            candidate = self.from_rows(xt, self._rows())
        else:
            candidate = self.base_step(xt)
        d2, rows = kernel.score(candidate)
        own, kept = self._score(), []
        for j in tried:
            if d2[j] < own[j]:
                kept.append(j)
            else:
                self._fixed[j] = unmoved[j]
        if len(kept) == len(segments):
            self._keep(candidate, d2, rows)
        elif kept:
            x, mixed = x.copy(), list(own)
            for j in kept:
                x[segments[j]] = candidate[segments[j]]
                mixed[j] = d2[j]
            self._keep(x, mixed)

    def memoryless(self, segment) -> bool:
        """True if the segment's last pass perturbed x to itself and rejected T(x).

        Every later pass then does the same.
        """
        return self._fixed[segment]
