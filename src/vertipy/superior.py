"""Superiorization: steer a feasibility-seeking operator by small perturbations.

Given an operator T whose fixed points are the feasible set, each pass
perturbs the current iterate by a step of size theta (halved every pass,
accepted or not) along the ray through the anchor v, and keeps T of the
perturbed point only if the perturbation did not move away from v and T
improved the proximity measure; otherwise the iterate is left unchanged.
The six superiorized algorithms are `Superiorized` on the six sweeps of
`feasibility._SWEEPS`, one step path for all of them.

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
    """The superiorized form of a sweep T = step_fn(x, sets, rows) of `feasibility._SWEEPS`.

    Each segment of the profile (one, for one problem) is perturbed, tested
    and kept or not on its own, with its own norms, as that problem alone
    would be; theta is shared, since every segment has taken as many passes.
    A candidate T(x~) is scored by the kernel's `score` and tested against
    the kept iterate's `_score` (`metrics._Scored`): v's when the run
    starts, a kept candidate's from then on.  A candidate kept whole keeps
    that pass's deferred projections as `_rows`, and T takes them when x~
    has the bytes of x, so no point is projected twice; any other x~ hands
    T None, as does the pass after a partial acceptance, which keeps no rows.
    """

    kind = "super"
    carried_numbers = ("theta",)

    def __init__(self, step_fn, sets, v, direction: str = "away"):
        check_direction(direction)
        super().__init__(sets, v)
        self._step_fn = step_fn
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
        points, passed, unmoved = zip(*kernel.each(self._perturbed, x, v))
        xt = kernel.joined(points, x)
        tried = [j for j, ok in enumerate(passed) if ok]
        self.theta *= 0.5
        self._fixed = [False] * len(segments)
        if not tried:
            return
        # T(xt) replaces x on each tried segment whose proximity it lowers
        candidate = self._step_fn(xt, self.sets, self._rows if all(unmoved) else None)
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
