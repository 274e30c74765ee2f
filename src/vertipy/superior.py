"""Superiorization: steer a feasibility-seeking operator by small perturbations.

Given an operator T whose fixed points are the feasible set, each pass
perturbs the current iterate by a step of size theta (halved every pass,
accepted or not) along the ray through the anchor v, and keeps T of the
perturbed point only if the perturbation did not move away from v and T
improved the proximity measure; otherwise the iterate is left unchanged.

Two perturbation directions are available.  ``"away"`` uses
x~ = x + theta (x - v)/||x - v||, the scheme's defining recursion: its
norm-acceptance test ||x~ - v|| <= ||x - v|| can then only pass at x = v
itself, so the method performs a single accepted T step from the anchor and
afterwards leaves the iterate unchanged while theta decays.  ``"toward"``
flips the sign, so perturbations reduce ||x - v|| and acceptance depends
only on T improving proximity -- the behavior to use when the goal is
actually steering toward the anchor.  The default is ``"away"``.

Once x~ rounds back to x bitwise and T(x) is rejected, every later pass
repeats that (theta only shrinks, rounding is monotone): `memoryless` says
so, and `feasibility.run` records the run as reaching the cap, with
``flags["stalled_at"]``.
"""

from __future__ import annotations

from functools import cached_property

from .geometry import InvalidSpecError, _norm
from .metrics import _Algorithm, proximity_squared_sum

__all__ = ["Superiorized", "check_direction"]


def check_direction(direction) -> None:
    """Raise InvalidSpecError unless direction is "away" or "toward"."""
    if direction not in ("away", "toward"):
        raise InvalidSpecError(f"direction must be 'away' or 'toward', got {direction!r}")


class Superiorized(_Algorithm):
    """Driver-compatible superiorized wrapper around a step operator.

    `_d2` is always the squared proximity of the kept iterate x: that of v,
    computed when first asked for, until the acceptance test keeps a
    candidate and replaces it with the candidate's.
    `proximity2` returns it, so `run` scores each iterate without computing
    the sum again.
    """

    kind = "super"

    def __init__(self, base_step, sets, v, direction: str = "away"):
        check_direction(direction)
        super().__init__(sets, v)
        self.base_step = base_step
        self.sign = 1.0 if direction == "away" else -1.0
        self.theta = 1.0
        self._fixed = False  # the last pass perturbed x to itself and rejected T(x)

    @cached_property
    def _d2(self):
        return proximity_squared_sum(self.x, self.sets)

    def step(self):
        x = self.x
        offset = x - self.v
        norm = _norm(offset)
        if norm > 0.0:
            xt = x + (self.sign * self.theta / norm) * offset
        else:
            xt = x
        self.theta *= 0.5
        self._fixed = False
        if _norm(xt - self.v) <= norm:
            candidate = self.base_step(xt)
            d2 = proximity_squared_sum(candidate, self.sets)
            if d2 < self._d2:
                self.x = candidate
                self._d2 = d2
            else:
                self._fixed = xt.tobytes() == x.tobytes()

    def proximity2(self, x) -> float:
        """The squared proximity of x = monitor(), kept from the acceptance test."""
        return self._d2

    def memoryless(self) -> bool:
        """True if the last pass perturbed x to itself and rejected T(x), as all later ones will."""
        return self._fixed
