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
# the benchmark's tracer wraps superior.proximity_squared_sum, so the name stays
from .metrics import _Algorithm, proximity_squared_sum  # noqa: F401

__all__ = ["Superiorized", "check_direction"]


def check_direction(direction) -> None:
    """Raise InvalidSpecError unless direction is "away" or "toward"."""
    if direction not in ("away", "toward"):
        raise InvalidSpecError(f"direction must be 'away' or 'toward', got {direction!r}")


class Superiorized(_Algorithm):
    """Driver-compatible superiorized wrapper around a step operator.

    Each segment of the profile (one, for one problem) is perturbed, tested
    and kept or not on its own, with its own norms, as that problem alone
    would be; theta is shared, since every segment has taken as many passes.
    `_d2` holds the squared proximity of each segment of the kept iterate
    x: that of v, computed when first asked for, until the acceptance test
    keeps a candidate segment and replaces its entry with the candidate's.
    `segment_proximity2` returns it, so `run` scores each iterate without
    computing the sum again.
    """

    kind = "super"

    def __init__(self, base_step, sets, v, direction: str = "away"):
        check_direction(direction)
        super().__init__(sets, v)
        self.base_step = base_step
        self.sign = 1.0 if direction == "away" else -1.0
        self.theta = 1.0
        # per segment: the last pass perturbed x to itself and rejected T(x)
        self._fixed = [False] * len(self.sets.kernel.segments)

    @cached_property
    def _d2(self):
        return self.sets.kernel.segment_proximity2(self.x)

    def _perturbed(self, x, v):
        # one segment's perturbed point xt, and whether it passes the norm test
        offset = x - v
        norm = _norm(offset)
        xt = x + (self.sign * self.theta / norm) * offset if norm > 0.0 else x
        return xt, _norm(xt - v) <= norm

    def step(self):
        x, v, kernel = self.x, self.v, self.sets.kernel
        segments = kernel.segments
        if len(segments) == 1:  # a problem alone: its whole arrays, not a copy
            xt, passed = self._perturbed(x, v)
            tried = [0] if passed else []
        else:
            xt, tried = x.copy(), []
            for j, sl in enumerate(segments):
                xt[sl], passed = self._perturbed(x[sl], v[sl])
                if passed:
                    tried.append(j)
        self.theta *= 0.5
        self._fixed = [False] * len(segments)
        if not tried:
            return
        # T(xt) replaces x on each tried segment whose proximity it lowers
        candidate = self.base_step(xt)
        d2 = kernel.segment_proximity2(candidate)
        kept = []
        for j in tried:
            if d2[j] < self._d2[j]:
                kept.append(j)
            else:
                self._fixed[j] = xt[segments[j]].tobytes() == x[segments[j]].tobytes()
        if len(kept) == len(segments):
            self.x, self._d2 = candidate, d2
        elif kept:
            self.x, self._d2 = x.copy(), list(self._d2)
            for j in kept:
                self.x[segments[j]] = candidate[segments[j]]
                self._d2[j] = d2[j]

    def segment_proximity2(self, x) -> list:
        """The squared proximity of each segment of x = monitor(), kept from the last test."""
        return self._d2

    def memoryless(self, segment) -> bool:
        """True if the segment's last pass perturbed x to itself and rejected T(x).

        Every later pass then does the same.
        """
        return self._fixed[segment]
