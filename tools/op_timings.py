"""Print microseconds per call of vertipy's operators, layer by layer.

For the seed-0 problems nearest n = 10, 90 and 650 stations, convex and
nonconvex, it times:

* each of the six sets' ``project``, ``intrepid`` and ``residual``;
* the profile kernel's fused ``project_each``, its monitor alone
  (``kernel.monitor``: ``score(x)[0]``, whose projections are never asked
  for), and its ``score`` with both halves (``score(x)[1]()``), which gives
  both from one pass;
* ``ProductSet.project`` of the six sets (the kernel's fused
  ``project_rows``) on six copies of the start profile;
* one step of each feasibility algorithm, averaged over the first steps of
  a run from the problem's start profile (ParP, ExParP and ExAltP, whose
  iterates nothing scores here, project each one in the step);
* one iteration of every algorithm as ``run`` drives it: the step (one
  pass for the superiorized family) plus the squared proximity of the
  monitored point.

Each timing is calibrated once (the call count is doubled until one repeat
takes at least 5 ms) and then repeated; the table gives the median and the
interquartile range (IQR) of the repeats in µs per call.  The default of 5
repeats runs in well under a minute on a 2-vCPU machine:

    PYTHONPATH=src python tools/op_timings.py [--repeats N]

A vertipy on PYTHONPATH wins; without one, this checkout's ``src`` is used.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT / "src"))  # after PYTHONPATH, so that it can name another vertipy

from vertipy import feasibility, product  # noqa: E402
from vertipy.probgen import make_batch  # noqa: E402

SIZES = (10, 90, 650)
BUDGET_S = 0.005  # minimum duration of one repeat


def pick_problems(sizes=SIZES):
    """(label, problem) for the seed-0 problem nearest each size, convex then nonconvex."""
    picked = []
    for nonconvex in (False, True):
        batch = make_batch(0, count=100, nonconvex=nonconvex)
        for n in sizes:
            problem = min(batch, key=lambda p: (abs(p.v.size - n), p.problem_id))
            kind = "nonconvex" if nonconvex else "convex"
            picked.append((f"{problem.problem_id} n={problem.v.size} {kind}", problem))
    return picked


def per_call_us(fn, repeats):
    """Median and IQR over `repeats` of the mean µs per call of fn()."""
    number = 1
    while True:
        start = time.perf_counter()
        for _ in range(number):
            fn()
        if time.perf_counter() - start >= BUDGET_S or number >= 1 << 16:
            break
        number *= 2
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - start) / number * 1e6)
    if repeats < 2:
        return samples[0], 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return statistics.median(samples), q3 - q1


def operations(problem):
    """(name, zero-argument callable) for every timed operation on one problem."""
    sets, x = problem.sets, problem.v
    kernel = sets[0].kernel
    product_set = product.ProductSet(sets)
    parts = product.make_product_point(x, len(sets))
    ops = [
        (f"{c.tag}.{method}", lambda f=getattr(c, method): f(x))
        for c in sets
        for method in ("project", "intrepid", "residual")
    ]
    ops += [
        ("kernel.project_each", lambda: kernel.project_each(x)),
        ("kernel.monitor", lambda: kernel.score(x)[0]),
        ("kernel.score", lambda: kernel.score(x)[1]()),
        ("ProductSet.project", lambda: product_set.project(parts)),
    ]
    for name in feasibility.FEASIBILITY_ALGORITHMS:
        algo = feasibility.make_algorithm(name, sets, x)
        ops.append((f"step.{name}", algo.step))
    for name in feasibility.ALGORITHMS:
        algo = feasibility.make_algorithm(name, sets, x)

        def iteration(algo=algo):
            algo.step()
            return algo.segment_proximity2(algo.monitor())

        ops.append((f"iter.{name}", iteration))
    return ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5, help="timed repeats per operation")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    print(f"vertipy from {Path(feasibility.__file__).parent}", file=sys.stderr)
    print(f"{'problem':<26} {'operation':<22} {'median_us':>10} {'iqr_us':>8}")
    for label, problem in pick_problems():
        for name, fn in operations(problem):
            median, iqr = per_call_us(fn, args.repeats)
            print(f"{label:<26} {name:<22} {median:>10.2f} {iqr:>8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
