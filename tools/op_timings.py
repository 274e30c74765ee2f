"""Print microseconds per call of vertipy's operators, layer by layer.

For the seed-0 problems nearest n = 10, 90 and 650 stations, convex and
nonconvex, it times:

* each of the six sets' ``project``, ``intrepid`` and ``residual``;
* the profile kernel's fused ``project_each``, its monitor alone
  (``kernel.monitor``: ``score(x)[0]``, whose projections are never asked
  for), the monitor at a near-feasible iterate, 50 CycP sweeps from the
  start (``kernel.monitor.near``: most of its curvature blocks are slack,
  and the monitor leaves those out), and its ``score`` with both halves
  (``score(x)[1]()``), which gives both from one pass;
* ``ProductSet.project`` of the six sets (the kernel's fused
  ``project_rows``) on six copies of the start profile;
* each set's projection as hCycP takes it from the pass that scored x
  (``<set>.row``: ``rows.row(i)`` of ``score(x)``, whose pass is not
  timed), beside the set's own ``project``;
* Haugazeau's Q as hParP takes it (``Q.each``: ``feasibility._q_each`` on
  the anchor, the iterate and its ParP step, Q_STEPS steps into a run) and
  as hD-R takes it on (6, n) product points (``Q.each.product``);
* one step of each feasibility algorithm, averaged over the first steps of
  a run from the problem's start profile (ParP, ExParP and ExAltP, whose
  iterates nothing scores here, project each one in the step);
* one iteration of every algorithm as ``run`` drives it: the step (one
  pass for the superiorized family) plus the squared proximity of the
  monitored point.

The monitor, the near-feasible monitor and both Qs are also timed on the
first 2 and the first 10 seed-0 problems laid end to end
(``geometry.lay_end_to_end``), convex and nonconvex, per call and per
segment (``.../segment``: the call divided by the number of segments).

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

import numpy as np  # noqa: E402

from vertipy import feasibility, product  # noqa: E402
from vertipy.geometry import kernel_of, lay_end_to_end  # noqa: E402
from vertipy.probgen import make_batch  # noqa: E402

SIZES = (10, 90, 650)
BATCHES = (2, 10)  # problems laid end to end for the batch monitor and Q
Q_STEPS = 5  # hParP and hD-R steps from the start to the point whose Q is timed
NEAR_SWEEPS = 50  # CycP sweeps from the start to the near-feasible iterate
BUDGET_S = 0.005  # minimum duration of one repeat


def pick_problems(sizes=SIZES):
    """(label, problem) for the seed-0 problem nearest each size, then (kind, problems)
    for the first problems of the batch, as many as each of BATCHES; convex, then nonconvex."""
    picked, batches = [], []
    for nonconvex in (False, True):
        batch = make_batch(0, count=100, nonconvex=nonconvex)
        kind = "nonconvex" if nonconvex else "convex"
        for n in sizes:
            problem = min(batch, key=lambda p: (abs(p.v.size - n), p.problem_id))
            picked.append((f"{problem.problem_id} n={problem.v.size} {kind}", problem))
        batches += [(kind, batch[:count]) for count in BATCHES]
    return picked, batches


def near_feasible(sets, v):
    """The monitored point NEAR_SWEEPS CycP sweeps from v."""
    algo = feasibility.make_algorithm("CycP", sets, v)
    for _ in range(NEAR_SWEEPS):
        algo.step()
    return algo.monitor()


def q_inputs(sets, v, product_point):
    """(x, y, z) of the Q that hParP (1-D) or hD-R (product point) takes after Q_STEPS steps."""
    algo = feasibility.make_algorithm("hD-R" if product_point else "hParP", sets, v)
    for _ in range(Q_STEPS):
        algo.step()
    if product_point:
        target = feasibility.dr_two_set_step(algo.parts, algo.product_set, algo.diagonal)
        return product.make_product_point(v, len(sets)), algo.parts, target
    return algo.v, algo.x, feasibility.parp_step(algo.x, sets)


def q_operations(sets, v):
    """(name, zero-argument callable) for both Qs on the profile of `sets`."""
    kernel = kernel_of(sets)
    return [
        (name, lambda args=q_inputs(sets, v, product_point): feasibility._q_each(kernel, *args))
        for name, product_point in (("Q.each", False), ("Q.each.product", True))
    ]


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
    near = near_feasible(sets, x)
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
        ("kernel.monitor.near", lambda: kernel.score(near)[0]),
        ("kernel.score", lambda: kernel.score(x)[1]()),
        ("ProductSet.project", lambda: product_set.project(parts)),
    ]
    rows = kernel.score(x)[1]
    ops += [(f"{c.tag}.row", lambda i=i: rows.row(i)) for i, c in enumerate(sets)]
    ops += q_operations(sets, x)
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


def batch_operations(problems):
    """The size of `problems` laid end to end, and (name, zero-argument callable) for its
    monitor and its Qs."""
    kernel = lay_end_to_end([p.sets[0].kernel for p in problems])
    sets = kernel.constraint_sets()
    x = kernel.joined([p.v for p in problems], np.zeros(kernel.n))
    near = near_feasible(sets, x)
    return kernel.n, [
        ("kernel.monitor", lambda: kernel.score(x)[0]),
        ("kernel.monitor.near", lambda: kernel.score(near)[0]),
        *q_operations(sets, x),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5, help="timed repeats per operation")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    print(f"vertipy from {Path(feasibility.__file__).parent}", file=sys.stderr)
    print(f"{'problem':<26} {'operation':<28} {'median_us':>10} {'iqr_us':>8}")
    picked, batches = pick_problems()
    for label, problem in picked:
        for name, fn in operations(problem):
            median, iqr = per_call_us(fn, args.repeats)
            print(f"{label:<26} {name:<28} {median:>10.2f} {iqr:>8.2f}")
    for kind, problems in batches:
        n, ops = batch_operations(problems)
        label, m = f"batch{len(problems)} n={n} {kind}", len(problems)
        for name, fn in ops:
            median, iqr = per_call_us(fn, args.repeats)
            print(f"{label:<26} {name:<28} {median:>10.2f} {iqr:>8.2f}")
            print(f"{label:<26} {name + '/segment':<28} {median / m:>10.2f} {iqr / m:>8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
