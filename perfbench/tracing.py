"""Outside-in tracing of the vertipy pipeline.

The tracer wraps vertipy's public functions and constraint methods in the
module or class where the caller looks them up, so nothing under ``src/``
changes.  Each call becomes a span (name, start, end, parent); a span's self
time is its duration minus the time of the spans it encloses.  Coarse spans
(stages, storage and report functions, one per (algorithm, problem) pair)
are kept whole; the per-iteration ones (steps, monitors, projections) are
folded into per-name totals as they close, which keeps memory flat over
millions of calls.

``vertipy run --jobs N`` forks its pool workers after the tracer is
installed, so the workers inherit the wrappers.  A worker notices the new
process id at its first pair, drops what it inherited, and appends its
spans to ``spans-<pid>.jsonl`` after every pair; ``collect`` merges the
files of all processes.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from vertipy import bestapprox, cli, feasibility, geometry, probgen, product, storage, superior

STORAGE_FUNCTIONS = (
    "save_problem",
    "write_manifest",
    "load_problem_dir",
    "append_record",
    "read_records",
    "write_records",
    "write_profile_csv",
    "write_proximity_csv",
    "write_delta_csv",
)
REPORT_FUNCTIONS = {  # name looked up by cli.cmd_report -> span name
    "performance_profile": "metrics.performance_profile",
    "relative_proximity_curve": "metrics.proximity_curve",
    "distance_stats": "metrics.distance_stats",
}
GEOMETRY_METHODS = ("project", "intrepid", "residual")


GEOMETRY_CLASSES = (  # class -> layer suffix; None: "slope", or "slope_nc" when not convex
    (geometry.InterpolationConstraint, "interp"),
    (geometry.SlopeConstraint, None),
    (geometry.CurvatureConstraint, "curv"),
)


def _geometry_label(method, kind):
    if kind is not None:
        return f"geometry.{method}.{kind}"
    names = {True: f"geometry.{method}.slope", False: f"geometry.{method}.slope_nc"}
    return lambda constraint: names[constraint.convex]


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self, span_dir):
        self.span_dir = Path(span_dir)
        self.span_dir.mkdir(parents=True, exist_ok=True)
        self.pid = os.getpid()
        self.stack = []  # open spans: [seconds spent in children, span id]
        self.totals = {}  # span name -> [calls, seconds, self seconds]
        self.counts = {}  # counter name -> int
        self.spans = []  # kept spans: (id, parent id, name, start, end, self seconds)
        self._ids = itertools.count(1)
        self._patches = []

    # -- span bookkeeping ---------------------------------------------------

    def wrap(self, name, fn, keep=False):
        """Return fn timed as span `name`; `name` may be a function of the first argument."""
        stack, totals, spans, ids = self.stack, self.totals, self.spans, self._ids
        clock = time.perf_counter
        dynamic = callable(name)

        def traced(*args, **kwargs):
            label = name(args[0]) if dynamic else name
            frame = [0.0, next(ids)]
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                own = duration - frame[0]
                total = totals.get(label)
                if total is None:
                    total = totals[label] = [0, 0.0, 0.0]
                total[0] += 1
                total[1] += duration
                total[2] += own
                if keep:
                    spans.append((frame[1], parent, label, start, end, own))

        return traced

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def _clear(self):
        # in place: the wrappers hold references to these containers
        self.stack.clear()
        self.totals.clear()
        self.counts.clear()
        self.spans.clear()

    def flush(self):
        """Append this process's spans since the last flush to its span file."""
        line = {"pid": os.getpid(), "totals": self.totals, "counts": self.counts,
                "spans": self.spans}
        with open(self.span_dir / f"spans-{os.getpid()}.jsonl", "a") as fh:
            fh.write(json.dumps(line) + "\n")
        self.totals.clear()
        self.counts.clear()
        self.spans.clear()

    # -- patches ------------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        own = vars(owner)
        self._patches.append((owner, attr, own.get(attr), attr in own))
        setattr(owner, attr, wrapper)

    def _unpatch(self):
        while self._patches:
            owner, attr, old, had = self._patches.pop()
            if had:
                setattr(owner, attr, old)
            else:  # inherited method: drop the override again
                delattr(owner, attr)

    def _pair(self):
        """cli.run_algorithm: one (algorithm, problem) run, flushed per pair in workers."""
        run = self.wrap("feasibility.run", cli.run_algorithm, keep=True)
        main_pid = self.pid

        def run_algorithm(algorithm, problem, stop=None, **options):
            in_worker = os.getpid() != main_pid
            if in_worker and os.getpid() != self.pid:
                self.pid = os.getpid()
                self._clear()  # what the fork copied belongs to the parent
            rec = run(algorithm, problem, stop, **options)
            self.count(f"feasibility.iterations.{algorithm}", rec.iterations)
            if in_worker:
                self.flush()
            return rec

        return run_algorithm

    def _make_algorithm(self):
        make = self.wrap("feasibility.make_algorithm", feasibility.make_algorithm, keep=True)

        def make_algorithm(name, sets, v, **options):
            algo = make(name, sets, v, **options)
            step = algo.step

            def superior_step():
                before = algo.x
                step()
                self.count("superior.passes")
                if algo.x is not before:  # Superiorized replaces x only on acceptance
                    self.count("superior.accepted")
                    if np.array_equal(algo.x, before):
                        self.count("superior.rejected_passes")
                else:
                    self.count("superior.rejected_passes")

            # the counting sits inside the step span, not in the driver's self time
            algo.step = self.wrap(f"feasibility.step.{name}",
                                  superior_step if algo.kind == "super" else step)
            algo.monitor = self.wrap(f"feasibility.monitor.{name}", algo.monitor)
            return algo

        return make_algorithm

    def _install(self):
        self._patch(cli, "run_algorithm", self._pair())
        self._patch(cli, "make_batch", self.wrap("cli.make_batch", cli.make_batch, keep=True))
        for attr, name in REPORT_FUNCTIONS.items():
            self._patch(cli, attr, self.wrap(name, getattr(cli, attr), keep=True))
        self._patch(probgen, "generate",
                    self.wrap("probgen.generate", probgen.generate, keep=True))
        self._patch(feasibility, "make_algorithm", self._make_algorithm())
        for module in (feasibility, superior):
            self._patch(module, "proximity_squared_sum",
                        self.wrap("metrics.proximity", module.proximity_squared_sum))
        self._patch(bestapprox, "q_operator",
                    self.wrap("bestapprox.q_operator", bestapprox.q_operator))
        self._patch(product, "diagonal_part",
                    self.wrap("product.diagonal_part", product.diagonal_part))
        for attr in STORAGE_FUNCTIONS:
            self._patch(storage, attr,
                        self.wrap(f"storage.{attr}", getattr(storage, attr), keep=True))
        for cls, kind in GEOMETRY_CLASSES:
            for method in GEOMETRY_METHODS:
                label = _geometry_label(method, kind)
                self._patch(cls, method, self.wrap(label, getattr(cls, method)))

    @contextmanager
    def installed(self):
        """Patch vertipy for the duration of the block, then restore it."""
        self._install()
        try:
            yield self
        finally:
            self._unpatch()


def collect(span_dir) -> dict:
    """Merge the span files of every process into totals, counts and kept spans."""
    totals, counts, spans = {}, {}, []
    for path in sorted(Path(span_dir).glob("spans-*.jsonl")):
        for line in path.read_text().splitlines():
            part = json.loads(line)
            for name, (calls, seconds, own) in part["totals"].items():
                t = totals.setdefault(name, [0, 0.0, 0.0])
                t[0] += calls
                t[1] += seconds
                t[2] += own
            for name, value in part["counts"].items():
                counts[name] = counts.get(name, 0) + value
            spans += [(part["pid"], *span) for span in part["spans"]]
    return {"totals": totals, "counts": counts, "spans": spans}
