"""Per-layer metrics of a traced pipeline, and which end-to-end metric each should move.

Span names follow ``<module>.<function>``.  Unless a definition says
otherwise, ``.calls`` counts calls in the traced pipeline, ``.us``/``.ms`` is
the mean duration per call, and ``.s`` is the total over the traced
pipeline.  Geometry timings are self time (nested spans subtracted: the
interpolation set's inherited ``intrepid`` calls its ``project``).
"""

from __future__ import annotations

import statistics

from vertipy.feasibility import ALGORITHMS, SUPERIORIZED_ALGORITHMS

ALL = "all"  # every workload


def alg_suffix(algorithm: str) -> str:
    """Algorithm id as a metric-name part: '+' is spelled 'plus'."""
    return algorithm.replace("+", "plus")


# name, unit, better, end-to-end metric(s) it should move, on workload(s), definition
METRICS = [
    ("cli.run.self_s", "s", "lower", "run_s", "feas-nonconvex-par",
     "run-stage time outside pair execution, problem load and record I/O "
     "(pool start-up, pickling, waiting on results)"),
    ("cli.pool.efficiency", "frac", "higher", "run_s", "feas-nonconvex-par",
     "sum of pair wall times / (jobs x traced run-stage time)"),
    ("probgen.generate.ms", "ms", "lower", "setup_s", "feas-convex feas-nonconvex-par",
     "per generated problem"),
    ("storage.save_problem.ms", "ms", "lower", "setup_s", "feas-convex feas-nonconvex-par",
     "per problem file written"),
    ("storage.load_problem_dir.s", "s", "lower", "run_s report_s", ALL,
     "per call; run and report each reload every problem and rebuild its sets"),
    ("storage.append_record.calls", "count", "lower", "run_s", "feas-nonconvex-par",
     "fsync'd appends, one per pair"),
    ("storage.append_record.ms", "ms", "lower", "run_s", "feas-nonconvex-par", "per append"),
    ("storage.write_records.s", "s", "lower", "run_s", "super-stall", "final sorted rewrite"),
    ("storage.read_records.s", "s", "lower", "run_s report_s", "super-stall",
     "resume scan in run plus the read in report"),
    ("storage.records_mb", "MB", "lower", "run_s report_s", "super-stall",
     "size of records.jsonl (1e6 bytes)"),
    ("feasibility.run.calls", "count", "lower", "run_s", ALL, "(algorithm, problem) pairs run"),
    ("feasibility.run.p50_ms", "ms", "lower", "run_s", ALL, "median pair latency"),
    ("feasibility.run.p98_ms", "ms", "lower", "run_s", ALL, "98th-percentile pair latency"),
    ("feasibility.iterations", "count", "lower", "run_s", ALL,
     "iterations recorded over all pairs (exact)"),
    ("feasibility.step.us", "us", "lower", "run_s", ALL, "per iteration, children included"),
    ("feasibility.driver.self_us", "us", "lower", "run_s", "super-stall ba-anchor",
     "per iteration: run's own loop, without step, monitor, proximity and make_algorithm"),
]
for _alg in sorted(ALGORITHMS):
    METRICS += [
        (f"feasibility.step.us.{alg_suffix(_alg)}", "us", "lower", "run_s",
         "the workload that runs it", f"per {_alg} iteration, children included"),
        (f"feasibility.iterations.{alg_suffix(_alg)}", "count", "lower", "run_s",
         "the workload that runs it", f"iterations recorded by {_alg} (exact; 0 when not run)"),
    ]
METRICS += [
    ("metrics.proximity.calls", "count", "lower", "run_s", "feas-convex super-stall",
     "proximity evaluations (monitor, and acceptance test in superiorized steps)"),
    ("metrics.proximity.us", "us", "lower", "run_s", "feas-convex super-stall",
     "per evaluation, residuals included"),
    ("metrics.performance_profile.s", "s", "lower", "report_s", "super-stall", "total"),
    ("metrics.proximity_curve.s", "s", "lower", "report_s", "super-stall", "total"),
    ("metrics.distance_stats.s", "s", "lower", "report_s", "super-stall", "total"),
]
_GEOMETRY_MOVES = {
    "interp": "feas-convex",
    "slope": "feas-convex",
    "slope_nc": "feas-nonconvex-par",
    "curv": "feas-convex",
}
for _op in ("project", "intrepid", "residual"):
    for _kind, _where in _GEOMETRY_MOVES.items():
        where = ALL if _op == "residual" else _where  # residual is the monitor's inner call
        METRICS += [
            (f"geometry.{_op}.{_kind}.calls", "count", "lower", "run_s", where, "calls"),
            (f"geometry.{_op}.{_kind}.us", "us", "lower", "run_s", where, "self time per call"),
        ]
METRICS += [
    ("superior.passes", "count", "lower", "run_s", "super-stall", "superiorized steps"),
    ("superior.accepted", "count", "higher", "run_s", "super-stall",
     "passes whose perturbed step was kept"),
    ("superior.accept_ratio", "frac", "higher", "run_s", "super-stall",
     "accepted / passes (useful-work ratio; 0 without passes)"),
    ("superior.rejected_passes", "count", "lower", "run_s", "super-stall",
     "passes that left the iterate bitwise unchanged"),
    ("superior.step.us", "us", "lower", "run_s", "super-stall",
     "per superiorized pass, children included"),
    ("bestapprox.q_operator.calls", "count", "lower", "run_s", "ba-anchor", "calls"),
    ("bestapprox.q_operator.us", "us", "lower", "run_s", "ba-anchor", "per call"),
    ("product.diagonal_part.calls", "count", "lower", "run_s", "ba-anchor", "calls"),
    ("product.diagonal_part.us", "us", "lower", "run_s", "ba-anchor feas-convex", "per call"),
    ("trace.overhead_frac", "frac", "lower", "none", ALL,
     "traced run-stage time / mean of the two untraced runs around it, minus 1"),
]


def _mean(total, calls, scale):
    return total / calls * scale if calls else 0.0


def layer_metrics(trace: dict, jobs: int, records_mb: float, overhead_frac: float) -> dict:
    """{name: (value, unit)} for every metric in METRICS, from `tracing.collect` output."""
    totals, counts = trace["totals"], trace["counts"]

    def total(name):
        return totals.get(name, [0, 0.0, 0.0])

    def per_call(name, scale, index=1):
        t = total(name)
        return _mean(t[index], t[0], scale)

    steps = {a: total(f"feasibility.step.{a}") for a in ALGORITHMS}
    iterations = {a: counts.get(f"feasibility.iterations.{a}", 0) for a in ALGORITHMS}
    all_iterations = sum(iterations.values())
    super_steps = [steps[a] for a in SUPERIORIZED_ALGORITHMS]
    pairs = sorted(end - start for (_, _, _, name, start, end, _) in trace["spans"]
                   if name == "feasibility.run")
    run_stage = total("stage.run")
    passes = counts.get("superior.passes", 0)

    values = {
        "cli.run.self_s": run_stage[2],
        "cli.pool.efficiency": _mean(total("feasibility.run")[1], jobs * run_stage[1], 1.0),
        "probgen.generate.ms": per_call("probgen.generate", 1e3),
        "storage.save_problem.ms": per_call("storage.save_problem", 1e3),
        "storage.load_problem_dir.s": per_call("storage.load_problem_dir", 1.0),
        "storage.append_record.calls": total("storage.append_record")[0],
        "storage.append_record.ms": per_call("storage.append_record", 1e3),
        "storage.write_records.s": total("storage.write_records")[1],
        "storage.read_records.s": total("storage.read_records")[1],
        "storage.records_mb": records_mb,
        "feasibility.run.calls": len(pairs),
        "feasibility.run.p50_ms": statistics.median(pairs) * 1e3 if pairs else 0.0,
        "feasibility.run.p98_ms": (
            statistics.quantiles(pairs, n=50, method="inclusive")[-1] * 1e3
            if len(pairs) > 1 else sum(pairs) * 1e3
        ),
        "feasibility.iterations": all_iterations,
        "feasibility.step.us": _mean(sum(s[1] for s in steps.values()),
                                     sum(s[0] for s in steps.values()), 1e6),
        "feasibility.driver.self_us": _mean(total("feasibility.run")[2], all_iterations, 1e6),
        "metrics.proximity.calls": total("metrics.proximity")[0],
        "metrics.proximity.us": per_call("metrics.proximity", 1e6),
        "metrics.performance_profile.s": total("metrics.performance_profile")[1],
        "metrics.proximity_curve.s": total("metrics.proximity_curve")[1],
        "metrics.distance_stats.s": total("metrics.distance_stats")[1],
        "superior.passes": passes,
        "superior.accepted": counts.get("superior.accepted", 0),
        "superior.accept_ratio": _mean(counts.get("superior.accepted", 0), passes, 1.0),
        "superior.rejected_passes": counts.get("superior.rejected_passes", 0),
        "superior.step.us": _mean(sum(s[1] for s in super_steps),
                                  sum(s[0] for s in super_steps), 1e6),
        "bestapprox.q_operator.calls": total("bestapprox.q_operator")[0],
        "bestapprox.q_operator.us": per_call("bestapprox.q_operator", 1e6),
        "product.diagonal_part.calls": total("product.diagonal_part")[0],
        "product.diagonal_part.us": per_call("product.diagonal_part", 1e6),
        "trace.overhead_frac": overhead_frac,
    }
    for a in ALGORITHMS:
        values[f"feasibility.step.us.{alg_suffix(a)}"] = _mean(steps[a][1], steps[a][0], 1e6)
        values[f"feasibility.iterations.{alg_suffix(a)}"] = iterations[a]
    for name, *_ in METRICS:
        if name.startswith("geometry."):
            _, op, kind, stat = name.split(".")
            span = f"geometry.{op}.{kind}"
            values[name] = total(span)[0] if stat == "calls" else per_call(span, 1e6, index=2)
    return {name: (values[name], unit) for name, unit, *_ in METRICS}
