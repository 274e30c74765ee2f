"""Drive generate -> run -> report through ``vertipy.cli.main`` and time each stage.

``measure`` gives the end-to-end metrics with tracing off; ``trace`` gives the
per-layer metrics from a separate traced pass.  Both run the output check.
"""

from __future__ import annotations

import contextlib
import io
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from vertipy import cli, storage
from vertipy.metrics import StopRule

from . import checks, layers, tracing
from .workloads import lift_problems

# Each round generates for at least SETUP_ROUND_S, runs once and reports for at
# least REPORT_ROUND_S, so all three stages are sampled across the whole run.
SETUP_ROUND_S = 0.1
REPORT_ROUND_S = 0.2
# On a shared host the same run stage can take twice as long in one minute as
# in the next, for identical work.  Every stage sample is therefore scaled by
# PROBE_REF_S / (mean time of the host probe run just before and just after
# it): a timing is reported as it would read on a host where the probe takes
# PROBE_REF_S.  The raw medians are printed alongside.
PROBE_REF_S = 0.003
PROBE_SLICES = 7
STOP = StopRule()  # the CLI defaults: eps = 5e-3, k_max = 5000


class StageError(RuntimeError):
    """A pipeline stage exited with a nonzero code."""


def call_cli(args):
    """Run one vertipy subcommand in process with its output captured; raise on failure."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(args)
    if code != 0:
        raise StageError(f"vertipy {' '.join(map(str, args))} exited {code}: {out.getvalue()}")


def _cpu_seconds() -> float:
    """User + system CPU of this process and of its reaped children (pool workers)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    """Peak resident memory of this process or of its largest reaped child."""
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kib, child_kib) / 1024.0  # ru_maxrss is in KiB on Linux


def _stage(args):
    """Run one stage; return (wall seconds, cpu seconds)."""
    cpu = _cpu_seconds()
    start = time.perf_counter()
    call_cli(args)
    return time.perf_counter() - start, _cpu_seconds() - cpu


def _host_probe() -> float:
    """Seconds for a fixed loop of small-array numpy calls, like the pipeline's inner loops.

    It runs no vertipy code, so a change to vertipy cannot move it; only the
    host's speed does.  The loop is timed in PROBE_SLICES slices and the
    median slice is returned, so one preemption does not count.
    """
    a = np.linspace(0.0, 1.0, 16)
    b = a[::-1].copy()
    total = 0.0
    slices = []
    for _ in range(PROBE_SLICES):
        start = time.perf_counter()
        for i in range(500):
            total += float(np.dot(a, b)) + 0.5 * i
            a = np.clip(a, 0.1, 0.9)
        slices.append(time.perf_counter() - start)
    return statistics.median(slices)


def _repeat(args_for, budget, first):
    """Time a stage until `budget` (> 0) s are spent; return its (wall, cpu) samples.

    `args_for(i)` gives the CLI arguments of repeat i, counting from `first`.
    """
    samples = []
    while sum(wall for wall, _ in samples) < budget:
        samples.append(_stage(args_for(first + len(samples))))
    return samples


def _clear_records(out):
    (out / "records.jsonl").unlink(missing_ok=True)  # a leftover file would make run resume


def _check(workload, out, seed):
    """Output check of the records and, on seed 0, the reference fingerprint."""
    problems = storage.load_problem_dir(out / "problems")
    algorithms = sorted(cli.MODE_FAMILIES[workload.mode])
    failures = checks.check_records(out / "records.jsonl", problems, algorithms, STOP.eps)
    mismatches = []
    if seed == 0:
        found = checks.fingerprint(out, problems, algorithms)
        mismatches = checks.reference_mismatches(workload.name, found)
    return {
        "attempted": len(algorithms) * len(problems),
        "failed": len(failures),
        "failures": failures,
        "mismatches": mismatches,
    }


def measure(workload, seed: int, seconds: float, work: Path) -> dict:
    """End-to-end metrics of one workload with tracing off, over rounds filling `seconds`."""
    out = work / "gen0"
    samples = {"setup": [], "run": [], "report": []}  # (wall, cpu, host scale) per sample
    probes = [_host_probe()]

    def add(stage, timed):
        probes.append(_host_probe())
        scale = PROBE_REF_S / statistics.mean(probes[-2:])
        samples[stage] += [(wall, cpu, scale) for wall, cpu in timed]

    def generate_args(i):
        if i > 1:
            shutil.rmtree(work / f"gen{i - 1}")  # keep gen0: the batch the pipeline runs on
        return workload.generate_args(work / f"gen{i}")

    started = time.perf_counter()
    rounds = []
    while not rounds or time.perf_counter() - started + statistics.median(rounds) <= seconds:
        round_start = time.perf_counter()
        add("setup", _repeat(generate_args, SETUP_ROUND_S, len(samples["setup"])))
        if not samples["run"]:
            lift_problems(out / "problems", seed)
        _clear_records(out)
        add("run", [_stage(workload.run_args(out))])
        add("report", _repeat(lambda i: workload.report_args(out), REPORT_ROUND_S, 0))
        rounds.append(time.perf_counter() - round_start)

    def median(stage, index, scaled=True):
        return statistics.median(s[index] * (s[2] if scaled else 1.0) for s in samples[stage])

    stages = ("setup", "run", "report")
    return {
        "metrics": {
            "setup_s": (median("setup", 0), "s"),
            "run_s": (median("run", 0), "s"),
            "report_s": (median("report", 0), "s"),
            "cpu_s": (sum(median(stage, 1) for stage in stages), "s"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
        },
        "raw": {
            "setup_s": median("setup", 0, scaled=False),
            "run_s": median("run", 0, scaled=False),
            "report_s": median("report", 0, scaled=False),
            "cpu_s": sum(median(stage, 1, scaled=False) for stage in stages),
        },
        **_check(workload, out, seed),
        "samples": {
            stage: {"n": len(samples[stage]), "min": min(s[0] for s in samples[stage]),
                    "max": max(s[0] for s in samples[stage])}
            for stage in stages
        },
        "host_probe_ms": {"median": statistics.median(probes) * 1e3,
                          "min": min(probes) * 1e3, "max": max(probes) * 1e3},
    }


def trace(workload, seed: int, work: Path) -> dict:
    """Per-layer metrics from one traced pipeline, bracketed by two untraced runs."""
    tracer = tracing.Tracer(work / "spans")

    def traced(name, args):
        with tracer.installed():
            return tracer.wrap(f"stage.{name}", _stage, keep=True)(args)[0]

    out = work / "gen0"
    traced("generate", workload.generate_args(out))
    lift_problems(out / "problems", seed)

    def run_once(stage):
        _clear_records(out)
        return stage(workload.run_args(out))

    untraced = [run_once(_stage)[0]]
    traced_s = run_once(lambda args: traced("run", args))
    untraced.append(run_once(_stage)[0])
    traced("report", workload.report_args(out))
    tracer.flush()
    records_mb = (out / "records.jsonl").stat().st_size / 1e6

    metrics = layers.layer_metrics(
        tracing.collect(work / "spans"),
        jobs=workload.jobs,
        records_mb=records_mb,
        overhead_frac=traced_s / statistics.mean(untraced) - 1.0,
    )
    return {"metrics": metrics, **_check(workload, out, seed)}
