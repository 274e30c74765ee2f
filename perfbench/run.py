"""Benchmark of the vertipy pipeline (generate -> run -> report), one workload per call.

    python3 perfbench/run.py --workload feas-convex --seed 0 --seconds 30 --trace 0

Run from the repository root.  With ``--trace 0`` it prints the end-to-end
metrics (tracing off); with ``--trace 1`` the per-layer metrics of a traced
pass.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The lines before it give
each metric by name with its unit, ``failed_frac``, and an ``env`` record.
Exit code 2 when the vertipy sources are missing or the workload is unknown,
1 when a pipeline stage fails; no result line is printed then.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"


def _read(path) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def _git_commit() -> str | None:
    head = (_read(ROOT / ".git" / "HEAD") or "").strip()
    if head.startswith("ref: "):
        ref = head[5:]
        value = _read(ROOT / ".git" / ref)
        if value is None:  # packed ref
            for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return None
        return value.strip()
    return head or None


def _src_digest() -> str:
    """sha256 over the package sources, so a run can be tied to its code without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "vertipy").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _loadavg() -> str | None:
    text = _read("/proc/loadavg")
    return text.strip() if text else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="time budget of the measured rounds (unused with --trace 1)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vertipy" / "cli.py").is_file():
        print(f"error: vertipy sources not found under {SRC}", file=sys.stderr)
        return 2
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import numpy

    from perfbench import pipeline
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "loadavg_before": _loadavg(),
    }
    work = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            result = pipeline.trace(workload, args.seed, work)
        else:
            result = pipeline.measure(workload, args.seed, args.seconds, work)
    except pipeline.StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            WORK.rmdir()
    env["loadavg_after"] = _loadavg()
    env["samples"] = result.get("samples")  # raw wall seconds of each repeated stage
    env["host_probe_ms"] = result.get("host_probe_ms")

    for (algorithm, problem_id), reason in sorted(result["failures"].items()):
        print(f"check failed: {algorithm} on {problem_id}: {reason}", file=sys.stderr)
    for name in result["mismatches"]:
        print(f"check failed: {name} differs from the seed-0 reference", file=sys.stderr)
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value:.6g} {unit}")
    for name, value in result.get("raw", {}).items():
        print(f"{name}.raw {value:.6g} s")
    # not a declared metric: it reads 0 on every correct run, so it has no median to bound
    print(f"failed_frac {result['failed'] / result['attempted']:.6g} frac")
    print("env " + json.dumps(env))
    print(json.dumps({
        "correct": result["failed"] == 0 and not result["mismatches"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
