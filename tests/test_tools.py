"""Smoke tests of the scripts in tools/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import vertipy
from vertipy import cli
from vertipy.feasibility import ALGORITHMS, FEASIBILITY_ALGORITHMS

ROOT = Path(__file__).resolve().parents[1]


def test_op_timings_runs_with_one_repeat():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "op_timings.py"), "--repeats", "1"],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=str(Path(vertipy.__file__).parents[1])),
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["problem", "operation", "median_us", "iqr_us"]
    tags = ("Interp", "SlopeEven", "SlopeOdd", "Curv1", "Curv2", "Curv3")
    ops = [f"{t}.{m}" for t in tags for m in ("project", "intrepid", "residual")]
    ops += ["kernel.project_each", "kernel.monitor", "kernel.score", "ProductSet.project"]
    ops += [f"step.{name}" for name in FEASIBILITY_ALGORITHMS]
    ops += [f"iter.{name}" for name in ALGORITHMS]
    problems = {}
    for row in rows:
        pid, size, kind, op, median, iqr = row.split()
        problems.setdefault((pid, size, kind), []).append(op)
        assert float(median) > 0.0 and float(iqr) == 0.0, row
    sizes = [int(size[2:]) for _, size, _ in problems]
    assert [kind for *_, kind in problems] == ["convex"] * 3 + ["nonconvex"] * 3
    assert all(abs(n - target) <= 0.2 * target for n, target in zip(sizes, [10, 90, 650] * 2))
    assert all(found == ops for found in problems.values())


def test_record_digests_prints_one_digest_per_benchmark_record():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "record_digests.py")],
        capture_output=True,
        text=True,
        timeout=300,
        env=dict(os.environ, PYTHONPATH=str(Path(vertipy.__file__).parents[1])),
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert proc.stderr.endswith("230 record(s), 16 report file(s)\n")
    records = [row for row in rows if row[1] != "report"]
    reports = [row for row in rows if row[1] == "report"]
    assert len(records) == 230 and len(rows) == 246
    assert len({(workload, algorithm, pid) for workload, algorithm, pid, _ in records}) == 230
    files = ["profiles.csv", "proximity.csv", "delta.csv", "summary.txt"]
    workloads = list(dict.fromkeys(workload for workload, *_ in rows))
    assert [(workload, name) for workload, _, name, _ in reports] == [
        (workload, name) for workload in workloads for name in files
    ]
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for *_, digest in rows)


def test_record_digests_out_digests_a_run_directory(tmp_path):
    out = tmp_path / "run"
    assert cli.main(["generate", "--out", str(out), "--seed", "0", "--count", "2"]) == 0
    assert cli.main(["run", "--out", str(out), "--algorithms", "CycP,SaP", "--jobs", "1"]) == 0
    assert cli.main(["report", "--out", str(out)]) == 0
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "record_digests.py"), "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=str(Path(vertipy.__file__).parents[1])),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.endswith("4 record(s), 4 report file(s)\n")
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert [row[:2] for row in rows] == [
        ["CycP", "p0000"], ["CycP", "p0001"], ["SaP", "p0000"], ["SaP", "p0001"],
        ["report", "profiles.csv"], ["report", "proximity.csv"], ["report", "delta.csv"],
        ["report", "summary.txt"],
    ]
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for *_, digest in rows)
