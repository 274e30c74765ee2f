"""Smoke tests of the scripts in tools/."""

import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import vertipy
from vertipy import cli
from vertipy.feasibility import ALGORITHMS, FEASIBILITY_ALGORITHMS

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("record_digests",
                                               ROOT / "tools" / "record_digests.py")
record_digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(record_digests)


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
    ops += ["kernel.project_each", "kernel.monitor", "kernel.monitor.near", "kernel.score",
            "ProductSet.project"]
    ops += [f"{t}.row" for t in tags] + ["Q.each", "Q.each.product"]
    ops += [f"step.{name}" for name in FEASIBILITY_ALGORITHMS]
    ops += [f"iter.{name}" for name in ALGORITHMS]
    batch_ops = [f"{op}{per}" for op in ("kernel.monitor", "kernel.monitor.near", "Q.each",
                                         "Q.each.product")
                 for per in ("", "/segment")]
    problems, batches = {}, {}
    for row in rows:
        pid, size, kind, op, median, iqr = row.split()
        group = batches if pid.startswith("batch") else problems
        group.setdefault((pid, size, kind), []).append(op)
        assert float(median) > 0.0 and float(iqr) == 0.0, row
    sizes = [int(size[2:]) for _, size, _ in problems]
    assert [kind for *_, kind in problems] == ["convex"] * 3 + ["nonconvex"] * 3
    assert all(abs(n - target) <= 0.2 * target for n, target in zip(sizes, [10, 90, 650] * 2))
    assert all(found == ops for found in problems.values())
    assert [(pid, kind) for pid, _, kind in batches] == [
        (f"batch{count}", kind) for kind in ("convex", "nonconvex") for count in (2, 10)
    ]
    assert all(found == batch_ops for found in batches.values())


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
    assert proc.stderr.endswith("133 problem(s), 230 record(s), 16 report file(s)\n")
    problems = [row for row in rows if row[1] == "problem"]
    records = [row for row in rows if row[1] not in ("problem", "report")]
    reports = [row for row in rows if row[1] == "report"]
    assert len(problems) == 133 and len(records) == 230 and len(rows) == 379
    assert len({(workload, algorithm, pid) for workload, algorithm, pid, _ in records}) == 230
    # the four workloads' batches (10 + 20 + 1 + 2), then the seed-0 default batch
    workloads = list(dict.fromkeys(workload for workload, *_ in rows))
    assert workloads[-1] == "default-batch"
    assert [(workload, pid) for workload, _, pid, _ in problems[-100:]] == [
        ("default-batch", f"p{i:04d}") for i in range(100)
    ]
    files = ["profiles.csv", "proximity.csv", "delta.csv", "summary.txt"]
    assert [(workload, name) for workload, _, name, _ in reports] == [
        (workload, name) for workload in workloads[:-1] for name in files
    ]
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for *_, digest in rows)


def test_a_problem_digest_sees_the_values_and_not_the_layout(tmp_path):
    # an indented file and a compact one of the same problem digest alike; any value moves it
    out = tmp_path / "run"
    assert cli.main(["generate", "--out", str(out), "--seed", "0", "--count", "1"]) == 0
    path = out / "problems" / "p0000.json"
    (compact,) = record_digests.problem_digests(out)
    data = json.loads(path.read_text())
    path.write_text(json.dumps(data, indent=1) + "\n")
    assert list(record_digests.problem_digests(out)) == [compact]
    data["v"][1] = math.nextafter(data["v"][1], math.inf)
    path.write_text(json.dumps(data) + "\n")
    assert list(record_digests.problem_digests(out)) != [compact]


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
    assert proc.stderr.endswith("2 problem(s), 4 record(s), 4 report file(s)\n")
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert [row[:2] for row in rows] == [
        ["problem", "p0000"], ["problem", "p0001"], ["CycP", "p0000"], ["CycP", "p0001"], ["SaP", "p0000"], ["SaP", "p0001"],
        ["report", "profiles.csv"], ["report", "proximity.csv"], ["report", "delta.csv"],
        ["report", "summary.txt"],
    ]
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for *_, digest in rows)
