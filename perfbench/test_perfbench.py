"""Tests of the benchmark itself: the output check, the result format, the trace.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from vertipy import storage

from perfbench import checks, layers, pipeline, run
from perfbench.workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
ALGORITHMS = ["CycP", "ParP"]


@pytest.fixture
def small_run(tmp_path):
    """A 2-problem batch run with two algorithms; returns (out dir, problems)."""
    out = tmp_path / "out"
    pipeline.call_cli(["generate", "--out", str(out), "--seed", "0", "--count", "2"])
    pipeline.call_cli(["run", "--out", str(out), "--algorithms", ",".join(ALGORITHMS),
                   "--jobs", "1"])
    return out, storage.load_problem_dir(out / "problems")


def _check(out, problems):
    return checks.check_records(out / "records.jsonl", problems, ALGORITHMS, pipeline.STOP.eps)


def test_check_passes_untouched_records(small_run):
    assert _check(*small_run) == {}


def test_check_catches_tampered_final(small_run):
    out, problems = small_run
    path = out / "records.jsonl"
    lines = path.read_text().splitlines()
    rec = json.loads(lines[0])
    rec["final"][1] += 1.0
    lines[0] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")

    failures = _check(out, problems)
    assert list(failures) == [(rec["algorithm"], rec["problem_id"])]
    assert "proximity of final" in failures[(rec["algorithm"], rec["problem_id"])]


def test_check_catches_torn_record(small_run):
    out, problems = small_run
    path = out / "records.jsonl"
    body = path.read_text().rstrip("\n")
    last_line = body.splitlines()[-1]
    last = json.loads(last_line)
    path.write_text(body[: len(body) - len(last_line) // 2])  # a crash mid-append

    failures = _check(out, problems)
    assert list(failures) == [(last["algorithm"], last["problem_id"])]
    assert "torn" in failures[(last["algorithm"], last["problem_id"])]


def test_check_catches_missing_record_file(small_run):
    out, problems = small_run
    (out / "records.jsonl").unlink()
    assert set(_check(out, problems)) == {(a, p.problem_id) for a in ALGORITHMS for p in problems}


def test_check_catches_duplicate_and_short_trace(small_run):
    out, problems = small_run
    path = out / "records.jsonl"
    lines = path.read_text().splitlines()
    short = json.loads(lines[1])
    short["d_trace"] = short["d_trace"][:-1]
    path.write_text("\n".join([lines[0], lines[0], json.dumps(short)] + lines[2:]) + "\n")

    failures = _check(out, problems)
    first = json.loads(lines[0])
    assert failures[(first["algorithm"], first["problem_id"])] == "2 records"
    assert "entries for" in failures[(short["algorithm"], short["problem_id"])]


def test_reference_mismatch_is_reported(small_run):
    out, problems = small_run
    pipeline.call_cli(["report", "--out", str(out)])
    found = checks.fingerprint(out, problems, ALGORITHMS)
    name = next(iter(WORKLOADS))
    mismatches = checks.reference_mismatches(name, found)
    assert "profiles.csv" in mismatches


def test_declarations_match_benchmark_json_and_reference():
    declared = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert declared == [(name, unit, better) for name, unit, better, *_ in layers.METRICS]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert set(json.loads(checks.REFERENCE.read_text())) == set(WORKLOADS)


def _main(capsys, argv):
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    printed = {line.split()[0]: line.split()[1:] for line in lines[:-1] if " " in line}
    return result, printed


def test_smoke_end_to_end_and_trace(capsys, monkeypatch):
    monkeypatch.setitem(
        WORKLOADS, "smoke", Workload("smoke", count=2, mode="feas", jobs=2, grid=True)
    )
    result, printed = _main(
        capsys, ["--workload", "smoke", "--seed", "1", "--seconds", "1", "--trace", "0"]
    )
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 14
    assert printed["failed_frac"] == ["0", "frac"]
    for metric in BENCHMARK["end_to_end"]:
        assert printed[metric["name"]][1] == metric["unit"]
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}

    result, printed = _main(
        capsys, ["--workload", "smoke", "--seed", "0", "--seconds", "1", "--trace", "1"]
    )
    assert result["correct"] and result["failed"] == 0
    assert printed["failed_frac"] == ["0", "frac"]
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for metric in BENCHMARK["per_layer"]:
        assert printed[metric["name"]][1] == metric["unit"]
    values = {name: m["value"] for name, m in result["metrics"].items()}
    # both pool workers' spans reached the trace
    assert values["feasibility.run.calls"] == result["attempted"] == 14
    assert values["storage.append_record.calls"] == 14
    assert values["feasibility.iterations"] == sum(
        values[f"feasibility.iterations.{layers.alg_suffix(a)}"]
        for a in ("CycP", "CycP+", "D-R", "ExAltP", "ExParP", "ParP", "SaP")
    )
    assert values["geometry.intrepid.interp.calls"] > 0  # inherited method, patched too
    assert values["product.diagonal_part.calls"] > 0


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "feas-convex",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
