"""End-to-end tests for the command-line pipeline (generate/run/report/verify)."""

import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

import vertipy
from vertipy import cli, storage, verify
from vertipy import feasibility as F
from vertipy.feasibility import BEST_APPROXIMATION_ALGORITHMS, SUPERIORIZED_ALGORITHMS
from vertipy.geometry import ProfileKernel
from vertipy.metrics import StopRule
from vertipy.probgen import DEFAULT_LENGTHS, DEFAULT_SPEEDS, DEFAULT_XI_MAX, make_batch
from vertipy.verify import CheckResult


def _generate(out, count=4, seed=7, extra=()):
    rc = cli.main(
        ["generate", "--out", str(out), "--seed", str(seed), "--count", str(count)]
        + list(extra)
    )
    assert rc == 0
    return out


def test_generate_writes_batch(tmp_path, capsys):
    out = _generate(tmp_path / "batch")
    files = sorted((out / "problems").glob("*.json"))
    assert [f.name for f in files] == [f"p{i:04d}.json" for i in range(4)]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["count"] == 4
    assert manifest["nonconvex"] is False
    assert manifest["problems"][0]["file"] == "problems/p0000.json"
    assert isinstance(manifest["problems"][0]["seed"], int)
    assert "wrote 4 problem(s)" in capsys.readouterr().out


def test_generate_nonconvex_flag(tmp_path):
    out = _generate(tmp_path, count=1, extra=["--nonconvex"])
    problem = storage.load_problem(out / "problems" / "p0000.json")
    assert problem.meta["nonconvex"] is True

    convex = storage.load_problem(_generate(tmp_path / "c", count=1) / "problems" / "p0000.json")
    assert convex.meta["nonconvex"] is False


def test_run_requires_problems(tmp_path, capsys):
    assert cli.main(["run", "--out", str(tmp_path / "nowhere")]) == 1
    assert "does not exist" in capsys.readouterr().err

    empty = tmp_path / "empty"
    empty.mkdir()
    assert cli.main(["run", "--out", str(empty)]) == 1
    assert "no problem files" in capsys.readouterr().err


def test_report_requires_records(tmp_path, capsys):
    out = _generate(tmp_path, count=1)
    assert cli.main(["report", "--out", str(out)]) == 1
    assert "no records" in capsys.readouterr().err


def test_pipeline_run_and_report(tmp_path):
    out = _generate(tmp_path)
    rc = cli.main(["run", "--out", str(out), "--algorithms", "CycP,ParP"])
    assert rc == 0

    lines = (out / "records.jsonl").read_text().strip().splitlines()
    keys = [(json.loads(l)["algorithm"], json.loads(l)["problem_id"]) for l in lines]
    assert len(keys) == 8
    assert keys == sorted(keys)  # rewritten in sorted order

    rc = cli.main(["report", "--out", str(out)])
    assert rc == 0
    for name in ("profiles.csv", "proximity.csv", "delta.csv", "summary.txt"):
        assert (out / name).exists()
    delta = (out / "delta.csv").read_text().strip().splitlines()
    assert delta[0].startswith("algorithm,")
    assert {row.split(",")[0] for row in delta[1:]} == {"CycP", "ParP"}
    summary = (out / "summary.txt").read_text()
    assert "solved fraction per algorithm:" in summary
    assert "problems: 4" in summary


def test_run_resume_skips_finished(tmp_path, capsys):
    out = _generate(tmp_path, count=2)
    assert cli.main(["run", "--out", str(out), "--algorithms", "CycP"]) == 0
    first = (out / "records.jsonl").read_bytes()
    capsys.readouterr()

    assert cli.main(["run", "--out", str(out), "--algorithms", "CycP"]) == 0
    assert "resuming: 2 finished pair(s) found, 0 to go" in capsys.readouterr().out
    assert (out / "records.jsonl").read_bytes() == first  # nothing re-ran


def test_csv_outputs_deterministic(tmp_path):
    # identical seeds through the whole pipeline give byte-identical reports
    outs = []
    for sub in ("a", "b"):
        out = _generate(tmp_path / sub, count=3, seed=11)
        assert cli.main(["run", "--out", str(out), "--algorithms", "CycP,SaP"]) == 0
        assert cli.main(["report", "--out", str(out)]) == 0
        outs.append(out)
    for name in ("profiles.csv", "proximity.csv", "delta.csv", "summary.txt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


BENCH_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def test_super_stall_report_matches_the_benchmark_reference(tmp_path):
    # the seed-0 super-stall pipeline of the benchmark writes the same report bytes
    out = _generate(tmp_path, count=1, seed=0)
    assert cli.main(["run", "--out", str(out), "--mode", "super", "--jobs", "1"]) == 0
    assert cli.main(["report", "--out", str(out)]) == 0
    digests = json.loads(BENCH_REFERENCE.read_text())["super-stall"]["digests"]
    assert sorted(digests) == ["delta.csv", "profiles.csv", "proximity.csv"]
    found = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in digests}
    assert found == digests


def _records_without_wall_time(path):
    records = []
    for rec in storage.read_records(path):
        data = storage.record_to_dict(rec)
        del data["wall_time"]
        records.append(data)
    return records


def test_parallel_jobs_match_sequential(tmp_path):
    # --jobs 1 runs each algorithm's problems as one batch profile, the pool
    # one pair per task: the records must be the same, flags.stalled_at too
    recs = {}
    algorithms = ",".join(sorted(F.ALGORITHMS))
    for jobs, sub in (("1", "seq"), ("2", "par")):
        out = _generate(tmp_path / sub, count=3, seed=3, extra=["--nonconvex"])
        args = ["run", "--out", str(out), "--algorithms", algorithms, "--jobs", jobs]
        assert cli.main(args + ["--k-max", "150"]) == 0
        recs[sub] = _records_without_wall_time(out / "records.jsonl")
    assert len(recs["seq"]) == 3 * len(F.ALGORITHMS)
    assert any("stalled_at" in r["flags"] for r in recs["seq"])
    assert len({r["iterations"] for r in recs["seq"] if r["algorithm"] == "CycP"}) > 1
    assert recs["seq"] == recs["par"]


def test_run_computes_each_start_proximity_once(tmp_path, monkeypatch):
    # the batch-wide start check computes each start's squared proximity once,
    # and each algorithm's batch profile (one per algorithm: both problems are
    # convex) once more, as the normalizer of all its segments; nothing
    # scores or projects it again (the scored ones step from their normalizer's pass)
    out = _generate(tmp_path / "once", count=2, seed=3)
    problems = storage.load_problem_dir(out / "problems")
    starts = {p.v.tobytes(): "problem" for p in problems}
    starts[F._lay_out(problems)[1].tobytes()] = "batch"
    at_start = []

    def counted(method):
        def wrapped(self, x):
            at_start.append(starts.get(np.asarray(x).tobytes()))
            return method(self, x)
        return wrapped

    for name in ("score", "project_each"):
        monkeypatch.setattr(ProfileKernel, name, counted(getattr(ProfileKernel, name)))
    algorithms = "CycP,ParP,ExAltP,sParP,sExAltP,hParP,ParDyk,baD-R"
    args = ["run", "--out", str(out), "--algorithms", algorithms, "--jobs", "1", "--k-max", "50"]
    assert cli.main(args) == 0
    assert at_start.count("problem") == 2 and at_start.count("batch") == 8
    assert len(at_start) > 18


def test_a_scored_run_makes_one_kernel_pass_per_iterate(monkeypatch):
    # the six sweeps and hParP score each iterate they keep, the start's
    # too, in one pass, and a step from x takes that pass's projections:
    # one pass per monitored point, none twice, on both slope kinds
    passes = []
    kernel_pass = ProfileKernel._pass

    def counted(self, x):
        passes.append(1)
        return kernel_pass(self, x)

    monkeypatch.setattr(ProfileKernel, "_pass", counted)
    for nonconvex in (False, True):
        problem = make_batch(0, count=1, nonconvex=nonconvex)[0]
        for name in (*F._SWEEPS, "hParP"):
            passes.clear()
            rec = F.run(name, problem, StopRule(k_max=300))
            assert "stalled_at" not in rec.flags and rec.iterations > 20, (name, nonconvex)
            assert len(passes) == rec.iterations + 1, (name, nonconvex)


def test_resume_after_torn_append_matches_clean_run(tmp_path, capsys):
    runs = {}
    for sub in ("clean", "torn"):
        out = _generate(tmp_path / sub, count=2, seed=3)
        args = ["run", "--out", str(out), "--algorithms", "CycP,SaP", "--jobs", "1"]
        assert cli.main(args) == 0
        runs[sub] = out / "records.jsonl"
    body = runs["torn"].read_text()
    runs["torn"].write_text(body[: len(body) - 40])  # the last append was cut short
    capsys.readouterr()
    assert cli.main(["run", "--out", str(runs["torn"].parent), "--algorithms", "CycP,SaP"]) == 0
    captured = capsys.readouterr()
    assert "dropped a torn last line" in captured.err
    assert "resuming: 3 finished pair(s) found, 1 to go" in captured.out
    assert _records_without_wall_time(runs["torn"]) == _records_without_wall_time(runs["clean"])


def test_two_runs_on_one_directory_keep_both_sets_of_records(tmp_path):
    # a slow run in another process is still appending when a quick run here
    # closes, and its own close comes after; neither close may drop the
    # other run's records
    out = _generate(tmp_path, count=2, seed=7)
    path = out / "records.jsonl"
    proc = subprocess.Popen(
        [sys.executable, "-m", "vertipy.cli", "run", "--out", str(out), "--mode", "ba",
         "--jobs", "1"],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(Path(vertipy.__file__).parents[1])),
    )
    try:
        while proc.poll() is None and not (path.exists() and path.stat().st_size):
            time.sleep(0.01)  # until the other run's first record is on disk
        args = ["run", "--out", str(out), "--algorithms", "CycP", "--jobs", "1"]
        assert cli.main(args) == 0
        assert proc.poll() is None  # the other run has not closed yet
        assert proc.wait(timeout=60) == 0, proc.stderr.read()
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    lines = path.read_text().splitlines()
    keys = [(json.loads(l)["algorithm"], json.loads(l)["problem_id"]) for l in lines]
    expected = sorted(BEST_APPROXIMATION_ALGORITHMS) + ["CycP"]
    assert keys == sorted((a, p) for a in expected for p in ("p0000", "p0001"))


def test_resumed_line_in_an_older_format_is_kept_byte_for_byte(tmp_path):
    # a line without wall_time and flags is sorted into place as it is, not re-encoded
    out = _generate(tmp_path, count=2, seed=3)
    assert cli.main(["run", "--out", str(out), "--algorithms", "CycP", "--jobs", "1"]) == 0
    path = out / "records.jsonl"
    lines = path.read_text().splitlines()
    data = json.loads(lines[1])
    del data["wall_time"], data["flags"]
    old = json.dumps(data, separators=(",", ":"))
    path.write_text(lines[0] + "\n" + old + "\n")
    assert cli.main(["run", "--out", str(out), "--algorithms", "CycP,SaP", "--jobs", "1"]) == 0
    lines = path.read_text().splitlines()
    assert len(lines) == 4 and lines[1] == old
    assert cli.main(["report", "--out", str(out)]) == 0


def test_malformed_record_line_exits_1(tmp_path, capsys):
    out = _generate(tmp_path, count=2, seed=3)
    assert cli.main(["run", "--out", str(out), "--algorithms", "CycP", "--jobs", "1"]) == 0
    path = out / "records.jsonl"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(["{not json"] + lines[1:]) + "\n")
    capsys.readouterr()
    for command in ("run", "report"):
        assert cli.main([command, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "line 1: malformed record" in err
        assert "Traceback" not in err


def test_repeated_record_pair_exits_1_and_leaves_the_file(tmp_path, capsys):
    # a second record of one (algorithm, problem) pair would be counted twice by report
    out = _generate(tmp_path, count=2, seed=3)
    assert cli.main(["run", "--out", str(out), "--algorithms", "CycP", "--jobs", "1"]) == 0
    path = out / "records.jsonl"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + lines[:1]) + "\n")
    body = path.read_bytes()
    capsys.readouterr()
    for args in (["run", "--algorithms", "CycP"], ["report"]):
        assert cli.main(args + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "lines 1 and 3: two records for CycP" in err
        assert path.read_bytes() == body
    assert not (out / "proximity.csv").exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        (
            lambda rec: rec.update(final=rec["final"][:-1]),
            "record final does not fit its problem's profile: CycP/p0001",
        ),
        (lambda rec: rec.update(d_trace=[]), "line 2: malformed record (empty d_trace)"),
        # it used to load, and the close of the next `run` ended in a TypeError
        (lambda rec: rec.update(problem_id=5), "line 2: malformed record (problem_id "),
        (
            lambda rec: rec["final"].__setitem__(3, None),
            "line 2: malformed record (final is not a list of numbers)",
        ),
        (
            lambda rec: rec["d_trace"].__setitem__(-1, None),
            "line 2: malformed record (d_trace is not a list of numbers)",
        ),
        (
            lambda rec: rec.update(final=[[x] for x in rec["final"]]),
            "line 2: malformed record (final is not a list of numbers)",
        ),
    ],
)
def test_record_that_does_not_fit_its_problem_exits_1(tmp_path, capsys, edit, message):
    out = _generate(tmp_path, count=2, seed=3)
    assert cli.main(["run", "--out", str(out), "--algorithms", "CycP", "--jobs", "1"]) == 0
    path = out / "records.jsonl"
    lines = path.read_text().splitlines()
    record = json.loads(lines[1])
    edit(record)
    path.write_text("\n".join([lines[0], json.dumps(record)]) + "\n")
    capsys.readouterr()
    assert cli.main(["report", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_generate_refuses_a_directory_that_holds_a_batch(tmp_path, capsys):
    # a second batch would write over part of the first, and `run` would take
    # the first batch's records for the second batch's problems
    records_only = _generate(tmp_path / "records", count=3, seed=0)
    args = ["run", "--out", str(records_only), "--algorithms", "CycP", "--jobs", "1"]
    assert cli.main(args) == 0
    for path in (records_only / "problems").glob("*.json"):
        path.unlink()
    problems_only = _generate(tmp_path / "problems", count=3, seed=0)
    for out in (records_only, problems_only):
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        capsys.readouterr()
        assert cli.main(["generate", "--out", str(out), "--count", "2", "--seed", "5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "already holds a batch" in err
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
    empty = tmp_path / "empty"
    (empty / "problems").mkdir(parents=True)
    _generate(empty, count=1)  # an empty directory is fine


@pytest.mark.parametrize(
    "text, cause",
    [
        (None, "JSONDecodeError"),  # None: the file cut off half-way
        ('{"problem_id": "p0000"}', "KeyError: 't'"),
        ('{"problem_id": "p0000", "t": 3}', "one-dimensional"),
        ("[1, 2]", "TypeError"),
    ],
)
def test_malformed_problem_file_exits_1(tmp_path, capsys, text, cause):
    out = _generate(tmp_path, count=2, seed=3)
    assert cli.main(["run", "--out", str(out), "--algorithms", "CycP", "--jobs", "1"]) == 0
    assert cli.main(["report", "--out", str(out)]) == 0
    path = out / "problems" / "p0000.json"
    body = path.read_text()
    path.write_text(body[: len(body) // 2] if text is None else text)
    capsys.readouterr()
    for command in ("run", "report"):
        assert cli.main([command, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err and cause in err
        assert "Traceback" not in err


def test_two_problem_files_with_one_id_exit_1_before_running(tmp_path, capsys):
    # a copied problem file would give each of its pairs two records, and the
    # record file would then fail every later run and report
    out = _generate(tmp_path, count=2, seed=3)
    assert cli.main(["run", "--out", str(out), "--algorithms", "CycP", "--jobs", "1"]) == 0
    records = (out / "records.jsonl").read_bytes()
    original, copy = out / "problems" / "p0000.json", out / "problems" / "zcopy.json"
    shutil.copy(original, copy)
    capsys.readouterr()
    for args in (["run", "--algorithms", "CycP,SaP", "--jobs", "1"], ["report"]):
        assert cli.main([args[0], "--out", str(out), *args[1:]]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {original} and {copy} both hold problem p0000\n", args[0]
    assert (out / "records.jsonl").read_bytes() == records


def test_mode_selects_family(tmp_path):
    out = _generate(tmp_path, count=1)
    rc = cli.main(["run", "--out", str(out), "--mode", "super", "--k-max", "500"])
    assert rc == 0
    records = storage.read_records(out / "records.jsonl")
    assert {r.algorithm for r in records} == set(SUPERIORIZED_ALGORITHMS)


def test_unknown_algorithm_rejected(tmp_path, capsys):
    out = _generate(tmp_path, count=1)
    assert cli.main(["run", "--out", str(out), "--algorithms", "Nope"]) == 1
    assert "unknown algorithm(s): Nope" in capsys.readouterr().err


def test_repeated_algorithm_name_exits_1_before_running(tmp_path, capsys):
    # each pair would run twice and leave two records
    out = _generate(tmp_path, count=2)
    args = ["run", "--out", str(out), "--algorithms", "CycP,SaP,CycP", "--jobs", "1"]
    assert cli.main(args) == 1
    assert "algorithm(s) named more than once: CycP" in capsys.readouterr().err
    assert not (out / "records.jsonl").exists()


def test_usage_errors_exit_1(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # keep default --out away from the repo
    assert cli.main([]) == 1
    assert cli.main(["run", "--bogus-flag"]) == 1
    assert cli.main(["generate", "--count", "0", "--out", str(tmp_path)]) == 1
    capsys.readouterr()


def test_option_precedence(tmp_path, monkeypatch):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"count": 2}))
    monkeypatch.setenv("VERTIPY_COUNT", "3")

    # flag > environment > config file
    flag = tmp_path / "flag"
    assert cli.main(
        ["generate", "--out", str(flag), "--config", str(config), "--count", "4"]
    ) == 0
    assert len(list((flag / "problems").glob("*.json"))) == 4

    env = tmp_path / "env"
    assert cli.main(["generate", "--out", str(env), "--config", str(config)]) == 0
    assert len(list((env / "problems").glob("*.json"))) == 3

    monkeypatch.delenv("VERTIPY_COUNT")
    conf = tmp_path / "conf"
    assert cli.main(["generate", "--out", str(conf), "--config", str(config)]) == 0
    assert len(list((conf / "problems").glob("*.json"))) == 2


def test_bad_config_rejected(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert cli.main(["generate", "--out", str(tmp_path), "--config", str(broken)]) == 1
    assert "cannot read config" in capsys.readouterr().err

    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    assert cli.main(["generate", "--out", str(tmp_path), "--config", str(listy)]) == 1
    assert "must hold a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("k_table", [[1, 2], {"30": "abc"}, {"30": 0}])
def test_malformed_k_table_exits_1(tmp_path, capsys, k_table):
    # each used to end in a traceback, or (K = 0) to write unbounded curvature
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"k_table": k_table, "speeds": [30]}))
    out = tmp_path / "batch"
    assert cli.main(["generate", "--out", str(out), "--config", str(config), "--count", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: k_table") and "Traceback" not in err
    assert not any(out.glob("problems/*.json"))


def test_bad_boolean_env_rejected(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("VERTIPY_NONCONVEX", "maybe")
    assert cli.main(["generate", "--out", str(tmp_path), "--count", "1"]) == 1
    assert "invalid boolean" in capsys.readouterr().err


def test_empty_list_option_exits_1(tmp_path, monkeypatch, capsys):
    # an empty list is a usage error that names its option; nothing is written
    assert cli.main(["verify", "--checks", ","]) == 1
    assert "checks must list at least one value" in capsys.readouterr().err

    out = _generate(tmp_path / "batch", count=1)
    assert cli.main(["run", "--out", str(out), "--algorithms", ","]) == 1
    assert "algorithms must list at least one value" in capsys.readouterr().err
    assert not (out / "records.jsonl").exists()

    monkeypatch.setenv("VERTIPY_LENGTHS", ",")
    assert cli.main(["generate", "--out", str(tmp_path / "env"), "--count", "1"]) == 1
    assert "lengths must list at least one value" in capsys.readouterr().err
    monkeypatch.delenv("VERTIPY_LENGTHS")

    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"speeds": []}))
    args = ["generate", "--out", str(tmp_path / "conf"), "--config", str(config), "--count", "1"]
    assert cli.main(args) == 1
    err = capsys.readouterr().err
    assert "speeds must list at least one value" in err and "Traceback" not in err
    assert not (tmp_path / "env").exists() and not (tmp_path / "conf").exists()


def test_bad_list_values_exit_1(tmp_path, monkeypatch, capsys):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"speeds": 30}))
    assert cli.main(["generate", "--out", str(tmp_path), "--config", str(config)]) == 1
    assert "invalid list for speeds: 30" in capsys.readouterr().err

    monkeypatch.setenv("VERTIPY_LENGTHS", "500,abc")
    assert cli.main(["generate", "--out", str(tmp_path), "--count", "1"]) == 1
    assert "invalid value for lengths" in capsys.readouterr().err

    config.write_text(json.dumps({"checks": [1]}))
    assert cli.main(["verify", "--config", str(config)]) == 1
    assert "unknown check(s): 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, config",
    [("generate", {"count": True}), ("generate", {"count": 2.9}), ("run", {"k_max": True}),
     ("run", {"eps": True}), ("generate", {"speeds": [True]}), ("run", {"eps": 10**400})],
    ids=["count-true", "count-2.9", "k_max-true", "eps-true", "speeds-true", "eps-10**400"],
)
def test_a_config_number_of_the_wrong_kind_exits_1(tmp_path, capsys, command, config):
    # int() and float() took true for 1 and 2.9 for 2, and float() overflowed on 10**400
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "o"
    if command == "run":
        _generate(out, count=1)
        capsys.readouterr()
    args = [command, "--out", str(out), "--config", str(path), "--algorithms", "CycP"]
    assert cli.main(args if command == "run" else args[:-2]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid value for ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists() if command == "generate" else not (out / "records.jsonl").exists()


@pytest.mark.parametrize(
    "command, config",
    [("generate", {"out": 5}), ("run", {"out": 5}), ("report", {"out": 5}),
     ("run", {"mode": [1]}), ("run", {"mode": {}})],
    ids=["generate-out-5", "run-out-5", "report-out-5", "run-mode-list", "run-mode-dict"],
)
def test_a_config_value_for_a_string_option_must_be_a_string(
    tmp_path, monkeypatch, capsys, command, config
):
    # the value went on as it was: Path(5) and `mode not in MODE_FAMILIES` raised TypeError
    out = _generate(tmp_path / "o", count=1)
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(config))
    monkeypatch.chdir(tmp_path)  # the default out, "."
    capsys.readouterr()
    before = sorted(tmp_path.rglob("*"))
    args = [command, "--config", str(path)] + ([] if "out" in config else ["--out", str(out)])
    assert cli.main(args) == 1
    ((name, value),) = config.items()
    assert capsys.readouterr().err == f"error: invalid value for {name}: {value!r}\n"
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize(
    "name, value",
    [("LENGTHS", "inf"), ("LENGTHS", "nan"), ("LENGTHS", "1e300"), ("LENGTHS", "1e9"),
     ("XI_MAX", "nan")],
)
def test_bad_generator_input_exits_1(tmp_path, name, value):
    # each value is rejected before any draw; 1e9 would otherwise run a
    # per-station loop over tens of millions of stations, so a fresh
    # interpreter with a timeout bounds the wait
    proc = subprocess.run(
        [sys.executable, "-m", "vertipy.cli", "generate", "--out", str(tmp_path / "o"),
         "--count", "1"],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(
            os.environ,
            PYTHONPATH=str(Path(vertipy.__file__).parents[1]),
            **{f"VERTIPY_{name}": value},
        ),
        cwd=tmp_path,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert not (tmp_path / "o").exists()


def test_negative_seed_exits_1(tmp_path, monkeypatch, capsys):
    # SeedSequence rejects it with a bare ValueError; the check comes before any draw
    out = tmp_path / "flag"
    assert cli.main(["generate", "--out", str(out), "--count", "1", "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: seed must be a non-negative integer") and "Traceback" not in err
    monkeypatch.setenv("VERTIPY_SEED", "-1")
    assert cli.main(["generate", "--out", str(tmp_path / "env"), "--count", "1"]) == 1
    assert "seed must be a non-negative integer" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "env").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_overflowing_normalizer_exits_1(tmp_path, monkeypatch, capsys, jobs):
    # a 1e300 m elevation range overflows the squared proximity of the start
    # to inf, and every d would be NaN, which is not JSON
    overflow = "the start's squared proximity is inf, not a finite number"
    monkeypatch.setenv("VERTIPY_XI_MAX", "1e300")
    out = _generate(tmp_path / "big", count=1)
    monkeypatch.delenv("VERTIPY_XI_MAX")
    args = ["run", "--out", str(out), "--algorithms", "CycP,D-R", "--jobs", jobs]
    assert cli.main(args) == 1
    err = capsys.readouterr().err
    assert f"p0000: {overflow}" in err
    assert not (out / "records.jsonl").exists() or storage.read_records(out / "records.jsonl") == []

    # in a mixed batch (xi_max alternates 30 and 1e300: p0001 and p0003
    # overflow) every pending problem's start is checked before any pair
    # runs, whatever --jobs is: all bad problems are named and the records
    # already written stay as they were
    monkeypatch.setenv("VERTIPY_XI_MAX", "30,1e300")
    out = _generate(tmp_path / "mixed", count=4)
    monkeypatch.delenv("VERTIPY_XI_MAX")
    problems = out / "problems"
    aside = tmp_path / "aside"
    aside.mkdir()
    for pid in ("p0001", "p0003"):
        shutil.move(problems / f"{pid}.json", aside / f"{pid}.json")
    assert cli.main(["run", "--out", str(out), "--algorithms", "CycP", "--jobs", jobs]) == 0
    for pid in ("p0001", "p0003"):
        shutil.move(aside / f"{pid}.json", problems / f"{pid}.json")
    records = (out / "records.jsonl").read_bytes()
    capsys.readouterr()
    assert cli.main(["run", "--out", str(out), "--mode", "feas", "--jobs", jobs]) == 1
    err = capsys.readouterr().err
    assert err == f"error: p0001: {overflow}; p0003: {overflow}\n"
    assert (out / "records.jsonl").read_bytes() == records
    assert len(storage.read_records(out / "records.jsonl")) == 2


def test_k_max_above_the_ceiling_exits_1(tmp_path, capsys):
    # a superiorized run that stalled built the whole k_max-entry tail of its
    # trace at once, and 10**13 entries ended in a MemoryError traceback
    out = _generate(tmp_path / "o", count=1, seed=0)
    args = ["run", "--out", str(out), "--algorithms", "sExParP", "--k-max", "10000000000000"]
    assert cli.main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: k_max must be at most") and err.count("\n") == 1
    assert "Traceback" not in err and not (out / "records.jsonl").exists()


def test_jobs_asks_for_no_more_workers_than_pairs_or_cpus(tmp_path, monkeypatch):
    # the pool forks every worker at its first task, so --jobs 5000 forked 5000
    asked = []

    class Pool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            asked.append(max_workers)
            super().__init__(max_workers=min(max_workers, 2))

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Pool)
    out = _generate(tmp_path / "o", count=2)
    assert cli.main(["run", "--out", str(out), "--algorithms", "CycP", "--jobs", "5000"]) == 0
    assert asked == [min(2, os.cpu_count() or 1)]
    assert len(storage.read_records(out / "records.jsonl")) == 2


@pytest.mark.parametrize("value", ["0", "-2"])
def test_jobs_and_k_max_below_1_exit_1(tmp_path, capsys, value):
    out = _generate(tmp_path / "o", count=1)
    assert cli.main(["run", "--out", str(out), "--algorithms", "CycP", "--jobs", value]) == 1
    assert capsys.readouterr().err == "error: jobs must be at least 1\n"
    assert not (out / "records.jsonl").exists()
    assert cli.main(["run", "--out", str(out), "--algorithms", "CycP", "--jobs", "1"]) == 0
    assert cli.main(["report", "--out", str(out), "--k-max", value]) == 1
    assert capsys.readouterr().err == "error: k-max must be at least 1\n"
    assert not (out / "profiles.csv").exists()


def _tree(directory):
    return {p: p.read_bytes() if p.is_file() else None for p in Path(directory).rglob("*")}


def _given(source, name, value, args, config, env):
    """Put one option's value where `source` says: a flag, VERTIPY_<NAME> or the config file."""
    if source == "flag":
        args += ["--" + name.replace("_", "-"), value]
    elif source == "env":
        env["VERTIPY_" + name.upper()] = value
    else:
        config[name] = value


@pytest.fixture(scope="module")
def batch_dir(tmp_path_factory):
    """A 2-problem batch with CycP's records: what `run` and `report` read."""
    out = tmp_path_factory.mktemp("batch") / "o"
    _generate(out, count=2, seed=3)
    assert cli.main(["run", "--out", str(out), "--algorithms", "CycP", "--jobs", "1",
                     "--k-max", "20"]) == 0
    return out


def _cli_in(work, args, config, env):
    """cli.main in `work` with `config` as its config file and `env` set; (code, stderr)."""
    path = work / "conf.json"
    path.write_text(json.dumps(config))
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with mock.patch.dict(os.environ, env), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main([*args, "--config", str(path)])
    finally:
        os.chdir(cwd)
    path.unlink()
    return code, err.getvalue()


@pytest.mark.parametrize("source", ["flag", "env", "config"])
@pytest.mark.parametrize("command", ["generate", "run", "report"])
def test_an_empty_out_exits_1_and_writes_nothing(tmp_path, batch_dir, source, command):
    # Path("") is ".": generate wrote its batch into the working directory
    shutil.copytree(batch_dir, tmp_path / "o")
    config, env, args = {}, {}, [command]
    _given(source, "out", "", args, config, env)
    before = _tree(tmp_path)
    code, err = _cli_in(tmp_path, args, config, env)
    assert (code, err) == (1, "error: out must be non-empty\n")
    assert _tree(tmp_path) == before


# each option that the table checks, with a value its check refuses
_REFUSED = {"tuple": "bogus", "at least 1": "0", "non-empty": ""}
_CHECKED = [
    (command, name, _REFUSED["tuple" if isinstance(check, tuple) else check])
    for command, (_, _, names) in cli.COMMANDS.items()
    for name in names
    for _, _, check, _ in [cli.OPTIONS[name]]
    if check is not None
]


@pytest.mark.parametrize("command, name, value", _CHECKED,
                         ids=[f"{c}-{n}" for c, n, _ in _CHECKED])
def test_a_refused_value_gives_one_error_from_every_source(tmp_path, batch_dir, command, name,
                                                           value):
    # the flag, VERTIPY_<NAME> and the config file pass one check with one message;
    # mode is checked although --algorithms is given
    shutil.copytree(batch_dir, tmp_path / "o")
    errors = set()
    for source in ("flag", "env", "config"):
        config = {"jobs": 1, "k_max": 5} if command == "run" else {}
        env, args = {}, [command]
        args += ["--out", "o"] if name != "out" else []
        args += ["--algorithms", "CycP"] if command == "run" else []
        _given(source, name, value, args, config, env)
        before = _tree(tmp_path)
        code, err = _cli_in(tmp_path, args, config, env)
        assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, (source, err)
        assert name.replace("_", "-") in err, err  # named as its flag spells it
        assert _tree(tmp_path) == before, source
        errors.add(err)
    assert len(errors) == 1, errors


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_help_lists_the_table_flags_of_each_command(capsys, command):
    with pytest.raises(SystemExit) as exit_:
        cli.main([command, "--help"])
    assert exit_.value.code == 0
    flags = set(re.findall(r"^  (--[\w-]+)", capsys.readouterr().out, re.M)) - {"--help"}
    names = ("config", *cli.COMMANDS[command][2])
    expected = {"--" + n.replace("_", "-") for n in names if cli.OPTIONS[n][3] is not None}
    assert flags == expected


def _names(values):
    return st.lists(st.sampled_from(values), min_size=1, max_size=3, unique=True).map(
        lambda xs: ",".join(map(str, xs)))


# the values each option is drawn from, as a flag or environment string: no draw is slow
# (at most 3 problems, from the default grid, and at most 50 iterations); one in eight is
# junk instead, or a JSON value of any kind from a config file
_DRAWS = {
    "out": st.just("o"),
    "seed": st.integers(0, 2**32).map(str),
    "count": st.integers(1, 3).map(str),
    "nonconvex": st.sampled_from(["1", "0", "yes", "off"]),
    "lengths": _names(DEFAULT_LENGTHS),
    "speeds": _names(DEFAULT_SPEEDS),
    "xi_max": _names(DEFAULT_XI_MAX),
    "algorithms": _names(["CycP", "sParP", "hCycP", "baD-R"]),
    "mode": st.sampled_from(list(cli.MODE_FAMILIES)),
    "eps": st.sampled_from(["5e-3", "0.1", "1"]),
    "k_max": st.integers(1, 50).map(str),
    "jobs": st.just("1"),  # the default, the cpu count, would start a pool
    "superior_direction": st.sampled_from(["away", "toward"]),
    "checks": st.just("dr-cycling"),
}
_JUNK = st.sampled_from(["", "x", "-1", "0", "2.9", "nan", ",", "true", "1e400", "missing",
                         "Nope", "CycP,CycP", "bogus"])
_JSON = st.sampled_from([True, 2.9, -1, "x", [1], {}, "", [], [True], ["a"], {"a": 1}, 0])
_RARE = st.integers(0, 7).map(lambda i: i == 7)


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_drawn_options_exit_cleanly(batch_dir, command, data):
    # any mix of values and sources exits 0, 1 or 2 with no traceback, and an
    # exit 1 leaves the directory as it was
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        if command != "generate":
            shutil.copytree(batch_dir, work / "o")
        config, env, args = {}, {}, [command]
        for name in cli.COMMANDS[command][2]:
            # jobs is always 1; run's k_max and verify's checks are always set, since
            # their defaults run long
            forced = name in ("jobs", "checks") or (command, name) == ("run", "k_max")
            sources = ["flag"] if cli.OPTIONS[name][3] is not None else []
            sources += ["env", "config"] + ([] if forced else [None])
            source = data.draw(st.sampled_from(sources), f"{name} source")
            if source is None:
                continue
            value = data.draw(_DRAWS[name], name)
            if name != "jobs" and data.draw(_RARE, f"{name} junk"):
                as_json = source == "config" and data.draw(st.booleans(), f"{name} as JSON")
                value = data.draw(_JSON if as_json else _JUNK, name)
            if source == "flag" and name == "nonconvex":
                args.append("--nonconvex")  # a switch: it takes no value
            else:
                _given(source, name, value, args, config, env)
        if command == "generate" and data.draw(_RARE, "k_table"):
            config["k_table"] = data.draw(_JSON, "k_table")
        before = _tree(work)
        code, err = _cli_in(work, args, config, env)
        event(f"exit {code}")
        assert code in (0, 1, 2) and "Traceback" not in err
        if code == 1:
            assert err.startswith("error: ")
            assert _tree(work) == before


def test_verify_all_checks_pass(capsys):
    assert cli.main(["verify"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS ") == len(verify.ALL_CHECKS)
    assert "FAIL" not in out
    assert f"all {len(verify.ALL_CHECKS)} check(s) passed" in out


def test_verify_subset_and_unknown(capsys):
    assert cli.main(["verify", "--checks", "dr-cycling"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS ") == 1 and "dr-cycling" in out

    assert cli.main(["verify", "--checks", "bogus"]) == 1
    assert "unknown check(s): bogus" in capsys.readouterr().err


def test_verify_reads_checks_from_config(tmp_path, capsys):
    config = tmp_path / "verify.json"
    config.write_text(json.dumps({"checks": ["dr-cycling"]}))
    assert cli.main(["verify", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS ") == 1 and "dr-cycling" in out


def test_verify_failure_exits_2(monkeypatch, capsys):
    # fault injection: a failing check must be reported loudly, not masked
    def broken():
        return CheckResult("disk-line-gap", False, 1.0, 1e-6, "injected failure")

    monkeypatch.setitem(verify.ALL_CHECKS, "disk-line-gap", broken)
    assert cli.main(["verify"]) == 2
    out = capsys.readouterr().out
    assert "FAIL disk-line-gap: injected failure" in out
    assert f"1 of {len(verify.ALL_CHECKS)} check(s) failed" in out


_PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
_VERIFY_ARGS = ["verify", "--checks", "dykstra-halving"]


def _console_entry_point():
    """The `(module, attr)` target of the `vertipy` script in pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(_PYPROJECT, "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["vertipy"]
    module, _, attr = target.partition(":")
    return module, attr


def test_console_script_runs(tmp_path):
    # Runs the declared entry point exactly as pip's generated wrapper does,
    # in a fresh interpreter that imports the source tree this suite imported,
    # so the check needs no installed `vertipy` on PATH.  The working
    # directory is empty so that only PYTHONPATH can supply the package.
    module, attr = _console_entry_point()
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, *_VERIFY_ARGS],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=str(Path(vertipy.__file__).parents[1])),
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert "PASS dykstra-halving" in proc.stdout


@pytest.mark.skipif(
    shutil.which("vertipy") is None, reason="vertipy console script not installed"
)
def test_installed_console_script_runs():
    proc = subprocess.run(
        ["vertipy", *_VERIFY_ARGS],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "PASS dykstra-halving" in proc.stdout
