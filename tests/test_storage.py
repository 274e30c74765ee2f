"""JSON problem files, JSONL run records, CSV reports: round-trips."""

import csv
import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import vertipy
from vertipy import probgen, storage
from vertipy.feasibility import FeasibilityProblem
from vertipy.geometry import InvalidSpecError
from vertipy.metrics import STAT_FIELDS, RunRecord
from vertipy.probgen import ProblemSpec
from vertipy.sets import HalfspaceSet


def _problem(nonconvex=False, seed=11):
    return probgen.generate(
        ProblemSpec(length=1000.0, speed=50.0, xi_max=60.0, seed=seed, nonconvex=nonconvex)
    )


def test_problem_round_trip(tmp_path):
    for nonconvex in (False, True):
        prob = _problem(nonconvex)
        path = tmp_path / f"{prob.problem_id}-{nonconvex}.json"
        storage.save_problem(prob, path)
        back = storage.load_problem(path)
        assert back.problem_id == prob.problem_id
        assert_allclose(back.v, prob.v, atol=0)
        assert_allclose(back.breakpoints.t, prob.breakpoints.t, atol=1e-12)
        assert [c.tag for c in back.sets] == [c.tag for c in prob.sets]
        slope_a, slope_b = prob.sets[1].bounds, back.sets[1].bounds
        assert_allclose(slope_b.alpha, slope_a.alpha, atol=1e-12)
        if nonconvex:
            assert_allclose(slope_b.beta, slope_a.beta, atol=1e-12)
        else:
            assert slope_b.beta is None
        assert back.meta == prob.meta


def test_problem_to_dict_requires_breakpoints():
    sets = [HalfspaceSet([1.0, 0.0], 0.0), HalfspaceSet([0.0, 1.0], 0.0)]
    prob = FeasibilityProblem(v=[1.0, 1.0], sets=sets)
    with pytest.raises(InvalidSpecError):
        storage.problem_to_dict(prob)


def test_load_problem_dir_sorted(tmp_path):
    probs = [_problem(seed=s) for s in (3, 4, 5)]
    for i, p in enumerate(probs):
        p.problem_id = f"p{i:04d}"
        storage.save_problem(p, tmp_path / f"p{i:04d}.json")
    (tmp_path / "manifest.json").write_text(json.dumps({"note": "not a problem"}))
    loaded = storage.load_problem_dir(tmp_path)
    assert [p.problem_id for p in loaded] == ["p0000", "p0001", "p0002"]
    assert_allclose(loaded[1].v, probs[1].v, atol=1e-12)


def test_record_round_trip(tmp_path):
    rec = RunRecord(
        problem_id="p0003",
        algorithm="CycP+",
        iterations=41,
        converged=True,
        d_trace=[1.0, 0.25, 0.003],
        final=np.array([1.5, -2.25, 0.125]),
        wall_time=0.0625,
        flags={"note": "x"},
    )
    path = tmp_path / "records.jsonl"
    storage.append_record(rec, path)
    storage.append_record(dataclasses.replace(rec, problem_id="p0004"), path)
    back = storage.read_records(path)
    assert [r.problem_id for r in back] == ["p0003", "p0004"]
    r = back[0]
    assert r.problem_id == rec.problem_id
    assert r.algorithm == rec.algorithm
    assert r.iterations == 41 and r.converged is True
    assert_allclose(r.d_trace, rec.d_trace, atol=1e-12)
    assert_allclose(r.final, rec.final, atol=1e-12)
    assert r.wall_time == pytest.approx(0.0625)
    assert r.flags == {"note": "x"}


def test_write_records_overwrites(tmp_path):
    # the close replaces the file with its own lines, sorted, and never appends
    path = tmp_path / "records.jsonl"
    r1 = RunRecord("p0", "A", 1, True, [1.0, 0.0], np.zeros(2))
    r2 = RunRecord("p1", "B", 2, False, [1.0, 0.9, 0.8], np.ones(2))
    storage.append_record(r2, path)
    storage.append_record(r1, path)
    b_line, a_line = path.read_bytes().splitlines(keepends=True)
    inode = path.stat().st_ino
    for _ in range(2):  # sorting a sorted file gives the same bytes
        back = storage.write_records(path)
        assert [(r.algorithm, r.problem_id) for r in back] == [("A", "p0"), ("B", "p1")]
        assert path.read_bytes() == a_line + b_line
        assert path.stat().st_ino != inode  # renamed over, not written in place
        inode = path.stat().st_ino


def test_failed_rewrite_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "records.jsonl"
    for i in (2, 0, 1):
        storage.append_record(RunRecord(f"p{i}", "B", i, True, [1.0, 0.0], np.full(2, i)), path)
    before = path.read_bytes()

    def broken(*args):
        raise OSError("disk full")

    # nothing is encoded, so the rewrite can fail only at the temporary file or the rename
    for name in ("fsync", "replace"):
        with monkeypatch.context() as m:
            m.setattr(storage.os, name, broken)
            with pytest.raises(OSError, match="disk full"):
                storage.write_records(path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["records.jsonl"]
    assert [r.problem_id for r in storage.read_records(path)] == ["p2", "p0", "p1"]


_APPENDER = """
import sys
import numpy as np
from vertipy import storage
from vertipy.metrics import RunRecord
path, count = sys.argv[1], int(sys.argv[2])
for i in range(count):
    storage.append_record(RunRecord(f"p{i:04d}", "A", i, True, [1.0, 0.5], np.zeros(3)), path)
"""


def test_no_append_is_lost_to_a_concurrent_close(tmp_path):
    # another process appends while this one sorts the file over and over;
    # an append between a close's read and its rename must not be lost
    path = tmp_path / "records.jsonl"
    count = 200
    proc = subprocess.Popen(
        [sys.executable, "-c", _APPENDER, str(path), str(count)],
        env=dict(os.environ, PYTHONPATH=str(Path(vertipy.__file__).parents[1])),
    )
    try:
        closes = 0
        while proc.poll() is None:
            if path.exists():
                storage.write_records(path)
                closes += 1
            time.sleep(0.001)  # flock is not fair: let the appender take its turn
        assert proc.returncode == 0
    finally:
        proc.kill()
        proc.wait()
    assert closes > 1
    back = storage.write_records(path)
    assert [r.problem_id for r in back] == [f"p{i:04d}" for i in range(count)]


def test_problem_to_dict_finds_specs_by_type():
    for nonconvex in (False, True):
        prob = _problem(nonconvex)
        shuffled = FeasibilityProblem(
            v=prob.v, sets=[prob.sets[i] for i in (5, 2, 0, 4, 1, 3)],
            breakpoints=prob.breakpoints, problem_id=prob.problem_id, meta=prob.meta,
        )
        assert storage.problem_to_dict(shuffled) == storage.problem_to_dict(prob)


def _two_records(path):
    r1 = RunRecord("p0", "A", 1, True, [1.0, 0.0], np.zeros(2))
    r2 = RunRecord("p1", "B", 2, False, [1.0, 0.9, 0.8], np.ones(2))
    storage.append_record(r1, path)
    storage.append_record(r2, path)
    return r2


def test_torn_last_line_is_dropped_and_cut(tmp_path, capsys):
    path = tmp_path / "records.jsonl"
    r2 = _two_records(path)
    whole = path.read_bytes()
    first = whole.index(b"\n") + 1
    path.write_bytes(whole[: first + 20])  # a crash in the middle of the second append
    assert [r.problem_id for r in storage.read_records(path)] == ["p0"]
    assert "dropped a torn last line (20 bytes)" in capsys.readouterr().err
    assert path.read_bytes() == whole[:first]
    storage.append_record(r2, path)  # starts on a fresh line, not glued to the fragment
    assert path.read_bytes() == whole
    assert [r.problem_id for r in storage.read_records(path)] == ["p0", "p1"]
    assert capsys.readouterr().err == ""


def test_malformed_line_before_the_last_raises(tmp_path):
    path = tmp_path / "records.jsonl"
    _two_records(path)
    lines = path.read_text().splitlines()
    path.write_text(lines[0][:20] + "\n" + lines[1] + "\n")
    with pytest.raises(storage.RecordFileError, match="line 1: malformed record"):
        storage.read_records(path)
    path.write_text(lines[0] + "\n" + json.dumps({"problem_id": "p1"}) + "\n")
    with pytest.raises(storage.RecordFileError, match="line 2: malformed record"):
        storage.read_records(path)


def test_malformed_line_raises_before_a_torn_last_line_is_cut(tmp_path, capsys):
    # every complete line is checked first; the file is cut only once all of them pass
    path = tmp_path / "records.jsonl"
    _two_records(path)
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(lines[0][:20] + b"\n" + lines[1] + lines[0][:30])
    body = path.read_bytes()
    for read in (storage.read_records, storage.write_records):
        with pytest.raises(storage.RecordFileError, match="line 1: malformed record"):
            read(path)
        assert path.read_bytes() == body
    assert "torn" not in capsys.readouterr().err


@pytest.mark.parametrize("key", ["d_trace", "final"])
@pytest.mark.parametrize("entry", [None, "0.5", True, [0.5], {"x": 0.5}, 10**400])
def test_a_trace_or_final_entry_that_is_not_a_number_is_malformed(tmp_path, key, entry):
    # float() took strings and booleans, and numpy read null as NaN
    path = tmp_path / "records.jsonl"
    _two_records(path)
    lines = path.read_text().splitlines()
    record = json.loads(lines[1])
    record[key][-1] = entry
    path.write_text(lines[0] + "\n" + json.dumps(record) + "\n")
    with pytest.raises(storage.RecordFileError, match=f"line 2: malformed record \\({key} "):
        storage.read_records(path)


def test_read_records_hold_float64_arrays(tmp_path):
    path = tmp_path / "records.jsonl"
    _two_records(path)
    lines = path.read_text().splitlines()
    record = json.loads(lines[1])
    record["final"] = [1, 2]  # a JSON int is a number
    path.write_text(lines[0] + "\n" + json.dumps(record) + "\n")
    for rec in storage.read_records(path):
        for values in (rec.d_trace, rec.final):
            assert isinstance(values, np.ndarray) and values.dtype == float and values.ndim == 1
    assert rec.final.tolist() == [1.0, 2.0]


def test_profile_csv(tmp_path):
    path = tmp_path / "profile.csv"
    kappa = np.array([0.0, 0.05, 0.1])
    rho = {"B": np.array([0.0, 0.5, 1.0]), "A": np.array([1.0, 1.0, 1.0])}
    storage.write_profile_csv(path, kappa, rho)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "algorithm,kappa,rho"
    # long format, algorithms in sorted order
    assert lines[1] == "A,0,1"
    assert lines[4] == "B,0,0"
    assert lines[5] == "B,0.05,0.5"
    assert len(lines) == 7


def test_proximity_csv(tmp_path):
    path = tmp_path / "proximity.csv"
    ks = np.array([0, 1])
    beta = {"A": np.array([0.0, -np.inf])}
    storage.write_proximity_csv(path, ks, beta)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "algorithm,k,beta"
    assert lines[1] == "A,0,0"
    assert lines[2] == "A,1,-inf"


def test_delta_csv(tmp_path):
    path = tmp_path / "delta.csv"
    stats = {
        "A": {"min": 0.1, "q1": 0.2, "median": 0.3, "q3": 0.4, "max": 0.5,
              "mean": 0.3, "std": 0.125},
    }
    storage.write_delta_csv(path, stats)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "algorithm,Min,1st Qrt.,Median,3rd Qrt.,Max,Mean,Std.dev"
    assert lines[1] == "A,0.1,0.2,0.3,0.4,0.5,0.3,0.125"


# The report writers build each algorithm's lines as one string; these are the
# rows csv.writer would write for the same tables, one writerow per row.


def _reference_curves(path, header, xs, curves, fmt_x):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for algorithm in sorted(curves):
            for x, y in zip(xs, curves[algorithm]):
                writer.writerow([algorithm, fmt_x(x), storage._FMT(y)])


def _reference_delta(path, stats):
    header = ["algorithm", "Min", "1st Qrt.", "Median", "3rd Qrt.", "Max", "Mean", "Std.dev"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for algorithm in sorted(stats):
            writer.writerow([algorithm] + [storage._FMT(stats[algorithm][f]) for f in STAT_FIELDS])


# names csv.writer must quote (comma, quote, newline) next to plain ones
_NAMES = ["CycP", 'say "hi", then go', "a,b", "line\nbreak", "", "sExParP"]


def _curve(rng, size):
    # repeated tails (padded and stalled traces), signed zeros, infinities, nan
    y = np.concatenate([rng.normal(scale=1e3, size=size), np.full(size, 1.0 / 3.0)])
    y[[0, 3, 5, 7, 9]] = [-np.inf, np.nan, -0.0, 0.0, np.inf]
    return y


def test_report_writers_match_csv_writer(tmp_path):
    rng = np.random.default_rng(3)
    kappa = np.arange(40) * 0.05
    rho = {name: _curve(rng, 20) for name in _NAMES}
    rho["short"] = np.array([0.25, -0.0])  # zip pairs up to the shorter side
    ks = np.arange(45)
    beta = {name: _curve(rng, 22) for name in _NAMES}
    stats = {name: dict(zip(STAT_FIELDS, _curve(rng, 5)[3:])) for name in _NAMES}
    cases = [
        (storage.write_profile_csv, (kappa, rho),
         lambda p: _reference_curves(p, ["algorithm", "kappa", "rho"], kappa, rho, storage._FMT)),
        (storage.write_proximity_csv, (ks, beta),
         lambda p: _reference_curves(p, ["algorithm", "k", "beta"], ks, beta, int)),
        (storage.write_delta_csv, (stats,), lambda p: _reference_delta(p, stats)),
    ]
    for write, args, reference in cases:
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write(got, *args)
        reference(want)
        assert got.read_bytes() == want.read_bytes(), write.__name__
        # the reference quotes the awkward names, so the match covers quoting
        text = got.read_bytes()
        assert b'\r\n"say ""hi"", then go",' in text and b'\r\n"a,b",' in text


def test_report_writers_on_empty_tables(tmp_path):
    # no algorithm, or one with an empty curve: the header line alone
    storage.write_profile_csv(tmp_path / "p.csv", [], {})
    storage.write_proximity_csv(tmp_path / "b.csv", np.arange(3), {"A": []})
    storage.write_delta_csv(tmp_path / "d.csv", {})
    assert (tmp_path / "p.csv").read_bytes() == b"algorithm,kappa,rho\r\n"
    assert (tmp_path / "b.csv").read_bytes() == b"algorithm,k,beta\r\n"
    assert (tmp_path / "d.csv").read_bytes() == (
        b"algorithm,Min,1st Qrt.,Median,3rd Qrt.,Max,Mean,Std.dev\r\n"
    )


def test_manifest_round_trip(tmp_path):
    data = {"seed": 20260815, "count": 100, "nonconvex": False}
    storage.write_manifest(tmp_path, data)
    assert storage.read_manifest(tmp_path) == data


def test_float_format_is_stable():
    # 12 significant digits, no exponent surprises for typical magnitudes
    assert storage._FMT(0.1) == "0.1"
    assert storage._FMT(1e-9) == "1e-09"
    assert storage._FMT(123456.789) == "123456.789"
