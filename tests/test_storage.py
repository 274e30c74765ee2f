"""JSON problem files, JSONL run records, CSV reports: round-trips."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vertipy import probgen, storage
from vertipy.feasibility import FeasibilityProblem
from vertipy.geometry import InvalidSpecError
from vertipy.metrics import RunRecord
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
    storage.append_record(rec, path)
    back = storage.read_records(path)
    assert len(back) == 2
    r = back[0]
    assert r.problem_id == rec.problem_id
    assert r.algorithm == rec.algorithm
    assert r.iterations == 41 and r.converged is True
    assert_allclose(r.d_trace, rec.d_trace, atol=1e-12)
    assert_allclose(r.final, rec.final, atol=1e-12)
    assert r.wall_time == pytest.approx(0.0625)
    assert r.flags == {"note": "x"}


def test_write_records_overwrites(tmp_path):
    path = tmp_path / "records.jsonl"
    r1 = RunRecord("p0", "A", 1, True, [1.0, 0.0], np.zeros(2))
    r2 = RunRecord("p1", "B", 2, False, [1.0, 0.9, 0.8], np.ones(2))
    storage.write_records([r1, r2], path)
    storage.write_records([r1], path)
    assert len(storage.read_records(path)) == 1


def test_failed_rewrite_keeps_the_old_file(tmp_path):
    path = tmp_path / "records.jsonl"
    old = [RunRecord(f"p{i}", "B", i, True, [1.0, 0.0], np.full(2, i)) for i in range(3)]
    storage.write_records(old, path)
    before = path.read_bytes()
    # sorts first, so the rewrite fails before it reaches the good records
    bad = RunRecord("p9", "A", 1, True, [1.0, 0.0], np.zeros(2), flags={"x": object()})
    with pytest.raises(TypeError):
        storage.write_records([*old, bad], path)
    assert path.read_bytes() == before
    assert len(storage.read_records(path)) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["records.jsonl"]


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


def test_manifest_round_trip(tmp_path):
    data = {"seed": 20260815, "count": 100, "nonconvex": False}
    storage.write_manifest(tmp_path, data)
    assert storage.read_manifest(tmp_path) == data


def test_float_format_is_stable():
    # 12 significant digits, no exponent surprises for typical magnitudes
    assert storage._FMT(0.1) == "0.1"
    assert storage._FMT(1e-9) == "1e-09"
    assert storage._FMT(123456.789) == "123456.789"
