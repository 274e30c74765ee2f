"""File formats: problem JSON, run-record JSONL, report CSVs.

Problems serialize losslessly (stations, start profile, bound vectors);
constraint sets are rebuilt in the canonical order on load.  Records go to
JSON-lines so interrupted runs can resume, and the report tables are plain
CSV with deterministic float formatting -- two runs from the same seed
produce byte-identical CSVs.  Timestamps live only in the batch manifest.
"""

from __future__ import annotations

import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from .feasibility import FeasibilityProblem
from .geometry import (
    Breakpoints,
    CurvatureBounds,
    CurvatureConstraint,
    InterpolationConstraint,
    InterpolationSpec,
    InvalidSpecError,
    SlopeBounds,
    SlopeConstraint,
)
from .metrics import STAT_FIELDS, RunRecord
from .probgen import build_constraint_sets

__all__ = [
    "RecordFileError",
    "problem_to_dict",
    "problem_from_dict",
    "save_problem",
    "load_problem",
    "load_problem_dir",
    "record_to_dict",
    "record_from_dict",
    "append_record",
    "read_records",
    "write_records",
    "write_profile_csv",
    "write_proximity_csv",
    "write_delta_csv",
    "write_manifest",
    "read_manifest",
]

_FMT = "{:.12g}".format


class RecordFileError(ValueError):
    """A complete line of a record file does not hold a run record."""


def _floats(values):
    return [float(x) for x in np.asarray(values, dtype=float)]


def _first_set(problem, cls):
    for c in problem.sets:
        if isinstance(c, cls):
            return c
    raise InvalidSpecError(f"problem {problem.problem_id} has no {cls.__name__}")


def problem_to_dict(problem: FeasibilityProblem) -> dict:
    if problem.breakpoints is None:
        raise InvalidSpecError("only breakpoint-based problems are serializable")
    interp = _first_set(problem, InterpolationConstraint).spec
    slope = _first_set(problem, SlopeConstraint).bounds
    curv = _first_set(problem, CurvatureConstraint).bounds
    return {
        "problem_id": problem.problem_id,
        "t": _floats(problem.breakpoints.t),
        "v": _floats(problem.v),
        "constraints": {
            "interpolation": {
                "indices": [int(i) for i in interp.indices],
                "values": _floats(interp.values),
            },
            "slope": {
                "alpha": _floats(slope.alpha),
                "beta": None if slope.beta is None else _floats(slope.beta),
            },
            "curvature": {
                "gamma": _floats(curv.gamma),
                "delta": _floats(curv.delta),
            },
        },
        "meta": problem.meta,
    }


def problem_from_dict(data: dict) -> FeasibilityProblem:
    bp = Breakpoints(np.asarray(data["t"], dtype=float))
    cons = data["constraints"]
    interp = InterpolationSpec(cons["interpolation"]["indices"], cons["interpolation"]["values"])
    beta = cons["slope"]["beta"]
    slope = SlopeBounds(
        np.asarray(cons["slope"]["alpha"], dtype=float),
        None if beta is None else np.asarray(beta, dtype=float),
    )
    curv = CurvatureBounds(
        np.asarray(cons["curvature"]["gamma"], dtype=float),
        np.asarray(cons["curvature"]["delta"], dtype=float),
    )
    return FeasibilityProblem(
        v=np.asarray(data["v"], dtype=float),
        sets=build_constraint_sets(bp, interp, slope, curv),
        breakpoints=bp,
        problem_id=data["problem_id"],
        meta=data.get("meta", {}),
    )


def save_problem(problem: FeasibilityProblem, path) -> None:
    Path(path).write_text(json.dumps(problem_to_dict(problem), indent=1) + "\n")


def load_problem(path) -> FeasibilityProblem:
    """Read one problem file; a file that does not hold a problem raises InvalidSpecError."""
    try:
        return problem_from_dict(json.loads(Path(path).read_text()))
    except (ValueError, KeyError, TypeError) as exc:  # JSONDecodeError is a ValueError
        cause = f"{type(exc).__name__}: {exc}"
        raise InvalidSpecError(f"{path}: malformed problem ({cause})") from exc


def load_problem_dir(directory) -> list:
    """Load every problems/*.json file, sorted by problem id."""
    paths = sorted(Path(directory).glob("*.json"))
    problems = [load_problem(p) for p in paths if p.name != "manifest.json"]
    return sorted(problems, key=lambda pb: pb.problem_id)


def record_to_dict(rec: RunRecord) -> dict:
    return {
        "problem_id": rec.problem_id,
        "algorithm": rec.algorithm,
        "iterations": rec.iterations,
        "converged": rec.converged,
        "d_trace": _floats(rec.d_trace),
        "final": _floats(rec.final),
        "wall_time": rec.wall_time,
        "flags": rec.flags,
    }


def record_from_dict(data: dict) -> RunRecord:
    return RunRecord(
        problem_id=data["problem_id"],
        algorithm=data["algorithm"],
        iterations=int(data["iterations"]),
        converged=bool(data["converged"]),
        d_trace=[float(x) for x in data["d_trace"]],
        final=np.asarray(data["final"], dtype=float),
        wall_time=float(data.get("wall_time", 0.0)),
        flags=data.get("flags", {}),
    )


def append_record(rec: RunRecord, path) -> None:
    with open(path, "a") as fh:
        fh.write(json.dumps(record_to_dict(rec)) + "\n")
        fh.flush()
        os.fsync(fh.fileno())


def read_records(path) -> list:
    """Read a JSONL record file.

    Bytes after the last newline are an interrupted append: they are dropped
    with a warning and cut from the file, so the next append starts a fresh
    line.  A malformed complete line raises RecordFileError.
    """
    path = Path(path)
    if not path.exists():
        return []
    data = path.read_bytes()
    body, _, tail = data.rpartition(b"\n")
    records = []
    for lineno, line in enumerate(body.split(b"\n"), 1):
        if not line.strip():
            continue
        try:
            records.append(record_from_dict(json.loads(line)))
        except (ValueError, KeyError, TypeError) as exc:
            raise RecordFileError(f"{path}, line {lineno}: malformed record ({exc})") from exc
    if tail.strip():
        print(f"warning: {path}: dropped a torn last line ({len(tail)} bytes)", file=sys.stderr)
        os.truncate(path, len(data) - len(tail))
    return records


def write_records(records, path) -> None:
    """Write records sorted by (algorithm, problem), replacing the file atomically.

    The records go to a temporary file in the same directory, which is
    fsync'd and then renamed over `path`; if anything fails first, the old
    file is left as it was and the temporary file is removed.
    """
    ordered = sorted(records, key=lambda r: (r.algorithm, r.problem_id))
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            for rec in ordered:
                fh.write(json.dumps(record_to_dict(rec)) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_profile_csv(path, kappa, rho) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "kappa", "rho"])
        for algorithm in sorted(rho):
            for k, r in zip(kappa, rho[algorithm]):
                writer.writerow([algorithm, _FMT(k), _FMT(r)])


def write_proximity_csv(path, ks, beta) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "k", "beta"])
        for algorithm in sorted(beta):
            for k, b in zip(ks, beta[algorithm]):
                writer.writerow([algorithm, int(k), _FMT(b)])


def write_delta_csv(path, stats) -> None:
    header = ["algorithm", "Min", "1st Qrt.", "Median", "3rd Qrt.", "Max", "Mean", "Std.dev"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for algorithm in sorted(stats):
            row = stats[algorithm]
            writer.writerow([algorithm] + [_FMT(row[f]) for f in STAT_FIELDS])


def write_manifest(directory, data: dict) -> None:
    Path(directory, "manifest.json").write_text(json.dumps(data, indent=1) + "\n")


def read_manifest(directory) -> dict:
    return json.loads(Path(directory, "manifest.json").read_text())
