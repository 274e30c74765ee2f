"""File formats: problem JSON, run-record JSONL, report CSVs.

Problems serialize losslessly (stations, start profile, bound vectors);
constraint sets are rebuilt in the canonical order on load.  Records go to
JSON-lines so interrupted runs can resume, and the report tables are plain
CSV with deterministic float formatting -- two runs from the same seed
produce byte-identical CSVs.  Timestamps live only in the batch manifest.
"""

from __future__ import annotations

import csv
import fcntl
import io
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

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
    "RecordSummary",
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
    """A complete line of a record file does not hold a run record, or repeats a pair."""


class RecordSummary(NamedTuple):
    """What the close of a run (`write_records`) keeps of each record."""

    algorithm: str
    problem_id: str
    converged: bool
    iterations: int


def _floats(values):
    return np.asarray(values, dtype=float).tolist()


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
    """Load every problems/*.json file, sorted by problem id; no two may hold one id."""
    paths = [p for p in sorted(Path(directory).glob("*.json")) if p.name != "manifest.json"]
    problems, first = [load_problem(p) for p in paths], {}
    for path, problem in zip(paths, problems):
        seen = first.setdefault(problem.problem_id, path)
        if seen != path:
            raise InvalidSpecError(f"{seen} and {path} both hold problem {problem.problem_id}")
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


def _vector(data: dict, key: str) -> np.ndarray:
    """The list of numbers `data[key]` as a 1-D float64 array; anything else raises ValueError.

    A number is a JSON int or float: null, booleans, strings and nested
    lists are not, nor is an int that overflows a float64.
    """
    values = data[key]
    if type(values) is not list or not set(map(type, values)) <= {float, int}:
        raise ValueError(f"{key} is not a list of numbers")
    try:
        return np.array(values, dtype=float)
    except OverflowError:
        raise ValueError(f"{key} holds a number too large for a float") from None


def record_from_dict(data: dict) -> RunRecord:
    d_trace = _vector(data, "d_trace")
    if not d_trace.size:
        raise ValueError("empty d_trace")
    return RunRecord(
        problem_id=data["problem_id"],
        algorithm=data["algorithm"],
        iterations=int(data["iterations"]),
        converged=bool(data["converged"]),
        d_trace=d_trace,
        final=_vector(data, "final"),
        wall_time=float(data.get("wall_time", 0.0)),
        flags=data.get("flags", {}),
    )


@contextmanager
def _locked(path):
    """Hold an exclusive lock for one operation on the record file `path`.

    The lock is on the file's directory, which the closing rename does not
    replace, so appends, reads and the close of every process take turns.
    `flock` is POSIX-only and belongs to the open file description: hold it
    only for the operation itself, and never take it twice in one process.
    """
    fd = os.open(Path(path).parent, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)


def append_record(rec: RunRecord, path) -> None:
    line = json.dumps(record_to_dict(rec)) + "\n"
    with _locked(path), open(path, "a") as fh:
        fh.write(line)
        fh.flush()
        os.fsync(fh.fileno())


def _read(path):
    """Yield (record, offset, line bytes with its newline) for each complete line of a record file.

    The file is read one line at a time.  A malformed line, or a second line
    for one (algorithm, problem) pair, raises RecordFileError.  Once every
    complete line has been read, bytes after the last newline (an interrupted
    append) are dropped with a warning and cut from the file; a file that
    raises first is left as it was.
    """
    first = {}  # (algorithm, problem) -> number of the line that holds it
    tail = b""
    offset = 0
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            start, offset = offset, offset + len(line)
            if not line.endswith(b"\n"):
                tail = line
                break
            if not line.strip():
                continue
            try:  # decoded without its newline, so a decode error's position stays on line 1
                rec = record_from_dict(json.loads(line[:-1]))
            except (ValueError, KeyError, TypeError) as exc:
                raise RecordFileError(f"{path}, line {lineno}: malformed record ({exc})") from exc
            pair = (rec.algorithm, rec.problem_id)
            if pair in first:
                raise RecordFileError(
                    f"{path}, lines {first[pair]} and {lineno}: two records for {' on '.join(pair)}"
                )
            first[pair] = lineno
            yield rec, start, line
    if tail.strip():
        print(f"warning: {path}: dropped a torn last line ({len(tail)} bytes)", file=sys.stderr)
        os.truncate(path, path.stat().st_size - len(tail))


def read_records(path) -> list:
    """Read a JSONL record file, one line at a time.

    Bytes after the last newline are an interrupted append: they are dropped
    with a warning and cut from the file, so the next append starts a fresh
    line.  A malformed complete line, or one whose (algorithm, problem)
    pair an earlier line already holds, raises RecordFileError and leaves
    the file as it was.  Each record's d_trace and final are float64 arrays.
    """
    path = Path(path)
    if not path.exists():
        return []
    with _locked(path):
        return [rec for rec, _, _ in _read(path)]


def write_records(path) -> list:
    """Sort a record file's own lines by (algorithm, problem); return each one's `RecordSummary`.

    The lines are checked as `read_records` checks them, one at a time, and
    keep their bytes: only each pair's offset and length are kept, and the
    sorted byte ranges are copied to a temporary file in the same directory,
    fsync'd and renamed over `path`.  If anything fails first, the old file
    is left as it was, with no temporary file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    with _locked(path):
        rows = sorted(
            (rec.algorithm, rec.problem_id, rec.converged, rec.iterations, start, len(line))
            for rec, start, line in _read(path)
        )
        try:
            with open(path, "rb") as src, open(tmp, "wb") as fh:
                for *_, start, size in rows:
                    src.seek(start)
                    fh.write(src.read(size))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    return [RecordSummary(*row[:4]) for row in rows]


def _csv_field(value) -> str:
    """`value` as csv.writer writes it as one field of a longer row."""
    buf = io.StringIO()
    csv.writer(buf).writerow([value, ""])
    return buf.getvalue()[: -len(",\r\n")]


def _formatted(values) -> list:
    """`_FMT` of each value; each distinct value is formatted once.

    Values are told apart by their bits, so -0.0 keeps its sign; padded and
    stalled traces repeat their tail, so many lines reuse a string.
    """
    bits, where = np.unique(
        np.ascontiguousarray(values, dtype=float).view(np.int64), return_inverse=True
    )
    text = np.array([_FMT(x) for x in bits.view(float).tolist()], dtype=object)
    return text[where].tolist()


def _write_curves(path, header, xs, curves) -> None:
    """One line per (algorithm, x, y), written as csv.writer would write it.

    Each algorithm's lines are built as one string and written with one
    call; only one algorithm's lines exist at a time.  As with zip, a curve
    and `xs` pair up to the shorter of the two.
    """
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for algorithm in sorted(curves):
            name = _csv_field(algorithm)
            cells = zip(xs, _formatted(curves[algorithm]))
            fh.write("".join([f"{name},{x},{y}\r\n" for x, y in cells]))


def write_profile_csv(path, kappa, rho) -> None:
    _write_curves(path, ["algorithm", "kappa", "rho"], _formatted(kappa), rho)


def write_proximity_csv(path, ks, beta) -> None:
    _write_curves(path, ["algorithm", "k", "beta"], [int(k) for k in ks], beta)


def write_delta_csv(path, stats) -> None:
    header = ["algorithm", "Min", "1st Qrt.", "Median", "3rd Qrt.", "Max", "Mean", "Std.dev"]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for algorithm in sorted(stats):
            row = stats[algorithm]
            cells = [_csv_field(algorithm)] + _formatted([row[f] for f in STAT_FIELDS])
            fh.write(",".join(cells) + "\r\n")


def write_manifest(directory, data: dict) -> None:
    Path(directory, "manifest.json").write_text(json.dumps(data, indent=1) + "\n")


def read_manifest(directory) -> dict:
    return json.loads(Path(directory, "manifest.json").read_text())
