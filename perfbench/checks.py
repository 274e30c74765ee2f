"""Output check: every (algorithm, problem) pair has one record that holds up.

A pair passes when exactly one well-formed record exists for it, its trace
has one entry per iteration plus the start, a converged run ends below eps,
and the normalized proximity of its ``final`` profile, recomputed from the
problem file, matches the last trace entry.  On seed 0 the report CSVs and
the per-pair converged flags must also match the committed reference.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from vertipy.metrics import proximity, proximity_squared_sum

REFERENCE = Path(__file__).resolve().parent / "reference.json"
REPORT_FILES = ("profiles.csv", "proximity.csv", "delta.csv")
REL_TOL = 1e-9
ABS_TOL = 1e-12  # d is normalized to 1 at the start, so this is far below eps


def _load_lines(record_path):
    """Parsed records, plus a count of lines that are not a JSON object (torn)."""
    records, torn = [], 0
    if not Path(record_path).exists():
        return records, torn
    with open(record_path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                torn += 1
                continue
            if isinstance(rec, dict):
                records.append(rec)
            else:
                torn += 1
    return records, torn


def _pair_error(rec, problem, eps):
    try:
        iterations = int(rec["iterations"])
        trace = [float(d) for d in rec["d_trace"]]
        final = [float(x) for x in rec["final"]]
        converged = rec["converged"]
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed record ({exc!r})"
    if len(trace) != iterations + 1:
        return f"trace has {len(trace)} entries for {iterations} iterations"
    if converged and not trace[-1] < eps:
        return f"converged with d = {trace[-1]:.3e} >= eps"
    if len(final) != problem.v.size:
        return f"final has {len(final)} entries, problem has {problem.v.size}"
    if proximity_squared_sum(problem.v, problem.sets) == 0.0:
        return None if trace == [0.0] else "feasible start must record trace [0.0]"
    d = proximity(np.asarray(final), problem.sets, problem.v)
    if not math.isclose(d, trace[-1], rel_tol=REL_TOL, abs_tol=ABS_TOL):
        return f"proximity of final is {d:.12e}, trace ends at {trace[-1]:.12e}"
    return None


def check_records(record_path, problems, algorithms, eps):
    """Return {(algorithm, problem_id): reason} for every pair that fails."""
    records, torn = _load_lines(record_path)
    by_pair = {}
    for rec in records:
        by_pair.setdefault((rec.get("algorithm"), rec.get("problem_id")), []).append(rec)
    failures = {}
    for algorithm in algorithms:
        for problem in problems:
            key = (algorithm, problem.problem_id)
            found = by_pair.get(key, [])
            if len(found) != 1:
                reason = f"{len(found)} records"
                if torn:
                    reason += f" ({torn} torn line(s) in the record file)"
                failures[key] = reason
                continue
            error = _pair_error(found[0], problem, eps)
            if error is not None:
                failures[key] = error
    return failures


def _file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def fingerprint(out_dir, problems, algorithms) -> dict:
    """Digests of the report CSVs and the converged flag of every pair."""
    records, _ = _load_lines(Path(out_dir) / "records.jsonl")
    converged = {(r["algorithm"], r["problem_id"]): r["converged"] for r in records}
    return {
        "digests": {name: _file_digest(Path(out_dir) / name) for name in REPORT_FILES},
        "converged": {
            a: "".join("1" if converged.get((a, p.problem_id)) else "0" for p in problems)
            for a in algorithms
        },
    }


def reference_mismatches(workload: str, found: dict) -> list:
    """Names of the reference entries that differ from `found` (empty when none is committed)."""
    reference = json.loads(REFERENCE.read_text()).get(workload)
    if reference is None:
        return []
    bad = [n for n, d in reference["digests"].items() if found["digests"].get(n) != d]
    bad += [
        f"converged[{a}]"
        for a, flags in reference["converged"].items()
        if found["converged"].get(a) != flags
    ]
    return bad
