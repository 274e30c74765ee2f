"""Print one sha256 per problem, per record and per report file of the benchmark workloads.

Every workload in ``perfbench.workloads.WORKLOADS`` runs through
``vertipy.cli.main`` in a temporary directory: its ``generate_args`` (seed 0),
its ``run_args``, then its ``report_args``.  Each generated problem then
prints as one line: workload, ``problem``, problem id, and the sha256 of the
JSON text of its values as ``storage.load_problem`` gives them: v, the meta,
and t, the interpolation spec and the four bound vectors, all read from the
kernel its six sets share (``problem.sets[0].kernel``), so the digest sees
the problem and not the file's layout: a file that stores its bounds and one
that leaves them to the meta digest alike.  Each (algorithm, problem) record
follows as one line: workload, algorithm, problem id, and the sha256 of the
record's JSON text without ``wall_time``.  Every digit of every float counts, and so does
the sign of a zero.  Each report file follows as one line: workload,
``report``, file name, and the sha256 of the file's bytes.  Last come the
problems of the seed-0 100-problem default batch (workload
``default-batch``), generated only.

A change that must not move results is checked by diffing the output for
the code before and after it:

    python tools/record_digests.py > after.txt
    PYTHONPATH=/path/to/parent/src python tools/record_digests.py > before.txt
    diff before.txt after.txt

With ``--out DIR`` it runs nothing: it digests the problems, the records
and the report files already in the run directory DIR (those it holds), one
line each, without the workload column.  Two runs of one batch, say with
``--jobs 1`` and ``--jobs 2``, are checked the same way:

    python tools/record_digests.py --out seq > seq.txt
    python tools/record_digests.py --out par > par.txt
    diff seq.txt par.txt

A vertipy on PYTHONPATH wins; without one, this checkout's ``src`` is used.
The vertipy in use and the problem, record and report file counts go to
stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path += [str(ROOT), str(ROOT / "src")]  # after PYTHONPATH, so that it can name another vertipy

from perfbench.workloads import WORKLOADS  # noqa: E402
from vertipy import cli, storage  # noqa: E402


def _call(args) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(args)
    if code != 0:
        raise SystemExit(f"vertipy {' '.join(args)} exited {code}:\n{out.getvalue()}")


REPORT_FILES = ("profiles.csv", "proximity.csv", "delta.csv", "summary.txt")


def _sha256(value) -> str:
    # Python floats round-trip through JSON text exactly
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def _values(problem) -> dict:
    """A loaded problem's values, read through attributes that every vertipy since the
    profile kernel has."""
    kernel = problem.sets[0].kernel
    slope, curvature, interp = kernel.slope, kernel.curvature, kernel.interp
    return {
        "t": kernel.bp.t.tolist(),
        "v": problem.v.tolist(),
        "indices": interp.indices.tolist(),
        "values": interp.values.tolist(),
        "alpha": slope.alpha.tolist(),
        "beta": None if slope.beta is None else slope.beta.tolist(),
        "gamma": curvature.gamma.tolist(),
        "delta": curvature.delta.tolist(),
        "meta": problem.meta,
    }


def problem_digests(directory):
    """Yield ("problem", problem id, sha256) for each problem file in `directory`/problems."""
    for path in sorted((Path(directory) / "problems").glob("*.json")):
        problem = storage.load_problem(path)
        yield "problem", problem.problem_id, _sha256(_values(problem))


def directory_digests(directory):
    """Yield `problem_digests`, then (algorithm, problem id, sha256) for each record in
    `directory`'s records.jsonl, then ("report", file name, sha256) for each report file."""
    yield from problem_digests(directory)
    records = Path(directory) / "records.jsonl"
    for line in records.read_text().splitlines() if records.exists() else ():
        record = json.loads(line)
        del record["wall_time"]
        yield record["algorithm"], record["problem_id"], _sha256(record)
    for name in REPORT_FILES:
        path = Path(directory) / name
        if path.exists():
            yield "report", name, hashlib.sha256(path.read_bytes()).hexdigest()


def digests(workload, directory):
    """`directory_digests` of one workload run, with its report, in `directory`."""
    _call(workload.generate_args(directory))
    _call(workload.run_args(directory))
    _call(workload.report_args(directory))
    yield from directory_digests(directory)


def _workload_digests():
    """(workload, kind, item, sha256) of every workload, each run in a temporary directory,
    then the problems of the seed-0 default batch."""
    for name, workload in WORKLOADS.items():
        with tempfile.TemporaryDirectory() as tmp:
            for row in digests(workload, tmp):
                yield (name, *row)
    with tempfile.TemporaryDirectory() as tmp:
        _call(["generate", "--out", tmp, "--seed", "0", "--count", "100"])
        for row in problem_digests(tmp):
            yield ("default-batch", *row)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="digest this run directory instead of running the workloads")
    args = parser.parse_args(argv)
    print(f"vertipy from {Path(cli.__file__).parent}", file=sys.stderr)
    counts = {"problem": 0, "record": 0, "report": 0}
    for row in directory_digests(args.out) if args.out else _workload_digests():
        print(*row)
        counts[row[-3] if row[-3] in ("problem", "report") else "record"] += 1
    print(f"{counts['problem']} problem(s), {counts['record']} record(s), "
          f"{counts['report']} report file(s)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
