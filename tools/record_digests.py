"""Print one sha256 per record and per report file of the benchmark workloads.

Every workload in ``perfbench.workloads.WORKLOADS`` runs through
``vertipy.cli.main`` in a temporary directory: its ``generate_args`` (seed 0),
its ``run_args``, then its ``report_args``.  Each (algorithm, problem) record
then prints as one line: workload, algorithm, problem id, and the sha256 of
the record's JSON text without ``wall_time``.  Every digit of every float
counts, and so does the sign of a zero.  Each report file follows as one
line: workload, ``report``, file name, and the sha256 of the file's bytes.

A change that must not move results is checked by diffing the output for
the code before and after it:

    python tools/record_digests.py > after.txt
    PYTHONPATH=/path/to/parent/src python tools/record_digests.py > before.txt
    diff before.txt after.txt

A vertipy on PYTHONPATH wins; without one, this checkout's ``src`` is used.
The vertipy in use and the record and report file counts go to stderr.
"""

from __future__ import annotations

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
from vertipy import cli  # noqa: E402


def _call(args) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(args)
    if code != 0:
        raise SystemExit(f"vertipy {' '.join(args)} exited {code}:\n{out.getvalue()}")


REPORT_FILES = ("profiles.csv", "proximity.csv", "delta.csv", "summary.txt")


def digests(workload, directory):
    """Yield (algorithm, problem id, sha256) for each record of one workload run in `directory`,
    then ("report", file name, sha256) for each report file."""
    _call(workload.generate_args(directory))
    _call(workload.run_args(directory))
    for line in (Path(directory) / "records.jsonl").read_text().splitlines():
        record = json.loads(line)
        del record["wall_time"]
        text = json.dumps(record)  # Python floats round-trip through JSON text exactly
        yield record["algorithm"], record["problem_id"], hashlib.sha256(text.encode()).hexdigest()
    _call(workload.report_args(directory))
    for name in REPORT_FILES:
        yield "report", name, hashlib.sha256((Path(directory) / name).read_bytes()).hexdigest()


def main() -> int:
    print(f"vertipy from {Path(cli.__file__).parent}", file=sys.stderr)
    records = reports = 0
    for name, workload in WORKLOADS.items():
        with tempfile.TemporaryDirectory() as tmp:
            for kind, item, digest in digests(workload, tmp):
                print(name, kind, item, digest)
                reports += kind == "report"
                records += kind != "report"
    print(f"{records} record(s), {reports} report file(s)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
