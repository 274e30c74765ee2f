"""Print one sha256 per record of the benchmark workloads, to show that results did not move.

Every workload in ``perfbench.workloads.WORKLOADS`` runs through
``vertipy.cli.main`` in a temporary directory: its ``generate_args`` (seed 0),
then its ``run_args``.  Each (algorithm, problem) record then prints as one
line: workload, algorithm, problem id, and the sha256 of the record's JSON
text without ``wall_time``.  Every digit of every float counts, and so does
the sign of a zero.

A change that must not move results is checked by diffing the output for
the code before and after it:

    python tools/record_digests.py > after.txt
    PYTHONPATH=/path/to/parent/src python tools/record_digests.py > before.txt
    diff before.txt after.txt

A vertipy on PYTHONPATH wins; without one, this checkout's ``src`` is used.
The vertipy in use and the record count go to stderr.
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


def digests(workload, directory):
    """Yield (algorithm, problem id, sha256) for each record of one workload run in `directory`."""
    _call(workload.generate_args(directory))
    _call(workload.run_args(directory))
    for line in (Path(directory) / "records.jsonl").read_text().splitlines():
        record = json.loads(line)
        del record["wall_time"]
        text = json.dumps(record)  # Python floats round-trip through JSON text exactly
        yield record["algorithm"], record["problem_id"], hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    print(f"vertipy from {Path(cli.__file__).parent}", file=sys.stderr)
    count = 0
    for name, workload in WORKLOADS.items():
        with tempfile.TemporaryDirectory() as tmp:
            for algorithm, problem_id, digest in digests(workload, tmp):
                print(name, algorithm, problem_id, digest)
                count += 1
    print(f"{count} record(s)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
