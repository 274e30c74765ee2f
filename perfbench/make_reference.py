"""Write perfbench/reference.json: the seed-0 fingerprint of every workload.

    python3 perfbench/make_reference.py

The fingerprint is the sha256 of profiles.csv, proximity.csv and delta.csv
plus the converged flag of every (algorithm, problem) pair.  A change that
keeps the program's results must leave it untouched; rewrite it only with a
change that alters results on purpose, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from vertipy import cli, storage  # noqa: E402

from perfbench import checks, pipeline  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def main() -> int:
    reference = {}
    for workload in WORKLOADS.values():
        out = ROOT / "perfbench" / ".work" / f"reference-{workload.name}"
        shutil.rmtree(out, ignore_errors=True)
        try:
            for args in (workload.generate_args(out), workload.run_args(out),
                         workload.report_args(out)):
                pipeline.call_cli(args)
            problems = storage.load_problem_dir(out / "problems")
            algorithms = sorted(cli.MODE_FAMILIES[workload.mode])
            failures = checks.check_records(out / "records.jsonl", problems, algorithms,
                                            pipeline.STOP.eps)
            if failures:
                print(f"{workload.name}: output check failed: {failures}", file=sys.stderr)
                return 1
            reference[workload.name] = checks.fingerprint(out, problems, algorithms)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        print(f"{workload.name}: done", flush=True)
    checks.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
