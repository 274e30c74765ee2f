"""Command-line harness: generate problems, run algorithms, report, verify.

Pipeline layout under the output directory (--out):

    problems/p0000.json ...   generated problem files
    manifest.json             batch parameters + per-problem seeds (timestamps
                              live here and nowhere else)
    records.jsonl             one line per finished (algorithm, problem) run
    profiles.csv              performance profile points (algorithm, kappa, rho)
    proximity.csv             decibel proximity curve (algorithm, k, beta)
    delta.csv                 anchor-distance statistics table
    summary.txt               plain-text report

Option precedence: command-line flag, then VERTIPY_<NAME> environment
variable, then the --config JSON file, then the built-in default.  A run
appends one line per finished (algorithm, problem) pair to records.jsonl, the
only store of records, skips the pairs found there (so runs resume), and ends
by sorting the file's own lines, so reruns produce identical files.

Exit codes: 0 success, 1 usage or input error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import storage, verify
from .feasibility import (
    ALGORITHMS,
    BEST_APPROXIMATION_ALGORITHMS,
    FEASIBILITY_ALGORITHMS,
    SUPERIORIZED_ALGORITHMS,
    run as run_algorithm,
    run_batch,
    start_proximity2,
)
from .geometry import InvalidSpecError, kernel_of
from .metrics import (
    StopRule,
    distance_stats,
    performance_profile,
    relative_proximity_curve,
)
from .probgen import (
    DEFAULT_LENGTHS,
    DEFAULT_SPEEDS,
    DEFAULT_XI_MAX,
    make_batch,
)

ENV_PREFIX = "VERTIPY_"

MODE_FAMILIES = {
    "feas": FEASIBILITY_ALGORITHMS,
    "super": SUPERIORIZED_ALGORITHMS,
    "ba": BEST_APPROXIMATION_ALGORITHMS,
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); usage errors are 1
        raise UsageError(message)


def _env(name: str):
    return os.environ.get(ENV_PREFIX + name.upper().replace("-", "_"))


def _load_config(path):
    if path is None:
        return {}
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}")
    if not isinstance(data, dict):
        raise UsageError(f"config {path} must hold a JSON object")
    return data


class _Options:
    """Merged view of flags, environment, config file, and defaults."""

    def __init__(self, args):
        self.args = args
        self.config = _load_config(getattr(args, "config", None) or _env("config"))

    def _value(self, name: str):
        # the flag, else the environment, else the config file; None if none is set
        value = getattr(self.args, name.replace("-", "_"), None)
        if value is None:
            value = _env(name)
        if value is None:
            value = self.config.get(name.replace("-", "_"))
        return value

    def get(self, name: str, default=None, cast=None):
        # without a cast, a string option: a config value must be a JSON string too
        value = self._value(name)
        if value is None:
            return default
        if cast is not None:
            return _cast(name, value, cast)
        if isinstance(value, str):
            return value
        raise UsageError(f"invalid value for {name}: {value!r}")

    def get_bool(self, name: str, default=False):
        value = self._value(name)
        if value is None:
            return default
        if isinstance(value, bool):
            return value
        if isinstance(value, str):
            if value.lower() in ("1", "true", "yes", "on"):
                return True
            if value.lower() in ("0", "false", "no", "off"):
                return False
        raise UsageError(f"invalid boolean for {name}: {value!r}")

    def get_list(self, name: str, cast, default=None):
        value = self._value(name)
        if value is None:
            return default
        if isinstance(value, str):
            value = [part.strip() for part in value.split(",") if part.strip()]
        if not isinstance(value, list):
            raise UsageError(f"invalid list for {name}: {value!r}")
        if not value:
            raise UsageError(f"{name} must list at least one value")
        return [_cast(name, v, cast) for v in value]


# the types an int or float option takes: a string to parse, or a JSON number of its
# kind from a config file (no bool, and no 2.9 for an int)
_TYPES = {int: (str, int), float: (str, int, float)}


def _cast(name, value, cast):
    if cast not in _TYPES or type(value) in _TYPES[cast]:
        try:
            return cast(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise UsageError(f"invalid value for {name}: {value!r}")


def _out_dir(opts, must_exist: bool = False) -> Path:
    out = Path(opts.get("out", "."))
    if must_exist and not out.exists():
        raise UsageError(f"output directory {out} does not exist")
    return out


def _select_algorithms(opts):
    names = opts.get_list("algorithms", str)
    if names is None:
        mode = opts.get("mode", "feas")
        if mode not in MODE_FAMILIES:
            raise UsageError(f"mode must be one of {', '.join(MODE_FAMILIES)}")
        names = sorted(MODE_FAMILIES[mode])
    unknown = [n for n in names if n not in ALGORITHMS]
    if unknown:
        raise UsageError(
            f"unknown algorithm(s): {', '.join(unknown)}; "
            f"known: {', '.join(sorted(ALGORITHMS))}"
        )
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise UsageError(f"algorithm(s) named more than once: {', '.join(repeated)}")
    return names


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(opts) -> int:
    count = opts.get("count", 100, int)
    if count < 1:
        raise UsageError("count must be at least 1")
    seed = opts.get("seed", 0, int)
    nonconvex = opts.get_bool("nonconvex")
    lengths = opts.get_list("lengths", float, list(DEFAULT_LENGTHS))
    speeds = opts.get_list("speeds", float, list(DEFAULT_SPEEDS))
    xi_max = opts.get_list("xi_max", float, list(DEFAULT_XI_MAX))
    k_table = opts.config.get("k_table")
    out = _out_dir(opts)
    problem_dir = out / "problems"
    if any(problem_dir.glob("*.json")) or (out / "records.jsonl").exists():
        raise UsageError(f"{out} already holds a batch; generate into a new directory")

    problems = make_batch(
        seed,
        count=count,
        nonconvex=nonconvex,
        lengths=lengths,
        speeds=speeds,
        xi_max=xi_max,
        k_table=k_table,
    )
    problem_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for problem in problems:
        path = problem_dir / f"{problem.problem_id}.json"
        storage.save_problem(problem, path)
        entries.append(
            {
                "id": problem.problem_id,
                "file": f"problems/{path.name}",
                "seed": problem.meta["seed"],
            }
        )
    storage.write_manifest(
        out,
        {
            "created": datetime.now(timezone.utc).isoformat(),
            "seed": seed,
            "count": count,
            "nonconvex": nonconvex,
            "lengths": lengths,
            "speeds": speeds,
            "xi_max": xi_max,
            "k_table": k_table,
            "problems": entries,
        },
    )
    print(f"wrote {count} problem(s) to {problem_dir}")
    return 0


def _run_pair(algorithm, problem, stop, options):
    return run_algorithm(algorithm, problem, stop=stop, **options)


def _batches(pairs) -> list:
    """The pairs grouped by algorithm and slope kind, each group one batch profile.

    Convex and band problems never share a batch: their intrepid maps are
    not interchangeable bitwise.
    """
    groups = {}
    for a, p in pairs:
        groups.setdefault((a, kernel_of(p.sets).slope.convex), []).append((a, p))
    return list(groups.values())


def _check_starts(problems) -> None:
    """Raise before any pair runs, naming every problem whose start cannot normalize a run."""
    bad = []
    for p in problems:
        try:
            start_proximity2(p)
        except InvalidSpecError as exc:
            bad.append(str(exc))
    if bad:
        raise InvalidSpecError("; ".join(bad))


def cmd_run(opts) -> int:
    out = _out_dir(opts, must_exist=True)
    problem_dir = out / "problems"
    problems = storage.load_problem_dir(problem_dir) if problem_dir.exists() else []
    if not problems:
        raise UsageError(f"no problem files in {problem_dir}; run `generate` first")

    algorithms = _select_algorithms(opts)
    stop = StopRule(eps=opts.get("eps", 5e-3, float), k_max=opts.get("k_max", 5000, int))
    direction = opts.get("superior_direction", "away")
    if direction not in ("away", "toward"):
        raise UsageError("superior-direction must be 'away' or 'toward'")
    jobs = opts.get("jobs", os.cpu_count() or 1, int)
    if jobs < 1:
        raise UsageError("jobs must be at least 1")
    options = {"direction": direction}

    record_path = out / "records.jsonl"
    done = {(r.algorithm, r.problem_id) for r in storage.read_records(record_path)}
    pairs = [
        (a, p) for a in algorithms for p in problems if (a, p.problem_id) not in done
    ]
    if done:
        print(f"resuming: {len(done)} finished pair(s) found, {len(pairs)} to go")
    pending = {p.problem_id for _, p in pairs}
    _check_starts([p for p in problems if p.problem_id in pending])

    started = time.perf_counter()
    if jobs > 1 and len(pairs) > 1:
        # the pool forks every worker at its first task: no more than there are pairs or cpus
        with ProcessPoolExecutor(max_workers=min(jobs, len(pairs), os.cpu_count() or 1)) as pool:
            futures = [pool.submit(_run_pair, a, p, stop, options) for a, p in pairs]
            for future in as_completed(futures):  # append each pair as soon as it finishes
                storage.append_record(future.result(), record_path)
    else:
        for batch in _batches(pairs):
            for record in run_batch(batch[0][0], [p for _, p in batch], stop, **options):
                storage.append_record(record, record_path)  # each pair as soon as it stops
    summary = storage.write_records(record_path)  # holds lines other processes appended too

    for a in algorithms:
        mine = [r for r in summary if r.algorithm == a]
        solved = sum(r.converged for r in mine)
        iters = sorted(r.iterations for r in mine)
        median_k = iters[len(iters) // 2] if iters else 0
        print(f"{a}: {solved}/{len(mine)} converged, median iterations {median_k}")
    print(
        f"{len(pairs)} run(s) in {time.perf_counter() - started:.1f} s -> {record_path}"
    )
    return 0


def cmd_report(opts) -> int:
    out = _out_dir(opts, must_exist=True)
    k_max = opts.get("k_max", 5000, int)
    if k_max < 1:
        raise UsageError("k-max must be at least 1")
    records = storage.read_records(out / "records.jsonl")
    if not records:
        raise UsageError(f"no records in {out / 'records.jsonl'}; run `run` first")
    problems = storage.load_problem_dir(out / "problems")
    v_by_problem = {p.problem_id: p.v for p in problems}
    missing = {r.problem_id for r in records} - set(v_by_problem)
    if missing:
        raise UsageError(f"records reference missing problem file(s): {sorted(missing)}")
    misfit = [
        f"{r.algorithm}/{r.problem_id}"
        for r in records
        if r.final.shape != v_by_problem[r.problem_id].shape
    ]
    if misfit:
        raise UsageError(f"record final does not fit its problem's profile: {', '.join(misfit)}")

    kappa, rho = performance_profile(records, k_max=k_max)
    for algorithm, curve in rho.items():
        if np.any(np.diff(curve) < 0):
            raise InvalidSpecError(f"profile for {algorithm} is not nondecreasing")
    ks, beta = relative_proximity_curve(records)
    stats, _ = distance_stats(records, v_by_problem)

    storage.write_profile_csv(out / "profiles.csv", kappa, rho)
    storage.write_proximity_csv(out / "proximity.csv", ks, beta)
    storage.write_delta_csv(out / "delta.csv", stats)

    solved = {
        a: sum(r.converged for r in records if r.algorithm == a)
        / sum(r.algorithm == a for r in records)
        for a in rho
    }
    fastest = max(rho, key=lambda a: (rho[a][0], a))
    robust = max(rho, key=lambda a: (rho[a][-1], a))
    lines = [
        f"algorithms: {', '.join(sorted(rho))}",
        f"problems: {len({r.problem_id for r in records})}",
        f"fastest (wins most problems outright): {fastest} "
        f"(rho(0) = {rho[fastest][0]:.3f})",
        f"most robust (largest solved fraction): {robust} "
        f"(rho(max) = {rho[robust][-1]:.3f})",
        "solved fraction per algorithm:",
    ]
    lines += [f"  {a}: {solved[a]:.3f}" for a in sorted(solved)]
    lines += ["mean anchor distance per algorithm:"]
    lines += [f"  {a}: {stats[a]['mean']:.6g}" for a in sorted(stats)]
    (out / "summary.txt").write_text("\n".join(lines) + "\n")

    for name in ("profiles.csv", "proximity.csv", "delta.csv", "summary.txt"):
        print(f"wrote {out / name}")
    return 0


def cmd_verify(opts) -> int:
    names = opts.get_list("checks", str)
    results = verify.run_checks(names)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name}: {res.detail} [tol {res.tolerance:g}]")
    failed = [res.name for res in results if not res.passed]
    if failed:
        print(f"{len(failed)} of {len(results)} check(s) failed: {', '.join(failed)}")
        return 2
    print(f"all {len(results)} check(s) passed")
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _add_common(sub):
    sub.add_argument("--config", help="JSON config file (lowest-precedence options)")
    sub.add_argument("--out", help="output directory (default .)")


@functools.cache  # once per process: `main` runs in process, call after call
def build_parser() -> _Parser:
    parser = _Parser(prog="vertipy", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("generate", help="write a seeded problem batch")
    _add_common(gen)
    gen.add_argument("--seed", type=int, help="master seed (default 0)")
    gen.add_argument("--count", type=int, help="number of problems (default 100)")
    gen.add_argument(
        "--nonconvex",
        action="store_const",
        const=True,
        help="add the minimum-grade floor (union-of-stripes slope sets)",
    )

    runp = commands.add_parser("run", help="run algorithms over the generated batch")
    _add_common(runp)
    runp.add_argument(
        "--algorithms", help="comma-separated algorithm ids (default: the --mode family)"
    )
    runp.add_argument(
        "--mode",
        choices=sorted(MODE_FAMILIES),
        help="algorithm family when --algorithms is not given (default feas)",
    )
    runp.add_argument("--eps", type=float, help="proximity tolerance (default 5e-3)")
    runp.add_argument("--k-max", type=int, help="iteration cap (default 5000)")
    runp.add_argument("--jobs", type=int, help="parallel workers (default: cpu count)")
    runp.add_argument(
        "--superior-direction",
        choices=("away", "toward"),
        help="perturbation direction for the superiorized variants (default away)",
    )

    rep = commands.add_parser("report", help="write CSV curves and the summary table")
    _add_common(rep)
    rep.add_argument("--k-max", type=int, help="iteration cap used by the profiles")

    ver = commands.add_parser("verify", help="run the built-in consistency checks")
    ver.add_argument("--config", help="JSON config file (lowest precedence; only checks applies)")
    ver.add_argument("--checks", help=f"comma-separated subset of {', '.join(verify.ALL_CHECKS)}")

    return parser


COMMANDS = {
    "generate": cmd_generate,
    "run": cmd_run,
    "report": cmd_report,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        opts = _Options(args)
        return COMMANDS[args.command](opts)
    except (UsageError, InvalidSpecError, storage.RecordFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
