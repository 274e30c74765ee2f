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

Options: OPTIONS gives each option's kind, default and check, and COMMANDS the
options each command reads.  `_options` resolves each of them once, in order of
precedence: command-line flag, then VERTIPY_<NAME> environment variable, then the
--config JSON file, then the built-in default; every source passes the same cast and
check.  argparse only decides which flags a command takes: they arrive as strings.  A run
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
from .geometry import InvalidSpecError
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

# name -> (kind, default, check, flag help).  A kind is int, float, str, bool, or a list of
# str or float; a check is a tuple of the allowed values or a rule of _RULES.  None help: no
# flag, only VERTIPY_<NAME> and the config file.  k_table is config-only and not listed here.
OPTIONS = {
    "config": (str, None, None, "JSON config file (lowest-precedence options)"),
    "out": (str, ".", "non-empty", "output directory (default .)"),
    "seed": (int, 0, None, "master seed (default 0)"),
    "count": (int, 100, "at least 1", "number of problems (default 100)"),
    "nonconvex": (bool, False, None, "add the minimum-grade floor (union-of-stripes slope sets)"),
    "lengths": ([float], DEFAULT_LENGTHS, None, None),
    "speeds": ([float], DEFAULT_SPEEDS, None, None),
    "xi_max": ([float], DEFAULT_XI_MAX, None, None),
    "algorithms": ([str], None, None, "comma-separated algorithm ids (default: the --mode family)"),
    "mode": (
        str, "feas", tuple(MODE_FAMILIES),
        "algorithm family when --algorithms is not given (default feas)",
    ),
    "eps": (float, 5e-3, None, "proximity tolerance (default 5e-3)"),
    "k_max": (int, 5000, "at least 1", "iteration cap (default 5000)"),
    "jobs": (int, os.cpu_count() or 1, "at least 1", "parallel workers (default: cpu count)"),
    "superior_direction": (
        str, "away", ("away", "toward"),
        "perturbation direction for the superiorized variants (default away)",
    ),
    "checks": ([str], None, None, f"comma-separated subset of {', '.join(verify.ALL_CHECKS)}"),
}

_RULES = {"at least 1": lambda v: v >= 1, "non-empty": lambda v: v != ""}
_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}
# the types a scalar option takes: a string to parse, or a JSON value of its kind from a
# config file (no bool, and no 2.9 for an int)
_TYPES = {int: (str, int), float: (str, int, float), str: (str,)}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); usage errors are 1
        raise UsageError(message)


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


def _cast(label, value, kind):
    if kind is bool:
        if isinstance(value, bool):
            return value
        if isinstance(value, str) and value.lower() in _BOOLS:
            return _BOOLS[value.lower()]
        raise UsageError(f"invalid boolean for {label}: {value!r}")
    if isinstance(kind, list):
        if isinstance(value, str):
            value = [part.strip() for part in value.split(",") if part.strip()]
        if not isinstance(value, list):
            raise UsageError(f"invalid list for {label}: {value!r}")
        if not value:
            raise UsageError(f"{label} must list at least one value")
        # a listed name that is not a string reaches the command's name check as its text
        return [str(v) if kind == [str] else _cast(label, v, *kind) for v in value]
    if type(value) in _TYPES[kind]:
        try:
            return kind(value)
        except (ValueError, OverflowError):
            pass
    raise UsageError(f"invalid value for {label}: {value!r}")


def _value(name, args, config):
    """One option: its flag, else VERTIPY_<NAME>, else the config file, else its default."""
    kind, default, check, flag_help = OPTIONS[name]
    value = getattr(args, name, None)
    if value is None:
        value = os.environ.get(ENV_PREFIX + name.upper())
    if value is None:
        value = config.get(name)
    if value is None:
        return default
    label = name if flag_help is None else name.replace("_", "-")  # as its flag spells it
    value = _cast(label, value, kind)
    if isinstance(check, tuple) and value not in check:
        raise UsageError(f"{label} must be one of {', '.join(check)}")
    if isinstance(check, str) and not _RULES[check](value):
        raise UsageError(f"{label} must be {check}")
    return value


def _options(args) -> dict:
    """Every option the command reads, each resolved and checked once."""
    config = _load_config(_value("config", args, {}))
    opts = {name: _value(name, args, config) for name in COMMANDS[args.command][2]}
    opts["k_table"] = config.get("k_table")  # config-only; make_batch checks it
    return opts


def _out_dir(opts, must_exist: bool = False) -> Path:
    out = Path(opts["out"])
    if must_exist and not out.exists():
        raise UsageError(f"output directory {out} does not exist")
    return out


def _select_algorithms(opts):
    names = opts["algorithms"] or sorted(MODE_FAMILIES[opts["mode"]])
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
    out = _out_dir(opts)
    problem_dir = out / "problems"
    if any(problem_dir.glob("*.json")) or (out / "records.jsonl").exists():
        raise UsageError(f"{out} already holds a batch; generate into a new directory")

    grid = {name: opts[name] for name in ("count", "nonconvex", "lengths", "speeds", "xi_max",
                                          "k_table")}
    problems = make_batch(opts["seed"], **grid)
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
        {"created": datetime.now(timezone.utc).isoformat(), "seed": opts["seed"], **grid,
         "problems": entries},
    )
    print(f"wrote {len(problems)} problem(s) to {problem_dir}")
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
        groups.setdefault((a, p.kernel.slope.convex), []).append((a, p))
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
    stop = StopRule(eps=opts["eps"], k_max=opts["k_max"])
    jobs = opts["jobs"]
    options = {"direction": opts["superior_direction"]}

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
    records = storage.read_records(out / "records.jsonl")
    if not records:
        raise UsageError(f"no records in {out / 'records.jsonl'}; run `run` first")
    v_by_problem = {p.problem_id: p.v for p in storage.load_problem_dir(out / "problems")}
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

    kappa, rho = performance_profile(records, k_max=opts["k_max"])
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
    results = verify.run_checks(opts["checks"])
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


COMMANDS = {  # name -> (function, help, the options it reads besides config)
    "generate": (
        cmd_generate, "write a seeded problem batch",
        ("out", "seed", "count", "nonconvex", "lengths", "speeds", "xi_max"),
    ),
    "run": (
        cmd_run, "run algorithms over the generated batch",
        ("out", "algorithms", "mode", "eps", "k_max", "jobs", "superior_direction"),
    ),
    "report": (cmd_report, "write CSV curves and the summary table", ("out", "k_max")),
    "verify": (cmd_verify, "run the built-in consistency checks", ("checks",)),
}


@functools.cache  # once per process: `main` runs in process, call after call
def build_parser() -> _Parser:
    """Each command's flags from OPTIONS, as plain strings: `_options` casts and checks them."""
    parser = _Parser(prog="vertipy", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (_, about, names) in COMMANDS.items():
        sub = commands.add_parser(command, help=about)
        for name in ("config", *names):
            kind, _, check, flag_help = OPTIONS[name]
            if flag_help is None:
                continue
            flag = "--" + name.replace("_", "-")
            if kind is bool:
                sub.add_argument(flag, action="store_const", const=True, help=flag_help)
            else:  # allowed values show as argparse shows choices
                metavar = "{%s}" % ",".join(check) if isinstance(check, tuple) else None
                sub.add_argument(flag, metavar=metavar, help=flag_help)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return COMMANDS[args.command][0](_options(args))
    except (UsageError, InvalidSpecError, storage.RecordFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
