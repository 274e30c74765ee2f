"""End-to-end acceptance checks, one test per documented guarantee.

Each test prints a single PASS/FAIL line that bypasses pytest's capture,
so a plain ``pytest -v`` run shows the whole scorecard inline.  The one
known deviation (the nonconvex anchor-distance comparison between CycP
and CycP+) is marked xfail(strict) and explained in the README.
"""

import time

import numpy as np
import pytest

from conftest import (
    band_mid_pred,
    band_pred,
    grid_nearest,
    intrepid_oracle,
    on_triple,
    pair_set,
    slab_mid_pred,
    slab_pred,
    stripe_mid_pred,
    stripe_pred,
)
from vertipy import probgen, verify
from vertipy.feasibility import FEASIBILITY_ALGORITHMS, run
from vertipy.geometry import (
    Breakpoints,
    CurvatureBounds,
    CurvatureConstraint,
    InterpolationSpec,
    SlopeBounds,
    SlopeConstraint,
    project_interpolation,
)
from vertipy.metrics import (
    RunRecord,
    StopRule,
    distance_stats,
    performance_profile,
    relative_proximity_curve,
)

SEED = 20260815

ORACLE_TOL = 1e-3  # agreement with the dense-grid oracle
INVARIANT_TOL = 1e-10  # idempotence and variational inequality
N_INSTANCES = 200


@pytest.fixture
def announce(capsys):
    def _line(label, ok, detail=""):
        with capsys.disabled():
            status = "PASS" if ok else "FAIL"
            print(f"\n[acceptance] {status} {label}" + (f": {detail}" if detail else ""))

    return _line


# ------------------------------------------------------------ fixed instances


def test_splitting_orbit_cycles_with_period_two(announce):
    started = time.perf_counter()
    res = verify.check_dr_cycling()
    elapsed = time.perf_counter() - started
    ok = res.passed and elapsed < 1.0
    announce(
        "product-space splitting orbit cycles with period 2",
        ok,
        f"{res.detail}; {elapsed * 1e3:.0f} ms",
    )
    assert res.tolerance == 1e-12
    assert res.passed, res
    assert elapsed < 1.0


def test_disk_line_instance_separates_anchored_methods(announce):
    res = verify.check_disk_line_gap()
    announce("anchored splitting and Dykstra disagree on the disk/line instance",
             res.passed, res.detail)
    assert res.tolerance == 1e-6
    assert res.passed, res


def test_dykstra_halving_and_admm_finite_landing(announce):
    res = verify.check_dykstra_halving()
    announce("Dykstra halves toward the meeting point, ADMM lands in two rounds",
             res.passed, res.detail)
    assert res.tolerance == 1e-10
    assert res.passed, res


def test_splitting_admm_iterate_pairing(announce):
    res = verify.check_dr_admm_equivalence()
    announce("two-set splitting and ADMM iterates stay paired", res.passed, res.detail)
    assert res.tolerance == 1e-9
    assert res.passed, res


def test_anchored_splitting_collapses_on_subspaces(announce):
    res = verify.check_alternating_collapse()
    announce("anchored splitting collapses to alternating projections on subspaces",
             res.passed, res.detail)
    assert res.tolerance == 1e-9
    assert res.passed, res


# ------------------------------------------------- dense-grid oracle sweeps
#
# Nine closed-form operators, 200 random instances each.  The pair-plane
# sets have lattice-aligned boundaries, so the oracle resolves the nearest
# point itself; the curvature slabs only pin distances (see conftest), so
# those operators are compared through distance identities instead.


def _vargap(x, px, samples):
    # variational inequality <x - Px, c - Px> <= 0 over feasible samples c
    return max(float(np.dot(x - px, c - px)) for c in samples)


def _domgap(x, px, samples):
    # nearest-point dominance ||x - Px|| <= ||x - c|| (nonconvex-safe)
    dpx = float(np.dot(x - px, x - px))
    return max(dpx - float(np.dot(x - c, x - c)) for c in samples)


def _slab_params(bp, cb, i):
    t0, t1 = bp.tau[i], bp.tau[i + 1]
    u = np.array([t1, -(t0 + t1), t0])
    tt = t0 * t1
    return u, float(cb.delta[i] * tt), float(cb.gamma[i] * tt)


def _curvature_instance(rng, n):
    tau = rng.uniform(0.8, 2.0, n - 1)
    bp = Breakpoints(np.concatenate(([0.0], np.cumsum(tau))))
    cb = CurvatureBounds(rng.uniform(0.3, 1.0, n - 2), -rng.uniform(0.3, 1.0, n - 2))
    return bp, cb


def _with_window_s(rng, n, i, u, target):
    """Random profile whose window inner product <u, x[i:i+3]> equals target."""
    y = rng.uniform(-3.0, 3.0, n)
    w = slice(i, i + 3)
    y[w] += ((target - float(u @ y[w])) / float(u @ u)) * u
    return y


def _sweep_interpolation(rng):
    point = inv = 0.0
    for _ in range(N_INSTANCES):
        k = int(rng.integers(1, 3))
        idx = np.sort(rng.choice(2, size=k, replace=False))
        vals = rng.uniform(-3.0, 3.0, k)
        spec = InterpolationSpec(idx, vals)
        x = rng.uniform(-4.0, 4.0, 2)

        p = project_interpolation(x, spec)

        def pred(pts, slack=0.0, idx=idx, vals=vals):
            return np.all(np.abs(pts[:, idx] - vals) <= slack + 1e-12, axis=1)

        point = max(point, float(np.max(np.abs(p - grid_nearest(pred, x)))))
        inv = max(inv, float(np.max(np.abs(project_interpolation(p, spec) - p))))
        samples = []
        for _ in range(3):
            c = rng.uniform(-4.0, 4.0, 2)
            c[idx] = vals
            samples.append(c)
        inv = max(inv, _vargap(x, p, samples))
    return point, inv


def _sweep_slope_pair(rng):
    point = inv = 0.0
    for _ in range(N_INSTANCES):
        al = float(rng.uniform(0.3, 2.5))
        x = rng.uniform(-4.0, 4.0, 2)
        con = pair_set(al)
        p = con.project(x)
        point = max(point, float(np.max(np.abs(p - grid_nearest(stripe_pred(al), x)))))
        inv = max(inv, float(np.max(np.abs(con.project(p) - p))))
        samples = [np.array([t, t + rng.uniform(-al, al)]) for t in rng.uniform(-4, 4, 3)]
        inv = max(inv, _vargap(x, p, samples))
    return point, inv


def _sweep_slope_parity(rng):
    point = inv = 0.0
    for k in range(N_INSTANCES):
        n = 5
        alpha = rng.uniform(0.3, 2.5, n - 1)
        bounds = SlopeBounds(alpha)
        parity = "odd" if k % 2 else "even"
        offset = 0 if parity == "odd" else 1
        x = rng.uniform(-4.0, 4.0, n)

        con = SlopeConstraint(bounds, parity, n)
        p = con.project(x)

        expected = x.copy()
        for i in range(offset, n - 1, 2):
            expected[i : i + 2] = grid_nearest(stripe_pred(alpha[i]), x[i : i + 2])
        point = max(point, float(np.max(np.abs(p - expected))))
        inv = max(inv, float(np.max(np.abs(con.project(p) - p))))
        samples = []
        for _ in range(3):
            c = rng.uniform(-4.0, 4.0, n)
            for i in range(offset, n - 1, 2):
                c[i + 1] = c[i] + rng.uniform(-alpha[i], alpha[i])
            samples.append(c)
        inv = max(inv, _vargap(x, p, samples))
    return point, inv


def _sweep_intrepid_slope(rng):
    point = inv = 0.0
    for k in range(N_INSTANCES):
        al = float(rng.uniform(0.3, 2.0))
        zone = k % 3
        if zone == 0:
            mag = rng.uniform(0.0, 0.97)
        elif zone == 1:
            mag = rng.uniform(1.03, 1.94)
        else:
            mag = rng.uniform(2.06, 3.5)
        d = (1.0 if rng.integers(2) else -1.0) * al * mag
        t = rng.uniform(-3.0, 3.0)
        x = np.array([t, t + d])

        con = pair_set(al)
        p = con.intrepid(x)
        q = intrepid_oracle(stripe_pred(al), stripe_mid_pred(), x)
        point = max(point, float(np.max(np.abs(p - q))))
        inv = max(inv, float(np.max(np.abs(con.intrepid(p) - p))))
    return point, inv


def _sweep_band(rng):
    point = inv = 0.0
    for k in range(N_INSTANCES):
        al = float(rng.uniform(0.6, 2.5))
        be = al * float(rng.uniform(0.15, 0.8))
        zone = k % 3
        if zone == 0:
            mag = rng.uniform(1.03 * be, 0.97 * al)
        elif zone == 1:
            mag = rng.uniform(0.02, 0.97 * be)
        else:
            mag = rng.uniform(1.03 * al, al + 3.0)
        d = (1.0 if rng.integers(2) else -1.0) * mag
        t = rng.uniform(-3.0, 3.0)
        x = np.array([t, t + d])

        con = pair_set(al, be)
        p = con.project(x)
        point = max(point, float(np.max(np.abs(p - grid_nearest(band_pred(al, be), x)))))
        inv = max(inv, float(np.max(np.abs(con.project(p) - p))))
        samples = [
            np.array([t2, t2 + (1.0 if rng.integers(2) else -1.0) * rng.uniform(be, al)])
            for t2 in rng.uniform(-4, 4, 3)
        ]
        inv = max(inv, _domgap(x, p, samples))
    return point, inv


def _sweep_intrepid_band(rng):
    point = inv = 0.0
    for k in range(N_INSTANCES):
        al = float(rng.uniform(1.2, 2.4))
        wide = bool(rng.integers(2))  # wide floor: the deep-inside midline jump exists
        be = al * float(rng.uniform(0.55, 0.75) if wide else rng.uniform(0.15, 0.28))
        half = 0.5 * (al - be)
        outer_jump = 0.5 * (3.0 * al - be)
        inner_jump = 0.5 * (3.0 * be - al)
        zones = ["feasible", "outer_reflect", "outer_jump", "inner_reflect"]
        if inner_jump > 0.08:
            zones.append("inner_jump")
        zone = zones[k % len(zones)]
        if zone == "feasible":
            mag = rng.uniform(1.03 * be, 0.97 * al)
        elif zone == "outer_reflect":
            mag = rng.uniform(al + 0.05 * half, al + 0.95 * half)
        elif zone == "outer_jump":
            mag = rng.uniform(outer_jump + 0.05 * half, outer_jump + 2.0)
        elif zone == "inner_reflect":
            lo = inner_jump + 0.05 * half if inner_jump > 0 else 0.02
            mag = rng.uniform(lo, 0.97 * be)
        else:
            mag = rng.uniform(0.03, inner_jump - 0.05 * half)
        d = (1.0 if rng.integers(2) else -1.0) * mag
        t = rng.uniform(-3.0, 3.0)
        x = np.array([t, t + d])

        con = pair_set(al, be)
        p = con.intrepid(x)
        q = intrepid_oracle(band_pred(al, be), band_mid_pred(al, be), x)
        point = max(point, float(np.max(np.abs(p - q))))
        inv = max(inv, float(np.max(np.abs(con.intrepid(p) - p))))
    return point, inv


def _sweep_curvature_single(rng):
    dist_dev = inv = 0.0
    for k in range(N_INSTANCES):
        n = 3 if k % 2 else 4
        bp, cb = _curvature_instance(rng, n)
        i = int(rng.integers(n - 2))
        u, lo, hi = _slab_params(bp, cb, i)
        x = rng.uniform(-3.0, 3.0, n)
        w = slice(i, i + 3)

        p = on_triple("project", x, i, cb, bp)

        outside = np.delete(np.arange(n), np.arange(i, i + 3))
        assert np.array_equal(p[outside], x[outside])
        s_p = float(u @ p[w])
        assert lo - 1e-9 <= s_p <= hi + 1e-9
        grid = grid_nearest(slab_pred(u, lo, hi), x[w])
        dist_dev = max(
            dist_dev,
            abs(float(np.linalg.norm(x - p)) - float(np.linalg.norm(x[w] - grid))),
        )
        inv = max(inv, float(np.max(np.abs(on_triple("project", p, i, cb, bp) - p))))
        samples = [
            _with_window_s(rng, n, i, u, rng.uniform(lo, hi)) for _ in range(3)
        ]
        inv = max(inv, _vargap(x, p, samples))
    return dist_dev, inv


def _sweep_curvature_block(rng):
    dist_dev = inv = 0.0
    for k in range(N_INSTANCES):
        n = 7
        block = 1 + k % 2
        bp, cb = _curvature_instance(rng, n)
        idx = np.arange(block - 1, n - 2, 3)
        x = rng.uniform(-3.0, 3.0, n)

        con = CurvatureConstraint(cb, bp, block)
        p = con.project(x)

        covered = np.concatenate([np.arange(i, i + 3) for i in idx])
        outside = np.delete(np.arange(n), covered)
        assert np.array_equal(p[outside], x[outside])
        for i in idx:
            u, lo, hi = _slab_params(bp, cb, i)
            w = slice(i, i + 3)
            s_p = float(u @ p[w])
            assert lo - 1e-9 <= s_p <= hi + 1e-9
            grid = grid_nearest(slab_pred(u, lo, hi), x[w])
            dist_dev = max(
                dist_dev,
                abs(float(np.linalg.norm(x[w] - p[w])) - float(np.linalg.norm(x[w] - grid))),
            )
        inv = max(inv, float(np.max(np.abs(con.project(p) - p))))
        samples = []
        for _ in range(3):
            c = rng.uniform(-3.0, 3.0, n)
            for i in idx:
                u, lo, hi = _slab_params(bp, cb, i)
                w = slice(i, i + 3)
                c[w] += ((rng.uniform(lo, hi) - float(u @ c[w])) / float(u @ u)) * u
            samples.append(c)
        inv = max(inv, _vargap(x, p, samples))
    return dist_dev, inv


def _sweep_intrepid_curvature(rng):
    dist_dev = inv = 0.0
    for k in range(N_INSTANCES):
        n = 3
        bp, cb = _curvature_instance(rng, n)
        u, lo, hi = _slab_params(bp, cb, 0)
        width = hi - lo
        half = 0.5 * width
        mid = 0.5 * (lo + hi)
        zone = ("feasible", "reflect_hi", "jump_hi", "reflect_lo", "jump_lo")[k % 5]
        if zone == "feasible":
            target = rng.uniform(lo + 0.03 * width, hi - 0.03 * width)
        elif zone == "reflect_hi":
            target = rng.uniform(hi + 0.05 * half, hi + 0.95 * half)
        elif zone == "jump_hi":
            target = rng.uniform(hi + 1.05 * half, hi + 3.0 * half)
        elif zone == "reflect_lo":
            target = rng.uniform(lo - 0.95 * half, lo - 0.05 * half)
        else:
            target = rng.uniform(lo - 3.0 * half, lo - 1.05 * half)
        x = _with_window_s(rng, n, 0, u, target)
        s_x = float(u @ x)

        p = on_triple("intrepid", x, 0, cb, bp)
        s_p = float(u @ p)
        tol_s = 1e-9 * (1.0 + abs(hi) + abs(lo))

        if zone == "feasible":
            assert np.array_equal(p, x)
        elif zone.startswith("reflect"):
            face = hi if zone == "reflect_hi" else lo
            assert abs(s_p - (2.0 * face - s_x)) <= tol_s  # mirror image in the face
            grid = grid_nearest(slab_pred(u, lo, hi), x)
            dist_dev = max(
                dist_dev,
                abs(float(np.linalg.norm(p - x)) - 2.0 * float(np.linalg.norm(grid - x))),
            )
        else:
            assert abs(s_p - mid) <= tol_s  # jumped onto the midline slab
            grid = grid_nearest(slab_mid_pred(u, lo, hi), x)
            dist_dev = max(
                dist_dev,
                abs(float(np.linalg.norm(p - x)) - float(np.linalg.norm(grid - x))),
            )
        inv = max(inv, float(np.max(np.abs(on_triple("intrepid", p, 0, cb, bp) - p))))
    return dist_dev, inv


def test_operators_match_dense_grid_oracle(announce):
    sweeps = {
        "interpolation": _sweep_interpolation,
        "slope pair": _sweep_slope_pair,
        "slope parity": _sweep_slope_parity,
        "intrepid slope": _sweep_intrepid_slope,
        "curvature single": _sweep_curvature_single,
        "curvature block": _sweep_curvature_block,
        "intrepid curvature": _sweep_intrepid_curvature,
        "nonconvex slope pair": _sweep_band,
        "intrepid nonconvex slope": _sweep_intrepid_band,
    }
    rng = np.random.default_rng(SEED)
    worst_point = worst_inv = 0.0
    failures = []
    for name, sweep in sweeps.items():
        point, inv = sweep(rng)
        worst_point = max(worst_point, point)
        worst_inv = max(worst_inv, inv)
        if point > ORACLE_TOL or inv > INVARIANT_TOL:
            failures.append(f"{name}: oracle {point:.2e}, invariants {inv:.2e}")
    ok = not failures
    announce(
        "9 closed-form operators match the dense-grid oracle",
        ok,
        f"{len(sweeps)} ops x {N_INSTANCES} instances; worst oracle dev "
        f"{worst_point:.1e} (tol {ORACLE_TOL:g}), worst invariant dev "
        f"{worst_inv:.1e} (tol {INVARIANT_TOL:g})",
    )
    assert ok, failures


# ----------------------------------------------------------- batch behavior


def test_feasibility_family_solves_convex_batch(announce):
    problems = probgen.make_batch(0, count=100)
    stop = StopRule(eps=5e-3, k_max=5000)
    started = time.perf_counter()
    fractions = {
        name: sum(run(name, p, stop=stop).converged for p in problems) / len(problems)
        for name in sorted(FEASIBILITY_ALGORITHMS)
    }
    elapsed = time.perf_counter() - started
    ok = all(f >= 0.95 for f in fractions.values()) and elapsed < 300.0
    worst = min(fractions, key=fractions.get)
    announce(
        "every feasibility algorithm solves the seeded convex batch",
        ok,
        f"min solved fraction {fractions[worst]:.2f} ({worst}); "
        f"{len(problems) * len(fractions)} runs in {elapsed:.0f} s",
    )
    assert ok, fractions


@pytest.mark.xfail(
    strict=True,
    reason="known deviation: on nonconvex batches from this generator the "
    "intrepid sweep ends slightly farther from the anchor than plain cyclic "
    "projections; see README, section 'Known deviation'",
)
def test_intrepid_sweep_improves_nonconvex_anchor_distance(announce):
    problems = probgen.make_batch(0, count=100, nonconvex=True)
    stop = StopRule(eps=5e-3, k_max=5000)
    records = [
        run(name, p, stop=stop) for p in problems for name in ("CycP", "CycP+")
    ]
    stats, _ = distance_stats(records, {p.problem_id: p.v for p in problems})
    plain = stats["CycP"]["mean"]
    intrepid = stats["CycP+"]["mean"]
    ok = intrepid < plain
    announce(
        "intrepid sweep lands nearer the anchor on the nonconvex batch",
        ok,
        f"mean anchor distance {intrepid:.4f} (CycP+) vs {plain:.4f} (CycP); "
        "expected direction CycP+ < CycP",
    )
    assert ok


# ------------------------------------------------------------ metric fixtures


def _rec(pid, alg, iterations, converged, trace=(1.0,), final=(0.0, 0.0)):
    return RunRecord(
        problem_id=pid,
        algorithm=alg,
        iterations=iterations,
        converged=converged,
        d_trace=list(trace),
        final=np.asarray(final, dtype=float),
    )


def test_metric_micro_fixtures(announce):
    # profile: A solves in 10, B in 20 -> B's curve steps exactly at kappa = 1
    kappa, rho = performance_profile(
        [_rec("p0", "A", 10, True), _rec("p0", "B", 20, True)]
    )
    profile_ok = np.array_equal(rho["A"], np.ones_like(kappa)) and np.array_equal(
        rho["B"], (kappa >= 1.0).astype(float)
    )

    # proximity curve: mean of d^2 = [1, 0] is -3.0103 dB; d = 0.1 is -20 dB
    _, beta = relative_proximity_curve(
        [_rec("p0", "A", 1, True, trace=[1.0, 1.0]), _rec("p1", "A", 1, True, trace=[1.0, 0.0])]
    )
    curve_ok = abs(beta["A"][1] - 10.0 * np.log10(0.5)) < 1e-10
    _, beta = relative_proximity_curve([_rec("p0", "B", 1, True, trace=[1.0, 0.1])])
    curve_ok = curve_ok and abs(beta["B"][1] + 20.0) < 1e-10

    # distance table: distances 1, 2, 3, 4, 10 against a unit anchor
    records = []
    v_by = {}
    for i, dist in enumerate([1.0, 2.0, 3.0, 4.0, 10.0]):
        v_by[f"p{i}"] = np.array([1.0, 0.0])
        records.append(_rec(f"p{i}", "A", 5, True, final=(1.0 + dist, 0.0)))
    stats, _ = distance_stats(records, v_by)
    s = stats["A"]
    expected = {"min": 1.0, "q1": 2.0, "median": 3.0, "q3": 4.0, "max": 10.0,
                "mean": 4.0, "std": float(np.sqrt(10.0))}
    stats_ok = all(abs(s[key] - val) < 1e-12 for key, val in expected.items())

    ok = profile_ok and curve_ok and stats_ok
    announce(
        "benchmark metrics match hand-computed micro-cases",
        ok,
        f"profile step {profile_ok}, decibel curve {curve_ok}, distance table {stats_ok}",
    )
    assert ok
