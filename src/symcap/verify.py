"""Acceptance criteria as callable checks with measured values.

Each criterion returns a dict {name, passed, measured, tolerance, detail};
run_criteria assembles the report consumed by both the verify command and
the acceptance test module.  Criteria marked quick are the fast oracle
subset.
"""

import time

import numpy as np

from . import bodies as bd
from . import bounds as bn
from . import ehz
from . import orbits as ob
from .symcore import is_symplectic, matrix_A_gw, matrix_A_orbit, matrix_Mt, matrix_S


def _crit(name, passed, measured, tolerance, detail="", seconds=None):
    out = {"name": name, "passed": bool(passed), "measured": measured,
           "tolerance": tolerance, "detail": detail}
    if seconds is not None:
        out["seconds"] = round(seconds, 2)
    return out


def criterion_1_normalization(seed=0):
    t0 = time.time()
    res = ehz.ehz_capacity(bd.CapacityBall(1.0, 2), N=256, restarts=8, seed=seed)
    err = abs(res.capacity - 1.0)
    return _crit("1 ball normalization", err <= 0.02, res.capacity, "1 +/- 2%",
                 f"converged={res.converged}", time.time() - t0)


def criterion_2_ellipsoid_oracle(seed=0):
    t0 = time.time()
    worst = 0.0
    vals = {}
    for t in (0.25, 0.5, 0.75):
        body = bd.EllipsoidBody.from_radii([1.0, t])
        res = ehz.ehz_capacity(body, N=256, restarts=8, seed=seed)
        vals[t] = res.capacity
        worst = max(worst, abs(res.capacity - t) / t)
    return _crit("2 ellipsoid oracle", worst <= 0.02, vals, "t +/- 2%",
                 f"worst relative error {worst:.2e}", time.time() - t0)


def criterion_3_intersection_capacity(seed=0):
    t0 = time.time()
    worst = 0.0
    vals = {}
    for t in (0.25, 0.5, 0.75):
        body = bd.ball_cap_cylinder_intersection(t)
        res = ehz.ehz_capacity(body, N=256, restarts=8, seed=seed)
        vals[t] = res.capacity
        worst = max(worst, abs(res.capacity - t) / t)
    return _crit("3 intersection capacity", worst <= 0.03, vals, "t +/- 3%",
                 f"worst relative error {worst:.2e}", time.time() - t0)


def criterion_4_orbit_census(seed=0):
    t0 = time.time()
    ok = True
    details = []
    for t in (0.25, 0.5, 0.75):
        action, best, _ = ob.min_action_scan(t)
        scan_ok = abs(action - t) <= 1e-3
        plus = ob.glide_orbit(t, ob.PLUS).action
        glide_ok = abs(plus - t) <= 1e-12
        minus_ok = True
        if t < 0.5:
            minus = ob.glide_orbit(t, ob.MINUS).action
            minus_ok = abs(minus - t * (3.0 - 4.0 * t * t)) <= 1e-12
        ok = ok and scan_ok and glide_ok and minus_ok
        details.append(f"t={t}: scan={action:.6f}")
    return _crit("4 orbit census", ok, "; ".join(details),
                 "scan 1e-3, glide closed forms 1e-12", "", time.time() - t0)


def criterion_5_alternating_bound(seed=0):
    t0 = time.time()
    ok = True
    margins = {}
    for t in (0.3, 0.45):
        orbits = ob.find_closed_alternating_orbits(t, k_max=6)
        if not orbits:
            ok = False
            margins[t] = "no closed mixed orbit found"
            continue
        margin = min(o.action for o in orbits) - t
        margins[t] = round(margin, 6)
        ok = ok and margin > 0.0 and all(o.action > t for o in orbits)
    return _crit("5 alternating orbit bound", ok, margins, "action > t strictly",
                 "margins over t per angle", time.time() - t0)


def criterion_6_s2_transit(seed=0):
    t0 = time.time()
    rng = np.random.default_rng(seed)
    worst_norm = 0.0
    worst_corner = 0.0
    for t in (0.3, 0.45, 0.7):
        frame = ob.OrbitFrame.standard(t)
        for _ in range(40):
            rho = rng.uniform(0.05, 0.95) * ob.corner_rho_max(t)
            psi = rng.uniform(0.0, 2.0 * np.pi)
            p0 = ob.corner_state(t, rho, psi, frame)
            orbit = ob.integrate_orbit(p0, frame, max_arcs=2, closure_tol=0.0)
            if orbit.regions[0] != ob.S2:
                continue
            arc = orbit.arcs[0]
            for pt in (arc.start, arc.end):
                z1 = pt[0] ** 2 + pt[1] ** 2
                z2 = pt[2] ** 2 + pt[3] ** 2
                worst_corner = max(worst_corner, abs(z1 + z2 - 1.0 / np.pi))
            dz1 = abs(np.hypot(arc.start[0], arc.start[1]) - np.hypot(arc.end[0], arc.end[1]))
            dz2 = abs(np.hypot(arc.start[2], arc.start[3]) - np.hypot(arc.end[2], arc.end[3]))
            worst_norm = max(worst_norm, dz1, dz2)
    passed = worst_norm <= 1e-7 and worst_corner <= 1e-9
    return _crit("6 S2 transit invariant", passed,
                 {"norm_drift": float(worst_norm), "corner_residual": float(worst_corner)},
                 "1e-7 / 1e-9", "", time.time() - t0)


def criterion_7_limit_experiment(seed=0):
    t0 = time.time()
    K = bd.EllipsoidBody.from_linear_image(matrix_Mt(0.5))
    out = ehz.scaled_limit_experiment(K, [1, 2, 4, 8], seed=seed)
    caps = [r["capacity"] for r in out["rows"]]
    noise = 0.005
    monotone = all(caps[i + 1] <= caps[i] + noise for i in range(len(caps) - 1))
    final_ok = caps[-1] <= 0.5 + 0.03
    return _crit("7 scaled limit experiment", monotone and final_ok,
                 {"capacities": [round(c, 5) for c in caps],
                  "slice": round(out["slice_capacity"], 6)},
                 "non-increasing (within noise), last <= 0.53",
                 f"limit_ok={out['limit_ok']}", time.time() - t0)


def criterion_8_bound_table(seed=0):
    t0 = time.time()
    grid = np.round(np.arange(0.01, 1.0, 0.01), 2)
    fs = np.array([bn.bound_f(t) for t in grid])
    low_ok = bool(np.all(fs >= grid - 0.07))
    f_check_seconds = time.time() - t0
    worst_embed = 0.0
    worst_excess = -np.inf
    worst_geo = 0.0
    # optimality certificate: no point of a 36 x 48 grid in (d1, m = d1 d2 - 1)
    # beats the closed-form optimum
    D1, M = np.meshgrid(np.geomspace(0.15, 6.0, 36), np.linspace(0.0, 12.0, 48), indexing="ij")
    S_grid = matrix_S(D1, (1.0 + M) / D1)
    for t in grid:
        sol = bn.solve_embedding(float(t))
        worst_embed = max(worst_embed, abs(sol.capacity - bn.bound_f(float(t))))
        radii = bn._containment_radii(S_grid, bd.aw_cylinder_gw(float(t)))
        worst_excess = max(worst_excess, float(np.minimum(*radii).max()) - sol.capacity)
        worst_geo = max(worst_geo,
                        abs(bn.bound_simple(float(t)) - bn.bound_simple_geometric(float(t))),
                        abs(bn.bound_inradius(float(t)) - bn.bound_inradius_geometric(float(t))))
    passed = low_ok and worst_embed <= 1e-5 and worst_excess <= 1e-7 and worst_geo <= 1e-9
    return _crit("8 bound table", passed,
                 {"f_ge_t-0.07": low_ok, "worst_embedding_gap": float(worst_embed),
                  "worst_grid_excess": worst_excess,
                  "worst_geometric_gap": float(worst_geo),
                  "f_check_seconds": round(f_check_seconds, 4)},
                 "f >= t-0.07 exact; embedding 1e-5; grid excess 1e-7; geometric 1e-9",
                 "", time.time() - t0)


def criterion_9_linear_search(seed=0, budget=10000):
    t0 = time.time()
    out = bn.linear_search(0.5, budget=budget, seed=seed)
    passed = out["max_seen"] <= bn.bound_f(0.5) + 1e-4
    return _crit("9 linear search remark", passed,
                 {"best": out["best"], "improvements": out["improvements_over_1e-4"]},
                 "no objective above f(0.5)+1e-4",
                 f"budget={budget}", time.time() - t0)


def criterion_10_area_feasibility(seed=0, grid_size=50):
    # The verdict comes from the repaired chain disc <= repaired <= exact.
    # The printed chain disc <= lower <= exact is false wherever 1-h < t^2;
    # its failures are counted and must all lie in that corner.
    t0 = time.time()
    failures = []
    printed_in_corner = 0
    printed_outside = []
    disc_le_exact_failures = []
    for t in np.linspace(0.02, 0.98, grid_size):
        hs = np.linspace(0.0, (1.0 + t) / 2.0, grid_size)
        for row in bn.area_feasibility(float(t), hs, tol=1e-8):
            point = (round(float(t), 4), round(row["h"], 4))
            if not (row["disc_le_repaired"] and row["repaired_le_exact"]):
                failures.append(point)
            if not (row["disc_le_lower"] and row["lower_le_exact"]):
                if 1.0 - row["h"] < t * t:
                    printed_in_corner += 1
                else:
                    printed_outside.append(point)
            if not row["disc_le_exact"]:
                disc_le_exact_failures.append(point)
    passed = not failures and not printed_outside
    detail = (f"repaired chain holds everywhere; printed middle inequality fails at "
              f"{printed_in_corner} points, all with 1-h < t^2" if passed else
              f"repaired chain failures: {len(failures)} (first {failures[:1]}); "
              f"printed failures outside 1-h < t^2: {len(printed_outside)} "
              f"(first {printed_outside[:1]})")
    return _crit("10 area feasibility chain", passed,
                 {"chain_failures": len(failures),
                  "printed_failures_in_corner": printed_in_corner,
                  "printed_failures_outside_corner": len(printed_outside),
                  "disc_le_exact_failures": len(disc_le_exact_failures)},
                 "1e-8", detail, time.time() - t0)


def criterion_11_property_suites(seed=0, samples=1000):
    t0 = time.time()
    rng = np.random.default_rng(seed)
    checks = {}
    # printed matrices stay symplectic over random parameters
    ok = True
    for _ in range(20):
        t = rng.uniform(0.05, 0.95)
        ok &= is_symplectic(matrix_Mt(t), 1e-9)
        ok &= is_symplectic(matrix_A_orbit(t), 1e-9)
        ok &= is_symplectic(matrix_A_gw(t), 1e-9)
        d1 = rng.uniform(0.3, 3.0)
        d2 = (1.0 + rng.uniform(0.0, 5.0)) / d1
        ok &= is_symplectic(matrix_S(d1, d2), 1e-9)
    checks["printed_matrices_symplectic"] = bool(ok)
    # support axioms on a mixed bag of bodies
    bodies = [bd.CapacityBall(1.0, 2), bd.EllipsoidBody.from_radii([1.0, 0.4]),
              bd.ball_cap_cylinder_intersection(0.5)]
    ok = True
    for body in bodies:
        U = rng.normal(size=(samples, 4))
        h, _ = body.support_batch(U)
        lam = rng.uniform(0.1, 10.0, size=samples)
        h_scaled, _ = body.support_batch(U * lam[:, None])
        ok &= bool(np.max(np.abs(h_scaled - lam * h)) <= 1e-8 * np.max(1.0 + np.abs(h_scaled)))
        V = rng.normal(size=(samples, 4))
        hv, _ = body.support_batch(V)
        hsum, _ = body.support_batch(U + V)
        ok &= bool(np.all(hsum <= h + hv + 1e-8))
    checks["support_axioms"] = bool(ok)
    # action consistency on integrated orbits
    ok = True
    for t in (0.3, 0.6):
        frame = ob.OrbitFrame.standard(t)
        for _ in range(5):
            rho = rng.uniform(0.1, 0.9) * ob.corner_rho_max(t)
            orbit = ob.integrate_orbit(ob.corner_state(t, rho, rng.uniform(0, 6.28), frame),
                                       frame, max_arcs=8, closure_tol=0.0)
            arcs_closed = orbit.closed
            # compare the arc-formula action against the dense line integral
            # over the closed-up polygon only when the orbit closed
            if arcs_closed:
                ok &= abs(orbit.action - orbit.line_integral_action()) <= 1e-7
    for branch, t in ((ob.PLUS, 0.3), (ob.MINUS, 0.3), (ob.PLUS, 0.7)):
        orbit = ob.glide_orbit(t, branch)
        ok &= abs(orbit.action - orbit.line_integral_action()) <= 1e-7
    checks["action_consistency"] = bool(ok)
    # determinism of the capacity estimate
    body = bd.EllipsoidBody.from_radii([1.0, 0.5])
    r1 = ehz.ehz_capacity(body, N=64, restarts=2, seed=seed)
    r2 = ehz.ehz_capacity(body, N=64, restarts=2, seed=seed)
    checks["determinism"] = r1.capacity == r2.capacity
    passed = all(checks.values())
    return _crit("11 property suites", passed, checks, "all boolean checks",
                 "", time.time() - t0)


QUICK = [criterion_1_normalization, criterion_2_ellipsoid_oracle,
         criterion_4_orbit_census, criterion_6_s2_transit,
         criterion_9_linear_search, criterion_11_property_suites]

FULL = [criterion_1_normalization, criterion_2_ellipsoid_oracle,
        criterion_3_intersection_capacity, criterion_4_orbit_census,
        criterion_5_alternating_bound, criterion_6_s2_transit,
        criterion_7_limit_experiment, criterion_8_bound_table,
        criterion_9_linear_search, criterion_10_area_feasibility,
        criterion_11_property_suites]


def run_criteria(level: str = "full", seed: int = 0) -> list:
    funcs = QUICK if level == "quick" else FULL
    report = []
    for fn in funcs:
        report.append(fn(seed=seed))
    return report
