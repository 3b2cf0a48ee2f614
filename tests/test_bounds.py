import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from symcap import bodies as bd
from symcap import bounds as bn
from symcap.symcore import random_symplectic_matrix, symplectic_form


# ------------------------------------------------------------- formulas


def test_bound_f_reference_values():
    assert bn.bound_f(0.5) == pytest.approx(0.4428909829, abs=1e-9)
    assert bn.bound_f(0.8) == pytest.approx(np.sqrt(0.55), abs=1e-12)
    assert bn.bound_f(0.5) >= 0.5 - 0.07


def test_bound_f_endpoint_rejection():
    for t in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            bn.bound_f(t)


def test_simple_and_inradius_values():
    assert bn.bound_simple(0.6) == pytest.approx(0.36, abs=1e-15)
    assert bn.bound_inradius(0.8) == pytest.approx(0.5, abs=1e-12)
    # neither simple bound dominates the other
    assert bn.bound_simple(0.8) > bn.bound_inradius(0.8)
    assert bn.bound_inradius(0.3) > bn.bound_simple(0.3)
    assert bn.bound_f(0.8) > max(bn.bound_simple(0.8), bn.bound_inradius(0.8))


def test_geometric_rederivations_match_closed_forms():
    for t in np.linspace(0.05, 0.95, 19):
        assert bn.bound_simple_geometric(float(t)) == pytest.approx(
            bn.bound_simple(float(t)), abs=1e-9)
        assert bn.bound_inradius_geometric(float(t)) == pytest.approx(
            bn.bound_inradius(float(t)), abs=1e-9)


def test_bound_f_keeps_precision_down_to_tiny_t():
    # the printed form cancels for small t; the evaluated form must not
    for t in np.geomspace(1e-12, 0.99, 200):
        f = bn.bound_f(float(t))
        assert 0.0 < f < t
        assert f >= max(bn.bound_simple(float(t)), bn.bound_inradius(float(t)))
        if t >= 0.05:
            printed = np.sqrt(2.0 * (1.0 / t**2 - 1.0) * (np.sqrt(1.0 - t * t) - 1.0) + 1.0)
            assert f == pytest.approx(printed, abs=1e-12)


def test_f_between_bounds_on_grid():
    ts = np.arange(0.01, 1.0, 0.01)
    for t in ts:
        f = bn.bound_f(float(t))
        assert f >= t - 0.07
        assert f < t
        assert f >= max(bn.bound_simple(float(t)), bn.bound_inradius(float(t))) - 1e-12


# ------------------------------------------------------------ embedding


def test_solve_embedding_reaches_f():
    for t in (0.1, 0.35, 0.5, 0.75, 0.9):
        sol = bn.solve_embedding(t)
        assert sol.capacity == pytest.approx(bn.bound_f(t), abs=1e-5)
        assert abs(sol.r_ball - sol.r_cyl) < 1e-8
        assert abs(sol.singular_values[0] - sol.singular_values[1]) < 1e-8


def test_solve_embedding_identity_point_is_simple_bound():
    t = 0.5
    cyl = bd.aw_cylinder_gw(t)
    r_ball, r_cyl = bn._containment_radii(np.eye(4), cyl)
    assert min(r_ball, r_cyl) == pytest.approx(t * t, abs=1e-12)
    assert r_ball == pytest.approx(1.0, abs=1e-12)


def test_solve_embedding_dominates_both_simple_bounds():
    for t in (0.2, 0.5, 0.8):
        sol = bn.solve_embedding(t)
        assert sol.capacity >= bn.bound_inradius(t) - 1e-6
        assert sol.capacity >= bn.bound_simple(t) - 1e-6


@pytest.mark.parametrize("t", [0.1, 0.5, 0.6, 0.64, 0.68, 0.9])
def test_solve_embedding_orbit_cylinder_matches(t):
    sol = bn.solve_embedding(t, cylinder="orbit")
    assert sol.capacity == pytest.approx(bn.bound_f(t), abs=1e-8)
    assert sol.d1 == pytest.approx(sol.d2, abs=1e-12)
    with pytest.raises(ValueError):
        bn.solve_embedding(t, cylinder="bogus")


def test_containment_radii_on_a_stack_match_scalar_calls():
    cyl = bd.aw_cylinder_gw(0.4)
    d1 = np.array([0.4, 1.0, 2.5])
    stack = bn.matrix_S(d1, 2.0 / d1)
    r_ball, r_cyl = bn._containment_radii(stack, cyl)
    assert r_ball.shape == r_cyl.shape == (3,)
    for k in range(3):
        assert (r_ball[k], r_cyl[k]) == bn._containment_radii(stack[k], cyl)


@pytest.mark.parametrize("cylinder", ["gw", "orbit"])
@pytest.mark.parametrize("t", [0.1, 0.5, 0.9])
def test_solve_embedding_is_a_local_maximum(t, cylinder):
    # random (d1, m = d1 d2 - 1) near the closed-form point never do better
    sol = bn.solve_embedding(t, cylinder)
    cyl = bd.aw_cylinder_gw(t) if cylinder == "gw" else bd.aw_cylinder_orbit(t)
    rng = np.random.default_rng(3)
    x0 = np.array([sol.d1, sol.d1 * sol.d2 - 1.0])
    for rel in (1e-2, 1e-4):
        d1, m = (x0 * (1.0 + rel * rng.uniform(-1.0, 1.0, size=(1000, 2)))).T
        vals = np.minimum(*bn._containment_radii(bn.matrix_S(d1, (1.0 + m) / d1), cyl))
        assert vals.max() <= sol.capacity + 1e-12


# ---------------------------------------------------------- linear search


def test_linear_search_budget_zero_is_family_value():
    out = bn.linear_search(0.5, budget=0, seed=3)
    assert out["best"] == out["family_value"]
    assert out["best_is_family"]


def test_linear_search_small_budget_no_improvement():
    out = bn.linear_search(0.5, budget=500, seed=3)
    assert out["max_seen"] <= bn.bound_f(0.5) + 1e-4
    assert out["improvements_over_1e-4"] == 0
    # nothing beats the upper bound t itself
    assert out["max_seen"] <= 0.5 + 1e-9


def test_linear_search_matches_scalar_sampler_loop(monkeypatch):
    # a family value below most samples exercises every counter
    monkeypatch.setattr(bn, "solve_embedding", lambda t: SimpleNamespace(capacity=0.25))
    out = bn.linear_search(0.5, budget=400, seed=9)
    cyl = bd.aw_cylinder_gw(0.5)
    rng = np.random.default_rng(9)
    vals = [min(bn._containment_radii(random_symplectic_matrix(2, rng), cyl))
            for _ in range(400)]
    assert out["max_seen"] == out["best"] == pytest.approx(max(vals), abs=1e-14)
    assert out["best_is_family"] is False
    assert out["improvements_over_1e-4"] == sum(v > 0.25 + 1e-4 for v in vals) > 0


@pytest.mark.parametrize("budget", [10.0, -1, "100", None])
def test_linear_search_rejects_bad_budget(budget):
    with pytest.raises(ValueError, match="budget"):
        bn.linear_search(0.5, budget=budget)


# ------------------------------------------------------------ subspaces


def test_projection_subspaces_orthogonality():
    for t in (0.3, 0.7):
        sub = bn.projection_subspaces(t, 2)
        n1, n2 = sub["normals"]
        for v in sub["E"]:
            assert abs(v @ n1) < 1e-10
            assert abs(v @ n2) < 1e-10
        for v in sub["E"]:
            for w in sub["E_omega"]:
                assert abs(symplectic_form(v, w)) < 1e-10
        for v in sub["E_omega"]:
            for w in sub["E_omega_perp"]:
                assert abs(v @ w) < 1e-10


def test_projection_subspace_printed_vectors():
    t = 0.7
    sub = bn.projection_subspaces(t, 2)
    assert np.allclose(sub["E_omega_perp"][0], [1.0, 0.0, 0.0, 0.0])
    assert np.allclose(sub["E_omega_perp"][1], [0.0, t, 0.0, np.sqrt(1 - t * t)])


def test_projected_slice_parametrization_and_ball():
    t = 0.55
    n = 2
    ps = bn.projected_slice(t, n)
    sub = ps["subspaces"]
    rng = np.random.default_rng(5)
    w1, w2 = sub["E_omega_perp"]
    u1, u2 = sub["E"]
    for _ in range(1000):
        lam = rng.normal(size=2)
        lam /= max(1.0, np.sqrt(np.pi) * np.linalg.norm(lam))
        point = lam[0] * u1 + lam[1] * u2          # in E cap B^{2n}(1)
        proj = (point @ w1) * w1 + (point @ w2) * w2
        assert np.allclose(proj, ps["ambient_point"](lam), atol=1e-10)
    assert np.allclose(ps["semiaxes"], [t / np.sqrt(np.pi)] * 2)
    assert ps["contains_ball_capacity"] == pytest.approx(t * t)
    # pullback consistency: parametrized points stay inside the unit ball
    for _ in range(100):
        lam = rng.normal(size=2)
        lam /= np.sqrt(np.pi) * np.linalg.norm(lam) / rng.uniform(0.0, 1.0)
        assert np.pi * np.sum(ps["ambient_point"](lam) ** 2) <= 1.0 + 1e-9


# ------------------------------------------------------------- areas


_GL_X, _GL_W = np.polynomial.legendre.leggauss(32)


def area_quadrature(t, h):
    """Independent oracle for area_exact_Sh: the right half of S_h as an
    integral over y = rho sin(th), rho = sqrt((1-h)/pi), of the width
    min(ellipse, circle), split at the ellipse-circle crossing th* and
    summed by 32-node Gauss-Legendre on each piece; h a scalar or an array."""
    p = t / np.sqrt(np.pi)
    q = 1.0 / np.sqrt(np.pi)
    h = np.asarray(h, dtype=float)
    a = np.maximum(1.0 - h, 0.0)
    rho = np.sqrt(a / np.pi)
    # sin^2 th*, clipped to 0 where the disc lies inside the ellipse (rho <= p)
    s2 = q * q * (rho * rho - p * p) / (np.maximum(rho, p) ** 2 * (q * q - p * p))
    th_star = np.arcsin(np.sqrt(np.clip(s2, 0.0, 1.0)))
    # nodes (..., piece, node) on [0, th*] and [th*, pi/2]
    lo = np.stack([np.zeros_like(th_star), th_star], axis=-1)[..., None]
    hi = np.stack([th_star, np.full_like(th_star, 0.5 * np.pi)], axis=-1)[..., None]
    half = 0.5 * (hi - lo)
    th = lo + half * (1.0 + _GL_X)
    r = rho[..., None, None]
    cos = np.cos(th)
    width = np.minimum(p * np.sqrt(1.0 - (r / q * np.sin(th)) ** 2), r * cos)
    return 0.5 * a + 2.0 * np.sum(half * _GL_W * r * cos * width, axis=(-2, -1))


def test_area_exact_matches_quadrature_and_sector_oracles():
    rng = np.random.default_rng(8)
    for _ in range(40):
        t = rng.uniform(0.05, 0.95)
        h = rng.uniform(0.0, (1.0 + t) / 2.0)
        val = bn.area_exact_Sh(t, h)
        assert isinstance(val, float)
        assert val == pytest.approx(bn.area_exact_Sh_sectors(t, h), abs=1e-14)
    # criterion 10's 50x50 grid, one array call per t
    for t in np.linspace(0.02, 0.98, 50):
        hs = np.linspace(0.0, (1.0 + t) / 2.0, 50)
        vals = bn.area_exact_Sh(float(t), hs)
        assert vals.shape == hs.shape
        sect_vals = [bn.area_exact_Sh_sectors(float(t), float(h)) for h in hs]
        assert np.max(np.abs(vals - sect_vals)) <= 1e-14
        assert np.max(np.abs(vals - area_quadrature(float(t), hs))) <= 1e-14


@pytest.mark.parametrize("t", [0.05, 0.3, 0.5, 0.6, 0.75, 0.9, 0.98])
def test_area_exact_at_its_case_boundaries(t):
    top = (1.0 + t) / 2.0
    # h = 0: all of R, the left half-disc and the right half-ellipse
    assert bn.area_exact_Sh(t, 0.0) == pytest.approx(top, abs=1e-15)
    # h = (1+t)/2, the top of the range
    assert bn.area_exact_Sh(t, top) == pytest.approx(bn.area_exact_Sh_sectors(t, top), abs=1e-14)
    assert bn.area_exact_Sh(t, top) == pytest.approx(area_quadrature(t, top), abs=1e-14)
    if t >= 0.5:
        # 1-h = t^2 lies in the range: the disc passes through the
        # ellipse's vertex, and above it the disc lies inside the ellipse
        assert bn.area_exact_Sh(t, 1.0 - t * t) == pytest.approx(t * t, abs=1e-15)
        assert bn.area_exact_Sh(t, top) == pytest.approx(1.0 - top, abs=1e-15)


@pytest.mark.parametrize("t", [0.02, 0.3, 0.5, 0.8, 0.98])
def test_area_exact_non_increasing_in_h(t):
    vals = bn.area_exact_Sh(t, np.linspace(0.0, (1.0 + t) / 2.0, 20_001))
    assert np.all(np.diff(vals) <= 0.0)


def test_area_functions_share_one_h_range():
    t = 0.5
    top = (1.0 + t) / 2.0
    for h in (-1e-12, top + 1e-12):
        bn.area_exact_Sh(t, h)
        bn.area_exact_Sh(t, np.array([0.1, h]))
        bn.area_feasibility(t, [0.1, h])
    assert bn.area_exact_Sh(t, -1e-13) == bn.area_feasibility(t, [-1e-13])[0]["exact_area"] == top
    for h in (-1e-11, top + 1e-11):
        with pytest.raises(ValueError, match="outside"):
            bn.area_exact_Sh(t, h)
        with pytest.raises(ValueError, match="outside"):
            bn.area_feasibility(t, [0.1, h])


def test_area_exact_monte_carlo_spot_check():
    t, h = 0.5, 0.3
    rng = np.random.default_rng(9)
    pts = rng.uniform(-1, 1, size=(400_000, 2)) / np.sqrt(np.pi)
    p_ax, q_ax = t / np.sqrt(np.pi), 1.0 / np.sqrt(np.pi)
    rho = np.sqrt((1 - h) / np.pi)
    inside_d = np.sum(pts ** 2, axis=1) <= rho * rho
    inside_e = (pts[:, 0] / p_ax) ** 2 + (pts[:, 1] / q_ax) ** 2 <= 1.0
    in_R = inside_d & ((pts[:, 0] <= 0) | inside_e)
    mc = in_R.mean() * (2.0 / np.sqrt(np.pi)) ** 2
    assert bn.area_exact_Sh(t, h) == pytest.approx(mc, abs=5e-3)


def test_area_feasibility_rows_and_examples():
    rows = bn.area_feasibility(0.5, [0.0, 0.3, 0.75])
    r0, r3, rm = rows
    # h = 0: disc area equals the bound exactly
    assert r0["disc_area"] == pytest.approx(r0["lower_bound"], abs=1e-12)
    # printed example values at t = 0.5, h = 0.3
    assert r3["lower_bound"] == pytest.approx(0.35 + 0.25 * np.sqrt(0.7), abs=1e-12)
    assert r3["disc_area"] == pytest.approx(0.45, abs=1e-12)
    assert r3["disc_le_lower"] and r3["lower_le_exact"]
    # where 1-h >= t^2 the repaired bound is the printed bound, bit for bit
    assert r3["repaired_bound"] == r3["lower_bound"]
    # h at the top of the range: disc area 0
    assert rm["disc_area"] == pytest.approx(0.0, abs=1e-12)
    assert rm["disc_le_lower"]


def test_area_feasibility_chain_holds_where_disc_not_inside_ellipse():
    # the printed intermediate bound is valid whenever 1-h >= t^2
    for t in (0.3, 0.6, 0.9):
        hs = np.linspace(0.0, min(1.0 - t * t, (1 + t) / 2.0), 25)
        for row in bn.area_feasibility(t, hs):
            assert row["disc_le_lower"]
            assert row["lower_le_exact"]


def test_area_feasibility_middle_inequality_fails_in_corner():
    # for 1-h < t^2 the inscribed comparison ellipse leaves the disc and
    # the printed bound overshoots the exact area; the end-to-end
    # feasibility disc <= exact still holds, and the repaired bound, with
    # the half-ellipse clipped to D(1-h), is the exact area 1-h
    row = bn.area_feasibility(0.9, [0.95])[0]
    assert not row["lower_le_exact"]
    assert row["disc_le_exact"]
    assert row["exact_area"] == pytest.approx(0.05, abs=1e-8)
    assert row["repaired_bound"] == pytest.approx(0.05, abs=1e-8)
    assert row["disc_le_repaired"] and row["repaired_le_exact"]
    with pytest.raises(AssertionError):
        bn.area_feasibility(0.9, [0.95], strict=True)


def test_area_feasibility_strict_raises_under_optimize_flag():
    # python -O strips assert statements; strict mode must still raise
    env = dict(os.environ, PYTHONPATH=str(Path(bn.__file__).parents[1]))
    code = ("from symcap import bounds\n"
            "try:\n"
            "    bounds.area_feasibility(0.9, [0.95], strict=True)\n"
            "except AssertionError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n")
    assert subprocess.run([sys.executable, "-O", "-c", code], env=env).returncode == 0


@pytest.mark.parametrize("t, h", [(0.5, np.nan), (0.5, np.inf), (np.nan, 0.2), (-np.inf, 0.2)])
def test_area_functions_reject_non_finite_input(t, h):
    with pytest.raises(ValueError, match="must be finite"):
        bn.area_exact_Sh(t, h)
    with pytest.raises(ValueError, match="must be finite"):
        bn.area_feasibility(t, [0.1, h])


def test_area_feasibility_h_range_validation():
    with pytest.raises(ValueError):
        bn.area_feasibility(0.5, [0.9])


# --------------------------------------------------------- family bound


def test_family_upper_bound_prefactor_limits():
    t, L = 0.5, 8.0
    small = bn.family_upper_bound(t, 1e-9, L, N=96, restarts=2, seed=0)
    assert small["value"] == pytest.approx(small["capacity_estimate"], rel=1e-6)
    bigger = bn.family_upper_bound(t, 1e-3, L, N=96, restarts=2, seed=0)
    assert bigger["value"] > small["value"]
    assert small["capacity_estimate"] == pytest.approx(small["capacity_oracle"], rel=0.02)


def test_family_upper_bound_validation():
    with pytest.raises(ValueError):
        bn.family_upper_bound(0.5, -1.0, 8.0)
    with pytest.raises(ValueError):
        bn.family_upper_bound(0.5, 0.1, 1.0)


def test_schedule_family_upper_bound_meets_delta():
    out = bn.schedule_family_upper_bound(0.5, 0.05, seed=0)
    assert out["value"] <= 0.55
    assert out["eps"] > 0 and out["L"] > 1


# -------------------------------------------------------------- table


def test_bound_table_row_values_and_invariants():
    table = bn.BoundTable.on_grid([0.5])
    row = next(iter(table.rows()))
    assert row == pytest.approx((0.5, 0.25, 0.26794919243, 0.44289098287, 0.5), abs=1e-9)
    grid = np.arange(0.01, 1.0, 0.01)
    table = bn.BoundTable.on_grid(grid)
    for t, b2, bi, f, up in table.rows():
        assert b2 <= up and bi <= up and f <= up + 1e-12
        assert f >= t - 0.07


def test_bound_table_csv_header_and_svg_polylines():
    table = bn.BoundTable.on_grid([0.2, 0.5, 0.8])
    csv = table.to_csv()
    assert csv.splitlines()[0] == "t,bound_t2,bound_inradius,bound_f,upper_t"
    assert len(csv.splitlines()) == 4
    svg = table.to_svg()
    assert svg.count("<polyline") == 4
    assert svg.startswith("<svg")


def test_bound_table_rejects_bad_grid():
    with pytest.raises(ValueError):
        bn.BoundTable.on_grid([0.0, 0.5])
