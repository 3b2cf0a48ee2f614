import numpy as np
import pytest
from scipy.optimize import brentq

from symcap import bodies as bd
from symcap.orbits import OrbitFrame
from symcap.symcore import matrix_A_gw, matrix_Mt, matrix_S, random_symplectic_matrix

RNG = np.random.default_rng(2024)


def sample_feasible_points(body, count, rng, scale=1.2):
    """Rejection sampling inside an intersection body via its ball factor."""
    r = body.ellipsoid.Q[0, 0] * np.pi if isinstance(body.ellipsoid, bd.CapacityBall) else 1.0
    pts = rng.normal(size=(count, body.dim))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    pts *= (rng.random(count) ** (1.0 / body.dim) * scale * np.sqrt(r / np.pi))[:, None]
    keep = np.array([body.membership(p) for p in pts])
    return pts[keep]


def brentq_general(solver, w, a, b):
    """Reference for the non-uniform KKT branch, one row at a time: the
    multiplier bracketed by doubling and solved by brentq."""
    d, c = solver._d, solver._c
    norm = np.sqrt(a + b)
    if norm == 0.0:
        return 0.0, np.zeros_like(w)
    y0 = w / norm
    if float(np.sum(d * y0 * y0)) <= c * (1.0 + 1e-12):
        return norm, y0

    def residual(mu):
        y = w / (1.0 + mu * d)
        y /= np.linalg.norm(y)
        return float(np.sum(d * y * y)) - c

    lo, hi = 0.0, 1.0
    grow = 0
    while residual(hi) > 0.0 and grow < 200:
        lo, hi = hi, hi * 2.0
        grow += 1
    if residual(hi) > 0.0:
        pos = d > 0
        quad = float(np.sum(w[pos] ** 2 / d[pos]))
        y = np.zeros_like(w)
        y[pos] = w[pos] / d[pos] * np.sqrt(c / quad)
        return float(y @ w), y
    mu = brentq(residual, lo, hi, xtol=1e-15, rtol=1e-14)
    y = w / (1.0 + mu * d)
    y /= np.linalg.norm(y)
    return float(y @ w), y


def non_uniform_body(r, t, rng):
    """A random symplectic image of E(1, r) cut by frame_cylinder(t)."""
    ell = bd.EllipsoidBody.from_radii([1.0, r]).linear_image(
        random_symplectic_matrix(2, rng))
    return bd.IntersectionBody(ell, bd.frame_cylinder(t))


# ---------------------------------------------------------------- balls


def test_ball_support_is_radius_times_norm():
    ball = bd.CapacityBall(2.0, 2)
    u = np.array([3.0, 0.0, 4.0, 0.0])
    assert ball.support(u) == pytest.approx(np.sqrt(2.0 / np.pi) * 5.0, abs=1e-10)


def test_ball_membership_boundary():
    ball = bd.CapacityBall(1.0, 2)
    p = np.zeros(4)
    p[0] = 1.0 / np.sqrt(np.pi)
    assert ball.membership(p)
    assert not ball.membership(1.01 * p)


# ------------------------------------------------------------ ellipsoids


def test_ellipsoid_from_radii_support_and_capacities():
    e = bd.EllipsoidBody.from_radii([1.0, 0.5])
    assert np.allclose(np.sort(e.capacities()), [0.5, 1.0])
    u = np.zeros(4)
    u[2] = 1.0
    assert e.support(u) == pytest.approx(np.sqrt(0.5 / np.pi), abs=1e-10)


def test_ellipsoid_linear_image_capacity_invariance():
    rng = np.random.default_rng(1)
    from symcap.symcore import random_symplectic_matrix
    e = bd.EllipsoidBody.from_radii([1.0, 0.3])
    for _ in range(5):
        M = random_symplectic_matrix(2, rng)
        assert bd.ellipsoid_ehz_oracle(e.linear_image(M)) == pytest.approx(0.3, abs=1e-9)


def test_support_axioms_randomized():
    bodies = [bd.CapacityBall(1.0, 2),
              bd.EllipsoidBody.from_radii([1.0, 0.4]),
              bd.ball_cap_cylinder_intersection(0.5)]
    rng = np.random.default_rng(99)
    for body in bodies:
        U = rng.normal(size=(1000, 4))
        V = rng.normal(size=(1000, 4))
        lam = rng.uniform(0.1, 10.0, size=1000)
        h_u, _ = body.support_batch(U)
        h_v, _ = body.support_batch(V)
        h_lu, _ = body.support_batch(lam[:, None] * U)
        h_uv, _ = body.support_batch(U + V)
        assert np.max(np.abs(h_lu - lam * h_u)) < 1e-8 * max(1.0, np.max(h_lu))
        assert np.all(h_uv <= h_u + h_v + 1e-8)


def test_membership_respects_support_halfspaces():
    body = bd.ball_cap_cylinder_intersection(0.6)
    rng = np.random.default_rng(3)
    pts = sample_feasible_points(body, 4000, rng)
    U = rng.normal(size=(50, 4))
    h, _ = body.support_batch(U)
    for u, hu in zip(U, h):
        assert np.max(pts @ u) <= hu + 1e-9


# ------------------------------------------------------------- cylinders


def test_cylinder_unbounded_direction_raises():
    cyl = bd.frame_cylinder(0.5)
    f = OrbitFrame.standard(0.5)
    with pytest.raises(bd.UnboundedDirectionError):
        cyl.support(f.jn1)
    # bounded in the base plane
    assert cyl.support(f.jv1) == pytest.approx(0.5 / np.sqrt(np.pi), abs=1e-10)


def test_cylinder_stacked_support_raises_on_any_unbounded_row():
    cyl = bd.frame_cylinder(0.5)
    f = OrbitFrame.standard(0.5)
    h, P = cyl.support_batch(np.array([f.jv1, f.jv2, np.zeros(4)]))
    np.testing.assert_allclose(h, [0.5 / np.sqrt(np.pi)] * 2 + [0.0], atol=1e-12)
    assert np.all(P[2] == 0.0)
    with pytest.raises(bd.UnboundedDirectionError, match="unbounded in direction"):
        cyl.support_batch(np.array([f.jv1, f.jn1 + f.jv2]))


def test_cylinder_rejects_full_rank():
    with pytest.raises(ValueError):
        bd.QuadCylinder(np.eye(4), 1.0)


def test_two_membership_characterizations_agree():
    # rank-2 frame form at level t^2 versus the general pulled-back form
    rng = np.random.default_rng(17)
    for t in (0.25, 0.5, 0.8):
        c1 = bd.frame_cylinder(t)
        c2 = bd.aw_cylinder_orbit(t)
        P = rng.normal(size=(10000, 4)) / np.sqrt(np.pi)
        q1 = np.einsum("ij,jk,ik->i", P, c1.C, P) / c1.level
        q2 = np.einsum("ij,jk,ik->i", P, c2.C, P) / c2.level
        assert np.max(np.abs(q1 - q2)) < 1e-10


# ------------------------------------------------- intersection support


def test_intersection_membership_is_conjunction():
    body = bd.ball_cap_cylinder_intersection(0.5)
    rng = np.random.default_rng(5)
    for _ in range(200):
        p = rng.normal(size=4) * 0.4
        assert body.membership(p) == (
            body.ellipsoid.membership(p) and body.cylinder.membership(p))


def test_intersection_support_single_active_constraint():
    # directions along the unconstrained cylinder axes see the ball only
    t = 0.5
    body = bd.ball_cap_cylinder_intersection(t)
    f = OrbitFrame.standard(t)
    h, p = body.support_with_point(f.jn1)
    assert h == pytest.approx(1.0 / np.sqrt(np.pi), abs=1e-12)
    assert body.membership(p, 1e-9)
    # cylinder face direction
    h2, p2 = body.support_with_point(f.jv1)
    assert h2 == pytest.approx(t / np.sqrt(np.pi), abs=1e-12)
    assert body.membership(p2, 1e-9)


def test_intersection_support_vs_sampling_oracle():
    t = 0.5
    body = bd.ball_cap_cylinder_intersection(t)
    f = OrbitFrame.standard(t)
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(1_000_000, 4))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    pts *= (rng.random(len(pts)) ** 0.25 / np.sqrt(np.pi))[:, None]
    feas = np.einsum("ij,jk,ik->i", pts, body.cylinder.C, pts) <= body.cylinder.level
    pts = pts[feas]
    h, _ = body.support_with_point(f.jv1)
    emp = float(np.max(pts @ f.jv1))
    assert emp <= h + 1e-12
    assert h - emp < 1e-3
    for _ in range(10):
        u = rng.normal(size=4)
        hu, pu = body.support_with_point(u)
        assert body.membership(pu, 1e-8)
        assert pu @ u == pytest.approx(hu, abs=1e-9)
        emp = float(np.max(pts @ u))
        assert emp <= hu + 1e-12
        assert hu - emp < 2e-2 * max(1.0, hu)


def test_intersection_support_general_ellipsoid_brentq_path():
    # a symplectic image of E(1, 0.5) has whitened cylinder spectrum
    # (0, 0, 0.387, 1.531): two distinct positive values force the
    # multiplier root solve
    ell = bd.EllipsoidBody.from_radii([1.0, 0.5]).linear_image(
        random_symplectic_matrix(2, np.random.default_rng(4)))
    cyl = bd.frame_cylinder(0.5)
    body = bd.IntersectionBody(ell, cyl)
    assert body._solver._uniform is False
    # feasible points: ellipsoid boundary points inside the cylinder
    y = np.random.default_rng(11).normal(size=(4000, 4))
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    feasible = y @ np.linalg.cholesky(ell.Q).T
    feasible = feasible[[cyl.membership(q, 0.0) for q in feasible]]
    assert len(feasible) > 100
    rng = np.random.default_rng(10)
    for _ in range(25):
        u = rng.normal(size=4)
        h, p = body.support_with_point(u)
        assert body.membership(p, 1e-8)
        assert p @ u == pytest.approx(h, abs=1e-9)
        # dominated by each member's support, and no feasible point beats it
        h_ell = ell.support(u)
        assert h <= h_ell + 1e-9
        assert h >= float(np.max(feasible @ u)) - 1e-9


def test_intersection_support_le_min_of_members():
    t = 0.4
    body = bd.ball_cap_cylinder_intersection(t)
    rng = np.random.default_rng(12)
    for _ in range(100):
        u = rng.normal(size=4)
        h = body.support(u)
        assert h <= body.ellipsoid.support(u) + 1e-9
        try:
            h_cyl = body.cylinder.support(u)
            assert h <= h_cyl + 1e-9
        except bd.UnboundedDirectionError:
            pass


def test_kkt_general_path_agrees_with_closed_form():
    # dual route: force the multiplier root solve on a body whose whitened
    # cylinder spectrum is uniform, where the closed form is exact
    body = bd.ball_cap_cylinder_intersection(0.5)
    solver = body._solver
    rng = np.random.default_rng(14)
    for _ in range(40):
        u = rng.normal(size=4)
        h_closed, _ = solver.solve(u[None, :])
        w, a, b = solver._split(u[None, :])
        h_general, _ = solver._solve_general(w, a, b)
        assert h_general[0] == pytest.approx(h_closed[0], abs=1e-10)


@pytest.mark.parametrize("t", [0.3, 0.5, 0.7])
def test_closed_form_kernel_matches_general_path_on_random_directions(t):
    # the mask-free closed form against the multiplier root solve: same
    # value everywhere, same maximizer wherever it is unique (a > 0)
    solver = bd.ball_cap_cylinder_intersection(t)._solver
    U = np.random.default_rng(15).normal(size=(200, 4))
    h, P = solver.solve(U)
    W, a, b = solver._split(U)
    H, Y = solver._solve_general(W, a, b)
    for i in range(len(U)):
        assert h[i] == pytest.approx(H[i], abs=1e-12)
        if a[i] > 0:
            np.testing.assert_allclose(P[i], Y[i] @ solver._to_point, atol=1e-10)


@pytest.mark.parametrize("t", [0.25, 0.5, 0.75])
def test_closed_form_kernel_on_face_null_and_zero_directions(t):
    # exact face directions can have a = 0 exactly: the null part of the
    # maximizer must then be 0, not 0 * inf
    body = bd.ball_cap_cylinder_intersection(t)
    f = OrbitFrame.standard(t)
    U = np.array([f.jv1, f.jv2, f.jn1, np.zeros(4)])
    h, P = body.support_batch(U)
    assert np.all(np.isfinite(h)) and np.all(np.isfinite(P))
    for p in P:
        assert body.membership(p, 1e-9)
    np.testing.assert_allclose(h, np.einsum("ij,ij->i", P, U), atol=1e-12)
    assert h[3] == 0.0 and np.all(P[3] == 0.0)
    # the rounded gradient rows stay finite too
    h, P = body.support_batch(U, smooth=1e-4)
    assert np.all(np.isfinite(h)) and np.all(np.isfinite(P))


@pytest.mark.parametrize("r, t", [(0.5, 0.5), (0.3, 0.4), (0.7, 0.6), (0.2, 0.8)])
def test_stacked_general_kernel_matches_per_row_brentq(r, t):
    rng = np.random.default_rng(int(100 * r + 10 * t))
    body = non_uniform_body(r, t, rng)
    solver = body._solver
    assert solver._uniform is False
    U = rng.normal(size=(256, 4))
    h, P = body.support_batch(U)
    W, a, b = solver._split(U)
    for i in range(len(U)):
        h_ref, y_ref = brentq_general(solver, W[i], a[i], b[i])
        assert h[i] == pytest.approx(h_ref, abs=1e-12)
        np.testing.assert_allclose(P[i], y_ref @ solver._to_point, rtol=0, atol=1e-12)


def test_stacked_general_kernel_face_rows():
    # rows with an exactly zero null part stay above the cylinder for every
    # multiplier, so they take the face branch, stacked among ordinary rows
    rng = np.random.default_rng(16)
    solver = non_uniform_body(0.5, 0.5, rng)._solver
    k = solver._k
    W = rng.normal(size=(64, 4))
    W[::2, :k] = 0.0
    a = np.einsum("ij,ij->i", W[:, :k], W[:, :k])
    b = np.einsum("ij,ij->i", W[:, k:], W[:, k:])
    h, Y = solver._solve_general(W, a, b)
    assert np.all(np.isfinite(h)) and np.all(np.isfinite(Y))
    for i in range(len(W)):
        h_ref, y_ref = brentq_general(solver, W[i], a[i], b[i])
        assert h[i] == pytest.approx(h_ref, abs=1e-12)
        np.testing.assert_allclose(Y[i], y_ref, rtol=0, atol=1e-12)
    face = Y[::2]
    assert np.all(np.linalg.norm(face, axis=1) <= 1.0)
    residual = np.sum(solver._d * face * face, axis=1) - solver._c
    assert np.all(np.abs(residual) <= 1e-15)


# -------------------------------------------------------- ball fitting


def test_largest_ball_in_ellipsoid_identity_and_gw():
    assert bd.largest_ball_in_ellipsoid(np.eye(4)) == pytest.approx(1.0)
    assert bd.largest_ball_in_ellipsoid(matrix_A_gw(0.8)) == pytest.approx(0.5, abs=1e-12)
    t = 0.28
    expected = t / (1.0 + np.sqrt(1.0 - t * t))
    assert bd.largest_ball_in_ellipsoid(matrix_A_gw(t)) == pytest.approx(expected, abs=1e-12)


def test_largest_ball_in_cylinder_identity_and_flags():
    cyl = bd.aw_cylinder_gw(0.6)
    assert bd.largest_ball_in_cylinder(np.eye(4), cyl) == pytest.approx(0.36, abs=1e-12)
    flat = bd.QuadCylinder(np.zeros((4, 4)), 1.0)
    assert bd.largest_ball_in_cylinder(np.eye(4), flat) == np.inf


def test_largest_ball_in_cylinder_on_a_stack():
    cyl = bd.aw_cylinder_gw(0.6)
    stack = np.array([matrix_S(d1, 1.5 / d1) for d1 in (0.5, 1.0, 2.0)]).reshape(3, 1, 4, 4)
    radii = bd.largest_ball_in_cylinder(stack, cyl)
    assert radii.shape == (3, 1)
    for k in range(3):
        assert radii[k, 0] == bd.largest_ball_in_cylinder(stack[k, 0], cyl)
    flat = bd.QuadCylinder(np.zeros((4, 4)), 1.0)
    assert np.all(bd.largest_ball_in_cylinder(stack, flat) == np.inf)


def test_largest_ball_in_cylinder_vs_membership_sampling():
    rng = np.random.default_rng(21)
    t = 0.5
    cyl = bd.aw_cylinder_gw(t)
    for _ in range(4):
        d1 = rng.uniform(0.5, 2.0)
        d2 = (1.0 + rng.uniform(0.0, 2.0)) / d1
        S = matrix_S(d1, d2)
        r_closed = bd.largest_ball_in_cylinder(S, cyl)
        # binary search on r with membership sampling
        dirs = rng.normal(size=(100_000, 4))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        lo, hi = 0.0, 4.0 * r_closed
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            pts = np.sqrt(mid / np.pi) * dirs @ S.T
            ok = np.all(np.einsum("ij,jk,ik->i", pts, cyl.C, pts) <= cyl.level * (1 + 1e-12))
            lo, hi = (mid, hi) if ok else (lo, mid)
        assert lo == pytest.approx(r_closed, rel=1e-3)


# ----------------------------------------------------------- slices


def test_slice_identity_is_ball():
    s = bd.slice_ellipsoid(bd.EllipsoidBody.from_linear_image(np.eye(4)))
    assert np.allclose(np.sort(s.capacities()), [1.0])
    assert s.dim == 2


def test_slice_of_Mt_image_has_capacity_t():
    for t in (0.3, 0.6):
        s = bd.slice_ellipsoid(bd.EllipsoidBody.from_linear_image(matrix_Mt(t)))
        assert bd.ellipsoid_ehz_oracle(s) == pytest.approx(t, abs=1e-10)
    # in dimension 6 the slice is symplectically E(1, t)
    s6 = bd.slice_ellipsoid(bd.EllipsoidBody.from_linear_image(matrix_Mt(0.4, 3)))
    assert np.allclose(np.sort(s6.capacities()), [0.4, 1.0], atol=1e-10)


def test_slice_of_gw_matrix_is_round_of_capacity_t():
    t = 0.49
    s = bd.slice_ellipsoid(bd.EllipsoidBody.from_linear_image(matrix_A_gw(t)))
    assert np.allclose(np.sort(s.capacities()), [t], atol=1e-10)
    # 6-dimensional version: capacities (1, t)
    s6 = bd.slice_ellipsoid(bd.EllipsoidBody.from_linear_image(matrix_A_gw(t, 3)))
    assert np.allclose(np.sort(s6.capacities()), [t, 1.0], atol=1e-10)


# ------------------------------------------------------------- misc

NAN_4 = np.full((4, 4), np.nan)
RANK_2 = np.diag([1.0, 1.0, 0.0, 0.0])


@pytest.mark.parametrize("build, name", [
    (lambda: bd.EllipsoidBody(NAN_4), "Q"),
    (lambda: bd.EllipsoidBody(np.diag([1.0, 1.0, np.inf, 1.0])), "Q"),
    (lambda: bd.QuadCylinder(NAN_4, 1.0), "C"),
    (lambda: bd.QuadCylinder(RANK_2, np.nan), "level"),
    (lambda: bd.QuadCylinder(RANK_2, np.inf), "level"),
    (lambda: bd.CapacityBall(np.nan, 2), "r"),
    (lambda: bd.EllipsoidBody.from_radii([1.0, np.nan]), "Q"),
    (lambda: bd.EllipsoidBody.from_radii([1.0, np.inf]), "Q"),
    (lambda: bd.EllipsoidBody.from_linear_image(NAN_4), "Q"),
    (lambda: bd.body_from_json({"kind": "ball", "n": 2, "r": float("nan")}), "r"),
], ids=["Q-nan", "Q-inf", "C-nan", "level-nan", "level-inf", "ball-r-nan",
        "radii-nan", "radii-inf", "image-nan", "json-ball-r-nan"])
def test_non_finite_body_parameters_rejected_naming_them(build, name):
    with pytest.raises(ValueError, match="^%s must be finite" % name) as err:
        build()
    assert not isinstance(err.value, np.linalg.LinAlgError)


def test_symplectic_spectrum_on_ball():
    G = np.pi * np.eye(4)
    assert np.allclose(bd.symplectic_spectrum_capacities(G), [1.0, 1.0])


def test_json_round_trip():
    for body in (bd.CapacityBall(1.5, 2),
                 bd.EllipsoidBody.from_radii([1.0, 0.7]),
                 bd.frame_cylinder(0.4),
                 bd.ball_cap_cylinder_intersection(0.6)):
        clone = bd.body_from_json(body.to_json())
        rng = np.random.default_rng(0)
        for _ in range(20):
            u = rng.normal(size=4)
            try:
                assert clone.support(u) == pytest.approx(body.support(u), abs=1e-10)
            except bd.UnboundedDirectionError:
                with pytest.raises(bd.UnboundedDirectionError):
                    clone.support(u)
