import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from symcap import orbits as ob
from symcap.symcore import apply_J, symplectic_form


@pytest.fixture(scope="module")
def frame_half():
    return ob.OrbitFrame.standard(0.5)


# --------------------------------------------------------------- frame


def test_frame_orthonormal_and_skew_products():
    for t in (0.1, 0.5, 0.9):
        f = ob.OrbitFrame.standard(t)
        B = np.column_stack([f.v1, f.v2, f.n1, f.n2])
        assert np.max(np.abs(B.T @ B - np.eye(4))) < 1e-10
        assert f.v2 @ f.jv1 == pytest.approx(t, abs=1e-10)
        assert f.v1 @ f.jv2 == pytest.approx(-t, abs=1e-10)


def test_oblique_coordinates_invert(frame_half):
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = rng.normal(size=4)
        a = frame_half.oblique_coords(p)
        assert np.allclose(frame_half.from_oblique_coords(a), p, atol=1e-10)
        x = frame_half.frame_coords(p)
        assert np.allclose(frame_half.from_frame_coords(x), p, atol=1e-12)


def test_oblique_matches_basis_solve(frame_half):
    rng = np.random.default_rng(1)
    B = np.column_stack([frame_half.v1, frame_half.v2, frame_half.jn1, frame_half.jn2])
    for _ in range(20):
        p = rng.normal(size=4)
        assert np.allclose(frame_half.oblique_coords(p), np.linalg.solve(B, p), atol=1e-10)


# -------------------------------------------------------- classification


def test_classify_sphere_cylinder_corner(frame_half):
    t = 0.5
    # pure sphere point: x3 = x4 = 0
    p = frame_half.from_frame_coords(np.array([1.0 / np.sqrt(np.pi), 0.0, 0.0, 0.0]))
    assert ob.classify_boundary_point(p, frame_half) == ob.S1
    # cylinder wall strictly inside the ball
    p2 = frame_half.from_frame_coords(np.array([0.1, 0.0, t / np.sqrt(np.pi), 0.0]))
    assert ob.classify_boundary_point(p2, frame_half) == ob.S2
    # corner: both active
    x12 = np.sqrt((1.0 - t * t) / np.pi)
    p3 = frame_half.from_frame_coords(np.array([x12, 0.0, t / np.sqrt(np.pi), 0.0]))
    assert ob.classify_boundary_point(p3, frame_half) == ob.CORNER
    with pytest.raises(ob.OffBoundaryError):
        ob.classify_boundary_point(np.zeros(4), frame_half)


def test_classify_e_x1_point_high_t():
    # the sphere point e_{x1}/sqrt(pi) has frame form (1+t)/2, which
    # exceeds t^2 for every t < 1: the point lies outside the cylinder
    f = ob.OrbitFrame.standard(0.9)
    p = np.array([1.0 / np.sqrt(np.pi), 0.0, 0.0, 0.0])
    value = np.pi * f.cylinder_form(p)
    assert value == pytest.approx((1.0 + 0.9) / 2.0, abs=1e-12)
    assert value > 0.9 ** 2
    with pytest.raises(ob.OffBoundaryError):
        ob.classify_boundary_point(p, f)


# ---------------------------------------------------------- directions


def test_characteristic_direction_s1_is_Jp_and_omega_orthogonal(frame_half):
    p = frame_half.from_frame_coords(np.array([1.0 / np.sqrt(np.pi), 0.0, 0.0, 0.0]))
    d = ob.characteristic_direction(p, frame_half)
    assert np.allclose(d, apply_J(p))
    # omega(d, w) = 0 for tangent w: tangent space = p-orthogonal complement
    rng = np.random.default_rng(3)
    for _ in range(10):
        w = rng.normal(size=4)
        w -= (w @ p) * p / (p @ p)
        assert abs(symplectic_form(d, w)) < 1e-10


def test_characteristic_direction_s2_preserves_oblique_tail(frame_half):
    p = frame_half.from_frame_coords(np.array([0.1, -0.05, 0.5 / np.sqrt(np.pi), 0.0]))
    assert ob.classify_boundary_point(p, frame_half) == ob.S2
    d = ob.characteristic_direction(p, frame_half)
    # finite-difference flow step keeps (a3, a4) fixed to first order
    eps = 1e-6
    a0 = frame_half.oblique_coords(p)
    a1 = frame_half.oblique_coords(p + eps * d)
    assert np.max(np.abs(a1[2:] - a0[2:])) < 1e-9


def test_corner_cone_contains_tangent_on_glide(frame_half):
    orbit = ob.glide_orbit(0.5, ob.PLUS)
    p = orbit.arcs[0].start
    g1, g2 = ob.characteristic_direction(p, frame_half)
    # on the glide locus the S2 generator is tangent to both constraints
    assert abs(p @ g2) < 1e-10
    nW = ob.cylinder_normal(p, frame_half)
    assert abs(nW @ g2) < 1e-10


# -------------------------------------------------------------- glides


def test_glide_orbit_actions_closed_forms():
    for t in (0.1, 0.3, 0.45):
        plus = ob.glide_orbit(t, ob.PLUS)
        assert plus.action == pytest.approx(t, abs=1e-12)
        minus = ob.glide_orbit(t, ob.MINUS)
        assert minus.action == pytest.approx(t * (3.0 - 4.0 * t * t), abs=1e-12)
    assert ob.glide_orbit(0.3, ob.MINUS).action == pytest.approx(0.792, abs=1e-12)
    plus7 = ob.glide_orbit(0.7, ob.PLUS)
    assert plus7.action == pytest.approx(0.7, abs=1e-12)


def test_glide_minus_range_restriction():
    with pytest.raises(ValueError):
        ob.glide_orbit(0.6, ob.MINUS)
    with pytest.raises(ValueError):
        ob.glide_orbit(0.5, ob.MINUS)


def test_glide_orbits_stay_on_corner_stratum():
    for t, branch in ((0.3, ob.PLUS), (0.3, ob.MINUS), (0.8, ob.PLUS)):
        orbit = ob.glide_orbit(t, branch)
        f = orbit.frame
        pts = orbit.sample_points(2048)
        sphere = np.abs(np.pi * np.sum(pts * pts, axis=1) - 1.0)
        cyl = np.abs(np.pi * ((pts @ f.jv1) ** 2 + (pts @ f.jv2) ** 2) - t * t)
        assert sphere.max() < 1e-9
        assert cyl.max() < 1e-9


def test_glide_minus_velocity_ratio():
    # beta/alpha = 1/(2 t^2) - 2 reproduces the minus-branch cone combination
    t = 0.3
    orbit = ob.glide_orbit(t, ob.MINUS)
    f = orbit.frame
    p = orbit.arcs[0].start
    eps = 1e-7
    vel = (ob.glide_minus_flow(p, eps, f) - p) / eps
    alpha_beta = np.linalg.lstsq(
        np.column_stack([apply_J(p), apply_J(ob.cylinder_normal(p, f))]),
        vel, rcond=None)[0]
    ratio = alpha_beta[1] / alpha_beta[0]
    assert ratio == pytest.approx(1.0 / (2 * t * t) - 2.0, rel=1e-5)
    assert alpha_beta[0] > 0 and alpha_beta[1] > 0


def test_glide_actions_match_line_integral():
    for t, branch in ((0.3, ob.PLUS), (0.3, ob.MINUS), (0.7, ob.PLUS)):
        orbit = ob.glide_orbit(t, branch)
        assert orbit.line_integral_action() == pytest.approx(orbit.action, abs=1e-7)


# ------------------------------------------------------------ hopf areas


def test_hopf_projection_area_closed_forms(frame_half):
    t = 0.5
    plus = ob.glide_orbit(t, ob.PLUS)
    p = plus.arcs[0].start
    assert ob.hopf_projection_area(p, frame_half) == pytest.approx(t, abs=1e-12)
    # the area-t ellipse encloses the radius-t/sqrt(pi) disc of area t^2
    assert t > t * t
    # minus branch at t = 0.3
    t2 = 0.3
    f2 = ob.OrbitFrame.standard(t2)
    minus = ob.glide_orbit(t2, ob.MINUS)
    area = ob.hopf_projection_area(minus.arcs[0].start, f2)
    assert area == pytest.approx(t2 * (1.0 - 2.0 * t2 * t2), abs=1e-12)
    assert area > t2 * t2
    # zero-area locus
    z = np.sqrt((1.0 - t) / (2.0 * np.pi))
    p0 = np.array([z, 0.0, np.sqrt(max(1.0 / np.pi - z * z, 0.0)), 0.0])
    assert ob.hopf_projection_area(p0, frame_half) == pytest.approx(0.0, abs=1e-12)


def hopf_projection_shoelace(p, frame, m=20000):
    """Sampled-shadow oracle for hopf_projection_area."""
    theta = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
    pts = ob.s1_flow(np.asarray(p, dtype=float), theta)
    x = pts @ frame.jv1
    y = pts @ frame.jv2
    return 0.5 * abs(float(np.sum(x * np.roll(y, -1) - y * np.roll(x, -1))))


def test_hopf_projection_area_vs_shoelace(frame_half):
    rng = np.random.default_rng(9)
    for _ in range(10):
        p = rng.normal(size=4)
        p /= np.linalg.norm(p) * np.sqrt(np.pi)
        closed = ob.hopf_projection_area(p, frame_half)
        sampled = hopf_projection_shoelace(p, frame_half)
        assert sampled == pytest.approx(closed, abs=1e-6 + 1e-4 * closed)


# ------------------------------------------------------- transit norms


def test_s2_transit_norms_values_and_sum():
    z1, z2 = ob.s2_transit_norms(0.0, 0.0, 0.5)
    assert z1 == pytest.approx(1.5 / (2 * np.pi), abs=1e-12)
    assert z2 == pytest.approx(0.5 / (2 * np.pi), abs=1e-12)
    rng = np.random.default_rng(11)
    for _ in range(50):
        t = rng.uniform(0.1, 0.9)
        rho = rng.uniform(0.0, 0.99) * ob.corner_rho_max(t)
        a3 = rho * np.cos(0.3)
        a4 = rho * np.sin(0.3)
        z1, z2 = ob.s2_transit_norms(a3, a4, t)
        assert z1 + z2 == pytest.approx(1.0 / np.pi, abs=1e-12)
        assert z2 - (1.0 - t) / (2 * np.pi) == pytest.approx(
            t * (a3 ** 2 + a4 ** 2) / 2.0, abs=1e-12)
    with pytest.raises(ValueError):
        ob.s2_transit_norms(10.0, 0.0, 0.5)


def test_transit_norm_preservation_along_integrated_arcs():
    rng = np.random.default_rng(13)
    for t in (0.3, 0.6):
        f = ob.OrbitFrame.standard(t)
        for _ in range(20):
            rho = rng.uniform(0.05, 0.95) * ob.corner_rho_max(t)
            p0 = ob.corner_state(t, rho, rng.uniform(0, 2 * np.pi), f)
            orbit = ob.integrate_orbit(p0, f, max_arcs=2, closure_tol=0.0)
            arc = orbit.arcs[0]
            assert arc.region == ob.S2
            for i in range(2):
                start_norm = np.hypot(arc.start[2 * i], arc.start[2 * i + 1])
                end_norm = np.hypot(arc.end[2 * i], arc.end[2 * i + 1])
                assert abs(start_norm - end_norm) < 1e-7


# ----------------------------------------------------------- integration


def first_upward_root_reference(fun, k):
    """First s > 0 where fun = A + B cos ks + C sin ks crosses zero upward,
    with A, B, C read off fun at s = 0, pi/2k and pi/k; None without one."""
    f0, f1, f2 = fun(0.0), fun(0.5 * np.pi / k), fun(np.pi / k)
    A = 0.5 * (f0 + f2)
    B = 0.5 * (f0 - f2)
    C = f1 - A
    R = float(np.hypot(B, C))
    if R <= abs(A):
        return None
    s = ((np.arctan2(C, B) - np.arccos(-A / R)) % (2.0 * np.pi)) / k
    if s <= 1e-12:
        s += 2.0 * np.pi / k
    return s


def integrate_orbit_reference(start, frame, max_arcs=64, closure_tol=1e-6,
                              boundary_tol=1e-7):
    """Scalar per-arc oracle for the stacked kernel: one row, one arc per
    pass, each event from a three-point fit of the inactive constraint."""
    p = np.asarray(start, dtype=float).copy()
    t = frame.t
    region = ob.classify_boundary_point(p, frame, boundary_tol)
    arcs = []
    origin = p.copy()
    closed = False
    for _ in range(max_arcs):
        if region == ob.CORNER:
            sigma = ob.glide_sign(p, frame)
            if abs(sigma) <= 1e-8:
                rho = float(np.hypot(*frame.oblique_coords(p)[2:]))
                arc = ob.glide_orbit(t, ob.PLUS if rho <= 1e-8 else ob.MINUS).arcs[0]
                arcs.append(ob.Arc(ob.CORNER_GLIDE, p, p, arc.angle, arc.action))
                return ob.CharacteristicOrbit(frame, arcs, True)
            region = ob.S1 if sigma < 0.0 else ob.S2
        if region == ob.S1:
            flow = lambda s: ob.s1_flow(p, s)  # noqa: E731
            fun = lambda s: np.pi * frame.cylinder_form(flow(s)) - t * t  # noqa: E731
            k, rate = 2, 1.0
        else:
            flow = lambda s: ob.s2_flow(p, s, frame)  # noqa: E731
            fun = lambda s: np.pi * float(np.sum(flow(s) ** 2)) - 1.0  # noqa: E731
            k, rate = 1, t
        s = first_upward_root_reference(fun, k)
        if s is None:
            arcs.append(ob.Arc(region, p, p, 2.0 * np.pi, rate))
            closed = True
            break
        q = flow(s)
        arcs.append(ob.Arc(region, p, q, s, s * rate / (2.0 * np.pi)))
        p = q
        region = ob.CORNER
        if np.linalg.norm(p - origin) <= closure_tol and len(arcs) > 1:
            closed = True
            break
    return ob.CharacteristicOrbit(frame, arcs, closed)


def assert_matches_reference(orbits, starts, frame, tol=1e-11, **kw):
    assert len(orbits) == len(starts)
    for orbit, start in zip(orbits, starts):
        ref = integrate_orbit_reference(start, frame, **kw)
        assert orbit.regions == ref.regions
        assert orbit.closed == ref.closed
        for arc, ref_arc in zip(orbit.arcs, ref.arcs):
            assert abs(arc.angle - ref_arc.angle) <= tol
            assert abs(arc.action - ref_arc.action) <= tol
            assert np.max(np.abs(arc.start - ref_arc.start)) <= tol
            assert np.max(np.abs(arc.end - ref_arc.end)) <= tol


def scan_starts(frame, samples, seed):
    """(samples, 4) boundary points: Gaussian directions on the sphere,
    those outside the cylinder pushed into it."""
    t = frame.t
    rng = np.random.default_rng(seed)
    starts = []
    for _ in range(samples):
        p = rng.normal(size=4)
        p /= np.linalg.norm(p) * np.sqrt(np.pi)
        if np.pi * frame.cylinder_form(p) > t * t:
            # push the sampled sphere point into the cylinder: shrink the
            # (Jv1, Jv2) component until the form is admissible
            x = frame.frame_coords(p)
            scale = (t / np.sqrt(np.pi)) / np.hypot(x[2], x[3]) * rng.uniform(0.2, 1.0)
            x[2] *= scale
            x[3] *= scale
            x[:2] *= np.sqrt(max(1.0 / np.pi - x[2] ** 2 - x[3] ** 2, 0.0)) / np.hypot(x[0], x[1])
            p = frame.from_frame_coords(x)
        starts.append(p)
    return np.reshape(starts, (-1, 4))


@pytest.mark.parametrize("t", [0.1, 0.2, 0.25, 0.38, 0.4, 0.52, 0.59, 0.75, 0.765, 0.9])
def test_stacked_kernel_matches_scalar_reference_on_scan_starts(t):
    # 32 sampled starts per seed, most of them running all 64 arcs
    f = ob.OrbitFrame.standard(t)
    for seed in range(3):
        starts = scan_starts(f, 32, seed)
        assert_matches_reference(ob.integrate_orbits(starts, f), starts, f)


@pytest.mark.parametrize("t", [0.3, 0.45])
def test_stacked_kernel_matches_scalar_reference_on_census_roots(t):
    f = ob.OrbitFrame.standard(t)
    roots = ob._closing_radii(t, 8)
    assert len(roots) >= 10
    starts = np.array([ob.corner_state(t, rho, 0.0, f) for _, rho in roots])
    assert_matches_reference(ob.integrate_orbits(starts, f, max_arcs=17), starts, f,
                             max_arcs=17)


def test_stacked_kernel_on_a_mixed_stack():
    # corner, S1, S2, PLUS and MINUS glide rows integrate side by side
    t = 0.3
    f = ob.OrbitFrame.standard(t)
    starts = np.array([
        ob.corner_state(t, 0.4 * ob.corner_rho_max(t), 1.1, f),
        f.from_frame_coords(np.array([1.0 / np.sqrt(np.pi), 0.0, 0.0, 0.0])),
        f.from_frame_coords(np.array([0.1, 0.0, t / np.sqrt(np.pi), 0.0])),
        ob.glide_orbit(t, ob.PLUS).arcs[0].start,
        ob.glide_orbit(t, ob.MINUS).arcs[0].start,
        ob.corner_state(t, 0.9 * ob.corner_rho_max(t), 4.0, f),
    ])
    kinds = [ob.classify_boundary_point(p, f) for p in starts]
    assert kinds == [ob.CORNER, ob.S1, ob.S2, ob.CORNER, ob.CORNER, ob.CORNER]
    orbits = ob.integrate_orbits(starts, f, max_arcs=12)
    assert_matches_reference(orbits, starts, f, max_arcs=12)
    assert orbits[3].regions == [ob.CORNER_GLIDE] and orbits[3].action == t
    assert orbits[4].regions == [ob.CORNER_GLIDE]
    assert orbits[4].action == pytest.approx(t * (3.0 - 4.0 * t * t), abs=1e-15)
    # a row integrated alone is that row of the stack, up to the rounding
    # of the matrix products, which depends on the stack height
    for start, orbit in zip(starts, orbits):
        alone = ob.integrate_orbit(start, f, max_arcs=12)
        assert alone.regions == orbit.regions
        assert np.allclose([a.angle for a in alone.arcs], [a.angle for a in orbit.arcs],
                           rtol=0.0, atol=1e-13)


def test_glide_starts_integrate_to_their_own_glide_on_a_grid():
    # the only corner glide points are rho = 0 (PLUS) and rho = rho_max
    # (MINUS); rho^2 read off the kernel's quadratic form carries rounding
    # of about 1e-15, which a split at rho^2 = 1e-16 sent to MINUS
    for t in np.arange(1, 100) / 100:
        f = ob.OrbitFrame.standard(t)
        for branch in (ob.PLUS, ob.MINUS) if t < 0.5 else (ob.PLUS,):
            glide = ob.glide_orbit(t, branch)
            orbit = ob.integrate_orbit(glide.arcs[0].start, f)
            assert orbit.closed and orbit.regions == [ob.CORNER_GLIDE], (t, branch)
            assert orbit.action == glide.action, (t, branch)


def test_stacked_kernel_full_turn_row_beside_rooted_rows_warns_nothing():
    t = 0.75
    f = ob.OrbitFrame.standard(t)
    hopf = np.array([0.0, 0.0, 1.0 / np.sqrt(np.pi), 0.0])
    starts = np.array([ob.corner_state(t, 0.3 * ob.corner_rho_max(t), 0.2, f), hopf,
                       ob.corner_state(t, 0.7 * ob.corner_rho_max(t), 2.0, f)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        orbits = ob.integrate_orbits(starts, f, max_arcs=6)
    assert orbits[1].regions == [ob.S1] and orbits[1].closed
    assert orbits[1].action == 1.0
    assert_matches_reference(orbits, starts, f, max_arcs=6)


def test_stacked_kernel_rejects_an_off_boundary_row_and_takes_an_empty_stack():
    f = ob.OrbitFrame.standard(0.4)
    good = ob.corner_state(0.4, 0.5 * ob.corner_rho_max(0.4), 0.0, f)
    with pytest.raises(ob.OffBoundaryError, match="not on the boundary"):
        ob.integrate_orbits(np.array([good, 0.5 * good, good]), f)
    assert ob.integrate_orbits(np.empty((0, 4)), f) == []


@pytest.mark.parametrize("start", [(0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0)])
def test_hopf_circle_touching_the_cylinder_at_half_closes_with_action_one(start):
    # the Hopf circle z1 = 0 touches the cylinder exactly at t = 1/2, where
    # pi times the cylinder form peaks at (1 - t)/2 = t^2; it is the limit
    # of the MINUS glide, whose action t(3 - 4t^2) tends to 1
    t = 0.5
    f = ob.OrbitFrame.standard(t)
    p = np.array(start) / np.sqrt(np.pi)
    pts = ob.s1_flow(p, np.linspace(0.0, 2.0 * np.pi, 2001))
    assert np.max(np.pi * ((pts @ f.jv1) ** 2 + (pts @ f.jv2) ** 2)) == pytest.approx(
        t * t, abs=1e-12)
    orbit = ob.integrate_orbit(p, f)
    assert orbit.closed and orbit.regions == [ob.S1]
    assert orbit.action == 1.0
    assert orbit.line_integral_action() == pytest.approx(1.0, abs=1e-7)


@pytest.mark.parametrize("t", [0.55, 0.7, 0.9])
def test_minus_glide_point_above_half_lies_on_a_touching_hopf_circle(t):
    # sigma = 0 at corner radius corner_rho_max(t); for t > 1/2 no MINUS
    # glide exists there, and the Hopf circle through the point stays in
    # the cylinder, touching it only there
    f = ob.OrbitFrame.standard(t)
    lam = -np.sqrt(1.0 - t * t) / t
    x3 = t / np.sqrt(np.pi)
    p = f.from_frame_coords(np.array([0.0, -lam * x3, x3, 0.0]))
    assert ob.classify_boundary_point(p, f) == ob.CORNER
    assert abs(ob.glide_sign(p, f)) <= 1e-12
    pts = ob.s1_flow(p, np.linspace(0.0, 2.0 * np.pi, 2001))
    assert np.max(np.pi * ((pts @ f.jv1) ** 2 + (pts @ f.jv2) ** 2)) <= t * t + 1e-12
    orbit = ob.integrate_orbit(p, f)
    assert orbit.closed and orbit.regions == [ob.S1] and orbit.action == 1.0


@pytest.mark.parametrize("t", [0.3, 0.45, 0.5, 0.55, 0.7, 0.9])
def test_census_holds_a_hopf_circle_exactly_from_half(t):
    # a Hopf circle stays in S1 only from t = 1/2 on.  Below, the census
    # holds no pure S1 orbit and no start of a fixed set closes as one S1
    # arc; from 1/2 on, the census's circle through the MINUS corner point
    # touches the cylinder from inside and integrates to itself
    f = ob.OrbitFrame.standard(t)
    _, _, found = ob.min_action_scan(t)
    hopf = [orbit for orbit in found if orbit.regions == [ob.S1]]
    if t < 0.5:
        assert hopf == []
        for seed in range(3):
            orbits = ob.integrate_orbits(scan_starts(f, 32, seed), f, max_arcs=1)
            assert all(orbit.regions == [ob.S1] for orbit in orbits)
            assert not any(orbit.closed for orbit in orbits)
        return
    (circle,) = hopf
    assert circle.closed and circle.action == 1.0
    pts = circle.sample_points()
    assert np.max(np.pi * ((pts @ f.jv1) ** 2 + (pts @ f.jv2) ** 2) - t * t) <= 1e-12
    orbit = ob.integrate_orbit(circle.arcs[0].start, f)
    assert orbit.closed and orbit.regions == [ob.S1] and orbit.action == 1.0


def test_integrate_plus_glide_closes_with_action_t(frame_half):
    start = ob.glide_orbit(0.5, ob.PLUS).arcs[0].start
    orbit = ob.integrate_orbit(start, frame_half)
    assert orbit.closed
    assert orbit.action == pytest.approx(0.5, abs=1e-6)


def test_integrate_pure_hopf_action_one():
    f = ob.OrbitFrame.standard(0.75)
    p = np.array([0.0, 0.0, 1.0 / np.sqrt(np.pi), 0.0])
    # frame form stays below t^2/pi along the whole circle
    theta = np.linspace(0, 2 * np.pi, 500)
    forms = np.array([np.pi * f.cylinder_form(ob.s1_flow(p, th)) for th in theta])
    assert forms.max() < 0.75 ** 2
    orbit = ob.integrate_orbit(p, f)
    assert orbit.closed and orbit.regions == [ob.S1]
    assert orbit.action == pytest.approx(1.0, abs=1e-6)


def test_integrate_detects_grazing_exit_from_sphere():
    # the Hopf circle of p leaves the cylinder by only 1e-8, over windows
    # about 1e-4 wide; the event must still be found
    t = 0.75
    f = ob.OrbitFrame.standard(t)
    ex1, ex2 = np.eye(4)[0], np.eye(4)[2]

    def sphere_point(alpha):
        return (np.sin(alpha) * ex1 + np.cos(alpha) * ex2) / np.sqrt(np.pi)

    def circle_gram(p):
        # the cylinder form on the circle cos(th) p + sin(th) Jp is the
        # quadratic form of this Gram matrix in (cos th, sin th)
        M = np.array([[p @ f.jv1, p @ f.jv2],
                      [apply_J(p) @ f.jv1, apply_J(p) @ f.jv2]])
        return M @ M.T

    def exit_height(alpha):
        return np.pi * np.linalg.eigvalsh(circle_gram(sphere_point(alpha)))[-1] - t * t

    alpha = brentq(lambda a: exit_height(a) - 1e-8, 0.0, np.pi / 2, xtol=1e-15)
    assert exit_height(alpha) == pytest.approx(1e-8, rel=1e-3)
    p = sphere_point(alpha)
    inner = np.linalg.eigh(circle_gram(p))[1][:, 0]
    start = ob.s1_flow(p, np.arctan2(inner[1], inner[0]))
    assert ob.classify_boundary_point(start, f) == ob.S1
    orbit = ob.integrate_orbit(start, f, max_arcs=4)
    assert orbit.regions[:2] == [ob.S1, ob.S2]


def test_integrate_events_are_first_crossings():
    rng = np.random.default_rng(17)
    for t in (0.3, 0.6):
        f = ob.OrbitFrame.standard(t)
        for _ in range(20):
            rho = rng.uniform(0.0, 0.995) * ob.corner_rho_max(t)
            p0 = ob.corner_state(t, rho, rng.uniform(0, 2 * np.pi), f)
            orbit = ob.integrate_orbit(p0, f, max_arcs=8, closure_tol=0.0)
            for arc in orbit.arcs:
                s = np.linspace(0.0, arc.angle, 514)[1:-1]
                if arc.region == ob.S1:
                    pts = ob.s1_flow(arc.start, s)
                    inactive = np.pi * ((pts @ f.jv1) ** 2 + (pts @ f.jv2) ** 2) - t * t
                else:
                    pts = ob.s2_flow(arc.start, s, f)
                    inactive = np.pi * np.sum(pts * pts, axis=1) - 1.0
                assert inactive.max() <= 1e-9


def test_integrate_alternating_orbit_action_exceeds_t():
    t = 0.4
    f = ob.OrbitFrame.standard(t)
    found = ob.find_closed_alternating_orbits(t, k_max=5)
    assert found, "no closed alternating orbit located"
    for orbit in found:
        assert orbit.closed and orbit.is_mixed()
        assert orbit.action > t
        assert orbit.action == pytest.approx(orbit.line_integral_action(), abs=1e-7)


@pytest.mark.parametrize("frac", [0.01, 0.4, 0.9, 0.999])
@pytest.mark.parametrize("t", [0.2, 0.45, 0.7])
def test_block_map_is_phase_equivariant(t, frac):
    # the closed-form block against integrated S2 + S1 arcs from any phase
    f = ob.OrbitFrame.standard(t)
    rho = frac * ob.corner_rho_max(t)
    dpsi, theta, tau = ob.block_map(t, rho)
    assert np.pi < dpsi < 2 * np.pi
    for psi in (0.0, 0.9, 2.7):
        p0 = ob.corner_state(t, rho, psi, f)
        orbit = ob.integrate_orbit(p0, f, max_arcs=2, closure_tol=0.0)
        assert orbit.regions == [ob.S2, ob.S1]
        assert orbit.arcs[0].angle == pytest.approx(theta, abs=1e-9)
        assert orbit.arcs[1].angle == pytest.approx(tau, abs=1e-9)
        a = f.oblique_coords(orbit.arcs[1].end)
        assert np.hypot(a[2], a[3]) == pytest.approx(rho, abs=1e-9)
        shift = (np.arctan2(a[3], a[2]) - psi) % (2 * np.pi)
        assert shift == pytest.approx(dpsi, abs=1e-9)


def test_block_map_rejects_radii_off_the_open_corner_range():
    t = 0.45
    for rho in (0.0, ob.corner_rho_max(t)):
        with pytest.raises(ValueError, match="rho"):
            ob.block_map(t, rho)


@pytest.mark.parametrize("t, k_max, expected", [
    (0.3, 6, [(3, 0.5479095368), (4, 0.6673975844), (5, 0.8816671763),
              (5, 0.7191269901), (6, 0.7443307913)]),
    (0.45, 6, [(3, 0.8200895767), (4, 0.9483864194), (5, 1.3245367125),
               (5, 0.9718047528), (6, 0.9781169935)]),
    # delta_psi is not monotone for t > 1/2, so one fraction has two roots
    (0.6, 8, [(5, 1.7702101801), (5, 2.0381418518), (7, 2.3860312701),
              (7, 3.0347805225), (8, 2.8962183142), (8, 3.0866551136)]),
], ids=["0.3", "0.45", "0.6"])
def test_alternating_census_is_pinned_in_order(t, k_max, expected):
    found = ob.find_closed_alternating_orbits(t, k_max=k_max)
    assert [len(o.arcs) // 2 for o in found] == [k for k, _ in expected]
    for orbit, (_, action) in zip(found, expected):
        assert orbit.action == pytest.approx(action, abs=1e-9)


def test_census_keeps_mixed_orbits_next_to_the_corner_edge():
    # at t = 0.52 the k = 3 orbit sits at 0.99715 corner_rho_max, outside
    # the former window [1e-3, 0.995] corner_rho_max
    t = 0.52
    found = ob.find_closed_alternating_orbits(t, k_max=3)
    assert [len(o.arcs) for o in found] == [6, 6]
    edge = found[1]
    a = edge.frame.oblique_coords(edge.arcs[0].start)
    assert np.hypot(a[2], a[3]) / ob.corner_rho_max(t) == pytest.approx(0.9971530174, abs=1e-9)
    assert edge.action == pytest.approx(1.0020970615, abs=1e-9)
    assert edge.action == pytest.approx(edge.line_integral_action(), abs=1e-7)
    assert edge.is_mixed() and edge.action > t


def test_small_circle_radius_bounds_theta_tilde():
    # z2 shadow of an S2 arc is a circle of radius sqrt((1-t)/(2 pi)),
    # strictly inside the Hopf shadow of radius |z2| at the endpoints
    t = 0.45
    f = ob.OrbitFrame.standard(t)
    rng = np.random.default_rng(15)
    r_small = np.sqrt((1.0 - t) / (2.0 * np.pi))
    for _ in range(10):
        rho = rng.uniform(0.1, 0.9) * ob.corner_rho_max(t)
        p0 = ob.corner_state(t, rho, rng.uniform(0, 2 * np.pi), f)
        orbit = ob.integrate_orbit(p0, f, max_arcs=2, closure_tol=0.0)
        arc = orbit.arcs[0]
        pts = ob.s2_flow(p0, np.linspace(0.0, arc.angle, 200), f)
        z2 = pts[:, 2:4]
        # arc center: the z2 shadow of the fixed (Jn1, Jn2) component
        a = f.oblique_coords(p0)
        center = (a[2] * f.jn1 + a[3] * f.jn2)[2:4]
        rads = np.linalg.norm(z2 - center, axis=1)
        assert np.ptp(rads) < 1e-9
        assert rads.mean() == pytest.approx(r_small, abs=1e-9)
        z2_end = np.hypot(arc.end[2], arc.end[3])
        assert r_small < z2_end
        # chord-angle comparison: theta_tilde < theta
        chord = np.linalg.norm(arc.end[2:4] - arc.start[2:4])
        theta_tilde = 2.0 * np.arcsin(min(chord / (2.0 * z2_end), 1.0))
        assert theta_tilde < arc.angle + 1e-12


# closed-form actions of the census, in its order: the PLUS glide, the
# MINUS glide (t < 1/2) or the touching Hopf circle, the alternating orbits
CENSUS_ACTIONS = {
    0.25: [0.25, 0.6875, 0.456677925, 0.5605188592, 0.7344579931, 0.6093989719,
           0.6348726743, 0.992096523, 1.0372171938, 0.6496347317, 1.2013077996,
           0.6589291903],
    0.5: [0.5, 1.0, 0.9092217113, 1.4727134897, 1.986753754, 1.9770904231, 2.4096655294],
    0.75: [0.75, 1.0, 2.2204187219, 2.2626904877, 2.9873340985, 3.2381411935],
}


@pytest.mark.parametrize("t, found_by_seed", [
    (0.25, (12, 12, 12)), (0.5, (7, 7, 7)), (0.75, (6, 6, 6))])
def test_min_action_scan_sampler_contract_is_pinned(t, found_by_seed):
    # the census is deterministic: samples and seed are ignored, the PLUS
    # glide comes first and is the minimum, exactly t
    for seed, n_found in enumerate(found_by_seed):
        action, best, found = ob.min_action_scan(t, samples=32, seed=seed)
        assert action == t and best is found[0]
        assert len(found) == n_found
        assert np.allclose([o.action for o in found], CENSUS_ACTIONS[t], rtol=0.0, atol=1e-9)


def test_min_action_scan_is_the_plus_glide_on_a_grid():
    for t in np.arange(1, 100) / 100:
        action, best, found = ob.min_action_scan(t)
        assert action == t and best is found[0]
        assert best.regions == [ob.CORNER_GLIDE]
        assert np.array_equal(best.arcs[0].start, ob.glide_orbit(t, ob.PLUS).arcs[0].start)
        assert all(orbit.closed for orbit in found)
        assert all(orbit.action > t for orbit in found[1:])


def test_min_action_scan_returns_t():
    for t in (0.25, 0.75):
        action, best, found = ob.min_action_scan(t)
        assert action == pytest.approx(t, abs=1e-3)
        assert best.closed
    # t < 1/2 also reports the minus glide among the census
    action, best, found = ob.min_action_scan(0.25)
    actions = sorted(o.action for o in found)
    assert actions[0] == pytest.approx(0.25, abs=1e-12)
    assert any(abs(a - 0.25 * (3 - 4 * 0.25 ** 2)) < 1e-9 for a in actions)


def test_minus_action_near_half_approaches_hopf_value():
    # at t just below 1/2 the minus-branch formula t(3-4t^2) tends to 1,
    # the action of a plain Hopf circle, and stays strictly above t, so
    # the minimal action is still t
    t = 0.5 - 1e-6
    minus = ob.glide_orbit(t, ob.MINUS)
    assert minus.action == pytest.approx(t * (3 - 4 * t * t), abs=1e-15)
    assert minus.action > t
    assert minus.action == pytest.approx(1.0, abs=1e-5)


def test_orbit_actions_formula_equals_line_integral_on_closed():
    t = 0.45
    found = ob.find_closed_alternating_orbits(t, k_max=4)
    for orbit in found:
        assert abs(orbit.action - orbit.line_integral_action()) < 1e-7


def test_scan_agrees_with_dual_action_capacity():
    # cross-module: the boundary census and the dual-action minimizer see
    # the same capacity for the intersection body
    from symcap import bodies as bd
    from symcap import ehz
    t = 0.5
    action, _, _ = ob.min_action_scan(t)
    res = ehz.ehz_capacity(bd.ball_cap_cylinder_intersection(t),
                           N=128, restarts=4, seed=0)
    assert abs(action - res.capacity) / t < 0.03
