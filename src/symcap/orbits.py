"""Closed characteristics on the boundary of B^4(1) intersected with a
round cylinder A^{-1} W^4 over a Kahler-angle-t plane.

The boundary splits into a sphere part S1, a cylinder part S2, and the
corner stratum S1 cap S2.  Characteristics rotate rigidly on each stratum,
so arcs are advanced in closed form.  Corner events are closed-form too:
along an arc the inactive constraint is A + B cos ks + C sin ks (k = 2
for the Hopf rotation on S1, k = 1 on S2), with A, B, C quadratic forms in
the arc's start, and its first upward root is an explicit arccos.  One
stacked kernel, integrate_orbits, moves every live row of an (M, 4) stack
of starts by one arc per step; integrate_orbit is its one-row case, and
the alternating census confirms its roots in one call.  The S2-then-S1
block map from a corner and the radii of the closed alternating orbits
are closed-form as well, so the census of closed orbits behind
min_action_scan is deterministic.  Action is accounted per arc as tau/2pi
on S1 and (theta/2pi) t on S2; both strata split omega-orthogonally, so
the arc formula agrees with the line integral exactly.
"""

from dataclasses import dataclass, field

import numpy as np

from .symcore import apply_J

S1 = "S1"
S2 = "S2"
CORNER = "CORNER"
CORNER_GLIDE = "CORNER_GLIDE"

PLUS = "PLUS"
MINUS = "MINUS"


class OffBoundaryError(ValueError):
    """Point is not on the boundary of the intersection body."""


@dataclass(frozen=True)
class OrbitFrame:
    """Orthonormal frame (v1, v2, n1, n2) adapted to the corner geometry.

    v1, v2 span the base plane of the cylinder (omega restricted to it has
    angle t), n1, n2 complete them to an orthonormal basis of R^4.
    arc_tables holds the linear and quadratic maps of the arc kernel (see
    _arc_tables).
    """

    t: float
    v1: np.ndarray
    v2: np.ndarray
    n1: np.ndarray
    n2: np.ndarray
    jv1: np.ndarray = field(init=False)
    jv2: np.ndarray = field(init=False)
    jn1: np.ndarray = field(init=False)
    jn2: np.ndarray = field(init=False)
    arc_tables: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        B = np.column_stack([self.v1, self.v2, self.n1, self.n2])
        if np.max(np.abs(B.T @ B - np.eye(4))) > 1e-10:
            raise ValueError("frame vectors must be orthonormal")
        object.__setattr__(self, "jv1", apply_J(self.v1))
        object.__setattr__(self, "jv2", apply_J(self.v2))
        object.__setattr__(self, "jn1", apply_J(self.n1))
        object.__setattr__(self, "jn2", apply_J(self.n2))
        if abs(float(self.v2 @ self.jv1) - self.t) > 1e-10:
            raise ValueError("frame does not satisfy <v2, J v1> = t")
        if abs(float(self.v1 @ self.jv2) + self.t) > 1e-10:
            raise ValueError("frame does not satisfy <v1, J v2> = -t")
        object.__setattr__(self, "arc_tables", _arc_tables(self))

    @classmethod
    def standard(cls, t: float) -> "OrbitFrame":
        if not 0.0 < t < 1.0:
            raise ValueError("t must lie strictly between 0 and 1")
        sp = np.sqrt(1.0 + t)
        sm = np.sqrt(1.0 - t)
        v1 = np.array([sp, 0.0, sm, 0.0]) / np.sqrt(2.0)
        v2 = np.array([0.0, sp, 0.0, -sm]) / np.sqrt(2.0)
        n1 = np.array([0.0, sm, 0.0, sp]) / np.sqrt(2.0)
        n2 = np.array([-sm, 0.0, sp, 0.0]) / np.sqrt(2.0)
        return cls(t, v1, v2, n1, n2)

    def frame_coords(self, p: np.ndarray) -> np.ndarray:
        """Components (x1, x2, x3, x4) of p in the basis (Jn1, Jn2, Jv1, Jv2);
        p may be a (..., 4) stack."""
        p = np.asarray(p, dtype=float)
        x = np.empty(p.shape)
        x[..., 0] = p @ self.jn1
        x[..., 1] = p @ self.jn2
        x[..., 2] = p @ self.jv1
        x[..., 3] = p @ self.jv2
        return x

    def from_frame_coords(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return (x[..., 0, None] * self.jn1 + x[..., 1, None] * self.jn2
                + x[..., 2, None] * self.jv1 + x[..., 3, None] * self.jv2)

    def oblique_coords(self, p: np.ndarray) -> np.ndarray:
        """Coefficients (a1, a2, a3, a4) with p = a1 v1 + a2 v2 + a3 Jn1 + a4 Jn2;
        p may be a (..., 4) stack."""
        x = self.frame_coords(p)
        k = np.sqrt(1.0 - self.t ** 2) / self.t
        a = np.empty(x.shape)
        a[..., 0] = -x[..., 3] / self.t
        a[..., 1] = x[..., 2] / self.t
        a[..., 2] = x[..., 0] - k * x[..., 3]
        a[..., 3] = x[..., 1] + k * x[..., 2]
        return a

    def from_oblique_coords(self, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=float)
        return (a[..., 0, None] * self.v1 + a[..., 1, None] * self.v2
                + a[..., 2, None] * self.jn1 + a[..., 3, None] * self.jn2)

    def cylinder_form(self, p: np.ndarray) -> float:
        """<p, Jv1>^2 + <p, Jv2>^2, at most t^2/pi inside the cylinder."""
        return float((p @ self.jv1) ** 2 + (p @ self.jv2) ** 2)


# region codes of the stacked kernel; an arc's stratum code (S1 or S2)
# indexes the per-stratum tables of integrate_orbits
_S1, _S2, _CORNER, _GLIDE = range(4)
_LABELS = (S1, S2, CORNER, CORNER_GLIDE)


def _region_codes(sphere_res: np.ndarray, cyl_res: np.ndarray, t: float,
                  tol: float) -> np.ndarray:
    """S1 / S2 / CORNER codes from the residuals pi |p|^2 - 1 and
    pi |Pi p|^2 - t^2 of a stack of points; raises OffBoundaryError with
    the residuals of the first point off the boundary."""
    # tolerances are relative to each constraint level (1 and t^2)
    cyl_tol = tol * t * t
    on_sphere = np.abs(sphere_res) <= tol
    on_cyl = np.abs(cyl_res) <= cyl_tol
    # on the boundary: one constraint active and the other not violated
    on = (on_sphere & (cyl_res <= cyl_tol)) | (on_cyl & (sphere_res <= tol))
    if not on.all():
        i = np.argmin(on)
        raise OffBoundaryError(
            "point is not on the boundary: sphere residual %.3e, cylinder residual %.3e"
            % (sphere_res[i], cyl_res[i]))
    return np.where(on_sphere, np.where(on_cyl, _CORNER, _S1), _S2)


def classify_boundary_point(p, frame: OrbitFrame, tol: float = 1e-9) -> str:
    """S1 / S2 / CORNER classification of a boundary point."""
    p = np.asarray(p, dtype=float)
    sphere_res = np.pi * float(p @ p) - 1.0
    cyl_res = np.pi * frame.cylinder_form(p) - frame.t * frame.t
    return _LABELS[_region_codes(np.array([sphere_res]), np.array([cyl_res]), frame.t, tol)[0]]


def cylinder_normal(p, frame: OrbitFrame) -> np.ndarray:
    """Outer normal <p,Jv1> Jv1 + <p,Jv2> Jv2 of the cylinder at p."""
    p = np.asarray(p, dtype=float)
    return (p @ frame.jv1) * frame.jv1 + (p @ frame.jv2) * frame.jv2


def characteristic_direction(p, frame: OrbitFrame, tol: float = 1e-9):
    """Characteristic direction at a boundary point.

    Returns a single vector on the open strata (J p on S1, J n_W(p) on S2)
    and the pair of extreme cone generators at a corner.
    """
    p = np.asarray(p, dtype=float)
    region = classify_boundary_point(p, frame, tol)
    if region == S1:
        return apply_J(p)
    if region == S2:
        return apply_J(cylinder_normal(p, frame))
    return apply_J(p), apply_J(cylinder_normal(p, frame))


def s1_flow(p, theta):
    """Hopf rotation e^{J theta} p; theta may be an array."""
    p = np.asarray(p, dtype=float)
    theta = np.asarray(theta, dtype=float)
    c = np.cos(theta)[..., None] if theta.ndim else np.cos(theta)
    s = np.sin(theta)[..., None] if theta.ndim else np.sin(theta)
    return c * p + s * apply_J(p)


def s2_flow(p, phi, frame: OrbitFrame):
    """Cylinder characteristic: rotate the (v1, v2) coefficients by phi."""
    a = frame.oblique_coords(np.asarray(p, dtype=float))
    phi = np.asarray(phi, dtype=float)
    c, s = np.cos(phi), np.sin(phi)
    a1 = c * a[0] - s * a[1]
    a2 = s * a[0] + c * a[1]
    out = (np.multiply.outer(a1, frame.v1) + np.multiply.outer(a2, frame.v2)
           + a[2] * frame.jn1 + a[3] * frame.jn2)
    return out


def glide_minus_flow(p, s, frame: OrbitFrame):
    """Corner orbit of the lambda < 0 branch: simultaneous clockwise rotation
    of the (x1, x2) and (x3, x4) frame coordinates with equal speed.

    Clockwise is the orientation of the normal-cone combination
    alpha J p + beta J n_W with alpha, beta > 0; it gives action +t(3-4t^2).
    """
    x = frame.frame_coords(np.asarray(p, dtype=float))
    s = np.asarray(s, dtype=float)
    c, sn = np.cos(s), np.sin(s)
    x1 = c * x[0] + sn * x[1]
    x2 = -sn * x[0] + c * x[1]
    x3 = c * x[2] + sn * x[3]
    x4 = -sn * x[2] + c * x[3]
    return (np.multiply.outer(x1, frame.jn1) + np.multiply.outer(x2, frame.jn2)
            + np.multiply.outer(x3, frame.jv1) + np.multiply.outer(x4, frame.jv2))


def glide_sign(p, frame: OrbitFrame) -> float:
    """sigma = a1 a4 - a2 a3; its sign dispatches corner continuation.

    Moving along the Hopf direction changes the cylinder form at rate
    2 t sqrt(1-t^2) sigma while the cylinder direction changes the sphere
    form at the opposite rate, so sigma < 0 admits S1, sigma > 0 admits S2
    and sigma = 0 is the glide condition x1 = lambda x4, x2 = -lambda x3.
    """
    a = frame.oblique_coords(np.asarray(p, dtype=float))
    return float(a[0] * a[3] - a[1] * a[2])


@dataclass(frozen=True, slots=True)
class Arc:
    region: str
    start: np.ndarray
    end: np.ndarray
    angle: float
    action: float


@dataclass
class CharacteristicOrbit:
    """Piecewise orbit with per-arc angular budgets and action accounting."""

    frame: OrbitFrame
    arcs: list
    closed: bool

    @property
    def action(self) -> float:
        return float(sum(a.action for a in self.arcs))

    @property
    def regions(self) -> list:
        return [a.region for a in self.arcs]

    def is_mixed(self) -> bool:
        regs = set(self.regions)
        return S1 in regs and S2 in regs

    def sample_points(self, per_two_pi: int = 4096) -> np.ndarray:
        """Dense positions along the orbit, for plotting and line integrals."""
        chunks = []
        for arc in self.arcs:
            m = max(8, int(abs(arc.angle) / (2.0 * np.pi) * per_two_pi))
            s = np.linspace(0.0, arc.angle, m, endpoint=False)
            if arc.region == S1:
                chunks.append(s1_flow(arc.start, s))
            elif arc.region == S2:
                chunks.append(s2_flow(arc.start, s, self.frame))
            else:
                chunks.append(self._glide_points(arc, s))
        return np.vstack(chunks)

    def _glide_points(self, arc: Arc, s: np.ndarray) -> np.ndarray:
        if arc.region != CORNER_GLIDE:
            raise ValueError("not a glide arc")
        # the PLUS family lives at a3 = a4 = 0, MINUS strictly away from it
        a = self.frame.oblique_coords(arc.start)
        if float(np.hypot(a[2], a[3])) > 1e-8:
            return glide_minus_flow(arc.start, s, self.frame)
        return s2_flow(arc.start, s, self.frame)

    def line_integral_action(self, per_two_pi: int = 65536) -> float:
        """(1/2) closed integral of omega(gamma, dgamma) over a dense polygon."""
        pts = self.sample_points(per_two_pi)
        nxt = np.roll(pts, -1, axis=0)
        return 0.5 * float(np.sum(np.einsum("ij,ij->i", apply_J(pts), nxt)))


def glide_orbit(t: float, branch: str) -> CharacteristicOrbit:
    """The closed corner orbits: PLUS has action t, MINUS (t < 1/2 only)
    has action t(3 - 4 t^2)."""
    frame = OrbitFrame.standard(t)
    if branch == MINUS and t >= 0.5:
        raise ValueError("the MINUS corner branch exists only for t < 1/2")
    return _corner_orbit(frame, branch)


def _corner_orbit(frame: OrbitFrame, branch: str) -> CharacteristicOrbit:
    """The closed orbit through a glide point of the corner: PLUS at
    a3 = a4 = 0 glides with action t; MINUS, at x1 = lambda x4,
    x2 = -lambda x3 with lambda = -sqrt(1-t^2)/t, glides with action
    t(3 - 4t^2) for t < 1/2, and from t = 1/2 on lies on a Hopf circle
    that touches the cylinder there from inside (action 1)."""
    t = frame.t
    if branch == PLUS:
        start = frame.from_oblique_coords(np.array([1.0 / np.sqrt(np.pi), 0.0, 0.0, 0.0]))
        region, action = CORNER_GLIDE, t
    elif branch == MINUS:
        lam = -np.sqrt(1.0 - t * t) / t
        x3 = t / np.sqrt(np.pi)
        x4 = 0.0
        start = frame.from_frame_coords(np.array([lam * x4, -lam * x3, x3, x4]))
        region, action = (CORNER_GLIDE, t * (3.0 - 4.0 * t * t)) if t < 0.5 else (S1, 1.0)
    else:
        raise ValueError("branch must be PLUS or MINUS")
    arc = Arc(region, start, start, 2.0 * np.pi, action)
    return CharacteristicOrbit(frame, [arc], True)


def hopf_projection_area(p, frame: OrbitFrame) -> float:
    """Area |pi |z1|^2 - (1-t)/2| of the Hopf circle's shadow on the
    (Jv1, Jv2) plane."""
    p = np.asarray(p, dtype=float)
    z1_sq = float(p[0] ** 2 + p[1] ** 2)
    return abs(np.pi * z1_sq - 0.5 * (1.0 - frame.t))


def s2_transit_norms(alpha3: float, alpha4: float, t: float):
    """(|z1|^2, |z2|^2) at corner points over a cylinder characteristic.

    Both are independent of the rotating coefficients, which is what makes
    |z_i| invariant across an S2 arc.
    """
    if not 0.0 < t < 1.0:
        raise ValueError("t must lie strictly between 0 and 1")
    rho_sq = alpha3 ** 2 + alpha4 ** 2
    if rho_sq > 4.0 * (1.0 - t * t) / np.pi + 1e-12:
        raise ValueError("no corner point exists at this (alpha3, alpha4)")
    z1 = (1.0 + t) / (2.0 * np.pi) - 0.5 * t * rho_sq
    z2 = (1.0 - t) / (2.0 * np.pi) + 0.5 * t * rho_sq
    return z1, z2


def corner_rho_max(t: float) -> float:
    """Largest sqrt(a3^2 + a4^2) for which the corner is reachable."""
    return 2.0 * np.sqrt((1.0 - t * t) / np.pi)


def _corner_cos(t: float, rho: float) -> float:
    """cos of the corner phase offset at radius rho: rho / corner_rho_max(t)."""
    return rho * np.sqrt(np.pi) / (2.0 * np.sqrt(1.0 - t * t))


def corner_state(t: float, rho: float, psi: float, frame: OrbitFrame | None = None) -> np.ndarray:
    """Corner point with (a3, a4) = rho (cos psi, sin psi), entering S2.

    The rotating phase phi is pinned by the sphere constraint; the entry
    choice phi - psi = -arccos(...) makes the cylinder flow point inward.
    """
    frame = frame or OrbitFrame.standard(t)
    if not 0.0 <= rho < corner_rho_max(t):
        raise ValueError("rho outside the admissible corner range")
    aangle = np.arccos(np.clip(_corner_cos(t, rho), -1.0, 1.0))
    phi = psi - aangle
    a = np.array([np.cos(phi) / np.sqrt(np.pi), np.sin(phi) / np.sqrt(np.pi),
                  rho * np.cos(psi), rho * np.sin(psi)])
    return frame.from_oblique_coords(a)


_INV_K = np.array([0.5, 1.0])  # 1/k: the Hopf arc meets the cylinder form at 2s
_S1_FLOWS = np.hstack([np.eye(4), apply_J(np.eye(4)), np.zeros((4, 4))])  # (p, Jp, 0)


def _arc_tables(frame: OrbitFrame) -> tuple:
    """(forms, constants, flows, rates) of the arc kernel for one frame.

    With pp the flattened outer product p p^T, pp @ forms + constants is
    (A1, B1, C1, sigma, A2, B2, C2, rho^2) at p (see integrate_orbits).
    p @ flows is (U1, V1, W1, U2, V2, W2): the flow of stratum i from p is
    cos(s) Ui + sin(s) Vi + Wi, and its action per full turn is rates[i].
    """
    t = frame.t
    x = np.array([frame.jv1, frame.jv2]).T  # p @ x = Pi p
    b = np.array([frame.v1, frame.v2]).T  # p @ b = Pi Jp
    oblique = frame.oblique_coords(np.eye(4))  # p @ oblique = (a1, a2, a3, a4)
    a12, a34 = oblique[:, :2], oblique[:, 2:]
    quarter = np.array([[0.0, 1.0], [-1.0, 0.0]])  # (a1, a2) -> (-a2, a1)

    def sym(m):
        return 0.5 * (m + m.T)

    na, nb = x @ x.T, b @ b.T
    sigma = sym(a12 @ quarter @ a34.T)
    two_pi_s = 2.0 * np.pi * np.sqrt(1.0 - t * t)
    forms = np.stack([0.5 * np.pi * (na + nb), 0.5 * np.pi * (na - nb), np.pi * sym(x @ b.T),
                      sigma, np.pi * (oblique @ oblique.T), -two_pi_s * sym(a12 @ a34.T),
                      -two_pi_s * sigma, a34 @ a34.T], axis=-1).reshape(16, 8)
    constants = np.array([-t * t, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0])
    flows = np.hstack([_S1_FLOWS, a12 @ b.T, a12 @ quarter @ b.T,
                       a34 @ np.array([frame.jn1, frame.jn2])])
    return forms, constants, flows, np.array([1.0, t])


def integrate_orbits(starts, frame: OrbitFrame, max_arcs: int = 64,
                     closure_tol: float = 1e-6,
                     boundary_tol: float = 1e-7) -> list:
    """Follow the piecewise characteristic flow from an (M, 4) stack of
    boundary points; one CharacteristicOrbit per row.

    Every live row advances one arc per step.  Each stratum is an exact
    rotation, so the inactive constraint along an arc is
    A + B cos ks + C sin ks, with (A, B, C) in closed form: on S1 (k = 2),
    with x = Pi p and b = Pi Jp the projections on (Jv1, Jv2),
    A = pi (|x|^2 + |b|^2)/2 - t^2, B = pi (|x|^2 - |b|^2)/2, C = pi x.b;
    on S2 (k = 1), in oblique coordinates a with s = sqrt(1 - t^2),
    A = pi |a|^2 - 1, B = -2 pi s (a1 a3 + a2 a4), C = -2 pi s sigma.  The
    next corner event is the first upward root, an explicit arccos; with
    no root the arc is a closed full turn.  Corners dispatch by the glide
    sign sigma = a1 a4 - a2 a3.  A row stops at closure (within closure_tol
    of its start after more than one arc), at a glide or a full turn, or
    after max_arcs arcs.
    """
    P = np.array(starts, dtype=float).reshape(len(starts), 4)
    t = frame.t
    forms, constants, flows, rate = frame.arc_tables
    # the coefficients of both strata at every point (see _arc_tables)
    F = (P[:, :, None] * P[:, None, :]).reshape(-1, 16) @ forms + constants
    # pi |p|^2 - 1 and pi |Pi p|^2 - t^2 are A + B of S2 and S1
    region = _region_codes(F[:, 4] + F[:, 5], F[:, 0] + F[:, 1], t, boundary_tol)
    p, origin, ids = P, P, np.arange(len(P))
    rows = ids
    closed = np.zeros(len(P), dtype=bool)
    arcs = [[] for _ in range(len(P))]
    ends = list(P)  # an arc starts where the previous one of its row ended
    for n in range(max_arcs):
        if not ids.size:
            break
        if n:
            F = (p[:, :, None] * p[:, None, :]).reshape(-1, 16) @ forms + constants
        sigma = F[:, 3]
        corner = region == _CORNER
        glide = corner & (np.abs(sigma) <= 1e-8)
        r = np.where(corner, sigma >= 0.0, region)  # sigma < 0 admits S1
        A, B, C, _ = F.reshape(-1, 2, 4)[rows, r].T
        abs_A, R = np.abs(A), np.hypot(B, C)
        turn = glide | (R <= abs_A)
        inv_k = _INV_K[r]
        # the divisor is R on rows with a root; elsewhere it keeps the ratio in [-1, 1]
        lag = np.arccos(-A / np.maximum(R, abs_A + turn))
        ang = ((np.arctan2(C, B) - lag) % (2.0 * np.pi)) * inv_k
        ang += (ang <= 1e-12) * (2.0 * np.pi * inv_k)  # a root at the start: take the next
        G = (p @ flows).reshape(-1, 2, 12)[rows, r]
        q = np.where(turn[:, None], p, np.cos(ang)[:, None] * G[:, :4]
                     + np.sin(ang)[:, None] * G[:, 4:8] + G[:, 8:])
        rate_r = rate[r]
        action = np.where(turn, rate_r, ang * rate_r / (2.0 * np.pi))
        ang[turn] = 2.0 * np.pi
        label = r
        if glide.any():
            # PLUS at a3 = a4 = 0 (action t); MINUS at rho = corner_rho_max,
            # whose glide (action t(3 - 4t^2)) exists for t < 1/2; from t = 1/2
            # on, the Hopf circle through that point touches the cylinder
            # there from inside: a closed S1 orbit of action 1.  These are the
            # only glide radii, so split at rho^2 = rho_max^2 / 2: rho^2 read
            # off the quadratic form carries rounding of about 1e-15
            plus = glide & (F[:, 7] <= 2.0 * (1.0 - t * t) / np.pi)
            minus = glide & ~plus
            label[plus] = _GLIDE
            action[plus] = t
            label[minus] = _GLIDE if t < 0.5 else _S1
            action[minus] = t * (3.0 - 4.0 * t * t) if t < 0.5 else 1.0
        done = turn
        if n:
            d = q - origin
            done = done | (np.einsum("ij,ij->i", d, d) <= closure_tol ** 2)
        for row, code, end, angle, act in zip(ids.tolist(), label.tolist(), q,
                                              ang.tolist(), action.tolist()):
            arcs[row].append(Arc(_LABELS[code], ends[row], end, angle, act))
            ends[row] = end
        p = q
        if done.any():
            closed[ids[done]] = True
            keep = ~done
            p, origin, ids = p[keep], origin[keep], ids[keep]
            region, rows = region[keep], np.arange(len(ids))
        region[:] = _CORNER  # every arc ends on the corner
    return [CharacteristicOrbit(frame, row_arcs, row_closed)
            for row_arcs, row_closed in zip(arcs, closed.tolist())]


def integrate_orbit(start, frame: OrbitFrame, max_arcs: int = 64,
                    closure_tol: float = 1e-6,
                    boundary_tol: float = 1e-7) -> CharacteristicOrbit:
    """Follow the piecewise characteristic flow from one boundary point:
    integrate_orbits on a one-row stack."""
    return integrate_orbits(np.asarray(start, dtype=float)[None], frame, max_arcs,
                            closure_tol, boundary_tol)[0]


def block_map(t: float, rho: float):
    """One S2-then-S1 block from a corner entry at radius rho, in closed form.

    Returns (delta_psi, theta, tau): the net rotation of the (a3, a4)
    phase and the two angular budgets; rho is preserved and, by the
    anti-diagonal circle symmetry of the body, nothing depends on psi.
    With b = 1 - 2t^2: theta = 2 arccos(rho / corner_rho_max(t)),
    tau = arg(b - 2t^2 cos theta + 2i t sin theta) and
    delta_psi = 2 pi - arg(b cos theta - 2t^2 + i sin theta) in (pi, 2 pi).
    """
    if not 0.0 < t < 1.0:
        raise ValueError("t must lie strictly between 0 and 1")
    if not 0.0 < rho < corner_rho_max(t):
        raise ValueError("rho must lie strictly between 0 and corner_rho_max(t)")
    theta = 2.0 * np.arccos(_corner_cos(t, rho))
    b = 1.0 - 2.0 * t * t
    tau = np.arctan2(2.0 * t * np.sin(theta), b - 2.0 * t * t * np.cos(theta))
    turn = np.arctan2(np.sin(theta), b * np.cos(theta) - 2.0 * t * t)
    return float(2.0 * np.pi - turn), float(theta), float(tau)


def _closing_radii(t: float, k_max: int) -> list:
    """(k, rho) of every root of the closing equation of a k-block orbit
    with a corner radius in (0, corner_rho_max(t)), by k, then j
    descending, then rho ascending (see find_closed_alternating_orbits)."""
    rho_max = corner_rho_max(t)
    b = 1.0 - 2.0 * t * t
    roots = []
    for k in range(1, k_max + 1):
        for j in range((k - 1) // 2, 0, -1):
            phi = 2.0 * np.pi * j / k
            ratio = 2.0 * t * t * np.sin(phi) / np.hypot(b * np.sin(phi), np.cos(phi))
            if ratio > 1.0:
                continue
            lag = np.arctan2(np.cos(phi), b * np.sin(phi))
            half = np.arccos(ratio)
            for theta in sorted({(half - lag) % (2.0 * np.pi),
                                 (-half - lag) % (2.0 * np.pi)}, reverse=True):
                rho = np.cos(0.5 * theta) * rho_max
                # theta -> 0 (rho -> rho_max) is a root only at t = 1/2
                if 0.0 < rho < rho_max:
                    roots.append((k, rho))
    return roots


def find_closed_alternating_orbits(t: float, k_max: int = 8,
                                   rho_samples: int | None = None) -> list:
    """Census of closed orbits alternating between S1 and S2.

    A k-block orbit closes when 2 pi - delta_psi = phi = 2 pi j / k with
    0 < j < k/2, i.e. b sin(phi) cos(theta) - cos(phi) sin(theta) =
    2t^2 sin(phi) (see block_map), which one arccos solves for theta.
    Every root with a corner radius in (0, corner_rho_max(t)) is confirmed
    in one integrate_orbits call and kept if its orbit closes, mixed, after
    exactly 2k arcs.  Orbits come by k, then j descending, then rho
    ascending.  rho_samples is ignored.
    """
    return _alternating_orbits(OrbitFrame.standard(t), k_max)


def _alternating_orbits(frame: OrbitFrame, k_max: int) -> list:
    t = frame.t
    roots = _closing_radii(t, k_max)
    starts = [corner_state(t, rho, 0.0, frame) for _, rho in roots]
    orbits = integrate_orbits(np.reshape(starts, (-1, 4)), frame,
                              max_arcs=2 * k_max + 1, closure_tol=1e-6)
    return [orbit for (k, _), orbit in zip(roots, orbits)
            if orbit.closed and orbit.is_mixed() and len(orbit.arcs) == 2 * k]


def min_action_scan(t: float, samples: int | None = None, seed: int | None = None):
    """Minimal action among the closed characteristics of the boundary.

    Returns (action, best, found).  found is the census of the closed
    families, all in closed form: the PLUS glide (action t); the MINUS
    glide (action t(3 - 4t^2)) for t < 1/2, or from t = 1/2 on the Hopf
    circle through the MINUS glide point, which touches the cylinder
    there from inside (action 1); then the alternating orbits of
    find_closed_alternating_orbits(t).  best is the first orbit of least
    action in that order, the PLUS glide.  samples and seed are ignored;
    they remain for callers that still pass them.
    """
    frame = OrbitFrame.standard(t)
    found = [_corner_orbit(frame, PLUS), _corner_orbit(frame, MINUS)]
    found += _alternating_orbits(frame, 8)
    best = min(found, key=lambda o: o.action)
    return best.action, best, found
