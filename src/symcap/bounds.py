"""Gromov-width lower bounds for the ball-cylinder intersection family.

Three lower bounds for the capacity-t domain: the trivial ball of
capacity t^2, the inradius ball t/(1+sqrt(1-t^2)), and the optimized
two-parameter family value

    f(t) = sqrt(2 (1/t^2 - 1)(s - 1) + 1) = t sqrt(1+2s)/(1+s),  s = sqrt(1-t^2),

which solve_embedding attains in closed form and which satisfies
t - 0.07 <= f(t) < t.  The module also carries the planar area-feasibility
checks behind the single-plane capacity (1+t)/2 and an evaluator for the
epsilon-family upper bound.
"""

from dataclasses import dataclass

import numpy as np

from . import bodies as bd
from .ehz import ehz_capacity
from .symcore import (gw_plane_normals, matrix_A_gw, matrix_Mt, matrix_S,
                      matrix_AL, random_symplectic_matrices, require_finite)
# The scalar sampler stays in this namespace: instrumentation that wraps the
# samplers as bounds sees them looks it up here.
from .symcore import random_symplectic_matrix  # noqa: F401


def bound_f(t: float) -> float:
    """The optimized lower bound f(t) = sqrt(2 (1/t^2 - 1)(s - 1) + 1),
    s = sqrt(1-t^2): the optimum of the (d1, d2) family.  On its disc curve
    (see solve_embedding) the containment radii are r_ball = x and
    r_cyl = 2 t^2 x / ((1-s) + (1+s) x^2); they are equal at x = f(t).

    Evaluated as t sqrt(1+2s)/(1+s), the same number without the
    cancellation of the printed form, so it keeps full relative precision
    and satisfies t^2, t/(1+s) <= f(t) < t on all of (0, 1).
    """
    if not 0.0 < t < 1.0:
        raise ValueError("t must lie strictly between 0 and 1")
    s = np.sqrt(1.0 - t * t)
    return float(t * np.sqrt(1.0 + 2.0 * s) / (1.0 + s))


def bound_simple(t: float) -> float:
    """t^2: the round ball surviving both constraints without adjustment."""
    if not 0.0 < t < 1.0:
        raise ValueError("t must lie strictly between 0 and 1")
    return t * t


def bound_inradius(t: float) -> float:
    """t/(1+sqrt(1-t^2)): the inradius ball of the ellipsoid factor."""
    if not 0.0 < t < 1.0:
        raise ValueError("t must lie strictly between 0 and 1")
    return t / (1.0 + np.sqrt(1.0 - t * t))


def bound_simple_geometric(t: float) -> float:
    """bound_simple re-derived: the identity map against the cylinder."""
    return bd.largest_ball_in_cylinder(np.eye(4), bd.aw_cylinder_gw(t))


def bound_inradius_geometric(t: float) -> float:
    """bound_inradius re-derived: largest round ball in the ellipsoid."""
    return bd.largest_ball_in_ellipsoid(matrix_A_gw(t))


def _cylinder_plane_basis(cyl: bd.QuadCylinder) -> np.ndarray:
    """Orthonormal rows spanning the constrained plane of a rank-2 cylinder."""
    w, V = cyl.eigvals, cyl.eigvecs
    keep = w > 1e-10 * max(1.0, w[-1])
    if int(keep.sum()) != 2:
        raise ValueError("cylinder base plane is not two-dimensional")
    return V[:, keep].T


def _containment_radii(S: np.ndarray, cyl: bd.QuadCylinder):
    """(r_ball, r_cyl): the largest r with S B^4(r) inside B^4(1), resp. the
    cylinder.  Floats for one matrix, arrays for a stack (..., 4, 4)."""
    r_ball = 1.0 / np.linalg.svd(S, compute_uv=False)[..., 0] ** 2
    r_cyl = bd.largest_ball_in_cylinder(S, cyl)
    return (float(r_ball), r_cyl) if np.ndim(S) == 2 else (r_ball, r_cyl)


@dataclass
class EmbeddingSolution:
    """Optimal (d1, d2) with its containment radii and disc diagnostics."""

    t: float
    d1: float
    d2: float
    capacity: float
    r_ball: float
    r_cyl: float
    singular_values: tuple

    def to_json(self) -> dict:
        return {"t": self.t, "d1": self.d1, "d2": self.d2,
                "capacity": self.capacity, "r_ball": self.r_ball,
                "r_cyl": self.r_cyl,
                "singular_values": list(self.singular_values)}


def solve_embedding(t: float, cylinder: str = "gw") -> EmbeddingSolution:
    """Maximize the ball capacity fitting both constraints over (d1, d2).

    The optimum lies on the disc curve d2 - d1 = 2 kappa e (e^2 = d1 d2 - 1),
    where the shadow of S B^4 on the cylinder base plane is a disc;
    cylinder="gw" has kappa = sqrt(1-t^2)/t, and cylinder="orbit", the
    corner-frame realization of the same plane family, has kappa = 0
    (d1 = d2).  With s = sqrt(1-t^2), g = e sqrt(1+kappa^2) and
    x = (sqrt(1+g^2) - g)^2, both containment radii are explicit there:

        r_ball = x,    r_cyl = 2 t^2 x / ((1-s) + (1+s) x^2).

    They are equal where x^2 = (1-s)(1+2s)/(1+s), that is at x = f(t), and
    min(r_ball, r_cyl) peaks there on the curve: r_ball = x falls in e and
    r_cyl rises up to the crossing.  Inverting x gives
    e* = (x^(-1/2) - x^(1/2)) / (2 sqrt(1+kappa^2)); the radii and disc
    singular values returned are evaluated on S(d1, d2) at that point.
    """
    x = bound_f(t)
    if cylinder == "gw":
        cyl, kappa = bd.aw_cylinder_gw(t), np.sqrt(1.0 - t * t) / t
    elif cylinder == "orbit":
        cyl, kappa = bd.aw_cylinder_orbit(t), 0.0
    else:
        raise ValueError("cylinder must be 'gw' or 'orbit'")
    e = (1.0 / np.sqrt(x) - np.sqrt(x)) / (2.0 * np.sqrt(1.0 + kappa * kappa))
    d1, d2 = map(float, _disc_curve_point(kappa, e))
    S = matrix_S(d1, d2)
    r_ball, r_cyl = _containment_radii(S, cyl)
    s = np.linalg.svd(_cylinder_plane_basis(cyl) @ S, compute_uv=False)
    return EmbeddingSolution(t=t, d1=d1, d2=d2,
                             capacity=float(min(r_ball, r_cyl)),
                             r_ball=float(r_ball), r_cyl=float(r_cyl),
                             singular_values=(float(s[0]), float(s[1])))


def _disc_curve_point(kappa: float, e: float):
    """(d1, d2) on the disc-condition curve d2 - d1 = 2 kappa e with the
    coupling constraint e^2 = d1 d2 - 1; e = 0 gives the identity."""
    shift = kappa * e
    d1 = -shift + np.sqrt(shift * shift + 1.0 + e * e)
    return d1, d1 + 2.0 * shift


def linear_search(t: float, budget: int, seed: int = 0) -> dict:
    """Best min-containment value over random linear symplectic maps.

    The search is seeded with the optimum of the two-parameter family, so
    the returned best is at least the family optimum f(t), to rounding; samples
    are random products of symplectic transvections and unitaries, drawn
    and evaluated as one stack.
    """
    if not isinstance(budget, (int, np.integer)) or budget < 0:
        raise ValueError("budget must be a nonnegative integer, got %r" % (budget,))
    cyl = bd.aw_cylinder_gw(t)
    family = solve_embedding(t).capacity
    S = random_symplectic_matrices(2, np.random.default_rng(seed), budget)
    vals = np.minimum(*_containment_radii(S, cyl))
    above = vals[vals > family]
    best = float(above.max()) if above.size else family
    return {"t": t, "budget": budget, "best": best,
            "family_value": family,
            "best_is_family": above.size == 0,
            "improvements_over_1e-4": int(np.count_nonzero(vals > family + 1e-4)),
            "max_seen": best}


def projection_subspaces(t: float, n: int = 2) -> dict:
    """Bases of E (orthogonal to both plane normals), its symplectic
    orthogonal E^omega, and the Euclidean complement of the latter.

    Each entry lists spanning vectors of the non-complex factor; E and
    (E^omega)^perp additionally contain the first n-2 complex coordinate
    planes.
    """
    if not 0.0 < t < 1.0:
        raise ValueError("t must lie strictly between 0 and 1")
    if n < 2:
        raise ValueError("n must be at least 2")
    s = np.sqrt(1.0 - t * t)
    dim = 2 * n

    def last4(a, b, c, d):
        v = np.zeros(dim)
        v[dim - 4:] = (a, b, c, d)
        return v

    E = [last4(t, 0.0, s, 0.0), last4(0.0, 1.0, 0.0, 0.0)]
    E_omega = [last4(0.0, -s, 0.0, t), last4(0.0, 0.0, 1.0, 0.0)]
    E_omega_perp = [last4(1.0, 0.0, 0.0, 0.0), last4(0.0, t, 0.0, s)]
    n1, n2 = gw_plane_normals(t, n)
    return {"E": E, "E_omega": E_omega, "E_omega_perp": E_omega_perp,
            "normals": (n1, n2), "complex_factor_dim": dim - 4}


def projected_slice(t: float, n: int = 2) -> dict:
    """Orthogonal projection of E cap B^{2n}(1) onto (E^omega)^perp.

    In the orthonormal basis of that subspace the image is the ellipsoid
    with semiaxes (1/sqrt(pi), ..., 1/sqrt(pi), t/sqrt(pi), t/sqrt(pi)),
    so the round ball of capacity t^2 fits inside.
    """
    sub = projection_subspaces(t, n)
    dim = 2 * n
    s = np.sqrt(1.0 - t * t)

    def ambient_point(lams):
        lams = np.asarray(lams, dtype=float)
        if lams.size != dim - 2:
            raise ValueError("expected %d parameters" % (dim - 2))
        out = np.zeros(dim)
        out[: dim - 4] = lams[: dim - 4]
        out[dim - 4] = lams[-2] * t
        out[dim - 3] = lams[-1] * t * t
        out[dim - 2] = 0.0
        out[dim - 1] = lams[-1] * t * s
        return out

    semiaxes = np.full(dim - 2, 1.0 / np.sqrt(np.pi))
    semiaxes[-2:] = t / np.sqrt(np.pi)
    return {"subspaces": sub, "ambient_point": ambient_point,
            "semiaxes": semiaxes, "contains_ball_capacity": t * t}


def area_exact_Sh(t: float, h):
    """Area of S_h = R cap D(1-h) in closed form, by sectors.

    R is the region of the unit-area disc left of the right half-boundary
    of the inscribed ellipse with axes p = t/sqrt(pi), q = 1/sqrt(pi).  The
    circle rho^2 = (1-h)/pi meets it at the ellipse parameter phi,
    cos^2 phi = clip((q^2 - rho^2)/(q^2 - p^2), 0, 1), and polar angle
    th* = atan2(q sin phi, p cos phi), so area = (1-h)/2 + p q phi +
    rho^2 (pi/2 - th*).  The clip gives phi = th* = 0 for a disc inside the
    ellipse and pi/2 at h = 0.  h (a scalar, giving a float, or an array)
    may overshoot [0, (1+t)/2] by 1e-12 and is clipped to it.
    """
    require_finite("t", t)
    require_finite("h", h)
    if not 0.0 < t < 1.0:
        raise ValueError("t must lie strictly between 0 and 1")
    top = (1.0 + t) / 2.0
    h = np.asarray(h, dtype=float)
    bad = (h < -1e-12) | (h > top + 1e-12)
    if np.any(bad):
        raise ValueError("h=%g outside [0, (1+t)/2]" % h[bad].flat[0])
    h = np.clip(h, 0.0, top)
    p = t / np.sqrt(np.pi)
    q = 1.0 / np.sqrt(np.pi)
    rho2 = (1.0 - h) / np.pi
    cos_phi = np.sqrt(np.clip((q * q - rho2) / (q * q - p * p), 0.0, 1.0))
    phi = np.arccos(cos_phi)
    th_star = np.arctan2(q * np.sin(phi), p * cos_phi)
    area = 0.5 * (1.0 - h) + p * q * phi + rho2 * (0.5 * np.pi - th_star)
    return float(area) if area.ndim == 0 else area


def area_exact_Sh_sectors(t: float, h: float) -> float:
    """Closed-form oracle for area_exact_Sh via circular and elliptic sectors."""
    p = t / np.sqrt(np.pi)
    q = 1.0 / np.sqrt(np.pi)
    rho = np.sqrt(max(1.0 - h, 0.0) / np.pi)
    if rho <= p:
        right = 0.5 * np.pi * rho * rho
    elif rho >= q:
        right = 0.5 * np.pi * p * q
    else:
        cos_phi = np.sqrt((q * q - rho * rho) / (q * q - p * p))
        phi = np.arccos(np.clip(cos_phi, -1.0, 1.0))
        xs, ys = p * cos_phi, q * np.sin(phi)
        theta = np.arctan2(ys, xs)
        right = p * q * phi + rho * rho * (0.5 * np.pi - theta)
    return 0.5 * (1.0 - h) + right


def area_feasibility(t: float, h_grid, tol: float = 1e-8, strict: bool = False) -> list:
    """Disc area, printed and repaired lower bounds, and exact area of S_h.

    The printed bound (1-h)/2 + (t/2) sqrt(1-h) adds the right half-ellipse
    with semi-axes t/sqrt(pi) and sqrt((1-h)/pi); for 1-h < t^2 that
    half-ellipse leaves D(1-h) and the bound overshoots area(S_h).  The
    repaired bound clips its x-semi-axis to sqrt((1-h)/pi), giving
    (1-h)/2 + sqrt(1-h) min(t, sqrt(1-h)) / 2: the printed bound where
    1-h >= t^2 and the exact area 1-h in the corner.

    Returns one row per h with the comparison flags of both chains.  With
    strict=True an AssertionError is raised at the first row where the
    printed chain fails.
    """
    h_grid = np.array(list(h_grid), dtype=float)
    areas = area_exact_Sh(t, h_grid).tolist()
    hs = np.clip(h_grid, 0.0, (1.0 + t) / 2.0)
    rows = []
    for h, exact in zip(hs.tolist(), areas):
        disc = (1.0 + t) / 2.0 - h
        s = np.sqrt(1.0 - h)
        lower = 0.5 * (1.0 - h) + 0.5 * t * s
        repaired = 0.5 * (1.0 - h) + 0.5 * min(t, s) * s
        row = {"h": h, "disc_area": disc, "lower_bound": lower, "exact_area": exact,
               "disc_le_lower": disc <= lower + tol,
               "lower_le_exact": lower <= exact + tol,
               "disc_le_exact": disc <= exact + tol,
               "repaired_bound": repaired,
               "disc_le_repaired": disc <= repaired + tol,
               "repaired_le_exact": repaired <= exact + tol}
        if strict and not row["disc_le_lower"]:
            raise AssertionError("disc area exceeds printed bound at h=%g" % h)
        if strict and not row["lower_le_exact"]:
            raise AssertionError("printed bound exceeds exact area at h=%g" % h)
        rows.append(row)
    return rows


def family_upper_bound(t: float, eps: float, L: float, N: int = 192,
                       restarts: int = 4, seed: int = 0) -> dict:
    """(1 + sqrt(2) eps L / lambda)^2 times the capacity of A^L M_t B^4(1).

    lambda is the smallest support value of the stretched ellipsoid over
    the unit sphere; the capacity factor is estimated with the dual-action
    minimizer and cross-checked against the normal-form oracle.
    """
    if not 0.0 < t < 1.0:
        raise ValueError("t must lie strictly between 0 and 1")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if L <= 1.0:
        raise ValueError("L must exceed 1")
    body = bd.EllipsoidBody.from_linear_image(matrix_AL(L) @ matrix_Mt(t))
    lam = body.smallest_width()
    est = ehz_capacity(body, N=N, restarts=restarts, seed=seed)
    oracle = bd.ellipsoid_ehz_oracle(body)
    prefactor = (1.0 + np.sqrt(2.0) * eps * L / lam) ** 2
    return {"t": t, "eps": eps, "L": L, "lambda": lam,
            "capacity_estimate": est.capacity, "capacity_oracle": oracle,
            "prefactor": prefactor, "value": prefactor * est.capacity}


def schedule_family_upper_bound(t: float, delta: float, seed: int = 0,
                                L_grid=(2.0, 4.0, 8.0, 16.0)) -> dict:
    """Find (L, eps) with family_upper_bound value at most t + delta."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    for L in L_grid:
        body = bd.EllipsoidBody.from_linear_image(matrix_AL(L) @ matrix_Mt(t))
        cap = bd.ellipsoid_ehz_oracle(body)
        if cap >= t + 0.75 * delta:
            continue
        lam = body.smallest_width()
        # prefactor budget (1 + x)^2 cap <= t + delta, spent half-way to
        # leave room for optimizer error in the capacity estimate
        x = np.sqrt((t + delta) / cap) - 1.0
        eps = 0.5 * x * lam / (np.sqrt(2.0) * L)
        result = family_upper_bound(t, eps, L, seed=seed)
        if result["value"] <= t + delta:
            return result
    raise RuntimeError("no (L, eps) found below t + delta on the schedule grid")


@dataclass
class BoundTable:
    """Per-t rows of the three lower bounds and the upper bound t."""

    ts: np.ndarray
    simple: np.ndarray
    inradius: np.ndarray
    f: np.ndarray
    upper: np.ndarray

    @classmethod
    def on_grid(cls, ts) -> "BoundTable":
        ts = np.asarray(list(ts), dtype=float)
        if np.any((ts <= 0.0) | (ts >= 1.0)):
            raise ValueError("grid values must lie strictly between 0 and 1")
        return cls(ts=ts,
                   simple=np.array([bound_simple(t) for t in ts]),
                   inradius=np.array([bound_inradius(t) for t in ts]),
                   f=np.array([bound_f(t) for t in ts]),
                   upper=ts.copy())

    def rows(self):
        for i, t in enumerate(self.ts):
            yield (t, self.simple[i], self.inradius[i], self.f[i], self.upper[i])

    def to_csv(self) -> str:
        lines = ["t,bound_t2,bound_inradius,bound_f,upper_t"]
        for row in self.rows():
            lines.append(",".join(f"{x:.12g}" for x in row))
        return "\n".join(lines) + "\n"

    def to_svg(self, width: int = 640, height: int = 480) -> str:
        """Line chart with exactly four polylines (one per column)."""
        margin = 50.0
        w, hgt = float(width), float(height)

        def sx(t):
            return margin + t * (w - 2 * margin)

        def sy(v):
            return hgt - margin - v * (hgt - 2 * margin)

        curves = [("bound_t2", self.simple, "#1f77b4"),
                  ("bound_inradius", self.inradius, "#2ca02c"),
                  ("bound_f", self.f, "#d62728"),
                  ("upper_t", self.upper, "#7f7f7f")]
        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
            f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
            f'<line x1="{margin}" y1="{hgt - margin}" x2="{w - margin}" y2="{hgt - margin}" stroke="black"/>',
            f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{hgt - margin}" stroke="black"/>',
        ]
        for name, vals, color in curves:
            pts = " ".join(f"{sx(t):.2f},{sy(v):.2f}" for t, v in zip(self.ts, vals))
            parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>')
            ix = int(0.82 * len(self.ts))
            parts.append(f'<text x="{sx(self.ts[ix]) + 4:.2f}" y="{sy(vals[ix]):.2f}" '
                         f'font-size="11" fill="{color}">{name}</text>')
        parts.append("</svg>")
        return "\n".join(parts) + "\n"
