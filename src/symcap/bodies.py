"""Convex bodies through support functions and membership tests.

Bodies are immutable and use the capacity normalization throughout: the
round ball of capacity r has Euclidean radius sqrt(r/pi).  Realizations
cover balls, ellipsoids (linear images of balls), quadratic cylinders of
deficient rank, and ellipsoid-cylinder intersections whose support values
come from a two-multiplier KKT dual.
"""

import numpy as np

from .symcore import matrix_A_gw, matrix_A_orbit, require_finite, standard_J

_RANGE_TOL = 1e-10
# Multiplier search of the non-uniform KKT branch: at most this many
# doublings of the bracket [0, 1] (mu up to 2^200), and this many halvings,
# enough to shrink any such bracket to one ulp.
_DOUBLINGS = 200
_BISECTIONS = 1100


class UnboundedDirectionError(ValueError):
    """Raised when a support value is +infinity in the queried direction."""


class ConvexBody:
    """Interface: support_batch(U, smooth), the one support kernel each body
    implements; kinked, membership(p, tol), to_json().  The scalar API,
    support_with_point(u) -> (value, maximizer) and support(u), runs that
    kernel on the single row u."""

    dim: int

    def support(self, u) -> float:
        h, _ = self.support_with_point(u)
        return h

    def support_with_point(self, u):
        h, P = self.support_batch(np.asarray(u, dtype=float)[None, :])
        return float(h[0]), P[0]

    @property
    def kinked(self) -> bool:
        """True when support_batch's smooth parameter changes the values."""
        return False

    def support_batch(self, U: np.ndarray, smooth: float = 0.0):
        """Support over the rows of U; returns (values, gradients).

        The gradient rows are maximizer points where the support is
        differentiable.  smooth is accepted everywhere but only affects
        bodies with support kinks away from the origin (see kinked).
        """
        raise NotImplementedError

    def membership(self, p, tol: float = 1e-9) -> bool:
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


class EllipsoidBody(ConvexBody):
    """Centered ellipsoid {p : p^T Q^{-1} p <= 1} with support sqrt(u^T Q u).

    For a linear image M B^{2n}(r) of the capacity-r ball, Q = (r/pi) M M^T.
    """

    def __init__(self, Q: np.ndarray):
        Q = np.asarray(Q, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1] or Q.shape[0] % 2 != 0:
            raise ValueError("Q must be square of even size")
        require_finite("Q", Q)
        Q = 0.5 * (Q + Q.T)
        w = np.linalg.eigvalsh(Q)
        if w[0] < -1e-12 * max(1.0, w[-1]):
            raise ValueError("Q must be positive semidefinite")
        if w[0] <= 1e-14 * max(1.0, w[-1]):
            raise ValueError("degenerate ellipsoid: Q is singular")
        self.Q = Q
        self._G = np.linalg.inv(Q)
        self.dim = Q.shape[0]

    @classmethod
    def from_linear_image(cls, M: np.ndarray, r: float = 1.0) -> "EllipsoidBody":
        M = np.asarray(M, dtype=float)
        return cls((r / np.pi) * M @ M.T)

    @classmethod
    def from_radii(cls, radii) -> "EllipsoidBody":
        """Axis-aligned E(r_1, ..., r_n): pi * sum |z_i|^2 / r_i <= 1."""
        radii = np.asarray(radii, dtype=float)
        if radii.size == 0 or np.any(radii <= 0):
            raise ValueError("capacities must be positive")
        return cls(np.diag(np.repeat(radii, 2)) / np.pi)

    def support_batch(self, U, smooth: float = 0.0):
        U = np.asarray(U, dtype=float)
        QU = U @ self.Q
        h = np.sqrt(np.maximum(np.einsum("ij,ij->i", U, QU), 0.0))
        safe = np.where(h > 0.0, h, 1.0)
        return h, QU / safe[:, None]

    def membership(self, p, tol: float = 1e-9) -> bool:
        p = np.asarray(p, dtype=float)
        return float(p @ self._G @ p) <= 1.0 + tol

    def linear_image(self, M: np.ndarray) -> "EllipsoidBody":
        M = np.asarray(M, dtype=float)
        return EllipsoidBody(M @ self.Q @ M.T)

    def capacities(self) -> np.ndarray:
        """Symplectic normal-form capacities (pi / symplectic eigenvalues)."""
        return symplectic_spectrum_capacities(self._G)

    def smallest_width(self) -> float:
        """min over unit u of support(u): the smallest Euclidean semi-axis."""
        return float(np.sqrt(np.linalg.eigvalsh(self.Q)[0]))

    def to_json(self) -> dict:
        return {"kind": "ellipsoid-q", "n": self.dim // 2, "Q": self.Q.tolist()}


class CapacityBall(EllipsoidBody):
    """Round ball B^{2n}(r) of capacity r (Euclidean radius sqrt(r/pi))."""

    def __init__(self, r: float, n: int):
        require_finite("r", r)
        if r <= 0:
            raise ValueError("capacity must be positive")
        if n < 1:
            raise ValueError("n must be a positive integer")
        super().__init__((r / np.pi) * np.eye(2 * n))
        self.r = float(r)
        self.n = int(n)

    def support_batch(self, U, smooth: float = 0.0):
        U = np.asarray(U, dtype=float)
        nu = np.linalg.norm(U, axis=1)
        rad = np.sqrt(self.r / np.pi)
        safe = np.where(nu > 0.0, nu, 1.0)
        return rad * nu, (rad / safe)[:, None] * U

    def to_json(self) -> dict:
        return {"kind": "ball", "n": self.n, "r": self.r}


class QuadCylinder(ConvexBody):
    """Unbounded body {p : p^T C p <= c} with C positive semidefinite of
    deficient rank.  Support is finite only for directions in range(C)."""

    def __init__(self, C: np.ndarray, level: float):
        C = np.asarray(C, dtype=float)
        if C.ndim != 2 or C.shape[0] != C.shape[1] or C.shape[0] % 2 != 0:
            raise ValueError("C must be square of even size")
        require_finite("C", C)
        require_finite("level", level)
        if level <= 0:
            raise ValueError("level must be positive")
        C = 0.5 * (C + C.T)
        w, V = np.linalg.eigh(C)
        if w[0] < -1e-10 * max(1.0, w[-1]):
            raise ValueError("C must be positive semidefinite")
        w = np.maximum(w, 0.0)
        rank = int(np.sum(w > _RANGE_TOL * max(1.0, w[-1])))
        if rank >= C.shape[0]:
            raise ValueError("C has full rank: not a cylinder")
        self.C = C
        self.level = float(level)
        self.dim = C.shape[0]
        self.eigvals = w
        self.eigvecs = V
        self.rank = rank

    def support_batch(self, U, smooth: float = 0.0):
        U = np.asarray(U, dtype=float)
        w, V = self.eigvals, self.eigvecs
        null = w <= _RANGE_TOL * max(1.0, w[-1])
        coeff = U @ V
        off = (np.linalg.norm(coeff[:, null], axis=1)
               > 1e-9 * np.maximum(1.0, np.linalg.norm(U, axis=1)))
        if off.any():
            raise UnboundedDirectionError("support is unbounded in direction %s"
                                          % np.array2string(U[off][0], precision=4))
        x = coeff[:, ~null] / w[~null]
        quad = np.einsum("ij,ij->i", coeff[:, ~null], x)
        scale = np.sqrt(self.level * _reciprocal(quad))
        return np.sqrt(self.level * quad), (scale[:, None] * x) @ V[:, ~null].T

    def membership(self, p, tol: float = 1e-9) -> bool:
        p = np.asarray(p, dtype=float)
        return float(p @ self.C @ p) <= self.level * (1.0 + tol)

    def to_json(self) -> dict:
        return {"kind": "quad-cylinder", "n": self.dim // 2,
                "C": self.C.tolist(), "level": self.level}


def aw_cylinder(A: np.ndarray) -> QuadCylinder:
    """A^{-1} W for the cylinder W = (slice of A B^{2n}(1)) x z_n-plane.

    Membership is pi * |A^{-1} Pi A p|^2 <= 1 with Pi zeroing the z_n block.
    """
    A = np.asarray(A, dtype=float)
    m = A.shape[0]
    Pi = np.eye(m)
    Pi[m - 2:, m - 2:] = 0.0
    M = np.linalg.solve(A, Pi @ A)
    return QuadCylinder(np.pi * M.T @ M, 1.0)


def aw_cylinder_gw(t: float, n: int = 2) -> QuadCylinder:
    """The cylinder of the Gromov-width bound family."""
    return aw_cylinder(matrix_A_gw(t, n))


def frame_cylinder(t: float) -> QuadCylinder:
    """Rank-two form pi(<p,Jv1>^2 + <p,Jv2>^2) <= t^2 on R^4."""
    from .orbits import OrbitFrame
    f = OrbitFrame.standard(t)
    C = np.pi * (np.outer(f.jv1, f.jv1) + np.outer(f.jv2, f.jv2))
    return QuadCylinder(C, t * t)


def aw_cylinder_orbit(t: float) -> QuadCylinder:
    """Same set as frame_cylinder, built from the general membership form."""
    return aw_cylinder(matrix_A_orbit(t))


class IntersectionBody(ConvexBody):
    """Intersection of an ellipsoid and a quadratic cylinder."""

    def __init__(self, ellipsoid: EllipsoidBody, cylinder: QuadCylinder):
        if ellipsoid.dim != cylinder.dim:
            raise ValueError("dimension mismatch")
        self.ellipsoid = ellipsoid
        self.cylinder = cylinder
        self.dim = ellipsoid.dim
        self._solver = _IntersectionSupport(ellipsoid, cylinder)

    @property
    def kinked(self) -> bool:
        # only the closed-form branch of the KKT solver rounds the kink
        return bool(self._solver._uniform)

    def support_batch(self, U, smooth: float = 0.0):
        """Exact for smooth = 0.  On a uniform whitened cylinder spectrum a
        small positive smooth parameter rounds the conical kink of the face
        directions at relative error O(smooth), which keeps quasi-Newton
        support gradients Lipschitz.  On a non-uniform spectrum smooth is
        ignored, which is why kinked is False there."""
        return self._solver.solve(np.asarray(U, dtype=float), smooth=smooth)

    def membership(self, p, tol: float = 1e-9) -> bool:
        return self.ellipsoid.membership(p, tol) and self.cylinder.membership(p, tol)

    def to_json(self) -> dict:
        return {"kind": "intersection", "n": self.dim // 2,
                "ellipsoid": self.ellipsoid.to_json(),
                "cylinder": self.cylinder.to_json()}


def ball_cap_cylinder_intersection(t: float, n: int = 2, r: float = 1.0) -> IntersectionBody:
    """B^{2n}(r) intersected with A^{-1} W^{2n} at Kahler angle t."""
    if n == 2:
        cyl = frame_cylinder(t)
    else:
        A = np.eye(2 * n)
        A[2 * n - 4:, 2 * n - 4:] = matrix_A_orbit(t)
        cyl = aw_cylinder(A)
    return IntersectionBody(CapacityBall(r, n), cyl)


def _reciprocal(x: np.ndarray) -> np.ndarray:
    """1/x where x > 0, and 0 where x = 0."""
    return np.divide(1.0, x, out=np.zeros_like(x), where=x > 0.0)


class _IntersectionSupport:
    """Two-multiplier KKT dual for max <p,u> over ellipsoid and cylinder.

    Whitening with Q^{1/2} turns the ellipsoid constraint into the unit
    ball; the cylinder becomes y^T D y <= c in the eigenbasis of the
    whitened form, with the null directions of D first (eigh sorts them
    there).  With at most one distinct positive eigenvalue the active-set
    system is closed form (and smooth rounds its kink).  Otherwise smooth is
    ignored and the multiplier ratio mu of all rows is solved at once: the
    cylinder residual of y = w / (1 + mu d), normalized, is monotone in mu
    (the secular equation of More and Sorensen, 1983), so each row's mu is
    bracketed by doubling and then bisected to one ulp.
    """

    def __init__(self, ellipsoid: EllipsoidBody, cylinder: QuadCylinder):
        w, V = np.linalg.eigh(ellipsoid.Q)
        sqrtQ = (V * np.sqrt(w)) @ V.T
        d, E = np.linalg.eigh(sqrtQ @ cylinder.C @ sqrtQ)
        d = np.maximum(d, 0.0)
        self._d = d
        # u -> whitened eigen-coefficients, and their maximizer y -> p
        self._to_coeff = sqrtQ @ E
        self._to_point = E.T @ sqrtQ
        self._c = cylinder.level
        self._k = int(np.sum(d <= _RANGE_TOL * max(1.0, d[-1])))
        self._null_col = np.arange(d.size) < self._k
        pos = d[self._k:]
        self._dplus = float(pos[0]) if pos.size else 0.0
        self._uniform = bool(pos.size == 0 or np.ptp(pos) <= 1e-10 * pos[-1])

    def _split(self, U: np.ndarray):
        """Whitened eigen-coefficients of the rows of U and their squared
        norms a on the null directions and b on the range directions."""
        coeff = U @ self._to_coeff
        null, span = coeff[:, :self._k], coeff[:, self._k:]
        return coeff, np.einsum("ij,ij->i", null, null), np.einsum("ij,ij->i", span, span)

    def solve(self, U: np.ndarray, smooth: float = 0.0):
        coeff, a, b = self._split(U)
        if not self._uniform:
            h, Y = self._solve_general(coeff, a, b)
            # h in whitened frame equals <y, w>, which is <p, u> exactly
            return h, Y @ self._to_point
        dp = self._dplus
        T2 = min(self._c / dp, 1.0) if dp > 0 else 1.0
        T, R = np.sqrt(T2), np.sqrt(1.0 - T2)
        # ball only: y = coeff / |coeff|.  Both active: y splits into
        # R * (null part) / sqrt(a) and T * (range part) / sqrt(b), rounded
        # at smooth > 0; its weights are the gradient of h in (a, b),
        # kap's own dependence on (a, b) included.  A zero part gets weight
        # 0, which is a maximizer there too.
        norm = np.sqrt(a + b)
        s2 = smooth * smooth
        kap = s2 * (a + b)
        sa = np.sqrt(a + kap)
        sb = np.sqrt(b + kap)
        ia, ib, inorm = _reciprocal(sa), _reciprocal(sb), _reciprocal(norm)
        ball_only = (1.0 - T2) * b <= T2 * a
        h = np.where(ball_only, norm, R * sa + T * sb)
        w_null = np.where(ball_only, inorm, R * (1.0 + s2) * ia + T * s2 * ib)
        w_range = np.where(ball_only, inorm, R * s2 * ia + T * (1.0 + s2) * ib)
        weight = np.where(self._null_col, w_null[:, None], w_range[:, None])
        return h, (weight * coeff) @ self._to_point

    def _residual(self, mu, W):
        """Cylinder residual of the normalized rows w / (1 + mu d)."""
        Y = W / (1.0 + mu[:, None] * self._d)
        Y /= np.linalg.norm(Y, axis=1)[:, None]
        return np.sum(self._d * Y * Y, axis=1) - self._c

    def _solve_general(self, W, a, b):
        d, c = self._d, self._c
        Y = W * _reciprocal(np.sqrt(a + b))[:, None]
        # rows whose normalized direction meets the cylinder see the ball only
        cut = np.flatnonzero(np.sum(d * Y * Y, axis=1) > c * (1.0 + 1e-12))
        Wc = W[cut]
        lo, hi = np.zeros(cut.size), np.ones(cut.size)
        up = self._residual(hi, Wc) > 0.0
        for _ in range(_DOUBLINGS):
            if not up.any():
                break
            lo[up] = hi[up]
            hi[up] *= 2.0
            up[up] = self._residual(hi[up], Wc[up]) > 0.0
        # the residual is positive at lo and not at hi, except on the face
        # rows still up (replaced below): halve every bracket to one ulp
        for _ in range(_BISECTIONS):
            mid = 0.5 * (lo + hi)
            if np.all((mid == lo) | (mid == hi)):
                break
            above = self._residual(mid, Wc) > 0.0
            lo = np.where(above, mid, lo)
            hi = np.where(above, hi, mid)
        Yc = Wc / (1.0 + hi[:, None] * d)
        Yc /= np.linalg.norm(Yc, axis=1)[:, None]
        # rows still up are pinned to the cylinder face: support on the
        # face, adjusted to stay inside the unit ball along null directions
        pos = d > 0
        Wf = Wc[up][:, pos]
        quad = np.sum(Wf ** 2 / d[pos], axis=1)
        if np.any(quad == 0.0):
            raise UnboundedDirectionError("degenerate multiplier system")
        Yf = np.zeros_like(Wc[up])
        Yf[:, pos] = Wf / d[pos] * np.sqrt(c / quad)[:, None]
        if np.any(np.linalg.norm(Yf, axis=1) > 1.0 + 1e-9):
            raise UnboundedDirectionError("singular multiplier system")
        Yc[up] = Yf
        Y[cut] = Yc
        return np.einsum("ij,ij->i", Y, W), Y


def largest_ball_in_ellipsoid(M: np.ndarray) -> float:
    """Capacity of the largest round ball inside M B^{2n}(1): sigma_min(M)^2."""
    M = np.asarray(M, dtype=float)
    s = np.linalg.svd(M, compute_uv=False)
    if s[-1] <= 0:
        raise ValueError("matrix is singular")
    return float(s[-1] ** 2)


def largest_ball_in_cylinder(S: np.ndarray, cyl: QuadCylinder):
    """Largest r with S B^{2n}(r) inside the cylinder: c*pi / lambda_max(S^T C S).

    S may be one matrix (a float is returned) or a stack (..., 2n, 2n) (an
    array of the stack's shape).  The radius is +inf where the cylinder form
    vanishes on the image (no constraint).
    """
    S = np.asarray(S, dtype=float)
    lam = np.linalg.eigvalsh(np.swapaxes(S, -1, -2) @ cyl.C @ S)[..., -1]
    with np.errstate(divide="ignore"):
        r = np.where(lam <= _RANGE_TOL, np.inf, cyl.level * np.pi / lam)
    return float(r) if S.ndim == 2 else r


def slice_ellipsoid(body: EllipsoidBody) -> EllipsoidBody:
    """The z_n = 0 slice {q : (q, 0, 0) in body} as a (2n-2)-dim ellipsoid:
    its form is the top-left block of the body's form Q^{-1}."""
    m = body.dim - 2
    G = body._G[:m, :m]
    w = np.linalg.eigvalsh(G)
    if w[0] <= 1e-12 * max(1.0, w[-1]):
        raise ValueError("degenerate slice")
    return EllipsoidBody(np.linalg.inv(G))


def symplectic_spectrum_capacities(G: np.ndarray) -> np.ndarray:
    """Normal-form capacities of {p : p^T G p <= 1}: sorted pi / d_i.

    The d_i are the symplectic eigenvalues of G, read off from the purely
    imaginary spectrum of J G.
    """
    G = np.asarray(G, dtype=float)
    n = G.shape[0] // 2
    ev = np.linalg.eigvals(standard_J(n) @ G)
    # the spectrum is {+/- i d_1, ..., +/- i d_n}: keep one of each pair
    d = np.sort(np.abs(ev.imag))[::2]
    return np.sort(np.pi / d)


def ellipsoid_ehz_oracle(body: EllipsoidBody) -> float:
    """Closed-form capacity of an ellipsoid: smallest normal-form capacity."""
    return float(body.capacities()[0])


def body_from_json(spec: dict) -> ConvexBody:
    """Rebuild a body from its JSON document."""
    kind = spec.get("kind")
    if kind == "ball":
        return CapacityBall(spec["r"], spec["n"])
    if kind == "ellipsoid-q":
        return EllipsoidBody(np.asarray(spec["Q"], dtype=float))
    if kind == "quad-cylinder":
        return QuadCylinder(np.asarray(spec["C"], dtype=float), spec["level"])
    if kind == "intersection":
        ell = body_from_json(spec["ellipsoid"])
        cyl = body_from_json(spec["cylinder"])
        return IntersectionBody(ell, cyl)
    raise ValueError("unknown body kind: %r" % kind)
