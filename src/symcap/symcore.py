"""Linear symplectic algebra on R^{2n} in interleaved coordinates.

Vectors are plain numpy arrays ordered (x1, y1, ..., xn, yn).  The standard
symplectic form is omega(u, v) = <J u, v> with J the block-diagonal complex
structure, normalized so omega(e_x1, e_y1) = +1.  All printed 4x4 blocks
below act on the last two complex coordinates (x_{n-1}, y_{n-1}, x_n, y_n).
"""

from dataclasses import dataclass, field

import numpy as np

SYMPLECTIC_TOL = 1e-9


def require_finite(name: str, value) -> None:
    """ValueError naming `name` unless every entry of value is finite."""
    if not np.all(np.isfinite(value)):
        raise ValueError("%s must be finite, got %r" % (name, value))


def standard_J(n: int) -> np.ndarray:
    """Complex-structure matrix J: e_{x_i} -> e_{y_i}, e_{y_i} -> -e_{x_i}."""
    if n < 1:
        raise ValueError("dimension n must be a positive integer")
    J = np.zeros((2 * n, 2 * n))
    for i in range(n):
        J[2 * i, 2 * i + 1] = -1.0
        J[2 * i + 1, 2 * i] = 1.0
    return J


def apply_J(u: np.ndarray) -> np.ndarray:
    """J u without building the matrix; works on (..., 2n) arrays."""
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    out[..., 0::2] = -u[..., 1::2]
    out[..., 1::2] = u[..., 0::2]
    return out


def symplectic_form(u, v) -> float:
    """omega(u, v) = <J u, v>; bilinear and antisymmetric."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.ndim != 1 or u.size % 2 != 0:
        raise ValueError("arguments must be equal-length even-dimensional vectors")
    return float(apply_J(u) @ v)


def is_symplectic(M: np.ndarray, tol: float = SYMPLECTIC_TOL) -> bool:
    """True iff ||M^T J M - J||_max <= tol."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] % 2 != 0:
        raise ValueError("matrix must be square of even size")
    if tol <= 0:
        raise ValueError("tol must be positive")
    J = standard_J(M.shape[0] // 2)
    return float(np.max(np.abs(M.T @ J @ M - J))) <= tol


def _spectral(A: np.ndarray, f) -> np.ndarray:
    """f applied to the eigenvalues of the symmetric matrix A."""
    w, V = np.linalg.eigh(A)
    return (V * f(w)) @ V.T


def symplectic_normalizer(Q: np.ndarray) -> np.ndarray:
    """The symmetric positive definite symplectic S with S Q S commuting with J.

    For the ellipsoid K with support sqrt(u^T Q u), SK has support
    sqrt(u^T S Q S u) and is a unitary image of its normal form
    E(c_1, ..., c_n).  With G = Q^-1 and C = G^{1/2} J G^{1/2},
    S^2 = G^{1/2} (-C^2)^{-1/2} G^{1/2}, which is T^T T for every symplectic
    T taking G to its Williamson diagonal form (Williamson 1936), so S does
    not depend on T's unitary freedom.  Its symplectic error grows with
    cond Q.  S is exactly the identity when Q commutes with J (J^T Q J = Q
    bit for bit: nothing to move) or is not numerically positive definite
    (its smallest eigenvalue at most 2n eps times its largest: no ellipsoid
    to move).
    """
    Q = np.asarray(Q, dtype=float)
    m = Q.shape[0]
    J = standard_J(m // 2)
    if np.array_equal(J.T @ Q @ J, Q):
        return np.eye(m)
    w, V = np.linalg.eigh(Q)
    if w[0] <= m * np.finfo(float).eps * w[-1]:
        return np.eye(m)
    root_G = (V / np.sqrt(w)) @ V.T
    C = root_G @ J @ root_G
    S = _spectral(root_G @ _spectral(C @ C.T, lambda x: x ** -0.5) @ root_G, np.sqrt)
    return 0.5 * (S + S.T)


def kahler_angle(n1, n2, tol: float = 1e-8) -> float:
    """|omega(n1, n2)| for a unit orthogonal pair, clamped to [0, 1].

    t = 1 means the pair spans a complex plane, t = 0 a Lagrangian one.
    """
    n1 = np.asarray(n1, dtype=float)
    n2 = np.asarray(n2, dtype=float)
    if abs(n1 @ n1 - 1.0) > tol or abs(n2 @ n2 - 1.0) > tol:
        raise ValueError("normals must be unit vectors")
    if abs(n1 @ n2) > tol:
        raise ValueError("normals must be orthogonal")
    return float(np.clip(abs(symplectic_form(n1, n2)), 0.0, 1.0))


def plane_kahler_angle(b1, b2) -> float:
    """Kahler angle of the plane spanned by two independent vectors."""
    b1 = np.asarray(b1, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    u1 = b1 / np.linalg.norm(b1)
    w = b2 - (b2 @ u1) * u1
    nw = np.linalg.norm(w)
    if nw < 1e-12:
        raise ValueError("vectors do not span a plane")
    return kahler_angle(u1, w / nw)


def _embed_block(block: np.ndarray, n: int) -> np.ndarray:
    """Identity on the first 2n-4 coordinates, 4x4 block on the rest.

    A stack of blocks (..., 4, 4) gives a stack (..., 2n, 2n).
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    M = np.broadcast_to(np.eye(2 * n), block.shape[:-2] + (2 * n, 2 * n)).copy()
    M[..., 2 * n - 4:, 2 * n - 4:] = block
    return M


def matrix_Mt(t: float, n: int = 2) -> np.ndarray:
    """Symplectic matrix whose ball image has hyperplane slice of capacity t.

    The 4x4 block couples the last two complex coordinates with entries
    t/sqrt(1-t^2) and sqrt(1-t^2)/t; it is symplectic for every t in (0,1)
    and degenerates at both endpoints.
    """
    if not 0.0 < t < 1.0:
        raise ValueError("t must lie strictly between 0 and 1")
    a = t / np.sqrt(1.0 - t * t)
    b = np.sqrt(1.0 - t * t) / t
    block = np.array([
        [a, 0.0, 0.0, -1.0],
        [0.0, b, 0.0, 0.0],
        [0.0, -1.0, a, 0.0],
        [0.0, 0.0, 0.0, b],
    ])
    return _embed_block(block, n)


def matrix_A_orbit_inv(t: float) -> np.ndarray:
    """The 4x4 matrix A^{-1} adapted to the corner-orbit frame (v1, v2)."""
    if not 0.0 < t < 1.0:
        raise ValueError("t must lie strictly between 0 and 1")
    c = np.sqrt((1.0 + t) / (2.0 * t))
    d = np.sqrt((1.0 - t) / (2.0 * t))
    return np.array([
        [c, 0.0, d, 0.0],
        [0.0, c, 0.0, -d],
        [d, 0.0, c, 0.0],
        [0.0, -d, 0.0, c],
    ])


def matrix_A_orbit(t: float) -> np.ndarray:
    """Inverse of matrix_A_orbit_inv, in closed form (flip the off-diagonal sign)."""
    if not 0.0 < t < 1.0:
        raise ValueError("t must lie strictly between 0 and 1")
    c = np.sqrt((1.0 + t) / (2.0 * t))
    d = np.sqrt((1.0 - t) / (2.0 * t))
    return np.array([
        [c, 0.0, -d, 0.0],
        [0.0, c, 0.0, d],
        [-d, 0.0, c, 0.0],
        [0.0, d, 0.0, c],
    ])


def matrix_A_gw(t: float, n: int = 2) -> np.ndarray:
    """Symplectic matrix taking the Kahler-angle-t plane family to the complex one.

    Normals (0,...,sqrt(1-t^2),0,-t,0) and (0,...,0,1) are mapped, up to a
    common scale sqrt(t), to the complex pair (e_{x_n}, e_{y_n}).
    """
    if not 0.0 < t < 1.0:
        raise ValueError("t must lie strictly between 0 and 1")
    a = 1.0 / np.sqrt(t)
    b = np.sqrt(t)
    g = np.sqrt((1.0 - t * t) / t)
    block = np.array([
        [a, 0.0, 0.0, 0.0],
        [0.0, b, 0.0, g],
        [-g, 0.0, b, 0.0],
        [0.0, 0.0, 0.0, a],
    ])
    return _embed_block(block, n)


def matrix_S(d1, d2, n: int = 2) -> np.ndarray:
    """Two-parameter symplectic family interpolating the two basic embeddings.

    Requires d1*d2 >= 1; equals the identity at d1 = d2 = 1.  Array d1, d2
    (broadcast together) give the stack (..., 2n, 2n) of their matrices.
    """
    d1, d2 = np.broadcast_arrays(np.asarray(d1, dtype=float), np.asarray(d2, dtype=float))
    if np.any(d1 <= 0) or np.any(d2 <= 0):
        raise ValueError("d1 and d2 must be positive")
    if np.any(d1 * d2 < 1.0 - 1e-12):
        raise ValueError("need d1*d2 >= 1 for a real coupling entry")
    e = np.sqrt(np.maximum(d1 * d2 - 1.0, 0.0))
    block = np.zeros(d1.shape + (4, 4))
    block[..., 0, 0] = block[..., 3, 3] = d1
    block[..., 1, 1] = block[..., 2, 2] = d2
    block[..., 0, 2] = block[..., 2, 0] = e
    block[..., 1, 3] = block[..., 3, 1] = -e
    return _embed_block(block, n)


def matrix_AL(L: float, n: int = 2) -> np.ndarray:
    """Diagonal map scaling the last complex coordinate z_n by L.

    Not symplectic for L != 1 (it scales the symplectic area of the z_n
    block by L^2); returned as a plain matrix with no symplecticity check.
    """
    require_finite("L", L)
    if L <= 0:
        raise ValueError("L must be positive")
    if n < 1:
        raise ValueError("n must be a positive integer")
    D = np.eye(2 * n)
    D[2 * n - 2, 2 * n - 2] = L
    D[2 * n - 1, 2 * n - 1] = L
    return D


def _unitary_from_gaussian(Z: np.ndarray) -> np.ndarray:
    """Real 2n x 2n form of the phase-fixed QR factor of complex Z (..., n, n)."""
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R, axis1=-2, axis2=-1)
    Q = Q * (d / np.abs(d))[..., None, :]
    n = Z.shape[-1]
    M = np.zeros(Z.shape[:-2] + (2 * n, 2 * n))
    re, im = Q.real, Q.imag
    M[..., 0::2, 0::2] = re
    M[..., 0::2, 1::2] = -im
    M[..., 1::2, 0::2] = im
    M[..., 1::2, 1::2] = re
    return M


def random_unitary_matrix(n: int, rng: np.random.Generator) -> np.ndarray:
    """Real 2n x 2n representation of a Haar-ish random U(n) element.

    The result is both orthogonal and symplectic (it commutes with J).
    """
    Z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return _unitary_from_gaussian(Z)


def symplectic_transvection(v: np.ndarray, c: float) -> np.ndarray:
    """x -> x + c * omega(x, v) v, an elementary symplectic map."""
    v = np.asarray(v, dtype=float)
    return np.eye(v.size) - c * np.outer(v, apply_J(v))


def random_symplectic_matrix(n: int, rng: np.random.Generator,
                             transvections: int = 6, scale: float = 0.3) -> np.ndarray:
    """Random element of Sp(2n): a unitary times a few random transvections."""
    M = random_unitary_matrix(n, rng)
    for _ in range(transvections):
        v = rng.normal(size=2 * n)
        v /= np.linalg.norm(v)
        M = M @ symplectic_transvection(v, rng.normal(scale=scale))
    return M


def random_symplectic_matrices(n: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """count draws of random_symplectic_matrix(n, rng) as one (count, 2n, 2n) stack.

    Consumes the generator stream of count scalar calls with their default
    six transvections of scale 0.3: per sample the real and the imaginary
    n x n block, then one (v, c) pair per transvection.
    """
    m, transvections = 2 * n, 6
    z = rng.standard_normal((count, 2 * n * n + transvections * (m + 1)))
    Z = z[:, :n * n].reshape(count, n, n) + 1j * z[:, n * n:2 * n * n].reshape(count, n, n)
    M = _unitary_from_gaussian(Z)
    pairs = z[:, 2 * n * n:].reshape(count, transvections, m + 1)
    for k in range(transvections):
        v = pairs[:, k, :m]
        v = v / np.linalg.norm(v, axis=-1, keepdims=True)
        c = 0.3 * pairs[:, k, m]
        M = M @ (np.eye(m) - c[:, None, None] * (v[:, :, None] * apply_J(v)[:, None, :]))
    return M


@dataclass(frozen=True)
class KahlerAngleDatum:
    """Unit orthogonal normal pair of a codimension-two plane family.

    The angle t = |omega(n1, n2)| is derived and validated; eps is the
    optional lattice spacing when the pair describes a parallel family.
    """

    n1: np.ndarray
    n2: np.ndarray
    eps: float | None = None
    t: float = field(init=False)

    def __post_init__(self):
        n1 = np.asarray(self.n1, dtype=float)
        n2 = np.asarray(self.n2, dtype=float)
        object.__setattr__(self, "n1", n1)
        object.__setattr__(self, "n2", n2)
        if abs(n1 @ n1 - 1.0) > 1e-10 or abs(n2 @ n2 - 1.0) > 1e-10:
            raise ValueError("normals must be unit vectors")
        if abs(n1 @ n2) > 1e-10:
            raise ValueError("normals must be orthogonal")
        if self.eps is not None and self.eps <= 0:
            raise ValueError("lattice spacing must be positive")
        object.__setattr__(self, "t", float(abs(symplectic_form(n1, n2))))


def gw_plane_normals(t: float, n: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """The normal pair (sqrt(1-t^2) e_{x_{n-1}} - t e_{x_n}, e_{y_n})."""
    if not 0.0 < t < 1.0:
        raise ValueError("t must lie strictly between 0 and 1")
    n1 = np.zeros(2 * n)
    n1[2 * n - 4] = np.sqrt(1.0 - t * t)
    n1[2 * n - 2] = -t
    n2 = np.zeros(2 * n)
    n2[2 * n - 1] = 1.0
    return n1, n2


def mt_plane_normals(t: float, n: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """The normal pair (-sqrt(1-t^2) e_{y_{n-1}} + t e_{x_n}, e_{y_n})."""
    if not 0.0 < t < 1.0:
        raise ValueError("t must lie strictly between 0 and 1")
    n1 = np.zeros(2 * n)
    n1[2 * n - 3] = -np.sqrt(1.0 - t * t)
    n1[2 * n - 2] = t
    n2 = np.zeros(2 * n)
    n2[2 * n - 1] = 1.0
    return n1, n2
