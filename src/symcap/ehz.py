"""EHZ capacity of convex bodies by minimizing the discretized dual action.

For a convex body T the capacity is the minimum of
(pi/2) int h_T^2(eta'(t)) dt over mean-zero loops eta with symplectic
action 1.  Both the functional and the action are 2-homogeneous, so the
constrained problem is equivalent to minimizing their ratio, which is what
the quasi-Newton solver does on a midpoint-sampled velocity grid.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .bodies import (ConvexBody, EllipsoidBody, UnboundedDirectionError,
                     ellipsoid_ehz_oracle, slice_ellipsoid)
from .symcore import apply_J, matrix_AL

# Kink-rounding levels of the descent on bodies with kinked support: each
# level warm-starts the next (smoothing continuation, Nesterov 2005).  The
# last level is the one every body descends at.
_SMOOTHING = (1e-2, 1e-3, 1e-4)

# Coarse level of the N ladder: the restarts run at N halved while it is
# even and at least twice this, and the best loop is refined from there.
_COARSE_N = 64


def _midpoints(v: np.ndarray, dt: float) -> np.ndarray:
    """Midpoint positions of the piecewise-linear loop with velocities v."""
    return dt * (np.cumsum(v, axis=0) - 0.5 * v)


@dataclass
class DualLoop:
    """Discretized mean-zero loop on [0, 2pi].

    velocities holds eta' at the N midpoints; it is stored mean-free so the
    loop closes exactly.  Positions are cumulative trapezoid sums shifted
    to integral zero.
    """

    velocities: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.velocities, dtype=float)
        if v.ndim != 2 or v.shape[1] % 2 != 0:
            raise ValueError("velocities must be an (N, 2n) array")
        self.velocities = v - v.mean(axis=0)

    @property
    def n_samples(self) -> int:
        return self.velocities.shape[0]

    @property
    def dim(self) -> int:
        return self.velocities.shape[1]

    @property
    def dt(self) -> float:
        return 2.0 * np.pi / self.n_samples

    @property
    def positions(self) -> np.ndarray:
        """Midpoint positions of the piecewise-linear loop, mean zero."""
        p = _midpoints(self.velocities, self.dt)
        return p - p.mean(axis=0)

    @classmethod
    def from_fourier(cls, coeffs_cos, coeffs_sin, N: int) -> "DualLoop":
        """Loop with velocities sum_m cos(m s) a_m + sin(m s) b_m."""
        a = np.asarray(coeffs_cos, dtype=float)
        b = np.asarray(coeffs_sin, dtype=float)
        s = (np.arange(N) + 0.5) * (2.0 * np.pi / N)
        v = np.zeros((N, a.shape[1]))
        for m in range(a.shape[0]):
            v += np.outer(np.cos((m + 1) * s), a[m]) + np.outer(np.sin((m + 1) * s), b[m])
        return cls(v)

    @classmethod
    def circle(cls, radius: float, N: int, dim: int = 4, plane=(0, 1),
               reverse: bool = False) -> "DualLoop":
        """Round loop of given Euclidean radius in a coordinate plane."""
        s = (np.arange(N) + 0.5) * (2.0 * np.pi / N)
        v = np.zeros((N, dim))
        # counterclockwise velocity (-sin, cos); clockwise flips the second
        v[:, plane[0]] = -radius * np.sin(s)
        v[:, plane[1]] = radius * np.cos(s) * (-1.0 if reverse else 1.0)
        return cls(v)

    def to_csv(self) -> str:
        labels = []
        for i in range(self.dim // 2):
            labels += [f"x{i + 1}", f"y{i + 1}"]
        rows = ["t," + ",".join(labels)]
        s = (np.arange(self.n_samples) + 0.5) * self.dt
        for si, pi in zip(s, self.positions):
            rows.append(",".join([f"{si:.12g}"] + [f"{c:.12g}" for c in pi]))
        return "\n".join(rows) + "\n"


def loop_action(loop: DualLoop) -> float:
    """Discrete symplectic action (1/2) sum omega(eta_j, eta'_j) dt.

    Positive for a positively-oriented circle in the (x1, y1) plane; for a
    piecewise-linear loop this equals the enclosed omega-area exactly.
    """
    v = loop.velocities
    p = _midpoints(v, loop.dt)
    return 0.5 * loop.dt * float(np.einsum("ij,ij->", apply_J(p), v))


def clarke_functional(loop: DualLoop, body: ConvexBody) -> float:
    """(pi/2) sum h_body(eta'_j)^2 dt."""
    try:
        h, _ = body.support_batch(loop.velocities)
    except UnboundedDirectionError as exc:
        raise UnboundedDirectionError(
            "loop velocity hits an unbounded support direction: %s" % exc) from exc
    return 0.5 * np.pi * loop.dt * float(np.sum(h * h))


@dataclass
class EhzResult:
    """Best minimizer over restarts with convergence diagnostics.

    The restarts run at the coarse level N0 of the ladder (N0 = N when
    there is no ladder).  history holds each restart's exact ratio at N0;
    restart_log holds one record per restart: value (that ratio), nit and
    nfev summed over the smoothing stages, the number of stages, the last
    stage's stop message and grad_norm, the gradient norm of the rounded
    objective that stage minimized.  restart_agreement counts the restarts
    whose ratio lies within 1e-6 relative of min(history); a low count
    means restarts stalled elsewhere.  polish holds one record per
    doubling of N: N, nit, nfev and the stop message.  converged and
    grad_norm describe the last stage run, at N.
    """

    capacity: float
    loop: DualLoop
    restarts: int
    n_samples: int
    seed: int
    converged: bool
    grad_norm: float
    history: list = field(default_factory=list)
    restart_log: list = field(default_factory=list)
    polish: list = field(default_factory=list)

    @property
    def restart_agreement(self) -> int:
        best = min(self.history)
        return sum(abs(h - best) <= 1e-6 * abs(best) for h in self.history)

    def to_json(self) -> dict:
        return {
            "capacity": self.capacity,
            "N": self.n_samples,
            "restarts": self.restarts,
            "seed": self.seed,
            "converged": self.converged,
            "grad_norm": self.grad_norm,
            "history": self.history,
            "restart_agreement": self.restart_agreement,
            "restart_log": self.restart_log,
            "polish": self.polish,
        }


def _ratio_and_grad(w: np.ndarray, body: ConvexBody, N: int, dim: int,
                    smooth: float = 0.0):
    v = w.reshape(N, dim)
    v = v - v.mean(axis=0)
    dt = 2.0 * np.pi / N
    Jpos = apply_J(_midpoints(v, dt))
    action = 0.5 * dt * float(np.einsum("ij,ij->", Jpos, v))
    h, pts = body.support_batch(v, smooth=smooth)
    F = 0.5 * np.pi * dt * float(np.sum(h * h))
    gF = np.pi * dt * h[:, None] * pts
    if abs(action) < 1e-14:
        # line search wandered to a degenerate loop; push back with a
        # large finite value and the functional gradient
        g = gF - gF.mean(axis=0)
        return 1e12, g.ravel()
    sign = 1.0 if action > 0 else -1.0
    ratio = F / abs(action)
    gA = dt * Jpos
    g = (gF - ratio * sign * gA) / abs(action)
    g = g - g.mean(axis=0)
    return ratio, g.ravel()


def _fourier_start(rng: np.random.Generator, N: int, dim: int, modes: int = 3) -> np.ndarray:
    a = rng.normal(size=(modes, dim)) / (1.0 + np.arange(modes))[:, None]
    b = rng.normal(size=(modes, dim)) / (1.0 + np.arange(modes))[:, None]
    loop = DualLoop.from_fourier(a, b, N)
    v = loop.velocities
    act = loop_action(loop)
    if act < 0:
        v = -v[::-1]
        act = -act
    if act < 1e-12:
        v = DualLoop.circle(1.0, N, dim).velocities
        act = loop_action(DualLoop(v))
    return v / np.sqrt(act)


def _count(name: str, value, least: int) -> int:
    """value as an int of at least `least`, or a ValueError naming it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError("%s must be an integer, got %r" % (name, value))
    if value < least:
        raise ValueError("%s must be at least %d, got %d" % (name, least, value))
    return int(value)


def ehz_capacity(body: ConvexBody, N: int = 256, restarts: int = 8,
                 seed: int = 0, grad_tol: float = 1e-8,
                 max_iter: int = 5000) -> EhzResult:
    """Capacity estimate by multi-start quasi-Newton descent of the ratio.

    The descent is coarse to fine in N.  The restarts run at the coarse
    level N0: N halved while it is even and at least 2 * _COARSE_N (so
    N = 256 and N = 128 start at 64; N < 128 or odd N has no ladder).  The
    best restart's loop is then refined one doubling at a time by
    repeating each velocity, which traces the same loop and keeps its exact
    ratio, and each refined loop is polished by one descent at the finest
    rounding level.  history and restart_agreement thus describe the
    restarts at N0; capacity, loop, converged and grad_norm describe N.

    Restart k draws its Fourier-mode initialization from a generator
    seeded with (seed, k), so the result is reproducible regardless of
    evaluation order.  Descent runs on the kink-rounded support.  On a
    body whose support is kinked (`body.kinked`), each restart descends
    at the rounding levels of _SMOOTHING in turn, each level started from
    the previous minimizer; L-BFGS crawls at the fine level from a cold
    start but converges quickly from the coarse minimizer.  Every other
    body descends once at the finest level, where rounding changes
    nothing.  The reported capacity is the exact (unrounded) ratio at the
    final minimizer, so the rounding never leaks into the estimate.
    """
    N = _count("N", N, 16)
    restarts = _count("restarts", restarts, 1)
    dim = body.dim
    # reject unbounded bodies up front by probing the coordinate directions
    probe = np.vstack([np.eye(dim), -np.eye(dim)])
    body.support_batch(probe)

    N0 = N
    while N0 % 2 == 0 and N0 >= 2 * _COARSE_N:
        N0 //= 2
    schedule = _SMOOTHING if body.kinked else _SMOOTHING[-1:]
    options = {"maxiter": max_iter, "gtol": grad_tol, "ftol": 1e-14, "maxcor": 20}

    def descend(w, n, smooth):
        return minimize(_ratio_and_grad, w, args=(body, n, dim, smooth),
                        jac=True, method="L-BFGS-B", options=options)

    best = None
    history = []
    restart_log = []
    for k in range(restarts):
        rng = np.random.default_rng([seed, k])
        w = _fourier_start(rng, N0, dim).ravel()
        nit = nfev = 0
        for smooth in schedule:
            res = descend(w, N0, smooth)
            w = res.x
            nit += int(res.nit)
            nfev += int(res.nfev)
        ratio, _ = _ratio_and_grad(res.x, body, N0, dim)
        history.append(float(ratio))
        restart_log.append({"value": float(ratio), "nit": nit, "nfev": nfev,
                            "stages": len(schedule), "message": str(res.message),
                            "grad_norm": float(np.linalg.norm(res.jac))})
        if best is None or ratio < best[0]:
            best = (ratio, res)
    res = best[1]
    polish = []
    n = N0
    while n < N:
        n *= 2
        w = np.repeat(res.x.reshape(n // 2, dim), 2, axis=0).ravel()
        res = descend(w, n, schedule[-1])
        polish.append({"N": n, "nit": int(res.nit), "nfev": int(res.nfev),
                       "message": str(res.message)})
    ratio, grad = _ratio_and_grad(res.x, body, N, dim)
    loop = DualLoop(res.x.reshape(N, dim))
    act = loop_action(loop)
    if act < 0:
        loop = DualLoop(-loop.velocities[::-1])
    grad_norm = float(np.linalg.norm(grad))
    return EhzResult(capacity=float(ratio), loop=loop, restarts=restarts,
                     n_samples=N, seed=seed, converged=bool(res.success) or grad_norm <= 1e-5,
                     grad_norm=grad_norm, history=history,
                     restart_log=restart_log, polish=polish)


def product2_capacity(c1: float, c2: float) -> float:
    """Capacity of the symplectic 2-product of two bodies: the minimum."""
    if c1 <= 0 or c2 <= 0:
        raise ValueError("capacities must be positive")
    return float(min(c1, c2))


def scaled_limit_experiment(K: EllipsoidBody, L_list, N: int = 256,
                            restarts: int = 8, seed: int = 0,
                            tolerance: float = 0.03) -> dict:
    """Capacity of A^L K along increasing L against the z_n = 0 slice.

    K must be centrally symmetric (automatic for centered ellipsoids) and
    bounded; each A^L K is again an ellipsoid, so the estimates come with
    a normal-form oracle value alongside the optimizer's.
    """
    if not isinstance(K, EllipsoidBody):
        raise TypeError("the scaled-limit experiment expects an ellipsoid body")
    L_list = [float(L) for L in L_list]
    if any(L <= 0 for L in L_list) or sorted(L_list) != L_list:
        raise ValueError("L values must be positive and increasing")
    n = K.dim // 2
    rows = []
    for L in L_list:
        AL = matrix_AL(L, n)
        scaled = K.linear_image(AL)
        est = ehz_capacity(scaled, N=N, restarts=restarts, seed=seed)
        rows.append({"L": L, "capacity": est.capacity,
                     "oracle": ellipsoid_ehz_oracle(scaled),
                     "converged": est.converged})
    slice_cap = ellipsoid_ehz_oracle(slice_ellipsoid(K))
    limit_ok = rows[-1]["capacity"] <= slice_cap + tolerance
    return {"rows": rows, "slice_capacity": slice_cap, "limit_ok": limit_ok}
