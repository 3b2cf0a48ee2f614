"""EHZ capacity of convex bodies by minimizing the discretized dual action.

For a convex body T the capacity is the minimum of
(pi/2) int h_T^2(eta'(t)) dt over mean-zero loops eta with symplectic
action 1.  Both the functional and the action are 2-homogeneous, so the
constrained problem is equivalent to minimizing their ratio, which is what
the quasi-Newton solver does on a midpoint-sampled velocity grid.  The
solver is a numpy L-BFGS in compact form (Byrd, Nocedal and Schnabel 1994)
that runs all restarts in lockstep: each step evaluates every live restart
in one stacked objective call, and so one support_batch call.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np

from .bodies import (ConvexBody, EllipsoidBody, UnboundedDirectionError,
                     ellipsoid_ehz_oracle, slice_ellipsoid)
from .symcore import apply_J, matrix_AL, symplectic_normalizer

# Kink-rounding levels of the descent on bodies with kinked support: each
# level warm-starts the next (smoothing continuation, Nesterov 2005).  The
# last level is the one every body descends at.
_SMOOTHING = (1e-2, 1e-3, 1e-4)

# Restarts whose exact ratios after the first level lie within this
# relative distance of the lowest of them, the leader, form one basin, and
# only the leader descends the later levels.  Distinct loops lie 1e-2 or
# more apart there; members of one basin, continued, end within about
# 3e-7 relative of each other, and the first level does not tell which
# of them ends lowest.
_BASIN_TOL = 1e-4

# Coarse level of the N ladder: the restarts run at N halved while it is
# even and at least twice this, and the best loop is refined from there.
_COARSE_N = 64

# L-BFGS: curvature pairs kept per row, the relative reduction at which a
# row stops ("ftol"), and the trials one line search may make
_MEMORY = 20
_FTOL = 1e-14
_TRIALS = 20
# a row's stop code in _lbfgs indexes its reason in _STOPS; 0 is still live
_STOPS = ("", "gtol", "ftol", "maxiter", "linesearch")
_LIVE, _AT_GTOL, _AT_FTOL, _AT_MAXITER, _AT_LINESEARCH = range(5)


def _midpoints(v: np.ndarray, dt: float) -> np.ndarray:
    """Midpoint positions of the piecewise-linear loop with velocities v."""
    return dt * (np.cumsum(v, axis=-2) - 0.5 * v)


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
    there is no ladder).  After the first smoothing stage they fall into
    basins: taken by ascending exact ratio at N0, a restart opens a new
    basin when its ratio lies more than _BASIN_TOL = 1e-4 relative above
    the lowest ratio of the current basin, its leader; basin 0 holds the
    lowest ratio.  On a kinked body only the leaders descend the later
    stages; every other restart keeps its first-stage result.  history
    holds each restart's exact ratio at N0 where it stopped; restart_log
    holds one record per restart: value (that ratio), nit and nfev (this
    restart's accepted steps and objective evaluations) summed over the
    stages it ran, stages (1 for a restart that was not continued), the
    last stage's stop message and grad_norm, the gradient norm of the
    rounded objective that stage minimized, and basin.
    restart_agreement is the size of basin 0; a low count means restarts
    stalled elsewhere.  polish holds one record per doubling of N: N, nit,
    nfev and the stop message.

    A stop message is one of "gtol" (max |grad| <= grad_tol), "ftol" (the
    last step lowered the objective by at most 1e-14 relative), "maxiter"
    (max_iter steps) or "linesearch" (20 trials found no Armijo step).
    converged is True when the last stage run, the last polish or else the
    best restart's last smoothing stage, stopped on "gtol" or "ftol".
    grad_norm is the exact objective's gradient norm at N.

    The descent runs in normal position (see ehz_capacity), but every value
    here belongs to the original body: history, each record's value and
    capacity are exact ratios of the body itself, both grad_norm kinds are
    gradient norms with respect to its velocities, and loop lies in its
    coordinates, an admissible loop whose exact ratio is capacity.
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
        return sum(rec["basin"] == 0 for rec in self.restart_log)

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


def _ratio_and_grad(W: np.ndarray, body: ConvexBody, N: int, dim: int,
                    smooth: float = 0.0):
    """Ratio F / |A| and its gradient on each row of an (R, N * dim) stack.

    Row r holds the N velocities of one loop; every row goes through one
    support_batch call on all R * N velocities, and row r's outputs depend
    on row r alone.  A row whose action vanishes (the line search wandered
    to a degenerate loop) gets the large finite value 1e12 and the
    functional gradient, which pushes it back.
    """
    R = W.shape[0]
    v = W.reshape(R, N, dim)
    v = v - v.sum(axis=1, keepdims=True) / N
    dt = 2.0 * np.pi / N
    Jpos = apply_J(_midpoints(v, dt))
    action = 0.5 * dt * np.einsum("rij,rij->r", Jpos, v)
    h, pts = body.support_batch(v.reshape(R * N, dim), smooth=smooth)
    h = h.reshape(R, N)
    F = 0.5 * np.pi * dt * np.sum(h * h, axis=1)
    g = np.pi * dt * h[..., None] * pts.reshape(R, N, dim)
    size = np.abs(action)
    degenerate = size < 1e-14
    size[degenerate] = 1.0
    ratio = F / size
    slope = np.where(degenerate, 0.0, ratio * np.sign(action))
    g -= np.multiply(slope[:, None, None] * dt, Jpos, out=Jpos)
    g /= size[:, None, None]
    g -= g.sum(axis=1, keepdims=True) / N
    ratio[degenerate] = 1e12
    return ratio, g.reshape(R, N * dim)


def _inverse_hessian_times(G, mem, sty, yty, Rinv, gamma):
    """H G row by row, H the compact limited-memory inverse Hessian.

    H = gamma I + [S, gamma Y] M [S, gamma Y]^T, where M is built from the
    triangle R of S^T Y (R_ij = s_i . y_j for pair i stored no later than
    pair j), its diagonal D and Y^T Y (Byrd, Nocedal and Schnabel 1994,
    eq. 2.6).  mem holds the pairs in ring slots (s in the first m, y in
    the last m), sty the diagonal s_i . y_i, yty the Gram matrix Y^T Y and
    Rinv the inverse of R, all in slot coordinates; empty slots are zero in
    all of them, so they drop out of H G.
    """
    m = Rinv.shape[1]
    q = mem @ G[:, :, None]
    r = Rinv @ q[:, :m]
    t = sty[:, :, None] * r + gamma[:, None, None] * (yty @ r - q[:, m:])
    coef = np.concatenate([np.swapaxes(Rinv, 1, 2) @ t, -gamma[:, None, None] * r], axis=1)
    return gamma[:, None] * G + (np.swapaxes(coef, 1, 2) @ mem)[:, 0]


def _lbfgs(fun, X, grad_tol: float, max_iter: int):
    """L-BFGS on every row of X at once (Liu and Nocedal 1989).

    fun maps an (R, n) stack to values (R,) and gradients (R, n), row r of
    its output depending on row r of its input alone.  Each step makes one
    fun call on the trial points of all live rows.  A row keeps its own
    memory of the last _MEMORY curvature pairs (a pair with
    s . y <= 1e-12 |s| |y| is skipped), direction and Armijo backtracking
    line search: the trial step is 1 (1 / |d| while the memory is empty)
    and a rejected one shrinks to the minimizer of the parabola through
    the two values and the slope, clipped to [0.1, 0.5] of it.  Besides
    the pairs, a row keeps only what _inverse_hessian_times reads of their
    Gram matrix: the diagonal of S^T Y and the block Y^T Y.  A row stops,
    and drops out of the stack, with one of these reasons:

    - "gtol": max |grad| <= grad_tol, checked at the start too;
    - "ftol": an accepted step lowered f by at most
      _FTOL * max(|f_old|, |f_new|, 1);
    - "maxiter": max_iter steps were accepted;
    - "linesearch": _TRIALS trials in a row found no Armijo step.

    Returns the final rows, their gradients, and per row the accepted
    steps, the fun evaluations and the stop reason.
    """
    X = np.array(X, dtype=float)
    R, n = X.shape
    m = _MEMORY
    f, G = fun(X)
    x_out, g_out = X.copy(), G.copy()
    nit_out, nfev_out = np.zeros(R, dtype=int), np.ones(R, dtype=int)
    stop = np.where(np.abs(G).max(axis=1) <= grad_tol, _AT_GTOL, _LIVE)
    # per live row: the pairs in ring slots, s_i . y_i, Y^T Y and R^-1 in
    # slot coordinates (see _inverse_hessian_times), the pairs stored (the
    # ring position), the scale gamma, the line search's direction, step
    # and trials, and the counts of accepted steps and evaluations
    mem = np.zeros((R, 2 * m, n))
    sty = np.zeros((R, m))
    yty = np.zeros((R, m, m))
    Rinv = np.zeros((R, m, m))
    ring, gamma = np.zeros(R, dtype=int), np.ones(R)
    D = -G
    alpha = 1.0 / np.maximum(np.linalg.norm(D, axis=1), 1e-300)
    trials, nit, nfev = np.zeros(R, dtype=int), np.zeros(R, dtype=int), np.ones(R, dtype=int)
    rows = np.arange(R)
    live = stop == _LIVE
    stopped = not live.all()
    while True:
        if stopped:
            (rows, X, f, G, D, alpha, trials, nit, nfev, mem, sty, yty, Rinv, ring,
             gamma) = (a[live] for a in (rows, X, f, G, D, alpha, trials, nit, nfev,
                                         mem, sty, yty, Rinv, ring, gamma))
            if not rows.size:
                break
        Xt = X + alpha[:, None] * D
        ft, Gt = fun(Xt)
        nfev += 1
        gd = np.einsum("ij,ij->i", G, D)
        # a direction that rounding left uphill fails every trial
        ok = (gd < 0.0) & (ft <= f + 1e-4 * alpha * gd)
        s, y, f_old = Xt - X, Gt - G, f
        accepted = ok.all()
        if accepted:
            # the common step: every row takes its trial point
            X, G, f = Xt, Gt, ft
            nit += 1
            trials[:] = 0
        else:
            X, G = np.where(ok[:, None], Xt, X), np.where(ok[:, None], Gt, G)
            f = np.where(ok, ft, f)
            nit += ok
            trials = np.where(ok, 0, trials + 1)
        small = f_old - f <= _FTOL * np.maximum(np.maximum(abs(f_old), abs(f)), 1.0)
        gtol = np.abs(G).max(axis=1) <= grad_tol
        live = ~(gtol | small | (nit >= max_iter))
        if not accepted:
            live = np.where(ok, live, trials < _TRIALS)
        stopped = not live.all()
        if stopped:
            done = ~live
            code = np.where(gtol, _AT_GTOL, np.where(small, _AT_FTOL, _AT_MAXITER))
            code = np.where(ok, code, _AT_LINESEARCH)
            at = rows[done]
            x_out[at], g_out[at], stop[at] = X[done], G[done], code[done]
            nit_out[at], nfev_out[at] = nit[done], nfev[done]
        # the pair of an accepted step replaces its row's oldest: R^-1 loses
        # that pair's row and column, and gains the new last column
        sy = np.einsum("ij,ij->i", s, y)
        add = np.flatnonzero(ok & live & (sy > 1e-12 * np.linalg.norm(s, axis=1)
                                          * np.linalg.norm(y, axis=1)))
        j = ring[add] % m
        mem[add, j], mem[add, m + j] = s[add], y[add]
        # s and y as the two columns of one product: only the y column is
        # used, but y alone makes a matrix-vector product, which rounds its
        # sums differently
        pair = np.empty(s.shape + (2,))
        pair[..., 0], pair[..., 1] = s, y
        c = (mem @ pair)[add, :, 1]
        sy, pick = sy[add], np.arange(add.size)
        sty[add, j] = c[pick, j]
        yty[add, :, j] = yty[add, j, :] = c[:, m:]
        Rinv[add, j, :] = Rinv[add, :, j] = 0.0
        Rinv[add, :, j] = -(Rinv[add] @ c[:, :m, None])[:, :, 0] / sy[:, None]
        Rinv[add, j, j] = 1.0 / sy
        ring[add] += 1
        gamma[add] = sy / c[pick, m + j]
        H = -_inverse_hessian_times(G, mem, sty, yty, Rinv, gamma)
        # the first trial step: 1, or 1 / |d| on rows whose memory is empty
        first = np.ones(len(H))
        cold = np.flatnonzero(ring == 0)
        if cold.size:
            first[cold] = 1.0 / np.maximum(np.linalg.norm(H[cold], axis=1), 1e-300)
        if accepted:
            D, alpha = H, first
        else:
            curv = ft - f_old - gd * alpha
            shrink = np.fmin(np.fmax(-0.5 * gd * alpha ** 2 / np.where(curv > 0, curv, np.inf),
                                     0.1 * alpha), 0.5 * alpha)
            D, alpha = np.where(ok[:, None], H, D), np.where(ok, first, shrink)
    return x_out, g_out, nit_out, nfev_out, [_STOPS[k] for k in stop]


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


def _basins(values: np.ndarray):
    """Basin index of each row, and the basin leaders in basin order.

    The rows are taken by ascending value (ties by index); a row opens a
    new basin when it lies more than _BASIN_TOL relative above the
    current basin's leader, its lowest row.  Measuring from the leader,
    not from the row before, keeps a slow drift from chaining basins.
    """
    basin = np.empty(values.size, dtype=int)
    leaders = []
    for k in np.argsort(values, kind="stable"):
        if not leaders or (values[k] - values[leaders[-1]]
                           > _BASIN_TOL * abs(values[leaders[-1]])):
            leaders.append(k)
        basin[k] = len(leaders) - 1
    return basin, np.array(leaders)


class _Image(ConvexBody):
    """The image S K of a body under a symmetric linear map S.

    Its support at u is h_K(S u), attained at S x_K(S u).  The class lives
    here, not in bodies, so that each support call reaches K's own
    support_batch once.
    """

    def __init__(self, body: ConvexBody, S: np.ndarray):
        self.body, self.S, self.dim = body, S, body.dim

    @property
    def kinked(self) -> bool:
        return self.body.kinked

    def support_batch(self, U, smooth: float = 0.0):
        h, P = self.body.support_batch(U @ self.S, smooth=smooth)
        return h, P @ self.S


def _normal_position(body: ConvexBody) -> np.ndarray:
    """symplectic_normalizer of the body's polarized squared support.

    One support_batch call at +-e_i and e_i +- e_j (i < j) gives
    Q_ii = h(e_i)^2 and Q_ij = (h(e_i + e_j)^2 - h(e_i - e_j)^2) / 4, which
    for an ellipsoid is its own Q.  The call also rejects unbounded bodies,
    and a non-finite value is a ValueError naming its direction.
    """
    dim = body.dim
    eye = np.eye(dim)
    i, j = np.triu_indices(dim, 1)
    probe = np.vstack([eye, -eye, eye[i] + eye[j], eye[i] - eye[j]])
    h, _ = body.support_batch(probe)
    bad = np.flatnonzero(~np.isfinite(h))
    if bad.size:
        names = (["e%d" % (a + 1) for a in range(dim)] + ["-e%d" % (a + 1) for a in range(dim)]
                 + ["e%d %s e%d" % (a + 1, sign, b + 1) for sign in "+-" for a, b in zip(i, j)])
        raise ValueError("support value %r in direction %s is not finite"
                         % (float(h[bad[0]]), names[bad[0]]))
    h2 = h * h
    Q = np.diag(h2[:dim])
    Q[i, j] = Q[j, i] = 0.25 * (h2[2 * dim:2 * dim + i.size] - h2[2 * dim + i.size:])
    return symplectic_normalizer(Q)


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
    """Capacity estimate by multi-start L-BFGS descent of the ratio.

    The descent is coarse to fine in N.  The restarts run at the coarse
    level N0: N halved while it is even and at least 2 * _COARSE_N (so
    N = 256 and N = 128 start at 64; N < 128 or odd N has no ladder).  The
    best restart's loop is then refined one doubling at a time by
    repeating each velocity, which traces the same loop and keeps its exact
    ratio, and each refined loop is polished by one descent at the finest
    rounding level.  history and restart_agreement thus describe the
    restarts at N0; capacity, loop, converged and grad_norm describe N.

    All restarts descend together, one row each of a stack, through the
    lockstep L-BFGS of _lbfgs (memory 20, stop on max |grad| <= grad_tol,
    a relative reduction of at most 1e-14, max_iter steps or a failed line
    search); within one stage a row's result does not depend on the other
    rows.  Restart k draws its Fourier-mode initialization from a
    generator seeded with (seed, k).  Descent runs on the kink-rounded
    support.  On a body whose support is kinked (`body.kinked`), the
    restarts descend at the rounding levels of _SMOOTHING in turn, each
    level started from the previous minimizers; L-BFGS crawls at the fine
    level from a cold start but converges quickly from the coarse
    minimizer.  After the first level the restarts are grouped into basins
    by their exact ratio at N0 (see EhzResult), and only each basin's
    leader, its lowest row, descends the later levels: the other members
    have found the same loop, up to a few 1e-7 relative.  Which rows lead
    depends on the other rows, so a restart's first-stage record, and a
    leader's full record, are reproducible regardless of the number of
    restarts, but whether a restart leads is not.  Every other body
    descends once at the finest level, where rounding changes nothing.
    The reported capacity is the exact (unrounded) ratio at the final
    minimizer, so the rounding never leaks into the estimate.  N,
    restarts, max_iter and seed must be integers (seed at least 0) and
    grad_tol a finite number at least 0.

    Every descent runs in normal position.  One support call at +-e_i and
    e_i +- e_j polarizes h^2 into a symmetric Q (an ellipsoid's own Q), and
    symplectic_normalizer gives the symmetric symplectic S for which S Q S
    commutes with J.  The restarts, stages, basins and polish then descend
    on SK, whose support at u is h(S u), from velocities w that are the
    body's v = S w.  Both the discrete action and the ratio are invariant
    under symplectic maps, so SK has the same minimum as the body, but
    L-BFGS is not: a stretched ellipsoid costs what its normal form
    E(c_1, ..., c_n) costs.  Loops are mapped back by v = S w and every
    reported value is measured on the body itself (see EhzResult), so an
    imprecise S (its symplectic error grows with cond Q) costs only
    optimality, never meaning.  Where Q commutes with J exactly (the ball
    and every axis-aligned E(r_1, ..., r_n)) or is not positive definite,
    S is the identity and the body descends as it is.  The probe call also
    rejects unbounded bodies, and a non-finite probe value is a ValueError
    naming its direction.
    """
    N = _count("N", N, 16)
    restarts = _count("restarts", restarts, 1)
    max_iter = _count("max_iter", max_iter, 1)
    seed = _count("seed", seed, 0)
    # nan or a negative grad_tol would leave the gtol stop unreachable
    if (isinstance(grad_tol, bool) or not isinstance(grad_tol, numbers.Real)
            or not np.isfinite(grad_tol) or grad_tol < 0):
        raise ValueError("grad_tol must be a finite number at least 0, got %r" % (grad_tol,))
    dim = body.dim
    S = _normal_position(body)
    moved = not np.array_equal(S, np.eye(dim))
    image = _Image(body, S) if moved else body

    def to_body(W, M=S):
        # the image's velocities as the body's, v = S w, or with M = S^-1
        # its gradients as the body's
        return (W.reshape(len(W), -1, dim) @ M).reshape(W.shape) if moved else W

    N0 = N
    while N0 % 2 == 0 and N0 >= 2 * _COARSE_N:
        N0 //= 2
    schedule = _SMOOTHING if body.kinked else _SMOOTHING[-1:]

    def descend(X, n, smooth):
        return _lbfgs(lambda W: _ratio_and_grad(W, image, n, dim, smooth), X,
                      grad_tol, max_iter)

    X = np.stack([_fourier_start(np.random.default_rng([seed, k]), N0, dim).ravel()
                  for k in range(restarts)])
    X, G, nit, nfev, stop = descend(X, N0, schedule[0])
    history = _ratio_and_grad(to_body(X), body, N0, dim)[0]
    basin, leaders = _basins(history)
    stages = np.ones(restarts, dtype=int)
    if len(schedule) > 1:
        # the later stages refine one loop per basin: its lowest row
        lead = np.sort(leaders)
        x = X[lead]
        for smooth in schedule[1:]:
            x, g, steps, evals, last = descend(x, N0, smooth)
            nit[lead] += steps
            nfev[lead] += evals
        X[lead], G[lead], stages[lead] = x, g, len(schedule)
        history[lead] = _ratio_and_grad(to_body(x), body, N0, dim)[0]
        for k, message in zip(lead, last):
            stop[k] = message
    history = history.tolist()
    grad_norms = np.linalg.norm(to_body(G, np.linalg.inv(S)), axis=1)
    restart_log = [{"value": history[k], "nit": int(nit[k]), "nfev": int(nfev[k]),
                    "stages": int(stages[k]), "message": stop[k],
                    "grad_norm": float(grad_norms[k]), "basin": int(basin[k])}
                   for k in range(restarts)]
    best = int(np.argmin(history))
    x, last = X[best:best + 1], stop[best]
    polish = []
    n = N0
    while n < N:
        n *= 2
        x = np.repeat(x.reshape(n // 2, dim), 2, axis=0).reshape(1, -1)
        x, _, steps, evals, stop = descend(x, n, schedule[-1])
        last = stop[0]
        polish.append({"N": n, "nit": int(steps[0]), "nfev": int(evals[0]), "message": last})
    x = to_body(x)
    ratio, grad = _ratio_and_grad(x, body, N, dim)
    loop = DualLoop(x.reshape(N, dim))
    act = loop_action(loop)
    if act < 0:
        loop = DualLoop(-loop.velocities[::-1])
    return EhzResult(capacity=float(ratio[0]), loop=loop, restarts=restarts,
                     n_samples=N, seed=seed, converged=last in ("gtol", "ftol"),
                     grad_norm=float(np.linalg.norm(grad)), history=history,
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
    if (not L_list or not np.all(np.isfinite(L_list)) or L_list[0] <= 0
            or any(a >= b for a, b in zip(L_list, L_list[1:]))):
        raise ValueError("L_list must be finite, positive and strictly increasing, "
                         "with at least one value; got %r" % (L_list,))
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
