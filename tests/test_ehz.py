import numpy as np
import pytest
from scipy.optimize import minimize

from symcap import bodies as bd
from symcap import ehz
from symcap.symcore import matrix_Mt, random_symplectic_matrix


# ------------------------------------------------------------ loop action


def test_circle_action_is_enclosed_area():
    for N in (64, 256):
        loop = ehz.DualLoop.circle(0.8, N)
        err = abs(ehz.loop_action(loop) - np.pi * 0.64)
        assert err < 2.0 * np.pi * 0.64 * (2 * np.pi / N) ** 2


def test_reversed_circle_action_negates():
    loop = ehz.DualLoop.circle(1.0, 128)
    rloop = ehz.DualLoop.circle(1.0, 128, reverse=True)
    assert ehz.loop_action(rloop) == pytest.approx(-ehz.loop_action(loop), abs=1e-12)


def test_figure_eight_action_cancels():
    # first half traces a lobe counterclockwise, second half traverses the
    # same lobe clockwise: equal areas of opposite sign
    N = 256
    s = (np.arange(N // 2) + 0.5) * (2 * np.pi / (N // 2))
    lobe = np.zeros((N // 2, 4))
    lobe[:, 0] = -np.sin(s)
    lobe[:, 1] = np.cos(s)
    eight = ehz.DualLoop(np.vstack([lobe, -lobe[::-1]]))
    assert abs(ehz.loop_action(eight)) < 1e-10


def test_loop_closure_and_mean_zero_by_construction():
    rng = np.random.default_rng(0)
    loop = ehz.DualLoop(rng.normal(size=(64, 4)))
    assert np.max(np.abs(loop.velocities.sum(axis=0))) < 1e-10
    assert np.max(np.abs(loop.positions.mean(axis=0))) < 1e-10


# ------------------------------------------------------ clarke functional


def test_clarke_functional_ball_circle_ratio_one():
    # unit-speed circle in the (x1, y1) plane with action 1
    loop = ehz.DualLoop.circle(1.0 / np.sqrt(np.pi), 512)
    act = ehz.loop_action(loop)
    val = ehz.clarke_functional(loop, bd.CapacityBall(1.0, 2))
    assert val / act == pytest.approx(1.0, abs=1e-3)


def test_clarke_functional_homogeneity():
    rng = np.random.default_rng(4)
    loop = ehz.DualLoop(rng.normal(size=(64, 4)))
    body = bd.EllipsoidBody.from_radii([1.0, 0.5])
    base = ehz.clarke_functional(loop, body)
    scaled = ehz.clarke_functional(ehz.DualLoop(3.0 * loop.velocities), body)
    assert scaled == pytest.approx(9.0 * base, rel=1e-12)


def test_clarke_functional_body_scaling():
    rng = np.random.default_rng(5)
    loop = ehz.DualLoop(rng.normal(size=(64, 4)))
    small = bd.CapacityBall(1.0, 2)
    big = bd.CapacityBall(4.0, 2)  # doubles every linear dimension
    assert ehz.clarke_functional(loop, big) == pytest.approx(
        4.0 * ehz.clarke_functional(loop, small), rel=1e-12)


def test_clarke_functional_unbounded_direction_raises():
    loop = ehz.DualLoop.circle(1.0, 64)
    with pytest.raises(bd.UnboundedDirectionError):
        ehz.clarke_functional(loop, bd.frame_cylinder(0.5))


# --------------------------------------------------------- capacity runs


def test_ball_capacity_normalization():
    res = ehz.ehz_capacity(bd.CapacityBall(1.0, 2), N=128, restarts=4, seed=0)
    assert res.capacity == pytest.approx(1.0, rel=0.02)
    assert res.converged


def test_ellipsoid_capacity_examples():
    res = ehz.ehz_capacity(bd.EllipsoidBody.from_radii([1.0, 0.5]),
                           N=128, restarts=4, seed=0)
    assert res.capacity == pytest.approx(0.5, rel=0.02)


def test_intersection_capacity_small_run():
    body = bd.ball_cap_cylinder_intersection(0.5)
    res = ehz.ehz_capacity(body, N=128, restarts=4, seed=0)
    assert res.capacity == pytest.approx(0.5, rel=0.03)
    # smoothing continuation: no higher than the single-level descent's
    # 0.5001037608 at about a fifth of its 9.8k objective evaluations
    assert res.capacity <= 0.5001037608 + 1e-6
    assert sum(rec["nfev"] for rec in res.restart_log + res.polish) <= 2000
    assert [rec["value"] for rec in res.restart_log] == res.history


def test_restart_agreement_counts_restarts_at_the_best_value():
    # the restarts run at N0 = 64, where three of eight at t = 0.75 stall
    # at the Hopf circle's polygon value ((pi/64) / sin(pi/64))^2
    res = ehz.ehz_capacity(bd.ball_cap_cylinder_intersection(0.75), N=256,
                           restarts=8, seed=0)
    hopf = ((np.pi / 64) / np.sin(np.pi / 64)) ** 2
    assert res.restart_agreement == 5
    assert sum(abs(h - hopf) < 1e-4 for h in res.history) == 3
    assert res.to_json()["restart_agreement"] == 5


def test_smoothing_schedule_only_on_kinked_bodies():
    assert not bd.frame_cylinder(0.5).kinked
    for body, kinked, stages in [(bd.EllipsoidBody.from_radii([1.0, 0.5]), False, 1),
                                 (bd.CapacityBall(1.0, 2), False, 1),
                                 (bd.ball_cap_cylinder_intersection(0.5), True, 3)]:
        assert body.kinked is kinked
        res = ehz.ehz_capacity(body, N=32, restarts=2, seed=0)
        assert [rec["stages"] for rec in res.restart_log] == [stages, stages]


def test_capacity_unbounded_body_rejected():
    with pytest.raises(bd.UnboundedDirectionError):
        ehz.ehz_capacity(bd.frame_cylinder(0.5), N=32, restarts=1)


def test_capacity_invalid_parameters():
    ball = bd.CapacityBall(1.0, 2)
    with pytest.raises(ValueError):
        ehz.ehz_capacity(ball, N=8)
    with pytest.raises(ValueError):
        ehz.ehz_capacity(ball, restarts=0)


@pytest.mark.parametrize("kwargs, name", [({"N": 64.0}, "N"), ({"N": 64.5}, "N"),
                                          ({"N": float("nan")}, "N"), ({"N": "64"}, "N"),
                                          ({"N": True}, "N"), ({"restarts": 2.5}, "restarts")])
def test_capacity_rejects_non_integer_counts(kwargs, name):
    with pytest.raises(ValueError, match="^%s must be an integer" % name):
        ehz.ehz_capacity(bd.CapacityBall(1.0, 2), **kwargs)


def test_capacity_accepts_numpy_integer_counts():
    res = ehz.ehz_capacity(bd.CapacityBall(1.0, 2), N=np.int64(32), restarts=np.int32(1))
    assert res.n_samples == 32 and res.restarts == 1
    assert type(res.n_samples) is int and type(res.restarts) is int


# ------------------------------------------------------------- N ladder


def _ratio(v, body):
    return ehz._ratio_and_grad(v.reshape(1, -1), body, v.shape[0], v.shape[1])[0][0]


def test_repeated_velocities_keep_the_exact_ratio():
    # the ladder's premise: repeating each velocity traces the same
    # piecewise-linear loop at 2N, so its exact ratio is unchanged
    rng = np.random.default_rng(21)
    image = bd.EllipsoidBody.from_radii([1.0, 0.4]).linear_image(
        random_symplectic_matrix(2, rng))
    for body in (bd.CapacityBall(1.0, 2), image, bd.ball_cap_cylinder_intersection(0.5)):
        for N in (64, 128):
            v = ehz._fourier_start(rng, N, 4)
            coarse = _ratio(v, body)
            assert _ratio(np.repeat(v, 2, axis=0), body) == pytest.approx(coarse, rel=1e-13)


@pytest.mark.parametrize("N, rungs", [(64, []), (96, []), (127, []), (130, [130]),
                                      (128, [128]), (192, [192]), (256, [128, 256])])
def test_ladder_polishes_once_per_doubling_from_the_coarse_level(N, rungs):
    res = ehz.ehz_capacity(bd.CapacityBall(1.0, 2), N=N, restarts=2, seed=0)
    assert [rec["N"] for rec in res.polish] == rungs
    assert res.n_samples == N and res.loop.n_samples == N
    assert res.capacity == pytest.approx(_ratio(res.loop.velocities, bd.CapacityBall(1.0, 2)),
                                         rel=1e-12)
    for rec in res.polish:
        assert set(rec) == {"N", "nit", "nfev", "message"}


def test_ladder_estimate_is_no_worse_than_its_best_restart():
    # the polished loop starts from the best coarse loop at the same ratio,
    # and the descent does not climb on the exact ratio
    body = bd.ball_cap_cylinder_intersection(0.5)
    res = ehz.ehz_capacity(body, N=256, restarts=4, seed=0)
    assert res.capacity <= min(res.history) + 1e-12
    assert [rec["N"] for rec in res.polish] == [128, 256]
    assert res.converged


def test_capacity_deterministic_given_seed():
    body = bd.EllipsoidBody.from_radii([1.0, 0.6])
    r1 = ehz.ehz_capacity(body, N=64, restarts=3, seed=123)
    r2 = ehz.ehz_capacity(body, N=64, restarts=3, seed=123)
    assert r1.capacity == r2.capacity
    assert r1.history == r2.history
    assert r1.restart_log == r2.restart_log


def test_conformality_dilation_scales_capacity():
    body = bd.CapacityBall(1.0, 2)
    scaled = bd.CapacityBall(4.0, 2)  # dilation by 2
    c1 = ehz.ehz_capacity(body, N=96, restarts=3, seed=1).capacity
    c2 = ehz.ehz_capacity(scaled, N=96, restarts=3, seed=1).capacity
    assert c2 == pytest.approx(4.0 * c1, rel=0.04)


def test_symplectic_invariance():
    rng = np.random.default_rng(6)
    base = bd.EllipsoidBody.from_radii([1.0, 0.5])
    c0 = ehz.ehz_capacity(base, N=96, restarts=3, seed=2).capacity
    for _ in range(3):
        M = random_symplectic_matrix(2, rng, transvections=4, scale=0.2)
        cM = ehz.ehz_capacity(base.linear_image(M), N=96, restarts=3, seed=2).capacity
        assert cM == pytest.approx(c0, rel=0.04)


def test_estimate_bounds_ellipsoid_oracle_from_above():
    # the estimate is the exact ratio of an admissible loop, so it can only
    # sit above c_EHZ (up to support-evaluation error)
    rng = np.random.default_rng(13)
    for _ in range(12):
        base = bd.EllipsoidBody.from_radii(rng.uniform(0.2, 2.0, size=2))
        body = base.linear_image(random_symplectic_matrix(2, rng))
        est = ehz.ehz_capacity(body, N=64, restarts=2, seed=0).capacity
        assert est >= bd.ellipsoid_ehz_oracle(body) - 1e-12


def test_monotonicity_on_nested_bodies():
    inner = bd.CapacityBall(0.5, 2)
    middle = bd.EllipsoidBody.from_radii([1.0, 0.7])
    outer = bd.CapacityBall(1.0, 2)
    cs = [ehz.ehz_capacity(b, N=96, restarts=3, seed=3).capacity
          for b in (inner, middle, outer)]
    tol = 0.02
    assert cs[0] <= cs[1] + tol
    assert cs[1] <= cs[2] + tol


def test_oracle_agreement_random_axis_aligned_ellipsoids():
    rng = np.random.default_rng(7)
    for _ in range(10):
        radii = rng.uniform(0.3, 3.0, size=2)
        body = bd.EllipsoidBody.from_radii(radii)
        res = ehz.ehz_capacity(body, N=128, restarts=4, seed=4)
        assert res.capacity == pytest.approx(radii.min(), rel=0.02)


def test_discretization_convergence_rate_on_ball():
    ball = bd.CapacityBall(1.0, 2)
    e = {}
    for N in (64, 128):
        res = ehz.ehz_capacity(ball, N=N, restarts=2, seed=5)
        e[N] = abs(res.capacity - 1.0)
    ratio = e[64] / e[128]
    assert 2.5 < ratio < 6.0


def test_ball_minimizer_traces_a_circle():
    res = ehz.ehz_capacity(bd.CapacityBall(1.0, 2), N=128, restarts=4, seed=6)
    pos = res.loop.positions
    center = pos.mean(axis=0)
    radii = np.linalg.norm(pos - center, axis=1)
    r = radii.mean()
    # in-plane roundness plus out-of-plane flatness via PCA residual
    u, s, vt = np.linalg.svd(pos - center, full_matrices=False)
    in_plane = pos - center - (pos - center) @ vt[:2].T @ vt[:2]
    residual = np.sqrt(np.mean((radii - r) ** 2) + np.mean(np.sum(in_plane ** 2, axis=1)))
    assert residual < 0.01 * r


def test_ellipsoid_closed_form_and_product_rule():
    def oracle(radii):
        return bd.ellipsoid_ehz_oracle(bd.EllipsoidBody.from_radii(radii))

    assert oracle([1.0, 1.0]) == pytest.approx(1.0, abs=1e-12)
    assert oracle([1.0, 1.0, 0.3]) == pytest.approx(0.3, abs=1e-12)
    assert oracle([0.3, 0.7, 2.0]) == pytest.approx(0.3, abs=1e-12)
    with pytest.raises(ValueError):
        bd.EllipsoidBody.from_radii([])
    assert ehz.product2_capacity(1.0, 0.4) == 0.4
    assert ehz.product2_capacity(0.2, 0.2) == 0.2
    assert ehz.product2_capacity(3.0, 1.0) == 1.0
    with pytest.raises(ValueError):
        ehz.product2_capacity(-1.0, 1.0)


# ------------------------------------------------------ lockstep L-BFGS


def _tagged_quadratics(X):
    # row r: 1e4 * 0.5 sum_i a_i (x_i - 1)^2 with a_i geometric from 1 to
    # the row's condition number, kept in its last entry; that entry's
    # gradient is zero, so the descent never moves it.  The factor 1e4 makes
    # the ftol stop, a drop of at most 1e-14 near f = 0, come within about
    # 1e-9 of the minimizer
    cond = X[:, -1:]
    a = cond ** np.linspace(0.0, 1.0, X.shape[1] - 1)
    dev = X[:, :-1] - 1.0
    g = np.hstack([a * dev, np.zeros_like(cond)])
    return 1e4 * 0.5 * np.sum(a * dev * dev, axis=1), 1e4 * g


def test_lockstep_rows_reach_their_minimizers_and_stop_on_their_own():
    conds = np.array([1.0, 10.0, 1e2, 1e3, 1e4])
    X0 = np.hstack([np.random.default_rng(0).normal(size=(5, 12)), conds[:, None]])
    X, G, nit, nfev, stop = ehz._lbfgs(_tagged_quadratics, X0, grad_tol=1e-9, max_iter=500)
    assert np.max(np.abs(X[:, :-1] - 1.0)) <= 1e-8
    assert np.array_equal(X[:, -1], conds)
    assert set(stop) <= {"gtol", "ftol"}
    assert len(set(nit.tolist())) > 1 and nit[0] < nit[-1]
    assert np.all(nfev > nit)
    # each row descends as it would alone
    for k in (0, 3):
        alone = ehz._lbfgs(_tagged_quadratics, X0[k:k + 1], grad_tol=1e-9, max_iter=500)
        assert np.array_equal(alone[0][0], X[k])
        assert (alone[2][0], alone[3][0], alone[4][0]) == (nit[k], nfev[k], stop[k])


def test_stationary_row_stops_at_once_on_gtol():
    X0 = np.array([[1.0] * 6 + [10.0], [3.0] * 6 + [10.0]])
    X, G, nit, nfev, stop = ehz._lbfgs(_tagged_quadratics, X0, grad_tol=1e-9, max_iter=500)
    assert (nit[0], nfev[0], stop[0]) == (0, 1, "gtol")
    assert np.array_equal(X[0], X0[0])
    assert nfev[1] > 1 and np.max(np.abs(X[1, :-1] - 1.0)) <= 1e-8


def test_zero_action_row_gets_the_sentinel_alone():
    N = 64
    s = (np.arange(N // 2) + 0.5) * (2 * np.pi / (N // 2))
    lobe = np.zeros((N // 2, 4))
    lobe[:, 0] = -np.sin(s)
    lobe[:, 1] = np.cos(s)
    eight = np.vstack([lobe, -lobe[::-1]])
    start = ehz._fourier_start(np.random.default_rng(3), N, 4)
    W = np.stack([ehz.DualLoop.circle(1.0, N).velocities, eight, start]).reshape(3, -1)
    body = bd.ball_cap_cylinder_intersection(0.5)
    ratio, grad = ehz._ratio_and_grad(W, body, N, 4, smooth=1e-3)
    assert ratio[1] == 1e12 and np.all(ratio[[0, 2]] < 10.0)
    for k in (0, 2):
        alone = ehz._ratio_and_grad(W[k:k + 1], body, N, 4, smooth=1e-3)
        assert alone[0][0] == ratio[k] and np.array_equal(alone[1][0], grad[k])


def _sign_tagged_quadratics(X):
    # _tagged_quadratics on all but the first entry, whose value (+1 or -1)
    # multiplies the returned gradient: -1 makes every direction uphill.
    # That entry's gradient is zero, so the tag never moves
    f, g = _tagged_quadratics(X[:, 1:])
    return f, np.hstack([np.zeros_like(X[:, :1]), X[:, :1] * g])


def test_uphill_row_stops_on_linesearch_and_backtracking_rows_stay_independent():
    conds = np.array([1.0, 10.0, 1e2, 1e3, 1e4])
    X0 = np.hstack([np.ones((5, 1)), np.random.default_rng(0).normal(size=(5, 12)),
                    conds[:, None]])
    X0[2, 0] = -1.0
    X, G, nit, nfev, stop = ehz._lbfgs(_sign_tagged_quadratics, X0, grad_tol=1e-9,
                                       max_iter=500)
    assert (nit[2], nfev[2], stop[2]) == (0, 21, "linesearch")
    assert np.array_equal(X[2], X0[2])
    # the other rows backtrack on steps of their own (a failed trial is an
    # evaluation that is not an accepted step), and each descends as alone
    failed = nfev - 1 - nit
    assert len(set(failed[[0, 1, 3, 4]].tolist())) >= 3
    for k in range(5):
        alone = ehz._lbfgs(_sign_tagged_quadratics, X0[k:k + 1], grad_tol=1e-9, max_iter=500)
        assert np.array_equal(alone[0][0], X[k]) and np.array_equal(alone[1][0], G[k])
        assert (alone[2][0], alone[3][0], alone[4][0]) == (nit[k], nfev[k], stop[k])


def _bowl_turning_uphill(X):
    # 0.5 |x - c|^2 (1 + |x|^2) with c = (1.5, 0.3); past x_1 > 1.4 the
    # returned gradient has the wrong sign, so every direction there is uphill
    d, w = X - np.array([1.5, 0.3]), 1.0 + np.sum(X * X, axis=1)
    g = d * w[:, None] + np.sum(d * d, axis=1)[:, None] * X
    return 0.5 * np.sum(d * d, axis=1) * w, np.where(X[:, :1] > 1.4, -g, g)


def test_each_line_search_counts_its_own_trials():
    # on its way the row rejects 2 trials and accepts 3 steps; then the
    # wrong-signed gradient fails 20 trials in a row, counted from the last
    # accepted step only: nfev = 1 + 3 + 2 + 20
    X, G, nit, nfev, stop = ehz._lbfgs(_bowl_turning_uphill, np.zeros((1, 2)), grad_tol=1e-9,
                                       max_iter=100)
    assert (nit[0], nfev[0], stop[0]) == (3, 26, "linesearch")


# Trajectories of the optimizer, pinned: per restart (nit, nfev, stop
# message, stages), the polish records and the capacity.  The optimizer's
# bookkeeping may change only in ways that leave its arithmetic, and so
# these counts, exactly as they are.
_PINNED_TRAJECTORIES = [
    (bd.ball_cap_cylinder_intersection(0.5), 0.5001037608926973,
     [(224, 245, "ftol", 3), (194, 213, "gtol", 3), (196, 217, "ftol", 3),
      (171, 193, "ftol", 3)],
     [{"N": 128, "nit": 26, "nfev": 32, "message": "gtol"}]),
    (bd.EllipsoidBody.from_radii([1.0, 0.4]).linear_image(
        random_symplectic_matrix(2, np.random.default_rng(3))), 0.4000803384044124,
     [(23, 24, "gtol", 1), (22, 23, "gtol", 1), (20, 22, "gtol", 1), (23, 24, "gtol", 1)],
     [{"N": 128, "nit": 8, "nfev": 11, "message": "gtol"}]),
]


@pytest.mark.parametrize("body, capacity, restarts, polish", _PINNED_TRAJECTORIES,
                         ids=["intersection", "ellipsoid-image"])
def test_optimizer_trajectory_is_pinned(body, capacity, restarts, polish):
    res = ehz.ehz_capacity(body, N=128, restarts=4, seed=0)
    assert [(rec["nit"], rec["nfev"], rec["message"], rec["stages"])
            for rec in res.restart_log] == restarts
    assert res.polish == polish
    assert res.capacity == pytest.approx(capacity, rel=1e-12)


@pytest.mark.parametrize("body", [
    bd.ball_cap_cylinder_intersection(0.5),
    bd.EllipsoidBody.from_radii([1.0, 0.4]).linear_image(
        random_symplectic_matrix(2, np.random.default_rng(3)))])
def test_restart_results_do_not_depend_on_the_other_restarts(body):
    few = ehz.ehz_capacity(body, N=256, restarts=3, seed=0)
    many = ehz.ehz_capacity(body, N=256, restarts=8, seed=0)
    assert few.history == many.history[:3]
    assert few.restart_log == many.restart_log[:3]


def test_converged_means_the_last_stage_stopped_on_a_tolerance():
    body = bd.ball_cap_cylinder_intersection(0.5)
    capped = ehz.ehz_capacity(body, N=128, restarts=2, seed=0, max_iter=3)
    assert not capped.converged
    assert capped.polish[-1]["message"] == "maxiter"
    for rec in capped.restart_log:
        assert (rec["message"], rec["nit"]) == ("maxiter", 3 * rec["stages"])
    full = ehz.ehz_capacity(body, N=128, restarts=2, seed=0)
    assert full.converged and full.polish[-1]["message"] in ("gtol", "ftol")
    with pytest.raises(ValueError, match="^max_iter must be at least 1"):
        ehz.ehz_capacity(body, max_iter=0)


def test_criterion_2_ellipsoids_agree_with_scipy_lbfgsb():
    def objective(w, body):
        ratio, grad = ehz._ratio_and_grad(w[None], body, 256, 4)
        return ratio[0], grad[0]

    options = {"maxiter": 5000, "gtol": 1e-8, "ftol": 1e-14, "maxcor": 20}
    for t in (0.25, 0.5, 0.75):
        body = bd.EllipsoidBody.from_radii([1.0, t])
        est = ehz.ehz_capacity(body, N=256, restarts=8, seed=0).capacity
        w0 = ehz._fourier_start(np.random.default_rng([0, 0]), 256, 4).ravel()
        ref = minimize(objective, w0, args=(body,), jac=True, method="L-BFGS-B",
                       options=options)
        assert est == pytest.approx(ref.fun, rel=1e-8)


# ----------------------------------------------------- limit experiment


def test_scaled_limit_experiment_ball():
    out = ehz.scaled_limit_experiment(bd.CapacityBall(1.0, 2), [1, 2, 4],
                                      N=96, restarts=3, seed=7)
    assert out["slice_capacity"] == pytest.approx(1.0, abs=1e-9)
    for row in out["rows"]:
        assert row["capacity"] <= 1.0 + 0.03
        assert row["oracle"] == pytest.approx(1.0, abs=1e-9)
    assert out["limit_ok"]


def test_scaled_limit_experiment_mt_image():
    K = bd.EllipsoidBody.from_linear_image(matrix_Mt(0.5))
    out = ehz.scaled_limit_experiment(K, [1, 2, 4, 8], N=96, restarts=3, seed=8)
    caps = [row["capacity"] for row in out["rows"]]
    assert caps[-1] <= 0.5 + 0.03
    for a, b in zip(caps, caps[1:]):
        assert b <= a + 0.005
    assert out["slice_capacity"] == pytest.approx(0.5, abs=1e-9)
    assert out["limit_ok"]
    # optimizer tracks the normal-form oracle on every row
    for row in out["rows"]:
        assert row["capacity"] == pytest.approx(row["oracle"], rel=0.02)


def test_scaled_limit_experiment_single_entry():
    out = ehz.scaled_limit_experiment(bd.CapacityBall(1.0, 2), [1.0],
                                      N=64, restarts=2, seed=9)
    assert len(out["rows"]) == 1


def test_scaled_limit_experiment_validation():
    with pytest.raises(TypeError):
        ehz.scaled_limit_experiment(bd.frame_cylinder(0.5), [1, 2])


@pytest.mark.parametrize("L_list", [[], [1, 1, 2], [2, 1], [0, 1], [-1, 2],
                                    [1, float("nan")], [1, float("inf")],
                                    [float("nan")]])
def test_scaled_limit_experiment_rejects_bad_L_list_before_any_solve(L_list, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("ehz_capacity ran before L_list was checked")

    monkeypatch.setattr(ehz, "ehz_capacity", no_solve)
    with pytest.raises(ValueError, match="^L_list must be"):
        ehz.scaled_limit_experiment(bd.CapacityBall(1.0, 2), L_list)


# ----------------------------------------------------------- serialization


def test_result_json_and_loop_csv():
    res = ehz.ehz_capacity(bd.CapacityBall(1.0, 2), N=64, restarts=2, seed=10)
    doc = res.to_json()
    assert set(doc) == {"capacity", "N", "restarts", "seed", "converged",
                        "grad_norm", "history", "restart_agreement", "restart_log",
                        "polish"}
    assert set(doc["restart_log"][0]) == {"value", "nit", "nfev", "stages", "message",
                                          "grad_norm"}
    assert doc["polish"] == []
    csv = res.loop.to_csv()
    header = csv.splitlines()[0]
    assert header == "t,x1,y1,x2,y2"
    assert len(csv.splitlines()) == 65
