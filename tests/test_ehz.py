import numpy as np
import pytest

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
    return ehz._ratio_and_grad(v.ravel(), body, v.shape[0], v.shape[1])[0]


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
    with pytest.raises(ValueError):
        ehz.scaled_limit_experiment(bd.CapacityBall(1.0, 2), [2, 1])


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
