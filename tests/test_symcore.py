import numpy as np
import pytest

from symcap import symcore as sc


def test_standard_J_n1():
    assert np.array_equal(sc.standard_J(1), np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_standard_J_squares_to_minus_identity():
    J = sc.standard_J(2)
    assert np.allclose(J @ J, -np.eye(4))


def test_standard_J_rejects_zero():
    with pytest.raises(ValueError):
        sc.standard_J(0)


def test_symplectic_form_normalization():
    ex = np.array([1.0, 0.0, 0.0, 0.0])
    ey = np.array([0.0, 1.0, 0.0, 0.0])
    assert sc.symplectic_form(ex, ey) == 1.0


def test_symplectic_form_cross_indices_vanish():
    ex2 = np.array([0.0, 0.0, 1.0, 0.0])
    ey1 = np.array([0.0, 1.0, 0.0, 0.0])
    assert sc.symplectic_form(ex2, ey1) == 0.0


def test_symplectic_form_antisymmetry():
    rng = np.random.default_rng(0)
    for _ in range(50):
        u = rng.normal(size=6)
        v = rng.normal(size=6)
        assert abs(sc.symplectic_form(u, u)) < 1e-12
        assert abs(sc.symplectic_form(u, v) + sc.symplectic_form(v, u)) < 1e-12


def test_symplectic_form_on_printed_family_normals():
    # n1 = -sqrt(1-t^2) e_{y_{n-1}} + t e_{x_n}, n2 = e_{y_n} at t = 0.6
    n1, n2 = sc.mt_plane_normals(0.6)
    assert sc.symplectic_form(n1, n2) == pytest.approx(0.6, abs=1e-12)


def test_symplectic_form_dimension_mismatch():
    with pytest.raises(ValueError):
        sc.symplectic_form(np.ones(4), np.ones(6))


def test_is_symplectic_identity_and_stretch():
    assert sc.is_symplectic(np.eye(4))
    assert not sc.is_symplectic(np.diag([2.0, 2.0, 1.0, 1.0]))


def test_is_symplectic_rejects_odd_size():
    with pytest.raises(ValueError):
        sc.is_symplectic(np.eye(3))


def test_printed_matrix_A_orbit_inverse_is_symplectic():
    assert sc.is_symplectic(sc.matrix_A_orbit_inv(0.5), 1e-9)


def test_kahler_angle_complex_and_lagrangian_pairs():
    exn = np.array([0.0, 0.0, 1.0, 0.0])
    eyn = np.array([0.0, 0.0, 0.0, 1.0])
    exm = np.array([1.0, 0.0, 0.0, 0.0])
    assert sc.kahler_angle(exn, eyn) == pytest.approx(1.0)
    assert sc.kahler_angle(exm, exn) == pytest.approx(0.0)


def test_kahler_angle_of_span_plane_normals():
    # P_t spanned by (s, t) and (0, i) in C^2 with s^2 + t^2 = 1
    t = 0.8
    s = np.sqrt(1.0 - t * t)
    u1 = np.array([s, 0.0, t, 0.0])
    u2 = np.array([0.0, 0.0, 0.0, 1.0])
    # orthogonal complement of span{u1, u2}
    n1 = np.array([t, 0.0, -s, 0.0])
    n2 = np.array([0.0, 1.0, 0.0, 0.0])
    assert abs(n1 @ u1) < 1e-12 and abs(n1 @ u2) < 1e-12
    assert abs(n2 @ u1) < 1e-12 and abs(n2 @ u2) < 1e-12
    assert sc.kahler_angle(n1, n2) == pytest.approx(t, abs=1e-12)


def test_kahler_angle_rejects_bad_inputs():
    with pytest.raises(ValueError):
        sc.kahler_angle(np.array([2.0, 0.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        sc.kahler_angle(np.array([1.0, 0.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0, 0.0]))


def test_kahler_angle_unitary_invariance():
    rng = np.random.default_rng(7)
    n1, n2 = sc.gw_plane_normals(0.37, 3)
    base = sc.kahler_angle(n1, n2)
    for _ in range(25):
        U = sc.random_unitary_matrix(3, rng)
        assert sc.kahler_angle(U @ n1, U @ n2) == pytest.approx(base, abs=1e-9)


def test_matrix_Mt_block_entries():
    M = sc.matrix_Mt(0.5)
    assert M[0, 0] == pytest.approx(0.57735026919, abs=1e-10)
    assert M[1, 1] == pytest.approx(1.73205080757, abs=1e-10)
    assert M[0, 3] == -1.0 and M[2, 1] == -1.0


def test_matrix_Mt_symplectic_and_endpoints():
    assert sc.is_symplectic(sc.matrix_Mt(0.3, 3), 1e-9)
    with pytest.raises(ValueError):
        sc.matrix_Mt(1.0)
    with pytest.raises(ValueError):
        sc.matrix_Mt(0.0)


def test_matrix_A_orbit_printed_entry_and_inverse():
    t = 0.5
    Ainv = sc.matrix_A_orbit_inv(t)
    assert Ainv[0, 0] == pytest.approx(np.sqrt(1.5) / np.sqrt(0.5) / np.sqrt(2.0), abs=1e-10)
    A = sc.matrix_A_orbit(t)
    assert np.max(np.abs(A @ Ainv - np.eye(4))) < 1e-10
    assert sc.is_symplectic(Ainv, 1e-9)


def test_matrix_A_gw_entry_and_normal_mapping():
    assert sc.matrix_A_gw(0.64)[2 * 2 - 4, 2 * 2 - 4] == pytest.approx(1.25)
    assert sc.is_symplectic(sc.matrix_A_gw(0.2), 1e-9)
    # the normals of the angle-t family map to a complex pair up to scale
    t = 0.5
    A = sc.matrix_A_gw(t)
    n1, n2 = sc.gw_plane_normals(t)
    m1 = np.linalg.inv(A).T @ n1
    m2 = np.linalg.inv(A).T @ n2
    assert sc.plane_kahler_angle(m1, m2) == pytest.approx(1.0, abs=1e-10)
    # before mapping the pair has angle t
    assert sc.kahler_angle(n1, n2) == pytest.approx(t, abs=1e-10)


def test_matrix_S_identity_and_entries():
    assert np.allclose(sc.matrix_S(1.0, 1.0), np.eye(4))
    S = sc.matrix_S(2.0, 1.0)
    assert S[0, 2] == pytest.approx(1.0)
    assert sc.is_symplectic(sc.matrix_S(1.7, 0.9), 1e-9)
    with pytest.raises(ValueError):
        sc.matrix_S(0.5, 0.5)


def test_matrix_AL_diagonal_and_not_symplectic():
    assert np.allclose(sc.matrix_AL(1.0, 2), np.eye(4))
    assert np.allclose(sc.matrix_AL(3.0, 2), np.diag([1.0, 1.0, 3.0, 3.0]))
    assert not sc.is_symplectic(sc.matrix_AL(2.0, 2))
    with pytest.raises(ValueError):
        sc.matrix_AL(0.0, 2)


def test_printed_matrices_symplectic_random_parameters():
    rng = np.random.default_rng(11)
    for _ in range(20):
        t = rng.uniform(0.02, 0.98)
        for M in (sc.matrix_Mt(t), sc.matrix_A_orbit(t), sc.matrix_A_gw(t)):
            assert sc.is_symplectic(M, 1e-9)
        d1 = rng.uniform(0.2, 4.0)
        d2 = (1.0 + rng.uniform(0.0, 6.0)) / d1
        assert sc.is_symplectic(sc.matrix_S(d1, d2), 1e-9)


def test_symplectic_matrices_preserve_form():
    rng = np.random.default_rng(13)
    for _ in range(20):
        t = rng.uniform(0.05, 0.95)
        d1 = rng.uniform(0.3, 3.0)
        mats = (sc.matrix_Mt(t), sc.matrix_A_orbit(t), sc.matrix_A_gw(t),
                sc.matrix_S(d1, (1.0 + rng.uniform(0, 4)) / d1))
        u = rng.normal(size=4)
        v = rng.normal(size=4)
        base = sc.symplectic_form(u, v)
        for M in mats:
            assert sc.symplectic_form(M @ u, M @ v) == pytest.approx(base, abs=1e-9)


def test_random_symplectic_matrix_is_symplectic():
    rng = np.random.default_rng(5)
    for _ in range(10):
        assert sc.is_symplectic(sc.random_symplectic_matrix(2, rng), 1e-8)


def test_random_symplectic_matrices_follow_the_scalar_stream():
    rng_scalar, rng_stack = np.random.default_rng(11), np.random.default_rng(11)
    scalar = np.array([sc.random_symplectic_matrix(2, rng_scalar) for _ in range(1000)])
    stack = sc.random_symplectic_matrices(2, rng_stack, 1000)
    assert stack.shape == (1000, 4, 4)
    assert np.max(np.abs(stack - scalar)) <= 1e-14
    assert rng_stack.bit_generator.state == rng_scalar.bit_generator.state
    assert all(sc.is_symplectic(M) for M in stack)


def test_matrix_S_stack_matches_scalar_calls():
    d1 = np.array([0.5, 1.0, 3.0])
    d2 = np.array([[2.0], [4.0]])
    stack = sc.matrix_S(d1, d2)
    assert stack.shape == (2, 3, 4, 4)
    for i in range(2):
        for j in range(3):
            assert np.array_equal(stack[i, j], sc.matrix_S(d1[j], d2[i, 0]))
    with pytest.raises(ValueError):
        sc.matrix_S(d1, 1.0)  # d1 * d2 = 0.5 < 1 in the first entry


def test_kahler_angle_datum_validation():
    n1, n2 = sc.gw_plane_normals(0.4)
    datum = sc.KahlerAngleDatum(n1, n2, eps=0.1)
    assert datum.t == pytest.approx(0.4, abs=1e-12)
    with pytest.raises(ValueError):
        sc.KahlerAngleDatum(2.0 * n1, n2)
    with pytest.raises(ValueError):
        sc.KahlerAngleDatum(n1, n2, eps=-1.0)
