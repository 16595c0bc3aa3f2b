import numpy as np

from qw3.linalg import TAU, branch_sqrt, cross2, eig2, phase_fix

from conftest import random_unitary


def test_branch_sqrt_identity():
    assert branch_sqrt(1.0) == 1.0
    assert branch_sqrt(0.0) == 0.0


def test_branch_sqrt_negative_real():
    # arg(-1) = pi under the [0, 2pi) convention, so the root is +i.
    assert abs(branch_sqrt(-1.0) - 1j) < 1e-15


def test_branch_sqrt_negative_imaginary():
    # arg(-i) = 3pi/2, root at angle 3pi/4: (-1 + i)/sqrt(2).
    expected = (-1.0 + 1.0j) / np.sqrt(2.0)
    got = branch_sqrt(-1.0j)
    assert abs(got - expected) < 1e-15
    assert abs(got * got - (-1.0j)) < 1e-15


def test_branch_sqrt_square_recovers_input(rng):
    for _ in range(10_000):
        mag = rng.uniform(-6, 6)
        a = 10.0**mag * np.exp(1j * rng.uniform(0, TAU))
        s = branch_sqrt(a)
        assert abs(s * s - a) <= 1e-12 * abs(a)


def test_branch_sqrt_half_plane_image(rng):
    for _ in range(10_000):
        a = rng.normal() + 1j * rng.normal()
        if a == 0:
            continue
        arg = np.angle(branch_sqrt(a))
        assert -1e-15 <= arg < np.pi


def test_eig2_identity():
    pairs = eig2(np.eye(2, dtype=complex))
    assert abs(pairs.zeta_plus - 1) < 1e-14
    assert abs(pairs.zeta_minus - 1) < 1e-14
    assert pairs.degenerate
    # any orthonormal pair is acceptable
    assert abs(np.vdot(pairs.v_plus, pairs.v_plus) - 1) < 1e-14


def test_eig2_diagonal():
    pairs = eig2(np.diag([2.0, 0.5]).astype(complex))
    assert abs(pairs.zeta_plus - 2.0) < 1e-14
    assert abs(pairs.zeta_minus - 0.5) < 1e-14
    assert abs(abs(pairs.v_plus[0]) - 1) < 1e-12 and abs(pairs.v_plus[1]) < 1e-12
    assert abs(pairs.v_minus[0]) < 1e-12 and abs(abs(pairs.v_minus[1]) - 1) < 1e-12
    assert not pairs.degenerate


def test_eig2_swap_matrix():
    # [[0,1],[1,0]] has eigenvalues +/-1 with eigenvectors along [1, +/-1].
    pairs = eig2(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    assert abs(pairs.zeta_plus - 1.0) < 1e-14
    assert abs(pairs.zeta_minus + 1.0) < 1e-14
    assert abs(cross2(pairs.v_plus, np.array([1.0, 1.0]) / np.sqrt(2))) < 1e-12
    assert abs(cross2(pairs.v_minus, np.array([1.0, -1.0]) / np.sqrt(2))) < 1e-12


def test_eig2_defective_reports_flag():
    pairs = eig2(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))
    assert pairs.degenerate
    assert abs(cross2(pairs.v_plus, pairs.v_minus)) < 1e-10


def test_eig2_trace_det_reconstruction(rng):
    for _ in range(10_000):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        pairs = eig2(m)
        tr = m[0, 0] + m[1, 1]
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        scale = max(1.0, abs(tr), abs(det))
        assert abs(pairs.zeta_plus + pairs.zeta_minus - tr) <= 1e-10 * scale
        assert abs(pairs.zeta_plus * pairs.zeta_minus - det) <= 1e-10 * scale


def test_eig2_eigenvector_residual(rng):
    for _ in range(2000):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        pairs = eig2(m)
        if pairs.degenerate:
            continue
        for z, v in ((pairs.zeta_plus, pairs.v_plus), (pairs.zeta_minus, pairs.v_minus)):
            assert np.linalg.norm(m @ v - z * v) <= 1e-10 * max(1.0, np.abs(m).max())


def test_matmul_associative_on_unit_norm(rng):
    # sanity on the array plumbing the kernels rest on
    for _ in range(200):
        a, b, c = (random_unitary(rng) for _ in range(3))
        left = (a @ b) @ c
        right = a @ (b @ c)
        assert np.abs(left - right).max() < 1e-13


def test_cross2_antisymmetric(rng):
    for _ in range(100):
        u = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        assert abs(cross2(u, v) + cross2(v, u)) < 1e-14


def test_phase_fix_first_entry_real():
    v = phase_fix(np.array([0.0, 1j * 2.0, 1.0]))
    assert abs(v[1].imag) < 1e-15 and v[1].real > 0
