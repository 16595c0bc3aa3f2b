import numpy as np

from qw3.linalg import TAU, branch_sqrt, cross2, eig2_batch, phase_fix

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


def eig2(m: np.ndarray):
    """eig2_batch on one 2x2 matrix: eigenvalues and unit eigenvectors, ordered by modulus."""
    p = eig2_batch(*np.asarray(m, dtype=complex).reshape(4, 1))
    return (p.zeta_less[0], p.zeta_greater[0], unit(p.v_less[0]), unit(p.v_greater[0]),
            bool(p.degenerate[0]))


def unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def stacked(matrices: list[np.ndarray]) -> list[np.ndarray]:
    """The entries m00, m01, m10, m11 of a list of 2x2 matrices, as eig2_batch takes them."""
    return list(np.array(matrices).reshape(-1, 4).T)


def test_eig2_identity():
    z_less, z_greater, v_less, _, degenerate = eig2(np.eye(2, dtype=complex))
    assert abs(z_less - 1) < 1e-14
    assert abs(z_greater - 1) < 1e-14
    assert degenerate
    # any orthonormal pair is acceptable
    assert abs(np.vdot(v_less, v_less) - 1) < 1e-14


def test_eig2_diagonal():
    z_less, z_greater, v_less, v_greater, degenerate = eig2(np.diag([2.0, 0.5]).astype(complex))
    assert abs(z_greater - 2.0) < 1e-14
    assert abs(z_less - 0.5) < 1e-14
    assert abs(abs(v_greater[0]) - 1) < 1e-12 and abs(v_greater[1]) < 1e-12
    assert abs(v_less[0]) < 1e-12 and abs(abs(v_less[1]) - 1) < 1e-12
    assert not degenerate


def test_eig2_swap_matrix():
    # [[0,1],[1,0]] has eigenvalues +/-1 with eigenvectors along [1, +/-1];
    # their moduli tie, so the + branch comes first
    z_less, z_greater, v_less, v_greater, _ = eig2(
        np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    assert abs(z_less - 1.0) < 1e-14
    assert abs(z_greater + 1.0) < 1e-14
    assert abs(cross2(v_less, np.array([1.0, 1.0]) / np.sqrt(2))) < 1e-12
    assert abs(cross2(v_greater, np.array([1.0, -1.0]) / np.sqrt(2))) < 1e-12


def test_eig2_defective_reports_flag():
    _, _, v_less, v_greater, degenerate = eig2(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))
    assert degenerate
    assert abs(cross2(v_less, v_greater)) < 1e-10


def test_eig2_trace_det_reconstruction(rng):
    ms = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(10_000)]
    m00, m01, m10, m11 = stacked(ms)
    pairs = eig2_batch(m00, m01, m10, m11)
    tr = m00 + m11
    det = m00 * m11 - m01 * m10
    scale = np.maximum(1.0, np.maximum(np.abs(tr), np.abs(det)))
    assert (np.abs(pairs.zeta_less + pairs.zeta_greater - tr) <= 1e-10 * scale).all()
    assert (np.abs(pairs.zeta_less * pairs.zeta_greater - det) <= 1e-10 * scale).all()
    assert (np.abs(pairs.zeta_less) <= np.abs(pairs.zeta_greater)).all()


def test_eig2_eigenvector_residual(rng):
    ms = np.array([rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2000)])
    pairs = eig2_batch(*stacked(ms))
    keep = ~pairs.degenerate
    bound = 1e-10 * np.maximum(1.0, np.abs(ms).max(axis=(1, 2)))[keep]
    for z, v in ((pairs.zeta_less, pairs.v_less), (pairs.zeta_greater, pairs.v_greater)):
        v = unit(v)
        r = np.einsum("kij,kj->ki", ms, v) - z[:, None] * v
        assert (np.linalg.norm(r, axis=1)[keep] <= bound).all()


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
