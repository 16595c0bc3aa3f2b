import numpy as np

from qw3.coin import CoinMatrix, make_fourier, make_grover, phase_scale
from qw3.linalg import TAU, cross2
from qw3.transfer import (
    ReducedState,
    a_zero,
    compact_support_condition,
    iota_inverse,
    lambda0_angle,
    zero_case_vectors,
)

from conftest import abcd, iota, random_coin, transfer_matrix

OMEGA = np.exp(2j * np.pi / 3)


def dressed_coin(base: CoinMatrix, rng) -> CoinMatrix:
    """Random diagonal-phase dressing; preserves all entry moduli."""
    d1 = np.diag(np.exp(1j * rng.uniform(0, TAU, 3)))
    d2 = np.diag(np.exp(1j * rng.uniform(0, TAU, 3)))
    return CoinMatrix(d1 @ base.mat @ d2)


def test_abcd_grover_vanishes_at_zero_phase():
    # A = -1/3 + (2/3)(2/3)/(1 - (-1/3)) = -1/3 + 1/3 = 0
    A, B, C, D = abcd(make_grover(), 0.0)
    assert abs(A) < 1e-14
    assert abs(D) < 1e-14  # vanishes together with A


def test_abcd_determinant_identity(rng):
    # A D - B C = -e^{i(lam + Delta)} (e^{-i lam} - conj(a22)) / (e^{i lam} - a22)
    for _ in range(300):
        c = random_coin(rng)
        lam = rng.uniform(0, TAU)
        A, B, Cc, D = abcd(c, lam)
        m = c.mat
        el = np.exp(1j * lam)
        expected = (
            -el * c.det_unit * (np.conj(el) - np.conj(m[1, 1])) / (el - m[1, 1])
        )
        assert abs(A * D - B * Cc - expected) < 1e-12


def test_transfer_unit_determinant(rng):
    for _ in range(1000):
        c = random_coin(rng)
        t = transfer_matrix(c, rng.uniform(0, TAU))
        if t is None:
            continue
        assert abs(abs(np.linalg.det(t)) - 1.0) <= 1e-10


def test_coupling_moduli_match(rng):
    # |A| == |D| at every phase, a consequence of unitarity
    for _ in range(1000):
        c = random_coin(rng)
        A, _, _, D = abcd(c, rng.uniform(0, TAU))
        assert abs(abs(A) - abs(D)) <= 1e-10


def test_trace_conjugation_identity(rng):
    # tr T = det T * conj(tr T)
    for _ in range(1000):
        t = transfer_matrix(random_coin(rng), rng.uniform(0, TAU))
        if t is None:
            continue
        tr = t[0, 0] + t[1, 1]
        det = np.linalg.det(t)
        assert abs(tr - det * np.conj(tr)) <= 1e-10 * max(1.0, abs(tr))


def test_simplified_matches_raw_construction(rng):
    # closed-form T == (1/A) [[e^{i lam}, -B], [C, -e^{-i lam}(BC - AD)]]
    for _ in range(1000):
        c = random_coin(rng)
        lam = rng.uniform(0, TAU)
        t = transfer_matrix(c, lam)
        A, B, Cc, D = abcd(c, lam)
        if t is None or abs(A) <= 1e-6:
            continue
        el = np.exp(1j * lam)
        raw = np.array(
            [[el, -B], [Cc, -np.conj(el) * (B * Cc - A * D)]], dtype=complex
        ) / A
        assert np.abs(t - raw).max() <= 1e-10


def test_a_zero_forces_d_zero(rng):
    # at a coin's degenerate phase both diagonal couplings vanish
    for base in (make_fourier(), make_grover()):
        for _ in range(100):
            c = dressed_coin(base, rng)
            lam = lambda0_angle(c)
            assert lam is not None
            assert a_zero(c, lam)
            A, _, _, D = abcd(c, lam)
            assert abs(A) <= 1e-10
            assert abs(D) <= 1e-10


def test_a_zero_only_near_the_degenerate_phase():
    c = make_fourier()
    lam0 = lambda0_angle(c)
    assert lam0 is not None
    assert abs(lam0 - 5 * np.pi / 6) < 1e-12
    assert a_zero(c, lam0)
    assert not a_zero(c, lam0 + 1e-3)
    assert transfer_matrix(c, lam0) is None


def test_lambda0_angle_shifts_with_global_phase(rng):
    # multiplying the coin by e^{i theta} moves the degenerate phase by +theta
    for theta in rng.uniform(0.05, TAU - 0.05, size=20):
        shifted = lambda0_angle(phase_scale(make_fourier(), theta))
        assert abs((shifted - 5 * np.pi / 6 - theta) % TAU) < 1e-10 or abs(
            (shifted - 5 * np.pi / 6 - theta) % TAU - TAU
        ) < 1e-10


def test_lambda0_angle_none_for_generic_coin(rng):
    hits = 0
    for _ in range(50):
        c = random_coin(rng)
        if abs(abs(c.mat[0, 0]) - abs(c.mat[2, 2])) > 1e-10:
            assert lambda0_angle(c) is None
            hits += 1
    assert hits > 0


def test_zero_case_vectors_fourier_defect():
    # the defect coin's constraint directions are along [w^2, 1] and [w, 1]
    coin = phase_scale(make_fourier(), np.pi / 12)
    left, right = zero_case_vectors(coin)
    assert abs(np.linalg.norm(left) - 1) < 1e-14
    assert abs(np.linalg.norm(right) - 1) < 1e-14
    assert abs(cross2(left, np.array([OMEGA**2, 1.0]))) < 1e-12
    assert abs(cross2(right, np.array([OMEGA, 1.0]))) < 1e-12


def test_zero_case_vectors_zero_vector_allowed():
    # a11 = a32 = 0 makes the left constraint direction vanish identically
    s = 1 / np.sqrt(2)
    coin = CoinMatrix(
        np.array([[0, 1, 0], [s, 0, s], [-s, 0, s]], dtype=complex)
    )
    left, _ = zero_case_vectors(coin)
    assert np.linalg.norm(left) == 0.0


def test_compact_support_condition_grover():
    assert compact_support_condition(make_grover())


def test_compact_support_condition_fourier():
    assert not compact_support_condition(make_fourier())


def test_compact_support_condition_zero_numerator():
    # a12 = 0 with a33 != 0: ratio identity cannot hold
    ca, sa = np.cos(0.7), np.sin(0.7)
    cb, sb = np.cos(0.9), np.sin(0.9)
    rot13 = np.array([[ca, 0, sa], [0, 1, 0], [-sa, 0, ca]])
    rot23 = np.array([[1, 0, 0], [0, cb, sb], [0, -sb, cb]])
    coin = CoinMatrix((rot23 @ rot13).astype(complex))
    m = coin.mat
    assert abs(m[0, 1]) < 1e-15 and abs(m[2, 2]) > 0.1
    assert abs(m[2, 1] * m[1, 2]) > 1e-3  # the guarded denominator is healthy
    assert not compact_support_condition(coin)


def test_iota_inverse_zero_maps_to_zero(rng):
    from qw3.coin import field_homogeneous

    red = ReducedState(-3, 3, np.zeros((7, 2), dtype=complex))
    psi = iota_inverse(red, field_homogeneous(random_coin(rng)), 1.0)
    assert psi.norm() == 0.0


def test_iota_roundtrip_on_interior(rng):
    from qw3.coin import field_homogeneous

    values = rng.normal(size=(9, 2)) + 1j * rng.normal(size=(9, 2))
    red = ReducedState(-4, 4, values)
    field = field_homogeneous(random_coin(rng))
    psi = iota_inverse(red, field, 0.7)
    back = iota(psi)
    for x in range(-4, 5):
        assert np.abs(back.value(x) - red.value(x)).max() < 1e-14


def test_iota_inverse_middle_component_is_stationary(rng):
    # the reconstructed second component satisfies
    # e^{i lam} psi_2(x) = (C_x psi(x))_2 identically
    from qw3.coin import field_homogeneous

    c = random_coin(rng)
    field = field_homogeneous(c)
    lam = rng.uniform(0, TAU)
    values = rng.normal(size=(7, 2)) + 1j * rng.normal(size=(7, 2))
    psi = iota_inverse(ReducedState(-3, 3, values), field, lam)
    for x in range(psi.lo, psi.hi + 1):
        row2 = c.mat[1] @ psi.amp(x)
        assert abs(np.exp(1j * lam) * psi.amp(x)[1] - row2) < 1e-12


def test_iota_inverse_of_transfer_chain_is_eigenvector():
    # a reduced state built from the transfer recursion lifts to an
    # eigenvector of the direct walk operator
    from qw3.coin import field_one_defect
    from qw3.spectral import asymptotic_spectrum, find_roots, operator_residual

    field = field_one_defect(make_fourier(), phase_scale(make_fourier(), np.pi / 12))
    lam = find_roots(field, grid_n=1000).records[0].lam
    el = np.exp(1j * np.array([lam]))
    left, _, _ = asymptotic_spectrum(field.c_minus, el)
    right, _, _ = asymptotic_spectrum(field.c_plus, el)
    z_greater, z_less = left.zeta_greater[0], right.zeta_less[0]
    # enough sites for both geometric tails to fall below 1e-12
    m = int(np.ceil(np.log(1e-12) / np.log(abs(z_less))))
    m = max(m, int(np.ceil(-np.log(1e-12) / np.log(abs(z_greater)))))
    lo, hi = field.x_minus - m, field.x_plus + m
    values = np.zeros((hi - lo + 1, 2), dtype=complex)
    v = left.v_greater[0]
    values[field.x_minus - lo] = v
    for x in range(field.x_minus, field.x_plus):
        v = transfer_matrix(field.lookup(x), lam) @ v
        values[x + 1 - lo] = v
    for j in range(1, m + 1):
        values[field.x_plus + j - lo] = (z_less**j) * values[field.x_plus - lo]
        values[field.x_minus - j - lo] = (z_greater**-j) * values[field.x_minus - lo]
    psi = iota_inverse(ReducedState(lo, hi, values), field, lam).normalized()
    assert operator_residual(field, lam, psi) <= 1e-8


def test_transfer_raises_nothing_on_zero_flag_state():
    assert transfer_matrix(make_grover(), 0.0) is None
    assert abs(abcd(make_grover(), 0.0)[0]) < 1e-12
