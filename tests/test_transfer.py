import numpy as np
import pytest

from qw3.coin import CoinMatrix, make_fourier, make_grover, phase_scale
from qw3.linalg import TAU, cross2
from qw3.spectral import _lands
from qw3.transfer import (
    ZERO_TOL,
    transfer_rows,
    zero_case_vectors,
)

from conftest import (
    abcd,
    bench_wide_field,
    iota,
    iota_inverse,
    lambda0_angle,
    random_coin,
    transfer_batch,
    transfer_matrix,
)

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
            -el * np.exp(1j * c.det_phase) * (np.conj(el) - np.conj(m[1, 1])) / (el - m[1, 1])
        )
        assert abs(A * D - B * Cc - expected) < 1e-12


def closed_form(coin: CoinMatrix, el: np.ndarray):
    """The transfer entries of one coin at an array of e^{i lam}, its scalar
    coefficients applied to el one operation at a time."""
    m, ed = coin.mat, np.exp(1j * coin.det_phase)
    num = m[0, 0] * el - ed * np.conj(m[2, 2])
    zero = np.abs(num) <= ZERO_TOL * max(abs(m[0, 0]), abs(m[2, 2]))
    num = np.where(zero, 1.0, num)
    return (el * (el - m[1, 1]) / num, (-m[0, 2] * el - ed * np.conj(m[2, 0])) / num,
            (m[2, 0] * el + ed * np.conj(m[0, 2])) / num,
            -ed * (1.0 / el - np.conj(m[1, 1])) / num, zero)


@pytest.mark.parametrize("phases", [1, 2, 37, 4000])
def test_transfer_rows_bits_do_not_depend_on_batch_shape(phases):
    # every coin of a 32-site window plus its tails, all at once and one at a
    # time, gives the one-coin closed form bit for bit, a single phase included
    field = bench_wide_field(101, 23)
    coins = (field.c_minus, *field.defects, field.c_plus)
    assert len(field.defects) == 32 and field.transfer_table.shape == (10, 34)
    el = np.exp(1j * (np.arange(phases) * (TAU / phases) + 0.1))
    entries, zero = transfer_rows(field.transfer_table, el)
    whole = (*entries, zero)
    for k, coin in enumerate(coins):
        entries, zero = transfer_rows(field.transfer_table[:, k : k + 1], el)
        for a, b, want in zip(whole, (*entries, zero), closed_form(coin, el)):
            assert a.shape == (34, phases) and b.shape == (1, phases)
            assert np.array_equal(a[k], want) and np.array_equal(b[0], want)
    t, zero = transfer_batch(coins[5], el[0])
    assert np.shape(t[0]) == () and np.shape(zero) == ()
    assert all(a == b[0] for a, b in zip((*t, zero), closed_form(coins[5], el[:1])))


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
            assert transfer_batch(c, np.exp(1j * lam))[1]
            A, _, _, D = abcd(c, lam)
            assert abs(A) <= 1e-10
            assert abs(D) <= 1e-10


def test_a_zero_only_near_the_degenerate_phase():
    c = make_fourier()
    lam0 = lambda0_angle(c)
    assert lam0 is not None
    assert abs(lam0 - 5 * np.pi / 6) < 1e-12
    assert transfer_batch(c, np.exp(1j * lam0))[1]
    assert not transfer_batch(c, np.exp(1j * (lam0 + 1e-3)))[1]
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
    left, right = zero_case_vectors(coin.mat)
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
    left, _ = zero_case_vectors(coin.mat)
    assert np.linalg.norm(left) == 0.0


def ratio_identity(coin: CoinMatrix) -> bool:
    """The paper's compact-support condition (a33 / conj(a11))^2 ==
    a12 a21 / (conj(a32) conj(a23)); False where a denominator vanishes."""
    m = coin.mat
    lhs_den = np.conj(m[0, 0]) ** 2
    rhs_den = np.conj(m[2, 1]) * np.conj(m[1, 2])
    if abs(lhs_den) <= 1e-10 or abs(rhs_den) <= 1e-10:
        return False
    lhs = m[2, 2] ** 2 / lhs_den
    rhs = m[0, 1] * m[1, 0] / rhs_den
    return bool(abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs)))


def bump_lands(coin: CoinMatrix) -> bool:
    """The landing rule for a compact bump: the direction the coin hands
    over to the next site lands on the one it requires there."""
    required, handed = zero_case_vectors(coin.mat)
    return _lands(handed, required)


def test_compact_support_condition_grover():
    assert bump_lands(make_grover()) and ratio_identity(make_grover())


def test_compact_support_condition_fourier():
    assert not bump_lands(make_fourier()) and not ratio_identity(make_fourier())


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
    assert not bump_lands(coin) and not ratio_identity(coin)


def test_bump_landing_rule_matches_ratio_identity(rng):
    # dressed Grover coins D1 G D2 (D = diag(p), diag(q)) admit a bump iff
    # p2^2 q2^2 = p1 p3 q1 q3; Haar coins generically do not
    for k in range(400):
        p, q = np.exp(1j * rng.uniform(0, TAU, (2, 3)))
        if k % 2:
            q[1] = np.sqrt(p[0] * p[2] * q[0] * q[2]) / p[1]
        coin = CoinMatrix(np.diag(p) @ make_grover().mat @ np.diag(q))
        assert bump_lands(coin) == ratio_identity(coin) == bool(k % 2)
        haar = random_coin(rng)
        assert bump_lands(haar) == ratio_identity(haar)


def test_iota_inverse_zero_maps_to_zero(rng):
    from qw3.coin import field_homogeneous

    psi = iota_inverse(-3, np.zeros((7, 2), dtype=complex),
                       field_homogeneous(random_coin(rng)), 1.0)
    assert psi.norm() == 0.0


def test_iota_roundtrip_on_interior(rng):
    from qw3.coin import field_homogeneous

    values = rng.normal(size=(9, 2)) + 1j * rng.normal(size=(9, 2))
    field = field_homogeneous(random_coin(rng))
    psi = iota_inverse(-4, values, field, 0.7)
    back_lo, back = iota(psi)
    for x in range(-4, 5):
        assert np.abs(back[x - back_lo] - values[x + 4]).max() < 1e-14


def test_iota_inverse_middle_component_is_stationary(rng):
    # the reconstructed second component satisfies
    # e^{i lam} psi_2(x) = (C_x psi(x))_2 identically
    from qw3.coin import field_homogeneous

    c = random_coin(rng)
    field = field_homogeneous(c)
    lam = rng.uniform(0, TAU)
    values = rng.normal(size=(7, 2)) + 1j * rng.normal(size=(7, 2))
    psi = iota_inverse(-3, values, field, lam)
    for x in range(psi.lo, psi.hi + 1):
        row2 = c.mat[1] @ psi.amp(x)
        assert abs(np.exp(1j * lam) * psi.amp(x)[1] - row2) < 1e-12


def test_iota_inverse_of_transfer_chain_is_eigenvector():
    # a reduced state built from the transfer recursion lifts to an
    # eigenvector of the direct walk operator
    from qw3.coin import field_one_defect
    from qw3.spectral import _tail_pairs, find_roots, operator_residual

    field = field_one_defect(make_fourier(), phase_scale(make_fourier(), np.pi / 12))
    lam = find_roots(field, grid_n=1000).records[0].lam
    el = np.exp(1j * np.array([lam]))
    *_, idx, ((z_greater, z_less), (v, _)) = _tail_pairs(field, el, either=True)
    assert idx.tolist() == [0]
    z_greater, z_less, v = z_greater[0], z_less[0], v[0]
    # enough sites for both geometric tails to fall below 1e-12
    m = int(np.ceil(np.log(1e-12) / np.log(abs(z_less))))
    m = max(m, int(np.ceil(-np.log(1e-12) / np.log(abs(z_greater)))))
    lo, hi = field.x_minus - m, field.x_plus + m
    values = np.zeros((hi - lo + 1, 2), dtype=complex)
    values[field.x_minus - lo] = v
    for x in range(field.x_minus, field.x_plus):
        v = transfer_matrix(field.lookup(x), lam) @ v
        values[x + 1 - lo] = v
    for j in range(1, m + 1):
        values[field.x_plus + j - lo] = (z_less**j) * values[field.x_plus - lo]
        values[field.x_minus - j - lo] = (z_greater**-j) * values[field.x_minus - lo]
    psi = iota_inverse(lo, values, field, lam).normalized()
    assert operator_residual(field, lam, psi) <= 1e-8


def test_transfer_raises_nothing_on_zero_flag_state():
    assert transfer_matrix(make_grover(), 0.0) is None
    assert abs(abcd(make_grover(), 0.0)[0]) < 1e-12
