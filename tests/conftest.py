import numpy as np
import pytest

from qw3.coin import (CoinField, CoinMatrix, ConfigError, field_homogeneous, make_fourier,
                      make_grover, phase_scale)
from qw3.evolution import StateVector
from qw3.spectral import lambda0_set
from qw3.transfer import lift_rows, transfer_coefficients, transfer_rows

THETAS = (np.pi / 12, 3 * np.pi / 12, 7 * np.pi / 12, 11 * np.pi / 12)


def random_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random 3x3 unitary via QR with phase-fixed diagonal."""
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, r = np.linalg.qr(z)
    return q @ np.diag(r.diagonal() / np.abs(r.diagonal()))


def random_coin(rng: np.random.Generator) -> CoinMatrix:
    """Random unitary coin satisfying the non-degeneracy constraints."""
    while True:
        m = random_unitary(rng)
        if max(abs(abs(m[0, 2])), abs(abs(m[1, 1])), abs(abs(m[2, 0]))) < 1 - 1e-6:
            return CoinMatrix(m)


def abcd(coin: CoinMatrix, lam: float) -> tuple[complex, complex, complex, complex]:
    """The four reduced coupling coefficients at eigenphase lam (rational form).

    A = a11 + a12 a21 / (e^{i lam} - a22) and cyclic analogues; the common
    denominator never vanishes because |a22| != 1 for a valid coin. The
    oracle for the unitarity-simplified closed form in qw3.transfer.transfer_rows.
    """
    m = coin.mat
    den = np.exp(1j * lam) - m[1, 1]
    return (
        m[0, 0] + m[0, 1] * m[1, 0] / den,
        m[0, 2] + m[0, 1] * m[1, 2] / den,
        m[2, 0] + m[2, 1] * m[1, 0] / den,
        m[2, 2] + m[2, 1] * m[1, 2] / den,
    )


def transfer_batch(coin: CoinMatrix, el):
    """transfer_rows of one coin at el = e^{i lam}, results of el's shape."""
    entries, zero = transfer_rows(transfer_coefficients(coin.mat[None], [coin.det_phase]),
                                 np.reshape(el, -1))
    return tuple(t.reshape(np.shape(el)) for t in entries), zero.reshape(np.shape(el))


def lambda0_angle(coin: CoinMatrix) -> float | None:
    """The coin's degenerate phase in [0, 2pi), None if it has none: lambda0_set
    of the homogeneous field."""
    angles = lambda0_set(field_homogeneous(coin))
    return angles[0] if angles else None


def transfer_matrix(coin: CoinMatrix, lam: float) -> np.ndarray | None:
    """transfer_batch at one phase as a 2x2 matrix; None where it degenerates."""
    (t00, t01, t10, t11), zero = transfer_batch(coin, np.exp(1j * lam))
    return None if zero else np.array([[t00, t01], [t10, t11]])


def iota_inverse(lo: int, values: np.ndarray, field: CoinField, lam: float) -> StateVector:
    """Lift one reduced state, values (n, 2) at sites lo..lo+n-1, back to
    three components at eigenphase lam, on the window [lo - 1, lo + n - 1]:
    qw3.transfer.lift_rows on a single state."""
    grid = np.zeros((len(values) + 1, 2), dtype=complex)
    grid[:-1] = values
    amps = lift_rows(field, np.arange(lo - 1, lo + len(values)), grid, np.exp(1j * lam))
    return StateVector(lo - 1, lo + len(values) - 1, amps)


def iota(state: StateVector) -> tuple[int, np.ndarray]:
    """Reduce a three-component state: (iota psi)(x) = [psi_1(x-1), psi_3(x)].

    Returns the first site and the values from there on, shape (n, 2): the
    inverse of iota_inverse on the window interior.
    """
    lo, hi = state.lo, state.hi + 1
    values = np.zeros((hi - lo + 1, 2), dtype=complex)
    values[1:, 0] = state.amps[:, 0]
    values[: state.hi - state.lo + 1, 1] = state.amps[:, 2]
    return lo, values


def bench_wide_field(seed: int, index: int) -> CoinField:
    """Field `index` of the benchmark's wide-windows inputs for `seed`.

    Rebuilt from the same draws as bench/workloads.py:wide_fields, so that a
    field seen there can be a fixed test input: twelve window lengths, each
    with Fourier and then with random tails (from a fixed stream), a quarter
    of the sites phase-scaled Grover coins and the rest Haar-random.
    """
    def haar_coin(r):
        while True:
            z = r.normal(size=(3, 3)) + 1j * r.normal(size=(3, 3))
            q, upper = np.linalg.qr(z)
            d = upper.diagonal()
            try:
                return CoinMatrix(q * (d / np.abs(d)))
            except ConfigError:
                continue

    window_rng, tail_rng = np.random.default_rng(seed), np.random.default_rng(20231111)
    sizes = [n for n in (16, 17, 19, 20, 22, 23, 25, 26, 28, 29, 31, 32) for _ in range(2)]
    for i, sites in enumerate(sizes[: index + 1]):
        tails = ((make_fourier(), make_fourier()) if i % 2 == 0
                 else (haar_coin(tail_rng), haar_coin(tail_rng)))
        grover = set(window_rng.choice(sites, size=sites // 4, replace=False).tolist())
        defects = tuple(phase_scale(make_grover(), float(window_rng.uniform(0.0, 2 * np.pi)))
                        if site in grover else haar_coin(window_rng) for site in range(sites))
    return CoinField(*tails, -(sites // 2), sites - sites // 2, defects)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
