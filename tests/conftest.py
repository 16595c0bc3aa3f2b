import numpy as np
import pytest

from qw3.coin import CoinMatrix
from qw3.evolution import StateVector
from qw3.transfer import ReducedState, transfer_batch

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
    oracle for the unitarity-simplified closed form in qw3.transfer.transfer_batch.
    """
    m = coin.mat
    den = np.exp(1j * lam) - m[1, 1]
    return (
        m[0, 0] + m[0, 1] * m[1, 0] / den,
        m[0, 2] + m[0, 1] * m[1, 2] / den,
        m[2, 0] + m[2, 1] * m[1, 0] / den,
        m[2, 2] + m[2, 1] * m[1, 2] / den,
    )


def transfer_matrix(coin: CoinMatrix, lam: float) -> np.ndarray | None:
    """qw3.transfer.transfer_batch at one phase as a 2x2 matrix; None where it degenerates."""
    (t00, t01, t10, t11), zero = transfer_batch(coin, np.exp(1j * lam))
    return None if zero else np.array([[t00, t01], [t10, t11]])


def iota(state: StateVector) -> ReducedState:
    """Reduce a three-component state: (iota psi)(x) = [psi_1(x-1), psi_3(x)].

    The inverse of qw3.transfer.iota_inverse on the window interior.
    """
    lo, hi = state.lo, state.hi + 1
    values = np.zeros((hi - lo + 1, 2), dtype=complex)
    values[1:, 0] = state.amps[:, 0]
    values[: state.hi - state.lo + 1, 1] = state.amps[:, 2]
    return ReducedState(lo, hi, values)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
