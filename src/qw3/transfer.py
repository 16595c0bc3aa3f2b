"""Dimensional reduction of the eigenvalue equation and the 2x2 transfer matrix.

For a trial eigenphase lambda the walk's eigenvalue equation at one site
couples only two independent amplitudes once the stationary middle component
is eliminated. The reduced two-component state obeys
psi~(x+1) = T_x(lambda) psi~(x) with a 2x2 transfer matrix built from the coin
at x, except at the isolated phases where its leading coefficient vanishes and
the recursion degenerates into a pair of rank-one constraints.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .coin import CoinField, CoinMatrix
from .evolution import StateVector, coin_stack
from .linalg import TAU, phase_fix

log = logging.getLogger(__name__)

# |a11 e^{i lam} - e^{i Delta} conj(a33)| below this (relative) threshold marks
# the transfer matrix as unbuildable at lam. The exact vanishing phases form a
# finite set computed by lambda0_angle; the tolerance only guards grid samples
# landing next to them.
ZERO_TOL = 1e-9

# |a11| and |a33| must agree to this tolerance for a vanishing phase to exist.
MODULUS_TOL = 1e-10

COMPACT_TOL = 1e-10


def _divisor(coin: CoinMatrix, el):
    """a11 e^{i lam} - e^{i Delta} conj(a33), and where it vanishes to ZERO_TOL."""
    m = coin.mat
    num = m[0, 0] * el - coin.det_unit * np.conj(m[2, 2])
    return num, np.abs(num) <= ZERO_TOL * max(abs(m[0, 0]), abs(m[2, 2]))


def transfer_batch(coin: CoinMatrix, el):
    """Closed-form transfer matrices of a coin at e^{i lam}, a scalar or an array.

    T = [[e^{i lam}(e^{i lam} - a22), -a13 e^{i lam} - e^{i Delta} conj(a31)],
         [a31 e^{i lam} + e^{i Delta} conj(a13), -e^{i Delta}(e^{-i lam} - conj(a22))]]
    divided by a11 e^{i lam} - e^{i Delta} conj(a33). |det T| = 1 whenever the
    divisor is nonzero. Every entry is a rational function of e^{i lam}
    (e^{-i lam} is written 1/e^{i lam}), so T is analytic in a complex lam
    away from the degenerate phases. Returns the entries (t00, t01, t10, t11)
    and the mask of the degenerate phases, where the divisor vanishes to
    ZERO_TOL and the entries are left finite but meaningless.
    """
    m = coin.mat
    ed = coin.det_unit
    num, zero = _divisor(coin, el)
    num = np.where(zero, 1.0, num)
    entries = (
        el * (el - m[1, 1]) / num,
        (-m[0, 2] * el - ed * np.conj(m[2, 0])) / num,
        (m[2, 0] * el + ed * np.conj(m[0, 2])) / num,
        -ed * (1.0 / el - np.conj(m[1, 1])) / num,
    )
    return entries, zero


def a_zero(coin: CoinMatrix, lam: float) -> bool:
    """True when the transfer matrix cannot be built at lam (leading coefficient ~ 0)."""
    return bool(_divisor(coin, np.exp(1j * lam))[1])


def lambda0_angle(coin: CoinMatrix) -> float | None:
    """The unique angle in [0, 2pi) where this coin's transfer matrix degenerates.

    Exists iff |a11| == |a33| (then e^{i lam} = e^{i Delta} conj(a33)/a11);
    returns None otherwise. Computed symbolically, not by scanning.
    """
    m = coin.mat
    if abs(abs(m[0, 0]) - abs(m[2, 2])) > MODULUS_TOL:
        return None
    if abs(m[0, 0]) <= MODULUS_TOL:
        # a11 ~ a33 ~ 0 would degenerate the recursion at every phase.
        log.warning("coin with vanishing (1,1) and (3,3) entries: no isolated "
                    "degenerate phase exists")
        return None
    return float(np.angle(coin.det_unit * np.conj(m[2, 2]) / m[0, 0]) % TAU)


def zero_case_vectors(coin: CoinMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Constraint directions replacing the transfer step at a degenerate phase.

    When the transfer matrix cannot be built at a site, the reduced state
    there must be parallel to `left` and the state one site to the right
    parallel to `right`:
        left  ~ [a33 conj(a32), conj(a11) a21]
        right ~ [conj(a11) a12, a33 conj(a23)]
    Each is unit-normalized with its first nonzero entry made real positive;
    the zero vector is returned when both components vanish.
    """
    m = coin.mat

    def _norm(v: np.ndarray) -> np.ndarray:
        n = np.linalg.norm(v)
        if n <= 1e-300:
            return np.zeros(2, dtype=complex)
        return phase_fix(v / n)

    left = np.array([m[2, 2] * np.conj(m[2, 1]), np.conj(m[0, 0]) * m[1, 0]], dtype=complex)
    right = np.array([np.conj(m[0, 0]) * m[0, 1], m[2, 2] * np.conj(m[1, 2])], dtype=complex)
    return _norm(left), _norm(right)


def compact_support_condition(coin: CoinMatrix) -> bool:
    """Whether compactly supported tails can extend through this coin's region.

    Checks the ratio identity (a33 / conj(a11))^2 == a12 a21 / (conj(a32) conj(a23)),
    equivalently that the two zero-case constraint directions are parallel.
    Returns False when a denominator vanishes: that corner is not covered by
    the tail construction, so no compact tail is claimed.
    """
    m = coin.mat
    lhs_den = np.conj(m[0, 0]) ** 2
    rhs_den = np.conj(m[2, 1]) * np.conj(m[1, 2])
    if abs(lhs_den) <= COMPACT_TOL or abs(rhs_den) <= COMPACT_TOL:
        log.info("compact-support ratio check skipped: vanishing denominator")
        return False
    lhs = m[2, 2] ** 2 / lhs_den
    rhs = m[0, 1] * m[1, 0] / rhs_den
    return bool(abs(lhs - rhs) <= COMPACT_TOL * max(1.0, abs(lhs), abs(rhs)))


@dataclass(frozen=True)
class ReducedState:
    """Two-component reduced wavefunction on a finite window [lo, hi]."""

    lo: int
    hi: int
    values: np.ndarray  # shape (hi - lo + 1, 2), complex

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.hi - self.lo + 1, 2):
            raise ValueError(f"values shape {v.shape} does not match window "
                             f"[{self.lo}, {self.hi}]")
        object.__setattr__(self, "values", v)

    def value(self, x: int) -> np.ndarray:
        if self.lo <= x <= self.hi:
            return self.values[x - self.lo]
        return np.zeros(2, dtype=complex)


def iota_inverse(reduced: ReducedState, field: CoinField, lam: float) -> StateVector:
    """Lift a reduced state back to three components at eigenphase lam.

    psi_1(x) = psi~_1(x+1), psi_3(x) = psi~_2(x) and the middle component is
    reconstructed from the coin at x:
        psi_2(x) = (a21 psi_1(x) + a23 psi_3(x)) / (e^{i lam} - a22).
    The output window is [lo - 1, hi] (one site wider on the left).
    """
    lo, hi = reduced.lo - 1, reduced.hi
    amps = np.zeros((hi - lo + 1, 3), dtype=complex)
    amps[:-1, 0] = reduced.values[:, 0]
    amps[1:, 2] = reduced.values[:, 1]
    a21, a22, a23 = coin_stack(field, lo, hi)[:, 1].T
    amps[:, 1] = (a21 * amps[:, 0] + a23 * amps[:, 2]) / (np.exp(1j * lam) - a22)
    return StateVector(lo, hi, amps)
