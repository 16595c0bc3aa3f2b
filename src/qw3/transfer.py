"""Dimensional reduction of the eigenvalue equation and the 2x2 transfer matrix.

For a trial eigenphase lambda the walk's eigenvalue equation at one site
couples only two independent amplitudes once the stationary middle component
is eliminated. The reduced two-component state obeys
psi~(x+1) = T_x(lambda) psi~(x) with a 2x2 transfer matrix built from the coin
at x, except at the isolated phases where its leading coefficient vanishes and
the recursion degenerates into a pair of rank-one constraints.
"""

from __future__ import annotations

import numpy as np

from .coin import CoinField
from .evolution import coin_stack

# |a11 e^{i lam} - e^{i Delta} conj(a33)| below this (relative) threshold marks
# the transfer matrix as unbuildable at lam; transfer_rows' mask is the only
# place this is decided. The exact vanishing phases form a finite set computed
# by spectral.lambda0_set.
ZERO_TOL = 1e-9

# |a11| and |a33| must agree to this tolerance for a vanishing phase to exist.
MODULUS_TOL = 1e-10


def _mul(p, q):
    """p * q elementwise as numpy's scalar complex product (no fused multiply-add),
    so a coin's bits do not depend on the stack it comes in."""
    out = np.empty(np.broadcast_shapes(p.shape, q.shape), dtype=complex)
    out.real = p.real * q.real - p.imag * q.imag
    out.imag = p.real * q.imag + p.imag * q.real
    return out


def transfer_coefficients(mats: np.ndarray, det_phases) -> np.ndarray:
    """The ten scalars transfer_rows combines with e^{i lam}, one column per coin
    matrix of mats, (n, 3, 3), with determinant phase Delta from det_phases:
    a11, e^{i Delta} conj(a33), ZERO_TOL max(|a11|, |a33|), a22, -a13,
    e^{i Delta} conj(a31), a31, e^{i Delta} conj(a13), -e^{i Delta}, conj(a22)."""
    a11, a13, a22, a31, a33 = (mats[:, i, j] for i, j in ((0, 0), (0, 2), (1, 1), (2, 0), (2, 2)))
    ed = np.exp(1j * np.asarray(det_phases, dtype=float))
    d33, d31, d13 = _mul(ed, np.conj([a33, a31, a13]))
    tol = ZERO_TOL * np.maximum(np.hypot(a11.real, a11.imag), np.hypot(a33.real, a33.imag))
    table = np.array([a11, d33, tol, a22, -a13, d31, a31, d13, -ed, np.conj(a22)], dtype=complex)
    table.setflags(write=False)
    return table


def transfer_rows(table: np.ndarray, el: np.ndarray, inv: np.ndarray | None = None):
    """Closed-form transfer matrices of table's coins at an array of e^{i lam}.

    T = [[e^{i lam}(e^{i lam} - a22), -a13 e^{i lam} - e^{i Delta} conj(a31)],
         [a31 e^{i lam} + e^{i Delta} conj(a13), -e^{i Delta}(e^{-i lam} - conj(a22))]]
    divided by a11 e^{i lam} - e^{i Delta} conj(a33). |det T| = 1 whenever the
    divisor is nonzero. Every entry is a rational function of e^{i lam}
    (e^{-i lam} is written 1/e^{i lam}), so T is analytic in a complex lam
    away from the degenerate phases. For transfer_coefficients columns and
    el of shape (n,), returns the entries (t00, t01, t10, t11) and the mask
    where the divisor vanishes to ZERO_TOL (entries finite but meaningless),
    each (coins, n); an entry's bits do not depend on the batch's shape. inv, if
    given, is 1.0 / el[None, :], computed once by a caller streaming many tables.
    """
    a11, da33, tol, a22, ma13, da31, a31, da13, mdet, ca22 = table[:, :, None]
    # el as (1, n), never (n,): numpy multiplies a (1, 1) by a (1,) array in
    # another loop, which rounds complex products differently
    e = el[None, :]
    num = a11 * e - da33
    zero = np.abs(num) <= tol.real
    num = np.where(zero, 1.0, num) if zero.any() else num
    return (e * (e - a22) / num, (ma13 * e - da31) / num, (a31 * e + da13) / num,
            mdet * ((1.0 / e if inv is None else inv) - ca22) / num), zero


def zero_case_vectors(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Constraint directions replacing the transfer step at a degenerate phase,
    for a coin matrix or a stack of them, (..., 3, 3).

    When the transfer matrix cannot be built at a site, the reduced state
    there must be parallel to `left` and the state one site to the right
    parallel to `right`:
        left  ~ [a33 conj(a32), conj(a11) a21]
        right ~ [conj(a11) a12, a33 conj(a23)]
    Each, (..., 2), is a unit vector whose global phase is left as the products
    give it: only its direction is a constraint. The zero vector stands where
    both components vanish. A coin's bits do not depend on the stack it comes
    in: the products are numpy's scalar ones (no fused multiply-add), the
    norms vecdot's.
    """
    ca11, a33 = mat[..., 0, 0].conj(), mat[..., 2, 2]
    p = np.stack([a33, ca11, ca11, a33], axis=-1)
    q = np.stack([mat[..., 2, 1].conj(), mat[..., 1, 0], mat[..., 0, 1], mat[..., 1, 2].conj()], -1)
    v = _mul(p, q).reshape(*p.shape[:-1], 2, 2)  # (..., [left, right], 2)
    n = np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))[..., None]
    small = n <= 1e-300
    v = np.where(small, 0j, v / np.where(small, 1.0, n))
    return v[..., 0, :], v[..., 1, :]


def lift_rows(field: CoinField, xs: np.ndarray, grid: np.ndarray, el) -> np.ndarray:
    """Lift reduced states back to three components at e^{i lam} = el (one, or one
    per row). Row r, at site x = xs[r], takes psi_1(x) = psi~_1(x+1) = grid[r, 0],
    psi_3(x) = psi~_2(x) = grid[r - 1, 1] (0 for r = 0), and
        psi_2(x) = (a21 psi_1(x) + a23 psi_3(x)) / (e^{i lam} - a22).
    A state on n sites lifts to n + 1 rows from one site left of its first; states
    side by side, each followed by a zero row, lift as they do alone."""
    amps = np.zeros((len(grid), 3), dtype=complex)
    amps[:, 0] = grid[:, 0]
    amps[1:, 2] = grid[:-1, 1]
    a21, a22, a23 = coin_stack(field, xs, row=1)
    amps[:, 1] = (a21 * amps[:, 0] + a23 * amps[:, 2]) / (el - a22)
    return amps
